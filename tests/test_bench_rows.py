"""Every per-layer row of the benchmark names code that still runs.

The benchmark's tracer times each public function, and each public method
or class method of a public class, defined in ``circan.<module>``, under
the name ``module.function`` or ``module.Class.method``. A row whose name no longer resolves reads zero on
every run, so a refactor that renames or removes a traced function would
quietly zero its rows. This test reads ``BENCHMARK.json`` only; it imports
nothing from the benchmark's own package.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# counters the benchmark fills itself, not timings of a function
COUNTERS = {"cli.output_bytes", "verifier.fields_checked", "verifier.points_in_domain",
            "trace_overhead_frac"}
# rows of functions removed by earlier changes, kept until the benchmark changes
DEAD = {"metrics.all_pairs_distances", "routing.build_rotation_routing",
        "routing.RotationRouting.vertex_loads"}


def _layer(row: str) -> str:
    """The traced name of a row: without its statistic and any
    ``.sparse``/``.dense`` class."""
    name = row.rsplit(".", 1)[0]
    for suffix in (".sparse", ".dense"):
        name = name.removesuffix(suffix)
    return name


def _resolves(layer: str) -> bool:
    """True when ``layer`` is ``module.function`` or ``module.Class.method``,
    each part public and defined in ``circan.<module>`` itself."""
    module, *classes, function = layer.split(".")
    home = f"circan.{module}"
    if len(classes) > 1 or any(name.startswith("_") for name in (*classes, function)):
        return False
    owner = importlib.import_module(home)
    for name in classes:
        owner = getattr(owner, name, None)
        if not inspect.isclass(owner) or owner.__module__ != home:
            return False
    obj = vars(owner).get(function)
    if isinstance(obj, classmethod):
        obj = obj.__func__
    return inspect.isfunction(obj) and obj.__module__ == home


def test_every_layer_row_names_a_public_function():
    rows = [row["name"] for row in json.loads(BENCHMARK.read_text())["per_layer"]]
    layers = {_layer(row) for row in rows if row not in COUNTERS}
    assert {layer for layer in layers if not _resolves(layer)} == DEAD
