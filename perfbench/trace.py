"""Per-layer tracing of circan from outside the package.

``installed(tracer)`` wraps the public functions and public methods of the
circan modules at every module binding that holds them (for example both
``circan.metrics.distance_vector`` and ``circan.verifier.distance_vector``),
so every call, direct or nested, opens a span. Spans are folded into
per-name totals as they close: call count, busy time (outermost activation
only, so re-entry is not counted twice), self time (duration minus the part
covered by child spans) and the sum of graph orders passed in. The wrappers
are removed again when the context exits, so untraced passes run the
unmodified library.

In ``cli`` only ``main`` is wrapped: the ``cmd_*`` handlers stay inside
``cli.main``'s self time, which therefore holds argument parsing and output
serialization.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter_ns

MODULES = ("core", "metrics", "spectral", "routing", "indices", "families", "verifier", "cli")

# Calls that open a new operation: the set of inputs already computed "in
# the same op" (for repeat_frac) is cleared when one of these is entered.
OP_BOUNDARIES = ("cli.main", "verifier.verify_point")


@dataclass
class LayerStat:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    sum_n: int = 0
    repeats: int = 0


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list[int]] = []  # per open span: [child_ns]
        self._depth: dict[str, int] = {}
        self._seen: set = set()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stat(self, name: str) -> LayerStat:
        return self.stats.get(name) or LayerStat()

    def call(self, name: str, fn, args, kwargs, repeat_key):
        if name in OP_BOUNDARIES:
            self._seen.clear()
        stat_name = _classify(name, args)
        stat = self.stats.setdefault(stat_name, LayerStat())
        stat.calls += 1
        if repeat_key is not None:
            key = (name, repeat_key(args[0]))
            if key in self._seen:
                self.stats.setdefault(name, LayerStat()).repeats += 1
            self._seen.add(key)
        depth = self._depth.get(stat_name, 0)
        self._depth[stat_name] = depth + 1
        frame = [0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            stat.self_ns += elapsed - frame[0]
            if depth == 0:
                stat.busy_ns += elapsed
            self._depth[stat_name] = depth
        stat.sum_n += _order(args, result)
        if name == "verifier.verify_point":
            self.count("verifier.fields_checked", len(result.fields))
            self.count("verifier.points_in_domain", result.domain_status.value == "in_domain")
        return result


def _order(args, result) -> int:
    """Order of the graph passed in (or, for parsers, returned)."""
    for obj in (args[0] if args else None, result):
        n = getattr(obj, "n", None)
        if isinstance(n, int):
            return n
    return 0


def _circulant_degree(spec) -> int:
    # From the jump set alone, so tracing never calls the traced offsets().
    return 2 * len(spec.jumps) - (spec.n % 2 == 0 and spec.jumps[-1] == spec.n // 2)


def _classify(name: str, args) -> str:
    if name == "metrics.distance_vector":
        spec = args[0]
        return name + (".sparse" if 2 * _circulant_degree(spec) <= spec.n else ".dense")
    return name


def _graph_key(g):
    return g.n, hashlib.blake2b(g.adj.tobytes(), digest_size=16).digest()


REPEAT_KEYS = {
    "metrics.distance_vector": lambda spec: (spec.n, spec.jumps),
    "metrics.all_pairs_distances": _graph_key,
}


def _wrap(tracer: Tracer, name: str, fn):
    repeat_key = REPEAT_KEYS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, repeat_key)

    return traced


def _targets(modules: dict):
    """(owner, attribute, qualified name, function) for every traced callable."""
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if short != "cli" or attr == "main":
                    yield mod, attr, f"{short}.{attr}", obj
            elif inspect.isclass(obj):
                for mattr, mobj in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    if inspect.isfunction(mobj) or isinstance(mobj, classmethod):
                        yield obj, mattr, f"{short}.{attr}.{mattr}", mobj


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced callable for the duration of the block."""
    modules = {m: importlib.import_module(f"circan.{m}") for m in MODULES}
    restore: list[tuple[object, str, object]] = []
    wrapped: dict[object, object] = {}
    for owner, attr, name, obj in _targets(modules):
        if isinstance(obj, classmethod):
            replacement = classmethod(_wrap(tracer, name, obj.__func__))
        else:
            replacement = _wrap(tracer, name, obj)
            wrapped[obj] = replacement
        restore.append((owner, attr, obj))
        setattr(owner, attr, replacement)
    # Rebind functions wherever another module (or the package) imported them.
    for mod in (*modules.values(), importlib.import_module("circan")):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    try:
        yield tracer
    finally:
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)
