"""Command-line interface.

Four subcommands: ``analyze`` (single-graph report), ``verify`` (family
sweep), ``spectrum`` (eigenvalue listing), ``routing`` (fixture load
analysis). Exit codes are part of the interface:

- 0 success;
- 1 any other library error (``CirculantError``), e.g.
  ``DegenerateTransmissionError`` for ``analyze --n 2 --jumps 1``,
  ``OversizedRationalError`` when an exact rational has more digits than
  Python converts to text, ``InvariantError`` when a result breaks an
  internal invariant, such as a BFS distance vector that is no palindrome;
- 2 disconnected or edgeless graph, argparse usage errors (including
  ``verify --jobs`` below 1) and a sweep that selects no points;
- 3 bad input (``InputError``): a malformed jump list, fixture or routing
  (a non-ASCII byte, or a vertex count numpy cannot hold, among them), a
  graph order below 2 (``--n 1``), ``--m`` below 2 or ``--h`` below 1; or
  a file that cannot be read or written (``OSError``);
- 4 verification failure.

``main`` picks codes 1-3 from the error's class through one table,
``_EXIT_CODES``, and prints one ``error:`` line. Any other exception, a
bare ``ValueError`` included, is a defect and propagates with its
traceback.

Exact rationals are serialized as "p/q" strings, floats as shortest
round-trip decimals. An exact rational past Python's int-to-str digit
limit is refused, not printed in another form: ``analyze`` on C_n(1)
reaches it at about diameter 1,700 (``--n 8192 --jumps 1`` exits 1).
``verify`` compares at pinned tolerances; it has no option to change them.
In ``analyze`` and ``spectrum`` a token that starts with a minus and a digit
is always a value, so ``--jumps -1,3`` reads as ``--jumps=-1,3``.
``--out`` files hold the stdout bytes as UTF-8; text and CSV values holding
a line break are CSV-quoted.

The writer of the documents of ``analyze``, ``spectrum`` and ``routing``
lives here (``_dumps_indent2``, ``_flatten``); ``verify`` prints its
records through ``verifier``'s record writers.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

from .core import (
    CirculantSpec,
    GenericGraph,
    complement_graph,
    complement_spec,
    parse_graph_fixture,
)
from .errors import (
    CirculantError,
    DisconnectedGraphError,
    EmptyComplementError,
    FixtureParseError,
    InputError,
    OversizedRationalError,
)
from .families import SWEEPS, base_spec, multiplicative_point
from .indices import INDEX_FIELDS, full_report, report_from_distance_vector
from .metrics import distance_vector, metrics_summary
from .routing import load_profile, parse_routing_fixture, edge_forwarding_bounds, vertex_forwarding_index
from .spectral import circulant_spectrum, spectral_radii
from .verifier import has_failures, records_to_csv, records_to_json, verify_family

EXIT_OK = 0
EXIT_VERIFY_FAILED = 4

# The exit code of each failure, by the first row whose classes it is an
# instance of; a CirculantError of no earlier row is a library error.
_EXIT_CODES = (
    ((InputError, OSError), 3),
    ((DisconnectedGraphError, EmptyComplementError), 2),
    ((CirculantError,), 1),
)


def _parse_jumps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise InputError(f"bad jump list {text!r}; expected comma-separated integers")


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected lo:hi")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; lo exceeds hi")
    return lo, hi


def _fraction_str(name: str, value: Fraction) -> str:
    try:
        return str(value)
    except ValueError as exc:  # int-to-str digit limit
        raise OversizedRationalError(
            f"exact {name} has a numerator or denominator of more than "
            f"{sys.get_int_max_str_digits()} digits, too large to print"
        ) from exc


def _array_items(arr: np.ndarray, *, json_floats: bool = True) -> list[str]:
    """The text of each entry of a non-empty 1-D integer or float64 array,
    by one gather over texts.

    An integer array, such as a distance vector, must hold entries in
    0..len - 1; it is gathered from the texts of 0..max, so the table is
    never longer than the array. A float array, such as a sorted spectrum,
    is cut into runs of neighbours with equal bit patterns (so -0.0 stays
    apart from 0.0); each run's head is formatted once and its text
    repeated by the run's length. Floats get JSON's texts (``NaN``,
    ``Infinity``) from one C-encoder call, or ``repr`` texts when
    ``json_floats`` is false.
    """
    if arr.ndim == 1 and arr.size:
        if arr.dtype.kind in "iu" and arr.min() >= 0 and arr.max() < arr.size:
            table = np.array([str(i) for i in range(int(arr.max()) + 1)], dtype=object)
            return table.take(arr).tolist()
        if arr.dtype == np.float64:
            bits = arr.view(np.int64)
            starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
            heads = arr[starts].tolist()
            if json_floats:
                texts = json.dumps(heads)[1:-1].split(", ")
            else:
                texts = [repr(v) for v in heads]
            runs = np.diff(starts, append=arr.size)
            return np.array(texts, dtype=object).repeat(runs).tolist()
    raise TypeError("only a non-empty 1-D float64 array, or a 1-D integer array "
                    "with entries in 0..len - 1, is serializable")


_INF = float("inf")


def _dumps_indent2(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the documents the
    commands build: dicts with str keys, arrays of :func:`_array_items`
    (written as the list of their entries), non-empty lists of ints, and
    str, int, float, bool and None.

    Any ``indent`` turns the stdlib's C encoder off, so this builds the layout
    by joins instead: strings go through the C string escaper, a list of ints
    through one C-encoder call and an array through one gather over texts.
    ``pad`` is the newline plus the indentation of the enclosing level.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [_encode_str(k) + ": " + _dumps_indent2(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, np.ndarray):
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(_array_items(value)) + pad + "]"
    if isinstance(value, list):
        inner = pad + "  "
        return "[" + inner + json.dumps(value)[1:-1].replace(", ", "," + inner) + pad + "]"
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _flatten(doc, prefix: str = "") -> list[tuple[str, str]]:
    """The (dotted key, text) rows of a document of :func:`_dumps_indent2`'s
    shapes; an array or a list of ints is one row of space-separated texts."""
    if isinstance(doc, dict):
        rows = []
        for key, value in doc.items():
            rows += _flatten(value, f"{prefix}{key}.")
        return rows
    if isinstance(doc, np.ndarray):
        value = " ".join(_array_items(doc, json_floats=False))
    elif isinstance(doc, list):
        value = " ".join(map(str, doc))
    else:
        value = repr(doc) if isinstance(doc, float) else str(doc)
    return [(prefix[:-1], value)]


def _emit(args: argparse.Namespace, doc) -> None:
    if args.format == "json":
        text = _dumps_indent2(doc) + "\n"
    else:
        if args.format == "csv":
            lines, sep, special = ["key,value"], ",", ',"\r\n'
        else:
            lines, sep, special = [], ": ", "\r\n"
        for key, value in _flatten(doc):
            if any(c in value for c in special):
                value = '"' + value.replace('"', '""') + '"'
            lines.append(key + sep + value)
        text = "\n".join(lines) + "\n"
    _emit_raw(args, text)


def _emit_raw(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _circulant_source(args: argparse.Namespace) -> CirculantSpec:
    if args.n is not None:
        if not args.jumps:
            raise InputError("--n requires --jumps")
        spec = CirculantSpec.of(args.n, _parse_jumps(args.jumps))
    else:  # multiplicative_point refuses m < 2 or h < 1 before computing m**h
        spec = base_spec(multiplicative_point(args.m, args.h))
    if args.complement:
        spec = complement_spec(spec)
    return spec


def _add_source_arguments(sub: argparse.ArgumentParser, *, fixture: bool = True) -> None:
    sub.add_argument("--n", type=int, help="circulant order")
    sub.add_argument("--jumps", help="comma-separated jump list, e.g. 1,3")
    # argparse takes a token that starts with a minus for an option unless it
    # matches the parser's negative-number rule. No option here starts with
    # a digit, so a token that does is a value: --jumps -1,3 reads as
    # --jumps=-1,3.
    sub._negative_number_matcher = re.compile(r"^-\d")
    sub.add_argument("--m", type=int, help="multiplicative base")
    sub.add_argument("--h", type=int, help="multiplicative exponent")
    sub.add_argument("--complement", action="store_true", help="analyze the complement")
    if fixture:
        sub.add_argument("--fixture", help="graph fixture path")


def _add_output_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.add_argument("--out", help="output path (default: stdout)")


def _check_one_source(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    has_spec = args.n is not None
    has_mc = args.m is not None or args.h is not None
    has_fixture = getattr(args, "fixture", None) is not None
    if has_mc and (args.m is None or args.h is None):
        parser.error("--m and --h must be given together")
    count = sum((has_spec, has_mc, has_fixture))
    if count != 1:
        parser.error("exactly one graph source required: --n/--jumps, --m/--h, or --fixture")
    return "fixture" if has_fixture else "circulant"


def _indices_doc(report) -> dict:
    indices = {}
    for name in INDEX_FIELDS:
        value = getattr(report, name)
        indices[name] = _fraction_str(name, value) if isinstance(value, Fraction) else value
    return indices


def _read_fixture(path: str) -> str:
    """The text of an ASCII fixture file; any other byte is a parse error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FixtureParseError(
            f"{path}: non-ASCII byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from exc


def _routing_doc(g: GenericGraph, routing_path: str) -> dict:
    routing = parse_routing_fixture(_read_fixture(routing_path), g)
    profile = load_profile(routing)
    return {
        "paths": len(routing),
        "minimal": routing.minimal,
        "symmetric": routing.symmetric,
        "vertex_loads": [int(x) for x in profile.vertex_loads],
        "max_vertex_load": profile.max_vertex_load,
        "max_edge_load": profile.max_edge_load,
        "forwarding_index_wrt_routing": profile.max_vertex_load,
    }


def cmd_analyze(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _check_one_source(parser, args)
    if kind == "fixture":
        g = parse_graph_fixture(_read_fixture(args.fixture))
        if args.complement:
            g = complement_graph(g)
        summary = metrics_summary(g)
        doc = {
            "graph": {"source": args.fixture, "n": g.n, "edge_count": g.edge_count,
                      "complement": args.complement},
            "metrics": {
                "degree": summary.degree,
                "transmission": summary.transmission,
                "reciprocal_transmission": None
                if summary.reciprocal_transmission is None
                else _fraction_str("reciprocal_transmission", summary.reciprocal_transmission),
                "diameter": summary.diameter,
                "transmission_regular": summary.transmission_regular,
            },
            "indices": _indices_doc(full_report(g)),
        }
        if args.routing:
            doc["routing"] = _routing_doc(g, args.routing)
        _emit(args, doc)
        return EXIT_OK
    if args.routing:
        parser.error("--routing requires --fixture")
    spec = _circulant_source(args)
    dv = distance_vector(spec)
    report = report_from_distance_vector(dv)
    pi_lower, pi_upper = edge_forwarding_bounds(dv)
    doc = {
        "graph": {"n": spec.n, "jumps": list(spec.jumps), "degree": dv.degree,
                  "edge_count": spec.n * dv.degree // 2},
        "metrics": {
            "transmission": report.transmission,
            "reciprocal_transmission": _fraction_str("reciprocal_transmission",
                                                     report.reciprocal_transmission),
            "diameter": dv.diameter,
            # first row of the circulant distance matrix; row i is this
            # vector rotated by i (the read-only array, written by the
            # emitter's table gather)
            "distance_vector": dv.d,
        },
        "spectrum": {
            "rho": report.transmission,
            "radius_float": float(spectral_radii(dv.d)),
        },
        "forwarding": {
            "xi": vertex_forwarding_index(dv),
            "pi_lower": _fraction_str("pi_lower", pi_lower),
            "pi_upper": pi_upper,
        },
        "indices": _indices_doc(report),
        "indices_exact": {k: _fraction_str(k, v) for k, v in sorted(report.exact.items())},
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_spectrum(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_one_source(parser, args)
    spec = _circulant_source(args)
    dv = distance_vector(spec)
    eigenvalues = circulant_spectrum(dv)
    radius = float(eigenvalues[0])
    exact = dv.transmission
    doc = {
        "n": spec.n,
        "jumps": list(spec.jumps),
        "eigenvalues": eigenvalues,
        "radius_exact": exact,
        "radius_float": radius,
        "radius_abs_error": abs(radius - exact),
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_routing(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    g = parse_graph_fixture(_read_fixture(args.fixture))
    doc = {
        "graph": {"source": args.fixture, "n": g.n, "edge_count": g.edge_count},
        "routing": _routing_doc(g, args.routing),
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    records = verify_family(
        args.family,
        k_range=args.k,
        n_range=args.n,
        max_order=args.max_order,
        jobs=args.jobs,
    )
    if not records:
        parser.error(f"verify --family {args.family} with these bounds selects no points")
    if args.format == "csv":
        _emit_raw(args, records_to_csv(records))
    elif args.format == "json":
        _emit_raw(args, records_to_json(records) + "\n")
    else:
        lines = []
        for rec in records:
            point = rec.point
            params = f"n={point.n}"
            if point.a is not None:
                params += f" a={point.a}"
            if point.m is not None:
                params += f" m={point.m} h={point.h}"
            line = f"{point.family.value} {params} {rec.domain_status.value}"
            if rec.note:
                line += f" ({rec.note})"
            if not rec.passed:
                line += " FAILED: " + (",".join(sorted(rec.mismatches())) or "not checked")
            lines.append(line)
        checked = sum(1 for r in records if r.fields)
        lines.append(
            f"total {len(records)} points, {checked} verified, "
            f"{sum(1 for r in records if not r.passed)} failed"
        )
        _emit_raw(args, "\n".join(lines) + "\n")
    return EXIT_VERIFY_FAILED if has_failures(records) else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circan",
        description="Circulant graph analysis and closed-form verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="single-graph report")
    _add_source_arguments(analyze)
    analyze.add_argument("--routing", help="routing fixture path (with --fixture)")
    _add_output_arguments(analyze)
    analyze.set_defaults(func=cmd_analyze)

    spectrum = sub.add_parser("spectrum", help="distance-matrix eigenvalues")
    _add_source_arguments(spectrum, fixture=False)
    _add_output_arguments(spectrum)
    spectrum.set_defaults(func=cmd_spectrum)

    routing = sub.add_parser("routing", help="routing fixture load analysis")
    routing.add_argument("--fixture", required=True, help="graph fixture path")
    routing.add_argument("--routing", required=True, help="routing fixture path")
    _add_output_arguments(routing)
    routing.set_defaults(func=cmd_routing)

    verify = sub.add_parser("verify", help="family verification sweep")
    verify.add_argument("--family", required=True, choices=tuple(SWEEPS))
    verify.add_argument("--k", type=_parse_range, default=(2, 32), help="k range lo:hi")
    verify.add_argument("--n", type=_parse_range, default=(8, 40), help="n range lo:hi")
    verify.add_argument("--max-order", type=int, default=1024)
    verify.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_output_arguments(verify)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (CirculantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
