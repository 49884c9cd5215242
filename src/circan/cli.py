"""Command-line interface.

Four subcommands: ``analyze`` (single-graph report), ``verify`` (family
sweep), ``spectrum`` (eigenvalue listing), ``routing`` (fixture load
analysis). Exit codes are part of the interface: 0 success, 1 any other
library error (e.g. ``DegenerateTransmissionError`` for ``analyze --n 2
--jumps 1``, ``OversizedRationalError`` when an exact rational has more
digits than Python converts to text), 2 disconnected or edgeless graph,
argparse usage errors (including ``verify --jobs`` below 1) and a sweep
that selects no points, 3 parse error, or a file that cannot be read or
written, 4 verification failure. Exact rationals are serialized as "p/q"
strings, floats as shortest round-trip decimals. ``--out`` files hold the
stdout bytes as UTF-8; text and CSV values holding a line break are
CSV-quoted.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import (
    CirculantSpec,
    GenericGraph,
    complement_graph,
    parse_graph_fixture,
)
from .errors import (
    CirculantError,
    DisconnectedGraphError,
    EmptyComplementError,
    EmptyJumpSetError,
    FixtureParseError,
    InvalidEdgeError,
    MissingPairError,
    NonElementaryPathError,
    OversizedRationalError,
)
from .indices import INDEX_FIELDS, full_report, report_from_distance_vector
from .metrics import distance_vector, metrics_summary
from .routing import load_profile, parse_routing_fixture, edge_forwarding_bounds, vertex_forwarding_index
from .spectral import circulant_spectrum, spectral_radius_numeric
from .verifier import (
    _dumps_indent2,
    _int_array_items,
    has_failures,
    records_to_csv,
    records_to_json,
    verify_family,
)

EXIT_OK = 0
EXIT_DISCONNECTED = 2
EXIT_PARSE = 3
EXIT_VERIFY_FAILED = 4

_PARSE_ERRORS = (
    FixtureParseError,
    MissingPairError,
    InvalidEdgeError,
    NonElementaryPathError,
    EmptyJumpSetError,
)
_DISCONNECTED_ERRORS = (DisconnectedGraphError, EmptyComplementError)


def _parse_jumps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise FixtureParseError(f"bad jump list {text!r}; expected comma-separated integers")


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


def _flatten(doc, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            rows += _flatten(value, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(doc, np.ndarray):
        rows.append((prefix.rstrip("."), " ".join(_int_array_items(doc))))
    elif isinstance(doc, (list, tuple)):
        rows.append((prefix.rstrip("."), " ".join(repr(v) if isinstance(v, float) else str(v) for v in doc)))
    else:
        value = repr(doc) if isinstance(doc, float) else str(doc)
        rows.append((prefix.rstrip("."), value))
    return rows


def _quoted(value: str) -> str:
    return '"' + value.replace('"', '""') + '"'


def _emit(args: argparse.Namespace, doc) -> None:
    fmt = args.format
    if fmt == "json":
        text = _dumps_indent2(doc) + "\n"
    elif fmt == "csv":
        lines = ["key,value"]
        for key, value in _flatten(doc):
            special = any(c in value for c in ',"\r\n')
            lines.append(f"{key},{_quoted(value) if special else value}")
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for key, value in _flatten(doc):
            broken = "\r" in value or "\n" in value
            lines.append(f"{key}: {_quoted(value) if broken else value}")
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
            raise FixtureParseError("--n requires --jumps")
        spec = CirculantSpec.of(args.n, _parse_jumps(args.jumps))
    else:
        spec = CirculantSpec.of(args.m**args.h, tuple(args.m**i for i in range(args.h)))
    if args.complement:
        spec = spec.complement()
    return spec


def _add_source_arguments(sub: argparse.ArgumentParser, *, fixture: bool = True) -> None:
    sub.add_argument("--n", type=int, help="circulant order")
    sub.add_argument("--jumps", help="comma-separated jump list, e.g. 1,3")
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


def _routing_doc(g: GenericGraph, routing_path: str) -> dict:
    text = Path(routing_path).read_text(encoding="ascii")
    routing = parse_routing_fixture(text, g)
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
        g = parse_graph_fixture(Path(args.fixture).read_text(encoding="ascii"))
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
            "transmission": dv.transmission,
            "reciprocal_transmission": _fraction_str("reciprocal_transmission",
                                                     dv.reciprocal_transmission),
            "diameter": dv.diameter,
            # first row of the circulant distance matrix; row i is this
            # vector rotated by i (the read-only array, written by the
            # emitter's table gather)
            "distance_vector": dv.d,
        },
        "spectrum": {
            "rho": dv.transmission,
            "radius_float": spectral_radius_numeric(dv),
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
    spectrum = circulant_spectrum(dv)
    exact = dv.transmission
    doc = {
        "n": spec.n,
        "jumps": list(spec.jumps),
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "radius_exact": exact,
        "radius_float": spectrum.radius,
        "radius_abs_error": abs(spectrum.radius - exact),
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_routing(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    g = parse_graph_fixture(Path(args.fixture).read_text(encoding="ascii"))
    doc = {
        "graph": {"source": args.fixture, "n": g.n, "edge_count": g.edge_count},
        "routing": _routing_doc(g, args.routing),
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not 0 < args.tol <= 1e-3:
        parser.error("--tol must lie in (0, 1e-3]")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    records = verify_family(
        args.family,
        k_range=args.k,
        n_range=args.n,
        max_order=args.max_order,
        jobs=args.jobs,
        float_tol=args.tol,
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
    verify.add_argument(
        "--family",
        required=True,
        choices=("double-loop-half", "double-loop-gen", "c7", "mc", "mc-2h", "mc-gen", "mc-23"),
    )
    verify.add_argument("--k", type=_parse_range, default=(2, 32), help="k range lo:hi")
    verify.add_argument("--n", type=_parse_range, default=(8, 40), help="n range lo:hi")
    verify.add_argument("--max-order", type=int, default=1024)
    verify.add_argument("--tol", type=float, default=1e-9)
    verify.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_output_arguments(verify)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _DISCONNECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CirculantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
