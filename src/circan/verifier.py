"""Field-by-field verification of closed forms against brute force.

For every parameter point the verifier rebuilds the complement, runs BFS,
recomputes every predicted quantity from scratch (spectral radius both as
the exact transmission and as the numeric DFT maximum, forwarding values,
all seventeen indices), and records per-field agreement. The ``xi_witness``
field builds the rotation routing at every order and certifies its BFS tree:
each tree step is a graph edge and each base path 0 -> v has length d(v).
Uniform vertex load then follows from rotation alone, so the witness
compares that one load with the predicted forwarding index. Integer and
rational fields must match exactly; square-root-valued indices are compared
at 1e-9 relative and the numeric spectrum at 1e-6 relative.

Most fields are count-determined: ``degree``, ``rho``, ``rs``, ``xi``,
``pi_lower``, ``pi_upper`` and the seventeen indices. Their computed side
reads only n and the distance counts (the transmission, the number of
distance-1 vertices, the reciprocal transmission, the edge-forwarding bounds
from n, rho and r, and ``report_from_distance_vector``), and their predicted
side is a closed form of (family, n, h) that never reads the double-loop
jump ``a``. Two points with equal (family, n, h) and equal counts therefore
get equal checks, so a sweep builds them once per key and shares the frozen
``FieldCheck`` objects; the complement of C_n(1, a) has the same counts for
every a, so a double-loop sweep builds them once per order. ``predict``
runs only when a key is first met, and the key also holds the counts of the
point's predicted vector: the closed forms read only (family, n, h) and the
internal consistency check only those counts, so it is the same check at
every point with the key. The table keeps the checks and the predicted
forwarding index, not the prediction, and lives for one sweep (one worker
chunk under ``jobs``). The predicted and computed distance vectors, the
numeric spectral radius (the FFT's maximum; nothing sorts the spectrum),
the routing witness and the base diameter still run at every point. A
sub-family sweep builds only its own multiplicative points.

Out-of-domain parameters are still swept: they produce flagged records (the
observed obstruction goes into the note) rather than assertions, so a sweep
documents where the closed forms stop holding instead of silently skipping.
An in-domain point that cannot be checked fails.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable, Sequence

import numpy as np

from .core import CirculantSpec, complement_spec
from .errors import DisconnectedGraphError, EmptyComplementError
from .families import (
    DomainStatus,
    Family,
    FamilyPoint,
    Prediction,
    base_spec,
    c7_point,
    domain_status,
    double_loop_gen_point,
    double_loop_half_point,
    multiplicative_base_diameter,
    multiplicative_point,
    predict,
    predicted_distance_vector,
)
from .indices import INDEX_FIELDS, PAIR_FIELDS, report_from_distance_vector
from .metrics import DistanceVector, distance_vector
from .routing import build_rotation_routing, edge_forwarding_bounds, vertex_forwarding_index
from .spectral import spectral_radius_numeric

DEFAULT_FLOAT_TOL = 1e-9
DEFAULT_SPECTRAL_TOL = 1e-6

FIELD_ORDER = (
    "distance_vector",
    "degree",
    "rho",
    "spectral_max",
    "rs",
    "xi",
    "xi_witness",
    "pi_lower",
    "pi_upper",
    "base_diameter",
) + INDEX_FIELDS


@dataclass(frozen=True)
class FieldCheck:
    match: bool
    predicted: str
    computed: str


@dataclass(frozen=True)
class VerificationRecord:
    point: FamilyPoint
    domain_status: DomainStatus
    note: str
    fields: dict[str, FieldCheck]

    @property
    def passed(self) -> bool:
        """True unless an in-domain point failed a field comparison or was
        not checked at all."""
        if self.domain_status is not DomainStatus.IN_DOMAIN:
            return True
        return bool(self.fields) and all(check.match for check in self.fields.values())

    def mismatches(self) -> dict[str, FieldCheck]:
        return {k: v for k, v in self.fields.items() if not v.match}


def _rel_close(a: float, b: float, tol: float) -> bool:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return True
    return abs(a - b) <= tol * scale


def _vector_repr(d: np.ndarray) -> str:
    if d.shape[0] <= 64:
        return str(d.tolist())
    far = {}
    for v in np.flatnonzero(d > 1):
        far.setdefault(int(d[v]), []).append(int(v))
    body = ";".join(f"d{dist}@{pos}" for dist, pos in sorted(far.items()))
    return f"n={d.shape[0]};ones=rest;{body}"


def verify_point(
    point: FamilyPoint,
    *,
    float_tol: float = DEFAULT_FLOAT_TOL,
    spectral_tol: float = DEFAULT_SPECTRAL_TOL,
    _table: dict | None = None,
) -> VerificationRecord:
    """Compare every closed form for one parameter point against brute force.

    ``_table`` is the calling sweep's table of count-determined checks (see
    the module docstring); a point verified alone is a sweep of one.
    """
    status, reason = domain_status(point)
    base = base_spec(point)
    try:
        comp = complement_spec(base)
    except EmptyComplementError:
        note = _domain_note(status, reason, "complement is edgeless")
        return VerificationRecord(point, status, note, {})
    try:
        dv = distance_vector(comp)
    except DisconnectedGraphError:
        note = _domain_note(status, reason, "complement is disconnected")
        return VerificationRecord(point, status, note, {})

    if status is not DomainStatus.IN_DOMAIN:
        note = _domain_note(status, reason, "complement is connected; formulas not asserted")
        return VerificationRecord(point, status, note, {})

    if _table is None:
        _table = {}
    predicted = predicted_distance_vector(point)
    key = (point.family, point.n, point.h, dv.distance_counts().tobytes(),
           predicted.distance_counts().tobytes())
    if key not in _table:
        pred = predict(point)
        _table[key] = (_count_checks(pred, dv, float_tol), pred.xi)
    count_checks, xi = _table[key]
    checks = {
        **count_checks,
        **_vector_checks(point, xi, predicted, base, comp, dv, spectral_tol),
    }
    fields = {name: checks[name] for name in FIELD_ORDER if name in checks}
    return VerificationRecord(point, DomainStatus.IN_DOMAIN, "", fields)


def _vector_checks(
    point: FamilyPoint,
    xi: int,
    predicted: DistanceVector,
    base: CirculantSpec,
    comp: CirculantSpec,
    dv: DistanceVector,
    spectral_tol: float,
) -> dict[str, FieldCheck]:
    """The fields that read the distance vector itself, checked at every
    point against the point's own predicted vector and the predicted
    forwarding index ``xi``."""
    fields = {
        "distance_vector": FieldCheck(
            match=bool(np.array_equal(dv.d, predicted.d)),
            predicted=_vector_repr(predicted.d),
            computed=_vector_repr(dv.d),
        )
    }
    rho = dv.transmission
    dft_max = spectral_radius_numeric(dv)
    fields["spectral_max"] = FieldCheck(
        _rel_close(dft_max, float(rho), spectral_tol), str(rho), repr(dft_max)
    )

    routing = build_rotation_routing(comp, dv)
    loads = routing.vertex_loads()
    lo, hi = int(loads.min()), int(loads.max())
    witness = f"min={lo},max={hi}"
    if not routing.minimal:
        witness += ";not a shortest-path tree"
    fields["xi_witness"] = FieldCheck(routing.minimal and lo == hi == xi, str(xi), witness)

    if point.family in (Family.MC_2H, Family.MC_GEN, Family.MC_23):
        assert point.m is not None and point.h is not None
        base_diam = distance_vector(base).diameter
        predicted_diam = multiplicative_base_diameter(point.m, point.h)
        fields["base_diameter"] = FieldCheck(
            base_diam == predicted_diam, str(predicted_diam), str(base_diam)
        )
    return fields


def _count_checks(
    pred: Prediction, dv: DistanceVector, float_tol: float
) -> dict[str, FieldCheck]:
    """The fields whose computed side reads only n and the distance counts."""
    degree = dv.degree
    rho = dv.transmission
    rs = dv.reciprocal_transmission
    xi = vertex_forwarding_index(dv)
    pi_lower, pi_upper = edge_forwarding_bounds(dv)
    fields = {
        "degree": FieldCheck(degree == pred.degree, str(pred.degree), str(degree)),
        "rho": FieldCheck(rho == pred.rho, str(pred.rho), str(rho)),
        "rs": FieldCheck(rs == pred.rs, str(pred.rs), str(rs)),
        "xi": FieldCheck(xi == pred.xi, str(pred.xi), str(xi)),
        "pi_lower": FieldCheck(pi_lower == pred.pi_lower, str(pred.pi_lower), str(pi_lower)),
        "pi_upper": FieldCheck(pi_upper == pred.pi_upper, str(pred.pi_upper), str(pi_upper)),
    }

    computed = report_from_distance_vector(dv)
    for name in INDEX_FIELDS:
        want = getattr(pred.indices, name)
        if name in PAIR_FIELDS:
            got = getattr(computed, name)
            fields[name] = FieldCheck(got == want, str(want), str(got))
        elif name in pred.indices.exact and name in computed.exact:
            want_exact = pred.indices.exact[name]
            got_exact = computed.exact[name]
            fields[name] = FieldCheck(
                got_exact == want_exact, str(want_exact), str(got_exact)
            )
        else:
            got = getattr(computed, name)
            fields[name] = FieldCheck(
                _rel_close(got, want, float_tol), repr(want), repr(got)
            )
    return fields


def _domain_note(status: DomainStatus, reason: str, observed: str) -> str:
    if status is DomainStatus.IN_DOMAIN:
        # Should not happen: an in-domain point failed to produce a connected
        # complement. The record has no fields, so it does not pass.
        return f"UNEXPECTED: {observed}"
    return f"{reason}; observed: {observed}" if reason else f"observed: {observed}"


# ---------------------------------------------------------------------------
# sweeps


def double_loop_half_points(k_lo: int, k_hi: int) -> list[FamilyPoint]:
    return [double_loop_half_point(k) for k in range(max(2, k_lo), k_hi + 1)]


def double_loop_gen_points(n_lo: int, n_hi: int) -> list[FamilyPoint]:
    points = []
    for n in range(max(5, n_lo), n_hi + 1):
        for a in range(2, (n - 1) // 2 + 1):
            points.append(double_loop_gen_point(n, a))
    return points


def c7_points() -> list[FamilyPoint]:
    return [c7_point(2), c7_point(3)]


def multiplicative_points(
    max_order: int, family: Family | None = None
) -> list[FamilyPoint]:
    """The multiplicative points with m^h <= ``max_order`` by m, then h; only
    those of the sub-family ``family`` when given, built from its own m."""
    if family is None:
        ms = range(2, max_order + 1)
    elif family is Family.MC_GEN:
        ms = range(3, max_order + 1)
    else:  # MC_2H and MC_23 have m = 2
        ms = (2,)
    points = []
    for m in ms:
        n = m
        h = 1
        while n <= max_order:
            point = multiplicative_point(m, h)
            if family is None or point.family is family:
                points.append(point)
            n *= m
            h += 1
    return points


def verify_sweep(
    points: Sequence[FamilyPoint],
    *,
    jobs: int = 1,
    float_tol: float = DEFAULT_FLOAT_TOL,
    spectral_tol: float = DEFAULT_SPECTRAL_TOL,
) -> list[VerificationRecord]:
    """Verify every point, in order; ``jobs`` > 1 shards across at most
    ``jobs`` processes, and never more than the machine has cores."""
    run = partial(_verify_chunk, float_tol=float_tol, spectral_tol=spectral_tol)
    # more workers than cores only add processes, and more than chunks idle
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(points) < 4:
        return run(points)
    # imported here so that a process that never runs workers does not pay
    # for loading the pool
    from concurrent.futures import ProcessPoolExecutor

    size = max(1, len(points) // (4 * jobs))
    chunks = [points[i : i + size] for i in range(0, len(points), size)]
    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        return [rec for recs in pool.map(run, chunks) for rec in recs]


def _verify_chunk(
    points: Sequence[FamilyPoint], *, float_tol: float, spectral_tol: float
) -> list[VerificationRecord]:
    """Verify points in order with one table of count-determined checks,
    dropped on return."""
    table: dict = {}
    return [
        verify_point(p, float_tol=float_tol, spectral_tol=spectral_tol, _table=table)
        for p in points
    ]


def verify_family(
    family: Family | str,
    *,
    k_range: tuple[int, int] = (2, 32),
    n_range: tuple[int, int] = (8, 40),
    max_order: int = 1024,
    jobs: int = 1,
    float_tol: float = DEFAULT_FLOAT_TOL,
    spectral_tol: float = DEFAULT_SPECTRAL_TOL,
) -> list[VerificationRecord]:
    """Sweep one family (or the whole multiplicative class via ``"mc"``)."""
    name = family.value if isinstance(family, Family) else family
    if name == Family.DOUBLE_LOOP_HALF.value:
        points = double_loop_half_points(*k_range)
    elif name == Family.DOUBLE_LOOP_GEN.value:
        points = double_loop_gen_points(*n_range)
    elif name == Family.C7_SPECIAL.value:
        points = c7_points()
    elif name == "mc":
        points = multiplicative_points(max_order)
    elif name in (Family.MC_2H.value, Family.MC_GEN.value, Family.MC_23.value):
        points = multiplicative_points(max_order, Family(name))
    else:
        raise ValueError(f"unknown family {family!r}")
    return verify_sweep(
        points, jobs=jobs, float_tol=float_tol, spectral_tol=spectral_tol
    )


def has_failures(records: Iterable[VerificationRecord]) -> bool:
    return any(not r.passed for r in records)


# ---------------------------------------------------------------------------
# serialization


def record_to_dict(rec: VerificationRecord) -> dict:
    return {
        "family": rec.point.family.value,
        "n": rec.point.n,
        "a": rec.point.a,
        "m": rec.point.m,
        "h": rec.point.h,
        "status": rec.domain_status.value,
        "note": rec.note,
        "passed": rec.passed,
        "fields": {
            name: {
                "match": check.match,
                "predicted": check.predicted,
                "computed": check.computed,
            }
            for name, check in rec.fields.items()
        },
    }


def _int_array_items(arr: np.ndarray) -> list[str]:
    """The decimal text of each entry of a non-empty 1-D integer array with
    entries in 0..len - 1, such as a distance vector, by one gather over the
    texts of 0..max: the table is never longer than the array."""
    if not (arr.ndim == 1 and arr.size and arr.dtype.kind in "iu"
            and arr.min() >= 0 and arr.max() < arr.size):
        raise TypeError("only a non-empty 1-D integer array with entries in "
                        "0..len - 1 is serializable")
    table = np.array([str(i) for i in range(int(arr.max()) + 1)], dtype=object)
    return table.take(arr).tolist()


_INF = float("inf")
_NOT_SCALAR = (str, dict, list, tuple)


def _dumps_indent2(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for dicts with str keys,
    lists, tuples, str, int, float, bool and None; an integer array of
    :func:`_int_array_items` is written as the list of its entries.

    Any ``indent`` turns the stdlib's C encoder off, so this builds the layout
    by joins instead: strings go through the C string escaper, a list of
    plain scalars through one C-encoder call and an array through one table
    gather. ``pad`` is the newline plus the indentation of the enclosing level.
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
        return "[" + inner + ("," + inner).join(_int_array_items(value)) + pad + "]"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if not isinstance(value[0], _NOT_SCALAR):
            flat = json.dumps(value)
            # the text of a non-str scalar holds no '"', '[' or '{', so these
            # mark a list that is not all plain scalars after all
            if '"' not in flat and "{" not in flat and flat.find("[", 1) < 0:
                return "[" + inner + flat[1:-1].replace(", ", "," + inner) + pad + "]"
        items = [_dumps_indent2(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def records_to_json(records: Sequence[VerificationRecord]) -> str:
    return _dumps_indent2([record_to_dict(r) for r in records])


def records_to_csv(records: Sequence[VerificationRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["family", "n", "a", "m", "h", "status", "note", "passed"]
    for field in FIELD_ORDER:
        header += [f"{field}_match", f"{field}_predicted", f"{field}_computed"]
    writer.writerow(header)
    for rec in records:
        row = [
            rec.point.family.value,
            rec.point.n,
            "" if rec.point.a is None else rec.point.a,
            "" if rec.point.m is None else rec.point.m,
            "" if rec.point.h is None else rec.point.h,
            rec.domain_status.value,
            rec.note,
            rec.passed,
        ]
        for field in FIELD_ORDER:
            check = rec.fields.get(field)
            if check is None:
                row += ["", "", ""]
            else:
                row += [check.match, check.predicted, check.computed]
        writer.writerow(row)
    return buf.getvalue()
