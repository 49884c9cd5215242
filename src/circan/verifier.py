"""Field-by-field verification of closed forms against brute force.

This module only compares: a sweep's points and every predicted value come
from ``families``. For every point the verifier rebuilds the complement,
runs BFS, recomputes every predicted quantity from scratch (spectral radius
both as the exact transmission and as the numeric DFT maximum, forwarding
values, all seventeen indices), and records per-field agreement. Each field
is compared by the type of its prediction. Every integer and ``Fraction``
prediction, the scalar fields, the base diameter, the witness load and the
exact indices alike, is decided by one rule (``_exact_check``): it matches
only an equal computed ``int`` or ``Fraction``, so a computed float never
matches one. The four square-root-valued indices are compared at
``FLOAT_TOL`` (1e-9) relative and the numeric spectrum at ``SPECTRAL_TOL``
(1e-6) relative, and a NaN or infinite value on either side never matches
(``_close_finite``); no option changes these module constants. The
``xi_witness`` field certifies the computed vector as the complement's BFS
layering (``metrics.bfs_layering_fault``), the BFS tree of the
rotation-invariant shortest-path routing, whose uniform vertex load
rho - (n - 1) it compares with the predicted forwarding index; a refused
layering fails the field and names the condition that failed.

Most fields are count-determined: ``degree``, ``rho``, ``rs``, ``xi``,
``pi_lower``, ``pi_upper`` and the seventeen indices. Their computed side
reads only n and the distance counts, and their predicted side is a closed
form of (family, n, h) that never reads the double-loop jump ``a``. So a
sweep builds their checks once per key (family, n, h, distance counts) and
shares the frozen ``FieldCheck`` objects; the complement of C_n(1, a) has
the same counts for every a, so a double-loop sweep builds them once per
order. ``predict`` runs only when a key is first met and hands over that
point's predicted vector; every later point builds its own. The key leaves
out the predicted vector's counts, which depend on (family, n, h) alone; a
point whose own vector is wrong still fails its ``distance_vector`` field.
The table keeps the checks, the predicted rho, xi and base diameter, and
lives for one sweep (one worker chunk under ``jobs``).

A chunk takes consecutive points of one order n in blocks of at most
``_STACK_ENTRIES`` // n. Each point's BFS, count-table entry, witness and
base diameter come first, its specs then dropped; one comparison of the
block's stacked (k, n) computed and predicted vectors gives every
``distance_vector`` match, and one transform every numeric spectral radius,
the half transform's maximum (``spectral.spectral_radii``), checked
against the predicted rho.

Out-of-domain parameters are still swept: they produce flagged records (the
observed obstruction goes into the note) rather than assertions, so a sweep
documents where the closed forms stop holding instead of silently skipping.
An in-domain point that cannot be checked fails.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import complement_spec
from .errors import DisconnectedGraphError, EmptyComplementError, InputError
from .families import (
    DomainStatus,
    Family,
    FamilyPoint,
    SWEEPS,
    Prediction,
    base_spec,
    domain_status,
    predict,
    predicted_distance_vector,
)
from .indices import INDEX_FIELDS, report_from_distance_vector
from .metrics import DistanceVector, bfs_layering_fault, distance_vector
from .routing import edge_forwarding_bounds, vertex_forwarding_index
from .spectral import spectral_radii

FLOAT_TOL = 1e-9
SPECTRAL_TOL = 1e-6

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

    @cached_property
    def passed(self) -> bool:
        """True unless an in-domain point failed a field comparison or was
        not checked at all; computed once per record."""
        if self.domain_status is not DomainStatus.IN_DOMAIN:
            return True
        return bool(self.fields) and all(check.match for check in self.fields.values())

    def mismatches(self) -> dict[str, FieldCheck]:
        return {k: v for k, v in self.fields.items() if not v.match}


def _close_finite(a: float, b: float, tol: float) -> bool:
    """a and b agree within ``tol`` relative; a NaN or infinite side fails."""
    return math.isfinite(a) and math.isfinite(b) and math.isclose(a, b, rel_tol=tol)


def _vector_repr(d: np.ndarray) -> str:
    if d.shape[0] <= 64:
        return str(d.tolist())
    far = {}
    for v in np.flatnonzero(d > 1):
        far.setdefault(int(d[v]), []).append(int(v))
    body = ";".join(f"d{dist}@{pos}" for dist, pos in sorted(far.items()))
    return f"n={d.shape[0]};ones=rest;{body}"


class _Found(NamedTuple):
    """One point's status, note and checks, and the vectors its block stacks."""
    status: DomainStatus
    note: str
    checks: dict[str, FieldCheck]
    dv: DistanceVector | None = None
    predicted: np.ndarray | None = None
    rho: int | None = None


def verify_point(point: FamilyPoint, *, _found: _Found | None = None) -> VerificationRecord:
    """Compare every closed form for one parameter point against brute force;
    ``_found`` is its ``_brute_force`` result in the calling chunk."""
    if _found is None:
        (_found,) = _brute_force([point], {})
    fields = {name: _found.checks[name] for name in FIELD_ORDER if name in _found.checks}
    return VerificationRecord(point, _found.status, _found.note, fields)


def _brute_force(points: Sequence[FamilyPoint], table: dict) -> list[_Found]:
    """Each point's result, for points of one order: every point's own checks
    first, then one stacked vector comparison and one stacked transform."""
    found = [_point_checks(point, table) for point in points]
    rows = [f for f in found if f.dv is not None]
    if rows:
        computed = np.array([f.dv.d for f in rows])
        matches = (computed == np.array([f.predicted for f in rows])).all(axis=1).tolist()
        for f, match, dft_max in zip(rows, matches, spectral_radii(computed).tolist()):
            text = _vector_repr(f.dv.d)
            f.checks["distance_vector"] = FieldCheck(
                match, text if match else _vector_repr(f.predicted), text)
            f.checks["spectral_max"] = FieldCheck(
                _close_finite(dft_max, float(f.rho), SPECTRAL_TOL), str(f.rho), repr(dft_max))
    return found


def _point_checks(point: FamilyPoint, table: dict) -> _Found:
    """A point's result before the stacked checks, its specs dropped on
    return; the first in-domain point of a key enters the key's checks."""
    status, reason = domain_status(point)
    base = base_spec(point)
    try:
        comp = complement_spec(base)
        dv = distance_vector(comp)
    except EmptyComplementError:
        return _Found(status, _domain_note(status, reason, "complement is edgeless"), {})
    except DisconnectedGraphError:
        return _Found(status, _domain_note(status, reason, "complement is disconnected"), {})
    if status is not DomainStatus.IN_DOMAIN:
        observed = "complement is connected; formulas not asserted"
        return _Found(status, _domain_note(status, reason, observed), {})
    key = (point.family, point.n, point.h, dv.distance_counts().tobytes())
    if key in table:
        predicted = predicted_distance_vector(point)
    else:
        pred = predict(point)
        predicted = pred.distance_vector
        table[key] = (_count_checks(pred, dv), pred.rho, pred.xi, pred.base_diameter)
    count_checks, rho, xi, base_diameter = table[key]
    checks = dict(count_checks)
    # A certified BFS layering is the witness of the rotation routing, whose
    # every vertex carries rho - (n - 1).
    fault, load = bfs_layering_fault(comp, dv), vertex_forwarding_index(dv)
    witness = f"min={load},max={load}" if fault is None else f"not the BFS layering: {fault}"
    check = _exact_check(xi, load)
    checks["xi_witness"] = FieldCheck(fault is None and check.match, check.predicted, witness)
    if base_diameter is not None:
        checks["base_diameter"] = _exact_check(base_diameter, distance_vector(base).diameter)
    return _Found(status, "", checks, dv, predicted, rho)


def _count_checks(pred: Prediction, dv: DistanceVector) -> dict[str, FieldCheck]:
    """The fields whose computed side reads only n and the distance counts.

    A value predicted as a ``float`` is compared at ``FLOAT_TOL`` relative,
    every other one by :func:`_exact_check`. An index's computed side is
    the report's exact value, or its float when it has none, which fails an
    exact prediction."""
    pi_lower, pi_upper = edge_forwarding_bounds(dv)
    report = report_from_distance_vector(dv)
    computed = {
        "degree": dv.degree,
        "rho": dv.transmission,
        "rs": dv.reciprocal_transmission,
        "xi": vertex_forwarding_index(dv),
        "pi_lower": pi_lower,
        "pi_upper": pi_upper,
        **{name: getattr(report, name) for name in INDEX_FIELDS},
        **report.exact,
    }
    predicted = {"degree": pred.degree, "rho": pred.rho, "rs": pred.rs, "xi": pred.xi,
                 "pi_lower": pred.pi_lower, "pi_upper": pred.pi_upper, **pred.indices}
    return {
        name: FieldCheck(_close_finite(got, want, FLOAT_TOL), repr(want), repr(got))
        if isinstance(want, float) else _exact_check(want, got)
        for name, want in predicted.items() for got in (computed[name],)
    }


def _exact_check(want, got) -> FieldCheck:
    """The check of an exact prediction: it matches only a computed ``int``
    or ``Fraction`` equal to it, so a computed float never does. A match of
    the prediction's own type is formatted once for both texts."""
    match = type(got) in (int, Fraction) and got == want
    if match and type(want) is type(got):
        text = str(want)
        return FieldCheck(True, text, text)
    return FieldCheck(match, str(want), str(got))


def _domain_note(status: DomainStatus, reason: str, observed: str) -> str:
    if status is DomainStatus.IN_DOMAIN:
        # Should not happen: an in-domain point failed to produce a connected
        # complement. The record has no fields, so it does not pass.
        return f"UNEXPECTED: {observed}"
    return f"{reason}; observed: {observed}" if reason else f"observed: {observed}"


# ---------------------------------------------------------------------------
# sweeps


def verify_sweep(points: Sequence[FamilyPoint], *, jobs: int = 1) -> list[VerificationRecord]:
    """Verify every point, in order; ``jobs`` > 1 shards across at most
    ``jobs`` processes, and never more than the machine has cores."""
    # more workers than cores only add processes, and more than chunks idle
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(points) < 4:
        return _verify_chunk(points)
    # imported here so that a process that never runs workers does not pay
    # for loading the pool
    from concurrent.futures import ProcessPoolExecutor

    size = max(1, len(points) // (4 * jobs))
    chunks = [points[i : i + size] for i in range(0, len(points), size)]
    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        return [rec for recs in pool.map(_verify_chunk, chunks) for rec in recs]


# A chunk holds the vectors of at most max(1, _STACK_ENTRIES // n) points.
_STACK_ENTRIES = 1 << 12


def _verify_chunk(points: Sequence[FamilyPoint]) -> list[VerificationRecord]:
    """Verify points in order with one table of count-determined checks,
    dropped on return, and one stack per block of one order's points."""
    table: dict = {}
    records = []
    for n, run in groupby(points, key=lambda point: point.n):
        while block := list(islice(run, max(1, _STACK_ENTRIES // n))):
            found = _brute_force(block, table)
            records += [verify_point(p, _found=f) for p, f in zip(block, found)]
    return records


def verify_family(
    family: Family | str,
    *,
    k_range: tuple[int, int] = (2, 32),
    n_range: tuple[int, int] = (8, 40),
    max_order: int = 1024,
    jobs: int = 1,
) -> list[VerificationRecord]:
    """Sweep one family (or the whole multiplicative class via ``"mc"``)."""
    sweep = SWEEPS.get(family.value if isinstance(family, Family) else family)
    if sweep is None:
        raise InputError(f"unknown family {family!r}")
    return verify_sweep(sweep(k_range=k_range, n_range=n_range, max_order=max_order), jobs=jobs)


def has_failures(records: Iterable[VerificationRecord]) -> bool:
    return any(not r.passed for r in records)


# ---------------------------------------------------------------------------
# serialization


def records_to_json(records: Sequence[VerificationRecord]) -> str:
    """``json.dumps(docs, indent=2)`` of the records, byte for byte, where
    each doc holds the point (family, n, a, m, h), status, note, passed and
    {field: {match, predicted, computed}}; written from one template per
    record and one per field, with the strings through the C string
    escaper."""
    if not records:
        return "[]"
    return "[" + ",".join(map(_record_json, records)) + "\n]"


def _json_int(value: int | None) -> str:
    return "null" if value is None else int.__repr__(value)


def _record_json(rec: VerificationRecord) -> str:
    p = rec.point
    if rec.fields:
        blocks = [
            f'\n      {_encode_str(name)}: {{\n        "match": {"true" if c.match else "false"},'
            f'\n        "predicted": {_encode_str(c.predicted)},'
            f'\n        "computed": {_encode_str(c.computed)}\n      }}'
            for name, c in rec.fields.items()
        ]
        fields = "{" + ",".join(blocks) + "\n    }"
    else:
        fields = "{}"
    return (
        f'\n  {{\n    "family": {_encode_str(p.family.value)},\n    "n": {_json_int(p.n)},'
        f'\n    "a": {_json_int(p.a)},\n    "m": {_json_int(p.m)},\n    "h": {_json_int(p.h)},'
        f'\n    "status": {_encode_str(rec.domain_status.value)},'
        f'\n    "note": {_encode_str(rec.note)},'
        f'\n    "passed": {"true" if rec.passed else "false"},\n    "fields": {fields}\n  }}'
    )


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
