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
layering (``metrics.layering_faults``), the BFS tree of the
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
``rho`` and ``rs`` read the index report's sums. The table keeps each key's
fields in ``FIELD_ORDER``, its predicted rho and base diameter, and lives
for one sweep (one worker chunk under ``jobs``).

A chunk takes consecutive points of one order n in blocks of at most
``_STACK_ENTRIES`` // n and runs each stage once per block, in order: the
specs; one (k, n) stack of hop counts (``metrics.distance_stack``); one
check of its in-domain rows (``metrics.stack_counts``), giving their count
keys; the count table, a new key's ``predict`` and checks on its one
``DistanceVector``, and the base diameters (``metrics.eccentricity``); one
certificate pass (``metrics.layering_faults``); one comparison of the
stacked computed and predicted vectors, and one transform whose half
maximum (``spectral.spectral_radii``) is checked against the predicted rho.

Out-of-domain parameters are still swept: they produce flagged records (the
observed obstruction goes into the note) rather than assertions, so a sweep
documents where the closed forms stop holding instead of silently skipping.
An in-domain point that cannot be checked fails.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable, Sequence

import numpy as np

from .core import complement_spec
from .errors import EmptyComplementError, InputError
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
from .metrics import DistanceVector, distance_stack, eccentricity, layering_faults, stack_counts
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
    far = (d > 1).nonzero()[0]
    groups = {}
    for v, dist in zip(far.tolist(), d[far].tolist()):
        groups.setdefault(dist, []).append(v)
    body = ";".join(f"d{dist}@{pos}" for dist, pos in sorted(groups.items()))
    return f"n={d.shape[0]};ones=rest;{body}"


def verify_point(point: FamilyPoint, *, _found: tuple | None = None) -> VerificationRecord:
    """Compare every closed form for one parameter point against brute force;
    ``_found`` is its ``_brute_force`` result in the calling chunk."""
    return VerificationRecord(point, *(_found or _brute_force([point], {})[0]))


def _brute_force(points: Sequence[FamilyPoint], table: dict) -> list[tuple]:
    """Each point's status, note and checks, for points of one order, by
    the block stages of the module docstring."""
    found, block, comps = [], [], []  # block: the points with a complement
    for point in points:
        status, reason = domain_status(point)
        base = base_spec(point)
        try:
            comps.append(complement_spec(base))
        except EmptyComplementError:
            found.append((status, _domain_note(status, reason, "complement is edgeless"), {}))
            continue
        block.append((len(found), point, status, reason, base))
        found.append(None)
    if not block:
        return found
    stack = distance_stack(comps)
    rows = []
    for j, low in enumerate(stack.min(axis=1).tolist() if stack.min() < 0 else [0] * len(stack)):
        i, _, status, reason, _ = block[j]
        if low >= 0 and status is DomainStatus.IN_DOMAIN:
            rows.append(j)
            continue
        observed = "disconnected" if low < 0 else "connected; formulas not asserted"
        found[i] = (status, _domain_note(status, reason, f"complement is {observed}"), {})
    if not rows:
        return found
    computed = stack[rows] if len(rows) < len(stack) else stack
    computed.setflags(write=False)
    predicted, each = [], []
    for j, row, row_counts in zip(rows, computed, counts := stack_counts(stack.shape[1], computed)):
        i, point, status, _, base = block[j]
        key = (point.family, point.n, point.h, row_counts.tobytes())
        if key in table:
            predicted.append(predicted_distance_vector(point))
        else:
            pred = predict(point)
            predicted.append(pred.distance_vector)
            dv = DistanceVector.of_checked_row(row, row_counts)
            table[key] = (_count_checks(pred, dv), pred.rho, pred.base_diameter)
        layout, rho, base_diameter = table[key]
        checks = dict(layout)
        if base_diameter is not None:
            checks["base_diameter"] = _exact_check(base_diameter, eccentricity(base))
        found[i] = (status, "", checks)
        each.append((checks, rho))
    faults = layering_faults([comps[j] for j in rows], computed, counts)
    matches = (computed == np.array(predicted)).all(axis=1).tolist()
    radii = spectral_radii(computed).tolist()
    for (checks, rho), row, want, match, dft_max, fault in zip(
            each, computed, predicted, matches, radii, faults):
        text = _vector_repr(row)
        checks["distance_vector"] = FieldCheck(match, text if match else _vector_repr(want), text)
        checks["spectral_max"] = FieldCheck(
            _close_finite(dft_max, float(rho), SPECTRAL_TOL), str(rho), repr(dft_max))
        if fault is not None:
            checks["xi_witness"] = FieldCheck(
                False, checks["xi_witness"].predicted, f"not the BFS layering: {fault}")
    return found


def _count_checks(pred: Prediction, dv: DistanceVector) -> dict[str, FieldCheck | None]:
    """A key's fields in ``FIELD_ORDER``, those each point fills left None:
    the ones whose computed side reads only n and the distance counts, and
    the witness check of a certified layering. A ``float`` prediction is
    compared at ``FLOAT_TOL`` relative, every other one by
    :func:`_exact_check`; an index's computed side is the report's exact
    value, or its float when it has none, which fails an exact prediction."""
    pi_lower, pi_upper = edge_forwarding_bounds(dv)
    report = report_from_distance_vector(dv)
    computed = {
        "degree": dv.degree,
        "rho": report.transmission,
        "rs": report.reciprocal_transmission,
        "xi": vertex_forwarding_index(dv),
        "pi_lower": pi_lower,
        "pi_upper": pi_upper,
        **{name: getattr(report, name) for name in INDEX_FIELDS},
        **report.exact,
    }
    predicted = {"degree": pred.degree, "rho": pred.rho, "rs": pred.rs, "xi": pred.xi,
                 "pi_lower": pred.pi_lower, "pi_upper": pred.pi_upper, **pred.indices}
    checks = dict.fromkeys(FIELD_ORDER) | {
        name: FieldCheck(_close_finite(got, want, FLOAT_TOL), repr(want), repr(got))
        if isinstance(want, float) else _exact_check(want, got)
        for name, want in predicted.items() for got in (computed[name],)
    }
    # a certified layering's rotation routing loads every vertex with xi's computed side
    xi, load = checks["xi"], checks["xi"].computed
    checks["xi_witness"] = FieldCheck(xi.match, xi.predicted, f"min={load},max={load}")
    if pred.base_diameter is None:
        del checks["base_diameter"]
    return checks


def _exact_check(want, got) -> FieldCheck:
    """The check of an exact prediction: it matches only a computed ``int``
    or ``Fraction`` equal to it, so a computed float never does. Both sides
    are compared as ratios in lowest terms, without ``Fraction.__eq__``'s
    numeric-tower dispatch. A match of the prediction's own type is
    formatted once for both texts."""
    match = type(got) in (int, Fraction) and got.as_integer_ratio() == want.as_integer_ratio()
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


_CSV_HEADER = ",".join(["family", "n", "a", "m", "h", "status", "note", "passed"] + [
    f"{field}_{part}" for field in FIELD_ORDER for part in ("match", "predicted", "computed")])


def _csv_text(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field: quoted if it holds , " or LF."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def records_to_csv(records: Sequence[VerificationRecord]) -> str:
    """``csv.writer(buf, lineterminator="\n")`` rows, byte for byte: a header,
    then per record its point, status, note, passed and each field's match,
    predicted and computed; each shared ``FieldCheck`` is rendered once."""
    rendered: dict[int, str] = {}
    lines = [_CSV_HEADER]
    for rec in records:
        p = rec.point
        point = ",".join("" if v is None else str(v) for v in (p.a, p.m, p.h))
        cells = [f"\n{p.family.value},{p.n},{point},{rec.domain_status.value},"
                 f"{_csv_text(rec.note)},{rec.passed}"]
        for check in map(rec.fields.get, FIELD_ORDER):
            if check is None:
                text = ",,,"
            elif (text := rendered.get(id(check))) is None:
                text = rendered[id(check)] = (
                    f",{check.match},{_csv_text(check.predicted)},{_csv_text(check.computed)}")
            cells.append(text)
        lines.append("".join(cells))
    return "".join(lines) + "\n"
