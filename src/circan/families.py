"""Closed-form predictions for complements of structured circulant families.

The double loops C_n(1, a) and the multiplicative circulants
C_{m^h}(1, m, ..., m^(h-1)) form six families, one row each of the table
``_RULES``:

* ``DOUBLE_LOOP_HALF``  -- complements of C_n(1, n/2), n = 2k
* ``DOUBLE_LOOP_GEN``   -- complements of C_n(1, a), 2 <= a < n/2
* ``C7_SPECIAL``        -- the two 7-vertex double loops (their complements
  are 7-cycles, with their own distance vectors)
* ``MC_2H``             -- complements of C_{2^h}(1, 2, ..., 2^(h-1))
* ``MC_GEN``            -- complements of C_{m^h}(1, m, ..., m^(h-1)), m >= 3
* ``MC_23``             -- the single 8-vertex multiplicative circulant,
  whose complement is an 8-cycle with diameter 4

A row holds the family's base jumps, effective domain, predicted complement
distance vector, closed forms for the spectral radius, reciprocal
transmission, vertex-forwarding index, edge-forwarding bounds and all
seventeen topological indices, base-diameter flag and sweep.

Every closed form is established only on an *effective domain*; parameters
outside it (edgeless or disconnected complements, or orders the underlying
arguments do not reach) are flagged instead of asserted. The one named
exclusion is the 8-vertex double loop with jump 3, whose complement is
disconnected.

Each value is stated once, in the type its closed form gives: integers and
``Fraction``s wherever the value is rational, a ``float`` only for the four
square-root-valued indices (t/rt SC and ABC). The closed forms are an
independent transcription: this module reads nothing of the engine that
checks them beyond the graph types of ``core`` and ``metrics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import CirculantSpec
from .errors import (
    InconsistentPredictionError,
    InputError,
    InvariantError,
    KnownExceptionError,
    OutOfDomainError,
)
from .metrics import DistanceVector


class Family(Enum):
    DOUBLE_LOOP_HALF = "double-loop-half"
    DOUBLE_LOOP_GEN = "double-loop-gen"
    C7_SPECIAL = "c7"
    MC_2H = "mc-2h"
    MC_GEN = "mc-gen"
    MC_23 = "mc-23"


class DomainStatus(Enum):
    IN_DOMAIN = "in_domain"
    KNOWN_EXCEPTION = "known_exception"
    OUT_OF_DOMAIN = "out_of_domain"


@dataclass(frozen=True)
class FamilyPoint:
    """One parameter point of a family (n plus the family's parameters)."""

    family: Family
    n: int
    a: int | None = None
    m: int | None = None
    h: int | None = None

    def label(self) -> str:
        if _RULES[self.family].multiplicative:
            return f"complement of C{self.n}(1,{self.m},...)^[m={self.m},h={self.h}]"
        return f"complement of C{self.n}(1,{self.a})"


def double_loop_half_point(k: int) -> FamilyPoint:
    """The double loop C_{2k}(1, k)."""
    if k < 2:
        raise InputError(f"half-jump parameter must be at least 2, got {k}")
    return FamilyPoint(Family.DOUBLE_LOOP_HALF, n=2 * k, a=k)


def double_loop_gen_point(n: int, a: int) -> FamilyPoint:
    """The double loop C_n(1, a) with 2 <= a < n/2."""
    if not 2 <= a or not 2 * a < n:
        raise InputError(f"need 2 <= a < n/2, got n={n}, a={a}")
    return FamilyPoint(Family.DOUBLE_LOOP_GEN, n=n, a=a)


def c7_point(a: int) -> FamilyPoint:
    """One of the two 7-vertex double loops (a = 2 or 3)."""
    if a not in (2, 3):
        raise InputError(f"the 7-vertex family has a in {{2, 3}}, got {a}")
    return FamilyPoint(Family.C7_SPECIAL, n=7, a=a)


def multiplicative_point(m: int, h: int) -> FamilyPoint:
    """The multiplicative circulant C_{m^h}(1, m, m^2, ..., m^(h-1))."""
    if m < 2 or h < 1:
        raise InputError(f"need m >= 2 and h >= 1, got m={m}, h={h}")
    if (m, h) == (2, 3):
        family = Family.MC_23
    elif m == 2:
        family = Family.MC_2H
    else:
        family = Family.MC_GEN
    return FamilyPoint(family, n=m**h, m=m, h=h)


def _param(point: FamilyPoint, name: str) -> int:
    """The parameter ``name`` (a, m or h) of ``point``, which its family
    requires; a point built without it is a defect of the caller."""
    value = getattr(point, name)
    if value is None:
        raise InvariantError(f"{point.family.value} point has no {name}: {point}")
    return value


def base_spec(point: FamilyPoint) -> CirculantSpec:
    """Spec of the base graph whose complement the family describes."""
    return CirculantSpec.of(point.n, _RULES[point.family].jumps(point))


def domain_status(point: FamilyPoint) -> tuple[DomainStatus, str]:
    """Effective-domain classification with a human-readable reason.

    The stated parameter ranges of the closed forms are wider in places
    than the arguments supporting them; the effective domain keeps only
    parameters the verification can stand behind, and flags the rest.
    """
    return _RULES[point.family].domain(point)


def predicted_distance_vector(point: FamilyPoint) -> np.ndarray:
    """Closed-form complement distance vector of an in-domain point: the
    family's stated vector, or distance 2 exactly at the base jumps and
    their negatives mod n and 1 elsewhere, as a read-only int64 array of
    shape (n,) (another shape is an ``InvariantError``); ``predict`` checks
    the other ``DistanceVector`` invariants once per prediction."""
    status, reason = domain_status(point)
    if status is not DomainStatus.IN_DOMAIN:
        known = status is DomainStatus.KNOWN_EXCEPTION
        raise (KnownExceptionError if known else OutOfDomainError)(f"{point.label()}: {reason}")
    rule = _RULES[point.family]
    if rule.vector is not None:
        vec = np.array(rule.vector(point), dtype=np.int64)
    else:
        twos = np.array(rule.jumps(point), dtype=np.int64)
        vec = np.ones(point.n, dtype=np.int64)
        vec[0] = 0
        vec[np.concatenate((twos, point.n - twos))] = 2
    if vec.shape != (point.n,):
        raise InvariantError(f"expected {point.n} entries, got shape {vec.shape}")
    vec.setflags(write=False)
    return vec


IndexValues = dict[str, Fraction | float]


@dataclass(frozen=True)
class Prediction:
    """Every closed-form value for one in-domain parameter point.

    ``indices`` maps each name of ``indices.INDEX_FIELDS`` to its value in
    the type its closed form gives: a ``Fraction`` for the pair indices, the
    GA/AG values and both AZ values, a ``float`` for the square-root-valued
    SC and ABC values. ``distance_vector`` is the predicted vector that the
    scalar forms are checked against; ``base_diameter`` is the base graph's
    diameter for the three multiplicative families, ``None`` for the others.
    """

    degree: int
    rho: int
    rs: Fraction
    xi: int
    pi_lower: Fraction
    pi_upper: int
    indices: IndexValues
    distance_vector: np.ndarray
    base_diameter: int | None


def _report(*, ga_ag: Fraction, **values: Fraction | float) -> IndexValues:
    """The index values by name; the four GA/AG values are all ``ga_ag``,
    the edge count of the transmission-regular complement."""
    return {**values, "t_ga": ga_ag, "t_ag": ga_ag, "rt_ga": ga_ag, "rt_ag": ga_ag}


def _predict_double_loop_half(n: int) -> tuple[int, int, Fraction, Fraction, int, IndexValues]:
    rho = n + 2
    rs = Fraction(2 * n - 5, 2)
    degree = n - 4
    pi = (Fraction(2 * (n + 2), n - 4), 11)
    report = _report(
        wiener=Fraction(n * (n + 2), 2),
        hyper_wiener=Fraction(n * (n + 5), 2),
        harary=Fraction(n * (2 * n - 5), 4),
        schultz=Fraction(n * (n - 4) * (n + 2)),
        gutman=Fraction(n * (n + 2) * (n - 4) ** 2, 2),
        harary_additive=Fraction(n * (n - 4) * (2 * n - 5), 2),
        harary_multiplicative=Fraction(n * (2 * n - 5) * (n - 4) ** 2, 4),
        ga_ag=Fraction(n * (n - 4), 2),
        t_sc=n * (n - 4) / (2 * math.sqrt(2) * math.sqrt(n + 2)),
        t_abc=n * (n - 4) * math.sqrt(n + 1) / (math.sqrt(2) * (n + 2)),
        t_az=Fraction(n * (n - 4) * (n + 2) ** 6, 16 * (n + 1) ** 3),
        rt_sc=n * (n - 4) / (2 * math.sqrt(2 * n - 5)),
        rt_abc=n * (n - 4) * math.sqrt(2 * n - 7) / (2 * n - 5),
        rt_az=Fraction(n * (n - 4) * (2 * n - 5) ** 6, 128 * (2 * n - 7) ** 3),
    )
    return rho, degree, rs, pi[0], pi[1], report


def _predict_double_loop_gen(n: int) -> tuple[int, int, Fraction, Fraction, int, IndexValues]:
    rho = n + 3
    rs = Fraction(n - 3)
    degree = n - 5
    pi = (Fraction(2 * (n + 3), n - 5), 14)
    report = _report(
        wiener=Fraction(n * (n + 3), 2),
        hyper_wiener=Fraction(n * (2 * n + 14), 4),
        harary=Fraction(n * (n - 3), 2),
        schultz=Fraction(n * (n - 5) * (n + 3)),
        gutman=Fraction(n * (n + 3) * (n - 5) ** 2, 2),
        harary_additive=Fraction(n * (n - 5) * (n - 3)),
        harary_multiplicative=Fraction(n * (n - 3) * (n - 5) ** 2, 2),
        ga_ag=Fraction(n * (n - 5), 2),
        t_sc=n * (n - 5) / (2 * math.sqrt(2) * math.sqrt(n + 3)),
        t_abc=n * (n - 5) * math.sqrt(n + 2) / (math.sqrt(2) * (n + 3)),
        t_az=Fraction(n * (n - 5) * (n + 3) ** 6, 16 * (n + 2) ** 3),
        rt_sc=n * (n - 5) / (2 * math.sqrt(2) * math.sqrt(n - 3)),
        rt_abc=n * (n - 5) * math.sqrt(n - 4) / (math.sqrt(2) * (n - 3)),
        rt_az=Fraction(n * (n - 5) * (n - 3) ** 6, 16 * (n - 4) ** 3),
    )
    return rho, degree, rs, pi[0], pi[1], report


def _predict_c7() -> tuple[int, int, Fraction, Fraction, int, IndexValues]:
    report = _report(
        wiener=Fraction(42),
        hyper_wiener=Fraction(70),
        harary=Fraction(77, 6),
        schultz=Fraction(168),
        gutman=Fraction(168),
        harary_additive=Fraction(154, 3),
        harary_multiplicative=Fraction(154, 3),
        ga_ag=Fraction(7),
        t_sc=7 * math.sqrt(6) / 12,
        t_abc=7 * math.sqrt(22) / 12,
        t_az=Fraction(2612736, 1331),
        rt_sc=7 * math.sqrt(66) / 22,
        rt_abc=28 * math.sqrt(3) / 11,
        rt_az=Fraction(12400927, 110592),
    )
    return 12, 2, Fraction(11, 3), Fraction(12), 16, report


def _predict_mc23() -> tuple[int, int, Fraction, Fraction, int, IndexValues]:
    report = _report(
        wiener=Fraction(64),
        hyper_wiener=Fraction(120),
        harary=Fraction(47, 3),
        schultz=Fraction(256),
        gutman=Fraction(256),
        harary_additive=Fraction(188, 3),
        harary_multiplicative=Fraction(188, 3),
        ga_ag=Fraction(8),
        t_sc=math.sqrt(2),
        t_abc=math.sqrt(30) / 2,
        t_az=Fraction(16777216, 3375),
        rt_sc=8 * math.sqrt(282) / 47,
        rt_abc=16 * math.sqrt(210) / 47,
        rt_az=Fraction(10779215329, 74088000),
    )
    return 16, 2, Fraction(47, 12), Fraction(16), 21, report


def _predict_mc_2h(n: int, h: int) -> tuple[int, int, Fraction, Fraction, int, IndexValues]:
    rho = n + 2 * h - 2
    rs = Fraction(2 * n - 2 * h - 1, 2)
    degree = n - 2 * h
    pi = (Fraction(2 * (n + 2 * h - 2), n - 2 * h), 6 * h - 1)
    report = _report(
        wiener=Fraction(n * (n + 2 * h - 2), 2),
        hyper_wiener=Fraction(n * (2 * n + 8 * h - 6), 4),
        harary=Fraction(n * (2 * n - 2 * h - 1), 4),
        schultz=Fraction(n * (n - 2 * h) * (n + 2 * h - 2)),
        gutman=Fraction(n * (n + 2 * h - 2) * (n - 2 * h) ** 2, 2),
        harary_additive=Fraction(n * (n - 2 * h) * (2 * n - 2 * h - 1), 2),
        harary_multiplicative=Fraction(n * (2 * n - 2 * h - 1) * (n - 2 * h) ** 2, 4),
        ga_ag=Fraction(n * (n - 2 * h), 2),
        t_sc=n * (n - 2 * h) / (2 * math.sqrt(2) * math.sqrt(n + 2 * h - 2)),
        t_abc=n * (n - 2 * h) * math.sqrt(n + 2 * h - 3) / (math.sqrt(2) * (n + 2 * h - 2)),
        t_az=Fraction(n * (n - 2 * h) * (n + 2 * h - 2) ** 6, 16 * (n + 2 * h - 3) ** 3),
        rt_sc=n * (n - 2 * h) / (2 * math.sqrt(2 * n - 2 * h - 1)),
        rt_abc=n * (n - 2 * h) * math.sqrt(2 * n - 2 * h - 3) / (2 * n - 2 * h - 1),
        rt_az=Fraction(n * (n - 2 * h) * (2 * n - 2 * h - 1) ** 6, 128 * (2 * n - 2 * h - 3) ** 3),
    )
    return rho, degree, rs, pi[0], pi[1], report


def _predict_mc_gen(n: int, h: int) -> tuple[int, int, Fraction, Fraction, int, IndexValues]:
    q = n - 2 * h - 1
    rho = n + 2 * h - 1
    rs = Fraction(n - h - 1)
    pi = (Fraction(2 * (n + 2 * h - 1), q), 6 * h + 2)
    report = _report(
        wiener=Fraction(n * (n + 2 * h - 1), 2),
        hyper_wiener=Fraction(n * (n + 4 * h - 1), 2),
        harary=Fraction(n * (n - h - 1), 2),
        schultz=Fraction(n * q * (n + 2 * h - 1)),
        gutman=Fraction(n * (n + 2 * h - 1) * q**2, 2),
        harary_additive=Fraction(n * q * (n - h - 1)),
        harary_multiplicative=Fraction(n * (n - h - 1) * q**2, 2),
        ga_ag=Fraction(n * q, 2),
        t_sc=n * q / (2 * math.sqrt(2) * math.sqrt(n + 2 * h - 1)),
        t_abc=n * q * math.sqrt(n + 2 * h - 2) / (math.sqrt(2) * (n + 2 * h - 1)),
        t_az=Fraction(n * q * (n + 2 * h - 1) ** 6, 16 * (n + 2 * h - 2) ** 3),
        rt_sc=n * q / (2 * math.sqrt(2) * math.sqrt(n - h - 1)),
        rt_abc=n * q * math.sqrt(n - h - 2) / (math.sqrt(2) * (n - h - 1)),
        rt_az=Fraction(n * q * (n - h - 1) ** 6, 16 * (n - h - 2) ** 3),
    )
    return rho, q, rs, pi[0], pi[1], report


def predict(point: FamilyPoint) -> Prediction:
    """Full closed-form prediction for an in-domain parameter point."""
    n = point.n
    vec = DistanceVector(n, predicted_distance_vector(point))
    rule = _RULES[point.family]
    rho, degree, rs, pi_lo, pi_hi, report = rule.predictor(point)
    base_diameter = (multiplicative_base_diameter(_param(point, "m"), _param(point, "h"))
                     if rule.multiplicative else None)
    xi = rho - (n - 1)
    # Internal consistency: the scalar forms must agree with the vector form.
    for name, scalar, vector in (
        ("rho", rho, vec.transmission),
        ("degree", degree, vec.degree),
        ("rs", rs, vec.reciprocal_transmission),
        ("wiener", report["wiener"], Fraction(n * rho, 2)),
        ("harary", report["harary"], Fraction(n, 2) * rs),
        ("t_ga", report["t_ga"], Fraction(n * degree, 2)),
    ):
        if scalar != vector:
            raise InconsistentPredictionError(
                f"{point}: closed-form {name} {scalar} disagrees with {vector}"
            )
    return Prediction(
        degree=degree,
        rho=rho,
        rs=rs,
        xi=xi,
        pi_lower=pi_lo,
        pi_upper=pi_hi,
        indices=report,
        distance_vector=vec.d,
        base_diameter=base_diameter,
    )


def multiplicative_base_diameter(m: int, h: int) -> int:
    """Closed-form diameter of the base multiplicative circulant
    C_{m^h}(1, m, ..., m^(h-1)): (h(m-1)+1)/2 when m is even and h odd,
    else h(m-1)/2."""
    if m < 2 or h < 1:
        raise InputError(f"need m >= 2 and h >= 1, got m={m}, h={h}")
    if m % 2 == 0 and h % 2 == 1:
        return (h * (m - 1) + 1) // 2
    return h * (m - 1) // 2


_IN_DOMAIN = (DomainStatus.IN_DOMAIN, "")
_OUT = DomainStatus.OUT_OF_DOMAIN


def _double_loop_jumps(point: FamilyPoint) -> tuple[int, ...]:
    return 1, _param(point, "a")


def _multiplicative_jumps(point: FamilyPoint) -> tuple[int, ...]:
    return tuple(_param(point, "m") ** i for i in range(_param(point, "h")))


def _half_domain(point: FamilyPoint) -> tuple[DomainStatus, str]:
    k = _param(point, "a")
    if k >= 4:
        return _IN_DOMAIN
    return _OUT, ("complement of the complete graph K4 is edgeless" if k == 2
                  else "complement splits into two triangles")


def _gen_domain(point: FamilyPoint) -> tuple[DomainStatus, str]:
    if (point.n, _param(point, "a")) == (8, 3):
        return DomainStatus.KNOWN_EXCEPTION, "complement is disconnected"
    return _IN_DOMAIN if point.n >= 8 else (_OUT, "order below the formulas' domain (n >= 8)")


def _mc_gen_domain(point: FamilyPoint) -> tuple[DomainStatus, str]:
    m, h = _param(point, "m"), _param(point, "h")
    if m >= 5 or h >= 2:
        return _IN_DOMAIN
    return _OUT, ("complement of the complete graph K3 is edgeless" if m == 3
                  else "complement is a perfect matching (disconnected)")


# The stated complement vectors, by the point's parameters.
_C7_VECTORS = {2: (0, 2, 3, 1, 1, 3, 2), 3: (0, 3, 1, 2, 2, 1, 3)}
_MC23_VECTORS = {(2, 3): (0, 3, 2, 1, 4, 1, 2, 3)}


@dataclass(frozen=True)
class _Rule:
    """What one family states, each fact a function of a point. A ``vector`` of
    ``None`` is distance 2 exactly at the base jumps and their negatives; a
    ``multiplicative`` point is labelled by (m, h), its base diameter predicted."""

    jumps: Callable[[FamilyPoint], tuple[int, ...]]
    domain: Callable[[FamilyPoint], tuple[DomainStatus, str]]
    predictor: Callable[[FamilyPoint], tuple[int, int, Fraction, Fraction, int, IndexValues]]
    sweep: Callable[..., list[FamilyPoint]]
    multiplicative: bool = False
    vector: Callable[[FamilyPoint], tuple[int, ...]] | None = None


# A predictor looks its _predict_* up at call time, so a patched one runs.
_RULES = {
    Family.DOUBLE_LOOP_HALF: _Rule(
        jumps=_double_loop_jumps, domain=_half_domain,
        predictor=lambda p: _predict_double_loop_half(p.n),
        sweep=lambda k_range, **_: double_loop_half_points(*k_range)),
    Family.DOUBLE_LOOP_GEN: _Rule(
        jumps=_double_loop_jumps, domain=_gen_domain,
        predictor=lambda p: _predict_double_loop_gen(p.n),
        sweep=lambda n_range, **_: double_loop_gen_points(*n_range)),
    Family.C7_SPECIAL: _Rule(
        jumps=_double_loop_jumps, domain=lambda p: _IN_DOMAIN,
        predictor=lambda p: _predict_c7(), sweep=lambda **_: c7_points(),
        vector=lambda p: _C7_VECTORS[_param(p, "a")]),
    Family.MC_2H: _Rule(
        jumps=_multiplicative_jumps, multiplicative=True,
        domain=lambda p: _IN_DOMAIN if _param(p, "h") >= 4 else (_OUT, "complement is edgeless"),
        predictor=lambda p: _predict_mc_2h(p.n, _param(p, "h")),
        sweep=lambda max_order, **_: _multiplicative_sweep(max_order, Family.MC_2H, (2,))),
    Family.MC_GEN: _Rule(
        jumps=_multiplicative_jumps, multiplicative=True, domain=_mc_gen_domain,
        predictor=lambda p: _predict_mc_gen(p.n, _param(p, "h")),
        sweep=lambda max_order, **_: _multiplicative_sweep(
            max_order, Family.MC_GEN, range(3, max_order + 1))),
    Family.MC_23: _Rule(
        jumps=_multiplicative_jumps, multiplicative=True, domain=lambda p: _IN_DOMAIN,
        predictor=lambda p: _predict_mc23(),
        sweep=lambda max_order, **_: _multiplicative_sweep(max_order, Family.MC_23, (2,)),
        vector=lambda p: _MC23_VECTORS[_param(p, "m"), _param(p, "h")]),
}


def double_loop_half_points(k_lo: int, k_hi: int) -> list[FamilyPoint]:
    return [double_loop_half_point(k) for k in range(max(2, k_lo), k_hi + 1)]


def double_loop_gen_points(n_lo: int, n_hi: int) -> list[FamilyPoint]:
    return [double_loop_gen_point(n, a)
            for n in range(max(5, n_lo), n_hi + 1) for a in range(2, (n - 1) // 2 + 1)]


def c7_points() -> list[FamilyPoint]:
    return [c7_point(2), c7_point(3)]


def multiplicative_points(max_order: int) -> list[FamilyPoint]:
    """The multiplicative points with m^h <= ``max_order``, by m, then h."""
    return _multiplicative_sweep(max_order, None, range(2, max_order + 1))


def _multiplicative_sweep(max_order: int, family: Family | None, ms) -> list[FamilyPoint]:
    points = []
    for m in ms:
        h = 1
        while m**h <= max_order:
            points.append(multiplicative_point(m, h))
            h += 1
    return [point for point in points if family is None or point.family is family]


# Each sweep by name, called with the bounds k_range, n_range and max_order;
# "mc", the whole multiplicative class, precedes its three rows.
SWEEPS = {
    **{f.value: rule.sweep for f, rule in _RULES.items() if not rule.multiplicative},
    "mc": lambda max_order, **_: multiplicative_points(max_order),
    **{f.value: rule.sweep for f, rule in _RULES.items() if rule.multiplicative},
}
