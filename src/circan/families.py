"""Closed-form predictions for complements of structured circulant families.

Five parametric families are covered, each with a predicted complement
distance vector and closed forms for the spectral radius, reciprocal
transmission, vertex-forwarding index, edge-forwarding bounds, and all
seventeen topological indices:

* ``DOUBLE_LOOP_HALF``  -- complements of C_n(1, n/2), n = 2k
* ``DOUBLE_LOOP_GEN``   -- complements of C_n(1, a), 2 <= a < n/2
* ``C7_SPECIAL``        -- the two 7-vertex double loops (their complements
  are 7-cycles, with their own distance vectors)
* ``MC_2H``             -- complements of C_{2^h}(1, 2, ..., 2^(h-1))
* ``MC_GEN``            -- complements of C_{m^h}(1, m, ..., m^(h-1)), m >= 3
* ``MC_23``             -- the single 8-vertex multiplicative circulant,
  whose complement is an 8-cycle with diameter 4

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
        if self.family in (Family.DOUBLE_LOOP_HALF, Family.DOUBLE_LOOP_GEN, Family.C7_SPECIAL):
            return f"complement of C{self.n}(1,{self.a})"
        return f"complement of C{self.n}(1,{self.m},...)^[m={self.m},h={self.h}]"


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
    if point.family in (Family.DOUBLE_LOOP_HALF, Family.DOUBLE_LOOP_GEN, Family.C7_SPECIAL):
        return CirculantSpec.of(point.n, (1, point.a))
    m, h = _param(point, "m"), _param(point, "h")
    return CirculantSpec.of(point.n, tuple(m**i for i in range(h)))


def domain_status(point: FamilyPoint) -> tuple[DomainStatus, str]:
    """Effective-domain classification with a human-readable reason.

    The stated parameter ranges of the closed forms are wider in places
    than the arguments supporting them; the effective domain keeps only
    parameters the verification can stand behind, and flags the rest.
    """
    f = point.family
    if f is Family.DOUBLE_LOOP_HALF:
        k = point.a or 0
        if k >= 4:
            return DomainStatus.IN_DOMAIN, ""
        if k == 2:
            return DomainStatus.OUT_OF_DOMAIN, "complement of the complete graph K4 is edgeless"
        return DomainStatus.OUT_OF_DOMAIN, "complement splits into two triangles"
    if f is Family.DOUBLE_LOOP_GEN:
        if (point.n, point.a) == (8, 3):
            return DomainStatus.KNOWN_EXCEPTION, "complement is disconnected"
        if point.n >= 8:
            return DomainStatus.IN_DOMAIN, ""
        return DomainStatus.OUT_OF_DOMAIN, "order below the formulas' domain (n >= 8)"
    if f is Family.C7_SPECIAL:
        return DomainStatus.IN_DOMAIN, ""
    if f is Family.MC_23:
        return DomainStatus.IN_DOMAIN, ""
    if f is Family.MC_2H:
        if _param(point, "h") >= 4:
            return DomainStatus.IN_DOMAIN, ""
        return DomainStatus.OUT_OF_DOMAIN, "complement is edgeless"
    if f is Family.MC_GEN:
        m, h = _param(point, "m"), _param(point, "h")
        if m >= 5:
            return DomainStatus.IN_DOMAIN, ""
        if h >= 2:
            return DomainStatus.IN_DOMAIN, ""
        if m == 3:
            return DomainStatus.OUT_OF_DOMAIN, "complement of the complete graph K3 is edgeless"
        return DomainStatus.OUT_OF_DOMAIN, "complement is a perfect matching (disconnected)"
    raise InvariantError(f"unknown family {f}")


def _require_in_domain(point: FamilyPoint) -> None:
    status, reason = domain_status(point)
    if status is DomainStatus.KNOWN_EXCEPTION:
        raise KnownExceptionError(f"{point.label()}: {reason}")
    if status is DomainStatus.OUT_OF_DOMAIN:
        raise OutOfDomainError(f"{point.label()}: {reason}")


_C7_VECTORS = {
    2: (0, 2, 3, 1, 1, 3, 2),
    3: (0, 3, 1, 2, 2, 1, 3),
}
_MC23_VECTOR = (0, 3, 2, 1, 4, 1, 2, 3)


def predicted_distance_vector(point: FamilyPoint) -> DistanceVector:
    """Closed-form complement distance vector of an in-domain point."""
    _require_in_domain(point)
    n = point.n
    f = point.family
    if f is Family.C7_SPECIAL:
        return DistanceVector(7, np.array(_C7_VECTORS[_param(point, "a")], dtype=np.int64))
    if f is Family.MC_23:
        return DistanceVector(8, np.array(_MC23_VECTOR, dtype=np.int64))
    vec = np.ones(n, dtype=np.int64)
    vec[0] = 0
    if f is Family.DOUBLE_LOOP_HALF:
        k = point.a
        vec[[1, k, n - 1]] = 2
    elif f is Family.DOUBLE_LOOP_GEN:
        a = point.a
        vec[[1, a, n - a, n - 1]] = 2
    else:  # MC_2H or MC_GEN: distance 2 exactly at the base jumps' offsets
        m, h = _param(point, "m"), _param(point, "h")
        twos = set()
        for i in range(h):
            twos.add(m**i)
            twos.add(n - m**i)
        vec[sorted(twos)] = 2
    return DistanceVector(n, vec)


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
    distance_vector: DistanceVector
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
    _require_in_domain(point)
    vec = predicted_distance_vector(point)
    n = point.n
    f = point.family
    if f is Family.DOUBLE_LOOP_HALF:
        rho, degree, rs, pi_lo, pi_hi, report = _predict_double_loop_half(n)
    elif f is Family.DOUBLE_LOOP_GEN:
        rho, degree, rs, pi_lo, pi_hi, report = _predict_double_loop_gen(n)
    elif f is Family.C7_SPECIAL:
        rho, degree, rs, pi_lo, pi_hi, report = _predict_c7()
    elif f is Family.MC_23:
        rho, degree, rs, pi_lo, pi_hi, report = _predict_mc23()
    elif f is Family.MC_2H:
        rho, degree, rs, pi_lo, pi_hi, report = _predict_mc_2h(n, _param(point, "h"))
    else:
        rho, degree, rs, pi_lo, pi_hi, report = _predict_mc_gen(n, _param(point, "h"))
    base_diameter = None
    if f in (Family.MC_2H, Family.MC_GEN, Family.MC_23):
        base_diameter = multiplicative_base_diameter(_param(point, "m"), _param(point, "h"))
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
        distance_vector=vec,
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

