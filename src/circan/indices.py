"""Distance-based topological indices.

Seventeen indices in four groups: purely distance-based sums over vertex
pairs (Wiener, hyper-Wiener, Harary), degree-and-distance pair sums
(Schultz, Gutman, weighted Hararys), and per-edge sums driven by endpoint
transmissions respectively reciprocal transmissions (GA, AG, SC, ABC, AZ
kernels).

Everything derives from one integer matrix C: the number of vertices at
each distance d from each vertex i (one row for a circulant), with its
degree-weighted twin W for a generic graph (both from
``metrics.distance_counts``). Pair sums read the column totals of C and
their degree-weighted versions. The per-edge kernels see integer vertex
statistics over a common denominator L: the transmission itself (L = 1),
or the reciprocal transmission times L = lcm(1..diameter). Edges are
grouped by the unordered pair of endpoint statistics (A, B), and one kernel
serves both families. Both report functions only build the inputs of one
assembly (``_report``); a circulant is one row and one edge group, so its
report is O(diameter) integer work. ``metrics.distance_sums`` forms every
sum of d * c_d and of c_d / d, in one call per report over the pair rows,
the hyper-Wiener row and the count rows.

Pair-sum indices and both augmented-Zagreb variants are exact rationals;
the AZ sums are accumulated over one denominator and reduced once. The
square-root kernels are evaluated in binary64 from correctly rounded integer
quotients (A/L, S/L, E*L/P and count*P**3/(L*E)**3, with S = A + B,
P = A*B and E = S - 2L), and ``math.fsum`` adds the group terms
independently of their order. The GA/AG pairs collapse to the exact edge
count on transmission-regular graphs, and the report keeps those exact
values alongside the floats.

The exact values (``exact``) are built when first read: the group loop
keeps only the AZ numerators summed per gap E, and their sum over one
denominator is formed and reduced on that read. A caller that prints only
the fields pays for no exact AZ rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .core import GenericGraph
from .errors import (
    DegenerateReciprocalTransmissionError,
    DegenerateTransmissionError,
)
from .metrics import DistanceVector, distance_counts, distance_sums

PAIR_FIELDS = (
    "wiener",
    "hyper_wiener",
    "harary",
    "schultz",
    "gutman",
    "harary_additive",
    "harary_multiplicative",
)
TRANSMISSION_FIELDS = ("t_ga", "t_ag", "t_sc", "t_abc", "t_az")
RECIPROCAL_FIELDS = ("rt_ga", "rt_ag", "rt_sc", "rt_abc", "rt_az")
INDEX_FIELDS = PAIR_FIELDS + TRANSMISSION_FIELDS + RECIPROCAL_FIELDS


@dataclass(frozen=True)
class IndexReport:
    """All seventeen index values, the provably-exact subset, built when
    ``exact`` is first read, and a circulant's (one count row's) sums."""

    wiener: Fraction
    hyper_wiener: Fraction
    harary: Fraction
    schultz: Fraction
    gutman: Fraction
    harary_additive: Fraction
    harary_multiplicative: Fraction
    t_ga: float
    t_ag: float
    t_sc: float
    t_abc: float
    t_az: float
    rt_ga: float
    rt_ag: float
    rt_sc: float
    rt_abc: float
    rt_az: float
    # the arguments of _exact_edge_values for the t and rt kinds, as
    # _edge_indices returned them
    _exact_parts: tuple[tuple, tuple] = field(compare=False, repr=False)
    transmission: int | None = field(default=None, compare=False, repr=False)
    reciprocal_transmission: Fraction | None = field(default=None, compare=False, repr=False)

    @cached_property
    def exact(self) -> dict[str, Fraction]:
        """The values known exactly: both AZ sums, and the GA/AG sums of a
        transmission-regular graph."""
        trans, recip = self._exact_parts
        return {**_exact_edge_values(*trans), **_exact_edge_values(*recip)}


def _edge_groups(
    values: list[int], edges: np.ndarray
) -> dict[tuple[int, int], int]:
    """Edge count per unordered pair of endpoint values."""
    ids: dict[int, int] = {}
    vid = np.array([ids.setdefault(v, len(ids)) for v in values], dtype=np.int64)
    distinct = list(ids)
    a = vid[edges[:, 0]]
    b = vid[edges[:, 1]]
    width = len(distinct)
    keys, counts = np.unique(
        np.minimum(a, b) * width + np.maximum(a, b), return_counts=True
    )
    return {
        (distinct[k // width], distinct[k % width]): c
        for k, c in zip(keys.tolist(), counts.tolist())
    }


def _sum_fractions(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of num/den over (num, den) terms as one unreduced fraction.

    Terms are combined pairwise, so operands stay of balanced size; the
    caller reduces once.
    """
    while len(terms) > 1:
        paired = [
            (n1 * d2 + n2 * d1, d1 * d2)
            for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2])
        ]
        terms = paired + terms[len(paired) * 2 :]
    return terms[0] if terms else (0, 1)


# the degenerate-edge error of each kind of endpoint statistic
_DEGENERATE = {
    "t": (DegenerateTransmissionError, "transmissions"),
    "rt": (DegenerateReciprocalTransmissionError, "reciprocal transmissions"),
}


def _edge_indices(
    prefix: str, groups: dict[tuple[int, int], int], denom: int
) -> tuple[dict[str, float], tuple]:
    """GA/AG/SC/ABC/AZ edge sums, named ``prefix_*``, for endpoint
    statistics A/denom and B/denom given as {(A, B): edge count}; and the
    arguments of :func:`_exact_edge_values`, which builds their exact values
    from the AZ numerators summed per gap here."""
    ga, ag, sc, abc, az = [], [], [], [], []
    az_by_gap: dict[int, int] = {}
    for (a, b), count in groups.items():
        s = a + b
        gap = s - 2 * denom
        if gap <= 0:
            error, what = _DEGENERATE[prefix]
            raise error(
                f"edge {what} {Fraction(a, denom)} + {Fraction(b, denom)} "
                "do not exceed 2"
            )
        p = a * b
        root = math.sqrt(a / denom) * math.sqrt(b / denom)
        fs = s / denom
        ga.append(count * 2.0 * root / fs)
        ag.append(count * fs / (2.0 * root))
        sc.append(count / math.sqrt(fs))
        abc.append(count * math.sqrt(gap * denom / p))
        cube = count * p**3
        az.append(cube / (denom * gap) ** 3)
        az_by_gap[gap] = az_by_gap.get(gap, 0) + cube
    # transmission-regular: every GA/AG term is exactly 1
    regular = len(groups) == 1 and next(iter(groups))[0] == next(iter(groups))[1]
    edge_total = sum(groups.values()) if regular else None
    fields = {
        f"{prefix}_{name}": math.fsum(terms)
        for name, terms in zip(("ga", "ag", "sc", "abc", "az"), (ga, ag, sc, abc, az))
    }
    return fields, (prefix, az_by_gap, denom, edge_total)


def _exact_edge_values(
    prefix: str, az_by_gap: dict[int, int], denom: int, edge_total: int | None
) -> dict[str, Fraction]:
    """The exact AZ sum from its numerators per gap, reduced once, and the
    GA/AG sums when they are the edge count ``edge_total``."""
    numerator, gaps = _sum_fractions([(c, gap**3) for gap, c in az_by_gap.items()])
    exact = {f"{prefix}_az": Fraction(numerator, gaps * denom**3)}
    if edge_total is not None:
        exact[f"{prefix}_ga"] = exact[f"{prefix}_ag"] = Fraction(edge_total)
    return exact


def _report(pair_stats: tuple[list[int], ...], rows: list[list[int]],
            group_edges: Callable[[list[int]], dict]) -> IndexReport:
    """All seventeen indices from ``pair_stats``, per distance d the number
    of unordered pairs, the sum of their degree sums and the sum of their
    degree products; the distance-count rows (Python ints); and
    ``group_edges``, which maps one value per row to the edge count per
    unordered pair of endpoint values. One ``distance_sums`` call sums them
    all, with the row d * cnt[d] for the hyper-Wiener's sum of d**2 * cnt[d]."""
    cnt = pair_stats[0]
    sums, denom, numerators = distance_sums(
        [*pair_stats, [d * c for d, c in enumerate(cnt)], *rows])
    wiener, schultz, gutman, sumsq = sums[:4]
    harary, additive, multiplicative = (Fraction(x, denom) for x in numerators[:3])
    pair = (Fraction(wiener), Fraction(wiener + sumsq, 2), harary, Fraction(schultz),
            Fraction(gutman), additive, multiplicative)
    t_fields, t_exact = _edge_indices("t", group_edges(sums[4:]), 1)
    rt_fields, rt_exact = _edge_indices("rt", group_edges(numerators[4:]), denom)
    one_row = {}
    if len(rows) == 1:
        one_row = {"transmission": sums[4], "reciprocal_transmission": Fraction(numerators[4], denom)}
    return IndexReport(**dict(zip(PAIR_FIELDS, pair)), **t_fields, **rt_fields,
                       _exact_parts=(t_exact, rt_exact), **one_row)


def full_report(g: GenericGraph) -> IndexReport:
    """All seventeen indices of a connected graph from its distance counts
    and their degree-weighted twin (:func:`metrics.distance_counts`)."""
    counts, weights = distance_counts(g)
    edges = g.edges()
    deg = g.degrees()
    # Over ordered pairs at distance d: the count, the sum of deg_i, and
    # the sum of deg_i * deg_j; unordered pairs halve the first and last.
    pair_stats = (
        (counts.sum(axis=0) // 2).tolist(),
        (deg @ counts).tolist(),
        (deg @ weights // 2).tolist(),
    )
    return _report(pair_stats, counts.tolist(), lambda values: _edge_groups(values, edges))


def report_from_distance_vector(dv: DistanceVector) -> IndexReport:
    """All seventeen indices of a connected circulant from its distance
    vector.

    The distance matrix of a circulant is the rotation expansion of its
    first row, so every row shares the distance multiset of ``dv``; the
    unordered-pair count at distance d is n * count[d] / 2, and the edges
    form one group of the transmission-regular kernel.
    """
    counts = dv.distance_counts().tolist()
    r = dv.degree
    edge_total = dv.n * r // 2
    pairs = [dv.n * c // 2 for c in counts]
    pair_stats = (pairs, [2 * r * c for c in pairs], [r * r * c for c in pairs])
    return _report(pair_stats, [counts], lambda values: {(values[0], values[0]): edge_total})
