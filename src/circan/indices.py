"""Distance-based topological indices.

Seventeen indices in four groups: purely distance-based sums over vertex
pairs (Wiener, hyper-Wiener, Harary), degree-and-distance pair sums
(Schultz, Gutman, weighted Hararys), and per-edge sums driven by endpoint
transmissions respectively reciprocal transmissions (GA, AG, SC, ABC, AZ
kernels).

Everything derives from one integer matrix: the number of vertices at each
distance d from each vertex i (one row for a circulant). Pair sums read its column totals and their
degree-weighted versions. The per-edge kernels see integer vertex
statistics over a common denominator L: the transmission itself (L = 1),
or the reciprocal transmission times L = lcm(1..diameter). Edges are
grouped by the unordered pair of endpoint statistics (A, B), and one kernel
serves both families.

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
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Callable

import numpy as np

from .core import GenericGraph
from .errors import (
    DegenerateReciprocalTransmissionError,
    DegenerateTransmissionError,
    DisconnectedGraphError,
)
from .metrics import DistanceVector, all_pairs_distances, reciprocal_weights

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


class _Deferred(Mapping):
    """A read-only mapping whose dict ``build()`` makes when it is first
    read; it compares, iterates and prints as that dict."""

    __slots__ = ("_build", "_dict")

    def __init__(self, build: Callable[[], dict]) -> None:
        self._build = build
        self._dict: dict | None = None

    def _built(self) -> dict:
        if self._dict is None:
            self._dict = self._build()
        return self._dict

    def __getitem__(self, key):
        return self._built()[key]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


@dataclass(frozen=True)
class PairIndices:
    """Indices summed over unordered vertex pairs (all exact)."""

    wiener: Fraction
    hyper_wiener: Fraction
    harary: Fraction
    schultz: Fraction
    gutman: Fraction
    harary_additive: Fraction
    harary_multiplicative: Fraction


@dataclass(frozen=True)
class TransmissionIndices:
    """Per-edge indices driven by endpoint transmissions."""

    t_ga: float
    t_ag: float
    t_sc: float
    t_abc: float
    t_az: float
    exact: Mapping[str, Fraction]


@dataclass(frozen=True)
class ReciprocalTransmissionIndices:
    """Per-edge indices driven by endpoint reciprocal transmissions."""

    rt_ga: float
    rt_ag: float
    rt_sc: float
    rt_abc: float
    rt_az: float
    exact: Mapping[str, Fraction]


@dataclass(frozen=True)
class IndexReport:
    """All seventeen index values plus the provably-exact subset, built when
    ``exact`` is first read."""

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
    exact: Mapping[str, Fraction]


def _distance_counts(
    dist: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Row i, column d: the number of vertices at distance d from vertex i,
    or the sum of their ``weights``."""
    n = dist.shape[0]
    width = int(dist.max()) + 1
    cells = (dist + width * np.arange(n)[:, None]).ravel()
    if weights is None:
        return np.bincount(cells, minlength=n * width).reshape(n, width)
    # float64 sums of integers stay exact below 2**53
    flat = np.broadcast_to(weights, dist.shape).ravel()
    summed = np.bincount(cells, weights=flat, minlength=n * width)
    return summed.astype(np.int64).reshape(n, width)


def _pair_indices_from_stats(
    cnt: list[int], dsum: list[int], dprod: list[int]
) -> PairIndices:
    dists = range(len(cnt))
    wiener = sum(map(mul, dists, cnt))
    sumsq = sum(map(mul, map(mul, dists, dists), cnt))
    # the three Harary sums over one common denominator, each reduced once
    denom, weights = reciprocal_weights(len(cnt) - 1)
    return PairIndices(
        wiener=Fraction(wiener),
        hyper_wiener=Fraction(wiener + sumsq, 2),
        harary=Fraction(sum(map(mul, weights, cnt)), denom),
        schultz=Fraction(sum(map(mul, dists, dsum))),
        gutman=Fraction(sum(map(mul, dists, dprod))),
        harary_additive=Fraction(sum(map(mul, weights, dsum)), denom),
        harary_multiplicative=Fraction(sum(map(mul, weights, dprod)), denom),
    )


def _pair_indices(
    counts: np.ndarray, dist: np.ndarray, deg: np.ndarray
) -> PairIndices:
    # Over ordered pairs at distance d: the count, the sum of deg_i, and
    # the sum of deg_i * deg_j; unordered pairs halve the first and last.
    cnt = counts.sum(axis=0) // 2
    dsum = deg @ counts
    dprod = deg @ _distance_counts(dist, deg) // 2
    return _pair_indices_from_stats(cnt.tolist(), dsum.tolist(), dprod.tolist())


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


_EDGE_KINDS = {
    TransmissionIndices: ("t", DegenerateTransmissionError, "transmissions"),
    ReciprocalTransmissionIndices: (
        "rt", DegenerateReciprocalTransmissionError, "reciprocal transmissions"
    ),
}


def _edge_indices(
    kind: type, groups: dict[tuple[int, int], int], denom: int
) -> TransmissionIndices | ReciprocalTransmissionIndices:
    """GA/AG/SC/ABC/AZ edge sums of ``kind`` for endpoint statistics
    A/denom and B/denom given as {(A, B): edge count}.

    The exact values are built when ``exact`` is first read, from the AZ
    numerators summed per gap here."""
    prefix, error, what = _EDGE_KINDS[kind]
    ga, ag, sc, abc, az = [], [], [], [], []
    az_by_gap: dict[int, int] = {}
    for (a, b), count in groups.items():
        s = a + b
        gap = s - 2 * denom
        if gap <= 0:
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
    exact = _Deferred(partial(_exact_edge_values, prefix, az_by_gap, denom, edge_total))
    return kind(**fields, exact=exact)


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


def _transmission_indices(
    counts: np.ndarray, edges: np.ndarray
) -> TransmissionIndices:
    sigma = counts @ np.arange(counts.shape[1])
    return _edge_indices(TransmissionIndices, _edge_groups(sigma.tolist(), edges), 1)


def _reciprocal_numerators(counts: np.ndarray) -> tuple[int, list[int]]:
    """The common denominator L = lcm(1..diameter) and, per row of distance
    counts, the reciprocal transmission times L."""
    denom, weights = reciprocal_weights(counts.shape[1] - 1)
    return denom, (counts.astype(object) @ np.array(weights, dtype=object)).tolist()


def _reciprocal_indices(
    counts: np.ndarray, edges: np.ndarray
) -> ReciprocalTransmissionIndices:
    denom, numerators = _reciprocal_numerators(counts)
    groups = _edge_groups(numerators, edges)
    return _edge_indices(ReciprocalTransmissionIndices, groups, denom)


def _connected_counts(
    g: GenericGraph, dist: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs distances (computed unless given) and their per-vertex
    distance counts, raising on a disconnected graph."""
    dist = all_pairs_distances(g) if dist is None else dist
    if (dist < 0).any():
        raise DisconnectedGraphError("indices are defined for connected graphs only")
    return dist, _distance_counts(dist)


def pair_indices(g: GenericGraph) -> PairIndices:
    """Wiener, hyper-Wiener, Harary, Schultz, Gutman, and both weighted
    Harary indices from all-pairs BFS distances."""
    dist, counts = _connected_counts(g)
    return _pair_indices(counts, dist, g.degrees())


def transmission_indices(g: GenericGraph) -> TransmissionIndices:
    """GA/AG/SC/ABC/AZ edge sums over endpoint transmissions."""
    return _transmission_indices(_connected_counts(g)[1], g.edges())


def reciprocal_transmission_indices(g: GenericGraph) -> ReciprocalTransmissionIndices:
    """GA/AG/SC/ABC/AZ edge sums over endpoint reciprocal transmissions."""
    return _reciprocal_indices(_connected_counts(g)[1], g.edges())


def _assemble(
    pair: PairIndices,
    trans: TransmissionIndices,
    recip: ReciprocalTransmissionIndices,
) -> IndexReport:
    fields = {**vars(pair), **vars(trans), **vars(recip)}
    fields["exact"] = _Deferred(partial(_merged, trans.exact, recip.exact))
    return IndexReport(**fields)


def _merged(first: Mapping, second: Mapping) -> dict:
    return {**first, **second}


def full_report(g: GenericGraph, *, _dist: np.ndarray | None = None) -> IndexReport:
    """All seventeen indices of a connected graph from one all-pairs BFS
    pass and one matrix of per-vertex distance counts."""
    dist, counts = _connected_counts(g, _dist)
    edges = g.edges()
    return _assemble(
        _pair_indices(counts, dist, g.degrees()),
        _transmission_indices(counts, edges),
        _reciprocal_indices(counts, edges),
    )


def report_from_distance_vector(dv: DistanceVector) -> IndexReport:
    """All seventeen indices of a connected circulant from its distance
    vector.

    The distance matrix of a circulant is the rotation expansion of its
    first row, so every row shares the distance multiset of ``dv``; the
    unordered-pair count at distance d is n * count[d] / 2, and the edges
    form one group of the transmission-regular kernel.
    """
    counts = dv.distance_counts()
    r = dv.degree
    edge_total = dv.n * r // 2
    pairs = [dv.n * c // 2 for c in counts.tolist()]
    pair = _pair_indices_from_stats(
        pairs, [2 * r * c for c in pairs], [r * r * c for c in pairs]
    )
    sigma = dv.transmission
    trans = _edge_indices(TransmissionIndices, {(sigma, sigma): edge_total}, 1)
    denom, (rs,) = _reciprocal_numerators(counts[None, :])
    recip = _edge_indices(ReciprocalTransmissionIndices, {(rs, rs): edge_total}, denom)
    return _assemble(pair, trans, recip)
