"""Distance structure of graphs.

BFS distances are the ground-truth oracle everything else is checked
against. Circulant graphs get a single-source shortcut: their distance
matrix is circulant, so one BFS from vertex 0 determines all pairs (the
rotation expansion is itself verified against all-pairs BFS in the test
suite).

That BFS has two sides, chosen by the spec alone:

* A one-jump circulant (degree <= 2) is the orbit of its jump j: level t
  is {t j, -t j} mod n, up to half the orbit's length n / gcd(n, j). The
  whole vector is one ``arange`` and two scatters; when gcd(n, j) > 1 the
  vertices off the orbit stay unreached.
* Every other spec runs level by level on n-bit Python ints, starting from
  level 1, the connection row. A level pushes the frontier F through every
  offset by rotation or, once fewer than degree vertices are unreached,
  pulls each of them: v is reached when the row rotated by v meets F
  (Beamer, Asanovic and Patterson's direction-optimizing BFS on the
  connection row). The dense complements this package studies take a
  handful of big-int operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .core import CirculantSpec, GenericGraph
from .errors import DisconnectedGraphError


def reciprocal_weights(diameter: int) -> tuple[int, list[int]]:
    """The common denominator L = lcm(1..diameter) and the weights L // d
    for d = 0..diameter, with weight 0 at d = 0."""
    denom = math.lcm(*range(1, diameter + 1))
    return denom, [0] + [denom // d for d in range(1, diameter + 1)]


def reciprocal_sum(counts: np.ndarray | list[int]) -> Fraction:
    """Exact sum of count[d] / d over distances d >= 1, as one fraction
    over lcm(1..len(counts) - 1), reduced once."""
    denom, weights = reciprocal_weights(len(counts) - 1)
    return Fraction(sum(map(mul, map(int, counts), weights)), denom)


@dataclass(frozen=True, eq=False)
class DistanceVector:
    """Distances from vertex 0 of a connected circulant graph.

    This is the first row of the (circulant) distance matrix.
    """

    n: int
    d: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.d, dtype=np.int64)
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} entries, got shape {arr.shape}")
        if arr[0] != 0:
            raise ValueError("distance to vertex 0 must be 0")
        if self.n > 1 and arr[1:].min() < 1:
            raise ValueError("all distances from vertex 0 must be positive")
        if not np.array_equal(arr[1:], arr[1:][::-1]):
            raise ValueError("circulant distance vector must satisfy d[v] == d[n-v]")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "d", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceVector):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.d, other.d)

    @property
    def transmission(self) -> int:
        """Sum of distances from vertex 0 to all others."""
        return int(self.d.sum())

    @property
    def reciprocal_transmission(self) -> Fraction:
        """Exact sum of reciprocal distances from vertex 0."""
        return reciprocal_sum(self.distance_counts())

    @property
    def diameter(self) -> int:
        return int(self.d.max())

    @property
    def degree(self) -> int:
        """Number of distance-1 vertices, i.e. the (common) vertex degree."""
        return int((self.d == 1).sum())

    def distance_counts(self) -> np.ndarray:
        """counts[d] = number of vertices at distance d from vertex 0."""
        return np.bincount(self.d)


def bfs_distances(g: GenericGraph, source: int) -> np.ndarray:
    """Hop counts from ``source``; unreachable vertices are marked -1."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    adj = g.adj
    n = g.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    undiscovered = ~frontier
    d = 0
    while True:
        d += 1
        fr_idx = np.flatnonzero(frontier)
        und_idx = np.flatnonzero(undiscovered)
        if fr_idx.size == 0 or und_idx.size == 0:
            break
        # Expand from whichever side has fewer rows to slice.
        if fr_idx.size <= und_idx.size:
            new_mask = adj[fr_idx].any(axis=0) & undiscovered
        else:
            hits = (adj[und_idx] & frontier).any(axis=1)
            new_mask = np.zeros(n, dtype=bool)
            new_mask[und_idx[hits]] = True
        if not new_mask.any():
            break
        dist[new_mask] = d
        undiscovered &= ~new_mask
        frontier = new_mask
    return dist


def all_pairs_distances(g: GenericGraph) -> np.ndarray:
    """Full n x n distance matrix by BFS; -1 marks unreachable pairs.

    Uses simultaneous level expansion through boolean matrix products, which
    is exact (reachability counts stay far below float32 precision at the
    orders this library targets).
    """
    n = g.n
    if n > 2048:
        return np.stack([bfs_distances(g, s) for s in range(n)])
    adj_f = g.adj.astype(np.float32)
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    frontier = g.adj.copy()
    dist[frontier] = 1
    reached = frontier | np.eye(n, dtype=bool)
    d = 1
    while frontier.any():
        d += 1
        new = (frontier.astype(np.float32) @ adj_f > 0) & ~reached
        if not new.any():
            break
        dist[new] = d
        reached |= new
        frontier = new
    return dist


def _bitset(mask: np.ndarray) -> int:
    """Python int with bit v set exactly where ``mask[v]`` is True."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _mask(bits: int, n: int) -> np.ndarray:
    """Inverse of :func:`_bitset`: the length-n boolean mask of ``bits``."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _circulant_bfs(spec: CirculantSpec) -> np.ndarray:
    """Hop counts from vertex 0 of ``spec``; -1 marks unreachable vertices."""
    n = spec.n
    offsets = spec.offsets()
    degree = len(offsets)
    dist = np.full(n, -1, dtype=np.int64)
    if degree <= 2:
        # One jump j: level t is {t j, -t j} mod n, up to half the orbit.
        j = spec.jumps[0]
        level = np.arange(n // math.gcd(n, j) // 2 + 1)
        ahead = level * j % n
        dist[-ahead % n] = level
        dist[ahead] = level
        return dist
    dist[0] = 0
    dist[spec.connection_row] = level = 1
    row = frontier = _bitset(spec.connection_row)
    unreached = ((1 << n) - 2) ^ row
    while frontier and unreached:
        level += 1
        if unreached.bit_count() < degree:
            # Pull: v joins when its neighbours, the row rotated by v, meet
            # the frontier; the frontier is doubled so the rotation can wrap.
            wrapped = frontier | (frontier << n)
            new = 0
            rest = unreached
            while rest:
                low = rest & -rest
                if (row << (low.bit_length() - 1)) & wrapped:
                    new |= low
                rest ^= low
        else:
            # Push the frontier through every offset; bits shifted past n
            # fold back to the bottom.
            reach = 0
            for off in offsets:
                reach |= frontier << off
            new = (reach | (reach >> n)) & unreached
        dist[_mask(new, n)] = level
        unreached ^= new
        frontier = new
    return dist


def distance_vector(spec: CirculantSpec) -> DistanceVector:
    """BFS distances from vertex 0 of the circulant graph ``spec``.

    Raises :class:`DisconnectedGraphError` when gcd-type obstructions leave
    part of the vertex set unreachable.
    """
    dist = _circulant_bfs(spec)
    if dist.min() < 0:
        raise DisconnectedGraphError(f"{spec} is disconnected")
    dist.setflags(write=False)  # a fresh array: DistanceVector keeps it, uncopied
    return DistanceVector(spec.n, dist)


@dataclass(frozen=True)
class MetricsSummary:
    """Distance summary of a connected graph.

    ``degree``, ``transmission`` and ``reciprocal_transmission`` are the
    common per-vertex values; they are None when the graph is not regular
    (respectively not transmission-regular).
    """

    n: int
    edge_count: int
    degree: int | None
    transmission: int | None
    reciprocal_transmission: Fraction | None
    diameter: int
    transmission_regular: bool
    connected: bool = True


def metrics_summary(
    g: GenericGraph, *, _dist: np.ndarray | None = None
) -> MetricsSummary:
    """Compute the distance summary, raising on disconnected input."""
    degrees = g.degrees()
    degree = int(degrees[0]) if g.n and (degrees == degrees[0]).all() else None
    dist = all_pairs_distances(g) if _dist is None else _dist
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected")
    sigmas = dist.sum(axis=1)
    t_regular = bool((sigmas == sigmas[0]).all())
    transmission = int(sigmas[0]) if t_regular else None
    rs = reciprocal_sum(np.bincount(dist[0])) if t_regular else None
    return MetricsSummary(
        n=g.n,
        edge_count=g.edge_count,
        degree=degree,
        transmission=transmission,
        reciprocal_transmission=rs,
        diameter=int(dist.max()),
        transmission_regular=t_regular,
    )
