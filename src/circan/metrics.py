"""Distance structure of graphs.

BFS distances are the ground-truth oracle everything else is checked
against. Circulant graphs get a single-source shortcut: their distance
matrix is circulant, so one BFS from vertex 0 determines all pairs (the
rotation expansion is itself verified against all-pairs BFS in the test
suite).

That BFS is one kernel with two sides, switched at most once per call by
the width of the frontier F (Beamer, Asanovic and Patterson's
direction-optimizing BFS, on the circulant's connection row):

* While |F| <= n / 700 + 8 it is a plain queue over the offsets, with one
  comparison when a level starts. Cycles and other narrow bands never
  leave it.
* Past that it finishes level by level on n-bit Python ints. A level
  either pushes F through every offset by rotation or, once fewer than
  degree vertices are unreached, pulls each of them: v is reached when the
  row rotated by v meets F. When the degree itself passes the bound, level
  1 is the connection row and the queue is skipped; the dense complements
  this package studies take a handful of big-int operations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .core import CirculantSpec, GenericGraph, _circulant_matrix
from .errors import DisconnectedGraphError, PropertyStarViolatedError

# Circulant BFS: a queue level checks |frontier| * degree edges, a bitset
# level shifts n-bit ints degree times, and one shift costs about as much as
# n / _SHIFT_EDGE_CHECKS edge checks. The degree cancels, so the queue keeps
# a level while |frontier| <= n // _SHIFT_EDGE_CHECKS + _THIN_FRONTIER; the
# additive part keeps narrow bands (a cycle's frontier never exceeds 2) and
# orders too small to repay the bit packing on the queue.
_SHIFT_EDGE_CHECKS = 700
_THIN_FRONTIER = 8


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
    limit = n // _SHIFT_EDGE_CHECKS + _THIN_FRONTIER
    if degree > limit:
        # Level 1, the connection row, is already wide.
        dist = np.full(n, -1, dtype=np.int64)
        dist[0] = 0
        dist[spec.connection_row] = level = 1
        row = frontier = _bitset(spec.connection_row)
        unreached = ((1 << n) - 2) ^ row
    else:
        dist_list = [-1] * n
        dist_list[0] = 0
        queue = deque([0])
        # With degree <= 2 no frontier holds more than 2 vertices, so the
        # check could never fire: start it past the last level.
        d = 0 if degree > 2 else n
        while queue:
            u = queue.popleft()
            du = dist_list[u] + 1
            if du > d:  # u opens a level, the rest of it is queued: |F| = len + 1
                if len(queue) >= limit:
                    break
                d = du
            for off in offsets:
                w = u + off
                if w >= n:
                    w -= n
                if dist_list[w] < 0:
                    dist_list[w] = du
                    queue.append(w)
        else:
            return np.array(dist_list, dtype=np.int64)
        dist = np.array(dist_list, dtype=np.int64)
        level = du - 1
        row = _bitset(spec.connection_row)
        frontier = _bitset(dist == level)
        unreached = _bitset(dist < 0)
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


def distance_matrix(dv: DistanceVector) -> np.ndarray:
    """Expand a distance vector into the full circulant distance matrix:
    entry (i, j) = dv.d[(j - i) mod n]."""
    return _circulant_matrix(dv.d)


def is_connected(g: GenericGraph) -> bool:
    """True iff BFS from vertex 0 reaches every vertex."""
    if g.n == 0:
        return False
    return bool((bfs_distances(g, 0) >= 0).all())


def diameter(g: GenericGraph) -> int:
    """Maximum distance over all vertex pairs."""
    dist = all_pairs_distances(g)
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected")
    return int(dist.max())


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


def has_property_star(g: GenericGraph) -> bool:
    """True iff every edge {u, v} has a third vertex adjacent to neither
    endpoint."""
    non = ~g.adj
    np.fill_diagonal(non, False)
    edges = g.edges()
    for start in range(0, len(edges), 4096):
        chunk = edges[start : start + 4096]
        ok = (non[chunk[:, 0]] & non[chunk[:, 1]]).any(axis=1)
        if not ok.all():
            return False
    return True


@dataclass(frozen=True)
class StarComplementPrediction:
    """Predicted complement distances for a graph with the star property:
    distance 2 between originally adjacent pairs, 1 between distinct
    non-adjacent pairs."""

    n: int
    matrix: np.ndarray
    wiener: int
    diameter: int = 2


def complement_distance_by_star(g: GenericGraph) -> StarComplementPrediction:
    """Predict the complement's distance matrix from the star property.

    The prediction implies the complement is connected with diameter 2 and
    Wiener index C(n, 2) + m; callers cross-check those against BFS.
    """
    if not has_property_star(g):
        raise PropertyStarViolatedError(
            "some edge has no vertex non-adjacent to both endpoints"
        )
    matrix = np.where(g.adj, 2, 1).astype(np.int64)
    np.fill_diagonal(matrix, 0)
    matrix.setflags(write=False)
    wiener = g.n * (g.n - 1) // 2 + g.edge_count
    return StarComplementPrediction(n=g.n, matrix=matrix, wiener=wiener)
