"""Distance structure of graphs.

Every distance quantity this package reports depends only on how many
vertices sit at each distance from each vertex. A generic graph gets those
counts from one all-sources BFS level loop (``distance_counts``), which
also sums the degrees at each distance and never builds a distance matrix;
the result is computed once per graph. Circulant graphs get a
single-source shortcut: their distance matrix is circulant, so one BFS
from vertex 0 determines all pairs (the rotation expansion is itself
verified against all-pairs BFS in the test suite).

That BFS has two sides, chosen by the spec alone:

* A one-jump circulant (degree <= 2) is the orbit of its jump j: level t
  is {t j, -t j} mod n, up to half the orbit's length n / gcd(n, j). The
  whole vector is one ``arange`` and two scatters; when gcd(n, j) > 1 the
  vertices off the orbit stay unreached.
* Every other spec runs level by level on n-bit Python ints, starting from
  level 1, the spec's connection row itself. A level pushes the frontier F
  through every offset by rotation or, once fewer than degree vertices are
  unreached, pulls each of them: v is reached when the row rotated by v
  meets F (Beamer, Asanovic and Patterson's direction-optimizing BFS on
  the connection row). The degree is the row's bit count, and the offsets
  are read from the spec only when a level pushes; the dense complements
  this package studies only pull, in a handful of big-int operations.

The same level loop (``_levels``) drives ``bfs_layering_fault``, which
certifies a claimed vector layer by layer. ``distance_sums`` forms every
sum of d * c_d and, exactly over L = lcm(1..D), of c_d / d over count rows;
a ``DistanceVector`` sums its own counts only when its transmission is
first read, so a vector read only for its diameter never sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterator

import numpy as np

from .core import CirculantSpec, GenericGraph
from .errors import DisconnectedGraphError, InvariantError


def distance_sums(rows: list[list[int]]) -> tuple[list[int], int, list[int]]:
    """For rows c_0..c_D of values by distance (one length D + 1, Python
    ints): each row's sum of d * c_d, L = lcm(1..D), and each row's sum of
    c_d * L / d over d >= 1, its sum of c_d / d times L, exact."""
    width = len(rows[0])
    denom = math.lcm(*range(1, width))
    weights = [denom // d for d in range(1, width)]
    sums = [sum(map(mul, row, range(width))) for row in rows]
    return sums, denom, [sum(map(mul, row[1:], weights)) for row in rows]


@dataclass(frozen=True, eq=False)
class DistanceVector:
    """Distances from vertex 0 of a connected circulant graph.

    This is the first row of the (circulant) distance matrix. Its distance
    counts are computed once, on construction; the degree and diameter read
    them, and the transmission and reciprocal transmission are summed from
    them once, when first read.
    """

    n: int
    d: np.ndarray
    _counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.d, dtype=np.int64)
        if arr.shape != (self.n,):
            raise InvariantError(f"expected {self.n} entries, got shape {arr.shape}")
        if arr[0] != 0:
            raise InvariantError("distance to vertex 0 must be 0")
        rest = arr[1:]
        # As unsigned a negative entry is >= n too; the counts are max + 1 long.
        too_far = arr.view(np.uint64).max() >= self.n
        counts = None if too_far else np.bincount(arr)
        if rest.min() < 1 if too_far else counts[0] != 1:
            raise InvariantError("all distances from vertex 0 must be positive")
        if rest.tobytes() != rest[::-1].tobytes():
            raise InvariantError("circulant distance vector must satisfy d[v] == d[n-v]")
        if too_far:
            raise InvariantError("every distance from vertex 0 must be below n")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "d", arr)
        object.__setattr__(self, "_counts", counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceVector):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.d, other.d)

    @cached_property
    def transmission(self) -> int:
        """Sum of distances from vertex 0 to all others, from the few counts."""
        return sum(map(mul, self._counts.tolist(), range(self._counts.size)))

    @cached_property
    def reciprocal_transmission(self) -> Fraction:
        """Exact sum of reciprocal distances from vertex 0."""
        _, denom, (numerator,) = distance_sums([self._counts.tolist()])
        return Fraction(numerator, denom)

    @property
    def diameter(self) -> int:
        return self._counts.size - 1

    @property
    def degree(self) -> int:
        """Number of distance-1 vertices, i.e. the (common) vertex degree."""
        return int(self._counts[1]) if self._counts.size > 1 else 0

    def distance_counts(self) -> np.ndarray:
        """counts[d] = number of vertices at distance d from vertex 0
        (read-only)."""
        return self._counts


def distance_counts(g: GenericGraph) -> tuple[np.ndarray, np.ndarray]:
    """(C, W) of a connected graph: C[i, d] is the number of vertices at
    distance d from i, and W[i, d] the sum of their degrees.

    One level loop serves all sources at once. Level d's float32 product
    with the adjacency, minus the pairs reached before, is level d + 1,
    and W[:, d] = level @ deg, an einsum over the boolean level that casts
    no n x n integer copy of it; level 0 is the identity, whose product is
    the adjacency. Only sources with a non-empty frontier and vertices left
    to find are multiplied. The result is kept on ``g``, whose adjacency
    is read-only. Raises :class:`DisconnectedGraphError` when some source
    misses a vertex.
    """
    if g._distance_counts is not None:
        return g._distance_counts
    n = g.n
    adj = g.adj.astype(np.float32)
    deg = g.degrees()
    rows = np.arange(n)
    reached = np.eye(n, dtype=bool)
    product = adj
    counts = [np.ones(n, dtype=np.int64)]
    weights = [deg]
    while rows.size:
        new = (product > 0) & ~reached
        if not new.any():
            break
        counts.append(_column(n, rows, new.sum(axis=1)))
        weights.append(_column(n, rows, np.einsum("ij,j->i", new, deg)))
        reached |= new
        keep = np.flatnonzero(new.any(axis=1) & ~reached.all(axis=1))
        rows, reached = rows[keep], reached[keep]
        product = new[keep].astype(np.float32) @ adj
    c = np.column_stack(counts)
    if (c.sum(axis=1) != n).any():
        raise DisconnectedGraphError("graph is disconnected")
    w = np.column_stack(weights)
    c.setflags(write=False)
    w.setflags(write=False)
    g._distance_counts = (c, w)
    return g._distance_counts


def _column(n: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Length-n column holding ``values`` at ``rows`` and 0 elsewhere."""
    column = np.zeros(n, dtype=values.dtype)
    column[rows] = values
    return column


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
    dist = np.full(n, -1, dtype=np.int64)
    row = spec.row
    if row.bit_count() <= 2:
        # One jump j, the lowest bit: level t is {t j, -t j} mod n, up to half the orbit.
        j = (row & -row).bit_length() - 1
        level = np.arange(n // math.gcd(n, j) // 2 + 1)
        ahead = level * j % n
        dist[-ahead % n] = level
        dist[ahead] = level
        return dist
    dist[0] = 0
    dist[_mask(row, n)] = 1
    for level, bits in enumerate(_levels(spec), start=2):
        dist[_mask(bits, n)] = level
    return dist


def _levels(spec: CirculantSpec) -> Iterator[int]:
    """BFS levels 2, 3, ... from vertex 0 of ``spec`` as n-bit sets, level 1
    being the connection row. They end once every vertex is reached, or
    after an empty level when the rest is unreachable."""
    n = spec.n
    row = frontier = spec.row
    unreached = ((1 << n) - 2) ^ row
    # Only a level with at least degree vertices unreached pushes, and that
    # count only falls: a dense complement never pushes nor lists offsets.
    offsets = spec.offsets() if unreached.bit_count() >= row.bit_count() else ()
    while frontier and unreached:
        frontier = _next_level(n, row, offsets, frontier, unreached)
        unreached ^= frontier
        yield frontier


def _next_level(n: int, row: int, offsets: tuple[int, ...], frontier: int, unreached: int) -> int:
    """The vertices of ``unreached`` adjacent to ``frontier``: n-bit sets of
    the circulant with connection row ``row``, whose ``offsets`` a push reads."""
    if unreached.bit_count() < row.bit_count():
        # Pull: v joins when its neighbours, the row rotated by v, meet the
        # frontier; the frontier is doubled so the rotation can wrap.
        wrapped = frontier | (frontier << n)
        new = 0
        rest = unreached
        while rest:
            low = rest & -rest
            if (row << (low.bit_length() - 1)) & wrapped:
                new |= low
            rest ^= low
        return new
    # Push the frontier through every offset; bits shifted past n fold back
    # to the bottom.
    reach = 0
    for off in offsets:
        reach |= frontier << off
    return (reach | (reach >> n)) & unreached


def bfs_layering_fault(spec: CirculantSpec, dv: DistanceVector) -> str | None:
    """Certify ``dv`` as the BFS layering of ``spec`` from vertex 0: None
    when it is one, else the first condition that fails, naming a vertex.

    The conditions are (a) d == 1 exactly on the connection row, (b) every
    vertex at d >= 2 has a neighbour at d - 1 and (c) no edge joins levels
    more than one apart. By (b) a walk of length d(v) reaches 0, so d(v) is
    at least the distance; by (c) d grows by at most one along each step of
    a shortest path, so d(v) is at most the distance. By rotation the
    root's layering fixes every pair.

    After (a), each claimed layer d == L is compared with the BFS's level L
    (``_levels``). While the layers before it agree with the levels, level
    L is the set of vertices at d >= L adjacent to layer L - 1: a vertex of
    layer L left out of it fails (b), one of it beyond layer L fails (c).
    """
    n = spec.n
    if dv.n != n:
        raise InvariantError(f"distance vector has order {dv.n}, spec has {n}")
    d = dv.d
    row = spec.row
    wrong = _bitset(d == 1) ^ row
    if wrong:
        v = (wrong & -wrong).bit_length() - 1
        if row >> v & 1:
            return f"(a) vertex {v} is adjacent to 0 at d={d[v]}"
        return f"(a) vertex {v} at d=1 is not adjacent to 0"
    levels = _levels(spec)
    for level in range(2, dv.diameter + 1):
        layer = _bitset(d == level)
        reached = next(levels, 0)
        missing = layer & ~reached
        if missing:
            v = (missing & -missing).bit_length() - 1
            return f"(b) vertex {v} at d={level} has no neighbour at d={level - 1}"
        if reached != layer:
            skip = reached ^ layer
            v = (skip & -skip).bit_length() - 1
            return f"(c) vertex {v} at d={d[v]} has a neighbour at d={level - 1}"
    return None


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

    ``degree``, ``transmission`` and ``reciprocal_transmission`` are each
    reported only when every vertex has that value, and are None otherwise;
    the reciprocal transmission is read only on transmission-regular graphs.
    """

    n: int
    edge_count: int
    degree: int | None
    transmission: int | None
    reciprocal_transmission: Fraction | None
    diameter: int
    transmission_regular: bool


def _common(values: list) -> object | None:
    """The value every vertex has, or None when two vertices differ."""
    return values[0] if len(set(values)) == 1 else None


def metrics_summary(g: GenericGraph) -> MetricsSummary:
    """The summary from the distance counts C, raising on disconnected input:
    degrees are C's column 1 (0 when n = 1), transmissions C @ d."""
    counts, _ = distance_counts(g)
    transmission = _common((counts @ np.arange(counts.shape[1])).tolist())
    reciprocal = None
    if transmission is not None:
        _, denom, numerators = distance_sums(np.unique(counts, axis=0).tolist())
        reciprocal = _common([Fraction(x, denom) for x in numerators])
    return MetricsSummary(
        n=g.n,
        edge_count=g.edge_count,
        degree=_common(counts[:, 1:2].sum(axis=1).tolist()),
        transmission=transmission,
        reciprocal_transmission=reciprocal,
        diameter=counts.shape[1] - 1,
        transmission_regular=transmission is not None,
    )
