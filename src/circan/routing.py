"""Explicit routings, load profiles, the rotation witness, and forwarding
bounds.

A routing fixes one elementary path for every ordered vertex pair. The
vertex load counts paths that cross a vertex strictly inside; the
vertex-forwarding index of a connected circulant equals the transmission
minus (n - 1), and a rotation-invariant shortest-path routing attains it
with all vertex loads equal. That routing is kept only as its witness: a
BFS tree from vertex 0 and the one load every vertex carries. For the
edge-forwarding index only bounds are produced, from the distance vector.

An explicit routing is validated in whole-array passes over its paths laid
end to end (one vertex array plus one length per path): vertex range,
length, repeats within a path, steps along edges, each ordered pair routed
exactly once. The earliest faulty path is reported, with the message a
path-by-path check would give. A valid routing is ``minimal`` when its
path lengths sum to the graph's distance total (each length is at least
its pair's distance, so the sums agree only when every path is shortest),
and ``symmetric`` is one gather. Its load profile is one ``np.bincount``
over the inner positions and one ``np.unique`` over the steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .core import (
    CirculantSpec,
    GenericGraph,
    _content_rows,
    _first_true,
    _int64_array,
    _ints_before_fault,
)
from .errors import (
    FixtureParseError,
    InvalidEdgeError,
    MissingPairError,
    NonElementaryPathError,
    VertexRangeError,
)
from .metrics import DistanceVector, distance_counts

@dataclass(frozen=True)
class LoadProfile:
    """Per-vertex inner-path counts and per-edge traversal counts."""

    vertex_loads: np.ndarray
    edge_loads: Mapping[tuple[int, int], int]
    max_vertex_load: int
    max_edge_load: int


class Routing:
    """Explicit routing: one elementary path per ordered vertex pair.

    The paths are stored flat: ``vertices`` holds them end to end and
    ``starts`` the offset of each one plus a final end offset. ``minimal``
    and ``symmetric`` are computed during validation, never asserted by the
    caller.
    """

    __slots__ = ("n", "vertices", "starts", "minimal", "symmetric")

    def __init__(
        self,
        n: int,
        vertices: np.ndarray,
        starts: np.ndarray,
        *,
        minimal: bool,
        symmetric: bool,
    ) -> None:
        self.n = n
        self.vertices = vertices
        self.starts = starts
        self.minimal = minimal
        self.symmetric = symmetric

    @classmethod
    def from_paths(cls, g: GenericGraph, paths: Iterable[Iterable[int]]) -> "Routing":
        """Validate a collection of paths as a routing of ``g``: the first
        vertex outside 0..n-1 raises :class:`VertexRangeError`, then the
        paths go through the array checks of the module docstring."""
        paths = list(map(tuple, paths))
        values = list(map(int, chain.from_iterable(paths)))
        lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
        vertices = _int64_array(values)
        bad = _out_of_range(vertices, lengths, g.n)
        if bad is not None:
            pos, row = bad
            raise VertexRangeError(
                f"path {tuple(map(int, paths[row]))} has vertex {values[pos]} "
                f"outside 0..{g.n - 1}"
            )
        return _validated(g, vertices, lengths)

    def __len__(self) -> int:
        return self.starts.size - 1


def _out_of_range(
    vertices: np.ndarray, lengths: np.ndarray, n: int
) -> tuple[int, int] | None:
    """(position, path index) of the first vertex outside 0..n-1, if any."""
    pos = _first_true((vertices < 0) | (vertices >= n))
    if pos == vertices.size:
        return None
    return pos, int(np.searchsorted(np.cumsum(lengths), pos, side="right"))


def _validated(g: GenericGraph, vertices: np.ndarray, lengths: np.ndarray) -> Routing:
    """Check in-range flat paths as a routing of ``g``.

    Each check is one array pass: length >= 2, a repeat within a path (equal
    neighbours after sorting path * n + vertex), every step inside a path an
    edge, each (first, last) pair routed once, then every pair routed. The
    earliest faulty path is reported, and within a path the checks keep that
    order.
    """
    n = g.n
    count = lengths.size
    starts = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    path_of = np.repeat(np.arange(count), lengths)
    steps = np.flatnonzero(path_of[1:] == path_of[:-1])
    long = np.flatnonzero(lengths >= 2)
    first = vertices[starts[long]]
    last = vertices[starts[long + 1] - 1]
    keys, first_seen, which = np.unique(
        first * n + last, return_index=True, return_inverse=True
    )

    # Each path gets the first fault in check order: later kinds are written
    # first and overwritten by earlier ones.
    fault = np.zeros(count, dtype=np.int8)
    fault[long[first_seen[which] != np.arange(long.size)]] = 4
    non_edges = steps[~g.adj[vertices[steps], vertices[steps + 1]]]
    fault[path_of[non_edges]] = 3
    cells = np.sort(path_of * n + vertices)
    fault[cells[1:][cells[1:] == cells[:-1]] // n] = 2
    fault[lengths < 2] = 1
    bad = _first_true(fault != 0)
    if bad < count:
        path = tuple(vertices[starts[bad] : starts[bad + 1]].tolist())
        kind = fault[bad]
        if kind == 1:
            raise NonElementaryPathError(f"path {path} has fewer than two vertices")
        if kind == 2:
            raise NonElementaryPathError(f"path {path} repeats a vertex")
        if kind == 3:
            u, v = vertices[non_edges[0] : non_edges[0] + 2].tolist()
            raise InvalidEdgeError(f"path {path} uses non-edge ({u}, {v})")
        raise MissingPairError(f"ordered pair {(path[0], path[-1])} routed twice")
    if count != n * (n - 1):
        raise MissingPairError(f"{n * (n - 1) - count} ordered pairs have no path")

    # Every path is an elementary edge walk and every ordered pair has one,
    # so each length is at least its pair's distance: the lengths sum to
    # the distance total exactly when every path is shortest.
    counts, _ = distance_counts(g)
    total = int((counts @ np.arange(counts.shape[1])).sum())
    minimal = int((lengths - 1).sum()) == total
    # The path of (last, first) read backwards must be this path. Of two
    # partners with different lengths, the longer one fails the comparison
    # at its far end, where the shorter one's first vertex would have to be.
    partner = first_seen[np.searchsorted(keys, last * n + first)]
    offset = np.arange(vertices.size) - starts[path_of]
    mirror = starts[partner + 1][path_of] - 1 - offset
    symmetric = bool(np.array_equal(vertices[mirror], vertices))
    return Routing(n, vertices, starts, minimal=minimal, symmetric=symmetric)


def parse_routing_fixture(text: str, g: GenericGraph) -> Routing:
    """Parse a routing fixture: one whitespace-separated path per line,
    using the companion graph fixture's vertex indexing.

    Every line is read before any path is checked: the earliest line with a
    non-integer or out-of-range vertex is reported first, then the paths go
    through the same array validation as ``Routing.from_paths``.
    """
    base = g.index_base
    lines, keep, rows = _content_rows(text)
    values, numeric = _ints_before_fault(rows)
    vertices = _int64_array(values) - base
    lengths = np.fromiter(map(len, rows[:numeric]), dtype=np.int64, count=numeric)
    bad = _out_of_range(vertices, lengths, g.n)
    if bad is not None:
        pos, row = bad
        raise VertexRangeError(
            f"line {keep[row] + 1}: vertex {values[pos]} outside 0..{g.n - 1 + base}"
        )
    if numeric < len(rows):
        stripped = lines[keep[numeric]].strip()
        raise FixtureParseError(f"line {keep[numeric] + 1}: non-integer vertex in {stripped!r}")
    return _validated(g, vertices, lengths)


class RotationRouting:
    """The uniform-load witness of a circulant's rotation-invariant
    shortest-path routing.

    A BFS tree from vertex 0, stored as a parent array (parent = smallest
    neighbor one level closer, or the vertex itself when ``dv`` gives it
    none; such a tree is not ``minimal``), fixes the paths 0 -> v; the path
    for (x, x + v) is that base path shifted by x. Rotation makes every
    vertex carry the same load, sum over v of (depth(v) - 1), so no path is
    ever laid out.
    """

    def __init__(self, spec: CirculantSpec, parent: np.ndarray, dv: DistanceVector):
        self.spec = spec
        self.n = spec.n
        self.parent = parent  # parent[v] is the vertex before v on the path 0 -> v
        self.dv = dv
        self.depth = _tree_depths(parent)

    @cached_property
    def minimal(self) -> bool:
        """Every tree step is an edge and every base path 0 -> v has length d(v)."""
        n = self.n
        steps = (np.arange(1, n) - self.parent[1:]) % n
        return bool(self.spec.connection_row[steps].all()) and np.array_equal(
            self.depth, self.dv.d
        )

    def vertex_loads(self) -> np.ndarray:
        """Inner-vertex counts: every vertex carries sum(depth - 1) over the
        base paths that reach 0."""
        rooted = self.depth[self.depth > 0]
        return np.full(self.n, int((rooted - 1).sum()), dtype=np.int64)


def _tree_depths(parent: np.ndarray) -> np.ndarray:
    """Steps from each vertex to 0 along ``parent`` (pointer doubling);
    -1 where the walk never reaches 0."""
    n = parent.shape[0]
    depth = (np.arange(n) != 0).astype(np.int64)
    anc = parent.copy()
    anc[0] = 0
    for _ in range(max(1, (n - 1).bit_length())):
        depth, anc = depth + depth[anc], anc[anc]
    depth[anc != 0] = -1
    return depth


def build_rotation_routing(spec: CirculantSpec, dv: DistanceVector) -> RotationRouting:
    """The rotation-invariant shortest-path routing of ``spec``, whose BFS
    distance vector is ``dv``."""
    n = spec.n
    if dv.n != n:
        raise ValueError(f"distance vector has order {dv.n}, spec has {n}")
    dist = dv.d
    offs = np.flatnonzero(spec.connection_row)
    # Distance-1 vertices hang off 0; only farther ones search their neighbors.
    parent = np.zeros(n, dtype=np.int64)
    far = np.flatnonzero(dist >= 2)
    chunk = max(1, 4_000_000 // offs.size)
    for start in range(0, far.size, chunk):
        vs = far[start : start + chunk]
        nbrs = (vs[:, None] + offs[None, :]) % n
        closer = dist[nbrs] == dist[vs][:, None] - 1
        found = np.where(closer, nbrs, n).min(axis=1)
        # no neighbour one level closer (``dv`` is not the BFS vector): the
        # vertex is its own parent, so its walk never reaches 0 and the
        # routing is not minimal
        parent[vs] = np.where(found < n, found, vs)
    return RotationRouting(spec, parent, dv)


def load_profile(routing: Routing) -> LoadProfile:
    """Vertex and edge load counts of an explicit routing."""
    n, vertices, starts = routing.n, routing.vertices, routing.starts
    inner = np.ones(vertices.size, dtype=bool)
    inner[starts[:-1]] = inner[starts[1:] - 1] = False
    vertex_loads = np.bincount(vertices[inner], minlength=n)
    tail = np.ones(vertices.size, dtype=bool)
    tail[starts[1:] - 1] = False
    u = vertices[:-1][tail[:-1]]
    v = vertices[1:][tail[:-1]]
    keys, counts = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_counts=True)
    edge_loads = {
        (k // n, k % n): c for k, c in zip(keys.tolist(), counts.tolist())
    }
    return LoadProfile(
        vertex_loads=vertex_loads,
        edge_loads=edge_loads,
        max_vertex_load=int(vertex_loads.max()) if len(vertex_loads) else 0,
        max_edge_load=max(edge_loads.values(), default=0),
    )


def vertex_forwarding_index(dv: DistanceVector) -> int:
    """Exact vertex-forwarding index of a connected circulant with distance
    vector ``dv``: transmission - (n - 1), attained by any minimal routing."""
    return dv.transmission - (dv.n - 1)


def edge_forwarding_bounds(dv: DistanceVector) -> tuple[Fraction, int]:
    """(lower, upper) bounds for the edge-forwarding index of a connected
    r-regular circulant with distance vector ``dv``: 2*rho/r and
    n + rho - (2r - 1)."""
    rho = dv.transmission
    r = dv.degree
    return Fraction(2 * rho, r), dv.n + rho - (2 * r - 1)
