"""Routings, load profiles, and forwarding indices.

A routing fixes one elementary path for every ordered vertex pair. The
vertex load counts paths that cross a vertex strictly inside; the
vertex-forwarding index of a connected circulant equals the transmission
minus (n - 1), and a rotation-invariant shortest-path routing attains it
with all vertex loads equal. For the edge-forwarding index only bounds are
produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

from .core import CirculantSpec, GenericGraph, build_circulant
from .errors import (
    FixtureParseError,
    InvalidEdgeError,
    MissingPairError,
    NonElementaryPathError,
    VertexRangeError,
)
from .metrics import DistanceVector, all_pairs_distances, distance_vector

# Explicit path dictionaries get large quadratically; above this order
# rotation routings stay in parent-array form.
EXPLICIT_PATH_LIMIT = 512


@dataclass(frozen=True)
class LoadProfile:
    """Per-vertex inner-path counts and per-edge traversal counts."""

    vertex_loads: np.ndarray
    edge_loads: Mapping[tuple[int, int], int]
    max_vertex_load: int
    max_edge_load: int


class Routing:
    """Explicit routing: one elementary path per ordered vertex pair.

    ``minimal`` and ``symmetric`` are computed during validation, never
    asserted by the caller.
    """

    __slots__ = ("n", "paths", "minimal", "symmetric")

    def __init__(
        self,
        n: int,
        paths: dict[tuple[int, int], tuple[int, ...]],
        *,
        minimal: bool,
        symmetric: bool,
    ) -> None:
        self.n = n
        self.paths = paths
        self.minimal = minimal
        self.symmetric = symmetric

    @classmethod
    def from_paths(
        cls,
        g: GenericGraph,
        paths: Iterable[tuple[int, ...]],
        *,
        _dist: np.ndarray | None = None,
    ) -> "Routing":
        """Validate a collection of paths as a routing of ``g``."""
        n = g.n
        table: dict[tuple[int, int], tuple[int, ...]] = {}
        for path in paths:
            path = tuple(int(v) for v in path)
            if len(path) < 2:
                raise NonElementaryPathError(f"path {path} has fewer than two vertices")
            if len(set(path)) != len(path):
                raise NonElementaryPathError(f"path {path} repeats a vertex")
            for u, v in zip(path, path[1:]):
                if not g.has_edge(u, v):
                    raise InvalidEdgeError(f"path {path} uses non-edge ({u}, {v})")
            key = (path[0], path[-1])
            if key in table:
                raise MissingPairError(f"ordered pair {key} routed twice")
            table[key] = path
        if len(table) != n * (n - 1):
            missing = n * (n - 1) - len(table)
            raise MissingPairError(f"{missing} ordered pairs have no path")
        dist = all_pairs_distances(g) if _dist is None else _dist
        minimal = all(len(p) - 1 == dist[x, y] for (x, y), p in table.items())
        symmetric = all(
            table[(y, x)] == tuple(reversed(p)) for (x, y), p in table.items()
        )
        return cls(n, table, minimal=minimal, symmetric=symmetric)

    def __len__(self) -> int:
        return len(self.paths)


def parse_routing_fixture(
    text: str, g: GenericGraph, *, _dist: np.ndarray | None = None
) -> Routing:
    """Parse a routing fixture: one whitespace-separated path per line,
    using the companion graph fixture's vertex indexing."""
    base = g.index_base
    paths = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            raw = [int(tok) for tok in stripped.split()]
        except ValueError:
            raise FixtureParseError(f"line {lineno}: non-integer vertex in {stripped!r}")
        path = tuple(v - base for v in raw)
        for v in path:
            if not 0 <= v < g.n:
                raise VertexRangeError(
                    f"line {lineno}: vertex {v + base} outside 0..{g.n - 1 + base}"
                )
        paths.append(path)
    return Routing.from_paths(g, paths, _dist=_dist)


class RotationRouting:
    """Shortest-path routing of a circulant, closed under rotation.

    A BFS tree from vertex 0, stored as a parent array (parent = smallest
    neighbor one level closer), fixes the paths 0 -> v; the path for
    (x, x + v) is that base path shifted by x. Rotation makes every vertex
    carry the same load, sum over v of (depth(v) - 1), and every edge of one
    offset orbit the same load, so neither is accumulated path by path.
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

    @cached_property
    def symmetric(self) -> bool:
        """Each pair is routed by reversed paths in the two directions."""
        return all(
            self.path(v, 0) == self.path(0, v)[::-1] for v in range(1, self.n)
        )

    def _base_path(self, v: int) -> list[int]:
        path = [v]
        while path[-1] != 0:
            path.append(int(self.parent[path[-1]]))
        path.reverse()
        return path

    def path(self, x: int, y: int) -> tuple[int, ...]:
        v = (y - x) % self.n
        if v == 0:
            raise KeyError("routing paths join distinct vertices")
        return tuple((u + x) % self.n for u in self._base_path(v))

    def paths(self) -> Iterator[tuple[int, ...]]:
        bases = [self._base_path(v) for v in range(1, self.n)]
        for x in range(self.n):
            for base in bases:
                yield tuple((u + x) % self.n for u in base)

    def to_explicit(self, g: GenericGraph | None = None) -> Routing:
        """Materialize and fully re-validate every path (small orders)."""
        if self.n > EXPLICIT_PATH_LIMIT:
            raise ValueError(
                f"explicit materialization capped at n={EXPLICIT_PATH_LIMIT}"
            )
        if g is None:
            g = build_circulant(self.spec)
        return Routing.from_paths(g, self.paths())

    def vertex_loads(self) -> np.ndarray:
        """Inner-vertex counts: every vertex carries sum(depth - 1)."""
        return np.full(self.n, int((self.depth[1:] - 1).sum()), dtype=np.int64)

    def edge_loads(self) -> dict[tuple[int, int], int]:
        """Undirected traversal counts, one value per offset orbit.

        The tree edge into u is a step of every base path through u, i.e.
        size(u) of them. Shifting gives each edge of orbit o the number of
        base-path steps with difference +-o; the n/2 orbit has only n/2
        edges, so each of them carries twice that.
        """
        n = self.n
        step = (np.arange(1, n) - self.parent[1:]) % n
        orbit_load = np.zeros(n // 2 + 1, dtype=np.int64)
        np.add.at(orbit_load, np.minimum(step, n - step), self._subtree_sizes()[1:])
        if n % 2 == 0:
            orbit_load[n // 2] *= 2
        loads = {}
        for o in np.flatnonzero(orbit_load):
            for x in range(n // 2 if 2 * o == n else n):
                y = (x + int(o)) % n
                loads[(min(x, y), max(x, y))] = int(orbit_load[o])
        return loads

    def _subtree_sizes(self) -> np.ndarray:
        size = np.ones(self.n, dtype=np.int64)
        for level in range(int(self.depth.max()), 0, -1):
            vs = np.flatnonzero(self.depth == level)
            np.add.at(size, self.parent[vs], size[vs])
        return size


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


def build_rotation_routing(
    spec: CirculantSpec, dv: DistanceVector | None = None
) -> RotationRouting:
    """Construct the rotation-invariant shortest-path routing of ``spec``."""
    if dv is None:
        dv = distance_vector(spec)
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
        parent[vs] = np.where(closer, nbrs, n).min(axis=1)
    return RotationRouting(spec, parent, dv)


def load_profile(routing: Routing | RotationRouting) -> LoadProfile:
    """Vertex and edge load counts of a routing."""
    if isinstance(routing, RotationRouting):
        vertex_loads = routing.vertex_loads()
        edge_loads = routing.edge_loads()
    else:
        vertex_loads = np.zeros(routing.n, dtype=np.int64)
        edge_loads: dict[tuple[int, int], int] = {}
        for path in routing.paths.values():
            for v in path[1:-1]:
                vertex_loads[v] += 1
            for u, v in zip(path, path[1:]):
                key = (min(u, v), max(u, v))
                edge_loads[key] = edge_loads.get(key, 0) + 1
    return LoadProfile(
        vertex_loads=vertex_loads,
        edge_loads=edge_loads,
        max_vertex_load=int(vertex_loads.max()) if len(vertex_loads) else 0,
        max_edge_load=max(edge_loads.values(), default=0),
    )


def vertex_forwarding_index(
    spec: CirculantSpec, dv: DistanceVector | None = None
) -> int:
    """Exact vertex-forwarding index of a connected circulant:
    transmission - (n - 1), attained by any minimal routing."""
    if dv is None:
        dv = distance_vector(spec)
    return dv.transmission - (spec.n - 1)


def edge_forwarding_bounds(
    spec: CirculantSpec, dv: DistanceVector | None = None
) -> tuple[Fraction, int]:
    """(lower, upper) bounds for the edge-forwarding index of a connected
    r-regular circulant: 2*rho/r and n + rho - (2r - 1)."""
    if dv is None:
        dv = distance_vector(spec)
    rho = dv.transmission
    r = dv.degree
    return Fraction(2 * rho, r), spec.n + rho - (2 * r - 1)
