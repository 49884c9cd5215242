from pathlib import Path

import numpy as np
import pytest

from circan import CirculantSpec, GenericGraph, distance_vector, parse_routing_fixture
from circan.errors import DisconnectedGraphError

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fig1_text() -> str:
    return (FIXTURES / "fig1.graph").read_text()


@pytest.fixture(scope="session")
def r1_text() -> str:
    return (FIXTURES / "fig1_r1.routes").read_text()


@pytest.fixture(scope="session")
def r2_text() -> str:
    return (FIXTURES / "fig1_r2.routes").read_text()


def random_connected_specs(count: int, max_n: int, seed: int) -> list[CirculantSpec]:
    """Deterministic corpus of connected circulant specs, mixing sparse and
    dense jump sets."""
    rng = np.random.default_rng(seed)
    specs: list[CirculantSpec] = []
    while len(specs) < count:
        n = int(rng.integers(5, max_n + 1))
        half = n // 2
        k_cap = half if len(specs) % 3 == 0 else min(6, half)
        k = int(rng.integers(1, k_cap + 1))
        jumps = rng.choice(np.arange(1, half + 1), size=min(k, half), replace=False)
        spec = CirculantSpec.of(n, (int(j) for j in jumps))
        try:
            distance_vector(spec)
        except DisconnectedGraphError:
            continue
        specs.append(spec)
    return specs


def from_edges(n: int, edges) -> GenericGraph:
    """The simple graph on 0..n-1 with the given edges (self-loops dropped)."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    np.fill_diagonal(adj, False)
    return GenericGraph(adj)


def rotation_parents(spec: CirculantSpec, dv) -> np.ndarray:
    """A BFS tree of the circulant ``spec`` from vertex 0 by the distance
    vector ``dv``: the parent of each vertex is its smallest neighbour one
    level closer, or the vertex itself when it has none (vertex 0 too)."""
    n = spec.n
    offsets = np.flatnonzero(spec.connection_row)
    parent = np.arange(n)
    for v in range(1, n):
        neighbours = (v + offsets) % n
        closer = neighbours[dv.d[neighbours] == dv.d[v] - 1]
        if closer.size:
            parent[v] = closer.min()
    return parent


def rotation_paths(parent: np.ndarray) -> list[tuple[int, ...]]:
    """Every path of the rotation routing of a BFS tree: the tree path
    0 -> v of each v != 0, read up the parent array, shifted by each x.
    Raises ValueError when the walk from some vertex never reaches 0."""
    n = len(parent)
    bases = []
    for v in range(1, n):
        path = [v]
        while path[-1] != 0:
            if len(path) > n:
                raise ValueError(f"the tree walk from {v} never reaches 0")
            path.append(int(parent[path[-1]]))
        bases.append(path[::-1])
    return [tuple((u + x) % n for u in base) for x in range(n) for base in bases]


def routing_paths(r) -> dict[tuple[int, int], tuple[int, ...]]:
    """{(first, last): path} of an explicit routing, in the order given."""
    flat = r.vertices.tolist()
    bounds = r.starts.tolist()
    return {(flat[lo], flat[hi - 1]): tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])}


def routing_from_paths(g: GenericGraph, paths):
    """``paths`` of 0-based vertices written as a routing fixture in ``g``'s
    indexing, one path per line, and read back by ``parse_routing_fixture``."""
    base = g.index_base
    text = "\n".join(" ".join(str(v + base) for v in path) for path in paths)
    return parse_routing_fixture(text, g)


def distance_matrix(dv) -> np.ndarray:
    """The rotation expansion of a circulant distance vector: entry (i, j)
    is dv.d[(j - i) mod n]."""
    shift = np.arange(dv.n)
    return dv.d[(shift[None, :] - shift[:, None]) % dv.n]


def has_property_star(g) -> bool:
    """True iff every edge {u, v} has a third vertex adjacent to neither
    endpoint."""
    non = ~g.adj
    np.fill_diagonal(non, False)
    u, v = g.edges().T
    return bool((non[u] & non[v]).any(axis=1).all())


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
    orders the tests use).
    """
    n = g.n
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


def record_to_dict(rec) -> dict:
    """The JSON document of one verification record: the oracle that
    ``records_to_json`` must equal under ``json.dumps(..., indent=2)``."""
    return {
        "family": rec.point.family.value,
        "n": rec.point.n,
        "a": rec.point.a,
        "m": rec.point.m,
        "h": rec.point.h,
        "status": rec.domain_status.value,
        "note": rec.note,
        "passed": rec.passed,
        "fields": {
            name: {
                "match": check.match,
                "predicted": check.predicted,
                "computed": check.computed,
            }
            for name, check in rec.fields.items()
        },
    }
