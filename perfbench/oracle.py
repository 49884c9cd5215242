"""Independent reference values for generated inputs, using only the stdlib.

Nothing here imports circan or numpy: the fixture checks must not share code
with the implementation they check. Graphs are lists of neighbour bitmasks
(Python ints), and all-pairs distances come from bit-parallel BFS.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class DistanceFacts:
    diameter: int
    transmissions: tuple[int, ...]

    @property
    def transmission_regular(self) -> bool:
        return len(set(self.transmissions)) == 1

    @property
    def wiener(self) -> int:
        return sum(self.transmissions) // 2


def random_connected_graph(rng: random.Random, n: int, mean_degree: float) -> list[tuple[int, int]]:
    """Edges (u < v) of a random connected irregular graph: a random
    recursive spanning tree plus uniform extra edges. No vertex may be
    adjacent to all others, so the complement has no isolated vertex."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        target = max(n - 1, round(n * mean_degree / 2))
        while len(edges) < target:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        if len(set(degrees)) > 1 and max(degrees) < n - 1:  # irregular, hence not a circulant
            return sorted(edges)


def neighbour_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def distance_facts(masks: list[int]) -> DistanceFacts:
    """Diameter and per-vertex transmissions of a connected graph.

    reach[v] holds the vertices within distance d of v; one level is
    reach'[v] = reach[v] | OR of reach[u] over neighbours u.
    """
    n = len(masks)
    full = (1 << n) - 1
    nbrs = [_bits(m) for m in masks]
    reach = [masks[v] | (1 << v) for v in range(n)]
    trans = [r.bit_count() - 1 for r in reach]
    d = 1
    while any(r != full for r in reach):
        d += 1
        grown = []
        for v in range(n):
            acc = reach[v]
            for u in nbrs[v]:
                acc |= reach[u]
            grown.append(acc)
        if grown == reach:
            raise ValueError("graph is disconnected")
        for v in range(n):
            trans[v] += d * (grown[v].bit_count() - reach[v].bit_count())
        reach = grown
    return DistanceFacts(diameter=d, transmissions=tuple(trans))


def bfs_tree_routing(masks: list[int]) -> list[tuple[int, ...]]:
    """One shortest path per ordered pair: for each source, the BFS tree in
    which every vertex hangs off its smallest-numbered discoverer."""
    n = len(masks)
    nbrs = [_bits(m) for m in masks]
    paths = []
    for s in range(n):
        parent = [-1] * n
        parent[s] = s
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in nbrs[u]:
                    if parent[w] < 0:
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
        for t in range(n):
            if t == s:
                continue
            path = [t]
            while path[-1] != s:
                path.append(parent[path[-1]])
            paths.append(tuple(reversed(path)))
    return paths


@dataclass(frozen=True)
class RoutingFacts:
    paths: int
    symmetric: bool
    vertex_loads: tuple[int, ...]
    max_edge_load: int


def routing_facts(n: int, paths: list[tuple[int, ...]]) -> RoutingFacts:
    loads = [0] * n
    edge_loads: dict[tuple[int, int], int] = {}
    table = {}
    for p in paths:
        table[(p[0], p[-1])] = p
        for v in p[1:-1]:
            loads[v] += 1
        for u, v in zip(p, p[1:]):
            key = (min(u, v), max(u, v))
            edge_loads[key] = edge_loads.get(key, 0) + 1
    symmetric = all(table[(y, x)] == p[::-1] for (x, y), p in table.items())
    return RoutingFacts(len(paths), symmetric, tuple(loads), max(edge_loads.values()))


def multiplicative_orders(max_order: int) -> list[tuple[int, int]]:
    """Every (m, h) with m >= 2, h >= 1 and m**h <= max_order."""
    return [
        (m, h)
        for m in range(2, max_order + 1)
        for h in range(1, max_order.bit_length() + 1)
        if m**h <= max_order
    ]


def circulant_diameter(n: int, jumps: tuple[int, ...], cap: int) -> int | None:
    """Diameter of the circulant C_n(jumps), or None if it exceeds cap.

    A circulant is vertex-transitive, so the eccentricity of vertex 0 is the
    diameter; one BFS level rotates the frontier bitmask by every +-jump.
    """
    full = (1 << n) - 1
    reached = frontier = 1
    d = 0
    while reached != full:
        if d == cap or not frontier:
            return None
        d += 1
        grown = 0
        for j in jumps:
            grown |= (frontier << j) | (frontier >> (n - j)) | (frontier >> j) | (frontier << (n - j))
        frontier = grown & full & ~reached
        reached |= frontier
    return d


def jump_set(rng: random.Random, n: int, k: int, max_diameter: int) -> tuple[int, ...]:
    """k distinct normalized jumps with gcd(n, jumps) = 1, spread over
    scales: jump t is log-uniform in [b**t, b**(t+1)) with b = n**(1/k).

    The spread usually keeps the diameter near k * b / 2, but jumps that
    share a factor g give a circulant isomorphic to one with the jumps
    divided by g: (82, 123) at n = 10152 acts as (2, 3), diameter 1692.
    Draws whose diameter exceeds max_diameter are drawn again.
    """
    b = n ** (1.0 / k)
    while True:
        raw = [int(b ** (t + rng.random())) for t in range(k)]
        folded = tuple(sorted({min(j % n, n - j % n) for j in raw} - {0}))
        if len(folded) == k and math.gcd(n, *folded) == 1 and circulant_diameter(n, folded, max_diameter):
            return folded
