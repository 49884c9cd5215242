"""Array-pass fixture parsing and routing validation against the scalar
per-line, per-path and per-step code they replaced, kept here as the
reference: the same graphs, paths, flags and loads on valid input, and the
same exception class and message on faulty input."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    Routing,
    build_circulant,
    load_profile,
    parse_graph_fixture,
    parse_routing_fixture,
)
from circan.core import GenericGraph
from circan.errors import (
    DuplicateEdgeError,
    FixtureParseError,
    InvalidEdgeError,
    MissingPairError,
    NonElementaryPathError,
    VertexRangeError,
)

from conftest import all_pairs_distances, routing_paths

# ---------------------------------------------------------------------------
# Reference implementations (scalar loops)


def oracle_parse_graph(text: str) -> GenericGraph:
    lines = text.splitlines()
    header_seen = False
    n = 0
    base = 0
    adj = None
    seen = set()
    for lineno, lin in enumerate(lines, start=1):
        stripped = lin.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if not header_seen:
            if len(parts) not in (1, 2) or (len(parts) == 2 and parts[1] != "one-indexed"):
                raise FixtureParseError(f"line {lineno}: bad header {stripped!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise FixtureParseError(f"line {lineno}: bad vertex count {parts[0]!r}")
            if n < 1:
                raise FixtureParseError(f"line {lineno}: vertex count must be positive")
            base = 1 if len(parts) == 2 else 0
            adj = np.zeros((n, n), dtype=bool)
            header_seen = True
            continue
        if len(parts) != 2:
            raise FixtureParseError(f"line {lineno}: expected 'u v', got {stripped!r}")
        try:
            u, v = int(parts[0]) - base, int(parts[1]) - base
        except ValueError:
            raise FixtureParseError(f"line {lineno}: non-integer vertex in {stripped!r}")
        for w in (u, v):
            if not 0 <= w < n:
                raise VertexRangeError(f"line {lineno}: vertex {w + base} outside 0..{n - 1 + base}")
        if u == v:
            raise FixtureParseError(f"line {lineno}: self-loop at vertex {u + base}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"line {lineno}: duplicate edge {u + base} {v + base}")
        seen.add(key)
        adj[u, v] = adj[v, u] = True
    if not header_seen:
        raise FixtureParseError("fixture has no header line")
    return GenericGraph(adj, index_base=base, validate=False)


def oracle_from_paths(g, paths):
    """(paths dict, minimal, symmetric); vertices must be in range."""
    n = g.n
    table = {}
    for path in paths:
        path = tuple(int(v) for v in path)
        if len(path) < 2:
            raise NonElementaryPathError(f"path {path} has fewer than two vertices")
        if len(set(path)) != len(path):
            raise NonElementaryPathError(f"path {path} repeats a vertex")
        for u, v in zip(path, path[1:]):
            if not g.adj[u, v]:
                raise InvalidEdgeError(f"path {path} uses non-edge ({u}, {v})")
        key = (path[0], path[-1])
        if key in table:
            raise MissingPairError(f"ordered pair {key} routed twice")
        table[key] = path
    if len(table) != n * (n - 1):
        missing = n * (n - 1) - len(table)
        raise MissingPairError(f"{missing} ordered pairs have no path")
    dist = all_pairs_distances(g)
    minimal = all(len(p) - 1 == dist[x, y] for (x, y), p in table.items())
    symmetric = all(table[(y, x)] == tuple(reversed(p)) for (x, y), p in table.items())
    return table, minimal, symmetric


def oracle_parse_routing(text, g):
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
    return oracle_from_paths(g, paths)


def oracle_loads(n, table):
    vertex_loads = np.zeros(n, dtype=np.int64)
    edge_loads = {}
    for path in table.values():
        for v in path[1:-1]:
            vertex_loads[v] += 1
        for u, v in zip(path, path[1:]):
            key = (min(u, v), max(u, v))
            edge_loads[key] = edge_loads.get(key, 0) + 1
    return vertex_loads.tolist(), edge_loads


# ---------------------------------------------------------------------------
# Comparison helpers


def outcome(fn, *args):
    """("ok", result) or (exception class, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)


def assert_same_graph(text):
    want = outcome(oracle_parse_graph, text)
    got = outcome(parse_graph_fixture, text)
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok", got
    assert got[1] == want[1] and got[1].index_base == want[1].index_base
    assert not got[1].adj.flags.writeable
    return got[1]


def assert_same_routing(want, got):
    """``want`` from an oracle, ``got`` from the library, as outcomes."""
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok", got
    table, minimal, symmetric = want[1]
    routing = got[1]
    assert list(routing_paths(routing).items()) == list(table.items())
    assert len(routing) == len(table)
    assert routing.minimal is minimal and routing.symmetric is symmetric
    profile = load_profile(routing)
    vertex_loads, edge_loads = oracle_loads(routing.n, table)
    assert profile.vertex_loads.tolist() == vertex_loads
    assert profile.edge_loads == edge_loads
    assert profile.max_vertex_load == max(vertex_loads, default=0)
    assert profile.max_edge_load == max(edge_loads.values(), default=0)


# ---------------------------------------------------------------------------
# Generators


def _layout(draw, lines):
    """Join content lines with comments, blank lines, padding and LF or CRLF."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    fillers = ["", "   ", "# note", "  # 1 2", "\t"]
    out = []
    for line in lines:
        while rnd.random() < 0.2:
            out.append(rnd.choice(fillers))
        pad = rnd.choice(["", " ", "\t"])
        out.append(pad + line.replace(" ", rnd.choice([" ", "  ", "\t"])) + pad)
    newline = rnd.choice(["\n", "\r\n"])
    return newline.join(out) + rnd.choice(["", newline])


@st.composite
def graph_texts(draw, faults: bool):
    n = draw(st.integers(1, 9))
    base = draw(st.sampled_from([0, 1]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = random.Random(draw(st.integers(0, 2**32)))
    lines = [f"{n} one-indexed" if base else str(n)]
    for u, v in edges:
        if flips.random() < 0.5:
            u, v = v, u
        lines.append(f"{u + base} {v + base}")
    if faults:
        bad = [
            "x 1", "1", "1 2 3", f"{n + base} {base}", f"{base} {n + base}", f"{base - 1} {base}",
            f"{base} {base}", "1 2.5", "99999999999999999999 1", "-99999999999999999999 1",
            "5 bad", "+1 0", "1_0 0",
        ]
        if len(lines) > 1:
            bad += [lines[1], " ".join(reversed(lines[1].split()))]
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(bad)))
    return _layout(draw, lines)


def _connected_graph(draw, n):
    adj = np.zeros((n, n), dtype=bool)
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        adj[u, v] = adj[v, u] = True
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u, v]]
    for u, v in draw(st.lists(st.sampled_from(chords), unique=True, max_size=n)) if chords else []:
        adj[u, v] = adj[v, u] = True
    return GenericGraph(adj)


def _tree_path(g, x, y, rnd, shortest):
    """The x -> y path of a BFS tree (shortest) or a randomized DFS tree."""
    parent = {}
    frontier = [(x, x)]
    while y not in parent:
        u, p = frontier.pop(0 if shortest else -1)
        if u in parent:
            continue
        parent[u] = p
        nbrs = np.flatnonzero(g.adj[u]).tolist()
        rnd.shuffle(nbrs)
        frontier += [(w, u) for w in nbrs if w not in parent]
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


@st.composite
def routings(draw):
    """A connected graph and one path per ordered pair: shortest paths,
    detours, and reversed partners or independent choices."""
    n = draw(st.integers(2, 7))
    g = _connected_graph(draw, n)
    rnd = random.Random(draw(st.integers(0, 2**32)))
    detour_rate = draw(st.sampled_from([0.0, 0.3, 1.0]))
    mirror_rate = draw(st.sampled_from([0.0, 0.5, 1.0]))
    paths = {}
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if x > y and rnd.random() < mirror_rate:
                paths[(x, y)] = paths[(y, x)][::-1]
            else:
                paths[(x, y)] = _tree_path(g, x, y, rnd, rnd.random() >= detour_rate)
    order = list(paths.values())
    rnd.shuffle(order)
    return g, order


@st.composite
def routing_cases(draw, faults: bool):
    """(graph fixture text, routing fixture text) in the same indexing."""
    g, paths = draw(routings())
    n = g.n
    base = draw(st.sampled_from([0, 1]))
    edges = [f"{u + base} {v + base}" for u, v in g.edges().tolist()]
    graph_text = "\n".join([f"{n} one-indexed" if base else str(n), *edges])
    lines = [" ".join(str(v + base) for v in p) for p in paths]
    if faults:
        non_edges = [(u, v) for u in range(n) for v in range(n) if u != v and not g.adj[u, v]]
        bad = ["1 x", f"{n + base} x", str(base), f"{base} {n + base}", f"{base - 1} {base}", lines[0],
               f"{base} {base + 1} {base}", "99999999999999999999 1", "2 3.0"]
        bad += [f"{u + base} {v + base}" for u, v in non_edges[:2]]
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()) and len(lines) > 1:
                del lines[draw(st.integers(0, len(lines) - 1))]
            else:
                lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(bad)))
    return graph_text, _layout(draw, lines)


# ---------------------------------------------------------------------------
# Properties


class TestGraphFixtureOracle:
    @settings(max_examples=300, deadline=None)
    @given(graph_texts(faults=False))
    def test_valid_fixture_matches(self, text):
        assert assert_same_graph(text) is not None

    @settings(max_examples=400, deadline=None)
    @given(graph_texts(faults=True))
    def test_faulty_fixture_matches(self, text):
        assert_same_graph(text)


class TestRoutingOracle:
    @settings(max_examples=150, deadline=None)
    @given(routing_cases(faults=False))
    def test_valid_routing_fixture_matches(self, case):
        graph_text, text = case
        g = parse_graph_fixture(graph_text)
        assert_same_routing(outcome(oracle_parse_routing, text, g),
                            outcome(parse_routing_fixture, text, g))

    @settings(max_examples=300, deadline=None)
    @given(routing_cases(faults=True))
    def test_faulty_routing_fixture_matches(self, case):
        graph_text, text = case
        g = parse_graph_fixture(graph_text)
        assert_same_routing(outcome(oracle_parse_routing, text, g),
                            outcome(parse_routing_fixture, text, g))

    @settings(max_examples=200, deadline=None)
    @given(routings(), st.data())
    def test_from_paths_matches(self, case, data):
        g, paths = case
        n = g.n
        # in-range faults: drop, repeat or add a path, or append a vertex
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(paths) - 1))
            kind = data.draw(st.sampled_from(["drop", "copy", "extend", "short"]))
            if kind == "drop":
                del paths[i]
            elif kind == "copy":
                paths.insert(data.draw(st.integers(0, len(paths))), paths[i])
            elif kind == "extend":
                paths[i] = paths[i] + (data.draw(st.integers(0, n - 1)),)
            else:
                paths[i] = paths[i][:1]
            if not paths:
                break
        as_lists = [list(p) for p in paths]
        assert_same_routing(outcome(oracle_from_paths, g, paths),
                            outcome(Routing.from_paths, g, iter(as_lists)))


# ---------------------------------------------------------------------------
# One row per fault kind, and two faults on different lines in both orders

GRAPH_FAULTS = [
    ("# only a comment\n", FixtureParseError),
    ("3 zero-indexed\n0 1\n", FixtureParseError),
    ("three\n0 1\n", FixtureParseError),
    ("0\n", FixtureParseError),
    ("3\n0 1 2\n", FixtureParseError),
    ("3\n0\n", FixtureParseError),
    ("3\n0 one\n", FixtureParseError),
    ("3\n3 0\n", VertexRangeError),
    ("3\n0 -1\n", VertexRangeError),
    ("3 one-indexed\n0 1\n", VertexRangeError),
    ("3\n0 99999999999999999999999\n", VertexRangeError),
    ("3\n1 1\n", FixtureParseError),
    ("3\n0 1\n0 1\n", DuplicateEdgeError),
    ("3 one-indexed\n1 2\n2 1\n", DuplicateEdgeError),
    # two faults on different lines, in both orders
    ("3\n0 x\n0 5\n", FixtureParseError),
    ("3\n0 5\n0 x\n", VertexRangeError),
    ("3\n0 1 2\n1 1\n", FixtureParseError),
    ("3\n1 1\n0 1 2\n", FixtureParseError),
    ("3\n0 1\n1 0\n2 2\n", DuplicateEdgeError),
    ("3\n0 1\n2 2\n1 0\n", FixtureParseError),
    ("3\n0 x\n0\n", FixtureParseError),
    ("3\n0\n0 x\n", FixtureParseError),
    # two faults on one line: range before self-loop, u before v
    ("3\n4 4\n", VertexRangeError),
    ("3\n-1 7\n", VertexRangeError),
]


@pytest.mark.parametrize("text,cls", GRAPH_FAULTS)
def test_graph_fault_table(text, cls):
    want = outcome(oracle_parse_graph, text)
    assert want[0] is cls
    assert outcome(parse_graph_fixture, text) == want


def _fig1_routes(r1_text):
    return [line for line in r1_text.splitlines() if line.strip() and not line.startswith("#")]


ROUTING_FAULTS = [
    # (lines to put first, lines of r1 to drop, expected class)
    (["1 x"], 0, FixtureParseError),
    (["1 7"], 0, VertexRangeError),
    (["0 1"], 0, VertexRangeError),
    (["3"], 0, NonElementaryPathError),
    (["1 2 1"], 0, NonElementaryPathError),
    (["1 6"], 0, InvalidEdgeError),
    (["1 2"], 0, MissingPairError),
    ([], 1, MissingPairError),
    # two faults on different lines, in both orders
    (["1 x", "1 7"], 0, FixtureParseError),
    (["1 7", "1 x"], 0, VertexRangeError),
    (["1 2 1", "1 7"], 0, VertexRangeError),
    (["3", "1 6"], 0, NonElementaryPathError),
    (["1 6", "3"], 0, InvalidEdgeError),
    (["1 2 1", "2 1 2"], 0, NonElementaryPathError),
    # two faults in one path: repeat before non-edge
    (["1 6 1"], 0, NonElementaryPathError),
    # a line's non-integer outranks its own out-of-range vertex
    (["1 2 4", "9 x"], 0, FixtureParseError),
]


@pytest.mark.parametrize("first,drop,cls", ROUTING_FAULTS)
def test_routing_fault_table(fig1_text, r1_text, first, drop, cls):
    g = parse_graph_fixture(fig1_text)
    lines = first + _fig1_routes(r1_text)[drop:]
    text = "\n".join(lines)
    want = outcome(oracle_parse_routing, text, g)
    assert want[0] is cls
    assert outcome(parse_routing_fixture, text, g) == want


# ---------------------------------------------------------------------------
# Out-of-range vertices in Routing.from_paths


@pytest.mark.parametrize("bad", [(1, -1), (0, 5), (2, 1, 10**30)])
def test_from_paths_rejects_out_of_range_vertices(bad):
    k3 = build_circulant(CirculantSpec.of(3, [1]))
    paths = [(x, y) for x in range(3) for y in range(3) if x != y][:-1] + [bad]
    with pytest.raises(VertexRangeError, match=r"outside 0\.\.2"):
        Routing.from_paths(k3, paths)
