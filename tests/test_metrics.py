import ast
import math
import tracemalloc
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    DistanceVector,
    GenericGraph,
    build_circulant,
    complement_graph,
    complement_spec,
    distance_counts,
    distance_vector,
    metrics_summary,
    parse_graph_fixture,
)
from circan import metrics
from circan.errors import (
    DisconnectedGraphError,
    EmptyComplementError,
    EmptyJumpSetError,
    InvariantError,
)

from conftest import (
    FIXTURES,
    all_pairs_distances,
    bfs_distances,
    distance_matrix,
    from_edges,
    has_property_star,
)


def _complement_graph_of(n, jumps):
    return build_circulant(complement_spec(CirculantSpec.of(n, jumps)))


class TestBfs:
    def test_complement_of_half_jump(self):
        g = _complement_graph_of(8, [1, 4])
        assert bfs_distances(g, 0).tolist() == [0, 2, 1, 1, 2, 1, 1, 2]

    def test_complement_of_seven_cycle_family(self):
        g = _complement_graph_of(7, [1, 2])
        assert bfs_distances(g, 0).tolist() == [0, 2, 3, 1, 1, 3, 2]

    def test_complement_of_multiplicative_eight(self):
        g = _complement_graph_of(8, [1, 2, 4])
        assert bfs_distances(g, 0).tolist() == [0, 3, 2, 1, 4, 1, 2, 3]

    def test_unreachable_marker(self):
        g = build_circulant(CirculantSpec.of(8, [2]))
        d = bfs_distances(g, 0)
        assert (d[1::2] == -1).all() and (d[0::2] >= 0).all()


class TestDistanceVector:
    def test_complement_spec_of_half_jump(self):
        dv = distance_vector(CirculantSpec.of(8, [2, 3]))
        assert dv.d.tolist() == [0, 2, 1, 1, 2, 1, 1, 2]

    def test_complete_graph(self):
        dv = distance_vector(CirculantSpec.of(4, [1, 2]))
        assert dv.d.tolist() == [0, 1, 1, 1]

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            distance_vector(CirculantSpec.of(8, [2, 4]))

    def test_matches_generic_bfs_across_densities(self):
        for n, jumps in [(12, [1]), (16, [1, 3]), (30, [2, 3, 7]), (64, [1, 2]),
                         (100, list(range(1, 45))), (128, list(range(2, 60)))]:
            spec = CirculantSpec.of(n, jumps)
            dv = distance_vector(spec)
            oracle = bfs_distances(build_circulant(spec), 0)
            assert np.array_equal(dv.d, oracle), (n, jumps)

    @given(
        n=st.integers(3, 128),
        jumps=st.lists(st.integers(1, 200), min_size=1, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_palindrome_symmetry(self, n, jumps):
        try:
            dv = distance_vector(CirculantSpec.of(n, jumps))
        except (EmptyJumpSetError, DisconnectedGraphError):
            return
        d = dv.d
        assert all(d[v] == d[n - v] for v in range(1, n))

    def test_validation_rejects_non_palindrome(self):
        with pytest.raises(InvariantError):
            DistanceVector(4, np.array([0, 1, 1, 2]))


def _queue_bfs_oracle(n, offsets):
    """The plain queue BFS over the offsets, kept as an oracle for the
    kernel; -1 marks unreachable vertices."""
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for off in offsets:
            w = u + off
            if w >= n:
                w -= n
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return np.array(dist, dtype=np.int64)


def _kernel_side(spec):
    """The side of the kernel ``spec`` runs on: "orbit" (one jump), "pull"
    (fewer than degree vertices left after level 1, the connection row) or
    "push"."""
    degree = len(spec.offsets())
    if degree <= 2:
        return "orbit"
    return "pull" if spec.n - 1 - degree < degree else "push"


def _kernel_id(spec):
    """A short id: order, degree and, for a disconnected spec, the gcd of
    the order and the jumps."""
    g = math.gcd(spec.n, *spec.jumps)
    return f"n{spec.n}-deg{len(spec.offsets())}" + (f"-g{g}" if g > 1 else "")


KERNEL_CASES = [
    (CirculantSpec.of(2, [1]), "orbit"),
    (CirculantSpec.of(12, [3]), "orbit"),  # disconnected: the orbit of 3
    (CirculantSpec.of(4096, [1]), "orbit"),
    (CirculantSpec.of(4096, [2048]), "orbit"),
    (CirculantSpec.of(4096, [1, 64]), "push"),
    (complement_spec(CirculantSpec.of(4096, [1, 64])), "pull"),
    (CirculantSpec.of(1 << 16, [1, 17, 300, 5000]), "push"),
    (CirculantSpec.of(1 << 16, [2, 34, 600, 10000]), "push"),
]


@st.composite
def kernel_specs(draw):
    """Circulants of order 2..600: sparse jump sets, sets holding the n/2
    jump, disconnected sets (all jumps multiples of g | n), complete graphs
    and complements of sparse sets."""
    kind = draw(st.sampled_from(["sparse", "half", "disconnected", "complete", "complement"]))
    if kind == "disconnected":
        g = draw(st.integers(2, 5))
        m = draw(st.integers(2, 600 // g))
        jumps = draw(st.lists(st.integers(1, m // 2), min_size=1, max_size=6))
        return CirculantSpec.of(g * m, [g * j for j in jumps])
    n = draw(st.integers(2, 600))
    if kind == "complete":
        return CirculantSpec.of(n, range(1, n // 2 + 1))
    jumps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=6))
    if kind == "half":
        jumps.append(n // 2)
    spec = CirculantSpec.of(n, jumps)
    if kind == "complement":
        try:
            return complement_spec(spec)
        except EmptyComplementError:
            pass
    return spec


class TestDistanceVectorCounts:
    """The counts a DistanceVector stores on construction, and the sums it
    reads from them."""

    @given(spec=kernel_specs())
    @example(spec=CirculantSpec.of(2, [1]))
    @example(spec=CirculantSpec.of(9, [2]))
    @settings(max_examples=80, deadline=None)
    def test_stored_counts_equal_the_array_reductions(self, spec):
        try:
            dv = distance_vector(spec)
        except DisconnectedGraphError:
            return
        d = dv.d
        assert dv.degree == int((d == 1).sum())
        assert dv.diameter == int(d.max())
        assert dv.transmission == int(d.sum()) and type(dv.transmission) is int
        assert np.array_equal(dv.distance_counts(), np.bincount(d))
        assert dv.reciprocal_transmission == sum(Fraction(1, int(x)) for x in d[1:])

    def test_stored_counts_are_read_only(self):
        dv = distance_vector(CirculantSpec.of(8, [1, 2]))
        counts = dv.distance_counts()
        assert counts is dv.distance_counts() and not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[1] = 0
        assert counts.tolist() == [1, 4, 3]

    def test_distance_beyond_the_order_is_refused_before_counting(self):
        # a count array of 10**12 + 1 entries is never allocated
        with pytest.raises(InvariantError):
            DistanceVector(3, np.array([0, 10**12, 10**12]))
        with pytest.raises(InvariantError):
            DistanceVector(4, np.array([0, 1, 4, 1]))


# One way to break each invariant of a DistanceVector of order 9, applied to
# a valid vector, and the message a vector with only that fault gets.
_VALID = (0, 1, 2, 1, 2, 2, 1, 2, 1)
_POSITIVE = "all distances from vertex 0 must be positive"
_FAULTS = {
    "shape": (lambda d: d[:-1], "expected 9 entries, got shape (8,)"),
    "d0": (lambda d: _put(d, {0: 1}), "distance to vertex 0 must be 0"),
    "zero": (lambda d: _put(d, {2: 0, 7: 0}), _POSITIVE),
    "negative": (lambda d: _put(d, {2: -1, 7: -1}), _POSITIVE),
    "non_palindrome": (lambda d: _put(d, {1: 3}),
                       "circulant distance vector must satisfy d[v] == d[n-v]"),
    "at_n": (lambda d: _put(d, {3: 9, 6: 9}), "every distance from vertex 0 must be below n"),
    "huge": (lambda d: _put(d, {3: 10**12, 6: 10**12}),
             "every distance from vertex 0 must be below n"),
}
# A vector with several faults gets the message of the first in this order.
_PRECEDENCE = ("shape", "d0", "zero", "negative", "non_palindrome", "at_n", "huge")


def _put(d, entries):
    d = d.copy()
    for v, value in entries.items():
        d[v] = value
    return d


def _broken(*faults):
    d = np.array(_VALID, dtype=np.int64)
    for fault in sorted(faults, key=lambda f: f == "shape"):  # cut the shape last
        d = _FAULTS[fault][0](d)
    return d


class TestDistanceVectorInvariants:
    """Every invariant a DistanceVector enforces, alone and in pairs."""

    def test_the_valid_vector_passes(self):
        assert DistanceVector(9, _broken()).transmission == 12

    @pytest.mark.parametrize("fault", _PRECEDENCE)
    def test_single_fault(self, fault):
        with pytest.raises(InvariantError) as info:
            DistanceVector(9, _broken(fault))
        assert type(info.value) is InvariantError and str(info.value) == _FAULTS[fault][1]

    @pytest.mark.parametrize("first, second", [
        (a, b) for i, a in enumerate(_PRECEDENCE) for b in _PRECEDENCE[i + 1:]
        if {a, b} != {"at_n", "huge"}
    ])
    def test_pair_of_faults_reports_the_first_by_precedence(self, first, second):
        with pytest.raises(InvariantError) as info:
            DistanceVector(9, _broken(first, second))
        assert str(info.value) == _FAULTS[first][1]

    @pytest.mark.parametrize("fault", ["at_n", "huge", "negative"])
    def test_an_entry_off_the_range_is_refused_before_counting(self, monkeypatch, fault):
        def refuse(arr):
            raise AssertionError(f"bincount called on {arr}")

        monkeypatch.setattr(np, "bincount", refuse)
        with pytest.raises(InvariantError, match=_FAULTS[fault][1]):
            DistanceVector(9, _broken(fault))


class TestCirculantBfsKernel:
    @given(spec=kernel_specs())
    @settings(max_examples=250, deadline=None)
    def test_matches_generic_bfs(self, spec):
        want = bfs_distances(build_circulant(spec), 0)
        got = metrics._circulant_bfs(spec)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), spec
        if (want < 0).any():
            with pytest.raises(DisconnectedGraphError):
                distance_vector(spec)
        else:
            assert np.array_equal(distance_vector(spec).d, want)

    @pytest.mark.parametrize("spec, side", KERNEL_CASES,
                             ids=[_kernel_id(spec) for spec, _ in KERNEL_CASES])
    def test_matches_queue_oracle_on_each_side(self, spec, side):
        assert _kernel_side(spec) == side
        want = _queue_bfs_oracle(spec.n, spec.offsets())
        assert np.array_equal(metrics._circulant_bfs(spec), want)
        if (want < 0).any():
            with pytest.raises(DisconnectedGraphError):
                distance_vector(spec)


class TestDistanceMatrix:
    def test_complete_graph_is_j_minus_i(self):
        dv = DistanceVector(4, np.array([0, 1, 1, 1]))
        expected = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
        assert np.array_equal(distance_matrix(dv), expected)

    def test_rotation_matches_all_pairs_bfs(self):
        spec = CirculantSpec.of(8, [2, 3])
        dv = distance_vector(spec)
        oracle = all_pairs_distances(build_circulant(spec))
        assert np.array_equal(distance_matrix(dv), oracle)

    def test_four_cycle(self):
        dv = DistanceVector(4, np.array([0, 1, 2, 1]))
        mat = distance_matrix(dv)
        assert mat.max() == 2
        assert np.array_equal(mat, mat.T)
        assert (np.diag(mat) == 0).all()


@st.composite
def generic_graphs(draw):
    """A random simple graph on 1..40 vertices, of any density."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.03, 0.1, 0.3, 0.7, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    return GenericGraph(upper | upper.T)


class TestDistanceCounts:
    @given(g=generic_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_all_pairs_oracle(self, g):
        dist = all_pairs_distances(g)
        if (dist < 0).any():
            with pytest.raises(DisconnectedGraphError):
                distance_counts(g)
            return
        width = int(dist.max()) + 1
        deg = g.degrees()
        want_c = np.stack([np.bincount(row, minlength=width) for row in dist])
        want_w = np.stack([np.bincount(row, deg, minlength=width) for row in dist])
        counts, weights = distance_counts(g)
        assert np.array_equal(counts, want_c)
        assert np.array_equal(weights, want_w)

    def test_kept_on_the_graph(self):
        g = build_circulant(CirculantSpec.of(12, [1, 5]))
        first = distance_counts(g)
        assert distance_counts(g) is first
        assert not first[0].flags.writeable and not first[1].flags.writeable
        assert distance_counts(complement_graph(complement_graph(g)))[0] is not first[0]

    def test_single_vertex(self):
        counts, weights = distance_counts(GenericGraph(np.zeros((1, 1), dtype=bool)))
        assert counts.tolist() == [[1]] and weights.tolist() == [[0]]

    def test_peak_memory_on_one_edge(self):
        # The first level is n x n. Its degree sums must not cast it to an
        # n x n int64 array (8 n^2 bytes on top of the float32 adjacency and
        # the boolean levels).
        n = 2000
        adj = np.zeros((n, n), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        g = GenericGraph(adj)
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraphError):
                distance_counts(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * n


class TestMetricsSummary:
    def test_complement_of_half_jump(self):
        s = metrics_summary(_complement_graph_of(8, [1, 4]))
        assert (s.transmission, s.degree, s.diameter) == (10, 4, 2)
        assert s.reciprocal_transmission == Fraction(11, 2)

    def test_complement_of_multiplicative_eight(self):
        s = metrics_summary(_complement_graph_of(8, [1, 2, 4]))
        assert (s.transmission, s.degree) == (16, 2)
        assert s.reciprocal_transmission == Fraction(47, 12)

    def test_complete_graph(self):
        s = metrics_summary(build_circulant(CirculantSpec.of(4, [1, 2])))
        assert (s.transmission, s.diameter) == (3, 1)
        assert s.reciprocal_transmission == 3

    def test_generic_irregular_graph(self, fig1_text):
        from circan import parse_graph_fixture

        s = metrics_summary(parse_graph_fixture(fig1_text))
        assert s.degree is None
        assert not s.transmission_regular
        assert s.diameter == 2

    def test_transmission_regularity_of_circulants(self):
        for n, jumps in [(9, [1, 3]), (16, [1, 3]), (21, [2, 5])]:
            spec = CirculantSpec.of(n, jumps)
            for g in (build_circulant(spec), build_circulant(complement_spec(spec))):
                dist = all_pairs_distances(g)
                sig = dist.sum(axis=1)
                assert (sig == sig[0]).all()


def _own_values(g):
    """Each vertex's (degree, transmission, reciprocal transmission), by BFS."""
    values = []
    for v in range(g.n):
        d = bfs_distances(g, v)
        values.append((int((d == 1).sum()), int(d.sum()),
                       sum((Fraction(1, int(x)) for x in d if x), Fraction(0))))
    return values


def _common_or_none(values):
    return values[0] if len(set(values)) == 1 else None


@st.composite
def small_connected_graphs(draw):
    """A random tree on at most 12 vertices plus random chords."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(u, v), max(u, v)) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    return from_edges(n, sorted(edges))


_FIXED_GRAPHS = {
    "tr12": lambda: parse_graph_fixture((FIXTURES / "tr12.graph").read_text()),
    "fig1": lambda: parse_graph_fixture((FIXTURES / "fig1.graph").read_text()),
    "one": lambda: from_edges(1, []),
    "c12": lambda: build_circulant(CirculantSpec.of(12, [1, 5])),
    "c12-complement": lambda: _complement_graph_of(12, [1, 5]),
    "c15": lambda: build_circulant(CirculantSpec.of(15, [2, 3])),
}


class TestSummaryReadsEveryVertex:
    """A summary value is reported only when every vertex has it."""

    def test_tr12_reciprocals_differ(self):
        g = parse_graph_fixture((FIXTURES / "tr12.graph").read_text())
        own = _own_values(g)
        assert {t for _, t, _ in own} == {27}
        split = {v for v, (_, _, r) in enumerate(own) if r == Fraction(71, 12)}
        assert split == {0, 1, 4, 6, 8, 9}
        assert all(r == Fraction(35, 6) for v, (_, _, r) in enumerate(own) if v not in split)
        s = metrics_summary(g)
        assert (s.degree, s.transmission, s.transmission_regular) == (3, 27, True)
        assert s.reciprocal_transmission is None

    @pytest.mark.parametrize("name", ["tr12", "fig1", "one", "c12", "c12-complement", "c15"])
    def test_fixed_graphs(self, name):
        self._check(_FIXED_GRAPHS[name]())

    @settings(max_examples=150, deadline=None)
    @given(small_connected_graphs())
    def test_random_graphs(self, g):
        self._check(g)

    @staticmethod
    def _check(g):
        degrees, sigmas, reciprocals = zip(*_own_values(g))
        transmission = _common_or_none(sigmas)
        want = (_common_or_none(degrees), transmission,
                None if transmission is None else _common_or_none(reciprocals),
                transmission is not None)
        s = metrics_summary(g)
        assert (s.degree, s.transmission, s.reciprocal_transmission,
                s.transmission_regular) == want


class TestDiameterAndConnectivity:
    def test_diameter_examples(self):
        for n, jumps, want in [(9, [1, 3], 2), (8, [1, 2, 4], 2), (4, [1, 2], 1)]:
            assert metrics_summary(build_circulant(CirculantSpec.of(n, jumps))).diameter == want

    def test_generic_diameter_matches_distance_vector(self):
        spec = CirculantSpec.of(20, [3, 5])
        assert metrics_summary(build_circulant(spec)).diameter == distance_vector(spec).diameter

    def test_connectivity_examples(self):
        for n, jumps in [(8, [1, 3]), (6, [1, 3])]:
            with pytest.raises(DisconnectedGraphError):
                metrics_summary(_complement_graph_of(n, jumps))
        metrics_summary(_complement_graph_of(8, [1, 4]))


def _star_prediction(g):
    """The complement distances the star property predicts: 2 between
    adjacent pairs, 1 between distinct non-adjacent pairs."""
    matrix = np.where(g.adj, 2, 1).astype(np.int64)
    np.fill_diagonal(matrix, 0)
    return matrix


class TestPropertyStar:
    def test_sixteen_vertex_double_loop(self):
        assert has_property_star(build_circulant(CirculantSpec.of(16, [1, 3])))

    def test_complete_graph(self):
        assert not has_property_star(build_circulant(CirculantSpec.of(4, [1, 2])))

    def test_multiplicative_eight(self):
        assert not has_property_star(build_circulant(CirculantSpec.of(8, [1, 2, 4])))

    def test_prediction_matches_bfs(self):
        g = build_circulant(CirculantSpec.of(26, [1, 2]))
        assert has_property_star(g)
        actual = all_pairs_distances(complement_graph(g))
        assert np.array_equal(_star_prediction(g), actual)
        # diameter 2 and Wiener index C(n, 2) + m
        assert int(np.triu(actual).sum()) == 26 * 25 // 2 + g.edge_count
        assert actual.max() == 2

    def test_wiener_identity(self):
        g = build_circulant(CirculantSpec.of(16, [1, 3]))
        assert has_property_star(g)
        assert 16 * 15 // 2 + g.edge_count == 152
        comp_dist = all_pairs_distances(complement_graph(g))
        assert int(np.triu(comp_dist).sum()) == 152

    def test_violation(self):
        # K4 lacks the property, and its complement is edgeless
        k4 = build_circulant(CirculantSpec.of(4, [1, 2]))
        assert not has_property_star(k4)
        with pytest.raises(DisconnectedGraphError):
            metrics_summary(complement_graph(k4))

    def test_diameter_four_implies_star(self):
        # sparse circulants with large diameter
        for n, jumps in [(16, [1]), (25, [1, 5]), (31, [1, 6]), (40, [1, 4])]:
            g = build_circulant(CirculantSpec.of(n, jumps))
            if metrics_summary(g).diameter >= 4:
                assert has_property_star(g), (n, jumps)


SRC = Path(metrics.__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module binds, reads, imports or defines."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def _imported_from_metrics(tree: ast.Module) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "metrics"
            for alias in node.names}


class TestOneRoutePerDistanceFact:
    """One code path per distance fact, checked on the package's source."""

    def test_bit_levels_live_in_metrics_and_one_loop_steps_them(self):
        trees = _trees()
        private = {"_next_level", "_bitset", "_mask"}
        for name, tree in trees.items():
            if name != "metrics.py":
                assert not private & _names(tree), name
        tree = trees["metrics.py"]
        loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
        callers = [loop for loop in loops if any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_next_level"
            for call in ast.walk(loop))]
        calls = [call for call in ast.walk(tree)
                 if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_next_level"]
        assert len(callers) == len(calls) == 1

    def test_no_private_import_between_metrics_and_routing(self):
        trees = _trees()
        assert not [n for n in _imported_from_metrics(trees["routing.py"]) if n.startswith("_")]
        assert not [alias.name for node in ast.walk(trees["metrics.py"])
                    if isinstance(node, ast.ImportFrom) for alias in node.names
                    if alias.name.startswith("_")]

    def test_one_function_forms_the_reciprocal_sums(self):
        trees = _trees()
        gone = {"reciprocal_weights", "reciprocal_sum", "_reciprocal_numerators",
                "reciprocal_numerators"}
        for name, tree in trees.items():
            assert not gone & _names(tree), name
        # L = lcm(1..D) is formed once, inside distance_sums, and so is every
        # sum(map(mul, ...)) over count rows but a DistanceVector's own
        # transmission, summed on first read
        assert _callers(trees, _calls_lcm) == {"metrics.distance_sums"}
        assert _callers(trees, _is_mul_sum) == {
            "metrics.distance_sums", "metrics.DistanceVector.transmission"}
        assert not [node for node in ast.walk(trees["indices.py"])
                    if isinstance(node, ast.ImportFrom) and node.module == "operator"]

    def test_one_sum_pass_per_report_and_none_on_construction(self):
        trees = _trees()
        indices = {"indices.py": trees["indices.py"]}
        assert _callers(indices, _calls_distance_sums) == {"indices._report"}
        assert sum(isinstance(call, ast.Call) and _calls_distance_sums(call)
                   for call in ast.walk(trees["indices.py"])) == 1
        post_init, = [func for func in ast.walk(trees["metrics.py"])
                      if isinstance(func, ast.FunctionDef) and func.name == "__post_init__"]
        assert not {"sum", "fsum", "distance_sums", "dot", "transmission",
                    "reciprocal_transmission"} & _names(post_init)
        assert not [node for node in ast.walk(post_init)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]

    def test_verifier_compares_values_by_two_rules(self):
        # Every == or != of the verifier sits in _exact_check, but for the
        # one elementwise comparison of a block's stacked computed vectors
        # with the predicted ones; every tolerance comparison sits in
        # _close_finite.
        tree = _trees()["verifier.py"]
        equalities = [node for node in ast.walk(tree)
                      if isinstance(node, ast.Compare) and _is_equality(node)]
        assert len(equalities) == 2
        assert _callers({"verifier.py": tree}, _is_equality, ast.Compare) == {
            "verifier._exact_check", "verifier._brute_force"}
        stacked, = [node for node in equalities if getattr(node.left, "id", None) == "computed"]
        assert _callers({"verifier.py": tree}, lambda node: node is stacked, ast.Compare) == {
            "verifier._brute_force"}
        assert _callers({"verifier.py": tree}, _calls_isclose) == {"verifier._close_finite"}

    def test_summary_reads_degrees_from_the_counts(self):
        summary, = [func for func in ast.walk(_trees()["metrics.py"])
                    if isinstance(func, ast.FunctionDef) and func.name == "metrics_summary"]
        assert "degrees" not in _names(summary)


def _calls_lcm(call: ast.Call) -> bool:
    return getattr(call.func, "attr", None) == "lcm"


def _calls_isclose(call: ast.Call) -> bool:
    return getattr(call.func, "attr", None) == "isclose"


def _calls_distance_sums(call: ast.Call) -> bool:
    return getattr(call.func, "id", None) == "distance_sums"


def _is_equality(node: ast.Compare) -> bool:
    return any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)


def _is_mul_sum(call: ast.Call) -> bool:
    """``sum(map(mul, ...))``, the form of a Python-int distance sum."""
    inner = call.args[0] if getattr(call.func, "id", None) == "sum" and call.args else None
    return (isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "map"
            and bool(inner.args) and getattr(inner.args[0], "id", None) == "mul")


def _callers(trees: dict[str, ast.Module], match, kind: type = ast.Call) -> set[str]:
    """``module.[Class.]function`` of every function in ``trees`` holding a
    node of ``kind`` (a call by default) that ``match`` accepts."""
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(inner, kind) and match(inner) for inner in ast.walk(child)):
                    found.add(name)
                visit(child, name)
            else:
                visit(child, prefix)

    for module, tree in trees.items():
        visit(tree, module.removesuffix(".py"))
    return found
