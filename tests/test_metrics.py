import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    DistanceVector,
    all_pairs_distances,
    bfs_distances,
    build_circulant,
    complement_graph,
    complement_spec,
    distance_vector,
    metrics_summary,
)
from circan import metrics
from circan.errors import (
    DisconnectedGraphError,
    EmptyComplementError,
    EmptyJumpSetError,
)

from conftest import distance_matrix, has_property_star


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
        with pytest.raises(ValueError):
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
    if spec.degree <= 2:
        return "orbit"
    return "pull" if spec.n - 1 - spec.degree < spec.degree else "push"


def _kernel_id(spec):
    """A short id: order, degree and, for a disconnected spec, the gcd of
    the order and the jumps."""
    g = math.gcd(spec.n, *spec.jumps)
    return f"n{spec.n}-deg{spec.degree}" + (f"-g{g}" if g > 1 else "")


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
        assert metrics_summary(_complement_graph_of(8, [1, 4])).connected


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
