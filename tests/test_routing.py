import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    Routing,
    bfs_layering_fault,
    build_circulant,
    complement_spec,
    distance_vector,
    edge_forwarding_bounds,
    load_profile,
    parse_graph_fixture,
    parse_routing_fixture,
    vertex_forwarding_index,
)
from circan import metrics
from circan.metrics import DistanceVector
from circan.errors import (
    DisconnectedGraphError,
    EmptyJumpSetError,
    InvalidEdgeError,
    InvariantError,
    MissingPairError,
    NonElementaryPathError,
)

from conftest import rotation_parents, rotation_paths, routing_from_paths, routing_paths


@pytest.fixture(scope="module")
def fig1(fig1_text):
    return parse_graph_fixture(fig1_text)


class TestRoutingFixture:
    def test_minimal_routing_flags(self, fig1, r1_text):
        r1 = parse_routing_fixture(r1_text, fig1)
        assert r1.minimal
        assert r1.symmetric
        assert len(routing_paths(r1)) == 30

    def test_non_minimal_routing_flags(self, fig1, r2_text):
        r2 = parse_routing_fixture(r2_text, fig1)
        assert not r2.minimal
        assert not r2.symmetric

    def test_r1_loads(self, fig1, r1_text):
        # Recounted independently from the path list: the inner-vertex
        # occurrences per vertex are (2, 4, 4, 0, 2, 2), summing to 14 =
        # total path length minus path count.
        profile = load_profile(parse_routing_fixture(r1_text, fig1))
        assert profile.vertex_loads.tolist() == [2, 4, 4, 0, 2, 2]
        assert profile.max_vertex_load == 4

    def test_r2_loads(self, fig1, r2_text):
        profile = load_profile(parse_routing_fixture(r2_text, fig1))
        assert profile.vertex_loads.tolist() == [5, 4, 9, 3, 1, 4]
        assert profile.max_vertex_load == 9

    def test_load_conservation(self, fig1, r1_text, r2_text):
        for text in (r1_text, r2_text):
            routing = parse_routing_fixture(text, fig1)
            profile = load_profile(routing)
            inner_total = sum(len(p) - 2 for p in routing_paths(routing).values())
            assert int(profile.vertex_loads.sum()) == inner_total

    def test_edge_loads_cover_edges(self, fig1, r1_text):
        profile = load_profile(parse_routing_fixture(r1_text, fig1))
        assert sum(profile.edge_loads.values()) == sum(
            len(p) - 1 for p in routing_paths(parse_routing_fixture(r1_text, fig1)).values()
        )

    def test_triangle_identity_routing(self):
        k3 = build_circulant(CirculantSpec.of(3, [1]))
        paths = [(x, y) for x in range(3) for y in range(3) if x != y]
        routing = routing_from_paths(k3, paths)
        assert routing.minimal and routing.symmetric
        assert load_profile(routing).max_vertex_load == 0

    def test_missing_pair(self, fig1, r1_text):
        lines = [l for l in r1_text.splitlines() if l.strip() and not l.startswith("#")]
        with pytest.raises(MissingPairError):
            parse_routing_fixture("\n".join(lines[:-1]), fig1)

    def test_duplicate_pair(self, fig1, r1_text):
        lines = [l for l in r1_text.splitlines() if l.strip() and not l.startswith("#")]
        with pytest.raises(MissingPairError):
            parse_routing_fixture("\n".join(lines + ["1 3 6 5"]), fig1)

    def test_invalid_edge(self, fig1):
        with pytest.raises(InvalidEdgeError):
            routing_from_paths(fig1, [(0, 5)])  # vertices 1 and 6 are not adjacent

    def test_non_elementary(self, fig1):
        with pytest.raises(NonElementaryPathError):
            routing_from_paths(fig1, [(0, 1, 0)])


def rotation(spec: CirculantSpec) -> tuple[Routing, DistanceVector]:
    """The rotation routing of ``spec``'s BFS tree, laid out and validated
    as an explicit routing, with the distance vector it was built from."""
    dv = distance_vector(spec)
    paths = rotation_paths(rotation_parents(spec, dv))
    return routing_from_paths(build_circulant(spec), paths), dv


class TestRotationRouting:
    """The witness certifies the BFS layering; these tests lay out the
    rotation routing it stands for and re-check it as an explicit routing."""

    def test_uniform_loads_on_half_jump_complement(self):
        comp = complement_spec(CirculantSpec.of(8, [1, 4]))
        routing, dv = rotation(comp)
        assert bfs_layering_fault(comp, dv) is None
        assert load_profile(routing).vertex_loads.tolist() == [3] * 8

    def test_complete_graph_loads(self):
        routing, dv = rotation(CirculantSpec.of(4, [1, 2]))
        assert bfs_layering_fault(CirculantSpec.of(4, [1, 2]), dv) is None
        assert load_profile(routing).vertex_loads.tolist() == [0, 0, 0, 0]

    def test_multiplicative_eight_complement(self):
        routing, _ = rotation(complement_spec(CirculantSpec.of(8, [1, 2, 4])))
        assert load_profile(routing).vertex_loads.tolist() == [9] * 8

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            rotation(CirculantSpec.of(8, [2, 4]))

    def test_explicit_materialization_agrees(self):
        for spec in [
            complement_spec(CirculantSpec.of(12, [1, 6])),
            CirculantSpec.of(9, [1, 3]),
            CirculantSpec.of(16, [1]),
            CirculantSpec.of(16, [1, 8]),  # the n/2 orbit has only n/2 edges
            # complements from the paper's families: multiplicative, double loop
            complement_spec(CirculantSpec.of(27, [1, 3, 9])),
            complement_spec(CirculantSpec.of(32, [1, 2, 4, 8, 16])),
            complement_spec(CirculantSpec.of(13, [1, 5])),
        ]:
            explicit, dv = rotation(spec)
            assert bfs_layering_fault(spec, dv) is None
            assert explicit.minimal  # every rotated path is shortest
            profile = load_profile(explicit)
            # the load the witness reports on success, on every vertex
            assert profile.vertex_loads.tolist() == [vertex_forwarding_index(dv)] * spec.n
            # rotation spreads each offset orbit's load evenly over its edges
            n = spec.n
            orbit_loads = {}
            for (u, v), load in profile.edge_loads.items():
                orbit_loads.setdefault(min((v - u) % n, (u - v) % n), set()).add(load)
            assert all(len(loads) == 1 for loads in orbit_loads.values()), orbit_loads

    def test_minimal_certifies_the_tree(self):
        spec = complement_spec(CirculantSpec.of(12, [1, 6]))  # C12(2,3,4,5)
        dv = distance_vector(spec)
        parent = rotation_parents(spec, dv)
        assert parent[1] == 3
        g = build_circulant(spec)
        # 6 -> 1 is an edge one level too far: valid paths, not all shortest
        bad = parent.copy()
        bad[1] = 6
        assert routing_from_paths(g, rotation_paths(parent)).minimal
        assert not routing_from_paths(g, rotation_paths(bad)).minimal
        # 2 -> 1 is no edge
        bad[1] = 2
        with pytest.raises(InvalidEdgeError):
            routing_from_paths(g, rotation_paths(bad))
        # 1 -> 1 never reaches 0
        bad[1] = 1
        with pytest.raises(ValueError):
            rotation_paths(bad)

    def test_vector_without_closer_neighbour_is_not_minimal(self):
        # C_10(1): vertex 3 sits at 4 with neighbours at 2 and 4, none at 3,
        # so no tree reaches it, and the edge 2-3 skips level 3
        spec = CirculantSpec.of(10, [1])
        dv = DistanceVector(10, np.array([0, 1, 2, 4, 4, 5, 4, 4, 2, 1]))
        assert bfs_layering_fault(spec, dv) == "(c) vertex 3 at d=4 has a neighbour at d=2"
        parent = rotation_parents(spec, dv)
        assert parent.tolist() == [0, 0, 1, 3, 4, 4, 6, 7, 9, 0]
        with pytest.raises(ValueError):
            rotation_paths(parent)

    def test_symmetric_flag_is_computed(self):
        # identity-path routing on a complete graph is symmetric
        assert rotation(CirculantSpec.of(5, [1, 2]))[0].symmetric

    @given(st.sampled_from([(10, (1,)), (12, (1, 5)), (13, (2, 3)), (16, (1, 3)),
                            (21, (1, 2, 3)), (24, (5, 7))]))
    @settings(max_examples=12, deadline=None)
    def test_uniform_load_property(self, params):
        n, jumps = params
        spec = CirculantSpec.of(n, jumps)
        routing, dv = rotation(spec)
        assert bfs_layering_fault(spec, dv) is None
        loads = load_profile(routing).vertex_loads
        expected = dv.transmission - (n - 1)
        assert loads.min() == loads.max() == expected

    def test_load_conservation_against_paths(self):
        spec = complement_spec(CirculantSpec.of(14, [1, 7]))
        paths = rotation_paths(rotation_parents(spec, distance_vector(spec)))
        total = sum(len(p) - 2 for p in paths)
        routing, _ = rotation(spec)
        assert int(load_profile(routing).vertex_loads.sum()) == total


@st.composite
def connected_specs(draw) -> CirculantSpec:
    """A connected circulant of order 3..400 with one to six jumps."""
    n = draw(st.integers(3, 400))
    jumps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=6, unique=True))
    assume(math.gcd(n, *jumps) == 1)
    return CirculantSpec.of(n, jumps)


def _claimed_frontier_fault(spec: CirculantSpec, dv: DistanceVector) -> str | None:
    """The claimed-frontier certificate on boolean arrays: each level is
    found from the claimed layer before it (rolled through every offset),
    and the last level is every vertex left. The reference for
    ``bfs_layering_fault``, which steps the BFS's own levels instead."""
    n, d, row = spec.n, dv.d, spec.connection_row
    wrong = np.flatnonzero((d == 1) != row)
    if wrong.size:
        v = int(wrong[0])
        if row[v]:
            return f"(a) vertex {v} is adjacent to 0 at d={d[v]}"
        return f"(a) vertex {v} at d=1 is not adjacent to 0"
    frontier = row
    unreached = ~row
    unreached[0] = False
    for level in range(2, dv.diameter + 1):
        layer = unreached if level == dv.diameter else d == level
        near = np.zeros(n, dtype=bool)
        for off in spec.offsets():
            near |= np.roll(frontier, off)
        reached = near & unreached
        missing = np.flatnonzero(layer & ~reached)
        if missing.size:
            return f"(b) vertex {missing[0]} at d={level} has no neighbour at d={level - 1}"
        skip = np.flatnonzero(reached != layer)
        if skip.size:
            v = int(skip[0])
            return f"(c) vertex {v} at d={d[v]} has a neighbour at d={level - 1}"
        unreached = unreached & ~layer
        frontier = layer
    return None


@st.composite
def claimed_layerings(draw, n=None) -> tuple[CirculantSpec, DistanceVector]:
    """A circulant of order ``n`` (drawn from 4..300 when None) with one to
    five jumps, and its BFS vector with zero to two palindromic changes. When
    it is disconnected, the vertices the BFS misses sit one or two levels
    past the others."""
    n = draw(st.integers(4, 300)) if n is None else n
    jumps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=5, unique=True))
    spec = CirculantSpec.of(n, jumps)
    d = metrics.distance_stack([spec])[0].copy()
    top = int(d.max()) + 2
    d[d < 0] = draw(st.integers(top - 1, top))
    top = min(n - 1, top)
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.integers(1, n // 2))
        d[[v, n - v]] = draw(st.integers(1, top))
    return spec, DistanceVector(n, d)


class TestBfsCertificate:
    C12 = CirculantSpec.of(12, [1, 2])

    @given(claimed_layerings())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_claimed_frontier_oracle(self, case):
        spec, dv = case
        assert bfs_layering_fault(spec, dv) == _claimed_frontier_fault(spec, dv)

    @given(st.integers(4, 120).flatmap(
        lambda n: st.lists(claimed_layerings(n), min_size=1, max_size=4)))
    @settings(max_examples=150, deadline=None)
    def test_a_stacked_pass_equals_each_row_alone(self, cases):
        # rows of one order, each with its own spec, certified in one pass
        specs = [spec for spec, _ in cases]
        stack = np.array([dv.d for _, dv in cases])
        counts = metrics.stack_counts(specs[0].n, stack)
        faults = metrics.layering_faults(specs, stack, counts)
        assert faults == [bfs_layering_fault(spec, dv) for spec, dv in cases]
        assert faults == [_claimed_frontier_fault(spec, dv) for spec, dv in cases]

    def fault(self, d: list[int]) -> str | None:
        return bfs_layering_fault(self.C12, DistanceVector(12, np.array(d)))

    def test_overestimate_fails(self):
        # a walk of length d(v) exists to every vertex, but the edge 2-4
        # skips a level; the true vector is [0,1,1,2,2,3,3,3,2,2,1,1]
        assert distance_vector(self.C12).d.tolist() == [0, 1, 1, 2, 2, 3, 3, 3, 2, 2, 1, 1]
        assert self.fault([0, 1, 1, 2, 2, 3, 3, 3, 2, 2, 1, 1]) is None
        assert self.fault([0, 1, 1, 2, 3, 3, 4, 3, 3, 2, 1, 1]) == (
            "(c) vertex 4 at d=3 has a neighbour at d=1")

    def test_each_condition_is_named(self):
        assert self.fault([0, 1, 1, 1, 2, 3, 3, 3, 2, 1, 1, 1]) == (
            "(a) vertex 3 at d=1 is not adjacent to 0")
        assert self.fault([0, 2, 1, 2, 2, 3, 3, 3, 2, 2, 1, 2]) == (
            "(a) vertex 1 is adjacent to 0 at d=2")
        # an underestimate: vertex 6 is at distance 3
        assert self.fault([0, 1, 1, 2, 2, 3, 2, 3, 2, 2, 1, 1]) == (
            "(b) vertex 6 at d=2 has no neighbour at d=1")

    def test_order_mismatch_is_an_invariant_error(self):
        with pytest.raises(InvariantError):
            bfs_layering_fault(CirculantSpec.of(13, [1, 2]), distance_vector(self.C12))

    @given(connected_specs())
    @settings(max_examples=60, deadline=None)
    def test_bfs_vector_certified_and_every_pair_change_rejected(self, spec):
        dv = distance_vector(spec)
        assert bfs_layering_fault(spec, dv) is None
        n = spec.n
        for v in range(1, n // 2 + 1):
            for delta in (-1, 1):
                d = dv.d.copy()
                d[[v, n - v]] += delta
                if d[v] < 1:
                    continue
                assert bfs_layering_fault(spec, DistanceVector(n, d)) is not None, (v, delta)


def xi(spec: CirculantSpec) -> int:
    return vertex_forwarding_index(distance_vector(spec))


def pi_bounds(spec: CirculantSpec) -> tuple[Fraction, int]:
    return edge_forwarding_bounds(distance_vector(spec))


class TestForwardingValues:
    def test_half_jump_family(self):
        assert xi(complement_spec(CirculantSpec.of(12, [1, 6]))) == 3

    def test_seven_vertex_family(self):
        assert xi(complement_spec(CirculantSpec.of(7, [1, 3]))) == 6

    def test_power_of_two_family(self):
        assert xi(complement_spec(CirculantSpec.of(16, [1, 2, 4, 8]))) == 7

    def test_edge_bounds_seven_vertex(self):
        assert pi_bounds(complement_spec(CirculantSpec.of(7, [1, 2]))) == (Fraction(12), 16)

    def test_edge_bounds_multiplicative_eight(self):
        assert pi_bounds(complement_spec(CirculantSpec.of(8, [1, 2, 4]))) == (Fraction(16), 21)

    def test_edge_bounds_half_jump_twelve(self):
        assert pi_bounds(complement_spec(CirculantSpec.of(12, [1, 6]))) == (Fraction(28, 8), 11)

    def test_max_edge_load_respects_lower_bound(self):
        # the average-based lower bound cannot exceed any routing's max
        for n, jumps in [(12, (1, 6)), (16, (1, 3)), (11, (1, 2)), (20, (3, 4))]:
            spec = CirculantSpec.of(n, jumps)
            try:
                comp = complement_spec(spec)
                dv = distance_vector(comp)
            except (EmptyJumpSetError, DisconnectedGraphError):
                continue
            lower, _upper = edge_forwarding_bounds(dv)
            paths = rotation_paths(rotation_parents(comp, dv))
            profile = load_profile(routing_from_paths(build_circulant(comp), paths))
            assert profile.max_edge_load >= lower
