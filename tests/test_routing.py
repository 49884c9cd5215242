from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    RotationRouting,
    Routing,
    build_circulant,
    build_rotation_routing,
    complement_spec,
    distance_vector,
    edge_forwarding_bounds,
    load_profile,
    parse_graph_fixture,
    parse_routing_fixture,
    vertex_forwarding_index,
)
from circan.metrics import DistanceVector
from circan.errors import (
    DisconnectedGraphError,
    EmptyJumpSetError,
    InvalidEdgeError,
    MissingPairError,
    NonElementaryPathError,
)


@pytest.fixture(scope="module")
def fig1(fig1_text):
    return parse_graph_fixture(fig1_text)


class TestRoutingFixture:
    def test_minimal_routing_flags(self, fig1, r1_text):
        r1 = parse_routing_fixture(r1_text, fig1)
        assert r1.minimal
        assert r1.symmetric
        assert len(r1.paths) == 30

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
            inner_total = sum(len(p) - 2 for p in routing.paths.values())
            assert int(profile.vertex_loads.sum()) == inner_total

    def test_edge_loads_cover_edges(self, fig1, r1_text):
        profile = load_profile(parse_routing_fixture(r1_text, fig1))
        assert sum(profile.edge_loads.values()) == sum(
            len(p) - 1 for p in parse_routing_fixture(r1_text, fig1).paths.values()
        )

    def test_triangle_identity_routing(self):
        k3 = build_circulant(CirculantSpec.of(3, [1]))
        paths = [(x, y) for x in range(3) for y in range(3) if x != y]
        routing = Routing.from_paths(k3, paths)
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
            Routing.from_paths(fig1, [(0, 5)])  # vertices 1 and 6 are not adjacent

    def test_non_elementary(self, fig1):
        with pytest.raises(NonElementaryPathError):
            Routing.from_paths(fig1, [(0, 1, 0)])


class TestRotationRouting:
    def test_uniform_loads_on_half_jump_complement(self):
        comp = complement_spec(CirculantSpec.of(8, [1, 4]))
        loads = build_rotation_routing(comp).vertex_loads()
        assert loads.tolist() == [3] * 8

    def test_complete_graph_loads(self):
        loads = build_rotation_routing(CirculantSpec.of(4, [1, 2])).vertex_loads()
        assert loads.tolist() == [0, 0, 0, 0]

    def test_multiplicative_eight_complement(self):
        comp = complement_spec(CirculantSpec.of(8, [1, 2, 4]))
        loads = build_rotation_routing(comp).vertex_loads()
        assert loads.tolist() == [9] * 8

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            build_rotation_routing(CirculantSpec.of(8, [2, 4]))

    def test_explicit_materialization_agrees(self):
        for spec in [
            complement_spec(CirculantSpec.of(12, [1, 6])),
            CirculantSpec.of(9, [1, 3]),
            CirculantSpec.of(16, [1]),
            CirculantSpec.of(16, [1, 8]),  # the n/2 orbit has only n/2 edges
        ]:
            rotation = build_rotation_routing(spec)
            explicit = rotation.to_explicit()
            assert explicit.minimal  # every rotated path is a shortest path
            profile = load_profile(explicit)
            assert profile.vertex_loads.tolist() == rotation.vertex_loads().tolist()
            rotation_profile = load_profile(rotation)
            assert profile.edge_loads == rotation_profile.edge_loads

    def test_minimal_certifies_the_tree(self):
        spec = complement_spec(CirculantSpec.of(12, [1, 6]))  # C12(2,3,4,5)
        good = build_rotation_routing(spec)
        assert good.minimal and good.parent[1] == 3
        # 2 -> 1 is no edge; 6 -> 1 is an edge one level too far; 1 -> 1 never reaches 0
        for bad_parent in (2, 6, 1):
            parent = good.parent.copy()
            parent[1] = bad_parent
            assert not RotationRouting(spec, parent, good.dv).minimal, bad_parent

    def test_vector_without_closer_neighbour_is_not_minimal(self):
        # C_10(1): vertex 3 sits at 4 with neighbours at 2 and 4, none at 3,
        # so the tree cannot reach it (this raised a bare IndexError)
        spec = CirculantSpec.of(10, [1])
        dv = DistanceVector(10, np.array([0, 1, 2, 4, 4, 5, 4, 4, 2, 1]))
        routing = build_rotation_routing(spec, dv)
        assert not routing.minimal
        assert routing.depth.tolist() == [0, 1, 2, -1, -1, -1, -1, -1, 2, 1]
        # the four base paths that reach 0 (to 1, 2, 8, 9) cross 2 inner vertices
        assert routing.vertex_loads().tolist() == [2] * 10
        profile = load_profile(routing)
        assert all(u != v for u, v in profile.edge_loads)
        with pytest.raises(ValueError, match="no tree path"):
            routing.path(0, 3)

    def test_symmetric_flag_is_computed(self):
        # identity-path routing on a complete graph is symmetric
        assert build_rotation_routing(CirculantSpec.of(5, [1, 2])).symmetric

    @given(st.sampled_from([(10, (1,)), (12, (1, 5)), (13, (2, 3)), (16, (1, 3)),
                            (21, (1, 2, 3)), (24, (5, 7))]))
    @settings(max_examples=12, deadline=None)
    def test_uniform_load_property(self, params):
        n, jumps = params
        spec = CirculantSpec.of(n, jumps)
        dv = distance_vector(spec)
        loads = build_rotation_routing(spec).vertex_loads()
        expected = dv.transmission - (n - 1)
        assert loads.min() == loads.max() == expected

    def test_load_conservation_against_paths(self):
        spec = complement_spec(CirculantSpec.of(14, [1, 7]))
        rotation = build_rotation_routing(spec)
        total = sum(len(p) - 2 for p in rotation.paths())
        assert int(rotation.vertex_loads().sum()) == total


class TestForwardingValues:
    def test_half_jump_family(self):
        assert vertex_forwarding_index(complement_spec(CirculantSpec.of(12, [1, 6]))) == 3

    def test_seven_vertex_family(self):
        assert vertex_forwarding_index(complement_spec(CirculantSpec.of(7, [1, 3]))) == 6

    def test_power_of_two_family(self):
        comp = complement_spec(CirculantSpec.of(16, [1, 2, 4, 8]))
        assert vertex_forwarding_index(comp) == 7

    def test_edge_bounds_seven_vertex(self):
        comp = complement_spec(CirculantSpec.of(7, [1, 2]))
        assert edge_forwarding_bounds(comp) == (Fraction(12), 16)

    def test_edge_bounds_multiplicative_eight(self):
        comp = complement_spec(CirculantSpec.of(8, [1, 2, 4]))
        assert edge_forwarding_bounds(comp) == (Fraction(16), 21)

    def test_edge_bounds_half_jump_twelve(self):
        comp = complement_spec(CirculantSpec.of(12, [1, 6]))
        assert edge_forwarding_bounds(comp) == (Fraction(28, 8), 11)

    def test_max_edge_load_respects_lower_bound(self):
        # the average-based lower bound cannot exceed any routing's max
        for n, jumps in [(12, (1, 6)), (16, (1, 3)), (11, (1, 2)), (20, (3, 4))]:
            spec = CirculantSpec.of(n, jumps)
            try:
                comp = complement_spec(spec)
                dv = distance_vector(comp)
            except (EmptyJumpSetError, DisconnectedGraphError):
                continue
            lower, _upper = edge_forwarding_bounds(comp, dv)
            profile = load_profile(build_rotation_routing(comp))
            assert profile.max_edge_load >= lower
