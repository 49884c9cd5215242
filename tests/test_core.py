import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    build_circulant,
    complement_graph,
    complement_spec,
    normalize_jumps,
    parse_graph_fixture,
)
from circan.errors import (
    DuplicateEdgeError,
    EmptyComplementError,
    EmptyJumpSetError,
    FixtureParseError,
    VertexRangeError,
)

from conftest import from_edges


class TestNormalizeJumps:
    def test_already_normalized(self):
        assert normalize_jumps(16, {1, 3}) == (1, 3)

    def test_folds_negatives(self):
        # 13 = -3 mod 16
        assert normalize_jumps(16, {13, 1}) == (1, 3)

    def test_reduces_and_drops_zero(self):
        assert normalize_jumps(8, {4, 12, 0}) == (4,)

    def test_empty_after_reduction(self):
        with pytest.raises(EmptyJumpSetError):
            normalize_jumps(8, {0, 8, 16})

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            normalize_jumps(1, {1})

    @given(
        n=st.integers(2, 200),
        raw=st.lists(st.integers(-500, 500), min_size=1, max_size=8),
    )
    def test_idempotent(self, n, raw):
        try:
            once = normalize_jumps(n, raw)
        except EmptyJumpSetError:
            return
        assert normalize_jumps(n, once) == once

    def test_spec_constructor_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            CirculantSpec(8, (1, 7))

    @pytest.mark.parametrize(
        "n, jumps",
        [(8, (2, 1)), (8, (1, 1)), (8, (0, 1)), (8, (1, 5)), (9, (-1,)),
         (16116, (*range(1, 8058), 8059))],
    )
    def test_spec_constructor_rejects_each_unnormalized_form(self, n, jumps):
        # complement_spec skips this check for its own jumps; every other
        # constructor call keeps it
        with pytest.raises(ValueError):
            CirculantSpec(n, jumps)


class TestBuildCirculant:
    def test_half_jump_degree(self):
        g = build_circulant(CirculantSpec.of(8, [1, 4]))
        assert g.n == 8
        assert (g.degrees() == 3).all()

    def test_plain_degree(self):
        g = build_circulant(CirculantSpec.of(16, [1, 3]))
        assert (g.degrees() == 4).all()

    def test_complete_graph(self):
        g = build_circulant(CirculantSpec.of(4, [1, 2]))
        assert g.edge_count == 6
        assert (g.degrees() == 3).all()

    @given(
        n=st.integers(2, 512),
        jumps=st.lists(st.integers(1, 600), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_degree_law(self, n, jumps):
        # degree is 2k - 1 when n/2 is a jump, else 2k
        try:
            spec = CirculantSpec.of(n, jumps)
        except EmptyJumpSetError:
            return
        g = build_circulant(spec)
        k = len(spec.jumps)
        expected = 2 * k - 1 if (n % 2 == 0 and n // 2 in spec.jumps) else 2 * k
        assert (g.degrees() == expected).all()

    @given(
        n=st.integers(3, 128),
        jumps=st.lists(st.integers(1, 200), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_rotation_invariance(self, n, jumps):
        try:
            spec = CirculantSpec.of(n, jumps)
        except EmptyJumpSetError:
            return
        adj = build_circulant(spec).adj
        rotated = np.roll(np.roll(adj, 1, axis=0), 1, axis=1)
        assert np.array_equal(adj, rotated)


class TestComplement:
    def test_half_jump(self):
        assert complement_spec(CirculantSpec.of(8, [1, 4])).jumps == (2, 3)

    def test_even_jumps(self):
        assert complement_spec(CirculantSpec.of(8, [1, 3])).jumps == (2, 4)

    def test_complete_graph_raises(self):
        with pytest.raises(EmptyComplementError):
            complement_spec(CirculantSpec.of(4, [1, 2]))

    @given(
        n=st.integers(4, 300),
        jumps=st.lists(st.integers(1, 400), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_involution(self, n, jumps):
        try:
            spec = CirculantSpec.of(n, jumps)
            comp = complement_spec(spec)
        except (EmptyJumpSetError, EmptyComplementError):
            return
        assert complement_spec(comp) == spec

    def test_graph_complement_of_complete(self):
        k4 = build_circulant(CirculantSpec.of(4, [1, 2]))
        assert complement_graph(k4).edge_count == 0

    def test_graph_complement_of_edgeless(self):
        empty = from_edges(3, [])
        assert complement_graph(empty).edge_count == 3

    def test_graph_complement_matches_spec_complement(self):
        spec = CirculantSpec.of(8, [1, 4])
        via_graph = complement_graph(build_circulant(spec))
        via_spec = build_circulant(complement_spec(spec))
        assert np.array_equal(via_graph.adj, via_spec.adj)


def _complement_by_set_difference(spec):
    """The definition: {1..n//2} minus the jump set."""
    rest = set(range(1, spec.n // 2 + 1)) - set(spec.jumps)
    if not rest:
        raise EmptyComplementError(str(spec))
    return CirculantSpec(spec.n, tuple(sorted(rest)))


class TestSpecCache:
    @staticmethod
    def _jump_masks(half, rng):
        """Every jump set for half <= 12, else a seeded sample plus the
        singletons and the full set, as bit masks over 1..half."""
        full = (1 << half) - 1
        if half <= 12:
            return range(1, full + 1)
        return sorted({full, *(1 << i for i in range(half)),
                       *(int(m) for m in rng.integers(1, full, size=300))})

    def test_row_flip_complement_matches_set_difference(self):
        rng = np.random.default_rng(40)
        for n in range(2, 41):
            half = n // 2
            for mask in self._jump_masks(half, rng):
                spec = CirculantSpec(n, tuple(j for j in range(1, half + 1) if mask >> (j - 1) & 1))
                try:
                    want = _complement_by_set_difference(spec)
                except EmptyComplementError:
                    with pytest.raises(EmptyComplementError):
                        complement_spec(spec)
                    continue
                got = complement_spec(spec)
                assert got == want, spec
                # The complement's cached row is the flip, equal to a fresh build.
                assert np.array_equal(got.connection_row,
                                      CirculantSpec(n, want.jumps).connection_row)
                assert not got.connection_row.flags.writeable

    @given(
        n=st.integers(2, 300),
        jumps=st.lists(st.integers(1, 400), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_offsets_computed_once(self, n, jumps):
        try:
            spec = CirculantSpec.of(n, jumps)
        except EmptyJumpSetError:
            return
        offsets = spec.offsets()
        assert spec.offsets() is offsets
        assert spec.degree == len(offsets)
        assert offsets == tuple(sorted({j for j in spec.jumps} | {n - j for j in spec.jumps}))
        assert np.flatnonzero(spec.connection_row).tolist() == list(offsets)

    def test_filled_cache_keeps_identity(self):
        filled = CirculantSpec.of(1000, [1, 7, 500])
        filled.offsets(), filled.connection_row, filled.degree
        comp = complement_spec(filled)
        fresh = CirculantSpec.of(1000, [1, 7, 500])
        assert filled == fresh and hash(filled) == hash(fresh)
        assert str(filled) == str(fresh) == "C1000(1,7,500)"
        assert repr(filled) == repr(fresh)
        assert {fresh: "x"}[filled] == "x"
        for spec in (filled, comp):
            blob = pickle.dumps(spec)
            # Only the identity is pickled, not the cached rows.
            assert blob == pickle.dumps(CirculantSpec(spec.n, spec.jumps))
            back = pickle.loads(blob)
            assert back == spec and hash(back) == hash(spec) and str(back) == str(spec)
            assert back.offsets() == spec.offsets()
            assert not back.connection_row.flags.writeable


class TestGraphFixture:
    def test_worked_example(self, fig1_text):
        g = parse_graph_fixture(fig1_text)
        assert g.n == 6
        assert g.edge_count == 8
        assert g.index_base == 1
        assert sorted(g.degrees().tolist(), reverse=True) == [3, 3, 3, 3, 2, 2]
        # 1-indexed edge (1, 2) lands on vertices 0 and 1
        assert g.adj[0, 1]

    def test_single_edge(self):
        g = parse_graph_fixture("2\n0 1\n")
        assert g.n == 2 and g.edge_count == 1 and g.index_base == 0

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_graph_fixture("3\n0 1\n0 1\n")

    def test_reversed_duplicate(self):
        with pytest.raises(DuplicateEdgeError):
            parse_graph_fixture("3\n0 1\n1 0\n")

    def test_range_error(self):
        with pytest.raises(VertexRangeError):
            parse_graph_fixture("3\n0 3\n")

    def test_malformed_line(self):
        with pytest.raises(FixtureParseError):
            parse_graph_fixture("3\n0 1 2\n")

    def test_self_loop(self):
        with pytest.raises(FixtureParseError):
            parse_graph_fixture("3\n1 1\n")

    def test_missing_header(self):
        with pytest.raises(FixtureParseError):
            parse_graph_fixture("# only a comment\n")

    def test_crlf_and_comments(self):
        g = parse_graph_fixture("# c\r\n3\r\n\r\n0 1\r\n# mid\r\n1 2\r\n")
        assert g.edge_count == 2

    def test_one_indexed_range(self):
        with pytest.raises(VertexRangeError):
            parse_graph_fixture("3 one-indexed\n0 1\n")
