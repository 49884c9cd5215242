import ast
import dataclasses
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    build_circulant,
    complement_graph,
    complement_spec,
    parse_graph_fixture,
)
from circan import core
from circan.errors import (
    DuplicateEdgeError,
    EmptyComplementError,
    EmptyJumpSetError,
    FixtureParseError,
    InputError,
    VertexRangeError,
)

from conftest import from_edges


class TestNormalizeJumps:
    def test_already_normalized(self):
        assert CirculantSpec.of(16, {1, 3}).jumps == (1, 3)

    def test_folds_negatives(self):
        # 13 = -3 mod 16
        assert CirculantSpec.of(16, {13, 1}).jumps == (1, 3)

    def test_reduces_and_drops_zero(self):
        assert CirculantSpec.of(8, {4, 12, 0}).jumps == (4,)

    def test_empty_after_reduction(self):
        with pytest.raises(EmptyJumpSetError):
            CirculantSpec.of(8, {0, 8, 16})

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            CirculantSpec.of(1, {1})

    @given(
        n=st.integers(2, 200),
        raw=st.lists(st.integers(-500, 500), min_size=1, max_size=8),
    )
    def test_idempotent(self, n, raw):
        try:
            once = CirculantSpec.of(n, raw)
        except EmptyJumpSetError:
            return
        assert CirculantSpec.of(n, once.jumps) == once


def _symmetric_row(n, row):
    """The definition: bit v equals bit n - v for every v in 1..n-1."""
    return all((row >> v & 1) == (row >> (n - v) & 1) for v in range(1, n))


class TestRowConstructor:
    """``CirculantSpec(n, row)`` takes a connection row as it is and only
    validates it; ``CirculantSpec.of`` is the one normaliser."""

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 16116])
    def test_rejects_each_malformed_row(self, n):
        row = CirculantSpec.of(n, [1]).row  # bits 1 and n - 1
        assert CirculantSpec(n, row).row == row
        malformed = {"bit 0 set": row | 1, "asymmetric": row | 4, "too wide": row | 1 << n,
                     "negative": -row, "a float": 2.0, "a string": "6", "a jump tuple": (1,),
                     "a numpy int": np.int64(6)}
        for why, bad in malformed.items():
            with pytest.raises(InputError):
                CirculantSpec(n, bad)
                pytest.fail(why)

    def test_rejects_asymmetric_row_of_a_long_jump_list(self):
        row = CirculantSpec.of(16116, range(1, 8058)).row ^ 1 << 8059
        with pytest.raises(InputError):
            CirculantSpec(16116, row)

    def test_empty_row_is_an_empty_jump_set(self):
        with pytest.raises(EmptyJumpSetError):
            CirculantSpec(8, 0)

    def test_rejects_tiny_or_non_int_order(self):
        for n in (1, 0, -3, 8.0, np.int64(8)):
            with pytest.raises(InputError):
                CirculantSpec(n, 2)

    @given(n=st.integers(2, 70), row=st.integers(-4, 1 << 72))
    @settings(max_examples=300)
    def test_accepts_exactly_the_rows_of_the_definition(self, n, row):
        valid = 0 < row < 1 << n and not row & 1 and _symmetric_row(n, row)
        try:
            spec = CirculantSpec(n, row)
        except InputError:
            assert not valid
        else:
            assert valid and spec.row == row

    @given(
        n=st.integers(2, 300),
        raw=st.lists(st.integers(-400, 400), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, n, raw):
        try:
            spec = CirculantSpec.of(n, raw)
        except EmptyJumpSetError:
            return
        assert spec.jumps == tuple(sorted({min(j % n, -j % n) for j in raw} - {0}))
        assert CirculantSpec.of(n, spec.jumps) == spec
        assert spec.offsets() == tuple(sorted({*spec.jumps, *(n - j for j in spec.jumps)}))
        assert np.flatnonzero(spec.connection_row).tolist() == list(spec.offsets())
        if spec.row.bit_count() == n - 1:
            with pytest.raises(EmptyComplementError):
                complement_spec(spec)
        else:
            assert complement_spec(complement_spec(spec)) == spec
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec) and {spec: 1}[back] == 1
        assert str(back) == str(spec) == f"C{n}({','.join(map(str, spec.jumps))})"
        assert repr(back) == repr(spec)
        assert eval(repr(spec), {"CirculantSpec": CirculantSpec}) == spec


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
    return CirculantSpec.of(spec.n, rest)


class TestSpecRow:
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
                spec = CirculantSpec.of(n, [j for j in range(1, half + 1) if mask >> (j - 1) & 1])
                try:
                    want = _complement_by_set_difference(spec)
                except EmptyComplementError:
                    with pytest.raises(EmptyComplementError):
                        complement_spec(spec)
                    continue
                got = complement_spec(spec)
                assert got == want and got.jumps == want.jumps, spec

    def test_complement_holds_less_than_its_distance_vector(self):
        # The complement of C_4093(1) is a 4093-bit row; its distance
        # vector is 4093 int64 entries, 32,744 bytes.
        base = CirculantSpec.of(4093, [1])
        tracemalloc.start()
        try:
            comp = complement_spec(base)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert comp.row.bit_count() == 4090
        assert held < 4096

    def test_spec_declares_only_its_order_and_row(self):
        tree = ast.parse(Path(core.__file__).read_text())
        (cls,) = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "CirculantSpec"]
        assert [stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)] == ["n", "row"]
        assert [f.name for f in dataclasses.fields(CirculantSpec)] == ["n", "row"]

    def test_core_keeps_no_cache_and_builds_no_spec_around_its_constructor(self):
        tree = ast.parse(Path(core.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.FunctionDef):
                names.add(node.name)
        assert not {"cached_property", "__getstate__", "__setstate__", "__new__"} & names


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
