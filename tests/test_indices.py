import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    build_circulant,
    complement_graph,
    complement_spec,
    distance_vector,
    full_report,
    report_from_distance_vector,
)
from circan.errors import (
    DegenerateReciprocalTransmissionError,
    DegenerateTransmissionError,
    DisconnectedGraphError,
)
from circan.indices import INDEX_FIELDS, PAIR_FIELDS, _edge_indices, _pair_indices_from_stats
from circan.metrics import reciprocal_sum

from conftest import all_pairs_distances, from_edges, has_property_star, random_connected_specs

REL = 1e-9


def _close(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b), 1e-300)


def _complement_graph_of(n, jumps):
    return build_circulant(complement_spec(CirculantSpec.of(n, jumps)))


class TestCompleteGraph:
    def test_pair_indices(self):
        k4 = build_circulant(CirculantSpec.of(4, [1, 2]))
        p = full_report(k4)
        assert (p.wiener, p.hyper_wiener, p.harary) == (6, 6, 6)
        assert (p.schultz, p.gutman) == (36, 54)
        assert (p.harary_additive, p.harary_multiplicative) == (36, 54)

    def test_transmission_indices(self):
        k4 = build_circulant(CirculantSpec.of(4, [1, 2]))
        t = full_report(k4)
        assert t.exact["t_ga"] == 6
        assert _close(t.t_sc, 6 / math.sqrt(6))
        assert t.exact["t_az"] == 6 * Fraction(9, 4) ** 3

    def test_reciprocal_indices(self):
        k4 = build_circulant(CirculantSpec.of(4, [1, 2]))
        r = full_report(k4)
        assert r.exact["rt_ga"] == 6
        assert _close(r.rt_sc, 6 / math.sqrt(6))


class TestSevenVertexFamily:
    EXPECT_EXACT = {
        "wiener": Fraction(42),
        "hyper_wiener": Fraction(70),
        "harary": Fraction(77, 6),
        "schultz": Fraction(168),
        "gutman": Fraction(168),
        "harary_additive": Fraction(154, 3),
        "harary_multiplicative": Fraction(154, 3),
    }
    EXPECT_FLOAT = {
        "t_sc": 7 * math.sqrt(6) / 12,
        "t_abc": 7 * math.sqrt(22) / 12,
        "rt_sc": 7 * math.sqrt(66) / 22,
        "rt_abc": 28 * math.sqrt(3) / 11,
    }

    @pytest.mark.parametrize("a", [2, 3])
    def test_full_table(self, a):
        report = full_report(_complement_graph_of(7, [1, a]))
        for name, want in self.EXPECT_EXACT.items():
            assert getattr(report, name) == want, name
        for name, want in self.EXPECT_FLOAT.items():
            assert _close(getattr(report, name), want), name
        assert report.exact["t_ga"] == 7 and report.exact["rt_ag"] == 7
        assert report.exact["t_az"] == Fraction(2612736, 1331)
        assert report.exact["rt_az"] == Fraction(12400927, 110592)


class TestMultiplicativeEight:
    def test_full_table(self):
        report = full_report(_complement_graph_of(8, [1, 2, 4]))
        assert report.wiener == 64
        assert report.hyper_wiener == 120
        assert report.harary == Fraction(47, 3)
        assert report.schultz == 256 and report.gutman == 256
        assert report.harary_additive == Fraction(188, 3)
        assert report.harary_multiplicative == Fraction(188, 3)
        assert report.exact["t_ga"] == 8
        assert _close(report.t_sc, math.sqrt(2))
        assert _close(report.t_abc, math.sqrt(30) / 2)
        assert report.exact["t_az"] == Fraction(16777216, 3375)
        assert _close(report.rt_sc, 8 * math.sqrt(282) / 47)
        assert _close(report.rt_abc, 16 * math.sqrt(210) / 47)
        assert report.exact["rt_az"] == Fraction(10779215329, 74088000)


class TestFamilyClosedFormSpotChecks:
    def test_half_jump_wiener(self):
        # complement of C_8(1, 4): W = n(n+2)/2
        assert full_report(_complement_graph_of(8, [1, 4])).wiener == 40

    def test_double_loop_wiener_and_harary(self):
        # complement of C_10(1, 2): W = n(n+3)/2, H = n(n-3)/2
        report = full_report(_complement_graph_of(10, [1, 2]))
        assert report.wiener == 65
        assert report.harary == 35


class TestCirculantFastPath:
    def test_matches_generic_report(self):
        specs = [
            CirculantSpec.of(9, [1, 3]),
            CirculantSpec.of(16, [1, 3]),
            complement_spec(CirculantSpec.of(14, [1, 7])),
            complement_spec(CirculantSpec.of(20, [1, 4])),
            CirculantSpec.of(17, [1]),
        ]
        for spec in specs:
            fast = report_from_distance_vector(distance_vector(spec))
            slow = full_report(build_circulant(spec))
            for name in PAIR_FIELDS:
                assert getattr(fast, name) == getattr(slow, name), (spec, name)
            assert fast.exact == slow.exact, spec
            for name in INDEX_FIELDS:
                a, b = getattr(fast, name), getattr(slow, name)
                assert abs(a - b) <= 1e-12 * max(abs(float(a)), 1.0), (spec, name)


class TestInvariants:
    def test_regularity_collapse(self):
        for spec in random_connected_specs(12, 96, seed=4242):
            g = build_circulant(spec)
            r = int(g.degrees()[0])
            report = full_report(g)
            assert report.schultz == 2 * r * report.wiener
            assert report.gutman == r * r * report.wiener
            assert report.harary_additive == 2 * r * report.harary
            assert report.harary_multiplicative == r * r * report.harary
            m = Fraction(g.edge_count)
            assert report.exact["t_ga"] == m and report.exact["t_ag"] == m
            assert report.exact["rt_ga"] == m and report.exact["rt_ag"] == m

    def test_diameter_two_identities(self):
        # complements of double loops with order >= 8 all have diameter 2
        for n, a in [(12, 2), (20, 3), (26, 5), (40, 7)]:
            comp = complement_spec(CirculantSpec.of(n, [1, a]))
            dv = distance_vector(comp)
            assert dv.diameter == 2
            report = report_from_distance_vector(dv)
            pairs = n * (n - 1) // 2
            m = n * dv.degree // 2
            assert report.wiener == 2 * pairs - m
            assert report.hyper_wiener == 3 * pairs - 2 * m
            assert report.harary == Fraction(pairs + m, 2)

    def test_star_property_wiener_identity(self):
        for spec in random_connected_specs(10, 64, seed=999):
            g = build_circulant(spec)
            if not has_property_star(g):
                continue
            comp = complement_graph(g)
            assert full_report(comp).wiener == spec.n * (spec.n - 1) // 2 + g.edge_count


def _naive_reciprocal(values):
    """Sum of values[d] / d over d >= 1, one Fraction addition per term."""
    total = Fraction(0)
    for d, value in enumerate(values):
        if d >= 1:
            total += Fraction(value, d)
    return total


class TestCommonDenominatorSums:
    """Reciprocal sums over lcm(1..diameter), reduced once, equal the
    term-by-term Fraction sums (and so print the same)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 10**12), max_size=60))
    def test_reciprocal_sum(self, counts):
        want = _naive_reciprocal(counts)
        for given_as in (counts, np.array(counts, dtype=np.int64)):
            got = reciprocal_sum(given_as)
            assert got == want and str(got) == str(want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 10**12)] * 3), min_size=1, max_size=60))
    def test_pair_stats(self, rows):
        cnt, dsum, dprod = (list(col) for col in zip(*rows))
        pair = _pair_indices_from_stats(cnt, dsum, dprod)
        for name, values in (("harary", cnt), ("harary_additive", dsum),
                             ("harary_multiplicative", dprod)):
            got, want = pair[name], _naive_reciprocal(values)
            assert got == want and str(got) == str(want), name
        assert pair["wiener"] == sum(d * c for d, c in enumerate(cnt))
        assert pair["hyper_wiener"] == Fraction(sum((d + d * d) * c for d, c in enumerate(cnt)), 2)
        assert pair["schultz"] == sum(d * s for d, s in enumerate(dsum))
        assert pair["gutman"] == sum(d * p for d, p in enumerate(dprod))


class TestDegenerateInputs:
    def test_two_vertex_transmission(self):
        k2 = build_circulant(CirculantSpec.of(2, [1]))
        with pytest.raises(DegenerateTransmissionError):
            full_report(k2)

    def test_two_vertex_reciprocal(self):
        # full_report stops at K2's transmissions; its reciprocal kernel
        # raises on K2's reciprocal transmissions 1 + 1 on its own
        with pytest.raises(DegenerateReciprocalTransmissionError):
            _edge_indices("rt", {(1, 1): 1}, 1)

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            full_report(build_circulant(CirculantSpec.of(8, [2])))


# ---------------------------------------------------------------------------
# Reference kernels: per-edge-group Fraction arithmetic over endpoint
# statistics, and per-row pair statistics. The library computes the same
# values over integer statistics with one common denominator.


def _oracle_pair_stats(dist, deg):
    n = dist.shape[0]
    maxd = int(dist.max()) if n > 1 else 0
    cnt = np.zeros(maxd + 1, dtype=np.int64)
    dsum = np.zeros(maxd + 1, dtype=np.int64)
    dprod = np.zeros(maxd + 1, dtype=np.int64)
    for i in range(n - 1):
        row = dist[i, i + 1 :]
        cnt += np.bincount(row, minlength=maxd + 1)
        np.add.at(dsum, row, deg[i] + deg[i + 1 :])
        np.add.at(dprod, row, deg[i] * deg[i + 1 :])
    return cnt.tolist(), dsum.tolist(), dprod.tolist()


def _oracle_groups(values, edges):
    groups = {}
    for u, v in edges.tolist():
        key = tuple(sorted((values[u], values[v])))
        groups[key] = groups.get(key, 0) + 1
    return groups


def _oracle_regular_exact(groups, prefix, az):
    exact = {f"{prefix}_az": az}
    if len(groups) == 1 and next(iter(groups))[0] == next(iter(groups))[1]:
        exact[f"{prefix}_ga"] = exact[f"{prefix}_ag"] = Fraction(sum(groups.values()))
    return exact


def _oracle_transmission(groups):
    """{(a, b): count} over integer endpoint transmissions."""
    ga_terms, ag_terms, sc_terms, abc_terms, az_terms = [], [], [], [], []
    az = Fraction(0)
    for (a, b), count in sorted(groups.items()):
        s = a + b
        p = a * b
        root = math.sqrt(a) * math.sqrt(b)
        ga_terms.append(count * 2.0 * root / s)
        ag_terms.append(count * s / (2.0 * root))
        sc_terms.append(count / math.sqrt(s))
        abc_terms.append(count * math.sqrt((s - 2) / p))
        az_group = count * Fraction(p, s - 2) ** 3
        az += az_group
        az_terms.append(float(az_group))
    floats = {
        "t_ga": math.fsum(ga_terms),
        "t_ag": math.fsum(ag_terms),
        "t_sc": math.fsum(sc_terms),
        "t_abc": math.fsum(abc_terms),
        "t_az": math.fsum(az_terms),
    }
    return floats, _oracle_regular_exact(groups, "t", az)


def _oracle_reciprocal(groups):
    """{(a, b): count} over Fraction endpoint reciprocal transmissions."""
    ga_terms, ag_terms, sc_terms, abc_terms, az_terms = [], [], [], [], []
    az = Fraction(0)
    for (a, b), count in sorted(groups.items()):
        s = a + b
        p = a * b
        root = math.sqrt(a) * math.sqrt(b)
        fs = float(s)
        ga_terms.append(count * 2.0 * root / fs)
        ag_terms.append(count * fs / (2.0 * root))
        sc_terms.append(count / math.sqrt(fs))
        abc_terms.append(count * math.sqrt(float((s - 2) / p)))
        az_group = count * (p / (s - 2)) ** 3
        az += az_group
        az_terms.append(float(az_group))
    floats = {
        "rt_ga": math.fsum(ga_terms),
        "rt_ag": math.fsum(ag_terms),
        "rt_sc": math.fsum(sc_terms),
        "rt_abc": math.fsum(abc_terms),
        "rt_az": math.fsum(az_terms),
    }
    return floats, _oracle_regular_exact(groups, "rt", az)


def _oracle_report(g):
    dist = all_pairs_distances(g)
    assert (dist >= 0).all()
    pair = _pair_indices_from_stats(*_oracle_pair_stats(dist, g.degrees()))
    edges = g.edges()
    sigma = [int(x) for x in dist.sum(axis=1)]
    rs = [reciprocal_sum(np.bincount(row)) for row in dist]
    t_floats, t_exact = _oracle_transmission(_oracle_groups(sigma, edges))
    rt_floats, rt_exact = _oracle_reciprocal(_oracle_groups(rs, edges))
    values = dict(pair)
    values.update(t_floats)
    values.update(rt_floats)
    return values, {**t_exact, **rt_exact}


def _random_connected_graph(rng, n, mean_degree):
    """Random spanning tree plus random chords."""
    order = rng.permutation(n)
    edges = {
        tuple(sorted((int(order[i]), int(order[rng.integers(0, i)]))))
        for i in range(1, n)
    }
    target = max(n - 1, int(mean_degree * n / 2))
    while len(edges) < min(target, n * (n - 1) // 2):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edges(n, edges)


def _path_like_graph(n, chords):
    edges = [(i, i + 1) for i in range(n - 1)] + list(chords)
    return from_edges(n, edges)


def _oracle_corpus():
    rng = np.random.default_rng(20240611)
    graphs = []
    for i in range(50):
        n = int(round(8 * 16 ** ((i + 0.5) / 50)))  # log-spaced over 8..128
        g = _random_connected_graph(rng, n, float(rng.uniform(2.0, min(12.0, n - 1))))
        graphs.append(g)
        comp = complement_graph(g)
        if (all_pairs_distances(comp) >= 0).all():
            graphs.append(comp)
    # diameter 54: the reciprocal common denominator lcm(1..54) exceeds 64 bits
    graphs.append(_path_like_graph(64, [(3, 5), (10, 14), (40, 41 + 5)]))
    return graphs


class TestKernelAgainstOracle:
    GRAPHS = _oracle_corpus()

    def test_corpus_shape(self):
        # 50 random graphs, most of their complements, one path-like graph
        assert len(self.GRAPHS) >= 90
        assert all(8 <= g.n <= 128 for g in self.GRAPHS)
        assert all((g.degrees() != g.degrees()[0]).any() for g in self.GRAPHS)
        path_like = self.GRAPHS[-1]
        diameter = int(all_pairs_distances(path_like).max())
        assert diameter >= 47
        assert math.lcm(*range(1, diameter + 1)).bit_length() > 64

    @pytest.mark.parametrize("index", range(len(GRAPHS)))
    def test_full_report_matches_oracle(self, index):
        g = self.GRAPHS[index]
        report = full_report(g)
        values, exact = _oracle_report(g)
        for name in INDEX_FIELDS:
            assert getattr(report, name) == values[name], name
        assert report.exact == exact

    @pytest.mark.parametrize(
        "spec",
        [CirculantSpec.of(200, [1]), CirculantSpec.of(97, [1, 5]),
         complement_spec(CirculantSpec.of(30, [1, 4]))]
        + random_connected_specs(8, 120, seed=77),
    )
    def test_distance_vector_report_matches_oracle(self, spec):
        dv = distance_vector(spec)
        report = report_from_distance_vector(dv)
        m = spec.n * dv.degree // 2
        sigma, rs = dv.transmission, dv.reciprocal_transmission
        t_floats, t_exact = _oracle_transmission({(sigma, sigma): m})
        rt_floats, rt_exact = _oracle_reciprocal({(rs, rs): m})
        for name, want in {**t_floats, **rt_floats}.items():
            assert getattr(report, name) == want, name
        assert report.exact == {**t_exact, **rt_exact}
