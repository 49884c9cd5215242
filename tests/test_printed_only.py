"""``analyze`` computes and writes only what it prints.

* Exact edge-index rationals are built when ``exact`` is first read; the
  eager ``_edge_indices`` they replaced is kept here as the oracle.
* The numeric spectral radius is the FFT's maximum, bit for bit the first
  element of the sorted spectrum.
* A distance vector reaches the emitter as its array and is written by one
  table gather, in the bytes of ``json.dumps(indent=2)`` and of the space
  join of its list.
"""

import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circan.cli as cli
import circan.indices as indices
from circan import (
    CirculantSpec,
    circulant_spectrum,
    distance_counts,
    distance_vector,
    full_report,
    report_from_distance_vector,
    spectral_radius_numeric,
)
from circan.errors import DegenerateTransmissionError, DisconnectedGraphError
from circan.indices import (
    INDEX_FIELDS,
    _DEGENERATE,
    _edge_groups,
    _reciprocal_numerators,
    _sum_fractions,
)
from circan.verifier import _dumps_indent2, _int_array_items

from conftest import FIXTURES, from_edges, random_connected_specs


def _eager_edge_indices(prefix, groups, denom):
    """``indices._edge_indices`` as it was before ``exact`` was deferred:
    the ``prefix_*`` fields, with the exact values under ``"exact"``."""
    error, what = _DEGENERATE[prefix]
    ga, ag, sc, abc, az = [], [], [], [], []
    az_by_gap = {}
    for (a, b), count in groups.items():
        s = a + b
        gap = s - 2 * denom
        if gap <= 0:
            raise error(
                f"edge {what} {Fraction(a, denom)} + {Fraction(b, denom)} "
                "do not exceed 2"
            )
        p = a * b
        root = math.sqrt(a / denom) * math.sqrt(b / denom)
        fs = s / denom
        ga.append(count * 2.0 * root / fs)
        ag.append(count * fs / (2.0 * root))
        sc.append(count / math.sqrt(fs))
        abc.append(count * math.sqrt(gap * denom / p))
        cube = count * p**3
        az.append(cube / (denom * gap) ** 3)
        az_by_gap[gap] = az_by_gap.get(gap, 0) + cube
    numerator, gaps = _sum_fractions([(c, gap**3) for gap, c in az_by_gap.items()])
    exact = {f"{prefix}_az": Fraction(numerator, gaps * denom**3)}
    if len(groups) == 1 and next(iter(groups))[0] == next(iter(groups))[1]:
        edge_total = Fraction(sum(groups.values()))
        exact[f"{prefix}_ga"] = exact[f"{prefix}_ag"] = edge_total
    fields = {
        f"{prefix}_{name}": math.fsum(terms)
        for name, terms in zip(("ga", "ag", "sc", "abc", "az"), (ga, ag, sc, abc, az))
    }
    return {**fields, "exact": exact}


def _eager_parts(g):
    counts = distance_counts(g)[0]
    edges = g.edges()
    sigma = counts @ np.arange(counts.shape[1])
    trans = _eager_edge_indices("t", _edge_groups(sigma.tolist(), edges), 1)
    denom, numerators = _reciprocal_numerators(counts)
    recip = _eager_edge_indices("rt", _edge_groups(numerators, edges), denom)
    return trans, recip


@st.composite
def connected_graphs(draw):
    """A random tree plus random chords; cycles and complete graphs give
    transmission-regular cases."""
    n = draw(st.integers(3, 24))
    shape = draw(st.sampled_from(["tree+chords", "cycle", "complete"]))
    if shape == "cycle":
        edges = {(i, (i + 1) % n) for i in range(n)}
    elif shape == "complete":
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    else:
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(min(u, v), max(u, v)) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    return from_edges(n, sorted(edges))


class TestDeferredExact:
    @given(connected_graphs())
    @settings(max_examples=150, deadline=None)
    def test_equals_eager_oracle(self, g):
        trans, recip = _eager_parts(g)
        want = {**trans["exact"], **recip["exact"]}
        report = full_report(g)
        for eager in (trans, recip):
            for name, value in eager.items():
                if name != "exact":  # the floats are bit for bit the eager ones
                    assert getattr(report, name).hex() == value.hex(), name
        pickled = pickle.loads(pickle.dumps(report))  # before the first read
        assert pickled.exact == want
        assert report.exact == want and want == report.exact
        assert all((name in report.exact) == (name in want) for name in INDEX_FIELDS)
        assert list(report.exact) == list(want)
        assert repr(report.exact) == repr(want)
        assert pickle.loads(pickle.dumps(report)).exact == want  # after it
        assert pickled == report

    @given(st.sampled_from(random_connected_specs(40, 200, seed=91)))
    @settings(max_examples=40, deadline=None)
    def test_circulant_report_equals_eager_oracle(self, spec):
        dv = distance_vector(spec)
        report = report_from_distance_vector(dv)
        edge_total = spec.n * dv.degree // 2
        sigma = dv.transmission
        trans = _eager_edge_indices("t", {(sigma, sigma): edge_total}, 1)
        denom, (rs,) = _reciprocal_numerators(dv.distance_counts()[None, :])
        recip = _eager_edge_indices("rt", {(rs, rs): edge_total}, denom)
        want = {**trans["exact"], **recip["exact"]}
        assert report.exact == want and repr(report.exact) == repr(want)
        assert pickle.loads(pickle.dumps(report)).exact == want

    def test_degenerate_edges_still_raise_when_built(self):
        # the gap check stays in the group loop, not in the deferred part
        with pytest.raises(DegenerateTransmissionError):
            full_report(from_edges(2, [(0, 1)]))

    @pytest.fixture
    def exact_builds(self, monkeypatch):
        calls = []
        real = indices._exact_edge_values

        def spy(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(indices, "_exact_edge_values", spy)
        return calls

    @pytest.mark.parametrize("extra", [[], ["--complement"],
                                       ["--routing", str(FIXTURES / "fig1_r1.routes")]])
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_fixture_analyze_builds_no_exact_rational(self, capsys, exact_builds, extra, fmt):
        argv = ["analyze", "--fixture", str(FIXTURES / "fig1.graph"), *extra, "--format", fmt]
        assert cli.main(argv) == 0
        assert "t_az" in capsys.readouterr().out
        assert exact_builds == []

    def test_circulant_analyze_builds_the_printed_rationals(self, capsys, exact_builds):
        assert cli.main(["analyze", "--n", "8", "--jumps", "1,2,4", "--complement",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indices_exact"]["rt_az"] == "10779215329/74088000"
        assert sorted(exact_builds) == ["rt", "t"]


class TestNumericRadius:
    @given(st.integers(2, 600), st.lists(st.integers(1, 300), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_sorted_spectrum(self, n, jumps):
        jumps = [j % n for j in jumps if j % n]
        if not jumps:
            return
        try:
            dv = distance_vector(CirculantSpec.of(n, jumps))
        except DisconnectedGraphError:
            return
        assert spectral_radius_numeric(dv).hex() == circulant_spectrum(dv).radius.hex()


# (n, jumps, complement) over orders 3..2^14 (n = 2 has no AZ index), with
# diameters from 1 to 500, so multi-digit distances
EMITTER_SPECS = [
    (3, "1", False), (4, "1", False), (5, "1", True), (7, "1,2", True),
    (21, "1", False), (40, "1,3", False), (129, "1", False), (300, "1,17", True),
    (700, "1,5,60", False), (1000, "1", False), (2048, "1,64", True),
    (4096, "1,2,800", False), (5000, "1,50,1200", False), (9973, "3,97", True),
    (16384, "1,40", False), (16384, "1,128,2000", True),
]


def _emitted(capsys, tmp_path, argv, fmt):
    """(stdout, --out file text) of one CLI call."""
    assert cli.main([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    path = tmp_path / f"out.{fmt}"
    assert cli.main([*argv, "--format", fmt, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    return out, path.read_bytes().decode("utf-8")


class TestArrayEmitter:
    @pytest.mark.parametrize("n,jumps,complement", EMITTER_SPECS)
    def test_analyze_bytes_equal_list_emission(self, capsys, tmp_path, monkeypatch,
                                               n, jumps, complement):
        docs = []
        real_emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda args, doc: (docs.append(doc), real_emit(args, doc)))
        argv = ["analyze", "--n", str(n), "--jumps", jumps] + ["--complement"] * complement
        diameters = set()
        for fmt in ("json", "csv", "text"):
            docs.clear()
            out, written = _emitted(capsys, tmp_path, argv, fmt)
            vector = docs[0]["metrics"]["distance_vector"]
            assert isinstance(vector, np.ndarray)
            diameters.add(int(vector.max()))
            # the same document with the vector as a list, through the list path
            listed = {**docs[0], "metrics": {**docs[0]["metrics"], "distance_vector": vector.tolist()}}
            real_emit(cli.build_parser().parse_args([*argv, "--format", fmt]), listed)
            want = capsys.readouterr().out
            assert out == written == want
            if fmt == "json":
                assert want == json.dumps(listed, indent=2) + "\n"
            else:
                key = "metrics.distance_vector" + ("," if fmt == "csv" else ": ")
                assert key + " ".join(map(str, vector.tolist())) in out.splitlines()
        assert len(diameters) == 1

    def test_spec_list_reaches_multi_digit_distances(self):
        diameters = [distance_vector(CirculantSpec.of(n, map(int, j.split(",")))).diameter
                     for n, j, _ in EMITTER_SPECS]
        assert max(diameters) >= 100 and sum(d >= 10 for d in diameters) >= 6

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=300), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_array_equals_list_emission(self, values, depth):
        arr = np.array(values, dtype=np.int64) % len(values)
        arr.setflags(write=False)
        doc = {"a": arr}
        for _ in range(depth - 1):
            doc = {"x": [1, "s"], "d": doc, "f": 0.5}
        listed = json.loads(json.dumps(doc, default=lambda a: a.tolist()))
        assert _dumps_indent2(doc) == json.dumps(listed, indent=2)
        assert cli._flatten(doc) == cli._flatten(listed)

    @pytest.mark.parametrize("bad", [
        np.array([], dtype=np.int64),
        np.array([0, -1, 1]),
        np.array([0, 3, 1]),          # an entry past len - 1
        np.array([[0, 1], [1, 0]]),
        np.array([0.0, 1.0]),
    ])
    def test_other_arrays_are_rejected(self, bad):
        with pytest.raises(TypeError):
            _int_array_items(bad)
        with pytest.raises(TypeError):
            _dumps_indent2({"a": bad})
