import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circan import (
    INDEX_FIELDS,
    DistanceVector,
    DomainStatus,
    Family,
    RotationRouting,
    base_spec,
    c7_point,
    complement_spec,
    double_loop_gen_point,
    multiplicative_point,
    predict,
    verify_family,
    verify_point,
)
from circan import verifier
from circan.verifier import (
    FIELD_ORDER,
    _dumps_indent2,
    c7_points,
    double_loop_gen_points,
    double_loop_half_points,
    has_failures,
    multiplicative_points,
    record_to_dict,
    records_to_csv,
    records_to_json,
    verify_sweep,
)


class TestVerifyPoint:
    def test_multiplicative_eight_in_domain(self):
        rec = verify_point(multiplicative_point(2, 3))
        assert rec.domain_status is DomainStatus.IN_DOMAIN
        assert rec.passed and not rec.mismatches()
        expected_fields = {"distance_vector", "rho", "spectral_max", "rs", "xi",
                           "xi_witness", "pi_lower", "pi_upper", "base_diameter",
                           "wiener", "t_az", "rt_az"}
        assert expected_fields <= set(rec.fields)

    def test_field_values_are_strings(self):
        rec = verify_point(multiplicative_point(2, 4))
        check = rec.fields["rs"]
        assert check.predicted == "23/2" and check.computed == "23/2"

    def test_witness_at_large_order(self):
        rec = verify_point(multiplicative_point(2, 10))
        assert rec.point.n == 1024
        assert rec.fields["xi_witness"].match
        assert rec.fields["xi_witness"].computed == "min=19,max=19"
        assert rec.passed

    def test_witness_fails_on_a_broken_tree(self, monkeypatch):
        import circan.verifier as verifier_module

        real = verifier_module.build_rotation_routing

        def broken(spec, dv):
            routing = real(spec, dv)
            parent = routing.parent.copy()
            parent[int(np.flatnonzero(dv.d == 2)[0])] = 1  # vertex 1 is not one level closer
            return RotationRouting(spec, parent, dv)

        monkeypatch.setattr(verifier_module, "build_rotation_routing", broken)
        rec = verify_point(multiplicative_point(2, 4))
        assert not rec.fields["xi_witness"].match
        assert rec.fields["xi_witness"].computed.endswith(";not a shortest-path tree")
        assert not rec.passed

    def test_unchecked_in_domain_point_fails(self, monkeypatch):
        import circan.verifier as verifier_module

        # (8, 3) has a disconnected complement; call it in-domain anyway
        monkeypatch.setattr(
            verifier_module, "domain_status", lambda point: (DomainStatus.IN_DOMAIN, "")
        )
        rec = verify_point(double_loop_gen_point(8, 3))
        assert rec.note == "UNEXPECTED: complement is disconnected"
        assert not rec.fields
        assert not rec.passed
        assert has_failures([rec])


class TestSweeps:
    def test_half_sweep_flags_small_k(self):
        recs = verify_sweep(double_loop_half_points(2, 12))
        by_k = {r.point.a: r for r in recs}
        assert by_k[2].domain_status is DomainStatus.OUT_OF_DOMAIN
        assert "edgeless" in by_k[2].note
        assert by_k[3].domain_status is DomainStatus.OUT_OF_DOMAIN
        assert "disconnected" in by_k[3].note
        assert all(r.passed for r in recs)
        assert all(r.domain_status is DomainStatus.IN_DOMAIN for r in recs if r.point.a >= 4)

    def test_gen_sweep_known_exception(self):
        recs = verify_sweep(double_loop_gen_points(8, 24))
        assert not has_failures(recs)
        exceptions = [r for r in recs if r.domain_status is DomainStatus.KNOWN_EXCEPTION]
        assert len(exceptions) == 1
        rec = exceptions[0]
        assert (rec.point.n, rec.point.a) == (8, 3)
        assert "observed: complement is disconnected" in rec.note

    def test_gen_points_below_domain_are_flagged(self):
        recs = verify_sweep(double_loop_gen_points(5, 7))
        assert all(r.domain_status is DomainStatus.OUT_OF_DOMAIN for r in recs)
        assert all(r.passed for r in recs)
        notes = {(r.point.n, r.point.a): r.note for r in recs}
        assert "edgeless" in notes[(5, 2)]
        assert "disconnected" in notes[(6, 2)]
        # the 7-vertex points have connected complements but their own vectors
        assert "formulas not asserted" in notes[(7, 2)]

    def test_multiplicative_sweep(self):
        recs = verify_sweep(multiplicative_points(128))
        assert not has_failures(recs)
        flagged = {(r.point.m, r.point.h) for r in recs
                   if r.domain_status is not DomainStatus.IN_DOMAIN}
        assert flagged == {(2, 1), (2, 2), (3, 1), (4, 1)}
        in_domain = [r for r in recs if r.domain_status is DomainStatus.IN_DOMAIN]
        assert all(r.fields["base_diameter"].match for r in in_domain)

    def test_parallel_matches_serial(self):
        points = double_loop_gen_points(8, 18)
        serial = verify_sweep(points, jobs=1)
        parallel = verify_sweep(points, jobs=2)
        assert [record_to_dict(r) for r in serial] == [record_to_dict(r) for r in parallel]

    def test_pool_bounded_by_cores_and_chunks(self, monkeypatch):
        # a stand-in pool records its size and maps in this process, so no
        # worker process is started whatever size is asked for
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 4)
        points = double_loop_gen_points(8, 18)  # 52 points
        serial = [record_to_dict(r) for r in verify_sweep(points, jobs=1)]
        for jobs in (100_000, 3, 2):
            assert [record_to_dict(r) for r in verify_sweep(points, jobs=jobs)] == serial
        assert sizes == [4, 3, 2]
        # 4 points make 4 chunks of one: no more workers than chunks
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 128)
        verify_sweep(points[:4], jobs=64)
        assert sizes[-1] == 4
        # an unknown core count runs serially
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)
        verify_sweep(points, jobs=64)
        assert len(sizes) == 4

    def test_verify_family_names(self):
        assert len(verify_family("c7")) == 2
        recs = verify_family("double-loop-half", k_range=(2, 8))
        assert len(recs) == 7
        mc = verify_family("mc", max_order=64)
        assert {r.point.family.value for r in mc} >= {"mc-2h", "mc-gen", "mc-23"}
        only_2h = verify_family("mc-2h", max_order=64)
        assert all(r.point.family.value == "mc-2h" for r in only_2h)


    @pytest.mark.parametrize("max_order", [*range(1, 10), 128, 4096])
    @pytest.mark.parametrize("family", [Family.MC_2H, Family.MC_23, Family.MC_GEN])
    def test_sub_family_points_equal_filtered_class(self, family, max_order):
        whole = [p for p in multiplicative_points(max_order) if p.family is family]
        assert multiplicative_points(max_order, family) == whole

    def test_failed_xi_witness_on_vector_without_tree(self, monkeypatch):
        # a distance vector of the right counts on which vertex 3 has no
        # neighbour one level closer: the witness fails instead of raising
        point = double_loop_gen_point(10, 2)
        bad = DistanceVector(10, np.array([0, 1, 2, 4, 4, 5, 4, 4, 2, 1]))
        real = verifier.distance_vector
        monkeypatch.setattr(
            verifier, "distance_vector",
            lambda spec: bad if spec == complement_spec(base_spec(point)) else real(spec),
        )
        rec = verify_point(point)
        witness = rec.fields["xi_witness"]
        assert not witness.match and not rec.passed
        assert witness.computed.endswith(";not a shortest-path tree")


def _count_determined(pred):
    """The predicted values a sweep shares among points with one table key."""
    indices = tuple(getattr(pred.indices, name) for name in INDEX_FIELDS)
    exact = sorted(pred.indices.exact.items())
    return pred.degree, pred.rho, pred.rs, pred.xi, pred.pi_lower, pred.pi_upper, indices, exact


class TestCountTable:
    """A sweep checks the count-determined fields once per (family, n, h,
    distance counts); these tests pin that this changes no record."""

    def test_table_key_holds_every_prediction(self):
        # The key leaves out the double-loop jump a: no closed form may read it.
        for n in range(8, 65):
            preds = [_count_determined(predict(double_loop_gen_point(n, a)))
                     for a in range(2, (n - 1) // 2 + 1) if (n, a) != (8, 3)]
            assert all(p == preds[0] for p in preds), n
        assert _count_determined(predict(c7_point(2))) == _count_determined(predict(c7_point(3)))

    def test_sweep_equals_points_verified_alone(self, monkeypatch):
        import circan.verifier as verifier_module

        points = (double_loop_gen_points(8, 40) + double_loop_half_points(2, 40)
                  + c7_points() + multiplicative_points(256))
        calls = []
        for name in ("predict", "report_from_distance_vector"):
            real = getattr(verifier_module, name)
            monkeypatch.setattr(verifier_module, name,
                                lambda arg, name=name, real=real: calls.append(name) or real(arg))
        swept = verify_sweep(points)
        in_domain = [r for r in swept if r.domain_status is DomainStatus.IN_DOMAIN]
        keys = {(r.point.family, r.point.n, r.point.h) for r in in_domain}
        # predict, with its consistency check, and the indices run once per
        # key, that is once per order for the double loops
        assert calls.count("predict") == len(keys) < len(in_domain)
        assert calls.count("report_from_distance_vector") == len(keys)
        for rec in in_domain:
            assert list(rec.fields) == [f for f in FIELD_ORDER if f in rec.fields]
        alone = [verify_point(p) for p in points]
        assert swept == alone
        assert records_to_json(swept) == records_to_json(alone)
        assert records_to_csv(swept) == records_to_csv(alone)

    def test_wrong_closed_form_fails_every_point_sharing_its_key(self, monkeypatch):
        import circan.verifier as verifier_module

        real = verifier_module.predict

        def wrong_rs_at_20(point):
            pred = real(point)
            return dataclasses.replace(pred, rs=pred.rs + 1) if point.n == 20 else pred

        monkeypatch.setattr(verifier_module, "predict", wrong_rs_at_20)
        points = double_loop_gen_points(8, 30) + double_loop_half_points(2, 30)
        recs = verify_sweep(points)
        at_20 = [r for r in recs if r.point.n == 20]
        assert len(at_20) == 9  # eight general double loops and the half jump k = 10
        assert all(set(r.mismatches()) == {"rs"} and not r.passed for r in at_20)
        assert all(r.passed for r in recs if r.point.n != 20)
        assert not verify_point(double_loop_gen_point(20, 3)).passed
        monkeypatch.undo()
        # a fresh sweep rebuilds its checks: nothing wrong survives the first one
        assert not has_failures(verify_sweep(points))
        assert verify_point(double_loop_gen_point(20, 3)).passed


class TestSerialization:
    def test_json_round_trip_and_determinism(self):
        recs = verify_sweep(double_loop_half_points(2, 10))
        text = records_to_json(recs)
        again = records_to_json(verify_sweep(double_loop_half_points(2, 10)))
        assert text == again  # identical config, byte-identical output
        parsed = json.loads(text)
        assert len(parsed) == 9
        in_domain = [p for p in parsed if p["status"] == "in_domain"]
        for doc in in_domain:
            rs = doc["fields"]["rs"]
            assert Fraction(rs["predicted"]) == Fraction(rs["computed"])

    def test_csv_shape(self):
        recs = verify_sweep(double_loop_half_points(2, 8))
        rows = list(csv.reader(io.StringIO(records_to_csv(recs))))
        header = rows[0]
        assert header[:8] == ["family", "n", "a", "m", "h", "status", "note", "passed"]
        assert len(header) == 8 + 3 * len(FIELD_ORDER)
        assert len(rows) == 1 + len(recs)
        k4_row = rows[3]  # k = 4 record, first in-domain one
        assert k4_row[0] == "double-loop-half"
        match_col = 8 + 3 * FIELD_ORDER.index("rho")
        assert k4_row[match_col] == "True"


_SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16)
_SPECIAL_STRINGS = ('"', "\\", "\x00\x1f\n\x7f", "\U0001f600", "\u00e9", ", ", "a, b")
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-1),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(_SPECIAL_STRINGS),
)
# lists of plain scalars take the emitter's one-call C-encoder path
_number_lists = st.lists(st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.sampled_from(_SPECIAL_FLOATS),
))
_keys = st.one_of(st.text(), st.sampled_from(_SPECIAL_STRINGS))
_documents = st.recursive(
    st.one_of(_scalars, _number_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=30,
)


class TestIndent2Json:
    @settings(max_examples=300, deadline=None)
    @given(_documents)
    @example([1, "a, b"])
    @example([1.5, [2, 3]])
    @example((True, {"k": ()}, None))
    @example({"": [], "x": {}, "y": [[], ()]})
    def test_matches_stdlib(self, value):
        assert _dumps_indent2(value) == json.dumps(value, indent=2)

    def test_multiplicative_records_match_stdlib(self):
        recs = verify_family("mc-2h", max_order=1024)
        assert records_to_json(recs) == json.dumps([record_to_dict(r) for r in recs], indent=2)
