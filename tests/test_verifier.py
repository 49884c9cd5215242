import csv
import dataclasses
import functools
import io
import json
import math
import random
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circan import (
    DistanceVector,
    DomainStatus,
    Family,
    base_spec,
    c7_points,
    complement_spec,
    distance_vector,
    domain_status,
    double_loop_gen_point,
    double_loop_gen_points,
    double_loop_half_points,
    multiplicative_point,
    multiplicative_points,
    predict,
    verify_family,
    verify_point,
)
from circan import families, verifier
from circan.cli import _dumps_indent2
from circan.errors import InputError
from circan.families import SWEEPS
from circan.indices import INDEX_FIELDS
from circan.verifier import (
    FIELD_ORDER,
    FieldCheck,
    has_failures,
    records_to_csv,
    records_to_json,
    verify_sweep,
)

from conftest import record_to_dict


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
        # every vertex keeps a neighbour one level closer, so a walk of
        # length d(v) exists, but vertex v is one level too far: its edge to
        # the connection row skips level 2
        point = multiplicative_point(2, 4)
        comp = complement_spec(base_spec(point))
        true = distance_vector(comp)
        v = int(np.flatnonzero(true.d == 2)[0])
        d = true.d.copy()
        d[[v, point.n - v]] = 3
        _replace_rows(monkeypatch, {comp: d})
        rec = verify_point(point)
        witness = rec.fields["xi_witness"]
        assert not witness.match
        assert witness.computed == (
            f"not the BFS layering: (c) vertex {v} at d=3 has a neighbour at d=1")
        assert not rec.passed

    def test_exact_prediction_fails_without_a_computed_exact_value(self, monkeypatch):
        real = verifier.report_from_distance_vector
        def without_exact(dv):
            report = real(dv)
            report.__dict__["exact"] = {}  # the cached value, read before any build
            return report

        monkeypatch.setattr(verifier, "report_from_distance_vector", without_exact)
        rec = verify_point(multiplicative_point(2, 4))
        assert set(rec.mismatches()) == {"t_ga", "t_ag", "t_az", "rt_ga", "rt_ag", "rt_az"}
        assert not rec.passed

    @pytest.mark.parametrize("computed, predicted", [
        (0.0, math.nan), (math.nan, 0.0), (0.0, math.inf), (math.inf, 0.0), (math.inf, math.inf),
    ])
    def test_float_index_with_a_nan_or_infinite_side_fails(self, monkeypatch, computed, predicted):
        real_report, real_predict = verifier.report_from_distance_vector, verifier.predict
        monkeypatch.setattr(verifier, "report_from_distance_vector",
                            lambda dv: dataclasses.replace(real_report(dv), t_sc=computed))

        def with_t_sc(point):
            pred = real_predict(point)
            return dataclasses.replace(pred, indices={**pred.indices, "t_sc": predicted})

        monkeypatch.setattr(verifier, "predict", with_t_sc)
        rec = verify_point(multiplicative_point(2, 4))
        assert set(rec.mismatches()) == {"t_sc"}

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_spectral_max_with_a_nan_or_infinite_side_fails(self, monkeypatch, radius):
        monkeypatch.setattr(verifier, "spectral_radii", lambda stack: np.full(len(stack), radius))
        rec = verify_point(multiplicative_point(2, 4))
        assert set(rec.mismatches()) == {"spectral_max"}

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


def _bumped(d):
    """A copy of the vector ``d`` with d[1] and d[n - 1] one larger."""
    d = d.copy()
    d[[1, d.size - 1]] += 1
    return d


def _replace_rows(monkeypatch, rows):
    """Patch the block's stack builder, as the verifier binds it, so that
    the row of each spec in ``rows`` is the vector given for it."""
    real = verifier.distance_stack

    def stack(specs):
        out = real(specs).copy()
        for i, spec in enumerate(specs):
            if spec in rows:
                out[i] = rows[spec]
        return out

    monkeypatch.setattr(verifier, "distance_stack", stack)


class TestFieldProvenance:
    """Each field's predicted side is the stated ``Prediction`` attribute,
    and its computed side reads the engine, not the prediction."""

    # attribute, or "indices.<name>", -> the fields it feeds
    FEEDS = {
        "distance_vector": {"distance_vector"},
        "degree": {"degree"},
        "rho": {"rho", "spectral_max"},
        "rs": {"rs"},
        "xi": {"xi", "xi_witness"},
        "pi_lower": {"pi_lower"},
        "pi_upper": {"pi_upper"},
        "base_diameter": {"base_diameter"},
        **{f"indices.{name}": {name} for name in INDEX_FIELDS},
    }
    POINT = multiplicative_point(2, 4)

    def test_every_field_has_one_stated_source(self):
        fed = [field for fields in self.FEEDS.values() for field in fields]
        assert sorted(fed) == sorted(FIELD_ORDER)
        assert set(verify_point(self.POINT).fields) == set(FIELD_ORDER)

    @pytest.mark.parametrize("source", sorted(FEEDS))
    def test_a_wrong_prediction_fails_exactly_its_fields(self, monkeypatch, source):
        real = families.predict

        def wrong(point):
            pred = real(point)
            if source == "distance_vector":
                return dataclasses.replace(pred, distance_vector=_bumped(pred.distance_vector))
            if source.startswith("indices."):
                name = source.removeprefix("indices.")
                return dataclasses.replace(
                    pred, indices={**pred.indices, name: pred.indices[name] + 1})
            return dataclasses.replace(pred, **{source: getattr(pred, source) + 1})

        monkeypatch.setattr(verifier, "predict", wrong)
        rec = verify_point(self.POINT)
        assert set(rec.mismatches()) == self.FEEDS[source]

    def test_a_wrong_computed_vector_fails_spectral_max_too(self, monkeypatch):
        comp = complement_spec(base_spec(self.POINT))
        _replace_rows(monkeypatch, {comp: _bumped(distance_vector(comp).d)})
        rec = verify_point(self.POINT)
        # only the degree, the edge-count indices and the base graph's
        # diameter do not read d[1] and d[n - 1]
        kept = {"degree", "t_ga", "t_ag", "rt_ga", "rt_ag", "base_diameter"}
        assert set(rec.mismatches()) == set(FIELD_ORDER) - kept
        assert rec.fields["spectral_max"].predicted == rec.fields["rho"].predicted == "22"
        assert rec.fields["spectral_max"].computed == "24.0"


def _floated(monkeypatch, point, source):
    """Patch ``source``, as the verifier binds it, so that the value it
    gives for ``point`` reads as a float. The degree is floated on the
    complement's vector, which the routing bounds and the report then read
    as a plain copy; the transmission and reciprocal transmission on the
    index report, and the diameter on the base's eccentricity."""
    real = {name: getattr(verifier, name) for name in (
        "eccentricity", "vertex_forwarding_index", "edge_forwarding_bounds",
        "report_from_distance_vector")}
    if source == "degree":
        floated = type("Floated", (DistanceVector,), {
            source: property(lambda dv: float(getattr(DistanceVector(dv.n, dv.d), source)))})
        monkeypatch.setattr(verifier, "DistanceVector", floated)
        for name in ("vertex_forwarding_index", "edge_forwarding_bounds",
                     "report_from_distance_vector"):
            monkeypatch.setattr(verifier, name,
                                lambda dv, name=name: real[name](DistanceVector(dv.n, dv.d)))
    elif source in ("transmission", "reciprocal_transmission"):
        monkeypatch.setattr(verifier, "report_from_distance_vector", lambda dv: dataclasses.replace(
            real["report_from_distance_vector"](dv),
            **{source: float(getattr(real["report_from_distance_vector"](dv), source))}))
    elif source == "diameter":
        base = base_spec(point)
        monkeypatch.setattr(verifier, "eccentricity", lambda spec: float(
            real["eccentricity"](spec)) if spec == base else real["eccentricity"](spec))
    elif source == "vertex_forwarding_index":
        monkeypatch.setattr(verifier, source, lambda dv: float(real[source](dv)))
    elif source in ("pi_lower", "pi_upper"):
        side = source == "pi_upper"
        monkeypatch.setattr(verifier, "edge_forwarding_bounds", lambda dv: tuple(
            float(v) if i == side else v
            for i, v in enumerate(real["edge_forwarding_bounds"](dv))))
    else:
        name = source.removeprefix("indices.")

        def report(dv):
            got = real["report_from_distance_vector"](dv)
            exact = dict(got.exact)
            if name in exact:
                exact[name] = float(exact[name])
            else:
                got = dataclasses.replace(got, **{name: float(getattr(got, name))})
            got.__dict__["exact"] = exact  # the cached value, read before any build
            return got

        monkeypatch.setattr(verifier, "report_from_distance_vector", report)


# a computed source the verifier reads -> the exact fields it feeds; an
# index "indices.<name>" feeds only its own field
FLOAT_FEEDS = {
    "degree": {"degree"},
    "transmission": {"rho"},
    "reciprocal_transmission": {"rs"},
    "vertex_forwarding_index": {"xi", "xi_witness"},
    "pi_lower": {"pi_lower"},
    "pi_upper": {"pi_upper"},
    "diameter": {"base_diameter"},
}


def _exact_sources(point):
    """Every source of an exact field of ``point``."""
    pred = predict(point)
    scalars = [s for s in FLOAT_FEEDS if s != "diameter" or pred.base_diameter is not None]
    return scalars + [f"indices.{name}" for name, value in pred.indices.items()
                      if isinstance(value, Fraction)]


def _fed(source):
    return FLOAT_FEEDS.get(source, {source.removeprefix("indices.")})


def _case_id(value):
    """A point as "<family>-<n>", and a source as it is."""
    return f"{value.family.value}-{value.n}" if hasattr(value, "family") else value


class TestExactFieldsFailClosed:
    """A computed float equal to an exact prediction fails its field: each
    engine source, as the verifier binds it, returns float(value) in turn,
    and exactly the fields it feeds fail."""

    POINTS = (multiplicative_point(2, 4), double_loop_gen_point(20, 3))
    CASES = [(point, source) for point in POINTS for source in _exact_sources(point)]

    def test_cases_cover_every_exact_field(self):
        assert len(self.CASES) == 7 + 13 + 6 + 13
        for point in self.POINTS:
            rec = verify_point(point)
            assert rec.passed
            exact = {name for name, check in rec.fields.items()
                     if name not in ("distance_vector", "spectral_max")
                     and not isinstance(predict(point).indices.get(name, 0), float)}
            fed = set().union(*map(_fed, _exact_sources(point)))
            assert fed == exact, point

    @pytest.mark.parametrize("point, source", CASES, ids=_case_id)
    def test_a_float_computed_value_fails_exactly_its_fields(self, monkeypatch, point, source):
        _floated(monkeypatch, point, source)
        rec = verify_point(point)
        assert set(rec.mismatches()) == _fed(source)
        assert not rec.passed

    def test_the_float_texts(self, monkeypatch):
        _floated(monkeypatch, self.POINTS[0], "vertex_forwarding_index")
        rec = verify_point(self.POINTS[0])
        assert rec.fields["xi"].computed == "7.0" and rec.fields["xi"].predicted == "7"
        assert rec.fields["xi_witness"].computed == "min=7.0,max=7.0"
        monkeypatch.undo()
        _floated(monkeypatch, self.POINTS[1], "pi_upper")
        check = verify_point(self.POINTS[1]).fields["pi_upper"]
        assert (check.match, check.predicted, check.computed) == (False, "14", "14.0")


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

    def test_unknown_family_name_is_an_input_error(self):
        with pytest.raises(InputError, match="unknown family 'bogus'"):
            verify_family("bogus")

    @pytest.mark.parametrize("family", list(Family))
    def test_member_and_its_name_sweep_alike(self, family):
        bounds = {"k_range": (2, 8), "n_range": (5, 12), "max_order": 64}
        records = verify_family(family, **bounds)
        assert records and {r.point.family for r in records} == {family}
        assert records == verify_family(family.value, **bounds)

    @pytest.mark.parametrize("max_order", [*range(1, 10), 128, 4096])
    @pytest.mark.parametrize("family", list(Family))
    def test_sub_family_points_equal_filtered_class(self, family, max_order):
        # each multiplicative row of SWEEPS is its part of the whole class;
        # a double-loop family has no part in it
        whole = [p for p in multiplicative_points(max_order) if p.family is family]
        row = SWEEPS[family.value](k_range=(2, 8), n_range=(5, 12), max_order=max_order)
        if all(p.h is not None for p in row):
            assert row == whole
        else:
            assert whole == []

    def test_failed_xi_witness_on_vector_without_tree(self, monkeypatch):
        # a distance vector that is not the complement's BFS layering: the
        # witness fails instead of raising
        point = double_loop_gen_point(10, 2)
        bad = DistanceVector(10, np.array([0, 1, 2, 4, 4, 5, 4, 4, 2, 1]))
        _replace_rows(monkeypatch, {complement_spec(base_spec(point)): bad.d})
        rec = verify_point(point)
        witness = rec.fields["xi_witness"]
        assert not witness.match and not rec.passed
        # the complement C10(3,4,5) is not adjacent to 1, which sits at d = 1
        assert witness.computed == "not the BFS layering: (a) vertex 1 at d=1 is not adjacent to 0"


def _count_determined(pred):
    """The predicted values a sweep shares among points with one table key,
    with the counts of the predicted vector, which the key leaves out."""
    indices = sorted(pred.indices.items())
    return (pred.degree, pred.rho, pred.rs, pred.xi, pred.pi_lower, pred.pi_upper, indices,
            pred.base_diameter, np.bincount(pred.distance_vector).tolist())



class TestCountTable:
    """A sweep checks the count-determined fields once per (family, n, h,
    distance counts); these tests pin that this changes no record."""

    def test_table_key_holds_every_prediction(self):
        # The key leaves out the double-loop jump a and the counts of the
        # predicted vector: no closed form may read a, and every point with
        # one (family, n, h) has one predicted count vector.
        groups = {}
        for point in (double_loop_gen_points(8, 64) + double_loop_half_points(2, 64)
                      + c7_points() + multiplicative_points(1024)):
            if domain_status(point)[0] is DomainStatus.IN_DOMAIN:
                key = (point.family, point.n, point.h)
                groups.setdefault(key, []).append(_count_determined(predict(point)))
        assert {family for family, _, _ in groups} == set(Family)
        for key, preds in groups.items():
            assert all(p == preds[0] for p in preds), key
        assert len(groups[(Family.C7_SPECIAL, 7, None)]) == 2

    def test_sweep_builds_one_predicted_vector_per_point(self, monkeypatch):
        import circan.families as families_module

        built = []
        real = families_module.predicted_distance_vector

        def counted(point):
            built.append(point)
            return real(point)

        monkeypatch.setattr(families_module, "predicted_distance_vector", counted)
        monkeypatch.setattr(verifier, "predicted_distance_vector", counted)
        points = (double_loop_gen_points(8, 30) + double_loop_half_points(2, 30)
                  + c7_points() + multiplicative_points(256))
        recs = verify_sweep(points)
        assert built == [r.point for r in recs if r.domain_status is DomainStatus.IN_DOMAIN]

    def test_two_sums_per_key_and_no_base_vector(self, monkeypatch):
        from circan import indices, metrics

        sums, summed, bases, built = [0], [], [], []
        real_sums, real_transmission = metrics.distance_sums, metrics.DistanceVector.transmission
        real_base, real_eccentricity = verifier.base_spec, verifier.eccentricity
        real_post_init, real_of_row = (metrics.DistanceVector.__post_init__,
                                       metrics.DistanceVector.of_checked_row.__func__)

        def counted_sums(rows):
            sums[0] += 1
            return real_sums(rows)

        def counted_transmission(dv):
            summed.append(dv)
            return real_transmission.func(dv)

        def counted_base(point):
            bases.append(real_base(point))
            return bases[-1]

        def counted_eccentricity(spec):
            assert spec is bases[-1]
            return real_eccentricity(spec)

        def counted_post_init(dv):
            built.append(dv)
            real_post_init(dv)

        def counted_of_row(cls, row, counts):
            built.append(real_of_row(cls, row, counts))
            return built[-1]

        transmission = functools.cached_property(counted_transmission)
        transmission.__set_name__(metrics.DistanceVector, "transmission")
        monkeypatch.setattr(metrics.DistanceVector, "transmission", transmission)
        monkeypatch.setattr(metrics.DistanceVector, "__post_init__", counted_post_init)
        monkeypatch.setattr(metrics.DistanceVector, "of_checked_row", classmethod(counted_of_row))
        monkeypatch.setattr(metrics, "distance_sums", counted_sums)
        monkeypatch.setattr(indices, "distance_sums", counted_sums)
        monkeypatch.setattr(verifier, "base_spec", counted_base)
        monkeypatch.setattr(verifier, "eccentricity", counted_eccentricity)
        recs = verify_sweep(multiplicative_points(256))
        in_domain = [r for r in recs if r.domain_status is DomainStatus.IN_DOMAIN]
        keys = {(r.point.family, r.point.n, r.point.h) for r in in_domain}
        # per key one sum for the index report, which gives rho and rs too,
        # and one for predict's consistency check
        assert sums[0] == 2 * len(keys)
        # each in-domain point, here one per key, reads its base's
        # eccentricity; the only vectors are each key's computed one and
        # predict's, and each is summed
        assert len(in_domain) == len(keys)
        assert len(built) == 2 * len(keys)
        assert {id(dv) for dv in summed} == {id(dv) for dv in built}

    def test_base_diameter_only_for_multiplicative_families(self):
        recs = verify_sweep(double_loop_gen_points(8, 16) + double_loop_half_points(2, 12)
                            + c7_points() + multiplicative_points(256))
        in_domain = [r for r in recs if r.domain_status is DomainStatus.IN_DOMAIN]
        assert {r.point.family for r in in_domain} == set(Family)
        for rec in in_domain:
            multiplicative = rec.point.family in (Family.MC_2H, Family.MC_GEN, Family.MC_23)
            assert ("base_diameter" in rec.fields) is multiplicative, rec.point
            assert (predict(rec.point).base_diameter is not None) is multiplicative, rec.point

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
        # the same points shuffled, so that the orders of a chunk interleave
        shuffled = random.Random(24).sample(points, len(points))
        assert [p.n for p in shuffled[:40]] != sorted(p.n for p in shuffled[:40])
        by_point = dict(zip(points, swept))
        assert verify_sweep(shuffled) == [by_point[p] for p in shuffled]

    def test_sweep_stacks_each_order_and_builds_one_vector_per_key(self, monkeypatch):
        from circan import metrics

        transforms, calls, events = [], [], []
        built = [0]
        real_radii, real_point = verifier.spectral_radii, verifier.verify_point
        real_stack, real_post_init = verifier.distance_stack, metrics.DistanceVector.__post_init__

        def counted_radii(stack):
            transforms.append(stack.shape)
            return real_radii(stack)

        def counted_point(point, **kwargs):
            calls.append(point)
            events.append(point.n)
            return real_point(point, **kwargs)

        def counted_stack(specs):
            events.append(specs[0].n)
            return real_stack(specs)

        def counted_post_init(dv):
            built[0] += 1
            real_post_init(dv)

        monkeypatch.setattr(verifier, "spectral_radii", counted_radii)
        monkeypatch.setattr(verifier, "verify_point", counted_point)
        monkeypatch.setattr(verifier, "distance_stack", counted_stack)
        monkeypatch.setattr(metrics.DistanceVector, "__post_init__", counted_post_init)
        points = (double_loop_gen_points(5, 30) + double_loop_half_points(2, 30) + c7_points()
                  + multiplicative_points(256))
        recs = verify_sweep(points)
        assert calls == points
        # one transform per run of consecutive points of one order, of all
        # its in-domain points at once (every run here is one block)
        expected = []
        for n, run in groupby(recs, key=lambda r: r.point.n):
            k = sum(r.domain_status is DomainStatus.IN_DOMAIN for r in run)
            expected += [(k, n)] if k else []
        assert transforms == expected
        # every BFS and record of a run comes before any of the next run's:
        # a chunk holds one block's vectors at a time
        runs = [n for n, _ in groupby(p.n for p in points)]
        assert [n for n, _ in groupby(events)] == runs
        # the general double loops: one transform per order 8..30, each of
        # all that order's in-domain points (5..7 are out of domain)
        assert [n for _, n in transforms[:23]] == list(range(8, 31))
        assert max(k for k, _ in transforms) == 13  # a = 2..14 at n = 29 and 30
        # one checked vector per count-table key, predict's: a block checks
        # its stack's rows at once, a key's computed vector is not checked
        # again, and a base's diameter builds no vector
        in_domain = [r for r in recs if r.domain_status is DomainStatus.IN_DOMAIN]
        keys = {(r.point.family, r.point.n, r.point.h) for r in in_domain}
        bases = [r for r in in_domain if "base_diameter" in r.fields]
        assert len(keys) < len(in_domain) and bases
        assert built[0] == len(keys)

    @pytest.mark.parametrize("entries", [verifier._STACK_ENTRIES, 100])
    def test_a_block_gives_the_records_of_its_points_alone(self, monkeypatch, entries):
        # n = 8 holds the known exception (8, 3), a disconnected complement,
        # beside (8, 2); out-of-domain rows sit in blocks of in-domain ones
        monkeypatch.setattr(verifier, "_STACK_ENTRIES", entries)
        blocks = []
        real = verifier.distance_stack
        monkeypatch.setattr(verifier, "distance_stack",
                            lambda specs: blocks.append(len(specs)) or real(specs))
        points = (double_loop_gen_points(5, 30) + double_loop_half_points(2, 40)
                  + c7_points() + multiplicative_points(128))
        swept = verify_sweep(points)
        # (5, 2) has an edgeless complement; then (6, 2), (7, 2..3), (8, 2..3)
        assert blocks[:3] == [1, 2, 2]
        assert [(r.point.n, r.point.a) for r in swept[4:6]] == [(8, 2), (8, 3)]
        assert swept[4].domain_status is DomainStatus.IN_DOMAIN and swept[4].passed
        assert swept[5].domain_status is DomainStatus.KNOWN_EXCEPTION
        assert max(blocks) > 1
        alone = [verify_point(p) for p in points]
        assert swept == alone
        assert records_to_json(swept) == records_to_json(alone)
        assert records_to_csv(swept) == records_to_csv(alone)

    def test_a_long_run_is_stacked_in_blocks(self, monkeypatch):
        points = double_loop_gen_points(8, 30)
        whole = verify_sweep(points)
        transforms = []
        real_radii = verifier.spectral_radii

        def counted_radii(stack):
            transforms.append(stack.shape)
            return real_radii(stack)

        monkeypatch.setattr(verifier, "spectral_radii", counted_radii)
        monkeypatch.setattr(verifier, "_STACK_ENTRIES", 100)
        assert verify_sweep(points) == whole
        # at most 100 // n rows a block, and every in-domain point in one
        in_domain = [r.point.n for r in whole if r.domain_status is DomainStatus.IN_DOMAIN]
        assert all(k <= max(1, 100 // n) for k, n in transforms)
        assert sorted(n for k, n in transforms for _ in range(k)) == sorted(in_domain)
        assert len(transforms) > len(set(in_domain))

    def test_a_sweep_holds_little_beyond_its_records(self):
        # 510 points of order 1,024: a chunk that kept every point's specs or
        # vectors until the end would hold tens of MB more than its records
        import tracemalloc

        points = double_loop_gen_points(1024, 1024)
        tracemalloc.start()
        try:
            recs = verify_sweep(points)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recs) == 510 and all(r.passed for r in recs)
        assert peak - held < 2_000_000

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


def _csv_reference(records):
    """The records through ``csv.writer(lineterminator="\n")``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "n", "a", "m", "h", "status", "note", "passed"]
                    + [f"{f}_{part}" for f in FIELD_ORDER for part in ("match", "predicted", "computed")])
    for rec in records:
        row = [rec.point.family.value, rec.point.n, rec.point.a, rec.point.m, rec.point.h,
               rec.domain_status.value, rec.note, rec.passed]
        for name in FIELD_ORDER:
            check = rec.fields.get(name)
            row += ["", "", ""] if check is None else [check.match, check.predicted, check.computed]
        writer.writerow(row)
    return buf.getvalue()


_CSV_TEXTS = ("", ",", '"', "\r", "\n", "\r\n", 'a,"b"', "x\ny,z", ' "', "[0, 1, 2]")


class TestSerialization:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_CSV_TEXTS), st.text()), min_size=3, max_size=3))
    @example(["", "", ""])
    @example([",", '"', "\r\n"])
    def test_csv_matches_the_csv_module(self, texts):
        # the notes and texts hold commas, quotes, CR, LF or nothing; the two
        # records of one count key share their FieldCheck objects
        note, predicted, computed = texts
        recs = verify_sweep(double_loop_gen_points(9, 10) + double_loop_half_points(2, 4))
        odd = FieldCheck(False, predicted, computed)
        recs[0] = dataclasses.replace(recs[0], note=note,
                                      fields={**recs[0].fields, "rs": odd, "degree": odd})
        recs[1] = dataclasses.replace(recs[1], fields={**recs[1].fields, "rs": odd})
        assert records_to_csv(recs) == _csv_reference(recs)
        assert records_to_csv([]) == _csv_reference([])

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
# the shapes the commands build: dicts with str keys over scalars and
# non-empty lists of ints, which take the emitter's one-call C-encoder path
_int_lists = st.lists(st.integers(), min_size=1)
_keys = st.one_of(st.text(), st.sampled_from(_SPECIAL_STRINGS))
_documents = st.recursive(
    st.one_of(_scalars, _int_lists),
    lambda children: st.dictionaries(_keys, children, max_size=5),
    max_leaves=30,
)


class TestIndent2Json:
    @settings(max_examples=300, deadline=None)
    @given(_documents)
    @example({"a, b": "a, b", "x": [1, -2, 2**70]})
    @example({"": {}, "x": {"y": [0]}, "z": None})
    def test_matches_stdlib(self, value):
        assert _dumps_indent2(value) == json.dumps(value, indent=2)

    def test_multiplicative_records_match_stdlib(self, monkeypatch):
        def stdlib(recs):
            return json.dumps([record_to_dict(r) for r in recs], indent=2)

        sweeps = [
            verify_family("mc", max_order=1024),
            verify_family("double-loop-gen", n_range=(8, 40)),
            verify_family("double-loop-half", k_range=(2, 60)),
            verify_family("c7"),
        ]
        # out-of-domain and excepted records have no fields
        assert all(any(not r.fields for r in recs) for recs in sweeps[:3])
        for recs in sweeps:
            assert records_to_json(recs) == stdlib(recs)
        assert records_to_json([]) == stdlib([]) == "[]"

        # a failing record whose texts hold quotes, backslashes, control and
        # non-ASCII characters
        odd = 'q"\\ \u00e9\U0001f600\x1f'
        monkeypatch.setattr(verifier, "_vector_repr", lambda d: f"{odd}{d.size}")
        real = verifier.predict
        monkeypatch.setattr(verifier, "predict",
                            lambda p: dataclasses.replace(real(p), rs=real(p).rs + 1))
        rec = dataclasses.replace(verify_point(multiplicative_point(2, 4)), note=odd)
        assert not rec.passed and rec.fields["distance_vector"].computed == odd + "16"
        assert rec.fields["rs"] == FieldCheck(False, "25/2", "23/2")
        assert records_to_json([rec, *sweeps[3]]) == stdlib([rec, *sweeps[3]])
