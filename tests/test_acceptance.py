"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The family sweeps are shared module-scoped fixtures, so the whole
suite stays well under the runtime budget.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from circan import (
    CirculantSpec,
    DomainStatus,
    build_circulant,
    complement_spec,
    distance_vector,
    full_report,
    load_profile,
    parse_graph_fixture,
    parse_routing_fixture,
)
from circan.verifier import (
    double_loop_gen_points,
    double_loop_half_points,
    multiplicative_points,
    verify_sweep,
)

from conftest import (
    all_pairs_distances,
    distance_matrix,
    has_property_star,
    random_connected_specs,
)

REL = 1e-9


def _report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")


@pytest.fixture(scope="module")
def half_sweep():
    return verify_sweep(double_loop_half_points(2, 100))


@pytest.fixture(scope="module")
def gen_sweep():
    return verify_sweep(double_loop_gen_points(8, 100))


@pytest.fixture(scope="module")
def mc_sweep():
    return verify_sweep(multiplicative_points(4096))


def test_criterion_1_worked_example_loads(fig1_text, r1_text, r2_text):
    g = parse_graph_fixture(fig1_text)
    p1 = load_profile(parse_routing_fixture(r1_text, g))
    p2 = load_profile(parse_routing_fixture(r2_text, g))
    stated_r1 = [3, 4, 4, 0, 2, 2]
    stated_r2 = [7, 7, 9, 3, 2, 2]
    ok = (
        p1.vertex_loads.tolist() == stated_r1
        and p1.max_vertex_load == 4
        and p2.vertex_loads.tolist() == stated_r2
        and p2.max_vertex_load == 9
    )
    _report(1, ok, "worked-example routing load profiles and forwarding indices")
    assert ok, (
        f"computed loads {p1.vertex_loads.tolist()} (max {p1.max_vertex_load}) and "
        f"{p2.vertex_loads.tolist()} (max {p2.max_vertex_load}); the stated profiles "
        f"{stated_r1}/{stated_r2} are inconsistent with the routings' own path lists: "
        f"summing stated loads gives 15 and 30, but the paths contain only 14 and 26 "
        f"inner-vertex incidences (load totals must equal total path length minus "
        f"path count). The maxima 4 and 9 do hold. See the decisions ledger."
    )


def _check_c7(a: int) -> list[str]:
    comp = complement_spec(CirculantSpec.of(7, [1, a]))
    dv = distance_vector(comp)
    report = full_report(build_circulant(comp))
    problems = []

    def exact(name, got, want):
        if got != want:
            problems.append(f"{name}: {got} != {want}")

    def close(name, got, want):
        if abs(got - want) > REL * max(abs(got), abs(want)):
            problems.append(f"{name}: {got} !~ {want}")

    exact("W", report.wiener, 42)
    exact("WW", report.hyper_wiener, 70)
    exact("H", report.harary, Fraction(77, 6))
    exact("S", report.schultz, 168)
    exact("G", report.gutman, 168)
    exact("H_A", report.harary_additive, Fraction(154, 3))
    exact("H_M", report.harary_multiplicative, Fraction(154, 3))
    exact("T_AZ", report.exact["t_az"], Fraction(2612736, 1331))
    exact("RT_AZ", report.exact["rt_az"], Fraction(12400927, 110592))
    exact("T_GA", report.exact["t_ga"], 7)
    exact("T_AG", report.exact["t_ag"], 7)
    exact("RT_GA", report.exact["rt_ga"], 7)
    exact("RT_AG", report.exact["rt_ag"], 7)
    close("T_SC", report.t_sc, 7 * math.sqrt(6) / 12)
    close("T_ABC", report.t_abc, 7 * math.sqrt(22) / 12)
    close("RT_SC", report.rt_sc, 7 * math.sqrt(66) / 22)
    close("RT_ABC", report.rt_abc, 28 * math.sqrt(3) / 11)
    exact("rho", dv.transmission, 12)
    exact("rs", dv.reciprocal_transmission, Fraction(11, 3))
    exact("xi", dv.transmission - 6, 6)
    from circan import edge_forwarding_bounds

    exact("pi", edge_forwarding_bounds(dv), (Fraction(12), 16))
    return problems


def test_criterion_2_seven_vertex_tables():
    problems = _check_c7(2) + _check_c7(3)
    ok = not problems
    _report(2, ok, "7-vertex complement index tables, both jump choices")
    assert ok, problems


def test_criterion_3_multiplicative_eight_table():
    comp = complement_spec(CirculantSpec.of(8, [1, 2, 4]))
    dv = distance_vector(comp)
    report = full_report(build_circulant(comp))
    from circan import edge_forwarding_bounds

    checks = [
        dv.transmission == 16,
        dv.reciprocal_transmission == Fraction(47, 12),
        dv.transmission - 7 == 9,
        edge_forwarding_bounds(dv) == (Fraction(16), 21),
        report.wiener == 64,
        report.hyper_wiener == 120,
        report.harary == Fraction(47, 3),
        report.schultz == 256,
        report.gutman == 256,
        abs(report.t_sc - math.sqrt(2)) <= REL * math.sqrt(2),
        report.exact["t_az"] == Fraction(16777216, 3375),
        report.exact["rt_az"] == Fraction(10779215329, 74088000),
    ]
    ok = all(checks)
    _report(3, ok, "8-vertex multiplicative complement values")
    assert ok, checks


def test_criterion_4_half_jump_sweep(half_sweep):
    in_domain = [r for r in half_sweep if r.domain_status is DomainStatus.IN_DOMAIN]
    flagged = {r.point.a for r in half_sweep if r.domain_status is DomainStatus.OUT_OF_DOMAIN}
    ok = (
        {r.point.a for r in in_domain} == set(range(4, 101))
        and all(r.passed for r in in_domain)
        and all(r.fields["distance_vector"].match for r in in_domain)
        and all(r.fields["rho"].match and r.fields["xi"].match and r.fields["rs"].match
                for r in in_domain)
        and flagged == {2, 3}
    )
    _report(4, ok, "half-jump double loop sweep k=4..100 plus adversarial k=2,3")
    assert ok


def test_criterion_5_general_double_loop_sweep(gen_sweep):
    exceptions = [r for r in gen_sweep if r.domain_status is DomainStatus.KNOWN_EXCEPTION]
    in_domain = [r for r in gen_sweep if r.domain_status is DomainStatus.IN_DOMAIN]
    wiener_identity = all(
        Fraction(r.fields["wiener"].computed) == Fraction(r.point.n * (r.point.n - 1), 2) + 2 * r.point.n
        for r in in_domain
    )
    ok = (
        len(gen_sweep) == len(in_domain) + 1
        and [(r.point.n, r.point.a) for r in exceptions] == [(8, 3)]
        and "disconnected" in exceptions[0].note
        and all(r.passed for r in in_domain)
        and all(r.fields["distance_vector"].match for r in in_domain)
        and wiener_identity
    )
    _report(5, ok, "general double loop sweep n=8..100 with the (8,3) exception")
    assert ok


def test_criterion_6_multiplicative_sweep(mc_sweep):
    in_domain = [r for r in mc_sweep if r.domain_status is DomainStatus.IN_DOMAIN]
    flagged = {(r.point.m, r.point.h) for r in mc_sweep
               if r.domain_status is not DomainStatus.IN_DOMAIN}
    remark_points = {(2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2)}
    covered = {(r.point.m, r.point.h) for r in in_domain}
    xi_ok = all(
        int(r.fields["xi"].computed)
        == (2 * r.point.h - 1 if r.point.m == 2 else 2 * r.point.h)
        and r.fields["xi"].match
        for r in in_domain
        if (r.point.m, r.point.h) != (2, 3)  # the 8-vertex special case has xi 9
    )
    ok = (
        all(r.passed for r in in_domain)
        and all(r.fields["distance_vector"].match for r in in_domain)
        and all(r.fields["base_diameter"].match for r in in_domain)
        and remark_points <= covered
        and flagged == {(2, 1), (2, 2), (3, 1), (4, 1)}
        and xi_ok
    )
    _report(6, ok, "multiplicative sweep over every (m, h) with m^h <= 4096")
    assert ok


def test_criterion_7_spectral_cross_check(half_sweep, gen_sweep, mc_sweep):
    records = [r for sweep in (half_sweep, gen_sweep, mc_sweep) for r in sweep
               if r.domain_status is DomainStatus.IN_DOMAIN]
    ok = bool(records) and all(r.fields["spectral_max"].match for r in records)
    _report(7, ok, "numeric spectrum maximum vs exact transmission, all sweeps")
    assert ok


def test_criterion_8_rotation_routing_witness(half_sweep, gen_sweep, mc_sweep):
    records = [r for sweep in (half_sweep, gen_sweep, mc_sweep) for r in sweep
               if r.domain_status is DomainStatus.IN_DOMAIN and r.point.n <= 512]
    ok = bool(records) and all(
        "xi_witness" in r.fields and r.fields["xi_witness"].match for r in records
    )
    _report(8, ok, "uniform-load rotation routing witness for every n <= 512")
    assert ok


def test_criterion_9_property_suite():
    specs = random_connected_specs(200, 256, seed=20250808)
    rotation_ok = True
    star_ok = True
    collapse_ok = True
    for spec in specs:
        dv = distance_vector(spec)
        g = build_circulant(spec)
        if not np.array_equal(distance_matrix(dv), all_pairs_distances(g)):
            rotation_ok = False
        if dv.diameter >= 4 and not has_property_star(g):
            star_ok = False
        r = int(g.degrees()[0])
        report = full_report(g)
        m = Fraction(g.edge_count)
        if not (
            report.schultz == 2 * r * report.wiener
            and report.gutman == r * r * report.wiener
            and report.exact["t_ga"] == m
            and report.exact["t_ag"] == m
        ):
            collapse_ok = False
    ok = rotation_ok and star_ok and collapse_ok
    _report(9, ok, "rotation law, star property, and regularity collapses on 200 random circulants")
    assert ok, (rotation_ok, star_ok, collapse_ok)
