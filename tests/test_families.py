import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import circan.families as families

from circan import (
    INDEX_FIELDS,
    CirculantSpec,
    DomainStatus,
    Family,
    FamilyPoint,
    base_spec,
    c7_point,
    complement_spec,
    distance_vector,
    domain_status,
    double_loop_gen_point,
    double_loop_half_point,
    multiplicative_base_diameter,
    multiplicative_point,
    predict,
    predicted_distance_vector,
)
from circan.errors import (
    InconsistentPredictionError,
    InvariantError,
    KnownExceptionError,
    OutOfDomainError,
)


def alternate_rt_az_form(point):
    """Sign-rearranged augmented-Zagreb closed forms for the multiplicative
    families; algebraically equal to the canonical positive forms."""
    n, h = point.n, point.h
    if point.family is Family.MC_2H:
        return Fraction(
            n * (2 * h - n) * (1 + 2 * h - 2 * n) ** 6,
            128 * (3 + 2 * h - 2 * n) ** 3,
        )
    if point.family is Family.MC_GEN:
        return Fraction(
            n * (1 + 2 * h - n) * (1 + h - n) ** 6,
            16 * (2 + h - n) ** 3,
        )
    return None


def double_loop_diameter_lower_bound(n):
    """Integer lower bound ceil((sqrt(2n-1)-1)/2) on the minimum diameter
    over all n-vertex double loops, computed exactly."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    # smallest t with (2t+1)^2 >= 2n-1
    return (math.isqrt(2 * n - 2) + 1) // 2


class TestPointConstruction:
    def test_half(self):
        p = double_loop_half_point(6)
        assert (p.family, p.n, p.a) == (Family.DOUBLE_LOOP_HALF, 12, 6)
        assert base_spec(p) == CirculantSpec.of(12, [1, 6])

    def test_gen_validation(self):
        with pytest.raises(ValueError):
            double_loop_gen_point(10, 5)  # a = n/2 belongs to the half family
        with pytest.raises(ValueError):
            double_loop_gen_point(10, 1)

    def test_multiplicative_family_assignment(self):
        assert multiplicative_point(2, 3).family is Family.MC_23
        assert multiplicative_point(2, 5).family is Family.MC_2H
        assert multiplicative_point(3, 2).family is Family.MC_GEN

    def test_multiplicative_base_spec_folds_jumps(self):
        p = multiplicative_point(2, 4)
        assert base_spec(p) == CirculantSpec.of(16, [1, 2, 4, 8])

    @pytest.mark.parametrize("family", list(Family))
    def test_multiplicative_point_without_m_is_an_invariant_error(self, family):
        # every family's point built without its own parameter: a for the
        # double loops, m for the multiplicative circulants
        point = {
            Family.DOUBLE_LOOP_HALF: FamilyPoint(family, n=8),
            Family.DOUBLE_LOOP_GEN: FamilyPoint(family, n=10),
            Family.C7_SPECIAL: FamilyPoint(family, n=7),
            Family.MC_2H: FamilyPoint(family, n=16, m=None, h=4),
            Family.MC_GEN: FamilyPoint(family, n=16, m=None, h=4),
            Family.MC_23: FamilyPoint(family, n=8, m=None, h=3),
        }[family]
        with pytest.raises(InvariantError):
            base_spec(point)
        with pytest.raises(InvariantError):
            predicted_distance_vector(point)
        if family in (Family.DOUBLE_LOOP_HALF, Family.DOUBLE_LOOP_GEN):
            with pytest.raises(InvariantError):
                domain_status(point)

    def test_parameter_checks_survive_python_O(self):
        # python -O strips assert statements, not these checks
        code = ("from circan import Family, FamilyPoint, base_spec\n"
                "from circan.errors import InvariantError\n"
                "try:\n"
                "    base_spec(FamilyPoint(Family.MC_GEN, n=9, h=2))\n"
                "except InvariantError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


# Per family: a point with its base jumps and label, and one point for each
# domain status and reason of the family. The reasons reach the verify
# records' notes and the labels the domain errors' texts.
_IN, _KNOWN, _OUT = DomainStatus.IN_DOMAIN, DomainStatus.KNOWN_EXCEPTION, DomainStatus.OUT_OF_DOMAIN
_TABLE_FACTS = {
    Family.DOUBLE_LOOP_HALF: (double_loop_half_point(6), (1, 6), "complement of C12(1,6)", [
        (double_loop_half_point(2), _OUT, "complement of the complete graph K4 is edgeless"),
        (double_loop_half_point(3), _OUT, "complement splits into two triangles"),
        (double_loop_half_point(4), _IN, ""),
    ]),
    Family.DOUBLE_LOOP_GEN: (double_loop_gen_point(12, 3), (1, 3), "complement of C12(1,3)", [
        (double_loop_gen_point(8, 3), _KNOWN, "complement is disconnected"),
        (double_loop_gen_point(7, 2), _OUT, "order below the formulas' domain (n >= 8)"),
        (double_loop_gen_point(8, 2), _IN, ""),
    ]),
    Family.C7_SPECIAL: (c7_point(3), (1, 3), "complement of C7(1,3)", [
        (c7_point(2), _IN, ""),
        (c7_point(3), _IN, ""),
    ]),
    Family.MC_2H: (multiplicative_point(2, 4), (1, 2, 4, 8),
                   "complement of C16(1,2,...)^[m=2,h=4]", [
        (multiplicative_point(2, 2), _OUT, "complement is edgeless"),
        (multiplicative_point(2, 4), _IN, ""),
    ]),
    Family.MC_GEN: (multiplicative_point(3, 3), (1, 3, 9), "complement of C27(1,3,...)^[m=3,h=3]", [
        (multiplicative_point(3, 1), _OUT, "complement of the complete graph K3 is edgeless"),
        (multiplicative_point(4, 1), _OUT, "complement is a perfect matching (disconnected)"),
        (multiplicative_point(5, 1), _IN, ""),
        (multiplicative_point(3, 2), _IN, ""),
    ]),
    Family.MC_23: (multiplicative_point(2, 3), (1, 2, 4), "complement of C8(1,2,...)^[m=2,h=3]", [
        (multiplicative_point(2, 3), _IN, ""),
    ]),
}


@pytest.mark.parametrize("family", list(Family))
def test_family_table_facts(family):
    point, jumps, label, domains = _TABLE_FACTS[family]
    assert point.family is family
    assert base_spec(point).jumps == jumps
    assert point.label() == label
    for domain_point, status, reason in domains:
        assert domain_point.family is family
        assert domain_status(domain_point) == (status, reason), domain_point


def test_family_members_named_only_in_the_table_and_point_constructors():
    """The family table is the one place that states a family's facts: a
    ``Family`` member is named only in its rows and in the point
    constructors, and the verifier and the CLI name no family at all."""
    import circan.families as families_module

    src = Path(families_module.__file__).parent
    names = {family.value for family in Family} | {"mc"}

    def members(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "Family"
                and node.attr in Family.__members__]

    tree = ast.parse((src / "families.py").read_text(encoding="utf-8"))
    allowed = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_RULES"]
                or isinstance(node, ast.FunctionDef) and node.name.endswith("_point")):
            allowed |= {id(member) for member in members(node)}
    assert allowed
    assert all(id(member) in allowed for member in members(tree))
    for module in ("verifier.py", "cli.py"):
        tree = ast.parse((src / module).read_text(encoding="utf-8"))
        assert not members(tree), module
        literals = [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        assert not names & set(literals), module


class TestDomains:
    def test_half_adversarial_points(self):
        assert domain_status(double_loop_half_point(2))[0] is DomainStatus.OUT_OF_DOMAIN
        assert domain_status(double_loop_half_point(3))[0] is DomainStatus.OUT_OF_DOMAIN
        assert domain_status(double_loop_half_point(4))[0] is DomainStatus.IN_DOMAIN

    def test_gen_known_exception(self):
        assert domain_status(double_loop_gen_point(8, 3))[0] is DomainStatus.KNOWN_EXCEPTION
        with pytest.raises(KnownExceptionError):
            predicted_distance_vector(double_loop_gen_point(8, 3))

    def test_gen_below_domain(self):
        assert domain_status(double_loop_gen_point(6, 2))[0] is DomainStatus.OUT_OF_DOMAIN
        with pytest.raises(OutOfDomainError):
            predict(double_loop_gen_point(6, 2))

    def test_multiplicative_domains(self):
        out = [(2, 1), (2, 2), (3, 1), (4, 1)]
        for m, h in out:
            assert domain_status(multiplicative_point(m, h))[0] is DomainStatus.OUT_OF_DOMAIN
        for m, h in [(2, 4), (3, 2), (4, 2), (5, 1), (9, 1)]:
            assert domain_status(multiplicative_point(m, h))[0] is DomainStatus.IN_DOMAIN


class TestPredictedVectors:
    def test_half_eight(self):
        vec = predicted_distance_vector(double_loop_half_point(4))
        assert vec.tolist() == [0, 2, 1, 1, 2, 1, 1, 2]

    def test_mc23(self):
        vec = predicted_distance_vector(multiplicative_point(2, 3))
        assert vec.tolist() == [0, 3, 2, 1, 4, 1, 2, 3]

    def test_gen_ten_three(self):
        vec = predicted_distance_vector(double_loop_gen_point(10, 3))
        twos = [v for v in range(10) if vec[v] == 2]
        assert twos == [1, 3, 7, 9]
        assert vec.sum() == 13  # n + 3

    def test_c7_vectors_match_bfs(self):
        for a in (2, 3):
            point = c7_point(a)
            vec = predicted_distance_vector(point)
            actual = distance_vector(complement_spec(base_spec(point)))
            assert vec.tolist() == actual.d.tolist()

    @pytest.mark.parametrize("point", [double_loop_half_point(4), double_loop_gen_point(10, 3),
                                       c7_point(2), multiplicative_point(2, 3),
                                       multiplicative_point(3, 2)])
    def test_read_only_int64_of_order_n(self, point):
        vec = predicted_distance_vector(point)
        assert vec.dtype == np.int64 and vec.shape == (point.n,)
        assert not vec.flags.writeable
        assert predict(point).distance_vector.tolist() == vec.tolist()

    def test_a_stated_vector_of_the_wrong_length_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setitem(families._C7_VECTORS, 2, (0, 2, 3, 1, 3, 2))
        with pytest.raises(InvariantError, match=r"expected 7 entries, got shape \(6,\)"):
            predicted_distance_vector(c7_point(2))


class TestPredictions:
    def test_half_twelve(self):
        pred = predict(double_loop_half_point(6))
        assert pred.rho == 14
        assert pred.rs == Fraction(19, 2)
        assert pred.xi == 3
        assert (pred.pi_lower, pred.pi_upper) == (Fraction(28, 8), 11)
        assert pred.indices["wiener"] == 84

    def test_c7(self):
        pred = predict(c7_point(2))
        assert (pred.rho, pred.xi) == (12, 6)
        assert pred.indices["wiener"] == 42
        assert pred.indices["t_az"] == Fraction(2612736, 1331)

    def test_mc_gen_five_squared(self):
        pred = predict(multiplicative_point(5, 2))
        assert pred.rho == 25 + 2 * 2 - 1
        assert pred.xi == 4
        assert pred.rs == 22

    def test_mc_2h_sixteen(self):
        pred = predict(multiplicative_point(2, 4))
        assert pred.rho == 22
        assert pred.rs == Fraction(23, 2)
        assert pred.xi == 7
        assert pred.indices["t_az"] == Fraction(907039232, 9261)

    def test_internal_consistency_over_sweeps(self):
        points = (
            [double_loop_half_point(k) for k in range(4, 40)]
            + [double_loop_gen_point(n, a) for n in range(8, 30)
               for a in range(2, (n - 1) // 2 + 1) if (n, a) != (8, 3)]
            + [multiplicative_point(m, h) for m, h in [(2, 4), (2, 7), (3, 3), (5, 2), (7, 1), (11, 1)]]
        )
        for point in points:
            pred = predict(point)  # raises if the scalar and vector forms disagree
            assert pred.xi == pred.rho - (point.n - 1)

    def test_each_index_in_its_closed_form_type(self):
        roots = {"t_sc", "t_abc", "rt_sc", "rt_abc"}
        for point in (double_loop_half_point(6), double_loop_gen_point(12, 3), c7_point(2),
                      multiplicative_point(2, 3), multiplicative_point(2, 5),
                      multiplicative_point(3, 2)):
            indices = predict(point).indices
            assert set(indices) == set(INDEX_FIELDS), point
            for name, value in indices.items():
                assert type(value) is (float if name in roots else Fraction), (point, name)

    def test_inconsistent_closed_form_raises(self, monkeypatch):
        import circan.families as families_module

        real = families_module._predict_c7

        def corrupted():
            rho, degree, rs, pi_lo, pi_hi, report = real()
            return rho + 1, degree, rs, pi_lo, pi_hi, report

        monkeypatch.setattr(families_module, "_predict_c7", corrupted)
        with pytest.raises(InconsistentPredictionError, match="rho"):
            predict(c7_point(2))


class TestAlternateForms:
    def test_sign_rearrangements_equal_canonical(self):
        points = [multiplicative_point(2, h) for h in range(4, 10)]
        points += [multiplicative_point(m, h) for m, h in [(3, 2), (3, 4), (5, 2), (9, 1), (6, 2)]]
        for point in points:
            alt = alternate_rt_az_form(point)
            assert alt is not None
            assert alt == predict(point).indices["rt_az"], point

    def test_absent_for_double_loops(self):
        assert alternate_rt_az_form(double_loop_half_point(6)) is None


class TestDiameterClosedForms:
    def test_examples(self):
        assert multiplicative_base_diameter(2, 3) == 2
        assert multiplicative_base_diameter(3, 2) == 2
        assert multiplicative_base_diameter(2, 1) == 1

    def test_matches_bfs_to_512(self):
        m = 2
        while m**1 <= 512:
            n, h = m, 1
            while n <= 512:
                spec = base_spec(multiplicative_point(m, h))
                assert distance_vector(spec).diameter == multiplicative_base_diameter(m, h), (m, h)
                n *= m
                h += 1
            m += 1

    def test_double_loop_lower_bound_examples(self):
        assert double_loop_diameter_lower_bound(26) == 4
        assert double_loop_diameter_lower_bound(25) == 3
        assert double_loop_diameter_lower_bound(2) == 1

    def test_double_loop_lower_bound_is_exact_ceiling(self):
        for n in range(2, 2000):
            t = double_loop_diameter_lower_bound(n)
            assert (2 * t + 1) ** 2 >= 2 * n - 1
            assert t == 0 or (2 * (t - 1) + 1) ** 2 < 2 * n - 1

    def test_half_jump_base_diameter_claim(self):
        # diameter of C_2k(1, k) is k/2 for even k, (k+1)/2 for odd k;
        # cross-checked by BFS rather than assumed
        for k in range(2, 65):
            spec = CirculantSpec.of(2 * k, [1, k])
            want = k // 2 if k % 2 == 0 else (k + 1) // 2
            assert distance_vector(spec).diameter == want, k


def test_families_independent_of_the_engine():
    """The closed forms read only the graph types, never the code that
    checks them."""
    import circan.families as families_module

    tree = ast.parse(Path(families_module.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("circan")):
            package.add((node.module or "").removeprefix("circan").lstrip(".").split(".")[0])
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("circan") for alias in node.names)
    assert package == {"core", "errors", "metrics"}
