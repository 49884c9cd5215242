"""Mutation analysis of the closed forms: a wrong closed-form value must make
``verify`` fail.

Each of the 22 values of each ``families._predict_*`` (the five scalars rho,
degree, rs and the two edge-forwarding bounds, and the seventeen indices) is
mutated twice, by +1 and by a nudge (relative 1e-10 for a float, +1/10**12
for an exact value), and the mutant is run through a sweep of its family. A
mutant is caught when a record fails or ``predict``'s consistency check
raises.
"""

from fractions import Fraction

import circan.families as families
from circan import (
    INDEX_FIELDS,
    c7_points,
    double_loop_gen_point,
    double_loop_half_point,
    has_failures,
    multiplicative_point,
    verify_sweep,
)
from circan.errors import InconsistentPredictionError

_SWEEPS = {
    "_predict_double_loop_half": [double_loop_half_point(6), double_loop_half_point(7)],
    "_predict_double_loop_gen": [double_loop_gen_point(10, 2), double_loop_gen_point(11, 3)],
    "_predict_c7": c7_points(),
    "_predict_mc23": [multiplicative_point(2, 3)],
    "_predict_mc_2h": [multiplicative_point(2, 4)],
    "_predict_mc_gen": [multiplicative_point(3, 2), multiplicative_point(5, 1)],
}
# the order of the scalars in a predictor's result, before the indices
_SCALARS = ("rho", "degree", "rs", "pi_lower", "pi_upper")
_CHANGES = {
    "plus_one": lambda value: value + 1,
    "nudge": lambda value: (value * (1 + 1e-10) if isinstance(value, float)
                            else value + Fraction(1, 10**12)),
}
# The square-root-valued indices are compared at FLOAT_TOL (1e-9 relative),
# so a relative nudge of 1e-10 passes them; comparing their exact roots
# would catch these.
SURVIVORS = {
    (predictor, name, "nudge")
    for predictor in _SWEEPS
    for name in ("t_sc", "t_abc", "rt_sc", "rt_abc")
}


def _mutant(real, slot: str, change):
    def predictor(*args):
        *scalars, indices = real(*args)
        if slot in _SCALARS:
            i = _SCALARS.index(slot)
            scalars[i] = change(scalars[i])
        else:
            indices = {**indices, slot: change(indices[slot])}
        return (*scalars, indices)

    return predictor


def _caught(points) -> bool:
    try:
        return has_failures(verify_sweep(points))
    except InconsistentPredictionError:
        return True


def test_every_predictor_is_swept():
    # a new family row brings a new _predict_*, which the mutation run must reach
    assert set(_SWEEPS) == {name for name in vars(families) if name.startswith("_predict_")}


def test_closed_form_mutants_are_caught(monkeypatch):
    assert len(_SCALARS) + len(INDEX_FIELDS) == 22
    caught, survived = set(), set()
    for predictor, points in _SWEEPS.items():
        assert not _caught(points), predictor
        real = getattr(families, predictor)
        for slot in (*_SCALARS, *INDEX_FIELDS):
            for kind, change in _CHANGES.items():
                with monkeypatch.context() as patch:
                    patch.setattr(families, predictor, _mutant(real, slot, change))
                    (caught if _caught(points) else survived).add((predictor, slot, kind))
    assert len(caught) == 240
    assert survived == SURVIVORS
