"""The optimality certificate accepts optimal solves and rejects broken ones.

:func:`~repro.lp.validation.certify_optimal` proves a solve optimal from its
own ``x`` and row duals: primal feasibility, dual sign feasibility and a
zero primal-dual gap, each within HiGHS's feasibility tolerances.  Every
optimal HiGHS solve of the hypothesis LPs and of real epoch models must
pass; a solution nudged off a bound, a dual with its sign flipped, or a
shifted objective must not.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.optimize._highspy import _core as highs_core

from repro.lp.problem import LinearProgram, Sense
from repro.lp.result import LPResult, LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.lp.validation import (
    DUAL_FEASIBILITY_TOL,
    PRIMAL_FEASIBILITY_TOL,
    certify_optimal,
)
from tests.lp.test_highs_direct import _lips_models, _serve_models
from tests.lp.test_presolve import small_lp
from tests.lp.test_property_backends import bounded_lp


def _solve(asm, backend=None):
    return (backend or HighsBackend()).solve_assembled(asm)


def nudged_off_bound(asm, result):
    """``x`` with its first column that sits on a finite bound pushed past it."""
    x = result.x.copy()
    lower, upper = asm.bounds[:, 0], asm.bounds[:, 1]
    at_lower = np.isfinite(lower) & (np.abs(x - lower) <= 1e-9)
    at_upper = np.isfinite(upper) & (np.abs(x - upper) <= 1e-9)
    step = 1e-4 * np.maximum(1.0, np.abs(x))
    if at_lower.any():
        j = int(np.flatnonzero(at_lower)[0])
        x[j] = lower[j] - step[j]
    else:
        j = int(np.flatnonzero(at_upper)[0])
        x[j] = upper[j] + step[j]
    return dataclasses.replace(result, x=x)


def flipped_dual(result):
    """The result with the sign of its largest row dual flipped."""
    duals = np.concatenate((result.dual_ub, result.dual_eq))
    i = int(np.argmax(np.abs(duals)))
    duals[i] = -duals[i]
    m_ub = result.dual_ub.shape[0]
    return dataclasses.replace(result, dual_ub=duals[:m_ub], dual_eq=duals[m_ub:])


def shifted_objective(result):
    """The result with its objective moved by 1e-6 of its magnitude."""
    shift = 1e-6 * max(1.0, abs(result.objective))
    return dataclasses.replace(result, objective=result.objective + shift)


def assert_mutations_rejected(asm, result):
    lower, upper = asm.bounds[:, 0], asm.bounds[:, 1]
    if np.any(np.isclose(result.x, lower) | np.isclose(result.x, upper)):
        assert not certify_optimal(asm, nudged_off_bound(asm, result))
    if max(np.abs(result.dual_ub).max(initial=0.0), np.abs(result.dual_eq).max(initial=0.0)) > 1e-3:
        assert not certify_optimal(asm, flipped_dual(result))
    assert not certify_optimal(asm, shifted_objective(result))


def test_tolerances_are_highs_defaults():
    highs = highs_core._Highs()
    assert highs.getOptionValue("primal_feasibility_tolerance")[1] == PRIMAL_FEASIBILITY_TOL
    assert highs.getOptionValue("dual_feasibility_tolerance")[1] == DUAL_FEASIBILITY_TOL


@given(bounded_lp())
@settings(max_examples=60, deadline=None)
def test_hypothesis_optima_certify(lp):
    asm = lp.assemble()
    result = _solve(asm)
    assume(result.is_optimal)
    cert = certify_optimal(asm, result)
    assert cert, cert.violations
    assert_mutations_rejected(asm, result)


@given(small_lp())
@settings(max_examples=40, deadline=None)
def test_small_lp_optima_certify(lp):
    asm = lp.assemble()
    result = _solve(asm)
    assume(result.is_optimal)
    cert = certify_optimal(asm, result)
    assert cert, cert.violations
    assert_mutations_rejected(asm, result)


@pytest.mark.parametrize("collect", [_lips_models, _serve_models], ids=["lips-sim", "serve"])
def test_epoch_models_certify(collect):
    certified = 0
    for asm in collect():
        result = _solve(asm)
        if not result.is_optimal:
            continue
        cert = certify_optimal(asm, result)
        assert cert, cert.violations
        assert_mutations_rejected(asm, result)
        certified += 1
    assert certified >= 3


def test_simplex_backend_optima_certify():
    """The certificate reads the from-scratch simplex's duals the same way."""
    for asm in _lips_models()[:5]:
        result = _solve(asm, SimplexBackend())
        assert result.is_optimal
        cert = certify_optimal(asm, result)
        assert cert, cert.violations


def _known_lp():
    """min x + 2y  s.t.  x + y >= 1,  x - y == 0,  0 <= x, y <= 4."""
    lp = LinearProgram("known")
    x = lp.new_var("x", upper=4.0)
    y = lp.new_var("y", upper=4.0)
    lp.add_constraint(x + y, Sense.GE, 1.0)
    lp.add_constraint(x - y, Sense.EQ, 0.0)
    lp.set_objective(x + 2.0 * y + 5.0)
    return lp.assemble()


def test_known_optimum_and_each_mutation():
    asm = _known_lp()
    result = _solve(asm)
    assert result.objective == pytest.approx(6.5)
    cert = certify_optimal(asm, result)
    assert cert and cert.primal_infeasibility <= 1e-12 and cert.gap <= 1e-12

    off = certify_optimal(asm, dataclasses.replace(result, x=np.array([0.5, -1e-3])))
    assert any(v.startswith("primal infeasible") for v in off.violations)
    flipped = certify_optimal(asm, flipped_dual(result))
    assert any(v.startswith("dual infeasible") for v in flipped.violations)
    shifted = certify_optimal(asm, shifted_objective(result))
    assert [v.split(":")[0] for v in shifted.violations] == ["objective gap"]


@pytest.mark.parametrize("upper", [np.inf, 5.0], ids=["lower-only", "boxed"])
def test_reduced_cost_sign_follows_the_bounds(upper):
    """min x s.t. x >= 1: a row dual of -2 prices x at -1, a wrong sign only
    when x has no finite upper bound; either way it leaves a gap."""
    lp = LinearProgram("sign")
    x = lp.new_var("x", upper=upper)
    lp.add_constraint(x + 0.0, Sense.GE, 1.0)
    lp.set_objective(x)
    asm = lp.assemble()
    result = _solve(asm)
    assert certify_optimal(asm, result)
    overpriced = dataclasses.replace(result, dual_ub=2.0 * result.dual_ub)
    violations = certify_optimal(asm, overpriced).violations
    wrong_sign = any(v.startswith("dual infeasible: column") for v in violations)
    assert wrong_sign is not bool(np.isfinite(upper))
    assert violations[-1].startswith("objective gap")


def test_suboptimal_feasible_point_is_rejected():
    """A feasible but non-optimal x with the optimal duals leaves a gap."""
    asm = _known_lp()
    result = _solve(asm)
    worse = dataclasses.replace(result, x=np.array([1.0, 1.0]), objective=8.0)
    cert = certify_optimal(asm, worse)
    assert cert.primal_infeasibility == 0.0
    assert [v.split(":")[0] for v in cert.violations] == ["objective gap"]


def test_missing_duals_are_not_certified():
    asm = _known_lp()
    result = dataclasses.replace(_solve(asm), dual_ub=None)
    cert = certify_optimal(asm, result)
    assert not cert and cert.violations == ["no primal or dual solution to certify"]
    assert not certify_optimal(asm, LPResult(LPStatus.INFEASIBLE, float("nan"), None))
