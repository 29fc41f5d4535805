"""Independent checks on LP solutions.

These run in tests and (optionally) after every scheduler solve to catch
modelling or backend bugs: constraint satisfaction, bound satisfaction, a
cross-backend objective gap, and an optimality certificate that proves one
solve optimal from its own primal and dual values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.lp.problem import AssembledLP, LinearProgram, Sense
from repro.lp.result import LPResult

#: HiGHS's default primal and dual feasibility tolerances; a certified
#: solution meets both, each scaled by the magnitude of the terms it bounds
PRIMAL_FEASIBILITY_TOL = 1e-7
DUAL_FEASIBILITY_TOL = 1e-7


@dataclass
class SolutionReport:
    """Outcome of :func:`check_solution`."""

    feasible: bool
    max_violation: float
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.feasible


def check_solution(lp: LinearProgram, result: LPResult, tol: float = 1e-6) -> SolutionReport:
    """Verify a result satisfies every constraint and bound of ``lp``.

    Violations are collected with human-readable descriptions; ``tol`` is an
    absolute tolerance scaled by the magnitude of each row's terms.
    """
    if result.x is None:
        return SolutionReport(feasible=False, max_violation=float("inf"), violations=["no solution vector"])
    x = result.x
    violations: List[str] = []
    worst = 0.0

    for var in lp.variables:
        v = x[var.index]
        # Scale like the constraint checks below: a solver returning
        # 1e9 * (1 + eps) against an upper bound of 1e9 is at its
        # precision limit, not infeasible.
        lo_tol = tol * max(1.0, abs(var.lower)) if np.isfinite(var.lower) else tol
        hi_tol = tol * max(1.0, abs(var.upper)) if np.isfinite(var.upper) else tol
        if v < var.lower - lo_tol:
            violations.append(f"{var.name} = {v} below lower bound {var.lower}")
            worst = max(worst, var.lower - v)
        if v > var.upper + hi_tol:
            violations.append(f"{var.name} = {v} above upper bound {var.upper}")
            worst = max(worst, v - var.upper)

    for con in lp.constraints:
        lhs = sum(c * x[i] for i, c in con.coeffs.items())
        scale = max(1.0, max((abs(c) for c in con.coeffs.values()), default=1.0), abs(con.rhs))
        slack_tol = tol * scale
        if con.sense is Sense.LE and lhs > con.rhs + slack_tol:
            violations.append(f"{con.name}: {lhs} <= {con.rhs} violated")
            worst = max(worst, lhs - con.rhs)
        elif con.sense is Sense.GE and lhs < con.rhs - slack_tol:
            violations.append(f"{con.name}: {lhs} >= {con.rhs} violated")
            worst = max(worst, con.rhs - lhs)
        elif con.sense is Sense.EQ and abs(lhs - con.rhs) > slack_tol:
            violations.append(f"{con.name}: {lhs} == {con.rhs} violated")
            worst = max(worst, abs(lhs - con.rhs))

    return SolutionReport(feasible=not violations, max_violation=worst, violations=violations)


def duality_gap(lp: LinearProgram, primal: LPResult, reference: LPResult) -> float:
    """Relative objective gap between two solves of the same model.

    Used to cross-validate backends: for two optimal solutions the gap must
    be ~0 regardless of which (possibly different) vertex each backend found.
    """
    if not (primal.is_optimal and reference.is_optimal):
        raise ValueError("both results must be optimal to compare")
    denom = max(1.0, abs(reference.objective))
    return abs(primal.objective - reference.objective) / denom


def objective_value(lp: LinearProgram, x: np.ndarray) -> float:
    """Evaluate the model objective at an arbitrary point."""
    return lp.objective.constant + sum(c * x[i] for i, c in lp.objective.coeffs.items())


@dataclass
class Certificate:
    """Outcome of :func:`certify_optimal`.

    Each figure is the worst violation of one optimality condition,
    relative to the magnitude of the terms it is computed from.
    """

    primal_infeasibility: float
    dual_infeasibility: float
    gap: float
    violations: List[str] = field(default_factory=list)

    @property
    def optimal(self) -> bool:
        """True when every condition holds within its tolerance."""
        return not self.violations

    def __bool__(self) -> bool:
        return self.optimal


def _worst(ratios: np.ndarray) -> Tuple[float, int]:
    """(largest ratio, its index), a NaN counting as largest; (0.0, -1) if empty."""
    if not ratios.size:
        return 0.0, -1
    i = int(np.argmax(ratios))
    return float(ratios[i]), i


def certify_optimal(asm: AssembledLP, result: LPResult) -> Certificate:
    """Prove ``result`` optimal for ``asm`` from its own ``x`` and row duals.

    With row duals ``y`` (``dual_ub``, ``dual_eq``: d objective / d rhs) and
    reduced costs ``d = c - A^T y``, three conditions must hold:

    * **primal feasibility**: every row and bound holds within
      :data:`PRIMAL_FEASIBILITY_TOL`, scaled by ``max(1, |b_i|, sum|a_ij x_j|)``
      per row and ``max(1, |bound|)`` per bound;
    * **dual sign feasibility**: ``y <= 0`` on ``<=`` rows, ``d_j >= 0``
      where only the lower bound is finite, ``d_j <= 0`` where only the
      upper one is, ``d_j = 0`` on free columns, within
      :data:`DUAL_FEASIBILITY_TOL` scaled by ``max(1, |c_j|, sum|a_ij y_i|)``
      (``max(1, |y_i|)`` for a row dual);
    * **zero gap**: the reported objective equals ``c^T x`` plus the
      constant, and the dual objective ``b^T y + sum d_j z_j`` (``z_j`` the
      bound a reduced cost prices, a term whose bound is infinite counting
      0) equals it, both within :data:`PRIMAL_FEASIBILITY_TOL` relative to
      ``max(1, |c^T x|, |dual objective|)``.

    Any optimal vertex or interior point passes; which of several optima a
    backend returns does not matter.
    """
    if result.x is None or result.dual_ub is None or result.dual_eq is None:
        inf = float("inf")
        return Certificate(inf, inf, inf, ["no primal or dual solution to certify"])
    x = np.asarray(result.x, dtype=np.float64)
    c = np.asarray(asm.c, dtype=np.float64)
    lower, upper = asm.bounds[:, 0], asm.bounds[:, 1]
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    violations: List[str] = []
    primal: List[float] = []
    dual: List[float] = []

    reduced = c.copy()
    reduced_scale = np.abs(c)
    dual_terms = []
    for a, b, y, sense in (
        (asm.a_ub, asm.b_ub, result.dual_ub, "<="),
        (asm.a_eq, asm.b_eq, result.dual_eq, "=="),
    ):
        if not a.shape[0]:
            continue  # a zero-row block may carry a stale column count
        b = np.asarray(b, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        residual = a @ x - b
        excess = np.abs(residual) if sense == "==" else np.maximum(residual, 0.0)
        value, i = _worst(excess / np.maximum(1.0, np.maximum(np.abs(b), abs(a) @ np.abs(x))))
        primal.append(value)
        if not value <= PRIMAL_FEASIBILITY_TOL:
            violations.append(f"primal infeasible: row {sense} {i} has A x - b = {residual[i]:.3e}")
        if sense == "<=":
            value, i = _worst(np.maximum(y, 0.0) / np.maximum(1.0, np.abs(y)))
            dual.append(value)
            if not value <= DUAL_FEASIBILITY_TOL:
                violations.append(f"dual infeasible: row <= {i} has dual {y[i]:.3e} > 0")
        reduced -= a.T @ y
        reduced_scale += abs(a).T @ np.abs(y)
        dual_terms.append(b * y)

    finite_lower = np.where(has_lower, lower, 0.0)
    finite_upper = np.where(has_upper, upper, 0.0)
    below = np.where(has_lower, finite_lower - x, 0.0) / np.maximum(1.0, np.abs(finite_lower))
    above = np.where(has_upper, x - finite_upper, 0.0) / np.maximum(1.0, np.abs(finite_upper))
    value, j = _worst(np.maximum(np.maximum(below, above), 0.0))
    primal.append(value)
    if not value <= PRIMAL_FEASIBILITY_TOL:
        violations.append(f"primal infeasible: column {j} = {x[j]:.6g} is outside its bounds")

    # a reduced cost may only take the signs its column's finite bounds allow
    wrong_sign = np.where(has_upper, 0.0, np.maximum(-reduced, 0.0)) + np.where(
        has_lower, 0.0, np.maximum(reduced, 0.0)
    )
    value, j = _worst(wrong_sign / np.maximum(1.0, reduced_scale))
    dual.append(value)
    if not value <= DUAL_FEASIBILITY_TOL:
        violations.append(f"dual infeasible: column {j} has reduced cost {reduced[j]:.3e}")

    priced = np.where(reduced > 0, lower, np.where(reduced < 0, upper, 0.0))
    dual_terms.append(np.where(np.isfinite(priced), reduced * priced, 0.0))
    cost_terms = c * x
    primal_objective = float(cost_terms.sum())
    dual_objective = float(sum(t.sum() for t in dual_terms))
    reported = float(result.objective) - asm.objective_constant
    magnitude = max(1.0, abs(primal_objective), abs(dual_objective))
    gap = max(abs(reported - primal_objective), abs(reported - dual_objective)) / magnitude
    if not gap <= PRIMAL_FEASIBILITY_TOL:
        violations.append(
            f"objective gap: reported {reported:.12g}, c^T x {primal_objective:.12g}, "
            f"dual {dual_objective:.12g}"
        )
    return Certificate(float(np.max(primal)), float(np.max(dual)), gap, violations)
