"""HiGHS backend — solves assembled LPs through scipy's HiGHS binding.

This is the production path (the paper used GLPK's simplex; HiGHS is its
modern equivalent).  The from-scratch :mod:`repro.lp.simplex` backend exists
to cross-check this one in tests.

Each solve loads the model into a fresh ``_Highs`` instance of
``scipy.optimize._highspy._core`` and picks the solver by model size
(:data:`IPM_MIN_COLUMNS`): dual simplex with presolve off below it, the
interior-point solver with presolve and crossover at or above it.  The
options are the ones ``linprog`` passes for ``method="highs"`` with
``presolve=False`` and for ``method="highs-ipm"`` respectively, and the
backend keeps linprog's status table, message text and post-solve
feasibility check, so each result is the one ``linprog`` returns for that
method without its per-solve Python overhead (DESIGN §13.2, "The HiGHS
entry point").
"""

from __future__ import annotations

import math
import time
from typing import Tuple

import numpy as np
from scipy import sparse

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    raise ImportError(
        "repro.lp.scipy_backend needs scipy>=1.15, which ships the HiGHS "
        "binding scipy.optimize._highspy._core"
    ) from exc

from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.obs import lpprof

_MS = _highs.HighsModelStatus

#: HiGHS model status -> (our status, linprog's message prefix); a copy of
#: scipy's ``_highs_to_scipy_status_message`` table
_STATUS_TABLE = {
    _MS.kNotset: (LPStatus.NUMERICAL, ""),
    _MS.kLoadError: (LPStatus.NUMERICAL, ""),
    _MS.kModelError: (LPStatus.INFEASIBLE, ""),
    _MS.kPresolveError: (LPStatus.NUMERICAL, ""),
    _MS.kSolveError: (LPStatus.NUMERICAL, ""),
    _MS.kPostsolveError: (LPStatus.NUMERICAL, ""),
    _MS.kModelEmpty: (LPStatus.NUMERICAL, ""),
    _MS.kObjectiveBound: (LPStatus.NUMERICAL, ""),
    _MS.kObjectiveTarget: (LPStatus.NUMERICAL, ""),
    _MS.kOptimal: (LPStatus.OPTIMAL, "Optimization terminated successfully. "),
    _MS.kTimeLimit: (LPStatus.ITERATION_LIMIT, "Time limit reached. "),
    _MS.kIterationLimit: (LPStatus.ITERATION_LIMIT, "Iteration limit reached. "),
    _MS.kInfeasible: (LPStatus.INFEASIBLE, "The problem is infeasible. "),
    _MS.kUnbounded: (LPStatus.UNBOUNDED, "The problem is unbounded. "),
    _MS.kUnboundedOrInfeasible: (
        LPStatus.NUMERICAL,
        "The problem is unbounded or infeasible. ",
    ),
}
_UNRECOGNISED = (LPStatus.NUMERICAL, "The HiGHS status code was not recognized. ")

#: Crossover: models with at least this many columns go to the
#: interior-point solver, smaller ones to dual simplex.  Pinned on captured
#: block-scenario epoch models (DESIGN §13.2): simplex wins at 24k columns
#: (0.33 vs 0.60 s), IPM on every model from 25k (0.38 vs 0.56 s) to 64k
#: (0.88 vs 2.96 s).
IPM_MIN_COLUMNS = 25_000

#: options both solver paths set, as linprog does; every other option keeps
#: its HiGHS default
_COMMON_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("simplex_strategy", int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
    ("highs_debug_level", int(_highs.HighsDebugLevel.kHighsDebugLevelNone)),
)
#: below the crossover: ``linprog(method="highs", options={"presolve": False})``
_SIMPLEX_OPTIONS = _COMMON_OPTIONS + (("presolve", "off"),)
#: at or above it: ``linprog(method="highs-ipm")``; crossover turns the
#: interior point into a vertex with row duals and a valid basis
_IPM_OPTIONS = _COMMON_OPTIONS + (("presolve", "on"), ("solver", "ipm"), ("run_crossover", "on"))

#: the presolve fields of an :class:`~repro.obs.lpprof.LPSolveRecord` for a
#: solve that ran no presolve
_NO_PRESOLVE = {"presolve_applied": False, "presolve_fixed_vars": 0, "presolve_dropped_rows": 0}

#: linprog's post-solve feasibility tolerance: ``sqrt(tol) * 10``, tol=1e-9
FEASIBILITY_TOL = math.sqrt(1e-9) * 10
_INFEASIBLE_MESSAGE = (
    "The solution does not satisfy the constraints within the "
    f"required tolerance of {FEASIBILITY_TOL:.2E}, yet "
    "no errors were raised and there is no certificate of "
    "infeasibility or unboundedness. Check whether "
    "the slack and constraint residuals are acceptable; "
    "if not, consider enabling presolve, adjusting the "
    "tolerance option(s), and/or using a different method. "
    "Please consider submitting a bug report."
)


def _status_message(model_status, highs_text: str):
    """linprog's (status, message) pair for a HiGHS model status."""
    status, prefix = _STATUS_TABLE.get(model_status, _UNRECOGNISED)
    return status, f"{prefix}(HiGHS Status {int(model_status)}: {highs_text})"


def is_feasible(x, lower, upper, slack, residual) -> bool:
    """linprog's check that an "optimal" point satisfies the model.

    ``slack`` is ``b_ub - A_ub x`` and ``residual`` is ``b_eq - A_eq x``;
    NaNs anywhere, a bound violated by more than :data:`FEASIBILITY_TOL`, a
    negative slack or a nonzero residual beyond it make the point infeasible.
    """
    if np.isnan(x).any() or np.isnan(slack).any() or np.isnan(residual).any():
        return False
    tol = FEASIBILITY_TOL
    return bool(
        np.all((x >= lower - tol) & (x <= upper + tol))
        and not (slack < -tol).any()
        and not (np.abs(residual) > tol).any()
    )


class HighsBackend:
    """Solve LPs with HiGHS, one instance per solve, the solver picked by size.

    Below :data:`IPM_MIN_COLUMNS` columns: dual simplex, presolve off.  At
    or above it: IPM with presolve and crossover.  Either way the result
    carries a vertex ``x`` and the row duals.
    """

    name = "highs"

    def solve(self, lp: LinearProgram) -> LPResult:
        """Assemble and solve a LinearProgram, mapping names."""
        result = self.solve_assembled(lp.assemble())
        if result.x is not None:
            result.by_name = lp.value_map(result.x)
        return result

    def solve_assembled(self, asm) -> LPResult:
        """Solve a pre-assembled sparse LP (fast path for big models).

        When an :mod:`repro.obs.lpprof` collector is installed (simulator or
        epoch-controller runs), the solve's shape, wall time, iterations and
        status are recorded; otherwise profiling costs nothing.
        """
        if not lpprof.active():
            return self._solve_raw(asm)[0]
        t0 = time.perf_counter()
        result, presolved = self._solve_raw(asm)
        lpprof.observe(
            lpprof.LPSolveRecord(
                name=getattr(asm, "name", "lp"),
                backend=self.name,
                wall_seconds=time.perf_counter() - t0,
                iterations=result.iterations,
                status=result.status.value,
                meta=lpprof.current_scope(),
                **presolved,
                **lpprof.describe_assembled(asm),
            )
        )
        return result

    def _failure(self, model_status, highs_text: str, iterations: int = 0) -> LPResult:
        status, message = _status_message(model_status, highs_text)
        return LPResult(
            status=status,
            objective=float("nan"),
            x=None,
            iterations=iterations,
            backend=self.name,
            message=message,
        )

    def _solve_raw(self, asm) -> Tuple[LPResult, dict]:
        """The result, plus the presolve fields of its solve record."""
        n = asm.num_variables
        if n == 0:
            # Degenerate empty model: feasible iff there are no constraints
            # with nonzero rhs requirements.
            feasible = bool(np.all(asm.b_ub >= 0)) and bool(np.all(asm.b_eq == 0))
            status = LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE
            result = LPResult(
                status=status,
                objective=asm.objective_constant if feasible else float("nan"),
                x=np.zeros(0),
                by_name={},
                backend=self.name,
            )
            return result, _NO_PRESOLVE

        # empty blocks may carry a stale column count, so only stack the rest
        blocks = [a for a in (asm.a_ub, asm.a_eq) if a.shape[0]]
        a = (sparse.vstack(blocks, format="csr") if blocks else sparse.csr_matrix((0, n))).tocsc()
        m_ub = asm.a_ub.shape[0]
        b_ub = np.asarray(asm.b_ub, dtype=np.float64)
        b_eq = np.asarray(asm.b_eq, dtype=np.float64)
        row_upper = np.concatenate((b_ub, b_eq))
        lower = np.ascontiguousarray(asm.bounds[:, 0], dtype=np.float64)
        upper = np.ascontiguousarray(asm.bounds[:, 1], dtype=np.float64)

        ipm = n >= IPM_MIN_COLUMNS
        highs = _highs._Highs()
        for option, value in _IPM_OPTIONS if ipm else _SIMPLEX_OPTIONS:
            highs.setOptionValue(option, value)
        loaded = highs.passModel(
            n,
            a.shape[0],
            a.nnz,
            int(_highs.MatrixFormat.kColwise),
            int(_highs.ObjSense.kMinimize),
            0.0,
            np.asarray(asm.c, dtype=np.float64),
            lower,
            upper,
            np.concatenate((np.full(m_ub, -np.inf), b_eq)),
            row_upper,
            a.indptr.astype(np.int32, copy=False),
            a.indices.astype(np.int32, copy=False),
            a.data.astype(np.float64, copy=False),
            np.zeros(n, dtype=np.int32),
        )
        if loaded == _highs.HighsStatus.kError:
            failure = self._failure(_MS.kModelError, highs.modelStatusToString(_MS.kModelError))
            return failure, _NO_PRESOLVE
        presolved = _NO_PRESOLVE
        if ipm:
            # run() presolves again and then drops the reduced model, so its
            # shape is only readable after a separate presolve() call
            highs.presolve()
            reduced = highs.getPresolvedLp()
            presolved = {
                "presolve_applied": True,
                "presolve_fixed_vars": n - reduced.num_col_,
                "presolve_dropped_rows": a.shape[0] - reduced.num_row_,
            }
        return self._run(highs, asm, lower, upper, row_upper), presolved

    def _run(self, highs, asm, lower, upper, row_upper) -> LPResult:
        """Run a loaded model; linprog's status, message and readback."""
        if highs.run() == _highs.HighsStatus.kError:
            model_status = highs.getModelStatus()
            return self._failure(model_status, highs.modelStatusToString(model_status))

        model_status = highs.getModelStatus()
        info = highs.getInfo()
        iterations = info.simplex_iteration_count or info.ipm_iteration_count
        if model_status != _MS.kOptimal:
            return self._failure(
                model_status,
                f"model_status is {highs.modelStatusToString(model_status)}; "
                "primal_status is "
                f"{highs.solutionStatusToString(info.primal_solution_status)}",
                iterations,
            )

        m_ub = asm.a_ub.shape[0]
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        row_value = np.array(solution.row_value)
        slack = row_upper - row_value
        status, message = _status_message(model_status, highs.modelStatusToString(model_status))
        fun = info.objective_function_value
        if math.isnan(fun) or not is_feasible(x, lower, upper, slack[:m_ub], slack[m_ub:]):
            return LPResult(
                status=LPStatus.NUMERICAL,
                objective=float("nan"),
                x=x,
                iterations=iterations,
                backend=self.name,
                message=_INFEASIBLE_MESSAGE,
            )
        row_dual = np.array(solution.row_dual)
        return LPResult(
            status=status,
            objective=float(fun) + asm.objective_constant,
            x=x,
            by_name={},
            iterations=iterations,
            backend=self.name,
            message=message,
            dual_ub=row_dual[:m_ub],
            dual_eq=row_dual[m_ub:],
        )
