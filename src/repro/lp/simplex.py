"""From-scratch two-phase revised simplex solver.

The paper solves its scheduling LPs with GLPK's simplex; this module is an
independent, dependency-free (NumPy/SciPy only) reference implementation used
to cross-validate the HiGHS backend in the test suite, in the LP-backend
ablation benchmark, and as the fallback behind
:class:`~repro.resilience.solver.ResilientSolver`.

Implementation notes
--------------------
* Operates on :class:`~repro.lp.standard_form.StandardFormLP`
  (``min c@y, A@y == b, y >= 0, b >= 0``) whose matrix is sparse CSC.
* Phase 1 minimises the sum of artificial variables to find a basic feasible
  solution; phase 2 optimises the true objective from there.
* Pricing uses Dantzig's rule (most negative reduced cost) with an automatic
  switch to Bland's rule after a stall to guarantee termination under
  degeneracy.
* The basis factorisation lives behind the engine interface of
  :mod:`repro.lp.sparse_core`: small bases keep the classic explicit dense
  inverse (rank-one product-form updates), large bases use a sparse LU
  factorisation plus an eta file whose per-pivot cost tracks basis fill-in
  instead of m^2.  Basic values are maintained incrementally across pivots
  and recomputed at each periodic refactorisation (``refactor_every``),
  which bounds both numerical drift and the eta-file length.
* **Warm starts**: ``solve_assembled(asm, warm=ctx)`` threads a
  :class:`~repro.lp.warmstart.WarmStartContext` through a stream of related
  models.  The previous epoch's optimal basis is repaired onto the new
  model by stable row/column labels (departed columns fall back to the
  row's slack), re-factorised once, and then repaired by dual simplex when
  the start is primal infeasible.  Any miss — unlabelled model, singular
  basis, dual-infeasible start, non-convergence — falls back to the cold
  two-phase path, so warm solves can only differ from cold solves within
  solver tolerances, never in correctness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.sparse_core import BasisSingularError, dense_column, make_engine
from repro.lp.standard_form import StandardFormLP, to_standard_form
from repro.lp.warmstart import WarmStartContext
from repro.obs import lpprof


class SimplexError(RuntimeError):
    """Raised on internal simplex failures (singular basis, iteration cap).

    ``status`` carries the structured :class:`LPStatus` the failure maps to
    (``ITERATION_LIMIT`` for pivot-cap exhaustion, ``NUMERICAL`` for
    degenerate/singular pivots and non-convergence), so callers catching the
    exception — or receiving the :class:`LPResult` it is converted into —
    never have to classify by message text.
    """

    def __init__(self, message: str, status: LPStatus = LPStatus.NUMERICAL) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _Tableau:
    """Mutable simplex state: basis indices, factorisation engine, values."""

    a: sparse.csc_matrix
    b: np.ndarray
    basis: np.ndarray  # column index of each basic variable, len m
    engine: object  # sparse_core engine: ftran/btran/unit_btran/update/refactor
    xb_val: np.ndarray  # current basic values B^-1 b, maintained incrementally
    pivots_since_refactor: int = 0

    def xb(self) -> np.ndarray:
        return self.xb_val


class SimplexBackend:
    """Two-phase revised simplex over a sparse basis factorisation.

    Parameters
    ----------
    max_iterations:
        Safety cap on total pivots across both phases.
    tol:
        Numerical tolerance for reduced costs / ratio tests.
    bland_after:
        Number of non-improving pivots after which pricing switches from
        Dantzig to Bland's anti-cycling rule.
    refactor_every:
        Refactorise the basis after this many eta updates (0 disables).
        Eta files accumulate rounding and length; periodic refactorisation
        keeps long solves and warm-started chains well conditioned.

    The basis engine is chosen by row count: bases with at most
    :data:`~repro.lp.sparse_core.DENSE_ENGINE_MAX_ROWS` rows use the
    explicit dense inverse, larger ones the sparse LU + eta-file engine.
    """

    name = "simplex"
    #: epoch streams pass ``warm=`` to :meth:`solve_assembled`
    supports_warm_start = True

    def __init__(
        self,
        max_iterations: int = 20000,
        tol: float = 1e-9,
        bland_after: int = 50,
        presolve: bool = False,
        refactor_every: int = 256,
    ) -> None:
        self.max_iterations = max_iterations
        self.tol = tol
        self.bland_after = bland_after
        #: apply repro.lp.presolve reductions first; duals are then not
        #: reported (row identities change under row elimination)
        self.presolve = presolve
        self.refactor_every = refactor_every
        #: (fixed_vars, dropped_rows) of the most recent presolve, for the
        #: profiling wrapper
        self._last_presolve = None

    # -- public API -----------------------------------------------------------
    def solve(self, lp: LinearProgram) -> LPResult:
        """Assemble and solve a LinearProgram, mapping names."""
        result = self.solve_assembled(lp.assemble())
        if result.x is not None:
            result.by_name = lp.value_map(result.x)
        return result

    def solve_assembled(self, asm, warm: Optional[WarmStartContext] = None) -> LPResult:
        """Solve a pre-assembled LP.

        When an :mod:`repro.obs.lpprof` collector is installed the solve is
        profiled (shape, presolve reductions, wall time, iterations,
        status); the presolve-then-solve path reports as a single record.

        ``warm`` carries warm-start state across a stream of related models
        (see :class:`~repro.lp.warmstart.WarmStartContext`); it is ignored
        on the presolve path, where row/column identities change.
        """
        if not lpprof.active():
            return self._solve_assembled(asm, warm=warm)
        self._last_presolve = None
        t0 = time.perf_counter()
        result = self._solve_assembled(asm, warm=warm)
        fixed, dropped = self._last_presolve or (0, 0)
        lpprof.observe(
            lpprof.LPSolveRecord(
                name=getattr(asm, "name", "lp"),
                backend=self.name,
                wall_seconds=time.perf_counter() - t0,
                iterations=result.iterations,
                status=result.status.value,
                presolve_fixed_vars=fixed,
                presolve_dropped_rows=dropped,
                presolve_applied=self.presolve,
                meta=lpprof.current_scope(),
                **lpprof.describe_assembled(asm),
            )
        )
        return result

    def _solve_assembled(self, asm, warm: Optional[WarmStartContext] = None) -> LPResult:
        if self.presolve:
            from repro.lp.presolve import PresolveStatus, presolve

            pre = presolve(asm)
            self._last_presolve = (pre.fixed_variables, pre.dropped_rows)
            if pre.status is PresolveStatus.INFEASIBLE:
                return LPResult(
                    status=LPStatus.INFEASIBLE,
                    objective=float("nan"),
                    x=None,
                    backend=self.name,
                    message="presolve proved infeasibility",
                )
            inner = SimplexBackend(
                max_iterations=self.max_iterations,
                tol=self.tol,
                bland_after=self.bland_after,
                presolve=False,
                refactor_every=self.refactor_every,
            )._solve_assembled(pre.reduced)
            if inner.x is not None:
                inner.x = pre.restore(inner.x)
            inner.dual_ub = None  # row identities changed under elimination
            inner.dual_eq = None
            return inner
        if asm.num_variables == 0:
            feasible = bool(np.all(asm.b_ub >= 0)) and bool(np.all(asm.b_eq == 0))
            return LPResult(
                status=LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE,
                objective=asm.objective_constant if feasible else float("nan"),
                x=np.zeros(0),
                by_name={},
                backend=self.name,
            )
        std = to_standard_form(asm, cache=warm.std_cache if warm is not None else None)
        warm_out = None
        attempted = False
        if warm is not None and warm.snapshot is not None:
            attempted = True
            warm_out = self._try_warm(std, warm)
        if warm_out is not None:
            status, y, iters, pi, tab = warm_out
        else:
            try:
                status, y, iters, pi, tab = self._solve_standard(std)
            except SimplexError as exc:
                return LPResult(
                    status=exc.status,
                    objective=float("nan"),
                    x=None,
                    backend=self.name,
                    message=str(exc),
                )
        if status is not LPStatus.OPTIMAL:
            return LPResult(
                status=status,
                objective=float("nan") if status is LPStatus.INFEASIBLE else float("-inf"),
                x=None,
                backend=self.name,
                iterations=iters,
            )
        if warm is not None and tab is not None:
            warm.record_solve(
                std, tab.basis, iters, used_warm=warm_out is not None, attempted=attempted
            )
        x = std.recover(y)
        objective = float(std.c @ y) + std.objective_constant
        dual_ub, dual_eq = self._map_duals(std, pi, asm)
        return LPResult(
            status=LPStatus.OPTIMAL,
            objective=objective,
            x=x,
            by_name={},
            iterations=iters,
            backend=self.name,
            dual_ub=dual_ub,
            dual_eq=dual_eq,
        )

    @staticmethod
    def _map_duals(std, pi, asm):
        """Map standard-form row prices back to the assembled rows.

        ``pi[i]`` is d(objective)/d(b_std[i]); a standard row is ``sign``
        times the original, so the original marginal is ``sign * pi[i]``.
        Bound rows fold into variable reduced costs and are not reported.
        """
        if pi is None:
            return None, None
        dual_ub = np.zeros(asm.a_ub.shape[0])
        dual_eq = np.zeros(asm.a_eq.shape[0])
        for i, (kind, idx, sign) in enumerate(std.row_origin):
            # undo equilibration: the scaled row is (orig / scale), so the
            # marginal w.r.t. the original rhs picks up a 1/scale factor
            value = sign * pi[i] / std.row_scale[i]
            if kind == "ub":
                dual_ub[idx] = value
            elif kind == "eq":
                dual_eq[idx] = value
        return dual_ub, dual_eq

    # -- tableau helpers --------------------------------------------------------
    def _make_tableau(
        self, a: sparse.csc_matrix, b: np.ndarray, basis: np.ndarray
    ) -> _Tableau:
        """Factorise ``basis`` and seed the incremental basic values."""
        engine = make_engine(a, basis)
        return _Tableau(a=a, b=b, basis=basis, engine=engine, xb_val=engine.ftran(b))

    # -- warm start -------------------------------------------------------------
    def _try_warm(self, std: StandardFormLP, warm: WarmStartContext):
        """Attempt a warm solve from the context's repaired basis.

        Returns the same tuple as :meth:`_solve_standard` on success, or
        ``None`` when the snapshot cannot be used — the caller then runs the
        cold two-phase path.  An unbounded/infeasible claim reached from a
        warm basis is *not* trusted (the repaired start could be atypical);
        those also fall back to the cold certificate.
        """
        basis = warm.snapshot.map_onto(std)
        if basis is None:
            return None
        a, b, c = std.a, std.b, std.c
        m = a.shape[0]
        if m == 0 or basis.shape[0] != m:
            return None
        try:
            tab = self._make_tableau(a, b, basis.copy())
        except BasisSingularError:
            return None
        if not np.all(np.isfinite(tab.xb_val)):
            return None
        at = a.T  # CSR view: reduced-cost products are row-major
        scale_b = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        scale_c = max(1.0, float(np.max(np.abs(c), initial=0.0)))
        feas_tol = 1e-9 * scale_b
        try:
            iters_repair = 0
            if float(np.min(tab.xb(), initial=0.0)) < -feas_tol:
                # primal-infeasible start: dual simplex repair is only valid
                # from a dual-feasible basis
                reduced = c - at @ tab.engine.btran(c[tab.basis])
                reduced[tab.basis] = 0.0
                if float(np.min(reduced)) < -1e-7 * scale_c:
                    return None
                status, iters_repair = self._iterate_dual(tab, c)
                if status is not LPStatus.OPTIMAL:
                    return None
            status, iters_opt = self._iterate(tab, c)
        except SimplexError:
            return None
        if status is not LPStatus.OPTIMAL:
            return None
        # validate the final basis against the original data: the eta chain
        # must still reproduce a primal-feasible solution
        xb = tab.xb()
        if float(np.min(xb, initial=0.0)) < -1e-6 * scale_b:
            return None
        resid = a[:, tab.basis] @ xb - b
        if float(np.max(np.abs(resid), initial=0.0)) > 1e-6 * scale_b:
            return None
        y = np.zeros(a.shape[1])
        y[tab.basis] = xb
        pi = tab.engine.btran(c[tab.basis])
        return LPStatus.OPTIMAL, y, iters_repair + iters_opt, pi, tab

    # -- standard form driver ---------------------------------------------------
    def _solve_standard(
        self, std: StandardFormLP
    ) -> tuple[LPStatus, np.ndarray, int, "np.ndarray | None", "_Tableau | None"]:
        a, b, c = std.a, std.b, std.c
        m, n = a.shape
        if m == 0:
            # No constraints: optimum is 0 for c >= 0, else unbounded.
            if np.any(c < -self.tol):
                return LPStatus.UNBOUNDED, np.zeros(n), 0, None, None
            return LPStatus.OPTIMAL, np.zeros(n), 0, np.zeros(0), None

        # ---- phase 1: artificial basis ----
        a1 = sparse.hstack([a, sparse.identity(m, format="csc")], format="csc")
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        try:
            tab = self._make_tableau(a1, b, np.arange(n, n + m))
        except BasisSingularError as exc:
            raise SimplexError(str(exc)) from None
        status, iters1 = self._iterate(tab, c1)
        if status is not LPStatus.OPTIMAL:
            raise SimplexError("phase 1 did not converge")
        phase1_obj = float(c1[tab.basis] @ tab.xb())
        if phase1_obj > 1e-7:
            return LPStatus.INFEASIBLE, np.zeros(n), iters1, None, None

        # Drive any artificial variables still in the basis out (degeneracy).
        self._purge_artificials(tab, n)

        # ---- phase 2 ----
        # Narrowing to the structural columns does not disturb the engine:
        # only column *indices* are renamed, the basis matrix itself (and
        # hence its factorisation) is unchanged.
        tab.a = tab.a[:, :n].tocsc()
        c2 = c
        # Rows whose basic variable is an un-purgeable artificial correspond
        # to redundant constraints; freeze them by keeping the artificial at
        # zero with zero cost.
        art_rows = tab.basis >= n
        if np.any(art_rows):
            keep = sparse.identity(m, format="csc")[:, np.where(art_rows)[0]]
            tab.a = sparse.hstack([tab.a, keep], format="csc")
            c2 = np.concatenate([c, np.zeros(int(art_rows.sum()))])
            remap = {}
            for new_j, row in enumerate(np.where(art_rows)[0]):
                remap[n + row] = n + new_j
            tab.basis = np.array([remap.get(j, j) for j in tab.basis])
        status, iters2 = self._iterate(tab, c2)
        if status is LPStatus.UNBOUNDED:
            return LPStatus.UNBOUNDED, np.zeros(n), iters1 + iters2, None, None
        if status is not LPStatus.OPTIMAL:
            raise SimplexError("phase 2 did not converge")
        y = np.zeros(tab.a.shape[1])
        y[tab.basis] = tab.xb()
        pi = tab.engine.btran(c2[tab.basis])  # row prices: d(obj)/d(b)
        return LPStatus.OPTIMAL, y[:n], iters1 + iters2, pi, tab

    # -- pivoting ---------------------------------------------------------------
    def _iterate(self, tab: _Tableau, c: np.ndarray) -> tuple[LPStatus, int]:
        m = tab.b.shape[0]
        at = tab.a.T  # CSR view of the transpose, shared data
        stall = 0
        last_obj = np.inf
        for it in range(self.max_iterations):
            xb = tab.xb()
            obj = float(c[tab.basis] @ xb)
            if obj < last_obj - self.tol:
                stall = 0
            else:
                stall += 1
            last_obj = obj
            use_bland = stall > self.bland_after

            # reduced costs: r = c - (c_B B^-1) A
            y_dual = tab.engine.btran(c[tab.basis])
            reduced = c - at @ y_dual
            reduced[tab.basis] = 0.0  # numerical exactness for basics

            if use_bland:
                candidates = np.where(reduced < -self.tol)[0]
                if candidates.size == 0:
                    return LPStatus.OPTIMAL, it
                entering = int(candidates[0])
            else:
                entering = int(np.argmin(reduced))
                if reduced[entering] >= -self.tol:
                    return LPStatus.OPTIMAL, it

            direction = tab.engine.ftran(dense_column(tab.a, entering))
            positive = direction > self.tol
            if not np.any(positive):
                return LPStatus.UNBOUNDED, it

            ratios = np.full(m, np.inf)
            ratios[positive] = xb[positive] / direction[positive]
            if use_bland:
                min_ratio = ratios.min()
                ties = np.where(ratios <= min_ratio + self.tol)[0]
                # Bland: leave the tied row whose basic variable has the
                # smallest index.
                leaving = int(ties[np.argmin(tab.basis[ties])])
            else:
                leaving = int(np.argmin(ratios))

            self._pivot(tab, entering, leaving, direction)
        raise SimplexError(
            f"iteration cap {self.max_iterations} reached",
            status=LPStatus.ITERATION_LIMIT,
        )

    def _iterate_dual(self, tab: _Tableau, c: np.ndarray) -> tuple[LPStatus, int]:
        """Dual simplex: restore primal feasibility from a dual-feasible basis.

        Used only for warm-start repair — the caller guarantees reduced
        costs are non-negative on entry, and every pivot preserves that.
        Returns ``OPTIMAL`` once no basic variable is negative (the basis is
        then primal feasible *and* dual feasible, i.e. optimal).
        """
        at = tab.a.T
        feas_tol = 1e-9 * max(1.0, float(np.max(np.abs(tab.b), initial=0.0)))
        for it in range(self.max_iterations):
            xb = tab.xb()
            violated = np.where(xb < -feas_tol)[0]
            if violated.size == 0:
                return LPStatus.OPTIMAL, it
            leaving = int(violated[np.argmin(xb[violated])])
            y_dual = tab.engine.btran(c[tab.basis])
            reduced = c - at @ y_dual
            reduced[tab.basis] = 0.0
            row = at @ tab.engine.unit_btran(leaving)
            row[tab.basis] = 0.0  # basic columns never re-enter on their own row
            candidates = np.where(row < -self.tol)[0]
            if candidates.size == 0:
                # the row proves primal infeasibility — but a warm-start
                # repair must not certify that; callers fall back cold
                raise SimplexError(
                    "dual simplex found no entering column",
                    status=LPStatus.INFEASIBLE,
                )
            ratios = reduced[candidates] / (-row[candidates])
            entering = int(candidates[np.argmin(ratios)])
            direction = tab.engine.ftran(dense_column(tab.a, entering))
            self._pivot(tab, entering, leaving, direction)
        raise SimplexError(
            "dual simplex iteration cap reached", status=LPStatus.ITERATION_LIMIT
        )

    def _pivot(self, tab: _Tableau, entering: int, leaving: int, direction: np.ndarray) -> None:
        """One basis exchange: engine eta update plus incremental values.

        The same value update serves primal and dual pivots — the new basic
        values are ``E @ xb`` for the eta matrix ``E`` of this pivot.
        """
        pivot = direction[leaving]
        if abs(pivot) < 1e-12:
            raise SimplexError("numerically singular pivot")
        tab.engine.update(leaving, direction)
        t = tab.xb_val[leaving] / pivot
        tab.xb_val -= t * direction
        tab.xb_val[leaving] = t
        tab.basis[leaving] = entering
        tab.pivots_since_refactor += 1
        if self.refactor_every and tab.pivots_since_refactor >= self.refactor_every:
            self._refactor(tab)

    @staticmethod
    def _refactor(tab: _Tableau) -> None:
        """Refactorise the basis and refresh the basic values (drift control)."""
        try:
            tab.engine.refactor(tab.a, tab.basis)
        except BasisSingularError:
            raise SimplexError("singular basis at refactorisation") from None
        tab.xb_val = tab.engine.ftran(tab.b)
        tab.pivots_since_refactor = 0

    def _purge_artificials(self, tab: _Tableau, n: int) -> None:
        """Pivot basic artificial variables out where a real column can enter."""
        m = tab.b.shape[0]
        struct_t = tab.a[:, :n].T.tocsr()
        for row in range(m):
            if tab.basis[row] < n:
                continue
            row_vec = struct_t @ tab.engine.unit_btran(row)
            candidates = np.where(np.abs(row_vec) > 1e-9)[0]
            if candidates.size == 0:
                continue  # redundant row; handled in phase 2
            entering = int(candidates[0])
            direction = tab.engine.ftran(dense_column(tab.a, entering))
            self._pivot(tab, entering, row, direction)
        tab.pivots_since_refactor = 0
