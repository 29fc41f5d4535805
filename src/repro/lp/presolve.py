"""LP presolve: cheap reductions before the solver sees the model.

Implements the classic safe reductions on an
:class:`~repro.lp.problem.AssembledLP`:

* **fixed variables** (``lower == upper``) are substituted out;
* **empty rows** are dropped (or prove infeasibility);
* **bound-redundant <= rows** — rows whose worst-case lhs under the
  variable bounds already satisfies the rhs — are dropped;
* **trivially infeasible <= rows** — best-case lhs above rhs — abort early.

HiGHS presolves internally; these reductions mainly serve the from-scratch
simplex (dense: every removed row/column is quadratic work saved) and give
tests a place to pin presolve semantics independently of any solver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from repro.lp.problem import AssembledLP


class PresolveStatus(enum.Enum):
    REDUCED = "reduced"
    INFEASIBLE = "infeasible"


#: primal feasibility tolerance presolve honours when declaring
#: infeasibility — matched to HiGHS's default so presolve never rejects a
#: model the backend would accept
FEASIBILITY_TOL = 1e-7


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve`."""

    status: PresolveStatus
    reduced: Optional[AssembledLP]
    #: maps a reduced-space solution vector back to the full variable space
    restore: Optional[Callable[[np.ndarray], np.ndarray]]
    fixed_variables: int = 0
    dropped_rows: int = 0

    @property
    def is_feasible(self) -> bool:
        """True unless presolve proved infeasibility."""
        return self.status is PresolveStatus.REDUCED


def presolve(asm: AssembledLP, tol: float = 1e-12) -> PresolveResult:
    """Apply the reductions; never changes the optimal objective."""
    lowers = asm.bounds[:, 0].copy()
    uppers = asm.bounds[:, 1].copy()

    fixed = np.isfinite(lowers) & (np.abs(uppers - lowers) <= tol)
    keep = ~fixed
    any_fixed = bool(np.any(fixed))
    fixed_vals = np.where(fixed, lowers, 0.0)

    # objective constant from fixed variables
    obj_const = asm.objective_constant + float(asm.c @ fixed_vals)
    c_red = asm.c[keep]

    def shrink(mat: sparse.csr_matrix, rhs: np.ndarray):
        if mat.shape[0] == 0:
            return mat.tocsr(), rhs.copy()
        if not any_fixed:
            # nothing substituted out: the matrix passes through untouched
            return mat, rhs.copy()
        rhs_adj = rhs - mat @ fixed_vals
        return mat.tocsc()[:, keep].tocsr(), rhs_adj

    a_ub, b_ub = shrink(asm.a_ub, asm.b_ub)
    a_eq, b_eq = shrink(asm.a_eq, asm.b_eq)
    lo_red, up_red = lowers[keep], uppers[keep]

    # --- row analysis on the reduced <= system ---
    dropped = 0
    if a_ub.shape[0]:
        coo = a_ub.tocoo()
        rr, jj, vv = coo.row, coo.col, coo.data
        # interval arithmetic per row: min/max achievable lhs under bounds
        pos = vv > 0
        lo_c = vv * np.where(pos, lo_red[jj], up_red[jj])
        hi_c = vv * np.where(pos, up_red[jj], lo_red[jj])
        lo_c = np.where(np.isfinite(lo_c), lo_c, -np.inf)
        hi_c = np.where(np.isfinite(hi_c), hi_c, np.inf)
        m_ub = a_ub.shape[0]
        dense_rows_min = np.bincount(rr, weights=lo_c, minlength=m_ub)
        dense_rows_max = np.bincount(rr, weights=hi_c, minlength=m_ub)

        # conservative: only declare infeasibility beyond solver feasibility
        # tolerances (HiGHS accepts ~1e-7 violations), scaled by row size
        slack = np.maximum(
            FEASIBILITY_TOL,
            1e-6
            * np.maximum.reduce(
                [np.ones_like(b_ub), np.abs(b_ub), np.abs(dense_rows_min)]
            ),
        )
        infeasible = dense_rows_min > b_ub + slack
        if np.any(infeasible):
            return PresolveResult(
                status=PresolveStatus.INFEASIBLE,
                reduced=None,
                restore=None,
                fixed_variables=int(fixed.sum()),
            )
        redundant = dense_rows_max <= b_ub + 1e-12
        row_counts = np.diff(a_ub.indptr)
        empty = row_counts == 0
        bad_empty = empty & (b_ub < -FEASIBILITY_TOL)
        if np.any(bad_empty):
            return PresolveResult(
                status=PresolveStatus.INFEASIBLE,
                reduced=None,
                restore=None,
                fixed_variables=int(fixed.sum()),
            )
        keep_rows = ~(redundant | empty)
        dropped = int((~keep_rows).sum())
        a_ub = a_ub[keep_rows]
        b_ub = b_ub[keep_rows]

    if a_eq.shape[0]:
        row_counts = np.diff(a_eq.indptr)
        empty = row_counts == 0
        if np.any(empty & (np.abs(b_eq) > FEASIBILITY_TOL)):
            return PresolveResult(
                status=PresolveStatus.INFEASIBLE,
                reduced=None,
                restore=None,
                fixed_variables=int(fixed.sum()),
            )
        dropped += int(empty.sum())
        a_eq = a_eq[~empty]
        b_eq = b_eq[~empty]

    keep_idx = np.where(keep)[0]

    def restore(x_red: np.ndarray) -> np.ndarray:
        x = fixed_vals.copy()
        x[keep_idx] = x_red
        return x

    reduced = AssembledLP(
        c=c_red,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lo_red, up_red]) if keep_idx.size else np.zeros((0, 2)),
        objective_constant=obj_const,
    )
    return PresolveResult(
        status=PresolveStatus.REDUCED,
        reduced=reduced,
        restore=restore,
        fixed_variables=int(fixed.sum()),
        dropped_rows=dropped,
    )
