"""Conversion of assembled LPs to equality standard form.

The from-scratch simplex backend operates on the classical form

    min  c @ y        s.t.  A @ y == b,   y >= 0.

This module rewrites a general model (bounded variables, ``<=``/``==`` rows)
into that form:

* a finite lower bound ``l`` is shifted out (``y = x - l``);
* a variable with ``l = -inf`` is split into a positive/negative pair;
* a finite upper bound becomes an extra ``<=`` row;
* every ``<=`` row receives a slack variable.

:func:`StandardFormLP.recover` maps a standard-form solution vector back to
the original variable space.

The conversion is fully vectorised (one sparse expansion product plus COO
scatters — no per-row Python loops), the output matrix is **sparse CSC**
(the revised simplex consumes column views and hands the basis to a sparse
LU factorisation, so the dense ``(m, n)`` intermediate the old pipeline
materialised would dominate memory at production scale), and the
*structure* of the rewrite (the column mapping, row layout, slack positions
and warm-start labels) can be cached across repeated conversions of
structurally identical models via
:class:`StandardFormCache`; only the value-dependent parts (coefficients,
right-hand sides, equilibration and sign normalisation) are recomputed per
call.  That is what makes warm-started per-epoch re-solves cheap (see
:mod:`repro.lp.warmstart`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.lp.problem import AssembledLP
from repro.obs.registry import current_registry


@dataclass
class StandardFormLP:
    """``min c @ y  s.t.  A @ y == b, y >= 0`` plus the recovery recipe."""

    c: np.ndarray
    a: sparse.csc_matrix  # (m, n) CSC — the simplex backend works on column views
    b: np.ndarray
    objective_constant: float
    #: per original variable: (kind, data)
    #:   ("shift", (col, lower))        -> x = y[col] + lower
    #:   ("split", (col_pos, col_neg))  -> x = y[col_pos] - y[col_neg]
    recovery: List[Tuple[str, Tuple]]
    num_original: int
    #: per standard-form row: (kind, original index, sign) with kind one of
    #: "eq" / "ub" / "bound"; ``sign`` is -1 when the row was negated to
    #: normalise its rhs.  Lets backends map row duals back to the original
    #: constraints: dual_original = sign * dual_standard / row_scale.
    row_origin: List[Tuple[str, int, float]] = None  # type: ignore[assignment]
    #: per-row equilibration divisor applied to A and b (max |coeff|); keeps
    #: badly scaled rows from slipping past feasibility tolerances.
    row_scale: np.ndarray = None  # type: ignore[assignment]
    #: stable identity of every standard-form column (structural vars then
    #: slacks), present only when the source model carried column labels;
    #: the warm-start machinery matches bases across epochs by these.
    col_labels: Optional[List] = None
    #: stable identity of every standard-form row (same condition).
    row_labels: Optional[List] = None
    #: per-row slack column index (-1 for equality rows) — the fallback
    #: basic variable when a warm-start mapping misses a row.
    slack_of_row: Optional[np.ndarray] = None

    def recover(self, y: np.ndarray) -> np.ndarray:
        """Map a standard-form solution back to the original variables."""
        x = np.zeros(self.num_original)
        for i, (kind, data) in enumerate(self.recovery):
            if kind == "shift":
                col, lower = data
                x[i] = y[col] + lower
            else:
                col_pos, col_neg = data
                x[i] = y[col_pos] - y[col_neg]
        return x


@dataclass
class _StdPlan:
    """Value-independent structure of one standard-form rewrite."""

    n_std: int
    slack_count: int
    expand: Optional[sparse.csr_matrix]  # (n, n_std); None = identity
    bound_vars: np.ndarray  # original vars with a finite upper bound
    bound_cols: np.ndarray  # their std-form column pairs (nb, 2); col2 = -1
    recovery: List[Tuple[str, Tuple]]
    origins_base: List[Tuple[str, int]]
    finite_lo: np.ndarray  # lower bounds with -inf replaced by 0
    col_labels: Optional[List]
    row_labels: Optional[List]
    slack_of_row: Optional[np.ndarray]


def _structure_key(asm: AssembledLP) -> tuple:
    """Hashable description of everything a :class:`_StdPlan` depends on."""
    lowers = asm.bounds[:, 0] if asm.num_variables else np.zeros(0)
    uppers = asm.bounds[:, 1] if asm.num_variables else np.zeros(0)
    col_labels = getattr(asm, "col_labels", None)
    row_labels_ub = getattr(asm, "row_labels_ub", None)
    return (
        asm.num_variables,
        asm.a_ub.shape[0],
        asm.a_eq.shape[0],
        np.isfinite(lowers).tobytes(),
        lowers.tobytes(),  # shift amounts are baked into the recovery recipe
        np.isfinite(uppers).tobytes(),
        tuple(col_labels) if col_labels is not None else None,
        tuple(row_labels_ub) if row_labels_ub is not None else None,
    )


class StandardFormCache:
    """One-slot cache of the standard-form rewrite *structure*.

    Keyed on :func:`_structure_key`; a hit skips rebuilding the column
    mapping, row layout, labels and recovery recipe.  Coefficients, rhs,
    equilibration and the b >= 0 normalisation are always recomputed — they
    are value-dependent and cheap (vectorised).  Hits and misses are
    mirrored into the installed registry as ``simplex.std_cache_hits`` /
    ``simplex.std_cache_misses``.
    """

    def __init__(self) -> None:
        self._key: Optional[tuple] = None
        self._plan: Optional[_StdPlan] = None
        self.hits = 0
        self.misses = 0

    def plan_for(self, asm: AssembledLP) -> _StdPlan:
        """The rewrite plan for ``asm``, reused when the structure matches."""
        key = _structure_key(asm)
        hit = self._key == key and self._plan is not None
        registry = current_registry()
        if registry is not None:
            name = "simplex.std_cache_hits" if hit else "simplex.std_cache_misses"
            registry.counter(name, help="standard-form plan reuse").inc()
        if hit:
            self.hits += 1
            return self._plan
        self.misses += 1
        self._key = key
        self._plan = _build_plan(asm)
        return self._plan


def _build_plan(asm: AssembledLP) -> _StdPlan:
    """Derive the value-independent structure of the rewrite."""
    n = asm.num_variables
    lowers = asm.bounds[:, 0]
    uppers = asm.bounds[:, 1]
    finite_lo_mask = np.isfinite(lowers)
    split_mask = ~finite_lo_mask

    recovery: List[Tuple[str, Tuple]] = []
    # std column of each original var: shifted vars get one column, split
    # vars get an adjacent (pos, neg) pair.
    width = np.where(split_mask, 2, 1)
    first_col = np.concatenate([[0], np.cumsum(width)[:-1]]) if n else np.zeros(0, dtype=int)
    n_std = int(width.sum())
    for i in range(n):
        col = int(first_col[i])
        if finite_lo_mask[i]:
            recovery.append(("shift", (col, float(lowers[i]))))
        else:
            recovery.append(("split", (col, col + 1)))

    if np.any(split_mask):
        rows_e = np.concatenate([np.arange(n), np.where(split_mask)[0]])
        cols_e = np.concatenate([first_col, first_col[split_mask] + 1])
        vals_e = np.concatenate([np.ones(n), -np.ones(int(split_mask.sum()))])
        expand = sparse.csr_matrix((vals_e, (rows_e, cols_e)), shape=(n, n_std))
    else:
        expand = None  # identity: std columns == original columns

    bound_vars = np.where(np.isfinite(uppers))[0]
    bound_cols = np.full((bound_vars.shape[0], 2), -1, dtype=int)
    bound_cols[:, 0] = first_col[bound_vars]
    neg_of_bound = split_mask[bound_vars]
    bound_cols[neg_of_bound, 1] = first_col[bound_vars[neg_of_bound]] + 1

    m_eq = asm.a_eq.shape[0]
    m_ub = asm.a_ub.shape[0]
    nb = bound_vars.shape[0]
    slack_count = m_ub + nb
    origins_base: List[Tuple[str, int]] = (
        [("eq", r) for r in range(m_eq)]
        + [("ub", r) for r in range(m_ub)]
        + [("bound", int(i)) for i in bound_vars]
    )

    # warm-start labels: only derivable when the source model is labelled
    col_labels: Optional[List] = None
    row_labels: Optional[List] = None
    slack_of_row: Optional[np.ndarray] = None
    asm_cols = getattr(asm, "col_labels", None)
    if asm_cols is not None and len(asm_cols) == n:
        asm_rows = getattr(asm, "row_labels_ub", None)
        if asm_rows is None or len(asm_rows) != m_ub:
            asm_rows = [("ubrow", r) for r in range(m_ub)]
        col_labels = [None] * (n_std + slack_count)
        for i in range(n):
            col = int(first_col[i])
            if finite_lo_mask[i]:
                col_labels[col] = asm_cols[i]
            else:
                col_labels[col] = ("pos", asm_cols[i])
                col_labels[col + 1] = ("neg", asm_cols[i])
        for r in range(m_ub):
            col_labels[n_std + r] = ("slack", asm_rows[r])
        for k, i in enumerate(bound_vars):
            col_labels[n_std + m_ub + k] = ("slackb", asm_cols[int(i)])
        row_labels = (
            [("eq", r) for r in range(m_eq)]
            + [("ub", lbl) for lbl in asm_rows]
            + [("bound", asm_cols[int(i)]) for i in bound_vars]
        )
        slack_of_row = np.full(m_eq + m_ub + nb, -1, dtype=int)
        slack_of_row[m_eq:] = n_std + np.arange(slack_count)

    return _StdPlan(
        n_std=n_std,
        slack_count=slack_count,
        expand=expand,
        bound_vars=bound_vars,
        bound_cols=bound_cols,
        recovery=recovery,
        origins_base=origins_base,
        finite_lo=np.where(finite_lo_mask, lowers, 0.0),
        col_labels=col_labels,
        row_labels=row_labels,
        slack_of_row=slack_of_row,
    )


def to_standard_form(
    asm: AssembledLP, cache: Optional[StandardFormCache] = None
) -> StandardFormLP:
    """Rewrite an :class:`AssembledLP` into equality standard form.

    ``cache`` (optional) reuses the structural plan across conversions of
    structurally identical models — warm-started epoch streams pass their
    :class:`StandardFormCache` so only values are recomputed.
    """
    n = asm.num_variables
    plan = cache.plan_for(asm) if cache is not None else _build_plan(asm)
    n_std, slack_count = plan.n_std, plan.slack_count

    # --- objective over std columns -----------------------------------------
    obj_const = asm.objective_constant + float(asm.c @ plan.finite_lo)
    if plan.expand is None:
        c = asm.c.astype(float, copy=True)
    else:
        c = np.asarray(asm.c @ plan.expand).reshape(-1)

    # --- rows: shift rhs by lower bounds, expand columns ---------------------
    m_eq = asm.a_eq.shape[0]
    m_ub = asm.a_ub.shape[0]
    nb = plan.bound_vars.shape[0]
    total_rows = m_eq + m_ub + nb

    b_eq = asm.b_eq - (asm.a_eq @ plan.finite_lo) if m_eq else asm.b_eq.copy()
    b_ub = asm.b_ub - (asm.a_ub @ plan.finite_lo) if m_ub else asm.b_ub.copy()

    # Assemble the standard-form matrix as COO triplets: the eq/ub blocks
    # (expanded over split columns when needed), the bound rows, and the
    # slack identity — never materialising a dense (m, n) intermediate.
    n_cols = n_std + slack_count
    rows_parts: List[np.ndarray] = []
    cols_parts: List[np.ndarray] = []
    vals_parts: List[np.ndarray] = []

    def _add_block(block, row_offset: int) -> None:
        coo = block.tocoo()
        rows_parts.append(coo.row.astype(np.int64) + row_offset)
        cols_parts.append(coo.col.astype(np.int64))
        vals_parts.append(coo.data.astype(float))

    if m_eq:
        _add_block(asm.a_eq if plan.expand is None else asm.a_eq @ plan.expand, 0)
    if m_ub:
        _add_block(asm.a_ub if plan.expand is None else asm.a_ub @ plan.expand, m_eq)
    # upper bounds become <= rows in shifted space: y <= upper - lower
    if nb:
        rb = m_eq + m_ub + np.arange(nb)
        rows_parts.append(rb)
        cols_parts.append(plan.bound_cols[:, 0].astype(np.int64))
        vals_parts.append(np.ones(nb))
        has_neg = plan.bound_cols[:, 1] >= 0
        if np.any(has_neg):
            rows_parts.append(rb[has_neg])
            cols_parts.append(plan.bound_cols[has_neg, 1].astype(np.int64))
            vals_parts.append(-np.ones(int(has_neg.sum())))
    # count structural entries before the slack identity joins: equilibration
    # scales by the largest *structural* coefficient of each row
    n_struct_entries = sum(v.shape[0] for v in vals_parts)
    # slack columns: one per <= row (ub rows, then bound rows)
    if slack_count:
        rows_parts.append(m_eq + np.arange(slack_count))
        cols_parts.append(n_std + np.arange(slack_count))
        vals_parts.append(np.ones(slack_count))

    if rows_parts:
        rows_idx = np.concatenate(rows_parts)
        cols_idx = np.concatenate(cols_parts)
        vals = np.concatenate(vals_parts)
    else:
        rows_idx = np.zeros(0, dtype=np.int64)
        cols_idx = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)

    c_full = np.concatenate([c, np.zeros(slack_count)])
    uppers = asm.bounds[:, 1] if n else np.zeros(0)
    b_full = np.concatenate(
        [
            b_eq.astype(float),
            b_ub.astype(float),
            (uppers[plan.bound_vars] - plan.finite_lo[plan.bound_vars]).astype(float),
        ]
    )

    # row equilibration: divide every row by its largest structural
    # coefficient so relative and absolute feasibility tolerances agree
    # (a row like 1e-8*x <= -1e-8 is a *100%* violation of x >= 1 even
    # though its absolute residual is tiny)
    if total_rows:
        scale = np.zeros(total_rows)
        np.maximum.at(
            scale,
            rows_idx[:n_struct_entries],
            np.abs(vals[:n_struct_entries]),
        )
        scale[scale < 1e-300] = 1.0
        vals /= scale[rows_idx]
        b_full /= scale
    else:
        scale = np.ones(0)

    # normalise rows to b >= 0 (phase-1 requirement)
    neg = b_full < 0
    if np.any(neg):
        vals[neg[rows_idx]] *= -1.0
        b_full[neg] *= -1.0
    a = sparse.csc_matrix((vals, (rows_idx, cols_idx)), shape=(total_rows, n_cols))
    origins = [
        (kind, idx, -1.0 if neg[r] else 1.0)
        for r, (kind, idx) in enumerate(plan.origins_base)
    ]

    return StandardFormLP(
        c=c_full,
        a=a,
        b=b_full,
        objective_constant=obj_const,
        recovery=plan.recovery,
        num_original=n,
        row_origin=origins,
        row_scale=scale,
        col_labels=plan.col_labels,
        row_labels=plan.row_labels,
        slack_of_row=plan.slack_of_row,
    )


@dataclass
class BasisSnapshot:
    """The optimal basis of one solve, keyed by stable labels.

    ``by_row`` maps each standard-form *row label* to the label of the
    column that was basic in that row.  Row/column labels survive job
    arrivals and departures (they are keyed on job identity, not position),
    which is what lets :meth:`map_onto` repair the basis for the next
    epoch's — possibly resized — model.
    """

    by_row: Dict[object, object] = field(default_factory=dict)

    @staticmethod
    def capture(std: StandardFormLP, basis: np.ndarray) -> Optional["BasisSnapshot"]:
        """Snapshot a final basis; None when the model carries no labels."""
        if std.col_labels is None or std.row_labels is None:
            return None
        ncols = len(std.col_labels)
        by_row: Dict[object, object] = {}
        for r, col in enumerate(basis):
            col = int(col)
            # artificial columns (>= n) have no stable identity; leave the
            # row unmapped so the repair fills in its slack.
            if col < ncols and std.col_labels[col] is not None:
                by_row[std.row_labels[r]] = std.col_labels[col]
        return BasisSnapshot(by_row=by_row)

    def map_onto(self, std: StandardFormLP) -> Optional[np.ndarray]:
        """Repair this basis onto a new model; None when it cannot be used.

        Per row of the new model: reuse the previously basic column when its
        label still exists; otherwise fall back to the row's slack.  Rows
        without a slack (equality rows) that cannot be mapped, or conflicts
        that cannot be resolved by slacks, abort the warm start (the caller
        cold-solves).
        """
        if std.col_labels is None or std.row_labels is None or std.slack_of_row is None:
            return None
        col_index = {lbl: j for j, lbl in enumerate(std.col_labels) if lbl is not None}
        m = len(std.row_labels)
        basis = np.full(m, -1, dtype=int)
        used = set()
        for r in range(m):
            mapped = self.by_row.get(std.row_labels[r])
            j = col_index.get(mapped) if mapped is not None else None
            if j is not None and j not in used:
                basis[r] = j
                used.add(j)
        for r in range(m):
            if basis[r] >= 0:
                continue
            slack = int(std.slack_of_row[r])
            if slack < 0 or slack in used:
                return None
            basis[r] = slack
            used.add(slack)
        return basis
