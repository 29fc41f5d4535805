"""Basis-factorisation engines for the revised simplex.

The revised simplex never needs the basis inverse itself — only the two
products ``B^-1 v`` (FTRAN: pivot directions, basic values) and ``w B^-1``
(BTRAN: row prices, inverse rows).  This module provides two interchangeable
engines behind that interface:

* :class:`DenseInverseEngine` — the classic explicit ``(m, m)`` inverse with
  product-form rank-one updates.  O(m^2) per pivot and per refactorisation
  inversion, but with tiny constants; it wins below ~100 rows, where the LP
  test corpus and small-cluster epoch models live (about 2x faster than
  sparse LU on epoch loops of 8 machines or fewer).
* :class:`SparseLUEngine` — a sparse LU factorisation of the basis
  (``scipy.sparse.linalg.splu``) plus an **eta file**: each pivot appends one
  sparse eta vector instead of touching m^2 entries, FTRAN applies the etas
  forward after the LU solve, BTRAN applies them in reverse before the
  transposed LU solve.  Work per pivot is proportional to the basis fill-in,
  not m^2 — this is what removes the dense ceiling at 1k+ machines (about
  80x faster than the dense inverse on a 40-machine epoch loop).

:func:`make_engine` picks an engine by row count
(:data:`DENSE_ENGINE_MAX_ROWS`); the simplex always uses that default.
Both engines are refreshed by :meth:`refactor`; the simplex drives a periodic
refactorisation (``refactor_every``) that simultaneously bounds numerical
drift and the eta-file length.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg


class BasisSingularError(RuntimeError):
    """The selected basis matrix is (numerically) singular."""


#: Crossover: bases with at most this many rows use the dense engine.
DENSE_ENGINE_MAX_ROWS = 128


def dense_column(a: sparse.csc_matrix, j: int) -> np.ndarray:
    """Dense copy of column ``j`` of a CSC matrix (one indptr slice)."""
    out = np.zeros(a.shape[0])
    start, end = a.indptr[j], a.indptr[j + 1]
    out[a.indices[start:end]] = a.data[start:end]
    return out


def _basis_matrix(a: sparse.csc_matrix, basis: np.ndarray) -> sparse.csc_matrix:
    """The basis columns of ``a`` as a fresh CSC matrix."""
    return a[:, basis].tocsc()


class DenseInverseEngine:
    """Explicit dense basis inverse with product-form (eta) updates."""

    kind = "dense"

    def __init__(self, a: sparse.csc_matrix, basis: np.ndarray) -> None:
        self.b_inv: np.ndarray = np.zeros((0, 0))
        self.refactor(a, basis)

    def refactor(self, a: sparse.csc_matrix, basis: np.ndarray) -> None:
        """Recompute the inverse from scratch (drift control)."""
        cols = _basis_matrix(a, basis).toarray()
        try:
            b_inv = np.linalg.inv(cols)
        except np.linalg.LinAlgError:
            raise BasisSingularError("singular basis matrix") from None
        if not np.all(np.isfinite(b_inv)):
            raise BasisSingularError("non-finite basis inverse")
        # LAPACK will "invert" an exactly singular matrix when rounding
        # leaves it a tiny nonzero pivot; a 1-norm condition estimate
        # (O(m^2), cheap next to the O(m^3) inversion) catches that
        if cols.size:
            cond = float(
                np.abs(cols).sum(axis=0).max() * np.abs(b_inv).sum(axis=0).max()
            )
            if not np.isfinite(cond) or cond > 1e14:
                raise BasisSingularError("numerically singular basis (cond estimate)")
        self.b_inv = b_inv

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 @ v``."""
        return self.b_inv @ v

    def btran(self, w: np.ndarray) -> np.ndarray:
        """``w @ B^-1``."""
        return w @ self.b_inv

    def unit_btran(self, i: int) -> np.ndarray:
        """Row ``i`` of ``B^-1`` (BTRAN of a unit vector)."""
        return self.b_inv[i].copy()

    def update(self, leaving: int, direction: np.ndarray) -> None:
        """Rank-one product-form update for one pivot, O(m^2)."""
        pivot = direction[leaving]
        coef = direction / (-pivot)
        coef[leaving] = 0.0
        pivot_row = self.b_inv[leaving].copy()
        self.b_inv += np.outer(coef, pivot_row)
        self.b_inv[leaving] = pivot_row / pivot


class SparseLUEngine:
    """Sparse LU of the basis plus an eta file of pivot updates.

    After a pivot replacing the basic variable of row ``r`` with a column
    whose FTRAN'd direction is ``d``, the new inverse is ``E @ B^-1`` with
    ``E`` the identity except column ``r`` (``E[i, r] = -d_i/d_r``,
    ``E[r, r] = 1/d_r``).  Instead of forming ``E`` we store the sparse
    triple ``(r, nonzeros of d off the pivot row, d_r)``:

    * FTRAN: ``x = LU^-1 v``; then per eta in order:
      ``t = x[r]/d_r;  x[nz] -= t * d[nz];  x[r] = t``.
    * BTRAN: per eta in **reverse**: ``u[r] = (u[r] - u[nz]@d[nz]) / d_r``;
      then the transposed LU solve.
    """

    kind = "sparse-lu"

    def __init__(self, a: sparse.csc_matrix, basis: np.ndarray) -> None:
        self._lu = None
        #: eta file: (pivot_row, offdiag indices, offdiag values, pivot value)
        self._etas: List[Tuple[int, np.ndarray, np.ndarray, float]] = []
        self.refactor(a, basis)

    def refactor(self, a: sparse.csc_matrix, basis: np.ndarray) -> None:
        """Refactorise the basis and drop the eta file."""
        bmat = _basis_matrix(a, basis)
        if bmat.shape[0] != bmat.shape[1]:
            raise BasisSingularError(
                f"basis matrix is not square: {bmat.shape}"
            )
        try:
            lu = sparse_linalg.splu(bmat.astype(float))
        except (RuntimeError, ValueError) as exc:  # "factor is exactly singular"
            raise BasisSingularError(str(exc)) from None
        # splu can succeed on a numerically degenerate basis — an exactly
        # singular matrix often factors with a ~1e-19 pivot instead of
        # raising — so vet the U diagonal once per refactorisation (cheap).
        udiag = np.abs(lu.U.diagonal())
        if udiag.shape[0] and udiag.min() <= 1e-12 * max(1.0, float(udiag.max())):
            raise BasisSingularError("numerically singular basis (tiny U pivot)")
        probe = lu.solve(np.ones(bmat.shape[0]))
        if not np.all(np.isfinite(probe)):
            raise BasisSingularError("non-finite LU factors")
        self._lu = lu
        self._etas = []

    @property
    def eta_count(self) -> int:
        """Pivots applied since the last refactorisation."""
        return len(self._etas)

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 @ v`` through the LU factors and the eta file."""
        x = self._lu.solve(np.asarray(v, dtype=float))
        for r, idx, vals, piv in self._etas:
            t = x[r] / piv
            if idx.shape[0]:
                x[idx] -= t * vals
            x[r] = t
        return x

    def btran(self, w: np.ndarray) -> np.ndarray:
        """``w @ B^-1`` — reversed eta file, then the transposed LU solve."""
        u = np.array(w, dtype=float, copy=True)
        for r, idx, vals, piv in reversed(self._etas):
            s = float(u[idx] @ vals) if idx.shape[0] else 0.0
            u[r] = (u[r] - s) / piv
        return self._lu.solve(u, trans="T")

    def unit_btran(self, i: int) -> np.ndarray:
        """Row ``i`` of ``B^-1``."""
        e = np.zeros(self._lu.shape[0])
        e[i] = 1.0
        return self.btran(e)

    def update(self, leaving: int, direction: np.ndarray) -> None:
        """Append one eta vector — O(nnz(direction)), never O(m^2)."""
        piv = float(direction[leaving])
        nz = np.nonzero(direction)[0]
        nz = nz[nz != leaving]
        self._etas.append((leaving, nz, direction[nz].copy(), piv))


def make_engine(
    a: sparse.csc_matrix,
    basis: np.ndarray,
    dense_max_rows: int = DENSE_ENGINE_MAX_ROWS,
):
    """Factorise ``a[:, basis]`` with the engine suited to its size.

    Raises :class:`BasisSingularError` when the basis cannot be factorised.
    """
    if basis.shape[0] <= dense_max_rows:
        return DenseInverseEngine(a, basis)
    return SparseLUEngine(a, basis)
