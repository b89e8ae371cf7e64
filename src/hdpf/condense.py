"""Schur condensation of regional quadratic models onto coupling variables.

Each region's quadratic model over the free state splits into coupling
entries x and purely local entries y.  Eliminating y through the Schur
complement leaves a reduced SPD model (b_bar, g_bar) in x alone:

    b_bar = Bxx - Bxy Byy^-1 Byx
    g_bar = gx  - Bxy Byy^-1 gy

One Cholesky factorization of B, reordered with the local columns first
and the coupling columns last, holds both factors the method needs:

    L = [[Lyy, 0], [Lxy, Lxx]],   Byy = Lyy Lyy',   b_bar = Lxx Lxx'

so g_bar = gx - Lxy Lyy^-1 gy, and no second factorization is made.  The
factor is computed once per outer iteration and reused when the step is
recovered from the consensus values; it is the dominant per-region cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .residual import RegionLinearization

__all__ = ["FactorizationError", "CondensedQP", "condense_region", "recover_local"]


class FactorizationError(RuntimeError):
    """A symmetric factorization failed; signals a numerical breakdown."""


def _cho_factor(a: np.ndarray, what: str):
    """Lower Cholesky factor (L, True) of the symmetric C-ordered ``a``.

    Factors in place and so overwrites ``a``: its transpose is the
    Fortran-ordered array LAPACK works on, and ``L`` is that transpose.
    Only the lower triangle of ``L`` is the factor.
    """
    try:
        return sla.cho_factor(a.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{what} is not positive definite: {exc}") from exc


def _sym_splu(a, what: str):
    """SuperLU factor of the sparse symmetric CSC matrix ``a``, with the
    settings for a symmetric matrix: minimum-degree ordering of A + A', no
    pivoting off the diagonal, symmetric mode."""
    try:
        return spla.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"{what} is singular: {exc}") from exc


@dataclass
class CondensedQP:
    """Reduced model of one region plus everything recovery needs."""

    b_bar: np.ndarray      # (n_cpl, n_cpl) SPD
    g_bar: np.ndarray      # (n_cpl,)
    x_k: np.ndarray        # current coupling values A chi^k
    x_cols: np.ndarray     # free-vector columns of the coupling entries
    y_cols: np.ndarray     # free-vector columns of the local entries
    factor: np.ndarray     # L of B in (y_cols, x_cols) order, lower triangle
    w_y: np.ndarray        # Lyy^-1 gy

    @property
    def n_cpl(self) -> int:
        return len(self.x_cols)


def condense_region(lin: RegionLinearization, x_cols: np.ndarray,
                    chi_free: np.ndarray) -> CondensedQP:
    """Condense one region's model at the current iterate."""
    x_cols = np.asarray(x_cols, dtype=np.int64)
    local = np.ones(lin.hess.shape[0], dtype=bool)
    local[x_cols] = False
    y_cols = np.flatnonzero(local)
    ny = len(y_cols)
    order = np.concatenate([y_cols, x_cols])
    l, _ = _cho_factor(lin.hess[np.ix_(order, order)], "regularized Gauss-Newton matrix")
    # solves run through the whole Fortran-ordered factor, since scipy copies
    # a non-contiguous block such as Lyy before calling LAPACK; the leading
    # ny entries of L^-1 g are Lyy^-1 gy whatever follows them
    w_y = sla.solve_triangular(l, lin.g[order], lower=True, check_finite=False)[:ny]
    lxx = np.tril(l[ny:, ny:])
    return CondensedQP(
        b_bar=lxx @ lxx.T, g_bar=lin.g[x_cols] - l[ny:, :ny] @ w_y, x_k=chi_free[x_cols],
        x_cols=x_cols, y_cols=y_cols, factor=l, w_y=w_y,
    )


def recover_local(cqp: CondensedQP, x_target: np.ndarray, chi_free: np.ndarray) -> np.ndarray:
    """Full-step recovery of chi+ = B^-1 (B chi - g - A^T lam) by blocks.

    The one-pass optimality identity makes the coupling block of that solve
    equal to the consensus values E zbar, so the coupling entries are set to
    ``x_target`` directly; routing them through the condensed block's
    factorization instead would amplify rounding by the reciprocal of the
    regularization (the region's own model is flat along copy-bus
    directions).  The hidden entries take the step form of the same SPD
    system's local block,

        y+ = y - Lyy^-T (w_y + Lxy' (x_target - x_k)),

    one back-substitution through the well-conditioned local factor.
    """
    ny = len(cqp.y_cols)
    l = cqp.factor
    # L' v = (w_y + Lxy' (x_target - x_k), 0): the zero block makes v's
    # coupling part exactly zero, so its local part is the Lyy' solve
    rhs = np.zeros(len(l))
    rhs[:ny] = cqp.w_y + l[ny:, :ny].T @ (x_target - cqp.x_k)
    v = sla.solve_triangular(l, rhs, trans="T", lower=True, check_finite=False)
    out = np.empty_like(chi_free)
    out[cqp.x_cols] = x_target
    out[cqp.y_cols] = chi_free[cqp.y_cols] - v[:ny]
    return out
