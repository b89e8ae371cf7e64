"""Schur condensation of regional quadratic models onto coupling variables.

Each region's quadratic model over the free state splits into coupling
entries x and purely local entries y.  Eliminating y through the Schur
complement leaves a reduced SPD model (b_bar, g_bar) in x alone:

    b_bar = Bxx - Bxy Byy^-1 Byx
    g_bar = gx  - Bxy Byy^-1 gy

There are two paths, and the form of B chooses between them: B is dense
for a region with fewer than :data:`hdpf.residual.SPARSE_MIN_FREE` free
entries and CSC for a larger one (see :func:`hdpf.residual.linearize`).

Dense path.  One Cholesky factorization of B, reordered with the local
columns first and the coupling columns last, holds both factors the
method needs:

    L = [[Lyy, 0], [Lxy, Lxx]],   Byy = Lyy Lyy',   b_bar = Lxx Lxx'

so g_bar = gx - Lxy Lyy^-1 gy, and no second factorization is made.

Sparse path.  One SuperLU factorization of Byy alone, with the symmetric
settings of :func:`_sym_splu`, is solved for the n_cpl + 1 right-hand
sides [Byx, gy]; b_bar and g_bar follow from the formulas above, and the
solutions are kept for recovery.  Its cost grows with the nonzeros of Byy
and its factor, not with n_free^3.

Either factorization is made once per outer iteration and is the dominant
per-region cost.  Linearize, condense and recover of one region at the flat
start, dense against sparse (best / median of 30 alternating runs, on a
2-vCPU host with OpenBLAS on 2 threads):

    ==========  ======  ===============  ===============
    region      n_free  dense            sparse
    ==========  ======  ===============  ===============
    grid-8x8        36  0.24 / 0.29 ms   0.54 / 0.59 ms
    case53          66  0.31 / 0.37 ms   0.74 / 0.79 ms
    tiles-1100     238  1.61 / 2.12 ms   1.42 / 1.96 ms
    case404        410  4.53 / 4.68 ms   1.95 / 2.11 ms
    pair-808       814  12.1 / 14.8 ms   3.51 / 4.28 ms
    ==========  ======  ===============  ===============

Near 238 the two paths tie per region, and a whole tiles-1100 solve (ten
regions of 222-238) was slower with every region sparse (median 77 against
59 ms), so the threshold lies above the tiles and below case404's 410.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
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
    """Reduced model of one region plus everything recovery needs.

    The dense path fills ``factor`` and its ``w_y``; the sparse path leaves
    ``factor`` None and fills its ``w_y`` and ``w_x``.
    """

    b_bar: np.ndarray      # (n_cpl, n_cpl) SPD
    g_bar: np.ndarray      # (n_cpl,)
    x_k: np.ndarray        # current coupling values A chi^k
    x_cols: np.ndarray     # free-vector columns of the coupling entries
    y_cols: np.ndarray     # free-vector columns of the local entries
    factor: np.ndarray | None  # dense: L of B in (y_cols, x_cols) order, lower triangle
    w_y: np.ndarray        # dense: Lyy^-1 gy; sparse: Byy^-1 gy
    w_x: np.ndarray | None = None  # sparse: Byy^-1 Byx, (n_local, n_cpl)

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
    if sp.issparse(lin.hess):
        return _condense_sparse(lin, x_cols, y_cols, local, chi_free)
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


def _condense_sparse(lin: RegionLinearization, x_cols, y_cols, local,
                     chi_free: np.ndarray) -> CondensedQP:
    """:func:`condense_region` for a CSC ``hess`` (canonical, as
    :func:`hdpf.residual.linearize` makes it): one SuperLU factor of Byy,
    solved for the n_cpl + 1 right-hand sides ``[Byx, gy]``."""
    b = lin.hess
    ny, nx = len(y_cols), len(x_cols)
    # each nonzero's row and column, and each column's position in its block
    rows = b.indices
    cols = np.repeat(np.arange(b.shape[1]), np.diff(b.indptr))
    pos = np.empty(len(local), dtype=np.int64)
    pos[y_cols] = np.arange(ny)
    pos[x_cols] = np.arange(nx)
    row_y, col_y = local[rows], local[cols]
    # y_cols ascend, so Byy's entries keep their CSC order
    yy = row_y & col_y
    counts = np.bincount(pos[cols[yy]], minlength=ny)
    byy = sp.csc_matrix((b.data[yy], pos[rows[yy]], np.concatenate([[0], np.cumsum(counts)])),
                        shape=(ny, ny))
    lu = _sym_splu(byy, "regularized Gauss-Newton matrix")
    # with every pivot on the diagonal, the pivots are those of Byy's LDL'
    # factorization, all positive exactly when Byy is positive definite
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise FactorizationError("regularized Gauss-Newton matrix is not positive definite: "
                                 "a pivot of its local block is not positive")
    rhs = np.zeros((ny, nx + 1))
    yx = row_y & ~col_y
    rhs[pos[rows[yx]], pos[cols[yx]]] = b.data[yx]
    rhs[:, nx] = lin.g[y_cols]
    w = lu.solve(rhs)
    byx = rhs[:, :nx]
    bxx = np.zeros((nx, nx))
    xx = ~row_y & ~col_y
    bxx[pos[rows[xx]], pos[cols[xx]]] = b.data[xx]
    s = bxx - byx.T @ w[:, :nx]
    return CondensedQP(
        b_bar=0.5 * (s + s.T), g_bar=lin.g[x_cols] - byx.T @ w[:, nx], x_k=chi_free[x_cols],
        x_cols=x_cols, y_cols=y_cols, factor=None, w_y=w[:, nx], w_x=w[:, :nx],
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

    one back-substitution through the well-conditioned local factor.  The
    sparse path's ``w_y`` and ``w_x`` already hold Byy^-1 applied to gy and
    Byx, so there the step form

        y+ = y - Byy^-1 (gy + Byx (x_target - x_k))

    is one product with ``w_x``.
    """
    out = np.empty_like(chi_free)
    out[cqp.x_cols] = x_target
    if cqp.factor is None:
        out[cqp.y_cols] = chi_free[cqp.y_cols] - (cqp.w_y + cqp.w_x @ (x_target - cqp.x_k))
        return out
    ny = len(cqp.y_cols)
    l = cqp.factor
    # L' v = (w_y + Lxy' (x_target - x_k), 0): the zero block makes v's
    # coupling part exactly zero, so its local part is the Lyy' solve
    rhs = np.zeros(len(l))
    rhs[:ny] = cqp.w_y + l[ny:, :ny].T @ (x_target - cqp.x_k)
    v = sla.solve_triangular(l, rhs, trans="T", lower=True, check_finite=False)
    out[cqp.y_cols] = chi_free[cqp.y_cols] - v[:ny]
    return out
