"""Schur condensation of regional quadratic models onto coupling variables.

Each region's quadratic model over the free state splits into coupling
entries x and purely local entries y.  Eliminating y through the Schur
complement leaves a reduced SPD model (b_bar, g_bar) in x alone:

    b_bar = Bxx - Byx' Byy^-1 Byx
    g_bar = gx  - Byx' Byy^-1 gy

Every region runs this one algebra: take Byy, Byx and Bxx out of B, factor
Byy once, solve it for the n_cpl + 1 right-hand sides [Byx, gy], and form
b_bar (symmetrized) and g_bar = gx - w_x' gy from the solutions
w_x = Byy^-1 Byx and w_y = Byy^-1 gy, which recovery reuses.

Only taking the blocks out and factoring Byy depend on the form of B, and
the form chooses the factorization: B is dense for a region with fewer than
:data:`hdpf.residual.SPARSE_MIN_FREE` free entries, and Byy is factored by
LAPACK's Cholesky; B is CSC for a larger one (see
:func:`hdpf.residual.linearize`), and Byy is factored by SuperLU with the
symmetric settings of :func:`_sym_splu`, at a cost that grows with the
nonzeros of Byy and its factor, not with n_free^3.

The factorization is made once per outer iteration and is the dominant
per-region cost.  Linearize, condense and recover of one region at the flat
start, dense against sparse (best / median of 30 alternating runs, on a
2-vCPU host with OpenBLAS on 2 threads):

    ==========  ======  ===============  ===============
    region      n_free  dense            sparse
    ==========  ======  ===============  ===============
    grid-8x8        36  0.15 / 0.16 ms   0.34 / 0.37 ms
    case53          66  0.22 / 0.27 ms   0.51 / 0.59 ms
    tiles-1100     238  1.40 / 1.53 ms   1.29 / 1.36 ms
    case404        410  4.17 / 4.59 ms   1.91 / 2.03 ms
    pair-808       814  8.06 / 9.64 ms   3.17 / 3.65 ms
    ==========  ======  ===============  ===============

Near 238 the two paths tie, per region and per whole tiles-1100 solve (ten
regions of 222-238; medians of 68-91 ms dense against 70-103 ms sparse over
three runs of 20 alternating solves), while from case404's 410 up the sparse
path is more than twice as fast, so the threshold lies above the tiles and
below case404.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .network import csc_columns
from .residual import RegionLinearization

__all__ = ["FactorizationError", "CondensedQP", "condense_region", "recover_local"]

_LOCAL_BLOCK = "local block of the regularized Gauss-Newton matrix"


class FactorizationError(RuntimeError):
    """A symmetric factorization failed; signals a numerical breakdown."""


def _sym_splu(a, what: str):
    """SuperLU factor of the sparse symmetric CSC matrix ``a``, with the
    settings for a symmetric matrix: minimum-degree ordering of A + A', no
    pivoting off the diagonal, symmetric mode."""
    try:
        return spla.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"{what} is singular: {exc}") from exc


def _dense_blocks(b: np.ndarray, x_cols, y_cols, local):
    """(Byy, Byx, Bxx) of a dense B, each a fresh C-ordered array."""
    return b[np.ix_(y_cols, y_cols)], b[np.ix_(y_cols, x_cols)], b[np.ix_(x_cols, x_cols)]


def _csc_blocks(b: sp.csc_matrix, x_cols, y_cols, local):
    """(Byy, Byx, Bxx) of a canonical CSC B, as :func:`hdpf.residual.linearize`
    makes it: Byy in CSC, the two coupling blocks dense."""
    ny, nx = len(y_cols), len(x_cols)
    # each nonzero's row and column, and each column's position in its block
    rows, cols = b.indices, csc_columns(b.indptr)
    pos = np.empty(len(local), dtype=np.int64)
    pos[y_cols] = np.arange(ny)
    pos[x_cols] = np.arange(nx)
    row_y, col_y = local[rows], local[cols]
    # y_cols ascend, so Byy's entries keep their CSC order
    yy = row_y & col_y
    counts = np.bincount(pos[cols[yy]], minlength=ny)
    byy = sp.csc_matrix((b.data[yy], pos[rows[yy]], np.concatenate([[0], np.cumsum(counts)])),
                        shape=(ny, ny))
    byx = np.zeros((ny, nx))
    yx = row_y & ~col_y
    byx[pos[rows[yx]], pos[cols[yx]]] = b.data[yx]
    bxx = np.zeros((nx, nx))
    xx = ~row_y & ~col_y
    bxx[pos[rows[xx]], pos[cols[xx]]] = b.data[xx]
    return byy, byx, bxx


def _cho_solve(byy: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Byy^-1 rhs for a dense symmetric ``byy``, by one Cholesky
    factorization; overwrites both arguments."""
    try:
        # the transpose of the C-ordered byy is the Fortran-ordered array
        # LAPACK factors in place
        factor = sla.cho_factor(byy.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{_LOCAL_BLOCK} is not positive definite: {exc}") from exc
    return sla.cho_solve(factor, rhs, overwrite_b=True, check_finite=False)


def _splu_solve(byy: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    """Byy^-1 rhs for a sparse symmetric ``byy``, by one SuperLU factor."""
    lu = _sym_splu(byy, _LOCAL_BLOCK)
    # with every pivot on the diagonal, the pivots are those of Byy's LDL'
    # factorization, all positive exactly when Byy is positive definite
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise FactorizationError(f"{_LOCAL_BLOCK} is not positive definite: "
                                 "one of its pivots is not positive")
    return lu.solve(rhs)


@dataclass
class CondensedQP:
    """Reduced model of one region plus everything recovery needs."""

    b_bar: np.ndarray      # (n_cpl, n_cpl) SPD
    g_bar: np.ndarray      # (n_cpl,)
    x_k: np.ndarray        # current coupling values A chi^k
    x_cols: np.ndarray     # free-vector columns of the coupling entries
    y_cols: np.ndarray     # free-vector columns of the local entries
    w_y: np.ndarray        # Byy^-1 gy, (n_local,)
    w_x: np.ndarray        # Byy^-1 Byx, (n_local, n_cpl)

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
        blocks, solve = _csc_blocks, _splu_solve
    else:
        blocks, solve = _dense_blocks, _cho_solve
    byy, byx, bxx = blocks(lin.hess, x_cols, y_cols, local)
    gy = lin.g[y_cols]
    w = solve(byy, np.column_stack((byx, gy)))
    w_x, w_y = w[:, :-1], w[:, -1]
    s = bxx - byx.T @ w_x
    return CondensedQP(
        b_bar=0.5 * (s + s.T), g_bar=lin.g[x_cols] - w_x.T @ gy, x_k=chi_free[x_cols],
        x_cols=x_cols, y_cols=y_cols, w_y=w_y, w_x=w_x,
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

        y+ = y - Byy^-1 (gy + Byx (x_target - x_k)) = y - (w_y + w_x (x_target - x_k)),

    one product with the solutions condensation kept, through the
    well-conditioned local block alone.
    """
    out = np.empty_like(chi_free)
    out[cqp.x_cols] = x_target
    out[cqp.y_cols] = chi_free[cqp.y_cols] - (cqp.w_y + cqp.w_x @ (x_target - cqp.x_k))
    return out
