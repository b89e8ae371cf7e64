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
:data:`hdpf.residual.SPARSE_MIN_FREE` free entries, and Byy is factored and
solved by LAPACK's Cholesky (``potrf``, ``potrs``), called directly; B is
CSC for a larger one (see :func:`hdpf.residual.linearize`), and Byy is
factored by SuperLU with the symmetric settings of :func:`_sym_splu`, at a
cost that grows with the nonzeros of Byy and its factor, not with n_free^3.
A region's :class:`BlockSplit` is built once and keeps, for a dense B, the
flat gathers of its three blocks, so a dense condensation is three
gathers, two LAPACK calls and two products.

The factorization is made once per outer iteration and is the dominant
per-region cost.  Linearize, condense and recover of one region at the flat
start, dense against sparse (best / median of 30 alternating runs, on a
2-vCPU host with OpenBLAS on 2 threads):

    ==========  ======  ===============  ===============
    region      n_free  dense            sparse
    ==========  ======  ===============  ===============
    grid-8x8        36  0.09 / 0.14 ms   0.39 / 0.54 ms
    case53          66  0.14 / 0.23 ms   0.78 / 0.85 ms
    tiles-1100     238  1.02 / 1.62 ms   1.57 / 2.52 ms
    case404        410  2.15 / 3.50 ms   2.25 / 3.84 ms
    pair-808       814  10.3 / 11.3 ms   4.39 / 5.38 ms
    ==========  ======  ===============  ===============

Up to the tiles' 238 the dense path is the faster, per region and per whole
tiles-1100 solve (medians of 70-92 ms dense against 93-102 ms sparse over
three runs of 20 alternating solves).  The paths now cross near case404's
410: its whole solve takes 32-34 ms on either (same protocol), while at
pair-808's 814 the sparse path is twice as fast.  The threshold of 400 sits
at the crossover, where the choice costs no time, and keeps the regions
from 400 up off the n_free^2 arrays of the dense path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .network import csc_columns
from .residual import RegionLinearization

__all__ = ["FactorizationError", "BlockSplit", "CondensedQP", "condense_region", "recover_local"]

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


class BlockSplit:
    """A model's free columns split into coupling entries x and local
    entries y, and, built on first use, the flat gathers that take Byy, Byx
    and Bxx out of a dense, C-ordered B."""

    def __init__(self, n_free: int, x_cols):
        self.x_cols = np.asarray(x_cols, dtype=np.int64)
        self.local = np.ones(n_free, dtype=bool)
        self.local[self.x_cols] = False
        self.y_cols = np.flatnonzero(self.local)

    @functools.cached_property
    def gathers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat positions in B of Byy, Byx and Bxx, each of its block's shape."""
        n, y, x = len(self.local), self.y_cols, self.x_cols
        return y[:, None] * n + y, y[:, None] * n + x, x[:, None] * n + x


def _csc_blocks(b: sp.csc_matrix, split: BlockSplit):
    """(Byy, Byx, Bxx) of a canonical CSC B, as :func:`hdpf.residual.linearize`
    makes it: Byy in CSC, the two coupling blocks dense."""
    x_cols, y_cols, local = split.x_cols, split.y_cols, split.local
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
    """Byy^-1 rhs for a dense symmetric ``byy`` and a Fortran-ordered
    ``rhs``, by LAPACK's Cholesky factor and solve (``potrf``, ``potrs``),
    the routines scipy's ``cho_factor`` and ``cho_solve`` call; overwrites
    both arguments."""
    # the transpose of the C-ordered byy is the Fortran-ordered array
    # LAPACK factors in place
    factor, info = lapack.dpotrf(byy.T, lower=1, overwrite_a=1, clean=0)
    if info:
        raise FactorizationError(f"{_LOCAL_BLOCK} is not positive definite: {info}-th leading "
                                 f"minor of the array is not positive definite "
                                 f"(LAPACK potrf info {info})")
    if not len(byy):  # potrs rejects an empty factor
        return rhs
    return lapack.dpotrs(factor, rhs, lower=1, overwrite_b=1)[0]


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


def condense_region(lin: RegionLinearization, cols: BlockSplit | np.ndarray,
                    chi_free: np.ndarray) -> CondensedQP:
    """Condense one region's model at the current iterate.  ``cols`` is
    the region's :class:`BlockSplit`, which keeps its gathers from call to
    call, or the coupling entries' free-vector columns, split for this call
    alone."""
    split = cols if isinstance(cols, BlockSplit) else BlockSplit(lin.hess.shape[0], cols)
    x_cols, y_cols = split.x_cols, split.y_cols
    if sp.issparse(lin.hess):
        byy, byx, bxx = _csc_blocks(lin.hess, split)
        solve = _splu_solve
    else:
        byy, byx, bxx = (lin.hess.take(flat) for flat in split.gathers)
        solve = _cho_solve
    gy = lin.g[y_cols]
    rhs = np.empty((len(y_cols), len(x_cols) + 1), order="F")
    rhs[:, :-1] = byx
    rhs[:, -1] = gy
    w = solve(byy, rhs)
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
