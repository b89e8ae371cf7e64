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
A region's :class:`BlockSplit` is built once and keeps what depends on B's
fixed pattern alone: for a dense B, the flat gathers of its three blocks,
so a dense condensation is three gathers, two LAPACK calls and two
products; for a CSC B, built from the first one, the gather of Byy's values
into Byy's fill-reducing order (a :class:`FixedOrder`), the scatters of Byx
and Bxx and the order itself, so a sparse condensation is one gather, two
scatters and one SuperLU factor in that order, with no ordering computed
after the first.

The factorization is made once per outer iteration and is the dominant
per-region cost.  Linearize, condense and recover of one region at the flat
start, dense against sparse, each path on a split that has seen a B of its
form (best / median of 30 alternating runs, on a 2-vCPU host with OpenBLAS
on 2 threads):

    ==========  ======  ===============  ===============
    region      n_free  dense            sparse
    ==========  ======  ===============  ===============
    grid-8x8        36  0.10 / 0.14 ms   0.29 / 0.39 ms
    case53          66  0.14 / 0.17 ms   0.35 / 0.44 ms
    tiles-1100     238  1.33 / 1.45 ms   1.04 / 1.13 ms
    case404        410  4.00 / 4.40 ms   1.46 / 1.74 ms
    pair-808       814  7.92 / 8.13 ms   2.39 / 2.56 ms
    ==========  ======  ===============  ===============

Over three such runs the sparse column read 2.39-3.93 / 2.56-4.23 ms at 814
and 1.46-2.17 / 1.74-2.37 ms at 410; ordering Byy afresh at every call
(SuperLU's own minimum-degree ordering) costs 4.05 / 5.43 ms and
2.31 / 2.65 ms.  Per region the sparse path wins from the tiles' 238 up, but a
whole solve also pays a first-call ordering per region.  A whole case404
solve (three runs of 20 alternating solves) takes 30-34 ms with the
threshold at 400 (sparse) against 36-42 ms at 500 (dense) on a fresh
problem, and 19-20 ms against 27-28 ms on a problem that has solved before;
a whole tiles-1100 solve takes 69-82 ms with the threshold at 200 (sparse)
against 65-71 ms at 400 (dense) on a fresh problem, and 43-50 ms against
50-57 ms on a solved one.  The threshold of 400 therefore stays: from 400
up the sparse path wins either way, and below it a fresh solve would lose
what later ones gain.
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


def _splu(a, what: str, permc_spec: str):
    """SuperLU factor of the sparse symmetric CSC matrix ``a`` in the column
    order ``permc_spec`` picks, with no pivoting off the diagonal, in
    symmetric mode."""
    try:
        return spla.splu(a, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"{what} is singular: {exc}") from exc


def _sym_splu(a, what: str):
    """SuperLU factor of the sparse symmetric CSC matrix ``a``, with the
    settings for a symmetric matrix: minimum-degree ordering of A + A', no
    pivoting off the diagonal, symmetric mode."""
    return _splu(a, what, "MMD_AT_PLUS_A")


class FixedOrder:
    """A fixed symmetric CSC pattern in a fill-reducing order, found once
    for every matrix on the pattern.

    A sparse Cholesky splits into an analysis that reads the pattern alone,
    the ordering, and a numerical factorization (George & Liu, Computer
    Solution of Large Sparse Positive Definite Systems, 1981).  scipy has no
    separate analysis, so the order is the column order :func:`_sym_splu`
    picks for the first matrix, whose factor is thrown away.  Every
    factorization, the first one included, then factors the matrix permuted
    into that order, A[q][:, q], in its natural order.  Each ordered column
    keeps its entries in the stored order of the column it came from, and
    SuperLU reads them in that order, so the factor makes the operations of
    :func:`_sym_splu`'s own: the same fill and the same bits.
    """

    def __init__(self, a: sp.csc_matrix, what: str):
        self.what = what
        # perm[i] is the ordered position of row and column i, q its inverse
        perm = _sym_splu(a, what).perm_c
        self.q = np.argsort(perm)
        cols = perm[csc_columns(a.indptr)]
        # the ordered matrix's k-th stored entry is a's entry src[k]
        self.src = np.argsort(cols, kind="stable")
        # int32, the index type of scipy and SuperLU, so factor() copies none
        self.indices = perm[a.indices[self.src]].astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=len(self.q)))]
                                     ).astype(np.int32)

    def factor(self, data: np.ndarray):
        """SuperLU factor of the ordered matrix with stored values ``data``."""
        n = len(self.q)
        a = sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))
        # no duplicates; the flag keeps splu from sorting each column's rows
        a.has_canonical_format = True
        return _splu(a, self.what, "NATURAL")

    def solve(self, lu, rhs: np.ndarray) -> np.ndarray:
        """The solution, in the original order and in the memory layout of
        ``rhs``, of A w = ``rhs`` for the factor ``lu`` of the ordered A."""
        w = np.empty_like(rhs)
        w[self.q] = lu.solve(rhs[self.q])
        return w


class BlockSplit:
    """A model's free columns split into coupling entries x and local
    entries y, and, built on first use, the maps that take Byy, Byx and Bxx
    out of B: for a dense, C-ordered B, three flat gathers; for a CSC B on
    its fixed pattern, one gather of Byy's values in the fill-reducing order
    of :attr:`order`, two scatters of the coupling blocks and that order."""

    def __init__(self, n_free: int, x_cols):
        self.x_cols = np.asarray(x_cols, dtype=np.int64)
        self.local = np.ones(n_free, dtype=bool)
        self.local[self.x_cols] = False
        self.y_cols = np.flatnonzero(self.local)
        self.order: FixedOrder | None = None  # Byy's, from the first CSC B

    @functools.cached_property
    def gathers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat positions in B of Byy, Byx and Bxx, each of its block's shape."""
        n, y, x = len(self.local), self.y_cols, self.x_cols
        return y[:, None] * n + y, y[:, None] * n + x, x[:, None] * n + x

    def csc_blocks(self, b: sp.csc_matrix):
        """(Byy, Byx, Bxx) of a canonical CSC B, as :func:`hdpf.residual.linearize`
        makes it, on the pattern of the first one this split saw: Byy's
        stored values in :attr:`order`, the coupling blocks dense."""
        if self.order is None:
            self._map_csc(b)
        byx = np.zeros((len(self.y_cols), len(self.x_cols)))
        bxx = np.zeros((len(self.x_cols), len(self.x_cols)))
        for block, (src, flat) in ((byx, self._yx), (bxx, self._xx)):
            block.put(flat, b.data[src])
        return b.data[self._yy], byx, bxx

    def _map_csc(self, b: sp.csc_matrix):
        x_cols, y_cols, local = self.x_cols, self.y_cols, self.local
        ny, nx = len(y_cols), len(x_cols)
        # each nonzero's row and column, and each column's position in its block
        rows, cols = b.indices, csc_columns(b.indptr)
        pos = np.empty(len(local), dtype=np.int64)
        pos[y_cols] = np.arange(ny)
        pos[x_cols] = np.arange(nx)
        row_y, col_y = local[rows], local[cols]
        # y_cols ascend, so Byy's entries keep their CSC order
        yy = np.flatnonzero(row_y & col_y)
        counts = np.bincount(pos[cols[yy]], minlength=ny)
        byy = sp.csc_matrix((b.data[yy], pos[rows[yy]], np.concatenate([[0], np.cumsum(counts)])),
                            shape=(ny, ny))
        order = FixedOrder(byy, _LOCAL_BLOCK)
        yx, xx = np.flatnonzero(row_y & ~col_y), np.flatnonzero(~row_y & ~col_y)
        self._yx = yx, pos[rows[yx]] * nx + pos[cols[yx]]
        self._xx = xx, pos[rows[xx]] * nx + pos[cols[xx]]
        self._yy = yy[order.src]
        self.order = order


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


def _splu_solve(order: FixedOrder, byy: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Byy^-1 rhs for the stored values ``byy`` of a sparse symmetric Byy in
    ``order``, by one SuperLU factor."""
    lu = order.factor(byy)
    # with every pivot on the diagonal, the pivots are those of Byy's LDL'
    # factorization, all positive exactly when Byy is positive definite
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise FactorizationError(f"{_LOCAL_BLOCK} is not positive definite: "
                                 "one of its pivots is not positive")
    return order.solve(lu, rhs)


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
    the region's :class:`BlockSplit`, which keeps its gathers and Byy's
    order from call to call, or the coupling entries' free-vector columns,
    split (and, for a CSC B, ordered) for this call alone."""
    split = cols if isinstance(cols, BlockSplit) else BlockSplit(lin.hess.shape[0], cols)
    x_cols, y_cols = split.x_cols, split.y_cols
    if sp.issparse(lin.hess):
        byy, byx, bxx = split.csc_blocks(lin.hess)
        solve = functools.partial(_splu_solve, split.order)
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
