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
The solver's iterate is one free vector for all regions, so each region
writes its b_bar and b_bar x_k - g_bar straight into one
:class:`StackedQP`, which the consensus pass reads as it is, and
:func:`recover` sets every region's next free entries at once.

B reaches condensation in one form: its values on the region's fixed pattern,
its :class:`~hdpf.network.GramPattern` (a 2-D B built by hand is read as its
values on the full n x n pattern).  A region's :class:`BlockSplit`, built
from that pattern alone by the problem's analysis, keeps O(nnz) maps that
scatter Byx, Bxx and Byy out of the values.
Only Byy's form and factorization depend on the region's size, chosen here
alone, once per split: below :data:`SPARSE_MIN_FREE` free entries Byy is
dense, factored and solved by LAPACK's Cholesky (``potrf``, ``potrs``); from
there on a :class:`FixedSystem` over B's values, with every entry outside Byy
off the system, sums Byy in the fill-reducing order it found from the first B
and factors it by SuperLU with the symmetric settings of :func:`_sym_splu`, at
a cost that grows with the nonzeros of Byy and its factor, not with n_free^3.
The coordinator's S and the diagnostic K are fixed systems too.

The factorization is made once per outer iteration and is the dominant
per-region cost.  Linearize, condense and recover of one region at the flat
start, dense against sparse, each path on a split that has condensed before
(best / median of 30 alternating runs, on a 2-vCPU host with OpenBLAS on 2
threads, measured while a dense-path B was a dense n_free x n_free array and
a sparse-path Byy was gathered, not summed, into its kept order):

    ==========  ======  ===============  ===============
    region      n_free  dense            sparse
    ==========  ======  ===============  ===============
    grid-8x8        36  0.10 / 0.14 ms   0.29 / 0.39 ms
    case53          66  0.14 / 0.17 ms   0.35 / 0.44 ms
    tiles-1100     238  1.33 / 1.45 ms   1.04 / 1.13 ms
    case404        410  4.00 / 4.40 ms   1.46 / 1.74 ms
    pair-808       814  7.92 / 8.13 ms   2.39 / 2.56 ms
    ==========  ======  ===============  ===============

Ordering Byy afresh at every call would cost 4.05 / 5.43 ms at 814 and
2.31 / 2.65 ms at 410.  Per region the sparse path wins from the tiles' 238
up, but a whole solve also pays a first-call ordering per region.  A whole
case404 solve (three runs of 20 alternating solves) takes 30-34 ms with the
threshold at 400 (sparse) against 36-42 ms at 500 (dense) on a fresh
problem, and 19-20 ms against 27-28 ms on a problem that has solved before;
on fresh tiles-1100 problems (three runs, medians of 10 each, measured
once the factor that finds a sparse order served the first solve and the
dense path scattered Byy from B's values) the threshold at 200 (sparse)
against 400 (dense) takes 66-73 against 55-58 ms for the first solve,
45-49 against 38-42 ms for a repeat solve and 44-48 against 37-41 ms for
the message-passing harness.  The threshold of 400 therefore stays: from
400 up the sparse path wins either way, and the tiles' 238-entry regions
lose every solve on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .network import GramPattern, csc_columns
from .residual import RegionLinearization

__all__ = ["FactorizationError", "FixedSystem", "BlockSplit", "CondensedQP", "StackedQP",
           "condense_region", "recover"]

_LOCAL_BLOCK = "local block of the regularized Gauss-Newton matrix"

# free entries from which a region's Byy is factored sparse (timings above)
SPARSE_MIN_FREE = 400


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


class FixedSystem:
    """A sparse symmetric n x n system on a fixed pattern: the values listed
    at (``rows``, ``cols``) entries, duplicates added in listing order; a
    value with a negative row or column goes to a spare bin, off the system.

    A sparse Cholesky splits into an analysis that reads the pattern alone,
    the ordering, and a numerical factorization (George & Liu, Computer
    Solution of Large Sparse Positive Definite Systems, 1981).  scipy has no
    separate analysis, so the order is the column order :func:`_sym_splu`
    picks for the first matrix, and that factor serves the first solve.
    Every later solve sums the values straight into the matrix permuted into
    that order, A[q][:, q], and factors it in its natural order.  Each
    ordered column keeps its entries in the stored order of the column it
    came from, and SuperLU reads them in that order, so the factor makes the
    operations of :func:`_sym_splu`'s own: the same fill and the same bits.
    """

    def __init__(self, rows, cols, n: int, what: str):
        rows, cols = np.asarray(rows), np.asarray(cols)
        self.n, self.what = n, what
        # column-major key of each listed value; the spare bin's, n * n, sorts last
        key, self._at = np.unique(np.where((rows < 0) | (cols < 0), n * n, cols * n + rows),
                                  return_inverse=True)
        self.indptr = np.searchsorted(key, np.arange(n + 1) * n)
        self.indices = key[:self.indptr[-1]] % n
        self._q = None  # the kept order's inverse, from the first solve

    def _keep_order(self, perm: np.ndarray):
        # perm[i] is the ordered position of row and column i
        cols = perm[csc_columns(self.indptr)]
        # the ordered matrix's k-th stored entry is the pattern's entry src[k]
        src = np.argsort(cols, kind="stable")
        # int32, the index type of scipy and SuperLU, so splu copies none
        self.indices = perm[self.indices[src]].astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=self.n))]
                                     ).astype(np.int32)
        # send each listed value straight to its ordered entry, the spare bin's stays last
        dest = np.append(np.empty_like(src), len(src))
        dest[src] = np.arange(len(src))
        self._at = dest[self._at]
        self._q = np.argsort(perm)

    def solve(self, values: np.ndarray, rhs: np.ndarray, spd: bool = False) -> np.ndarray:
        """w with A w = ``rhs``, in ``rhs``'s memory layout, for the matrix A
        summed from ``values``, one per listed entry.  With ``spd``, a pivot
        that is not positive raises :class:`FactorizationError`: with every
        pivot on the diagonal, they are those of A's LDL' factorization."""
        data = np.bincount(self._at, weights=values, minlength=len(self.indices) + 1)[:-1]
        a = sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))
        # the first factor is of A itself, a later one of A[q][:, q]
        q = self._q
        if q is None:
            lu, q = _sym_splu(a, self.what), slice(None)
            self._keep_order(lu.perm_c)
        else:
            # no duplicates; the flag keeps splu from sorting each column's rows
            a.has_canonical_format = True
            lu = _splu(a, self.what, "NATURAL")
        if spd and not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
            raise FactorizationError(f"{self.what} is not positive definite: "
                                     "one of its pivots is not positive")
        w = np.empty_like(rhs)
        w[q] = lu.solve(rhs[q])
        return w


class BlockSplit:
    """A model's free columns split into coupling entries x and local
    entries y, and the maps, built from B's fixed ``pattern`` (None for the
    full n x n pattern of a 2-D B built by hand, column by column), that
    take Byx, Bxx and, on the dense path, Byy out of B's values by one
    gather and one scatter into one zeroed buffer, each block C-ordered; on
    the sparse path, :attr:`byy` sums Byy out of B's values."""

    def __init__(self, pattern: GramPattern | None, n_free: int, x_cols):
        self.x_cols = np.asarray(x_cols, dtype=np.int64)
        self.local = np.ones(n_free, dtype=bool)
        self.local[self.x_cols] = False
        self.y_cols = np.flatnonzero(self.local)
        self.dense = n_free < SPARSE_MIN_FREE
        self.n_y, self.n_x = ny, nx = len(self.y_cols), len(self.x_cols)
        if pattern is None:
            cols, rows = np.divmod(np.arange(n_free * n_free), n_free)
        else:
            rows, cols = pattern.indices, pattern.cols
        # each nonzero's position in its block's rows and columns
        pos = np.empty(n_free, dtype=np.int64)
        pos[self.y_cols] = np.arange(ny)
        pos[self.x_cols] = np.arange(nx)
        row_y, col_y = self.local[rows], self.local[cols]
        pr, pc = pos[rows], pos[cols]
        yy = row_y & col_y
        # each nonzero's position in the buffer [Byx, Bxx, Byy] if it is in one
        flat = np.where(col_y, ny * nx + nx * nx + pr * ny + pc, (~row_y * ny + pr) * nx + pc)
        # the entries of Byx, Bxx and, on the dense path, Byy: their positions in
        # B's values and in the buffer; on the sparse path Byy has its own system
        self.src = np.flatnonzero(~col_y | (yy & self.dense))
        self.flat = flat[self.src]
        self.byy = None if self.dense else FixedSystem(np.where(yy, pr, -1), np.where(yy, pc, -1),
                                                       ny, _LOCAL_BLOCK)

    def blocks(self, vals: np.ndarray):
        """(Byy, Byx, Bxx) of B's values ``vals``, the coupling blocks dense,
        and Byy dense on the dense path, else ``vals``, which :attr:`byy` lists."""
        ny, nx = self.n_y, self.n_x
        buf = np.zeros(ny * nx + nx * nx + (ny * ny if self.dense else 0))
        buf.put(self.flat, vals.take(self.src))
        byy = buf[ny * nx + nx * nx:].reshape(ny, ny) if self.dense else vals
        return byy, buf[:ny * nx].reshape(ny, nx), buf[ny * nx:ny * nx + nx * nx].reshape(nx, nx)


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
    if not byy.size:  # potrs rejects an empty factor
        return rhs
    return lapack.dpotrs(factor, rhs, lower=1, overwrite_b=1)[0]


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
    the region's :class:`BlockSplit`, which keeps its maps and Byy's ordered
    system from call to call, or the coupling entries' free-vector columns,
    split on ``lin.pattern`` for this call alone.  A region with
    :data:`SPARSE_MIN_FREE` free entries or more takes the sparse path."""
    split = cols if isinstance(cols, BlockSplit) else BlockSplit(lin.pattern, len(lin.g), cols)
    x_cols, y_cols = split.x_cols, split.y_cols
    # a 2-D B column by column, 1-D values as they are
    byy, byx, bxx = split.blocks(lin.hess.ravel(order="F"))
    gy = lin.g[y_cols]
    rhs = np.empty((split.n_y, split.n_x + 1), order="F")
    rhs[:, :-1] = byx
    rhs[:, -1] = gy
    w = _cho_solve(byy, rhs) if split.dense else split.byy.solve(byy, rhs, spd=True)
    w_x, w_y = w[:, :-1], w[:, -1]
    s = bxx - byx.T @ w_x
    return CondensedQP(
        b_bar=0.5 * (s + s.T), g_bar=lin.g[x_cols] - w_x.T @ gy, x_k=chi_free[x_cols],
        x_cols=x_cols, y_cols=y_cols, w_y=w_y, w_x=w_x,
    )


class StackedQP:
    """Regions' condensed models side by side: region l's ``regions[l]``,
    its b_bar row by row at ``squares[l]:squares[l + 1]`` of ``b_bar`` (the
    consensus system's value listing) and b_bar x_k - g_bar at
    ``ends[l]:ends[l + 1]`` of ``payload``."""

    def __init__(self, ends: list[int]):
        self.ends = ends
        self.squares = [0, *itertools.accumulate([(b - a) ** 2 for a, b in zip(ends, ends[1:])])]
        self.b_bar, self.payload = np.empty(self.squares[-1]), np.empty(ends[-1])
        self.regions: list[CondensedQP] = [None] * (len(ends) - 1)

    @classmethod
    def of(cls, cqps) -> StackedQP:
        stack = cls([0, *itertools.accumulate([c.n_cpl for c in cqps])])
        for l, c in enumerate(cqps):
            stack.put(l, c)
        return stack

    def put(self, l: int, cqp: CondensedQP):
        """Set region l's model, its b_bar and its payload."""
        self.regions[l] = cqp
        self.b_bar[self.squares[l]:self.squares[l + 1]] = cqp.b_bar.ravel()
        self.payload[self.ends[l]:self.ends[l + 1]] = cqp.b_bar @ cqp.x_k - cqp.g_bar


def recover(stack: StackedQP, chi: np.ndarray, x_target: np.ndarray, x_at, y_at) -> np.ndarray:
    """Full-step recovery of chi+ = B^-1 (B chi - g - A^T lam) by blocks for
    every region of ``stack``; ``chi`` holds their free vectors side by side,
    their coupling entries at ``x_at`` and their local ones at ``y_at``.

    The one-pass optimality identity makes the coupling block of that solve
    equal to the consensus values E zbar, so the coupling entries are set to
    ``x_target`` directly, not through the condensed block's factorization,
    which would amplify rounding by the reciprocal of the regularization.
    The hidden entries take the step form of the same SPD system's local
    block, y+ = y - Byy^-1 (gy + Byx (x_target - x_k)) = y - (w_y + w_x
    (x_target - x_k)), one product per region with condensation's solutions.
    """
    out = np.empty_like(chi)
    out[x_at] = x_target
    ends = stack.ends
    out[y_at] = chi[y_at] - np.concatenate([c.w_y + c.w_x @ (x_target[a:b] - c.x_k)
                                            for c, a, b in zip(stack.regions, ends, ends[1:])])
    return out
