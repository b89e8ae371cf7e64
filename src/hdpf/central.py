"""Centralized references: whole-system Gauss-Newton and a dense KKT solver.

The centralized solver runs on the merged, unpartitioned case through the
same residual and Jacobian code and the same outer loop as the distributed
path, but factors the whole regularized Gauss-Newton matrix itself, so any
disagreement with the distributed path isolates the condensation and
consensus machinery rather than the physics.  That matrix,
B = J'J + eps*I, stays sparse: it is assembled in CSC form and factored
once per iteration by SuperLU with settings for a symmetric positive
definite matrix (minimum-degree ordering of B + B', no pivoting off the
diagonal, symmetric mode), so the step costs grow with the nonzeros of B
rather than with the cube of the number of free entries; the step is taken
as chi - B^-1 g (see :func:`_full_space_step`).  The dense
saddle-point solver is the independent oracle for the condensed consensus
QP.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .condense import FactorizationError, _sym_splu
from .driver import SolverConfig, _iterate
from .network import NetworkModel, StateVector, flat_start
from .residual import RegionLinearization, _residual_and_jacobian
from .trace import SolveTrace

__all__ = ["central_solve", "dense_kkt_solve"]

TOL_REFERENCE = 1e-12  # default residual tolerance of the reference solve


def central_solve(net: NetworkModel,
                  cfg: SolverConfig | None = None) -> tuple[StateVector, SolveTrace]:
    """Regularized Gauss-Newton on the whole network from a flat start.

    Defaults push the residual to ``TOL_REFERENCE`` so the result can serve
    as the reference solution; non-convergence is reported through the
    trace status, not an exception.
    """
    if cfg is None:
        cfg = SolverConfig(tol_residual=TOL_REFERENCE)
    (s,), _, records, status = _iterate(
        [flat_start(net)], None, cfg, _full_space_step,
        lambda states, eps: [_sparse_linearize(net, states[0], eps)])
    return s, SolveTrace(records=records, status=status)


def _sparse_linearize(net: NetworkModel, s: StateVector, eps: float) -> RegionLinearization:
    """:func:`hdpf.residual.linearize` with ``hess`` = J'J + eps*I kept as a
    CSC matrix of its own pattern, so no dense n_free x n_free array is
    formed and no region's pattern maps are built.  J is dropped as soon
    as J'r and J'J are formed, before eps*I is added."""
    r, j = _residual_and_jacobian(net, s)
    g = j.T @ r
    jtj = j.T @ j
    del j
    hess = sp.csc_matrix(jtj + eps * sp.identity(net.n_free, format="csc"))
    return RegionLinearization(r=r, jac=None, g=g, hess=hess, eps=eps)


def _full_space_step(lins, chis):
    """chi+ = chi - B^-1 g with B = J'J + eps*I, by one sparse LU
    factorization of the whole matrix: no condensation, no consensus.

    The step form is algebraically B^-1 (B chi - g), but its rounding error
    scales with the step rather than with |chi|, which keeps the residual
    of the returned state near machine precision.  B is dropped from
    ``lin`` once factored.
    """
    (lin,), (chi,) = lins, chis
    if len(chi) == 0:
        return [chi.copy()], None, {"primal_residual": 0.0}
    lu = _sym_splu(lin.hess, "full-space Gauss-Newton matrix")
    lin.hess = None  # factored: free B before the next iterate's is formed
    return [chi - lu.solve(lin.g)], None, {"primal_residual": 0.0}


def dense_kkt_solve(b_bars: list[np.ndarray], g_bars: list[np.ndarray],
                    x_ks: list[np.ndarray], z_cols: list[np.ndarray],
                    n_z: int) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """Directly solve the condensed consensus QP's KKT system.

    Unknowns are the stacked coupling vector x, the consensus vector z, and
    one multiplier per coupling entry; the symmetric indefinite system

        [ Bbar  0  I ] [x]   [ Bbar x^k - gbar ]
        [ 0     0 -E'] [z] = [ 0 ]
        [ I    -E  0 ] [l]   [ 0 ]

    is factored densely.  With no consensus column the blocks are solved
    unconstrained and the multipliers vanish.
    """
    sizes = [len(g) for g in g_bars]
    n_x = sum(sizes)
    if n_z == 0:
        xs = [xk - np.linalg.solve(b, g) if len(g) else np.zeros(0)
              for b, g, xk in zip(b_bars, g_bars, x_ks)]
        return xs, np.zeros(0), [np.zeros(len(g)) for g in g_bars]

    dim = n_x + n_z + n_x
    kkt = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    off = 0
    for b, g, xk, cols in zip(b_bars, g_bars, x_ks, z_cols):
        n = len(g)
        sl = slice(off, off + n)
        kkt[sl, sl] = b
        rows = np.arange(off, off + n)
        kkt[rows, n_x + n_z + rows] = 1.0            # +lam in stationarity
        kkt[n_x + n_z + rows, rows] = 1.0            # x in the constraint
        kkt[n_x + n_z + rows, n_x + np.asarray(cols)] = -1.0   # -E z
        kkt[n_x + np.asarray(cols), n_x + n_z + rows] = -1.0   # -E' lam
        rhs[sl] = b @ xk - g
        off += n
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"singular consensus KKT system: {exc}") from exc

    ends = np.cumsum(sizes)[:-1]
    return np.split(sol[:n_x], ends), sol[n_x:n_x + n_z], np.split(sol[n_x + n_z:], ends)
