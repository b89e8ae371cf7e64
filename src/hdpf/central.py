"""Centralized references: whole-system Gauss-Newton and a dense KKT solver.

The centralized solver runs on the merged, unpartitioned case through the
same residual and Jacobian code and the same outer loop as the distributed
path, but factors the whole regularized Gauss-Newton matrix itself, so any
disagreement with the distributed path isolates the condensation and
consensus machinery rather than the physics.  The dense saddle-point
solver is the independent oracle for the condensed consensus QP.
"""

from __future__ import annotations

import numpy as np

from .condense import FactorizationError, _cho_factor, _cho_solve
from .driver import SolverConfig, _iterate
from .network import NetworkModel, StateVector, flat_start
from .trace import SolveTrace

__all__ = ["central_solve", "dense_kkt_solve"]


def central_solve(net: NetworkModel, cfg: SolverConfig | None = None,
                  x0: StateVector | None = None) -> tuple[StateVector, SolveTrace]:
    """Regularized Gauss-Newton on the whole network from a flat start.

    Defaults push the residual to 1e-12 so the result can serve as the
    reference solution; non-convergence is reported through the trace
    status, not an exception.
    """
    if cfg is None:
        cfg = SolverConfig(tol_residual=1e-12)
    s = x0.copy() if x0 is not None else flat_start(net)
    (s,), _, records, status = _iterate([net], [s], None, cfg, _full_space_step)
    return s, SolveTrace(records=records, status=status)


def _full_space_step(lins, chis):
    """chi+ = B^-1 (B chi - g) with B = J'J + eps*I, by a dense Cholesky
    factorization of the whole matrix: no condensation, no consensus."""
    (lin,), (chi,) = lins, chis
    rhs = lin.hess @ chi - lin.g
    chol = _cho_factor(lin.hess, "full-space Gauss-Newton matrix")
    return [_cho_solve(chol, rhs)], None, 0.0


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
        xs = []
        lams = []
        for b, g, xk in zip(b_bars, g_bars, x_ks):
            if len(g) == 0:
                xs.append(np.zeros(0))
            else:
                xs.append(xk - np.linalg.solve(b, g))
            lams.append(np.zeros(len(g)))
        return xs, np.zeros(0), lams

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

    xs = []
    lams = []
    off = 0
    for n in sizes:
        xs.append(sol[off:off + n])
        lams.append(sol[n_x + n_z + off:n_x + n_z + off + n])
        off += n
    return xs, sol[n_x:n_x + n_z], lams
