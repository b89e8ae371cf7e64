"""One-pass dual decomposition for the condensed consensus QP.

The condensed subproblem

    min over x, z   sum_l  0.5 x_l' Bbar_l x_l + (gbar_l - Bbar_l x_l^k)' x_l
    subject to      x_l = E_l z   (multiplier lam_l)

is strongly convex, and a single sweep lands exactly on its KKT point (no
inner loop exists).  Each region's unconstrained local move is
xbar_l = x_l^k - Bbar_l^-1 gbar_l, but the sweep needs it only through
Bbar_l xbar_l, and

    Bbar_l xbar_l = Bbar_l x_l^k - gbar_l,

so xbar is never formed: a region's payload is (z_cols, Bbar_l,
Bbar_l x_l^k - gbar_l), and no solve runs through Bbar_l, whose smallest
eigenvalue can be the regularization itself along a direction the region's
model is flat in.  From the payloads the coordinator solves

    zbar = (sum E' Bbar E)^-1 sum E' (Bbar x^k - gbar),

and each region sets lam_l = (Bbar_l x_l^k - gbar_l) - Bbar_l E_l zbar.

The weighted average is the only cross-region computation; contributions
are accumulated in region order so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .condense import CondensedQP, FactorizationError, _sym_splu
from .partition import RegionStructure

__all__ = [
    "TOL_KKT",
    "ConsensusSolution",
    "KktResiduals",
    "weighted_average",
    "consensus_pass",
    "verify_kkt",
    "averaging_projector",
]

# default absolute KKT tolerance; callers scale it by (1 + |gbar|_inf)
TOL_KKT = 1e-8


@dataclass
class KktResiduals:
    stationarity: float   # max ||Bbar (x - x^k) + gbar + lam||_inf
    dual: float           # || sum E' lam ||_inf
    primal: float         # max ||x - E zbar||_inf

    def max(self) -> float:
        return max(self.stationarity, self.dual, self.primal)


@dataclass
class ConsensusSolution:
    z_bar: np.ndarray
    lam: list[np.ndarray]


def weighted_average(contributions, n_z: int) -> np.ndarray:
    """Solve for the consensus vector from per-region payloads.

    Each payload is ``(cols, block, vec)``: the region's z columns, the
    ``Bbar`` block on them and ``Bbar x^k - gbar``, in region order.  The
    system ``S = sum E' Bbar E`` is assembled sparse, in CSC, and factored
    by SuperLU with the symmetric settings.  Each entry of S is summed over
    the regions in region order, whatever the order of a region's columns.
    """
    if n_z == 0:
        return np.zeros(0)
    keys, vals = [], []
    b = np.zeros(n_z)
    for cols, block, vec in contributions:
        # column-major key of block entry (a, c): row cols[a], column cols[c]
        n = len(cols)
        keys.append(np.tile(cols, n) * n_z + np.repeat(cols, n))
        vals.append(block.ravel())
        b[cols] += vec
    key, at = np.unique(np.concatenate(keys), return_inverse=True)
    indptr = np.searchsorted(key, np.arange(n_z + 1) * n_z)
    s = sp.csc_matrix((np.bincount(at, weights=np.concatenate(vals)), key % n_z, indptr),
                      shape=(n_z, n_z))
    try:
        return _sym_splu(s, "consensus system").solve(b)
    except FactorizationError as exc:
        raise FactorizationError(
            "consensus system is singular; some consensus column is untouched "
            "by any region (partition bug)"
        ) from exc


def consensus_pass(cqps: list[CondensedQP], regions: list[RegionStructure],
                   n_z: int, average=weighted_average) -> ConsensusSolution:
    """One full sweep: the regions' payloads, the coordinator's average and
    the multipliers.

    ``average(contributions, n_z)`` is the coordinator's step: it receives
    the payloads ``(z_cols, Bbar, Bbar x^k - gbar)`` in region order and
    returns zbar.  :func:`weighted_average` computes it directly;
    :func:`hdpf.comm.run_distributed` passes one that carries the payloads
    as metered buffers.
    """
    contribs = [(r.z_cols, c.b_bar, c.b_bar @ c.x_k - c.g_bar) for c, r in zip(cqps, regions)]
    z_bar = average(contribs, n_z)
    lams = [v - c.b_bar @ z_bar[cols] for c, (cols, _, v) in zip(cqps, contribs)]
    return ConsensusSolution(z_bar=z_bar, lam=lams)


def _inf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def verify_kkt(cqps: list[CondensedQP], regions: list[RegionStructure],
               sol: ConsensusSolution, chi_next: list[np.ndarray]) -> KktResiduals:
    """KKT residuals of the condensed QP at the recovered iterate."""
    stat = 0.0
    primal = 0.0
    dual_acc = np.zeros(len(sol.z_bar))
    for cqp, reg, lam, chi in zip(cqps, regions, sol.lam, chi_next):
        if cqp.n_cpl == 0:
            continue
        x = chi[cqp.x_cols]
        stat = max(stat, _inf(cqp.b_bar @ (x - cqp.x_k) + cqp.g_bar + lam))
        primal = max(primal, _inf(x - sol.z_bar[reg.z_cols]))
        np.add.at(dual_acc, reg.z_cols, lam)
    return KktResiduals(stationarity=stat, dual=_inf(dual_acc), primal=primal)


def averaging_projector(cqps: list[CondensedQP], regions: list[RegionStructure],
                        n_z: int) -> np.ndarray:
    """M = I - E (E' Bbar E)^-1 E' Bbar on the stacked coupling space.

    Idempotent for SPD Bbar; annihilates range(E).  Exposed for the
    invariant checks (dense, so meant for small consensus spaces).
    """
    n_x = sum(c.n_cpl for c in cqps)
    e = np.zeros((n_x, n_z))
    bbar = np.zeros((n_x, n_x))
    o = 0
    for cqp, reg in zip(cqps, regions):
        n = cqp.n_cpl
        e[np.arange(o, o + n), reg.z_cols] = 1.0
        bbar[o:o + n, o:o + n] = cqp.b_bar
        o += n
    s = e.T @ bbar @ e
    return np.eye(n_x) - e @ np.linalg.solve(s, e.T @ bbar)
