"""One-pass dual decomposition for the condensed consensus QP.

The condensed subproblem

    min over x, z   sum_l  0.5 x_l' Bbar_l x_l + (gbar_l - Bbar_l x_l^k)' x_l
    subject to      x_l = E_l z   (multiplier lam_l)

is strongly convex, and a single sweep of three steps lands exactly on its
KKT point (no inner loop exists):

1. unconstrained local moves   xbar_l = x_l^k - Bbar_l^-1 gbar_l
2. weighted average            zbar = (sum E' Bbar E)^-1 sum E' Bbar xbar
3. dual update                 lam_l = Bbar_l (xbar_l - E_l zbar)

The weighted average is the only cross-region computation; contributions
are accumulated in region order so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condense import CondensedQP, FactorizationError, _cho_factor, _cho_solve
from .partition import RegionStructure

__all__ = [
    "TOL_KKT",
    "ConsensusSolution",
    "KktResiduals",
    "local_unconstrained",
    "region_contribution",
    "weighted_average",
    "dual_update",
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


def local_unconstrained(cqp: CondensedQP) -> np.ndarray:
    """Stationary point of the local reduced model with lam = 0."""
    if cqp.n_cpl == 0:
        return np.zeros(0)
    rhs = cqp.b_bar @ cqp.x_k - cqp.g_bar
    return _cho_solve(cqp.chol_bbar, rhs)


def region_contribution(cqp: CondensedQP, region: RegionStructure,
                        x_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This region's dense consensus payload.

    Returns (active z columns, the E' Bbar E block on them, E' Bbar xbar),
    which is all the coordinator ever needs from a region.  The columns are
    the region's ``z_cols`` in its own coupling order, so the block is
    ``Bbar`` itself; :func:`weighted_average` adds each entry once at its
    column, so the order does not change the average.
    """
    return region.z_cols, cqp.b_bar, cqp.b_bar @ x_bar


def weighted_average(contributions, n_z: int) -> np.ndarray:
    """Solve for the consensus vector from per-region payloads (region order)."""
    if n_z == 0:
        return np.zeros(0)
    s = np.zeros((n_z, n_z))
    b = np.zeros(n_z)
    for cols, s_block, b_vec in contributions:
        s[np.ix_(cols, cols)] += s_block
        b[cols] += b_vec
    try:
        factor = _cho_factor(s, "consensus system")
    except FactorizationError as exc:
        raise FactorizationError(
            "consensus system is singular; some consensus column is untouched "
            "by any region (partition bug)"
        ) from exc
    return _cho_solve(factor, b)


def dual_update(cqp: CondensedQP, region: RegionStructure, x_bar: np.ndarray,
                z_bar: np.ndarray) -> np.ndarray:
    """lam_l = Bbar_l (xbar_l - E_l zbar)."""
    if cqp.n_cpl == 0:
        return np.zeros(0)
    return cqp.b_bar @ (x_bar - z_bar[region.z_cols])


def consensus_pass(cqps: list[CondensedQP], regions: list[RegionStructure],
                   n_z: int, average=weighted_average) -> ConsensusSolution:
    """One full sweep: local solves, the coordinator's average, dual update.

    ``average(contributions, n_z)`` is the coordinator's step: it receives
    the :func:`region_contribution` payloads in region order and returns
    zbar.  :func:`weighted_average` computes it directly;
    :func:`hdpf.comm.run_distributed` passes one that carries the payloads
    as metered buffers.
    """
    x_bars = [local_unconstrained(c) for c in cqps]
    contribs = [region_contribution(c, r, x) for c, r, x in zip(cqps, regions, x_bars)]
    z_bar = average(contribs, n_z)
    lams = [dual_update(c, r, x, z_bar) for c, r, x in zip(cqps, regions, x_bars)]
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
