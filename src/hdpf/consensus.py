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
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .condense import CondensedQP, FactorizationError, FixedOrder

if TYPE_CHECKING:
    from .partition import RegionStructure

__all__ = [
    "TOL_KKT",
    "ConsensusSolution",
    "ConsensusSystem",
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


class ConsensusSystem:
    """The fixed pattern of the coordinator's system S = sum E' Bbar E for
    the regions' z columns, and its fill-reducing order.

    The key map, built with the system, sends each entry of each region's
    block to its stored entry of S; the order (a :class:`FixedOrder`) is
    found from the first S and kept, and the map then sends each block entry
    straight to its stored entry of S in that order.
    """

    def __init__(self, z_cols, n_z: int):
        self.n_z = n_z
        # column-major key of block entry (a, c): row cols[a], column cols[c]
        key, self.at = np.unique(np.concatenate(
            [np.tile(cols, len(cols)) * n_z + np.repeat(cols, len(cols)) for cols in z_cols]),
            return_inverse=True)
        self.indices = key % n_z
        self.indptr = np.searchsorted(key, np.arange(n_z + 1) * n_z)
        self.order: FixedOrder | None = None

    def solve(self, contributions) -> np.ndarray:
        """zbar from the payloads, whose columns are those the system was
        built for, in the same order."""
        b = np.zeros(self.n_z)
        vals = []
        for cols, block, vec in contributions:
            vals.append(block.ravel())
            b[cols] += vec
        vals = np.concatenate(vals)
        if self.order is None:
            s = sp.csc_matrix((np.bincount(self.at, weights=vals), self.indices, self.indptr),
                              shape=(self.n_z, self.n_z))
            self.order = FixedOrder(s, "consensus system")
            self.at = np.argsort(self.order.src)[self.at]
        return self.order.solve(self.order.factor(np.bincount(self.at, weights=vals)), b)


def weighted_average(contributions, n_z: int, system: ConsensusSystem | None = None,
                     ) -> np.ndarray:
    """Solve for the consensus vector from per-region payloads.

    Each payload is ``(cols, block, vec)``: the region's z columns, the
    ``Bbar`` block on them and ``Bbar x^k - gbar``, in region order.  The
    system ``S = sum E' Bbar E`` is assembled sparse, in CSC, on the fixed
    pattern of ``system`` (a problem's :class:`ConsensusSystem`, kept from
    call to call; one is built from the payloads' columns for this call
    alone when none is given), and factored by SuperLU with the symmetric
    settings in the system's fill-reducing order.  Each entry of S is summed
    over the regions in region order, whatever the order of a region's
    columns.
    """
    if n_z == 0:
        return np.zeros(0)
    if system is None:
        system = ConsensusSystem([cols for cols, _, _ in contributions], n_z)
    try:
        return system.solve(contributions)
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
