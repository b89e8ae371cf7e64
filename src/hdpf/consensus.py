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
    """A sparse symmetric system summed from pieces on fixed entries: piece
    l lists its values at its local (row, col) ``entries[l]`` and maps its
    local unknowns to the system's by ``maps[l]``.

    The key map, built with the system, sends each listed value to its
    stored CSC entry; the order (a :class:`FixedOrder`) is found from the
    first matrix and kept, and the map then sends each value straight to its
    entry in that order.  The coordinator's S is one (:meth:`of_blocks`),
    the exact-Hessian K of :func:`hdpf.driver._condense_gap` another.
    """

    def __init__(self, maps, entries, n: int, what: str):
        self.maps, self.n, self.what = maps, n, what
        # column-major key of each listed value
        key, self.at = np.unique(np.concatenate(
            [m[cols] * n + m[rows] for m, (rows, cols) in zip(maps, entries)]),
            return_inverse=True)
        self.indices = key % n
        self.indptr = np.searchsorted(key, np.arange(n + 1) * n)
        self.order: FixedOrder | None = None

    @classmethod
    def of_blocks(cls, z_cols, n_z: int) -> ConsensusSystem:
        """S = sum E' Bbar E; each region lists its z columns' block row by row."""
        return cls(z_cols, [np.divmod(np.arange(len(c) ** 2), len(c)) for c in z_cols], n_z,
                   "consensus system")

    def solve(self, values, vectors) -> np.ndarray:
        """w with A w = b: A sums each piece's ``values`` at its entries, b
        each one's ``vectors`` at its unknowns, in piece order."""
        b = np.zeros(self.n)
        for m, vec in zip(self.maps, vectors):
            b[m] += vec
        vals = np.concatenate(values)
        if self.order is None:
            a = sp.csc_matrix((np.bincount(self.at, weights=vals), self.indices, self.indptr),
                              shape=(self.n, self.n))
            self.order = FixedOrder(a, self.what)
            self.at = np.argsort(self.order.src)[self.at]
        return self.order.solve(np.bincount(self.at, weights=vals), b)


def weighted_average(contributions, n_z: int, system: ConsensusSystem | None = None,
                     ) -> np.ndarray:
    """Solve for the consensus vector from per-region payloads.

    Each payload is ``(cols, block, vec)``: the region's z columns, the
    ``Bbar`` block on them and ``Bbar x^k - gbar``, in region order.  The
    system ``S = sum E' Bbar E`` is assembled sparse, in CSC, on the fixed
    pattern of ``system`` (a problem's :class:`ConsensusSystem` for the
    payloads' columns, kept from call to call; one is built from them for
    this call alone when none is given), and factored by SuperLU with the
    symmetric settings in the system's fill-reducing order.  Each entry of S
    is summed over the regions in region order, whatever the order of a
    region's columns.
    """
    if n_z == 0:
        return np.zeros(0)
    if system is None:
        system = ConsensusSystem.of_blocks([cols for cols, _, _ in contributions], n_z)
    try:
        return system.solve([block.ravel() for _, block, _ in contributions],
                            [vec for _, _, vec in contributions])
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
