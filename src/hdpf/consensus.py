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

The weighted average is the only cross-region computation.  It reads the
payloads stacked (:class:`~hdpf.condense.StackedQP`), every Bbar_l in S's
value listing.  S is summed on its fixed pattern, the regions' z-column
blocks, by one :class:`~hdpf.condense.FixedSystem` per problem
(:func:`consensus_system`), which orders it on the first solve and keeps
the order; contributions are accumulated in region order so repeated runs
are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .condense import CondensedQP, FactorizationError, FixedSystem, StackedQP

if TYPE_CHECKING:
    from .partition import RegionStructure

__all__ = [
    "TOL_KKT",
    "ConsensusSolution",
    "KktResiduals",
    "consensus_system",
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


def consensus_system(z_cols, n_z: int) -> FixedSystem:
    """The coordinator's S = sum E' Bbar E on its fixed pattern: each region
    lists its z columns' block row by row, as ``Bbar.ravel()`` reads it."""
    return FixedSystem(np.concatenate([np.repeat(c, len(c)) for c in z_cols]),
                       np.concatenate([np.tile(c, len(c)) for c in z_cols]), n_z,
                       "consensus system")


def weighted_average(values: np.ndarray, payload: np.ndarray, z_cols: np.ndarray,
                     system: FixedSystem) -> np.ndarray:
    """The consensus vector from the regions' stacked payloads: ``values``,
    every ``Bbar`` on the region's z columns row by row, and ``payload``,
    every ``Bbar x^k - gbar``, entry i at z column ``z_cols[i]``.
    ``S = sum E' Bbar E`` is summed on the fixed pattern of ``system``, the
    regions' :func:`consensus_system`, and factored by SuperLU; each entry
    of S and of the right-hand side is summed in region order.
    """
    if system.n == 0:
        return np.zeros(0)
    try:
        return system.solve(values, np.bincount(z_cols, weights=payload, minlength=system.n))
    except FactorizationError as exc:
        raise FactorizationError(
            "consensus system is singular; some consensus column is untouched "
            "by any region (partition bug)"
        ) from exc


def consensus_pass(cqps: StackedQP | list[CondensedQP], regions: list[RegionStructure],
                   n_z: int, average=weighted_average,
                   system: FixedSystem | None = None) -> ConsensusSolution:
    """One full sweep: the coordinator's average of the payloads of the
    condensed models ``cqps`` (a :class:`StackedQP`, or a list stacked for
    this call), then every multiplier, each region's a slice of one vector.

    ``average`` is the coordinator's step, with the contract of
    :func:`weighted_average`; :func:`hdpf.comm.run_distributed` passes one
    that carries each region's payload as a metered buffer.  ``system`` is
    the regions' :func:`consensus_system`, built for this call if not given.
    """
    stack = cqps if isinstance(cqps, StackedQP) else StackedQP.of(cqps)
    z_cols = np.concatenate([r.z_cols for r in regions])
    system = system or consensus_system([r.z_cols for r in regions], n_z)
    z_bar = average(stack.b_bar, stack.payload, z_cols, system)
    ends, zx = stack.ends, z_bar[z_cols]
    lam = stack.payload - np.concatenate([c.b_bar @ zx[a:b]
                                          for c, a, b in zip(stack.regions, ends, ends[1:])])
    return ConsensusSolution(z_bar=z_bar, lam=[lam[a:b] for a, b in zip(ends, ends[1:])])


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
