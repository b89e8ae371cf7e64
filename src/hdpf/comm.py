"""Simulated message-passing execution with communication accounting.

:func:`run_distributed` runs the driver's outer loop and consensus step
with one change: the consensus pass goes through explicit flat float64
buffers between the regions and a single coordinator, delivered in region
order.  Per outer iteration each region uploads its dense consensus payload
(the z-block of E' Bbar E plus the weighted local move, n^2 + n floats for
n active consensus columns) and downloads its slice of the consensus vector
(n floats).  Convergence scalars are control plane and are not metered.

Only the transport differs from :func:`hdpf.driver.solve`; every arithmetic
step is the same code, so final states and traces are bit-identical to the
direct path by construction.  Message wire time is out of scope: the ledger
measures volume, not latency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .condense import CondensedQP
from .consensus import ConsensusSolution, local_unconstrained, region_contribution, weighted_average
from .driver import SolverConfig, _solve
from .network import StateVector
from .partition import PartitionedProblem, RegionStructure, consensus_dims
from .trace import SolveTrace

__all__ = ["CommLedger", "LedgerEntry", "run_distributed", "cost_model", "flop_estimates", "CostEstimate"]


@dataclass(frozen=True)
class LedgerEntry:
    iteration: int
    region: int
    floats_up: int
    floats_down: int


@dataclass
class CommLedger:
    """Float counts for every region->coordinator and back exchange."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def record(self, iteration: int, region: int, up: int, down: int) -> None:
        self.entries.append(LedgerEntry(iteration, region, up, down))

    @property
    def total_up(self) -> int:
        return sum(e.floats_up for e in self.entries)

    @property
    def total_down(self) -> int:
        return sum(e.floats_down for e in self.entries)

    @property
    def total(self) -> int:
        return self.total_up + self.total_down

    def per_iteration(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            out[e.iteration] = out.get(e.iteration, 0) + e.floats_up + e.floats_down
        return out

    @staticmethod
    def expected_up(n_active: int) -> int:
        return n_active * n_active + n_active

    @staticmethod
    def expected_down(n_active: int) -> int:
        return n_active


def run_distributed(p: PartitionedProblem, cfg: SolverConfig | None = None,
                    ref: StateVector | None = None,
                    ) -> tuple[StateVector, list[np.ndarray], SolveTrace, CommLedger]:
    """Execute the solver through explicit messages and meter the traffic."""
    ledger = CommLedger()
    iteration = itertools.count(1)

    def exchange(cqps, regions, n_z):
        return _message_pass(cqps, regions, n_z, ledger, next(iteration))

    state, lams, trace = _solve(p, cfg, ref, exchange)
    return state, lams, trace, ledger


def _message_pass(cqps: list[CondensedQP], regions: list[RegionStructure], n_z: int,
                  ledger: CommLedger, k: int) -> ConsensusSolution:
    """One consensus pass in which every cross-region value travels as a buffer.

    The coordinator solves the weighted average from the uploaded buffers
    alone; each region forms its multipliers from the slice it downloads.
    """
    x_bars, col_lists, ups = [], [], []
    for cqp, reg in zip(cqps, regions):
        x_bar = local_unconstrained(cqp)
        cols, s_block, b_vec = region_contribution(cqp, reg, x_bar)
        x_bars.append(x_bar)
        col_lists.append(cols)
        ups.append(np.concatenate([s_block.ravel(), b_vec]))

    contribs = []
    for reg, cols, buf in zip(regions, col_lists, ups):
        n = len(cols)
        ledger.record(k, reg.index, len(buf), n)
        contribs.append((cols, buf[:n * n].reshape(n, n), buf[n * n:]))
    z_bar = weighted_average(contribs, n_z)

    lams = []
    for cqp, reg, cols, x_bar in zip(cqps, regions, col_lists, x_bars):
        down = z_bar[cols]
        z_vals = np.empty(len(cols))
        z_vals[np.argsort(reg.z_cols, kind="stable")] = down
        lams.append(cqp.b_bar @ (x_bar - z_vals) if len(cols) else np.zeros(0))
    return ConsensusSolution(x_bar=x_bars, z_bar=z_bar, lam=lams)


@dataclass(frozen=True)
class CostEstimate:
    """Per-iteration float-operation model for the two solver families."""

    parallel_flops: float          # sum over regions of n_state_l^3
    consensus_flops: float         # n_cpl^3 (condensed coordinator solve)
    central_consensus_flops: float  # n_state^3 (coordinator with full models)

    @property
    def consensus_ratio(self) -> float:
        if self.central_consensus_flops == 0:
            return 0.0
        return self.consensus_flops / self.central_consensus_flops


def flop_estimates(region_state_dims: list[int], n_cpl: int) -> CostEstimate:
    n_state = sum(region_state_dims)
    return CostEstimate(
        parallel_flops=float(sum(d**3 for d in region_state_dims)),
        consensus_flops=float(n_cpl**3),
        central_consensus_flops=float(n_state**3),
    )


def cost_model(p: PartitionedProblem) -> CostEstimate:
    """The cubic per-iteration cost model on a partitioned problem."""
    _, n_cpl, _ = consensus_dims(p)
    return flop_estimates([r.n_state_entries for r in p.regions], n_cpl)
