"""Simulated message-passing execution with communication accounting.

:func:`run_distributed` runs :func:`hdpf.driver.solve`'s loop, step and
consensus pass with one change: the coordinator's average in
:func:`hdpf.consensus.consensus_pass` is a metered one.  Per outer iteration
each region uploads its dense consensus payload (the z-block of E' Bbar E
plus the weighted local move, n^2 + n floats for n active consensus
columns) as one flat float64 buffer, in region order; the coordinator
solves the weighted average from the buffers alone, and each region
downloads its slice of the consensus vector (n floats).  Convergence
scalars are control plane and are not metered.

The local moves, the average and the dual update are the direct path's own
code, so final states and traces are bit-identical to it by construction.
Message wire time is out of scope: the ledger measures volume, not latency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .consensus import weighted_average
from .driver import SolverConfig, _solve
from .network import StateVector
from .partition import PartitionedProblem, consensus_dims
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

    def metered_average(contributions, n_z):
        k = next(iteration)
        received = []
        for reg, (cols, s_block, b_vec) in zip(p.regions, contributions):
            n = len(cols)
            buf = np.concatenate([s_block.ravel(), b_vec])
            ledger.record(k, reg.index, len(buf), n)
            received.append((cols, buf[:n * n].reshape(n, n), buf[n * n:]))
        return weighted_average(received, n_z)

    state, lams, trace = _solve(p, cfg, ref, metered_average)
    return state, lams, trace, ledger


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
    return flop_estimates([r.net.n_state_entries for r in p.regions], n_cpl)
