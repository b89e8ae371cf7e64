"""Simulated message-passing execution with communication accounting.

:func:`run_distributed` runs :func:`hdpf.driver.solve`'s loop, step and
consensus pass with one change: the coordinator's average in
:func:`hdpf.consensus.consensus_pass` is a metered one.  Per outer iteration
each region uploads its dense consensus payload (the z-block of E' Bbar E
plus Bbar x^k - gbar, n^2 + n floats for n active consensus columns) as
one flat float64 buffer, in region order; the coordinator solves the
weighted average from the buffers alone, and each region downloads its
slice of the consensus vector (n floats).  Convergence scalars are control
plane and are not metered.

The payloads, the average and the multipliers are the direct path's own
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
from .partition import PartitionedProblem
from .trace import SolveTrace

__all__ = ["CommLedger", "LedgerEntry", "run_distributed"]


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
    ends = p.analyze().ends

    def metered_average(values, payload, z_cols, system):
        k = next(iteration)
        blocks, vecs, at = [], [], 0
        for reg, a, b in zip(p.regions, ends, ends[1:]):
            n = b - a
            buf = np.concatenate([values[at:at + n * n], payload[a:b]])
            ledger.record(k, reg.index, len(buf), n)
            blocks.append(buf[:n * n])
            vecs.append(buf[n * n:])
            at += n * n
        return weighted_average(np.concatenate(blocks), np.concatenate(vecs), z_cols, system)

    state, lams, trace = _solve(p, cfg, ref, metered_average)
    return state, lams, trace, ledger
