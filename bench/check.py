"""Independent check of a power-flow state against the merged case.

Uses neither ``hdpf.residual`` nor ``hdpf.network``: the admittance matrix
is assembled here from the raw case data (pi-model branches with tap and
phase shift on the from side, bus shunts), and complex power is computed as
S = V * conj(Y V).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# p.u. on the case base.  A converged state shows about 1e-12; a flat start
# shows O(1), and moving one voltage magnitude by 1e-4 shows about 1e-3.
TOL_MISMATCH = 1e-6
# fixed quantities are copied through unchanged, so they must match to rounding
TOL_FIXED = 1e-12

PQ, PV, SLACK = 1, 2, 3


class MismatchCheck:
    """Bus power mismatch and setpoint errors of a state on one merged case."""

    def __init__(self, case):
        buses = sorted(case.buses, key=lambda b: b.id)
        n = len(buses)
        self.bus_ids = np.array([b.id for b in buses], dtype=np.int64)
        pos = {b.id: i for i, b in enumerate(buses)}
        base = case.base_mva
        self.kind = np.array([int(b.type) for b in buses])

        p = np.array([-b.p_demand for b in buses], dtype=float)
        q = np.array([-b.q_demand for b in buses], dtype=float)
        vset = np.array([b.v_mag for b in buses], dtype=float)
        seen = set()
        for g in case.generators:
            if not g.in_service:
                continue
            i = pos[g.bus_id]
            p[i] += g.p_gen
            q[i] += g.q_gen
            if i not in seen:
                vset[i] = g.v_setpoint
                seen.add(i)
        self.p_spec = p / base
        self.q_spec = q / base
        self.v_spec = vset
        slack = np.flatnonzero(self.kind == SLACK)
        self.slack = int(slack[0])
        self.slack_angle = np.radians(buses[self.slack].v_ang)

        live = [br for br in case.branches if br.in_service]
        f = np.array([pos[br.from_bus] for br in live], dtype=np.int64)
        t = np.array([pos[br.to_bus] for br in live], dtype=np.int64)
        r = np.array([br.r for br in live])
        x = np.array([br.x for br in live])
        b = np.array([br.total_line_charging_b for br in live])
        tap = np.array([br.tap_ratio if br.tap_ratio != 0.0 else 1.0 for br in live])
        shift = np.radians([br.phase_shift for br in live])
        ys = 1.0 / (r + 1j * x)
        half = 0.5j * b
        a = tap * np.exp(1j * shift)
        shunt = np.array([complex(bb.shunt_g, bb.shunt_b) for bb in buses]) / base
        rows = np.concatenate([f, f, t, t, np.arange(n)])
        cols = np.concatenate([f, t, f, t, np.arange(n)])
        vals = np.concatenate([(ys + half) / (tap * tap), -ys / np.conj(a), -ys / a,
                               ys + half, shunt])
        self.ybus = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def errors(self, state) -> dict[str, float]:
        """Worst P mismatch (non-slack), Q mismatch (PQ), |V| setpoint error
        (PV and slack) and slack angle error."""
        if not np.array_equal(np.asarray(state.net.bus_ids), self.bus_ids):
            raise ValueError("state buses do not match the merged case")
        v = state.vm * np.exp(1j * state.theta)
        s = v * np.conj(self.ybus @ v)
        k = self.kind
        non_slack = k != SLACK
        fixed_v = (k == PV) | (k == SLACK)
        return {
            "p": float(np.max(np.abs(s.real - self.p_spec)[non_slack])),
            "q": float(np.max(np.abs(s.imag - self.q_spec)[k == PQ])),
            "v": float(np.max(np.abs(state.vm - self.v_spec)[fixed_v])),
            "angle": float(abs(state.theta[self.slack] - self.slack_angle)),
        }

    def accepts(self, state) -> bool:
        e = self.errors(state)
        return (e["p"] <= TOL_MISMATCH and e["q"] <= TOL_MISMATCH
                and e["v"] <= TOL_FIXED and e["angle"] <= TOL_FIXED)


def same_state(a, b) -> bool:
    """Bit-identical merged states."""
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("theta", "vm", "p", "q"))


def max_difference(a, b) -> float:
    """Infinity-norm distance between two merged states over all four quantities."""
    return max(float(np.max(np.abs(getattr(a, f) - getattr(b, f))))
               for f in ("theta", "vm", "p", "q"))
