"""The outer iteration, written once, and the distributed solve built on it.

Every solver in the package runs the same loop: linearize every network,
stop when the residual 2-norm is at most ``tol_residual``, take a step,
stop when the step's infinity norm is at most ``tol_step``.  Only the step
differs.  :func:`solve` condenses each region onto its coupling variables,
makes one consensus pass and recovers; :func:`hdpf.comm.run_distributed`
runs the same step and pass with the coordinator's average carried by
float buffers; and :func:`hdpf.central.central_solve` linearizes the
merged network into a sparse model and takes a full-space step.

Full-step iterations only; there is no line search or trust region.  A run
that does not contract ends ``max_iter`` and returns its last iterate.  An
iterate that cannot be linearized (a non-finite entry or a non-positive
voltage magnitude) or a factorization that fails in the step ends the run
``numerical_breakdown``; it then returns the last iterate that linearized,
with its multipliers, never the broken one.  All cross-region reductions
run in a fixed region order, so two runs with identical inputs produce
identical traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .condense import FactorizationError, condense_region, recover_local
from .consensus import consensus_pass, weighted_average
from .network import ModelError, NetworkModel, StateVector, flat_start
from .partition import PartitionedProblem
from .residual import RegionLinearization, linearize, q_term
from .trace import (
    STATUS_BREAKDOWN,
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    IterationRecord,
    SolveTrace,
)

__all__ = ["SolverConfig", "solve", "convergence_order", "stitch_state", "comm_floats_per_iteration"]


@dataclass
class SolverConfig:
    eps: float = 1e-10          # Levenberg-Marquardt regularization
    tol_step: float = 1e-8      # ||dchi||_inf threshold
    tol_residual: float = 1e-10  # ||r||_2 threshold
    max_iter: int = 50
    diagnose: bool = False      # also compute lm_error and condense_gap

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.tol_step <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def comm_floats_per_iteration(p: PartitionedProblem) -> int:
    """Consensus floats exchanged per outer iteration (up and down)."""
    return sum(r.n_cpl * r.n_cpl + 2 * r.n_cpl for r in p.regions)


def stitch_state(p: PartitionedProblem, states: list[StateVector],
                 merged_net: NetworkModel) -> StateVector:
    """Assemble the merged-case state from regional core instances."""
    n = merged_net.n_bus
    theta = np.empty(n)
    vm = np.empty(n)
    pp = np.empty(n)
    qq = np.empty(n)
    for reg, st in zip(p.regions, states):
        core = ~reg.is_copy
        mpos = reg.merged_ids[core] - 1
        theta[mpos] = st.theta[core]
        vm[mpos] = st.vm[core]
        pp[mpos] = st.p[core]
        qq[mpos] = st.q[core]
    return StateVector(merged_net, theta, vm, pp, qq)


def _lm_error(lins: list[RegionLinearization], q_terms: list[np.ndarray]) -> float:
    total = 0.0
    for lin, q in zip(lins, q_terms):
        delta = -q.copy()
        delta[np.diag_indices_from(delta)] += lin.eps
        total += float(np.sum(delta * delta))
    return math.sqrt(total)


def _condense_gap(p: PartitionedProblem, lins, q_terms, chi_ks, x_plus) -> float | None:
    """Coupling-part deviation between the condensed step and a full-space
    QP step built from exact second derivatives."""
    h_blocks = []
    rhs_top = []
    for lin, q, chi in zip(lins, q_terms, chi_ks):
        h = lin.hess + q
        h_blocks.append(sp.csr_matrix(h))
        rhs_top.append(h @ chi - lin.g)
    h_all = sp.block_diag(h_blocks, format="csr")
    a_all = sp.block_diag([r.selector for r in p.regions], format="csr")
    e_all = p.stacked_incidence()
    n_chi = h_all.shape[0]
    n_z = p.n_z
    n_c = a_all.shape[0]
    if n_c == 0:
        return 0.0
    zero_zz = sp.csr_matrix((n_z, n_z))
    kkt = sp.bmat([
        [h_all, None, a_all.T],
        [None, zero_zz, -e_all.T],
        [a_all, -e_all, None],
    ], format="csc")
    rhs = np.concatenate([np.concatenate(rhs_top), np.zeros(n_z), np.zeros(n_c)])
    try:
        sol = spla.spsolve(kkt, rhs)
    except RuntimeError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    chi_full = sol[:n_chi]
    gap = 0.0
    off = 0
    for reg, xp in zip(p.regions, x_plus):
        n_free = reg.net.n_free
        x_full = chi_full[off + np.asarray(reg.coupling_free_cols)]
        if len(xp):
            gap = max(gap, float(np.max(np.abs(x_full - xp))))
        off += n_free
    return gap


def _iterate(nets: list[NetworkModel], states: list[StateVector], lams, cfg: SolverConfig,
             step, comm_floats: int = 0, extras=None, linearize_fn=None):
    """The outer iteration shared by every solver.

    ``linearize_fn(net, state, eps)`` evaluates each network at the current
    iterate (:func:`linearize` when not given) and raises
    :class:`ModelError` on an iterate it cannot evaluate.
    ``step(lins, chis)`` maps the linearizations and free vectors of the
    current iterate to the next free vectors, their multipliers and the
    primal residual; it may raise :class:`FactorizationError`.
    ``extras(lins, states, chis, new_free, new_states)`` returns the optional
    record fields.  Returns the final states and multipliers, the records and
    the status.
    """
    if linearize_fn is None:
        # read at call time, so a wrapper set on this module's attribute
        # (as bench/layers.py sets) sees every call
        linearize_fn = linearize
    records: list[IterationRecord] = []
    status = STATUS_MAX_ITER
    valid = states, lams  # the last iterate that linearized
    for k in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter_ns()
        try:
            lins = [linearize_fn(net, s, cfg.eps) for net, s in zip(nets, states)]
        except ModelError:
            states, lams = valid
            status = STATUS_BREAKDOWN
            break
        valid = states, lams
        rss = sum(float(lin.r @ lin.r) for lin in lins)
        r_norm2 = math.sqrt(rss)
        if r_norm2 <= cfg.tol_residual:
            status = STATUS_CONVERGED
            break

        chis = [s.free() for s in states]
        try:
            new_free, new_lams, primal = step(lins, chis)
        except FactorizationError:
            status = STATUS_BREAKDOWN
            break
        dchi = max(float(np.max(np.abs(nf - chi))) if len(nf) else 0.0
                   for nf, chi in zip(new_free, chis))
        new_states = [s.with_free(nf) for s, nf in zip(states, new_free)]
        fields = extras(lins, states, chis, new_free, new_states) if extras else {}
        states, lams = new_states, new_lams

        records.append(IterationRecord(
            iter=k, f=0.5 * rss, r_norm2=r_norm2, dchi_inf=dchi, primal_residual=primal,
            comm_floats=comm_floats, wall_ns=time.perf_counter_ns() - t0, **fields,
        ))
        if dchi <= cfg.tol_step:
            status = STATUS_CONVERGED
            break
    return states, lams, records, status


def _solve(p: PartitionedProblem, cfg: SolverConfig | None, ref: StateVector | None,
           average) -> tuple[StateVector, list[np.ndarray], SolveTrace]:
    """The distributed solve with the coordinator's average as a parameter.

    ``average(contributions, n_z)`` has the contract of
    :func:`weighted_average`: it takes the regions' consensus payloads in
    region order and returns zbar.  Each region condenses its model, one
    :func:`consensus_pass` through ``average`` resolves the consensus, and
    each region recovers its step from its consensus values ``E_l zbar``.
    """
    if cfg is None:
        cfg = SolverConfig()
    ref_free = ref.free() if ref is not None else None

    def step(lins, chis):
        cqps = [condense_region(lin, r.coupling_free_cols, chi)
                for lin, r, chi in zip(lins, p.regions, chis)]
        sol = consensus_pass(cqps, p.regions, p.n_z, average)
        new_free = []
        primal = 0.0
        for c, reg, chi in zip(cqps, p.regions, chis):
            z = sol.z_bar[reg.z_cols]
            nf = recover_local(c, z, chi)
            new_free.append(nf)
            if reg.n_cpl:
                primal = max(primal, float(np.max(np.abs(nf[reg.coupling_free_cols] - z))))
        return new_free, sol.lam, primal

    def extras(lins, states, chis, new_free, new_states):
        fields = {}
        if cfg.diagnose:
            q_terms = [q_term(r.net, s) for r, s in zip(p.regions, states)]
            x_plus = [nf[r.coupling_free_cols] for r, nf in zip(p.regions, new_free)]
            fields["condense_gap"] = _condense_gap(p, lins, q_terms, chis, x_plus)
            # attributed to the iterate just produced, like dist_to_ref; an
            # iterate with a non-positive magnitude gets none, and the next
            # linearize ends the run
            try:
                q_new = [q_term(r.net, s) for r, s in zip(p.regions, new_states)]
            except ModelError:
                pass
            else:
                fields["lm_error"] = _lm_error(lins, q_new)
        if ref_free is not None:
            stitched = stitch_state(p, new_states, p.merged_net)
            fields["dist_to_ref"] = float(np.max(np.abs(stitched.free() - ref_free)))
        return fields

    states, lams, records, status = _iterate(
        [r.net for r in p.regions], [flat_start(r.net) for r in p.regions],
        [np.zeros(r.n_cpl) for r in p.regions], cfg, step, comm_floats_per_iteration(p), extras)
    return stitch_state(p, states, p.merged_net), lams, SolveTrace(records=records, status=status)


def solve(p: PartitionedProblem, cfg: SolverConfig | None = None,
          ref: StateVector | None = None) -> tuple[StateVector, list[np.ndarray], SolveTrace]:
    """Run the distributed solver from a flat start.

    Returns the stitched merged-case state, the final consensus multipliers
    per region, and the per-iteration trace.  When ``ref`` (a merged-case
    state, typically from the centralized baseline) is given, each record
    carries the distance to it; the reference never influences stopping.
    """
    return _solve(p, cfg, ref, weighted_average)


def convergence_order(trace: SolveTrace, floor: float = 1e-14,
                      ceiling: float = 1e-2) -> float:
    """Fitted contraction order from the distance-to-reference tail.

    At least three recorded distances must lie in (floor, ceiling].  The fit
    then takes consecutive pairs (e_k, e_{k+1}) that contract into that
    window, i.e. e_{k+1} is in the window, e_k < 1, and the step is still
    superlinear (log e_{k+1} <= 1.2 log e_k, which drops the floating-point
    plateau at the end of a run), and returns the least-squares slope of
    log e_{k+1} against log e_k.  Quadratic convergence shows up as a slope
    near 2.
    """
    e = [r.dist_to_ref for r in trace.records]
    if any(v is None for v in e) or not e:
        raise ValueError("trace has no dist_to_ref data; supply a reference state")
    top = ceiling * (1.0 + 1e-9)  # keep exact powers like 0.1**2 on the boundary
    in_window = sum(1 for v in e if floor < v <= top)
    if in_window < 3:
        raise ValueError("insufficient qualifying iterations for an order fit")
    xs, ys = [], []
    for a, b in zip(e, e[1:]):
        if floor < b <= top and 0 < a < 1.0 and math.log(b) <= 1.2 * math.log(a):
            xs.append(math.log(a))
            ys.append(math.log(b))
    if len(xs) < 2:
        raise ValueError("insufficient qualifying iterations for an order fit")
    slope = float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])
    return slope
