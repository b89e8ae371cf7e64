"""The outer iteration, written once, and the distributed solve built on it.

Every solver in the package runs the same loop, which evaluates each
iterate exactly once, right where it is made: linearize every network at
the start; then stop when the residual 2-norm is at most ``tol_residual``,
take a step, linearize at the new iterate, and stop when the step's
infinity norm is at most ``tol_step``.  Only the step differs.
:func:`solve` condenses each region onto its coupling variables, makes one
consensus pass and recovers; :func:`hdpf.comm.run_distributed` runs the
same step and pass with the coordinator's average carried by float
buffers; and :func:`hdpf.central.central_solve` linearizes the merged
network into a sparse model and takes a full-space step.

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
from typing import ClassVar

import numpy as np

from .condense import FactorizationError, condense_region, recover_local
from .consensus import consensus_pass, weighted_average
from .network import ModelError, StateVector, flat_start
from .partition import PartitionedProblem
from .residual import linearize_regions
from .trace import (
    STATUS_BREAKDOWN,
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    IterationRecord,
    SolveTrace,
)

__all__ = ["SolverConfig", "solve", "consensus_step", "convergence_order", "stitch_state",
           "comm_floats_per_iteration"]


@dataclass
class SolverConfig:
    eps: ClassVar[float] = 1e-10      # Levenberg-Marquardt regularization
    tol_step: ClassVar[float] = 1e-8  # ||dchi||_inf threshold
    tol_residual: float = 1e-10  # ||r||_2 threshold
    max_iter: int = 50
    diagnose: bool = False      # also compute lm_error and condense_gap

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 < self.tol_residual < math.inf:
            raise ValueError("tol_residual must be positive and finite")
        # bool is an int subclass, so True would run one iteration
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def comm_floats_per_iteration(p: PartitionedProblem) -> int:
    """Consensus floats exchanged per outer iteration (up and down)."""
    return sum(r.n_cpl * r.n_cpl + 2 * r.n_cpl for r in p.regions)


def stitch_state(p: PartitionedProblem, states: list[StateVector]) -> StateVector:
    """Assemble the merged-case state from the regions' states: each
    region's core (non-copy) buses, all four rows, at their merged positions."""
    x = np.empty((4, p.merged_net.n_bus))
    for reg, st in zip(p.regions, states):
        core = ~reg.net.is_copy
        x[:, reg.merged_ids[core] - 1] = st.x[:, core]
    return StateVector(p.merged_net, *x)


def consensus_step(p: PartitionedProblem, lins, chis, average=weighted_average,
                   release: bool = False):
    """One step of the distributed solver, from every region's linearization
    and free vector: each region condenses its model onto its coupling
    variables, one :func:`consensus_pass` through ``average`` on the
    problem's :attr:`~hdpf.partition.PartitionedProblem.consensus` system
    resolves the consensus, and each region recovers its step from its consensus values
    ``E_l zbar``.  Returns the condensed models, the consensus solution and
    the new free vectors, in region order.  With ``release``, each region's
    B (``lin.hess``) is set to None as soon as the region has condensed it,
    so no B outlives its condensation.

    The three functions are read from this module at call time, so a
    wrapper set on its attribute (as bench/layers.py sets) sees every call.
    """
    cqps = []
    for lin, r, chi in zip(lins, p.regions, chis):
        cqps.append(condense_region(lin, r.split, chi))
        if release:
            lin.hess = None
    sol = consensus_pass(cqps, p.regions, p.n_z,
                         lambda contribs, n_z: average(contribs, n_z, p.consensus))
    new_free = [recover_local(c, sol.z_bar[r.z_cols], chi)
                for c, r, chi in zip(cqps, p.regions, chis)]
    return cqps, sol, new_free


def _lm_error(lins) -> float:
    """||eps*I - Q||_F over every region's diagnosed linearization: its Q
    and eps, Q's values on the region's B pattern, which holds every entry
    of Q and the diagonal."""
    total = 0.0
    for lin in lins:
        delta = -lin.q
        delta[lin.pattern.diag] += lin.eps
        total += float(np.sum(delta * delta))
    return math.sqrt(total)


def _condense_gap(p: PartitionedProblem, lins, chi_ks, x_plus) -> float | None:
    """Largest gap between the condensed step's coupling entries ``x_plus``
    and those of the full-space step built from exact second derivatives.

    The full-space QP takes each region's diagnosed linearization with
    curvature ``H_l = hess + q``, both values on B's fixed ``pattern``,
    subject to ``x_l = E_l z``, in null-space form (Nocedal & Wright,
    Numerical Optimization, 2nd ed., section 16.2): substituting the
    constraint leaves one sparse symmetric system ``K u = rhs`` whose
    unknowns are the regions' local (non-coupling) steps, in region order,
    then ``z``; ``K = sum_l M_l' H_l M_l`` with ``M_l`` the 0/1 map from
    ``u`` to region l's free entries, so the maps and K's pattern are
    built, and K is ordered, once per problem by its
    :attr:`~hdpf.partition.PartitionedProblem.exact_consensus`.  The
    constraint picks distinct entries (full row rank), so ``K`` is singular
    exactly when the saddle-point KKT matrix is; the gap is then ``None``,
    as it is for a non-finite solution.  Without coupling it is 0.0.
    """
    if p.n_z == 0:
        return 0.0
    maps, system = p.exact_consensus
    values, rhs = [], np.zeros(system.n)
    for m, reg, lin, chi in zip(maps, p.regions, lins, chi_ks):
        gram = lin.pattern
        h = lin.hess + lin.q
        # the local unknowns are steps from chi, the coupling ones values
        chi_x = np.where(reg.split.local, 0.0, chi)
        values.append(h)
        rhs[m] += np.bincount(gram.indices, weights=h * chi_x[gram.cols],
                              minlength=len(chi)) - lin.g
    try:
        u = system.solve(np.concatenate(values), rhs)
    except FactorizationError:
        return None
    if not np.all(np.isfinite(u)):
        return None
    z = u[-p.n_z:]
    return max((float(np.max(np.abs(z[r.z_cols] - xp)))
                for r, xp in zip(p.regions, x_plus) if len(xp)), default=0.0)


def _iterate(states: list[StateVector], lams, cfg: SolverConfig, step, evaluate_fn,
             comm_floats: int = 0, extras=None):
    """The outer iteration shared by every solver; it evaluates each iterate
    once, where it is made, so every iterate it returns has been evaluated.

    ``evaluate_fn(states, eps)`` linearizes every network at its state, in
    order, in one call, and raises :class:`ModelError` on an iterate it
    cannot evaluate.  ``step(lins, chis)`` maps the linearizations and free
    vectors of the current iterate to the next free vectors, their
    multipliers and the primal residual; it may raise
    :class:`FactorizationError`.  ``extras(lins, chis, new_free,
    new_states, new_lins)`` returns the optional record fields, with
    ``new_lins`` None when the new iterate could not be evaluated.  Record
    k's ``wall_ns`` covers step k and the evaluation of the iterate it made.
    Returns the final states and multipliers, the records and the status.
    """
    def evaluate(states):
        try:
            return evaluate_fn(states, cfg.eps)
        except ModelError:
            return None

    records: list[IterationRecord] = []
    lins = evaluate(states)
    if lins is None:
        return states, lams, records, STATUS_BREAKDOWN
    for k in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter_ns()
        rss = sum(float(lin.r @ lin.r) for lin in lins)
        r_norm2 = math.sqrt(rss)
        if r_norm2 <= cfg.tol_residual:
            return states, lams, records, STATUS_CONVERGED
        chis = [s.free() for s in states]
        try:
            new_free, new_lams, primal = step(lins, chis)
        except FactorizationError:
            return states, lams, records, STATUS_BREAKDOWN
        dchi = max(float(np.max(np.abs(nf - chi))) if len(nf) else 0.0
                   for nf, chi in zip(new_free, chis))
        new_states = [s.with_free(nf) for s, nf in zip(states, new_free)]
        new_lins = evaluate(new_states)
        fields = extras(lins, chis, new_free, new_states, new_lins) if extras else {}
        records.append(IterationRecord(
            iter=k, f=0.5 * rss, r_norm2=r_norm2, dchi_inf=dchi, primal_residual=primal,
            comm_floats=comm_floats, wall_ns=time.perf_counter_ns() - t0, **fields,
        ))
        if new_lins is None:
            return states, lams, records, STATUS_BREAKDOWN
        states, lams, lins = new_states, new_lams, new_lins
        if dchi <= cfg.tol_step:
            return states, lams, records, STATUS_CONVERGED
    return states, lams, records, STATUS_MAX_ITER


def _solve(p: PartitionedProblem, cfg: SolverConfig | None, ref: StateVector | None,
           average) -> tuple[StateVector, list[np.ndarray], SolveTrace]:
    """The distributed solve with the coordinator's average as a parameter.

    ``average(contributions, n_z, system)`` has the contract of
    :func:`weighted_average`: it takes the regions' consensus payloads in
    region order and the problem's consensus system, and returns zbar.  Each iteration takes one
    :func:`consensus_step` through ``average``.
    """
    if cfg is None:
        cfg = SolverConfig()
    ref_free = ref.free() if ref is not None else None

    def evaluate(states, eps):
        # one pass per iterate, Q included when diagnosed; the name is read
        # at call time, so a wrapper set on this module's attribute (as
        # bench/layers.py sets) sees every call
        return linearize_regions(p.union, states, eps, cfg.diagnose)

    def step(lins, chis):
        # the diagnostics read every B after the step; a plain solve frees each once condensed
        _, sol, new_free = consensus_step(p, lins, chis, average, release=not cfg.diagnose)
        primal = 0.0
        for nf, reg in zip(new_free, p.regions):
            if reg.n_cpl:
                z = sol.z_bar[reg.z_cols]
                primal = max(primal, float(np.max(np.abs(nf[reg.coupling_free_cols] - z))))
        return new_free, sol.lam, primal

    def extras(lins, chis, new_free, new_states, new_lins):
        fields = {}
        if cfg.diagnose:
            x_plus = [nf[r.coupling_free_cols] for r, nf in zip(p.regions, new_free)]
            fields["condense_gap"] = _condense_gap(p, lins, chis, x_plus)
            # attributed to the iterate just produced, like dist_to_ref; an
            # iterate that cannot be evaluated gets none and ends the run
            if new_lins is not None:
                fields["lm_error"] = _lm_error(new_lins)
        if ref_free is not None:
            stitched = stitch_state(p, new_states)
            fields["dist_to_ref"] = float(np.max(np.abs(stitched.free() - ref_free)))
        return fields

    states, lams, records, status = _iterate(
        [flat_start(r.net) for r in p.regions], [np.zeros(r.n_cpl) for r in p.regions],
        cfg, step, evaluate,
        comm_floats_per_iteration(p), extras)
    return stitch_state(p, states), lams, SolveTrace(records=records, status=status)


def solve(p: PartitionedProblem, cfg: SolverConfig | None = None,
          ref: StateVector | None = None) -> tuple[StateVector, list[np.ndarray], SolveTrace]:
    """Run the distributed solver from a flat start.

    Returns the stitched merged-case state, the final consensus multipliers
    per region, and the per-iteration trace.  When ``ref`` (a merged-case
    state, typically from the centralized baseline) is given, each record
    carries the distance to it; the reference never influences stopping.
    """
    return _solve(p, cfg, ref, weighted_average)


# the window of distances to the reference that the order fit reads
ORDER_FLOOR = 1e-14
ORDER_CEILING = 1e-2


def convergence_order(trace: SolveTrace) -> float:
    """Fitted contraction order from the distance-to-reference tail.

    At least three recorded distances must lie in (ORDER_FLOOR,
    ORDER_CEILING].  The fit then takes consecutive pairs (e_k, e_{k+1})
    that contract into that window, i.e. e_{k+1} is in the window, e_k < 1,
    and the step is still superlinear (log e_{k+1} <= 1.2 log e_k, which
    drops the floating-point plateau at the end of a run), and returns the
    least-squares slope of log e_{k+1} against log e_k.  Quadratic
    convergence shows up as a slope near 2.
    """
    e = [r.dist_to_ref for r in trace.records]
    if any(v is None for v in e) or not e:
        raise ValueError("trace has no dist_to_ref data; supply a reference state")
    top = ORDER_CEILING * (1.0 + 1e-9)  # keep exact powers like 0.1**2 on the boundary
    in_window = sum(1 for v in e if ORDER_FLOOR < v <= top)
    if in_window < 3:
        raise ValueError("insufficient qualifying iterations for an order fit")
    xs, ys = [], []
    for a, b in zip(e, e[1:]):
        if ORDER_FLOOR < b <= top and 0 < a < 1.0 and math.log(b) <= 1.2 * math.log(a):
            xs.append(math.log(a))
            ys.append(math.log(b))
    if len(xs) < 2:
        raise ValueError("insufficient qualifying iterations for an order fit")
    slope = float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])
    return slope
