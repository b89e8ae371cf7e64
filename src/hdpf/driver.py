"""The outer iteration, written once, and the distributed solve built on it.

Every solver in the package runs the same loop on one state, which
evaluates each iterate exactly once, right where it is made: linearize
every network at the start; then stop when the residual 2-norm is at most
``tol_residual``, take a step, linearize at the new iterate, and stop when
the step's infinity norm is at most ``tol_step``.  Only the step differs.
:func:`solve`'s iterate is one state of the regions' union, every region's
free vector side by side, so its step, gaps and stitching are one
operation each for all regions; only the condensation runs region by
region.  It condenses each region onto its coupling variables, makes one
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
import numbers
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .condense import FactorizationError, StackedQP, condense_region, recover
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
        # bool is an int subclass, so True would read as 1.0 or run one
        # iteration; the range test is written so that NaN fails too
        tol = self.tol_residual
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
            raise ValueError("tol_residual must be a positive and finite real number")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not isinstance(self.diagnose, (bool, np.bool_)):  # "no" and 2 are true too
            raise ValueError("diagnose must be a bool")


def comm_floats_per_iteration(p: PartitionedProblem) -> int:
    """Consensus floats exchanged per outer iteration (up and down)."""
    return sum(r.n_cpl * r.n_cpl + 2 * r.n_cpl for r in p.regions)


def stitch_state(p: PartitionedProblem, state: StateVector) -> StateVector:
    """The merged-case state of the regions' union state: each merged bus
    takes all four rows of its home region's core bus."""
    return StateVector(p.merged_net, *state.x[:, p.stacking.home])


def consensus_step(p: PartitionedProblem, lins, chi, average=weighted_average):
    """One step of the distributed solver at the union's free vector
    ``chi``: each region condenses its model into one
    :class:`~hdpf.condense.StackedQP` and drops its B (``lin.hess``), one
    :func:`consensus_pass` through ``average`` on the problem's consensus
    system resolves the consensus, and :func:`~hdpf.condense.recover` sets
    every region's step from ``E_l zbar``.  Returns the stack, the consensus
    solution and the new free vector.  ``condense_region`` and
    ``consensus_pass`` are read from this module at call time, so a wrapper
    set on its attribute (as bench/layers.py sets) sees every call.
    """
    at = p.stacking
    stack = StackedQP(at.ends)
    for l, (lin, r, (_, free, *_)) in enumerate(zip(lins, p.regions, p.union.slices)):
        stack.put(l, condense_region(lin, r.split, chi[free]))
        lin.hess = None
    sol = consensus_pass(stack, p.regions, p.n_z, average, p.consensus)
    return stack, sol, recover(stack, chi, sol.z_bar[at.z_cols], at.x_at, at.y_at)


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


def _exact_z(p: PartitionedProblem, lins, chi) -> np.ndarray | None:
    """The consensus values z of the exact-Hessian full-space step at the
    union's free vector ``chi``, against which ``condense_gap`` measures the
    condensed step; each region's Q is set to None once summed into K.

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
    exactly when the saddle-point KKT matrix is; z is then None, as it is
    for a non-finite solution.  Without coupling z is empty.
    """
    if p.n_z == 0:
        return np.zeros(0)
    maps, system = p.exact_consensus
    values, rhs = [], np.zeros(system.n)
    # the local unknowns are steps from chi, the coupling ones values
    chi_x = np.zeros_like(chi)
    chi_x[p.stacking.x_at] = chi[p.stacking.x_at]
    for m, lin, (_, free, *_) in zip(maps, lins, p.union.slices):
        gram = lin.pattern
        h = lin.hess + lin.q
        lin.q = None
        values.append(h)
        rhs[m] += np.bincount(gram.indices, weights=h * chi_x[free][gram.cols],
                              minlength=len(lin.g)) - lin.g
    try:
        u = system.solve(np.concatenate(values), rhs)
    except FactorizationError:
        return None
    return u[-p.n_z:] if np.all(np.isfinite(u)) else None


def _iterate(state: StateVector, lams, cfg: SolverConfig, step, evaluate_fn,
             comm_floats: int = 0, extras=None):
    """The outer iteration shared by every solver; it evaluates each iterate
    once, where it is made, so every iterate it returns has been evaluated.

    The iterate is one state, the merged network's or the regions' union's.
    ``evaluate_fn(state, eps)`` linearizes every network at it, in order,
    in one call, and raises :class:`ModelError` on an iterate it cannot
    evaluate.  ``step(lins, chi)`` maps the linearizations and free vector
    of the current iterate to the next free vector, its multipliers and the
    step's record fields (``primal_residual`` and any it measures); it may
    raise :class:`FactorizationError`.  ``extras(new_state, new_lins)``
    returns the new iterate's optional record fields, with ``new_lins``
    None when it could not be evaluated.  Record k's ``wall_ns`` covers
    step k and the evaluation of the iterate it made.  Returns the final
    state and multipliers, the records and the status.
    """
    def evaluate(state):
        try:
            return evaluate_fn(state, cfg.eps)
        except ModelError:
            return None

    records: list[IterationRecord] = []
    lins = evaluate(state)
    if lins is None:
        return state, lams, records, STATUS_BREAKDOWN
    for k in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter_ns()
        rss = sum([float(lin.r @ lin.r) for lin in lins])
        r_norm2 = math.sqrt(rss)
        if r_norm2 <= cfg.tol_residual:
            return state, lams, records, STATUS_CONVERGED
        chi = state.free()
        try:
            new_chi, new_lams, step_fields = step(lins, chi)
        except FactorizationError:
            return state, lams, records, STATUS_BREAKDOWN
        dchi = float(np.max(np.abs(new_chi - chi), initial=0.0))  # NaN if any entry is
        new_state = state.with_free(new_chi)
        new_lins = evaluate(new_state)
        fields = extras(new_state, new_lins) if extras else {}
        records.append(IterationRecord(
            iter=k, f=0.5 * rss, r_norm2=r_norm2, dchi_inf=dchi, comm_floats=comm_floats,
            wall_ns=time.perf_counter_ns() - t0, **step_fields, **fields,
        ))
        if new_lins is None:
            return state, lams, records, STATUS_BREAKDOWN
        state, lams, lins = new_state, new_lams, new_lins
        if dchi <= cfg.tol_step:
            return state, lams, records, STATUS_CONVERGED
    return state, lams, records, STATUS_MAX_ITER


def _solve(p: PartitionedProblem, cfg: SolverConfig | None, ref: StateVector | None,
           average) -> tuple[StateVector, list[np.ndarray], SolveTrace]:
    """The distributed solve with the coordinator's average as a parameter.

    ``average`` has the contract of :func:`weighted_average`: it takes the
    regions' stacked consensus payloads and the problem's consensus system,
    and returns zbar.  Each iteration takes one :func:`consensus_step`
    through ``average``.
    """
    if cfg is None:
        cfg = SolverConfig()
    ref_free = ref.free() if ref is not None else None
    at = p.stacking

    def evaluate(state, eps):
        # one pass per iterate, Q included when diagnosed; the name is read at call
        # time, so a wrapper set on this module's attribute (bench/layers.py) sees it
        return linearize_regions(p.union, state, eps, cfg.diagnose)

    def step(lins, chi):
        # K's solve reads this iterate's B and Q, so it runs before condensation frees each B
        z_exact = _exact_z(p, lins, chi) if cfg.diagnose else None
        _, sol, new_chi = consensus_step(p, lins, chi, average)
        x_new = new_chi[at.x_at]

        def gap(z):  # the largest gap between the new coupling entries and z's
            return float(np.max(np.abs(x_new - z[at.z_cols]), initial=0.0))
        fields = {"primal_residual": gap(sol.z_bar)}
        if cfg.diagnose:
            fields["condense_gap"] = None if z_exact is None else gap(z_exact)
        return new_chi, sol.lam, fields

    def extras(new_state, new_lins):
        fields = {}
        # attributed to the iterate just produced, like dist_to_ref; an
        # iterate that cannot be evaluated gets none and ends the run
        if cfg.diagnose and new_lins is not None:
            fields["lm_error"] = _lm_error(new_lins)
        if ref_free is not None:
            fields["dist_to_ref"] = float(np.max(np.abs(stitch_state(p, new_state).free() - ref_free)))
        return fields

    state, lams, records, status = _iterate(
        flat_start(p.union), [np.zeros(r.n_cpl) for r in p.regions], cfg, step, evaluate,
        comm_floats_per_iteration(p), extras)
    return stitch_state(p, state), lams, SolveTrace(records=records, status=status)


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
