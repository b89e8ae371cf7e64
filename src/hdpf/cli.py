"""Command-line front end: merge, solve, baseline, check.

Exit codes: 0 on success/convergence, 2 when a solver stops without
converging, 1 on any input or usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .caseio import load_manifest, parse_case_file, serialize_case
from .central import TOL_REFERENCE, central_solve
from .comm import run_distributed
from .condense import FactorizationError
from .consensus import TOL_KKT, averaging_projector, verify_kkt
from .driver import SolverConfig, consensus_step, solve
from .network import build_network, flat_start
from .partition import consensus_dims, partition
from .residual import linearize_regions, residual
from .trace import read_state, write_state, write_trace

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hdpf",
        description="Distributed AC power flow over hypergraph-coupled regions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="materialize the merged case for a manifest")
    p_merge.add_argument("manifest")
    p_merge.add_argument("-o", "--output", required=True, help="merged case file to write")
    p_merge.set_defaults(func=_cmd_merge)

    p_solve = sub.add_parser("solve", help="run the distributed solver on a manifest")
    p_solve.add_argument("manifest")
    p_solve.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_solve.add_argument("--diagnose", action="store_true",
                         help="record lm_error and condense_gap per iteration")
    p_solve.add_argument("--reference", help="state file for dist_to_ref records")
    p_solve.add_argument("--trace", help="write the iteration trace here (JSON lines)")
    p_solve.add_argument("--distributed", action="store_true",
                         help="run through the message-passing harness")
    p_solve.add_argument("--output", help="write the final merged state here")
    p_solve.set_defaults(func=_cmd_solve)

    p_base = sub.add_parser("baseline", help="centralized Gauss-Newton on a merged case")
    p_base.add_argument("case")
    p_base.add_argument("--trace", help="write the iteration trace here")
    p_base.add_argument("--output", help="write the solved state here")
    p_base.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_base.set_defaults(func=_cmd_baseline)

    p_check = sub.add_parser("check", help="run the structural invariant suite on a manifest")
    p_check.add_argument("manifest")
    p_check.set_defaults(func=_cmd_check)

    return ap


def _cmd_merge(args) -> int:
    manifest, raws = load_manifest(args.manifest)
    prob = partition(manifest, raws)
    merged = prob.merged_case
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_case(merged))
    print(f"merged {len(raws)} regions -> {merged.n_bus} buses, "
          f"{len(merged.branches)} branches ({args.output})")
    _summary(prob)
    for reg in prob.regions:
        print(f"  region {reg.index}: {reg.net.n_core} core + "
              f"{reg.net.n_bus - reg.net.n_core} copy buses, n_cpl={reg.n_cpl}")
    return 0


def _summary(prob) -> tuple[int, int, int]:
    """Print the decomposition's dimensions and its hyperedge histogram, and
    return the dimensions."""
    n_state, n_cpl, n_z = dims = consensus_dims(prob)
    print(f"regions={len(prob.regions)} n_state={n_state} n_cpl={n_cpl} n_z={n_z}")
    print(f"hyperedge cardinality histogram: {prob.hypergraph.cardinality_histogram()}")
    return dims


def _report(args, trace, state) -> int:
    """Print the run's status and the residual 2-norm of the state it
    returns, write ``--trace`` and ``--output``, and return the exit code."""
    r_norm2 = np.linalg.norm(residual(state.net, state))
    print(f"{trace.n_iter} iterations, status={trace.status}, r_norm2={r_norm2:.3e}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            write_trace(trace, fh)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_state(state, fh)
    return 0 if trace.converged else 2


def _cmd_solve(args) -> int:
    manifest, raws = load_manifest(args.manifest)
    prob = partition(manifest, raws)
    cfg = SolverConfig(max_iter=args.max_iter, diagnose=args.diagnose)
    ref = None
    if args.reference:
        with open(args.reference, "rb") as fh:
            ref = read_state(fh, prob.merged_net)
    if args.distributed:
        state, lams, trace, ledger = run_distributed(prob, cfg, ref)
        print(f"consensus traffic: {ledger.total} floats "
              f"({ledger.total_up} up, {ledger.total_down} down)")
    else:
        state, lams, trace = solve(prob, cfg, ref)
    return _report(args, trace, state)


def _cmd_baseline(args) -> int:
    case = parse_case_file(args.case)
    net = build_network(case)
    cfg = SolverConfig(tol_residual=TOL_REFERENCE, max_iter=args.max_iter)
    state, trace = central_solve(net, cfg)
    return _report(args, trace, state)


def _cmd_check(args) -> int:
    manifest, raws = load_manifest(args.manifest)
    prob = partition(manifest, raws)
    _, n_cpl, n_z = _summary(prob)

    ok = True
    if n_z:
        # every row of the stacked incidence E is a unit row at z_cols, so
        # its rank is the number of z columns some region holds
        held = np.bincount(np.concatenate([r.z_cols for r in prob.regions]), minlength=n_z)
        rank = int(np.count_nonzero(held))
        print(f"stacked incidence: {n_cpl} x {n_z}, rank {rank} "
              f"({'full column rank' if rank == n_z else 'RANK DEFICIENT'})")
        ok &= rank == n_z

        # the solver's first step from a flat start
        eps = SolverConfig().eps
        state = flat_start(prob.union)
        lins = linearize_regions(prob.union, state, eps)
        stack, sol, chi_next = consensus_step(prob, lins, state.free())
        cqps = stack.regions
        m = averaging_projector(cqps, prob.regions, n_z)
        idem = float(np.max(np.abs(m @ m - m)))
        print(f"averaging projector idempotence |M^2-M|_inf = {idem:.3e}")
        ok &= idem <= 1e-8

        kkt = verify_kkt(cqps, prob.regions, sol, [chi_next[f] for _, f, *_ in prob.union.slices])
        scale = 1.0 + max(float(np.max(np.abs(c.g_bar))) if c.n_cpl else 0.0 for c in cqps)
        print(f"first-iteration KKT residuals: stationarity={kkt.stationarity:.3e} "
              f"dual={kkt.dual:.3e} primal={kkt.primal:.3e} (scale {scale:.3e})")
        ok &= kkt.max() <= TOL_KKT * scale
    else:
        print("single region: no consensus structure to check")

    print("check:", "ok" if ok else "FAILED")
    return 0 if ok else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FactorizationError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
