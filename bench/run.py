#!/usr/bin/env python3
"""hdpf benchmark: time to a checked power-flow solution, communication and memory.

Run from the repository root:

    python3 bench/run.py --workload tiles-1100 --seed 1 --seconds 32 --trace 0

One process, one caller, one operation at a time (a closed loop).  A round
is set-up followed by four solves: the direct distributed solve, the same
solve through the message-passing harness, the centralized reference, and
the distributed solve with diagnostics.  After one untimed warm-up round the
run repeats whole rounds until ``--seconds`` have passed and reports the
median of each timing.  Every solve of every round is checked (see
``judge``); a solve that does not converge or fails a check counts as
failed.

``--trace 0`` prints the end-to-end metrics; the memory peaks come from a
separate ``tracemalloc`` pass after the timed rounds.  ``--trace 1``
alternates untraced and traced rounds, prints the per-layer metrics from the
traced ones and the tracing overhead against the untraced ones, and writes
the spans of its last traced round to ``.bench_build/bench/``.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

OPS = ("solve", "harness", "reference", "diagnose")
# How often each operation runs per round.  Short operations repeat, so that
# each gets enough samples in a run for a steady median.
REPEATS = {
    "tiles-1100": {"setup": 4, "solve": 3, "harness": 3, "reference": 1, "diagnose": 2},
    "grid-8x8": {"setup": 4, "solve": 1, "harness": 1, "reference": 1, "diagnose": 1},
    "pair-808": {"setup": 4, "solve": 1, "harness": 1, "reference": 1, "diagnose": 1},
}


def environment() -> dict:
    """Interpreter, libraries, BLAS and its thread count, and usable CPUs."""
    import numpy
    import scipy

    def blas(pkg, cfg):
        dep = cfg.CONFIG["Build Dependencies"]["blas"]
        threads = None
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, sym):
                    threads = int(getattr(lib, sym)())
                    break
        return {"name": dep.get("name"), "version": dep.get("version"), "threads": threads}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy, numpy.__config__),
        "scipy_blas": blas(scipy, scipy.__config__),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_round(src, span, repeats):
    """One round: set-up, then the four solves, each ``repeats[op]`` times
    in a fixed order.  Returns the durations and outputs per operation."""
    from hdpf import central, comm, driver, network

    # the package re-exports the function under the module's name
    partition_mod = importlib.import_module("hdpf.partition")
    times = {op: [] for op in repeats}
    outs = {op: [] for op in repeats}

    def timed(op, fn, *args):
        for _ in range(repeats[op]):
            with span(op):
                t0 = time.perf_counter()
                result = fn(*args)
                times[op].append(time.perf_counter() - t0)
            outs[op].append(result)

    def set_up():
        manifest, cases = workloads.load_source(src)
        problem = partition_mod.partition(manifest, cases)
        return problem, network.build_network(problem.merged_case)

    timed("setup", set_up)
    problem, net = outs["setup"][-1]
    timed("solve", driver.solve, problem)
    timed("harness", comm.run_distributed, problem)
    timed("reference", central.central_solve, net)
    timed("diagnose", driver.solve, problem, driver.SolverConfig(diagnose=True))
    return times, outs


def judge(outs, mismatch) -> tuple[int, int, list[str]]:
    """Check every solve of a round.  Returns (attempted, failed, checks a
    converged solve missed); a solve that does not converge or misses a
    check counts as failed."""
    import numpy as np

    from hdpf import driver

    # Each path stops once its last step is at most tol_step (infinity norm);
    # converging superlinearly, each ends within about tol_step of the exact
    # solution, so two correct paths differ by at most twice that.
    tol_agree = 2 * driver.SolverConfig().tol_step
    problem = outs["setup"][-1][0]
    per_iteration = sum(r.n_cpl * r.n_cpl + 2 * r.n_cpl for r in problem.regions)
    ref = outs["reference"][0][0]
    first, first_lams, _ = outs["solve"][0]

    def checks(op, res):
        state = res[0]
        trace = res[1] if op == "reference" else res[2]
        found = [("mismatch", mismatch.accepts(state))]
        if op == "solve":
            found.append(("agrees with reference", check.max_difference(state, ref) <= tol_agree))
        if op == "harness":
            lams, ledger = res[1], res[3]
            found.append(("bit-identical to solve", check.same_state(state, first) and all(
                np.array_equal(a, b) for a, b in zip(lams, first_lams))))
            found.append(("ledger formula", ledger.total == len(trace.records) * per_iteration))
        return trace.status, found

    attempted = failed = 0
    wrong = []
    for op in OPS:
        for res in outs[op]:
            status, found = checks(op, res)
            missed = [name for name, ok in found if not ok]
            attempted += 1
            failed += bool(missed) or status != "converged"
            if status == "converged" and missed:
                wrong.append(f"{op}: {', '.join(missed)}")
    return attempted, failed, wrong


def self_test(outs, mismatch) -> list[str]:
    """The mismatch check must reject a flat start and a solution with one
    voltage magnitude moved by 1e-4 p.u."""
    from hdpf import network

    ref = outs["reference"][0][0]
    bad = []
    if mismatch.accepts(network.flat_start(outs["setup"][-1][1])):
        bad.append("mismatch check accepts a flat start")
    moved = ref.copy()
    pq = int(next(i for i, k in enumerate(mismatch.kind) if k == check.PQ))
    moved.vm[pq] += 1e-4
    if mismatch.accepts(moved):
        bad.append("mismatch check accepts a perturbed solution")
    if not mismatch.accepts(ref):
        bad.append("mismatch check rejects the reference solution")
    return bad


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def layer_metrics(tracer, outs) -> dict:
    """Per-layer figures of one traced round (every operation once)."""
    t = tracer
    both = ("solve", "harness")
    region_sum, region_max = t.region_times("solve")
    ledger = outs["harness"][0][3]
    return {
        "caseio.load_s": t.total("caseio", ("setup",)),
        "partition.partition_s": t.total("partition", ("setup",)),
        "partition.n_z": outs["setup"][0][0].n_z,
        "network.build_network_s": t.total("build_network", ("setup",) + OPS),
        "network.build_network_calls": t.count("build_network", ("setup",) + OPS),
        "residual.linearize_s": t.total("linearize", both),
        "residual.linearize_calls": t.count("linearize", both),
        "residual.q_term_s": t.total("q_term", ("diagnose",)),
        "condense.condense_region_s": t.total("condense_region", both),
        "condense.recover_local_s": t.total("recover_local", both),
        "consensus.consensus_pass_s": t.total("consensus_pass", ("solve",)),
        "consensus.weighted_average_s": t.total("weighted_average", ("harness",)),
        "driver.iterations": len(outs["solve"][0][2].records),
        "driver.self_s": t.self_time("driver", "solve"),
        "driver.diagnose_self_s": t.self_time("driver", "diagnose"),
        "driver.region_sum_s": region_sum,
        "driver.region_max_s": region_max,
        "comm.self_s": t.self_time("comm", "harness"),
        "comm.floats_up": ledger.total_up,
        "comm.floats_down": ledger.total_down,
        "central.iterations": len(outs["reference"][0][1].records),
        "central.linearize_s": t.total("central.linearize", ("reference",)),
        "central.self_s": t.self_time("central", "reference"),
    }


def write_spans(tracer, args) -> str:
    """Write a traced round's spans as JSON lines under .bench_build/."""
    out_dir = os.path.join(ROOT, ".bench_build", "bench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    keys = ("layer", "op", "start", "end", "parent", "region", "iteration")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return os.path.relpath(path, ROOT)


def declared_units(kind: str) -> dict:
    """Metric names and units of ``kind`` ("end_to_end" or "per_layer")
    as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from hdpf import central, driver

    print("env " + json.dumps(environment()), flush=True)
    src = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    repeats = REPEATS[args.workload]
    once = dict.fromkeys(repeats, 1)
    untraced = contextlib.nullcontext

    _, outs = run_round(src, untraced, once)          # warm-up, untimed
    mismatch = check.MismatchCheck(outs["setup"][-1][0].merged_case)
    wrong = self_test(outs, mismatch)

    samples = {op: [] for op in repeats}
    traced_samples = {op: [] for op in repeats}
    layer_samples = defaultdict(list)
    absent: list[str] = []
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        times, outs = run_round(src, untraced, repeats)
        checked = [outs]
        for op, v in times.items():
            samples[op] += v
        if args.trace:
            tracer = layers.Tracer()
            with tracer.installed():
                traced_times, traced_outs = run_round(src, tracer.op, once)
            checked.append(traced_outs)
            absent = tracer.absent
            for op, v in traced_times.items():
                traced_samples[op] += v
            for name, v in layer_metrics(tracer, traced_outs).items():
                layer_samples[name].append(v)
        for o in checked:
            n, bad, missed = judge(o, mismatch)
            attempted += n
            failed += bad
            for m in missed:
                if m not in wrong:
                    wrong.append(m)
        rounds += 1

    med = {op: statistics.median(v) for op, v in samples.items()}
    print(f"rounds {rounds}; medians: "
          + ", ".join(f"{op} {v:.4f} s of {len(samples[op])}" for op, v in med.items()),
          flush=True)
    if args.trace:
        overhead = {op: statistics.median(traced_samples[op]) / med[op] - 1.0 for op in med}
        print("trace overhead vs untraced: "
              + ", ".join(f"{op} {100 * v:+.1f}%" for op, v in overhead.items()), flush=True)
        if absent:
            print("absent wrap points (their metrics read 0): " + ", ".join(absent), flush=True)
        print(f"spans of the last traced round: {write_spans(tracer, args)}", flush=True)
        metrics = {name: statistics.median(v) for name, v in layer_samples.items()}
        units = declared_units("per_layer")
    else:
        problem, net = outs["setup"][-1]
        metrics = {
            "setup_s": med["setup"], "solve_s": med["solve"], "harness_s": med["harness"],
            "reference_s": med["reference"], "diagnose_s": med["diagnose"],
            "comm_floats": outs["harness"][-1][3].total,
            "solve_peak_mb": peak_mb(lambda: driver.solve(problem)),
            "reference_peak_mb": peak_mb(lambda: central.central_solve(net)),
        }
        units = declared_units("end_to_end")
    for m in wrong:
        print(f"check failed: {m}", flush=True)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "hdpf", "__init__.py")):
        print(f"bench: no hdpf sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import check
    import layers
    import workloads

    sys.exit(main())
