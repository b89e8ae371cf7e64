#!/usr/bin/env python3
"""Print the Python-level call count per outer iteration of warm solves.

For each problem it partitions the manifest and runs each solver once, so
the maps a network or a problem builds on its first solve are not counted,
then runs it again under ``cProfile`` and prints one line per solver:

    <problem> <solver> <iterations> <calls per iteration>

with solver ``solve`` (a plain distributed solve) or ``harness`` (the same
solve through :func:`hdpf.run_distributed`).  The count is cProfile's total
over the whole warm call, functions in C included, divided by its
iterations.  The problems are the shipped manifests and, with ``--bench``,
the benchmark's generated ``grid-8x8`` and ``pair-808`` at seed 1.
``--root`` measures another checkout's ``src/`` and ``fixtures/`` (and
``bench/`` for ``--bench``) with this script, so two checkouts compare by
``diff``.  Run from the repository root:

    python scripts/calls.py --bench > head.txt
    python scripts/calls.py --bench --root ../base > base.txt
"""

from __future__ import annotations

import argparse
import cProfile
import glob
import os
import pstats
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def calls_per_iteration(run) -> tuple[int, float]:
    """(iterations, cProfile's calls per iteration) of one call of ``run``,
    which returns its trace."""
    prof = cProfile.Profile()
    trace = prof.runcall(run)
    return trace.n_iter, pstats.Stats(prof).total_calls / max(trace.n_iter, 1)


def problems(root: str, bench: bool):
    """(name, manifest, cases) of every problem to measure."""
    from hdpf import load_manifest

    for path in sorted(glob.glob(os.path.join(root, "fixtures", "*.manifest"))):
        yield (os.path.basename(path), *load_manifest(path))
    if bench:
        sys.path.insert(0, os.path.join(root, "bench"))
        import workloads

        for name in ("grid-8x8", "pair-808"):
            yield (name, *workloads.load_source(workloads.WORKLOADS[name](root, 1)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=ROOT,
                    help="checkout whose src/ and fixtures/ to measure (default: this one)")
    ap.add_argument("--bench", action="store_true",
                    help="also the benchmark's grid-8x8 and pair-808 at seed 1")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    from hdpf import partition, run_distributed, solve

    for name, manifest, cases in problems(args.root, args.bench):
        p = partition(manifest, cases)
        runs = {"solve": lambda: solve(p)[2], "harness": lambda: run_distributed(p)[2]}
        for solver, run in runs.items():
            run()
            n_iter, calls = calls_per_iteration(run)
            print(f"{name} {solver} {n_iter} {calls:.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
