#!/usr/bin/env python3
"""Print the tracemalloc peak of every solver on every shipped manifest.

For each manifest it partitions the problem and runs each solver once, so
the maps a network or a problem builds on its first solve are not counted,
then measures a second run of each and prints one line per solver:

    <manifest> <solver> <peak MB>

with solver ``solve`` (a plain distributed solve), ``diagnose`` (one with
``SolverConfig(diagnose=True)``) or ``reference`` (the central reference on
the merged network).  ``--root`` measures another checkout's ``src/`` and
``fixtures/`` with this script, so two checkouts compare by ``diff`` even
when one lacks it.  Run from the repository root:

    python scripts/peaks.py > head.txt
    python scripts/peaks.py --root ../base > base.txt
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import tracemalloc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def peak_mb(fn) -> float:
    """The tracemalloc peak of one call of ``fn``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=ROOT,
                    help="checkout whose src/ and fixtures/ to measure (default: this one)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    from hdpf import SolverConfig, central_solve, load_manifest, partition, solve

    for path in sorted(glob.glob(os.path.join(args.root, "fixtures", "*.manifest"))):
        p = partition(*load_manifest(path))
        runs = {"solve": lambda: solve(p),
                "diagnose": lambda: solve(p, SolverConfig(diagnose=True)),
                "reference": lambda: central_solve(p.merged_net)}
        for solver, run in runs.items():
            run()
            print(f"{os.path.basename(path)} {solver} {peak_mb(run):.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
