#!/usr/bin/env python3
"""Print one SHA-1 per solver output, so two checkouts compare by ``diff``.

For every problem it runs the direct solve and the message-passing harness,
each plain and diagnosed with the central reference, and the central
reference itself, and hashes each output on its own line:

    <problem> <solver> <variant> <output> <sha1>

The outputs are the state's bytes, the multipliers' bytes, the trace's
``trace_signature`` (every record's deterministic fields: residuals, steps,
``lm_error``, ``condense_gap``, ``dist_to_ref``, and the status) and, for the
harness, its ledger.  After the solves, each problem's index maps are
hashed too, one line each, ``<problem> maps - <map> <sha1>``: the regions'
union Jacobian pattern, every region's pairs, B pattern and curvature
slots (the union's ``grams`` and ``q_slots``), its split maps (with Byy's
ordered system on the sparse path) and every network's admittance matrix,
merged and regional, by the bytes of its values, indices and pointers.  The problems are the shipped manifests
and, with ``--bench``, the benchmark's generated workloads ``grid-8x8`` and
``pair-808`` at seeds 1 and 2.

Run from the repository root:

    python scripts/fingerprint.py --bench > a.txt
    (in the other checkout) python scripts/fingerprint.py --bench > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from hdpf import SolverConfig, central_solve, load_manifest, partition, run_distributed, solve  # noqa: E402
from hdpf.trace import trace_signature  # noqa: E402

BENCH_PROBLEMS = (("grid-8x8", 1), ("grid-8x8", 2), ("pair-808", 1), ("pair-808", 2))


def _sha1(obj) -> str:
    data = obj.tobytes() if hasattr(obj, "tobytes") else repr(obj).encode()
    return hashlib.sha1(data).hexdigest()


def _problems(bench: bool):
    """(name, manifest, cases) of every problem to fingerprint."""
    for path in sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.manifest"))):
        yield (os.path.basename(path), *load_manifest(path))
    if bench:
        sys.path.insert(0, os.path.join(ROOT, "bench"))
        import workloads

        for name, seed in BENCH_PROBLEMS:
            src = workloads.WORKLOADS[name](ROOT, seed)
            yield (f"{name}:{seed}", *workloads.load_source(src))


def fingerprint(name: str, manifest, cases) -> list[str]:
    p = partition(manifest, cases)
    ref, ref_trace = central_solve(p.merged_net)
    lines = [f"{name} central - state {_sha1(ref.x)}",
             f"{name} central - trace {_sha1(trace_signature(ref_trace))}"]
    for variant, cfg, reference in (("plain", SolverConfig(), None),
                                    ("diagnose", SolverConfig(diagnose=True), ref)):
        runs = {"solve": solve(p, cfg, reference), "harness": run_distributed(p, cfg, reference)}
        for solver, (state, lams, trace, *ledger) in runs.items():
            outputs = {"state": state.x, "multipliers": [lam.tobytes() for lam in lams],
                       "trace": trace_signature(trace)}
            if ledger:
                outputs["ledger"] = ledger[0].entries
            lines += [f"{name} {solver} {variant} {out} {_sha1(v)}" for out, v in outputs.items()]
    return lines + [f"{name} maps - {m} {hashlib.sha1(b''.join(a.tobytes() for a in arrays)).hexdigest()}"
                    for m, arrays in _maps(p).items()]


def _maps(p) -> dict[str, list]:
    """The arrays of each index map of a solved problem, by map."""
    analysis = p.analyze(diagnose=True)
    union, nets = analysis.union, [r.net for r in p.regions]
    pat = union.jac_pattern
    return {
        "union": [pat.slot, pat.rows, pat.indices, pat.indptr, pat.cols],
        "pairs": [v for pairs, _ in union.grams for v in pairs],
        "grams": [getattr(gram, f) for _, gram in union.grams
                  for f in ("slot", "diag", "indices", "indptr", "cols")],
        "q_slots": union.q_slots,
        "splits": [v for s in analysis.splits for v in (s.x_cols, s.y_cols, s.src, s.flat)
                   + (() if s.byy is None else (s.byy.indices, s.byy.indptr, s.byy._at))],
        "ybus": [v for net in [p.merged_net] + nets
                 for v in (net.ybus.data, net.ybus.indices, net.ybus.indptr)],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", action="store_true",
                    help="also the benchmark's grid-8x8 and pair-808 at seeds 1 and 2")
    args = ap.parse_args(argv)
    for name, manifest, cases in _problems(args.bench):
        print("\n".join(fingerprint(name, manifest, cases)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
