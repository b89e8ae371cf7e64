#!/usr/bin/env python3
"""Checks that the CI workflow runs on the outputs of its steps.

Two subcommands, each exiting 0 when its check holds and 1 when it fails:

    python scripts/ci.py traces <manifest> <direct.jsonl> <distributed.jsonl>

reads the traces of a diagnosed solve of ``<manifest>`` taken directly and
through the message-passing harness: both must hold records, every record
a finite ``lm_error`` and ``condense_gap``, and the two ``trace_signature``s
must be equal.

    python scripts/ci.py bench-judge <output>

reads the output of one ``bench/run.py`` round, which exits 0 even when a
check fails: its last JSON line must have ``correct`` true and ``failed`` 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def traces(manifest: str, direct: str, distributed: str) -> int:
    from hdpf.trace import read_trace, trace_signature

    ok, signatures = True, []
    for label, path in (("direct", direct), ("distributed", distributed)):
        with open(path, encoding="utf-8") as fh:
            trace = read_trace(fh)
        bad = [r.iter for r in trace.records
               if not all(v is not None and math.isfinite(v) for v in (r.lm_error, r.condense_gap))]
        print(f"{manifest} ({label}): {len(trace.records)} records, without finite diagnostics: {bad}")
        ok &= bool(trace.records) and not bad
        signatures.append(trace_signature(trace))
    same = signatures[0] == signatures[1]
    print(f"{manifest}: direct and distributed trace signatures {'equal' if same else 'DIFFER'}")
    return 0 if ok and same else 1


def bench_judge(output: str) -> int:
    with open(output, encoding="utf-8") as fh:
        last = json.loads([ln for ln in fh if ln.startswith("{")][-1])
    return 0 if last["correct"] is True and last["failed"] == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("traces", help="diagnosed direct and distributed traces of one manifest")
    p.add_argument("manifest")
    p.add_argument("direct")
    p.add_argument("distributed")
    p = sub.add_parser("bench-judge", help="the last JSON line of one bench/run.py round")
    p.add_argument("output")
    args = ap.parse_args(argv)
    if args.command == "traces":
        return traces(args.manifest, args.direct, args.distributed)
    return bench_judge(args.output)


if __name__ == "__main__":
    sys.exit(main())
