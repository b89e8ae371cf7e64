"""What actually crosses region boundaries, measured float by float.

The message-passing harness executes the same solve through explicit float
buffers: per iteration a region uploads its dense consensus block plus
Bbar x^k - gbar (n^2 + n floats for n active consensus columns) and
downloads its slice of the consensus vector (n floats).  Everything else
stays local, which is the whole point: the coordinator's solve grows with
the number of coupling variables, not with the system state.
"""

from pathlib import Path

import numpy as np

from hdpf import (
    SolverConfig,
    consensus_dims,
    load_manifest,
    partition,
    run_distributed,
    solve,
    trace_signature,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

for name in ("case53", "case404", "case1100"):
    manifest, raws = load_manifest(FIXTURES / f"{name}.manifest")
    prob = partition(manifest, raws)
    n_state, n_cpl, n_z = consensus_dims(prob)

    s_direct, _, t_direct = solve(prob, SolverConfig())
    s_msg, _, t_msg, ledger = run_distributed(prob, SolverConfig())
    assert np.array_equal(s_direct.free(), s_msg.free())
    assert trace_signature(t_direct) == trace_signature(t_msg)

    per_iter = next(iter(ledger.per_iteration().values()))
    print(f"{name}: {len(prob.regions)} regions, n_state={n_state}, n_cpl={n_cpl}")
    print(f"  consensus traffic per iteration: {per_iter} floats "
          f"({t_msg.n_iter} iterations, {ledger.total} floats total)")
    print(f"  message and direct paths bit-identical: True\n")
