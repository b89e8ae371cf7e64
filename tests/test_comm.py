import numpy as np
import pytest

from hdpf import (
    CommLedger,
    SolverConfig,
    load_manifest,
    partition,
    run_distributed,
    solve,
    trace_signature,
)

from conftest import fixture_path


def test_fig1_per_region_float_counts(problems):
    p = problems["fig1"]
    _, _, trace, ledger = run_distributed(p, SolverConfig())
    # each region owns 4 consensus columns: 4^2 + 4 up, 4 down per iteration
    for e in ledger.entries:
        assert e.floats_up == 20
        assert e.floats_down == 4
    assert len(ledger.entries) == 2 * trace.n_iter


def test_ledger_matches_analytic_formula(problems):
    for name in ("fig1", "twin14", "case53", "case404", "case1100"):
        p = problems[name]
        _, _, trace, ledger = run_distributed(p, SolverConfig())
        per_iter = {}
        for e in ledger.entries:
            n = p.regions[e.region].n_cpl
            assert e.floats_up == CommLedger.expected_up(n), name
            assert e.floats_down == CommLedger.expected_down(n), name
            per_iter[e.iteration] = per_iter.get(e.iteration, 0) + e.floats_up + e.floats_down
        analytic = sum(r.n_cpl ** 2 + 2 * r.n_cpl for r in p.regions)
        assert all(v == analytic for v in per_iter.values()), name
        assert ledger.per_iteration() == per_iter
        # the trace carries the same integer
        assert all(rec.comm_floats == analytic for rec in trace.records)


def test_harness_is_bit_identical_to_direct_path(problems):
    for name in ("fig1", "twin14", "case53", "case404", "case1100"):
        p = problems[name]
        s1, l1, t1 = solve(p, SolverConfig())
        s2, l2, t2, _ = run_distributed(p, SolverConfig())
        assert np.array_equal(s1.free(), s2.free()), name
        assert trace_signature(t1) == trace_signature(t2), name
        for a, b in zip(l1, l2):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("name", ["case404", "case53"])
def test_cold_and_warm_problems_give_byte_identical_runs(name):
    # a problem orders its sparse patterns (case404's two Byy, case53's
    # three-region S) on its first solve and keeps the orders; a run on the
    # warm problem, direct or through the harness, and a run on another
    # fresh one must all repeat the cold run bit for bit
    def fresh():
        return partition(*load_manifest(fixture_path(f"{name}.manifest")))

    p = fresh()
    cold = solve(p)
    runs = [solve(p), run_distributed(p)[:3], run_distributed(fresh())[:3]]
    assert cold[2].converged
    for state, lams, trace in runs:
        assert state.free().tobytes() == cold[0].free().tobytes()
        assert [lam.tobytes() for lam in lams] == [lam.tobytes() for lam in cold[1]]
        assert trace_signature(trace) == trace_signature(cold[2])


@pytest.mark.parametrize("name", ["fig1", "twin14", "case53", "case404", "case1100"])
def test_harness_bit_identical_with_diagnostics(problems, name):
    # case404's regions take the sparse path, the others the dense one
    p = problems[name]
    cfg = SolverConfig(diagnose=True)
    s1, _, t1 = solve(p, cfg)
    s2, _, t2, _ = run_distributed(p, cfg)
    assert t1.converged and all(r.condense_gap is not None for r in t1.records), name
    assert np.array_equal(s1.free(), s2.free()), name
    assert trace_signature(t1) == trace_signature(t2), name


def test_harness_bit_identical_with_reference(problems, central_refs):
    p = problems["twin14"]
    ref = central_refs["twin14"][0]
    _, _, t1 = solve(p, SolverConfig(), ref=ref)
    _, _, t2, _ = run_distributed(p, SolverConfig(), ref=ref)
    assert trace_signature(t1) == trace_signature(t2)
    assert all(r.dist_to_ref is not None for r in t2.records)


def test_consensus_traffic_much_smaller_than_full_models(problems):
    # the coordinator only ever sees condensed coupling blocks; shipping the
    # regions' full quadratic models instead would cost n_free^2-scale floats
    p = problems["case53"]
    _, _, trace, ledger = run_distributed(p, SolverConfig())
    per_iter = next(iter(ledger.per_iteration().values()))
    full_model_floats = sum(r.net.n_free ** 2 + r.net.n_free for r in p.regions)
    assert 5 * per_iter < full_model_floats
    n_state, n_cpl, _ = (sum(r.net.n_state_entries for r in p.regions),
                         sum(r.n_cpl for r in p.regions), None)
    assert n_cpl * 4 < n_state
