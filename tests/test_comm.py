import numpy as np

from hdpf import (
    CommLedger,
    SolverConfig,
    cost_model,
    flop_estimates,
    run_distributed,
    solve,
    trace_signature,
)


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


def test_harness_bit_identical_with_diagnostics(problems):
    p = problems["case53"]
    cfg = SolverConfig(diagnose=True)
    s1, _, t1 = solve(p, cfg)
    s2, _, t2, _ = run_distributed(p, cfg)
    assert np.array_equal(s1.free(), s2.free())
    assert trace_signature(t1) == trace_signature(t2)


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


def test_cost_model_shapes(problems):
    est = cost_model(problems["case53"])
    dims = [r.net.n_state_entries for r in problems["case53"].regions]
    assert est.parallel_flops == float(sum(d ** 3 for d in dims))
    assert est.consensus_flops == 40.0 ** 3
    assert est.central_consensus_flops == float(sum(dims) ** 3)


def test_cost_model_single_region(problems):
    est = cost_model(problems["single14"])
    assert est.consensus_flops == 0.0
    assert est.consensus_ratio == 0.0


def test_cost_model_equal_split_arithmetic():
    est = flop_estimates([100, 100], 8)
    assert est.parallel_flops == 2 * 100 ** 3
    assert est.central_consensus_flops == 200 ** 3


def test_cost_model_reference_shape_ratio():
    # 10 regions of a 4764-entry state with 88 coupling entries
    dims = [476, 476, 476, 476, 476, 476, 476, 477, 477, 478]
    assert sum(dims) == 4764
    est = flop_estimates(dims, 88)
    assert abs(est.consensus_ratio - (88 / 4764) ** 3) < 1e-15
    assert 6.2e-6 < est.consensus_ratio < 6.4e-6
