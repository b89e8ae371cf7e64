import importlib
import math

import numpy as np
import pytest

from hdpf import (
    SolverConfig,
    build_network,
    central_solve,
    convergence_order,
    parse_case,
    StateVector,
    flat_start,
    run_distributed,
    solve,
    stitch_state,
)
from hdpf.driver import consensus_step
from hdpf.residual import linearize, residual
from hdpf.trace import STATUS_CONVERGED, STATUS_MAX_ITER, IterationRecord, SolveTrace, trace_signature

from helpers import dense_b, region_free, region_states

condense_module = importlib.import_module("hdpf.condense")
# SPARSE_MIN_FREE values that put every region on the sparse or the dense path
ALL_SPARSE, ALL_DENSE = 0, 10**9


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.eps == 1e-10
    assert cfg.tol_step == 1e-8
    assert cfg.tol_residual == 1e-10
    assert cfg.max_iter == 50
    assert cfg.diagnose is False


def test_config_validation():
    # eps and tol_step are constants of the class, not settings
    for field in ("eps", "tol_step"):
        with pytest.raises(TypeError):
            SolverConfig(**{field: 1e-6})
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    for bad in (True, 2.5, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=bad)
    for ok in (3, np.int64(3), np.int32(3)):
        assert SolverConfig(max_iter=ok).max_iter == 3
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            SolverConfig(tol_residual=bad)
    # a bool is no tolerance, though True reads as 1.0; nor is a string
    for bad in (True, False, np.bool_(True), "1e-8", None, 1e-8j):
        with pytest.raises(ValueError, match="tol_residual must be a positive and finite real number"):
            SolverConfig(tol_residual=bad)
    for ok in (1, np.float64(1e-8), np.float32(1e-8), np.int64(1)):
        assert SolverConfig(tol_residual=ok).tol_residual == ok
    # only a bool turns diagnostics on or off, though "no" and 2 are true
    for bad in ("no", "", 2, 1, 0, 1.0, None, np.int64(1)):
        with pytest.raises(ValueError, match="diagnose must be a bool"):
            SolverConfig(diagnose=bad)
    for ok in (True, False, np.bool_(True), np.bool_(False)):
        assert SolverConfig(diagnose=ok).diagnose == ok


def test_stitch_state_puts_core_buses_at_merged_positions(problems):
    rng = np.random.default_rng(13)
    for name in ("fig1", "twin14", "case53"):
        p = problems[name]
        union = p.analyze().union
        state = StateVector(union, *rng.uniform(0.5, 1.5, (4, union.n_bus)))
        states = region_states(p, state)
        stitched = stitch_state(p, state)
        placed = 0
        for reg, st in zip(p.regions, states):
            for i in np.flatnonzero(~reg.net.is_copy):
                m = reg.merged_ids[i] - 1
                for row in ("theta", "vm", "p", "q"):
                    assert getattr(stitched, row)[m] == getattr(st, row)[i], (name, row)
                placed += 1
        assert placed == p.merged_net.n_bus


def test_consensus_step_is_the_solvers_step(problems):
    # one step from case53's flat start, stitched, is solve's first iterate
    p = problems["case53"]
    eps = SolverConfig().eps
    state = flat_start(p.analyze().union)
    lins = [linearize(r.net, s, eps) for r, s in zip(p.regions, region_states(p, state))]
    _, _, new_chi = consensus_step(p, lins, state.free())
    stitched = stitch_state(p, state.with_free(new_chi))
    state, _, trace = solve(p, SolverConfig(max_iter=1))
    assert trace.n_iter == 1
    assert stitched.x.tobytes() == state.x.tobytes()


@pytest.mark.parametrize("diagnose", [False, True])
def test_grid8x8_harness_is_the_direct_solve_and_agrees_with_the_reference(grid8x8, diagnose):
    # 64 regions whose interior bus-4 hyperedges have three instances
    p = grid8x8
    assert len(p.regions) == 64
    assert max(len(e.instances) for e in p.hypergraph.edges) == 3
    cfg = SolverConfig(diagnose=diagnose)
    state, lams, trace = solve(p, cfg)
    h_state, h_lams, h_trace, ledger = run_distributed(p, cfg)
    assert trace.converged and trace.n_iter > 1
    assert state.x.tobytes() == h_state.x.tobytes()
    assert len(lams) == len(h_lams) == len(p.regions)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(lams, h_lams))
    assert trace_signature(trace) == trace_signature(h_trace)
    if diagnose:
        assert all(math.isfinite(r.lm_error) and math.isfinite(r.condense_gap)
                   for r in trace.records)
    assert ledger.total == trace.n_iter * sum(r.n_cpl ** 2 + 2 * r.n_cpl for r in p.regions)
    ref, ref_trace = central_solve(p.merged_net)
    assert ref_trace.converged
    assert np.max(np.abs(state.free() - ref.free())) <= 2 * SolverConfig.tol_step


def test_warm_solve_calls_grow_by_at_most_25_per_region_and_iteration(problems, grid8x8):
    # cProfile's calls per iteration of a warm solve on grid-8x8 (64 regions)
    # against twin14 (2 regions), over the 62 regions between them; about 50
    # while each region's state, step and gaps were per-region arrays
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
    try:
        from calls import calls_per_iteration
    finally:
        sys.path.pop(0)
    counts = []
    for p in (problems["twin14"], grid8x8):
        solve(p)
        counts.append(calls_per_iteration(lambda: solve(p)[2])[1])
    slope = (counts[1] - counts[0]) / (len(grid8x8.regions) - len(problems["twin14"].regions))
    assert slope <= 25, (counts, slope)


def test_single_region_matches_central_iterate_for_iterate(problems, merged_nets):
    p = problems["single14"]
    cfg = SolverConfig()
    ref, ctrace = central_solve(merged_nets["single14"], cfg)
    state, lams, dtrace = solve(p, cfg)
    assert dtrace.converged and ctrace.converged
    assert all(len(l) == 0 for l in lams)
    assert dtrace.n_iter == ctrace.n_iter
    for rc, rd in zip(ctrace.records, dtrace.records):
        assert abs(rc.r_norm2 - rd.r_norm2) <= 1e-10 * (1 + rc.r_norm2)
        assert abs(rc.dchi_inf - rd.dchi_inf) <= 1e-10
    assert np.max(np.abs(state.free() - ref.free())) <= 1e-10


def test_twin14_converges_and_matches_oracle(problems, merged_nets, central_refs):
    p = problems["twin14"]
    state, lams, trace = solve(p, SolverConfig())
    assert trace.converged
    r = residual(merged_nets["twin14"], state)
    assert np.linalg.norm(r) <= 1e-8
    ref = central_refs["twin14"][0]
    assert np.max(np.abs(state.free() - ref.free())) <= 1e-6


def test_case53_converges_quickly(problems, merged_nets, solved):
    state, lams, trace = solved["case53"]
    assert trace.converged
    assert trace.n_iter <= 15
    r = residual(merged_nets["case53"], state)
    assert np.linalg.norm(r) <= 1e-8


def test_objective_decreases_monotonically(solved):
    for name in ("fig1", "twin14", "case53", "case404", "case1100"):
        _, _, trace = solved[name]
        fs = [rec.f for rec in trace.records]
        assert all(b < a for a, b in zip(fs, fs[1:])), name


def test_primal_residual_small_on_fixtures(solved):
    for name in ("case53", "case404", "case1100"):
        _, _, trace = solved[name]
        assert trace.final().primal_residual <= 1e-6
        # recovery writes E_l zbar into the coupling entries
        assert all(rec.primal_residual == 0.0 for rec in trace.records), name


def test_trace_is_deterministic(problems):
    p = problems["case53"]
    _, _, t1 = solve(p, SolverConfig())
    _, _, t2 = solve(p, SolverConfig())
    assert trace_signature(t1) == trace_signature(t2)


def test_dist_to_ref_never_affects_stopping(problems, central_refs):
    p = problems["twin14"]
    _, _, t_no = solve(p, SolverConfig())
    _, _, t_ref = solve(p, SolverConfig(), ref=central_refs["twin14"][0])
    assert t_no.n_iter == t_ref.n_iter
    assert [r.r_norm2 for r in t_no.records] == [r.r_norm2 for r in t_ref.records]
    assert all(r.dist_to_ref is None for r in t_no.records)
    assert all(r.dist_to_ref is not None for r in t_ref.records)


def _spy(monkeypatch, name, keep=lambda out: out):
    """Record the arguments of every call the driver makes to its attribute
    ``name``, and ``keep`` of the result, taken when the call returns."""
    import hdpf.driver

    calls = []
    real = getattr(hdpf.driver, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, keep(out)))
        return out

    monkeypatch.setattr(hdpf.driver, name, spy)
    return calls


def test_diagnosed_solve_evaluates_curvature_once_per_iterate(problems, monkeypatch):
    # one union pass per iterate, the flat start first, evaluates every
    # region's Q with the rest, and nothing evaluates flow terms besides it;
    # each iterate's Q serves its lm_error and then the next step's exact
    # solve, which drops it, so only the last iterate's Q is left;
    # case53's regions take the dense path, case404's the sparse one, and
    # single14, without coupling, has no exact solve to drop it in
    residual_module = importlib.import_module("hdpf.residual")
    calls = _spy(monkeypatch, "linearize_regions",
                 keep=lambda lins: (lins, all(lin.q is not None for lin in lins)))
    flows = []
    real_flows = residual_module._flow_terms
    monkeypatch.setattr(residual_module, "_flow_terms",
                        lambda *args: flows.append(None) or real_flows(*args))
    for name in ("case53", "case404", "single14"):
        calls.clear()
        flows.clear()
        p = problems[name]
        _, _, trace = solve(p, SolverConfig(diagnose=True))
        assert trace.converged and trace.n_iter > 1, name
        assert all(r.lm_error is not None for r in trace.records), name
        assert len(calls) == len(flows) == len(trace.records) + 1, name
        assert all(args[0] is p.analyze().union and args[3] is True and evaluated
                   for args, (_, evaluated) in calls), name
        assert all(lin.q is None for _, (lins, _) in calls[:-1] for lin in lins), name
        assert all(lin.q is not None for lin in calls[-1][1][0]), name


def test_diagnosed_sparse_region_forms_no_dense_square(problems, monkeypatch):
    # every Q of a sparse-path region is its values on its B's pattern, and
    # the solve's peak stays below two dense n_free^2 arrays (2.7 MB; the
    # peak was 8.4 MB with a dense Q per region, and is 0.94 MB on B's pattern)
    import tracemalloc

    calls = _spy(monkeypatch, "linearize_regions", keep=lambda lins: [lin.q.shape for lin in lins])
    p = problems["case404"]
    solve(p, SolverConfig(diagnose=True))
    calls.clear()
    tracemalloc.start()
    try:
        _, _, trace = solve(p, SolverConfig(diagnose=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged and all(math.isfinite(r.lm_error) for r in trace.records)
    assert calls and all(shape == (len(gram.indices),) for _, shapes in calls
                         for (_, gram), shape in zip(p.analyze().union.grams, shapes))
    n_free = max(r.net.n_free for r in p.regions)
    assert peak < 2 * n_free * n_free * 8, peak


def test_lm_error_on_csc_q_matches_the_dense_q(problems, monkeypatch):
    # case404's diagnosed solve on the sparse path: each record's lm_error,
    # from Q's values on B's pattern, against ||eps*I - Q||_F of the dense
    # q_term of the same iterate
    from hdpf.residual import q_term

    calls = _spy(monkeypatch, "linearize_regions")
    p = problems["case404"]
    _, _, trace = solve(p, SolverConfig(diagnose=True))
    assert trace.converged and trace.n_iter > 1
    # calls run iterate by iterate, the flat start first; record k is iterate k's
    for k, rec in enumerate(trace.records, start=1):
        states = region_states(p, calls[k][0][1])
        dense = [q_term(reg.net, s) for reg, s in zip(p.regions, states)]
        expected = math.sqrt(sum(
            np.sum((SolverConfig.eps * np.eye(len(q)) - q) ** 2) for q in dense))
        assert abs(rec.lm_error - expected) <= 1e-12 * expected, (k, rec.lm_error, expected)


def _fresh(name):
    """A partitioned problem for a shipped manifest whose regions have not
    been split yet, so they take the path SPARSE_MIN_FREE sets now."""
    from hdpf import load_manifest, partition

    from conftest import fixture_path

    return partition(*load_manifest(fixture_path(f"{name}.manifest")))


def _saddle_point_coupling(p, lins, chi_ks):
    """Each region's coupling entries after the full-space step, from the
    dense saddle-point KKT over (chi, z, lambda)."""
    n_chi = sum(len(c) for c in chi_ks)
    n_c = sum(r.n_cpl for r in p.regions)
    dim = n_chi + p.n_z + n_c
    kkt = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    off = coff = 0
    for reg, lin, chi in zip(p.regions, lins, chi_ks):
        n, n_x = len(chi), reg.n_cpl
        h = dense_b(lin) + dense_b(lin, lin.q)
        kkt[off:off + n, off:off + n] = h
        rhs[off:off + n] = h @ chi - lin.g
        rows = n_chi + p.n_z + coff + np.arange(n_x)
        kkt[rows, off + reg.coupling_free_cols] = kkt[off + reg.coupling_free_cols, rows] = 1.0
        kkt[rows, n_chi + reg.z_cols] = kkt[n_chi + reg.z_cols, rows] = -1.0
        off += n
        coff += n_x
    full = np.linalg.solve(kkt, rhs)
    offs = np.cumsum([0] + [len(c) for c in chi_ks])
    return [full[o + reg.coupling_free_cols] for o, reg in zip(offs, p.regions)]


def _gap(x_exact, x_plus) -> float:
    return max(float(np.max(np.abs(xe - xp))) for xe, xp in zip(x_exact, x_plus) if len(xp))


@pytest.mark.parametrize("name", ["fig1", "twin14", "case53"])
def test_condense_gap_matches_saddle_point_oracle(monkeypatch, name):
    # on each region path, Byy factored dense and sparse; the oracle reads
    # each iterate's B and Q when the exact step does, before the exact
    # step drops Q and condensation drops B
    import hdpf.driver

    oracles, exact = [], []
    real = hdpf.driver._exact_z

    def spy(p, lins, chi):
        oracles.append(_saddle_point_coupling(p, lins, region_free(p, chi)))
        exact.append(real(p, lins, chi))
        return exact[-1]

    monkeypatch.setattr(hdpf.driver, "_exact_z", spy)
    steps = _spy(monkeypatch, "consensus_step")
    for limit in (ALL_DENSE, ALL_SPARSE):
        monkeypatch.setattr(condense_module, "SPARSE_MIN_FREE", limit)
        oracles.clear(), exact.clear(), steps.clear()
        p = _fresh(name)
        _, _, trace = solve(p, SolverConfig(diagnose=True))
        assert all(s.dense == (limit == ALL_DENSE) for s in p.analyze().splits)
        assert trace.converged and len(oracles) == len(steps) == len(trace.records) > 1
        for oracle, z, (_, (_, _, new_chi)), rec in zip(oracles, exact, steps, trace.records):
            x_plus = [nf[r.coupling_free_cols] for r, nf in zip(p.regions, region_free(p, new_chi))]
            gap, expected = _gap([z[r.z_cols] for r in p.regions], x_plus), _gap(oracle, x_plus)
            assert rec.condense_gap == gap
            assert abs(gap - expected) <= 1e-9 * (1.0 + expected), (limit, rec.iter, gap, expected)


def test_condense_gap_on_the_sparse_path_matches_the_dense_path(problems, monkeypatch):
    # case404's 410-entry regions take the sparse path by default
    p = problems["case404"]
    _, _, sparse = solve(p, SolverConfig(diagnose=True))
    monkeypatch.setattr(condense_module, "SPARSE_MIN_FREE", ALL_DENSE)
    p_dense = _fresh("case404")
    _, _, dense = solve(p_dense, SolverConfig(diagnose=True))
    assert not any(s.dense for s in p.analyze().splits)
    assert all(s.dense for s in p_dense.analyze().splits)
    assert sparse.converged and sparse.n_iter == dense.n_iter > 1
    for a, b in zip(sparse.records, dense.records):
        assert math.isfinite(a.condense_gap)
        assert abs(a.condense_gap - b.condense_gap) <= 1e-10 * (1.0 + b.condense_gap), a.iter


@pytest.mark.parametrize("name", ["fig1", "single14", "twin14", "case53", "case404", "case1100"])
def test_sparse_and_dense_region_paths_agree(central_refs, monkeypatch, name):
    runs = {}
    for limit in (ALL_SPARSE, ALL_DENSE):
        monkeypatch.setattr(condense_module, "SPARSE_MIN_FREE", limit)
        p = _fresh(name)
        runs[limit] = p, solve(p)
        assert all(s.dense == (limit == ALL_DENSE) for s in p.analyze().splits)
    (p, (s_sparse, lams, t_sparse)), (_, (s_dense, _, t_dense)) = runs[ALL_SPARSE], runs[ALL_DENSE]
    assert t_sparse.status == t_dense.status == STATUS_CONVERGED
    assert t_sparse.n_iter == t_dense.n_iter
    assert np.max(np.abs(s_sparse.free() - s_dense.free())) <= 1e-10
    ref = central_refs[name][0].free()
    for s in (s_sparse, s_dense):
        assert np.max(np.abs(s.free() - ref)) <= 1e-10
    # the harness runs the same sparse step, bit for bit: each split keeps
    # the path it was built on
    s_harness, lams_harness, t_harness, _ = run_distributed(p)
    assert np.array_equal(s_harness.free(), s_sparse.free())
    assert trace_signature(t_harness) == trace_signature(t_sparse)
    assert all(np.array_equal(a, b) for a, b in zip(lams_harness, lams))


def test_condense_gap_is_zero_without_coupling(problems):
    _, _, trace = solve(problems["single14"], SolverConfig(diagnose=True))
    assert trace.converged and trace.n_iter > 1
    assert all(r.condense_gap == 0.0 for r in trace.records)


def test_diagnosed_solve_builds_no_saddle_point(problems, monkeypatch):
    import scipy.sparse

    def refuse(*args, **kwargs):
        raise AssertionError("saddle-point assembly")

    monkeypatch.setattr(scipy.sparse, "bmat", refuse)
    monkeypatch.setattr(scipy.sparse, "block_diag", refuse)
    _, _, trace = solve(problems["case53"], SolverConfig(diagnose=True))
    assert trace.converged
    assert all(r.condense_gap is not None for r in trace.records)


def test_max_iter_status_without_convergence(problems):
    _, _, trace = solve(problems["case53"], SolverConfig(max_iter=2))
    assert trace.status == STATUS_MAX_ITER
    assert trace.n_iter == 2


def test_converged_at_start_empty_trace():
    text = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 1 0 0 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.0 100 1;
];
mpc.branch = [
  1 2 0 0.1 0 0 0 0 0 0 1;
];
"""
    from hdpf import MergeManifest, partition

    case = parse_case(text)
    manifest = MergeManifest(("only.m",), (), 0)
    p = partition(manifest, [case])
    _, _, trace = solve(p, SolverConfig())
    assert trace.status == STATUS_CONVERGED
    assert trace.n_iter == 0


# --- convergence order ---------------------------------------------------------


def _trace_from(dists):
    recs = [IterationRecord(iter=k + 1, f=0.0, r_norm2=0.0, dchi_inf=0.0,
                            primal_residual=0.0, comm_floats=0, wall_ns=0,
                            dist_to_ref=d) for k, d in enumerate(dists)]
    return SolveTrace(records=recs, status=STATUS_CONVERGED)


def test_order_fit_exact_quadratic_sequence():
    q = convergence_order(_trace_from([0.1 ** (2 ** k) for k in range(5)]))
    assert abs(q - 2.0) <= 0.01


def test_order_fit_requires_reference():
    with pytest.raises(ValueError, match="dist_to_ref"):
        convergence_order(_trace_from([0.1, None, 0.001][:2] + [None]))


def test_order_fit_requires_enough_points():
    with pytest.raises(ValueError, match="insufficient"):
        convergence_order(_trace_from([0.5, 1e-3, 1e-13]))


def test_order_fit_ignores_floating_plateau():
    dists = [0.3, 5e-3, 2e-6, 1e-11, 9e-12, 8.8e-12]
    q = convergence_order(_trace_from(dists))
    assert q >= 1.5


def test_order_on_two_region_fixture(problems, central_refs):
    p = problems["case404"]
    _, _, trace = solve(p, SolverConfig(), ref=central_refs["case404"][0])
    q = convergence_order(trace)
    assert q >= 1.5


def test_affine_residual_converges_in_one_step():
    # with theta and v pinned by the slack, only the injections are free and
    # the residual is affine: Gauss-Newton lands exactly in one step and the
    # order fit has nothing to qualify
    text = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 50 10 0 0 1.0 100 1;
];
mpc.branch = [
];
"""
    from hdpf import MergeManifest, partition

    case = parse_case(text)
    p = partition(MergeManifest(("only.m",), (), 0), [case])
    net = build_network(p.merged_case)
    ref, _ = central_solve(net)
    state, _, trace = solve(p, SolverConfig(), ref=ref)
    assert trace.converged
    assert trace.n_iter == 1
    with pytest.raises(ValueError, match="insufficient"):
        convergence_order(trace)


def _chain_region(first_id, n_bus, slack, load_mw, rng):
    rows = []
    gens = []
    for k in range(n_bus):
        bus = first_id + k
        if k == 0:
            code = 3 if slack else 2
            rows.append(f"{bus} {code} 0 0 0 0 1 1.02 0 0 1 0 0;")
            gens.append(f"{bus} {load_mw * (n_bus - 1):.1f} 0 0 0 1.02 100 1;")
        else:
            rows.append(f"{bus} 1 {load_mw} {load_mw / 3:.1f} 0 0 1 1.0 0 0 1 0 0;")
    branches = []
    for k in range(1, n_bus):
        r = 0.005 + 0.01 * rng.random()
        x = 0.05 + 0.05 * rng.random()
        branches.append(f"{first_id + k - 1} {first_id + k} {r:.4f} {x:.4f} 0.02 0 0 0 0 0 1;")
        if k >= 2 and rng.random() < 0.5:
            branches.append(f"{first_id} {first_id + k} 0.01 0.09 0.02 0 0 0 0 0 1;")
    text = ("mpc.baseMVA = 100;\nmpc.bus = [\n" + "\n".join(rows) +
            "\n];\nmpc.gen = [\n" + "\n".join(gens) +
            "\n];\nmpc.branch = [\n" + "\n".join(branches) + "\n];\n")
    return parse_case(text)


def test_three_instance_hyperedge_solved_end_to_end():
    # three regions all meeting at one physical bus: the shared bus gets one
    # hyperedge with three instances, and the solve still matches the
    # centralized oracle
    from hdpf import Interconnection, MergeManifest, partition

    rng = np.random.default_rng(1234)
    r0 = _chain_region(1, 4, True, 25.0, rng)
    r1 = _chain_region(11, 4, False, 20.0, rng)
    r2 = _chain_region(21, 4, False, 15.0, rng)
    manifest = MergeManifest(
        ("r0.m", "r1.m", "r2.m"),
        (
            Interconnection(0, 3, 1, 12, 0.01, 0.08, 0.02, 1.0, 0.0),
            Interconnection(0, 3, 2, 22, 0.01, 0.09, 0.02, 1.0, 0.0),
            Interconnection(1, 13, 2, 23, 0.012, 0.1, 0.02, 1.0, 0.0),
        ),
        slack_region=0,
    )
    p = partition(manifest, [r0, r1, r2])
    cards = sorted(len(e.instances) for e in p.hypergraph.edges)
    assert cards == [2, 2, 2, 2, 3]

    net = build_network(p.merged_case)
    ref, ctrace = central_solve(net)
    assert ctrace.converged
    state, lams, trace = solve(p, SolverConfig(), ref=ref)
    assert trace.converged
    assert np.max(np.abs(state.free() - ref.free())) <= 1e-6


def test_random_multiregion_systems_agree_with_oracle():
    from hdpf import Interconnection, MergeManifest, partition

    for seed in (3, 7, 42):
        rng = np.random.default_rng(seed)
        n_regions = int(rng.integers(2, 5))
        regions = [_chain_region(1 + 100 * k, int(rng.integers(3, 7)),
                                 k == 0, float(rng.uniform(10, 35)), rng)
                   for k in range(n_regions)]
        ties = []
        for k in range(1, n_regions):
            # PQ endpoints: any non-first bus of each region
            a = 1 + 100 * (k - 1) + int(rng.integers(1, len(regions[k - 1].buses)))
            b = 1 + 100 * k + int(rng.integers(1, len(regions[k].buses)))
            ties.append(Interconnection(k - 1, a, k, b, 0.01, 0.08, 0.02, 1.0, 0.0))
        p = partition(MergeManifest(tuple(f"r{k}.m" for k in range(n_regions)),
                                    tuple(ties), 0), regions)
        net = build_network(p.merged_case)
        ref, ctrace = central_solve(net)
        assert ctrace.converged, seed
        state, _, trace = solve(p, SolverConfig())
        assert trace.converged, seed
        assert np.max(np.abs(state.free() - ref.free())) <= 1e-6, seed


# a 5 p.u. load over an x = 1 line: the first full step collapses the voltage
COLLAPSE = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 1 500 150 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.0 100 1;
];
mpc.branch = [
  1 2 0.02 1.0 0 0 0 0 0 0 1;
];
"""


def test_voltage_collapse_reports_numerical_breakdown():
    # a 5 p.u. load over an x = 1 line collapses the voltage on the first
    # full step; both solvers surface it as a status, not an exception
    from hdpf import MergeManifest, partition
    from hdpf.network import flat_start
    from hdpf.trace import STATUS_BREAKDOWN

    case = parse_case(COLLAPSE)
    p = partition(MergeManifest(("x.m",), (), 0), [case])
    state, lams, trace = solve(p, SolverConfig(max_iter=40))
    assert trace.status == STATUS_BREAKDOWN
    net = build_network(case)
    cstate, ctrace = central_solve(net, SolverConfig(max_iter=40))
    assert ctrace.status == STATUS_BREAKDOWN

    # each path returns the last iterate that linearized, not the broken one
    assert np.all(state.vm > 0)
    assert np.all(cstate.vm > 0)
    dstate, dlams, dtrace, _ = run_distributed(p, SolverConfig(max_iter=40))
    assert np.all(dstate.vm > 0)
    for q in ("theta", "vm", "p", "q"):
        assert np.array_equal(getattr(state, q), getattr(dstate, q)), q
    assert len(lams) == len(dlams)
    for a, b in zip(lams, dlams):
        assert np.array_equal(a, b)
    assert trace_signature(trace) == trace_signature(dtrace)

    # diagnostics leave the status and the record count of the plain run
    cfg = SolverConfig(max_iter=40, diagnose=True)
    _, _, diag = solve(p, cfg)
    _, _, ddiag, _ = run_distributed(p, cfg)
    for t in (diag, ddiag):
        assert t.status == STATUS_BREAKDOWN
        assert t.n_iter == trace.n_iter
    assert trace_signature(diag) == trace_signature(ddiag)

    # a run whose last allowed step collapses the voltage checks that
    # iterate too: each path returns the flat start, not the broken step
    one = SolverConfig(max_iter=1)
    flat = flat_start(net)
    s1, _, t1 = solve(p, one)
    s2, _, t2, _ = run_distributed(p, one)
    for s, t in ((s1, t1), (s2, t2), central_solve(net, one)):
        assert t.status == STATUS_BREAKDOWN
        assert t.n_iter == 1
        assert np.array_equal(s.x, flat.x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_step_ends_breakdown_with_last_valid_iterate(cases, bad):
    # the shared loop: a step that returns a non-finite vector leaves an
    # iterate that cannot be linearized, so every solver ends the run
    # numerical_breakdown and returns the iterate before it
    from hdpf.driver import _iterate
    from hdpf.network import NetworkUnion, flat_start
    from hdpf.residual import linearize_regions
    from hdpf.trace import STATUS_BREAKDOWN

    net = build_network(cases["case14"])
    calls = []

    def step(lins, chi):
        (lin,) = lins
        calls.append(chi)
        if len(calls) == 1:
            return chi - np.linalg.solve(dense_b(lin), lin.g), ["lam"], {"primal_residual": 0.0}
        return np.full_like(chi, bad), ["broken"], {"primal_residual": 0.0}

    union = NetworkUnion((net,))
    state, lams, records, status = _iterate(
        flat_start(net), ["lam0"], SolverConfig(), step,
        lambda state, eps: linearize_regions(union, state, eps))
    assert status == STATUS_BREAKDOWN
    assert len(records) == 2
    assert not math.isfinite(records[1].dchi_inf)
    assert np.array_equal(state.free(), calls[1])
    assert lams == ["lam"]


def test_non_finite_step_in_a_later_region_shows_in_the_record(cases):
    # a NaN step in the second of two regions, after a finite one in the
    # first, is the record's dchi_inf: Python's max(0.1, nan) is 0.1
    from hdpf.driver import _iterate
    from hdpf.network import NetworkUnion, flat_start
    from hdpf.residual import linearize_regions
    from hdpf.trace import STATUS_BREAKDOWN

    nets = [build_network(cases["case14"]), build_network(cases["case9"])]
    union = NetworkUnion(nets)
    (_, first, *_), (_, second, *_) = union.slices

    def step(lins, chi):
        new = np.empty_like(chi)
        new[first] = chi[first] - np.linalg.solve(dense_b(lins[0]), lins[0].g)
        new[second] = np.nan
        return new, ["lam"] * 2, {"primal_residual": 0.0}

    state, _, records, status = _iterate(
        flat_start(union), ["lam0"] * 2, SolverConfig(), step,
        lambda state, eps: linearize_regions(union, state, eps))
    assert status == STATUS_BREAKDOWN
    assert len(records) == 1 and math.isnan(records[0].dchi_inf)
    assert np.array_equal(state.x, flat_start(union).x)
    assert all(np.array_equal(state.free()[free], flat_start(net).free())
               for (_, free, *_), net in zip(union.slices, nets))


def _count_evaluations(monkeypatch):
    """Spy the regions' evaluation, one call for every region, and the
    reference's; evaluations per network."""
    import collections

    import hdpf.central
    import hdpf.driver

    counts = collections.Counter()

    def regions_spy(union, *args, real=hdpf.driver.linearize_regions):
        counts.update(id(net) for net in union.nets)
        return real(union, *args)

    def central_spy(net, *args, real=hdpf.central._sparse_linearize):
        counts[id(net)] += 1
        return real(net, *args)

    monkeypatch.setattr(hdpf.driver, "linearize_regions", regions_spy)
    monkeypatch.setattr(hdpf.central, "_sparse_linearize", central_spy)
    return counts


@pytest.mark.parametrize("name,cfg,stop", [
    ("case53", SolverConfig(), "residual"),
    ("fig1", SolverConfig(), "step"),
    ("case53", SolverConfig(max_iter=2), STATUS_MAX_ITER),
    ("collapse", SolverConfig(max_iter=40), "numerical_breakdown"),
])
def test_every_iterate_is_evaluated_once(problems, monkeypatch, name, cfg, stop):
    # the start before the loop, each new iterate right after its step,
    # whichever test ends the run
    from hdpf import MergeManifest, partition

    if name == "collapse":
        p = partition(MergeManifest(("x.m",), (), 0), [parse_case(COLLAPSE)])
    else:
        p = problems[name]
    counts = _count_evaluations(monkeypatch)
    _, _, trace = solve(p, cfg)
    if stop in ("residual", "step"):
        assert trace.status == STATUS_CONVERGED
        assert (trace.records[-1].dchi_inf <= cfg.tol_step) == (stop == "step")
    else:
        assert trace.status == stop
    assert dict(counts) == {id(r.net): len(trace.records) + 1 for r in p.regions}
    counts.clear()
    _, _, trace, _ = run_distributed(p, cfg)
    assert dict(counts) == {id(r.net): len(trace.records) + 1 for r in p.regions}
    counts.clear()
    _, trace = central_solve(p.merged_net, cfg)
    assert dict(counts) == {id(p.merged_net): len(trace.records) + 1}


def test_evaluation_maps_are_built_on_first_solve_and_kept():
    # partition builds neither the union of the regions' networks nor the
    # regions' block splits; the first solve builds both, later solves reuse
    # them, and a split on either path keeps maps from B's values, one entry
    # per pattern entry at most, and no dense gathers of an n_free^2 B; only
    # a sparse-path split keeps Byy's system
    from hdpf import load_manifest, partition

    from conftest import fixture_path

    for name, dense in (("case53", True), ("case404", False)):
        p = partition(*load_manifest(fixture_path(f"{name}.manifest")))
        assert p._analysis is None, name
        solve(p)
        analysis = p.analyze()
        union, splits = analysis.union, list(analysis.splits)
        assert [id(net) for net in union.nets] == [id(r.net) for r in p.regions], name
        for (_, gram), s in zip(union.grams, splits):
            assert "gathers" not in s.__dict__ and (s.byy is None) == dense, name
            maps = (s.src, s.flat)
            assert all(len(m) <= len(gram.indices) for m in maps), name
        maps = [(s.src, s.byy) for s in splits]
        solve(p)
        assert p.analyze() is analysis and analysis.union is union, name
        assert all(a is b for a, b in zip(analysis.splits, splits)), name
        assert all(s.src is src and s.byy is byy
                   for s, (src, byy) in zip(splits, maps)), name


def test_solve_memory_below_half_of_the_dense_bs(problems):
    # a warm case1100 solve (ten dense-path regions of 238 free entries)
    # holds each region's B as its values on B's pattern, never as a dense
    # n_free^2 array: its peak stays below half of one dense B per region
    # (about 2.0 MB; it was 8.5 MB when each iterate's B's were dense)
    import tracemalloc

    p = problems["case1100"]
    solve(p)
    dense_bytes = sum(8 * r.net.n_free * r.net.n_free for r in p.regions)
    tracemalloc.start()
    try:
        _, _, trace = solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged
    assert peak < dense_bytes / 2, (peak, dense_bytes)
    # and each dense-path split keeps O(pattern nnz) map entries, not O(n_free^2)
    analysis = p.analyze()
    for r, split, (_, gram) in zip(p.regions, analysis.splits, analysis.union.grams):
        assert r.net.n_free < condense_module.SPARSE_MIN_FREE
        assert len(split.src) + len(split.flat) <= 2 * len(gram.indices)


def test_diagnosed_solve_peaks_below_2_2_plain_solves(problems):
    # a warm diagnosed case1100 solve holds one iterate's B and Q, not two,
    # while K is summed and factored: its peak was 2.55 plain solves' when
    # the diagnostics ran after the next iterate had been evaluated
    import tracemalloc

    p = problems["case1100"]
    peaks = {}
    for diagnose in (False, True):
        cfg = SolverConfig(diagnose=diagnose)
        solve(p, cfg)
        tracemalloc.start()
        try:
            _, _, trace = solve(p, cfg)
            peaks[diagnose] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.converged, diagnose
    assert peaks[True] < 2.2 * peaks[False], peaks


@pytest.mark.parametrize("diagnose", [False, True])
def test_each_b_is_freed_once_condensed(problems, monkeypatch, diagnose):
    # every solve drops each region's B as soon as that region has
    # condensed it: when region l condenses, every earlier region's B of
    # the step is gone; a diagnosed solve's exact step has read every B
    # before condensation starts
    import hdpf.driver

    p = problems["case1100"]
    real = hdpf.driver.condense_region
    step, freed = [], []

    def spy(lin, split, chi):
        if split is p.analyze().splits[0]:
            step.clear()
        freed.extend(earlier.hess is None for earlier in step)
        step.append(lin)
        return real(lin, split, chi)

    monkeypatch.setattr(hdpf.driver, "condense_region", spy)
    _, _, trace = solve(p, SolverConfig(diagnose=diagnose))
    assert trace.converged
    n = len(p.regions)
    assert len(freed) == trace.n_iter * n * (n - 1) // 2
    assert all(freed)


def test_factorization_failure_evaluates_each_iterate_once(cases, monkeypatch):
    import hdpf.driver
    from hdpf.condense import FactorizationError
    from hdpf.network import NetworkUnion, flat_start
    from hdpf.trace import STATUS_BREAKDOWN

    net = build_network(cases["case14"])
    union = NetworkUnion((net,))
    counts = _count_evaluations(monkeypatch)
    steps = []

    def step(lins, chi):
        (lin,) = lins
        steps.append(chi)
        if len(steps) == 2:
            raise FactorizationError("stub")
        return chi - np.linalg.solve(dense_b(lin), lin.g), None, {"primal_residual": 0.0}

    state, _, records, status = hdpf.driver._iterate(
        flat_start(net), None, SolverConfig(), step,
        lambda state, eps: hdpf.driver.linearize_regions(union, state, eps))
    assert status == STATUS_BREAKDOWN
    assert len(records) == 1
    assert np.array_equal(state.free(), steps[1])
    assert dict(counts) == {id(net): len(records) + 1}
