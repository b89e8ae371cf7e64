import contextlib
import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import hdpf.condense
from hdpf import (FactorizationError, SolverConfig, flat_start, load_manifest, partition,
                  run_distributed, solve)
from hdpf.condense import (SPARSE_MIN_FREE, BlockSplit, FixedSystem, StackedQP, _sym_splu,
                           condense_region, recover)
from hdpf.consensus import consensus_pass
from hdpf.driver import consensus_step
from hdpf.residual import RegionLinearization, linearize, linearize_regions
from hdpf.trace import trace_signature

from conftest import fixture_path
from helpers import dense_b, random_spd, region_free

# SPARSE_MIN_FREE values that put every model on the dense path (LAPACK's
# Cholesky of a dense Byy) or on the sparse one (SuperLU in a kept order)
PATHS = (10**9, 0)


@contextlib.contextmanager
def _path(limit):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hdpf.condense, "SPARSE_MIN_FREE", limit)
        yield


def _lin_from(b, g, eps=0.0):
    return RegionLinearization(r=np.zeros(0), jac=None, g=g, hess=b, eps=eps)


def _condense(b, g, x_cols, eps=0.0):
    return condense_region(_lin_from(b, g, eps), np.asarray(x_cols), np.zeros(len(g)))


def _assert_local_solves(cqp, b, g):
    # w_x and w_y solve the local block for Byx and gy
    byy = b[np.ix_(cqp.y_cols, cqp.y_cols)]
    np.testing.assert_allclose(byy @ cqp.w_x, b[np.ix_(cqp.y_cols, cqp.x_cols)],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(byy @ cqp.w_y, g[cqp.y_cols], rtol=0, atol=1e-12)


def test_split_identity_blocks():
    b, g = np.eye(4), np.arange(4.0)
    for limit in PATHS:
        with _path(limit):
            cqp = _condense(b, g, [0, 1])
        np.testing.assert_array_equal(cqp.b_bar, np.eye(2))
        np.testing.assert_array_equal(cqp.g_bar, [0.0, 1.0])
        np.testing.assert_array_equal(cqp.w_y, [2.0, 3.0])
        np.testing.assert_array_equal(cqp.w_x, np.zeros((2, 2)))
        np.testing.assert_array_equal(cqp.y_cols, [2, 3])
        _assert_local_solves(cqp, b, g)


def test_split_reassembles_under_permutation():
    # interleaved coupling columns: the local block is B's rows and columns
    # 0, 2, 3, 5 in that order, and the coupling block 1, 4
    rng = np.random.default_rng(2)
    b = random_spd(rng, 6)
    g = rng.standard_normal(6)
    x_cols = np.array([1, 4])
    for limit in PATHS:
        with _path(limit):
            cqp = _condense(b, g, x_cols)
        np.testing.assert_array_equal(cqp.y_cols, [0, 2, 3, 5])
        _assert_local_solves(cqp, b, g)


def test_condensed_matrix_is_exactly_symmetric(problems):
    # every region of every shipped manifest, on both region paths
    for name, p in problems.items():
        for reg in p.regions:
            s = flat_start(reg.net)
            lin = linearize(reg.net, s, 1e-10)
            for limit in PATHS:
                with _path(limit):
                    cqp = condense_region(lin, reg.coupling_free_cols, s.free())
                assert np.array_equal(cqp.b_bar, cqp.b_bar.T), (name, reg.index, limit)


def test_fig1_region_coupling_block_order(problems):
    p = problems["fig1"]
    reg = p.regions[0]
    s = flat_start(reg.net)
    lin = linearize(reg.net, s, 1e-10)
    cqp = condense_region(lin, reg.coupling_free_cols, s.free())
    assert cqp.b_bar.shape == (4, 4)
    np.testing.assert_array_equal(cqp.x_cols, reg.coupling_free_cols)


def test_decoupled_blocks_pass_through():
    rng = np.random.default_rng(4)
    bxx = random_spd(rng, 3)
    byy = random_spd(rng, 2)
    b = sla.block_diag(bxx, byy)
    g = rng.standard_normal(5)
    for limit in PATHS:
        with _path(limit):
            cqp = _condense(b, g, [0, 1, 2])
        np.testing.assert_allclose(cqp.b_bar, bxx, atol=1e-14)
        np.testing.assert_allclose(cqp.g_bar, g[:3], atol=1e-14)


def test_schur_matches_dense_inverse_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        b = random_spd(rng, 4)
        g = rng.standard_normal(4)
        bxx, bxy, byy = b[:2, :2], b[:2, 2:], b[2:, 2:]
        inv_yy = np.linalg.inv(byy)
        for limit in PATHS:
            with _path(limit):
                cqp = _condense(b, g, [0, 1])
            np.testing.assert_allclose(cqp.b_bar, bxx - bxy @ inv_yy @ bxy.T, atol=1e-12)
            np.testing.assert_allclose(cqp.g_bar, g[:2] - bxy @ inv_yy @ g[2:], atol=1e-12)


def test_condensation_is_exact_partial_minimization():
    # F(x) = min_y of the full quadratic model equals the condensed model up
    # to a constant: check values via direct minimization over y
    rng = np.random.default_rng(13)
    b = random_spd(rng, 6)
    g = rng.standard_normal(6)
    x_cols = np.array([0, 3])
    y_cols = np.array([1, 2, 4, 5])
    chi_k = rng.standard_normal(6)
    xs = rng.standard_normal((5, 2))

    def full_model(chi):
        return 0.5 * chi @ b @ chi + (g - b @ chi_k) @ chi

    for limit in PATHS:
        with _path(limit):
            cqp = _condense(b, g, x_cols)
        np.testing.assert_array_equal(cqp.y_cols, y_cols)
        b_bar, g_bar = cqp.b_bar, cqp.g_bar
        diffs = []
        for x in xs:
            # minimize full model over y at fixed x
            rhs = -(g[y_cols] - (b @ chi_k)[y_cols]) - b[np.ix_(y_cols, x_cols)] @ x
            chi = np.zeros(6)
            chi[x_cols] = x
            chi[y_cols] = np.linalg.solve(b[np.ix_(y_cols, y_cols)], rhs)
            condensed = 0.5 * x @ b_bar @ x + (g_bar - b_bar @ chi_k[x_cols]) @ x
            diffs.append(full_model(chi) - condensed)
        # the two models differ by an x-independent constant
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-9)


def test_condensed_spd_floor():
    rng = np.random.default_rng(21)
    jac = rng.standard_normal((3, 6))  # rank-deficient J^T J on 6 variables
    eps = 1e-8
    b = jac.T @ jac + eps * np.eye(6)
    for limit in PATHS:
        with _path(limit):
            cqp = _condense(b, np.zeros(6), [0, 1], eps)
        assert np.linalg.eigvalsh(cqp.b_bar).min() >= eps * (1 - 1e-9)


def test_condensed_spd_floor_along_unseen_coupling_direction():
    # a single row sees the two coupling entries through one combination
    # only, as a copy bus's rows see little of the coupling: another
    # combination is then a direction of J's null space with no local part,
    # b_bar's smallest eigenvalue is eps itself, and both paths must keep it
    # there through rounding
    rng = np.random.default_rng(22)
    for eps in (1e-8, 1e-10):
        jac = rng.standard_normal((1, 6))
        b = jac.T @ jac + eps * np.eye(6)
        for limit in PATHS:
            with _path(limit):
                cqp = _condense(b, np.zeros(6), [0, 1], eps)
            np.testing.assert_allclose(np.linalg.eigvalsh(cqp.b_bar).min(), eps, rtol=1e-4)


def test_schur_breakdown_reported():
    b = np.eye(4)
    b[2, 2] = -1.0  # indefinite local block
    for limit in PATHS:
        with _path(limit), pytest.raises(FactorizationError, match="not positive definite"):
            _condense(b, np.zeros(4), [0, 1])
    # the dense path reports where LAPACK's Cholesky stopped
    with pytest.raises(FactorizationError, match=r"1-th leading minor .* \(LAPACK potrf info 1\)"):
        _condense(b, np.zeros(4), [0, 1])


def test_condense_makes_one_factorization_per_region(problems, monkeypatch):
    # one factor of the local block Byy per region: a dense Cholesky (LAPACK's
    # potrf) of an n_local x n_local matrix per small region; per large one,
    # through condense._splu, which makes every SuperLU factor, and no
    # Cholesky: on a fresh split the minimum-degree factor that finds Byy's
    # order, which also serves that first solve, then only the ordered factor
    calls = []
    real_cho, real_splu = sla.lapack.dpotrf, hdpf.condense._splu
    monkeypatch.setattr(sla.lapack, "dpotrf",
                        lambda a, *r, **k: calls.append(("cho", a.shape)) or real_cho(a, *r, **k))
    monkeypatch.setattr(hdpf.condense, "_splu",
                        lambda a, what, spec: calls.append((spec, a.shape))
                        or real_splu(a, what, spec))
    for name, fresh, ordered in (("case53", ["cho"], ["cho"]),
                                 ("case404", ["MMD_AT_PLUS_A"], ["NATURAL"])):
        p = problems[name]
        for reg in p.regions:
            s = flat_start(reg.net)
            lin = linearize(reg.net, s, 1e-10)
            shape = (reg.net.n_free - reg.n_cpl,) * 2
            split = BlockSplit(reg.net.jtj_pattern, reg.net.n_free, reg.coupling_free_cols)
            for cols, kinds in ((reg.coupling_free_cols, fresh), (split, fresh),
                                (split, ordered)):
                calls.clear()
                condense_region(lin, cols, s.free())
                assert calls == [(kind, shape) for kind in kinds], (name, reg.index)


def _fill(lu) -> int:
    return lu.L.nnz + lu.U.nnz


def test_cached_orders_keep_the_minimum_degree_fill(monkeypatch, problems):
    # each later factor, in a cached order, has the fill of the minimum-degree
    # factor that order was taken from, in its natural order: A[q][:, q] with
    # q = argsort(perm_c), not A[perm_c][:, perm_c], which fills far more
    # and still solves correctly
    factors = []
    real = hdpf.condense._splu

    def spy(a, what, spec):
        lu = real(a, what, spec)
        factors.append((what, spec, lu))
        return lu

    monkeypatch.setattr(hdpf.condense, "_splu", spy)

    def first_and_later(what):
        (_, s0, first), (_, s1, later) = [f for f in factors if f[0] == what]
        assert (s0, s1) == ("MMD_AT_PLUS_A", "NATURAL")
        return first, later

    p = problems["case404"]
    for reg in p.regions:
        assert reg.net.n_free >= SPARSE_MIN_FREE
        s = flat_start(reg.net)
        lin = linearize(reg.net, s, 1e-10)
        split = BlockSplit(reg.net.jtj_pattern, reg.net.n_free, reg.coupling_free_cols)
        factors.clear()
        condense_region(lin, split, s.free())
        condense_region(lin, split, s.free())
        y = split.y_cols
        pat = reg.net.jtj_pattern
        byy = sp.csc_matrix((lin.hess, pat.indices, pat.indptr))[y][:, y]
        _, lu = first_and_later("local block of the regularized Gauss-Newton matrix")
        assert _fill(lu) == _fill(_sym_splu(byy, "Byy")), reg.index
        assert np.array_equal(lu.perm_c, np.arange(len(y))), reg.index
    for name in problems:
        p = partition(*load_manifest(fixture_path(f"{name}.manifest")))
        if not p.n_z:
            continue
        state = flat_start(p.union)
        factors.clear()
        for _ in range(2):
            consensus_step(p, linearize_regions(p.union, state, 1e-10), state.free())
        first, lu = first_and_later("consensus system")
        assert _fill(lu) == _fill(first), name
        assert np.array_equal(lu.perm_c, np.arange(p.n_z)), name


def test_patterns_are_ordered_on_the_first_solve_only(monkeypatch):
    # a fresh case404 problem orders each region's Byy and the coordinator's
    # S once, on its first solve; later solves factor in the kept orders
    calls = []
    real = hdpf.condense._sym_splu
    monkeypatch.setattr(hdpf.condense, "_sym_splu",
                        lambda a, *r, **k: calls.append(a.shape) or real(a, *r, **k))
    p = partition(*load_manifest(fixture_path("case404.manifest")))
    solve(p)
    assert calls == [(r.net.n_free - r.n_cpl,) * 2 for r in p.regions] + [(p.n_z, p.n_z)]
    calls.clear()
    solve(p)
    run_distributed(p)
    assert calls == []


@pytest.mark.parametrize("name", ["case404", "case53"])
def test_exact_hessian_system_is_ordered_once_per_problem(monkeypatch, name):
    # condense_gap's K, over every local entry and z, is ordered on a fresh
    # problem's first diagnosed solve, with its regions on the sparse path
    # (case404) or the dense one (case53); later diagnosed solves, direct or
    # through the harness, factor it in the kept order, to the same bits
    calls = []
    real = hdpf.condense._sym_splu
    monkeypatch.setattr(hdpf.condense, "_sym_splu",
                        lambda a, *r, **k: calls.append(a.shape) or real(a, *r, **k))
    p = partition(*load_manifest(fixture_path(f"{name}.manifest")))
    n_k = sum(r.net.n_free - r.n_cpl for r in p.regions) + p.n_z
    cfg = SolverConfig(diagnose=True)
    cold = solve(p, cfg)
    assert calls.count((n_k, n_k)) == 1, calls
    calls.clear()
    warm = solve(p, cfg)
    harness = run_distributed(p, cfg)
    assert calls == []
    assert cold[2].converged and all(r.condense_gap is not None for r in cold[2].records)
    for run in (warm, harness):
        assert run[0].x.tobytes() == cold[0].x.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(run[1], cold[1]))
        assert trace_signature(run[2]) == trace_signature(cold[2])


def test_cached_order_keeps_the_positive_definiteness_check(problems):
    # a split that has ordered Byy still rejects a later B on the same
    # pattern whose local block is not positive definite
    reg = problems["case404"].regions[0]
    s = flat_start(reg.net)
    lin = linearize(reg.net, s, 1e-10)
    split = BlockSplit(reg.net.jtj_pattern, reg.net.n_free, reg.coupling_free_cols)
    condense_region(lin, split, s.free())
    assert split.byy is not None
    bad = lin.hess.copy()
    y = split.y_cols[len(split.y_cols) // 2]
    bad[reg.net.jtj_pattern.diag[y]] = -1.0  # Byy's diagonal entry (y, y)
    with pytest.raises(FactorizationError, match="not positive definite"):
        condense_region(dataclasses.replace(lin, hess=bad), split, s.free())


def _listed_system(rng):
    # a symmetric 6 x 6 pattern (tridiagonal plus the (0, 5) corner), each
    # entry listed twice, with off-system entries, in a shuffled order; the
    # values are those of 2 * w on the pattern, w symmetric and SPD
    n = 6
    w = rng.uniform(-1.0, 1.0, (n, n))
    w = w + w.T + 8.0 * np.eye(n)
    on = [(i, j) for i in range(n) for j in range(n) if abs(i - j) <= 1 or {i, j} == {0, n - 1}]
    rows, cols = np.array(on * 2 + [(-1, 2), (3, -1), (-1, -1)]).T
    vals = np.concatenate([[w[i, j] for i, j in on] * 2, [1e3, -1e3, 7.0]])
    perm = rng.permutation(len(rows))
    rows, cols, vals = rows[perm], cols[perm], vals[perm]
    dense = np.zeros((n, n))
    kept = (rows >= 0) & (cols >= 0)
    np.add.at(dense, (rows[kept], cols[kept]), vals[kept])
    return rows, cols, vals, dense


def test_fixed_system_on_a_listed_pattern():
    rng = np.random.default_rng(5)
    rows, cols, vals, dense = _listed_system(rng)
    n = len(dense)
    rhs = rng.standard_normal(n)
    rhs2 = np.asfortranarray(rng.standard_normal((n, 3)))
    system = FixedSystem(rows, cols, n, "test matrix")
    first = system.solve(vals, rhs, spd=True)
    later = system.solve(vals, rhs, spd=True)
    assert np.array_equal(first, later)
    np.testing.assert_allclose(first, np.linalg.solve(dense, rhs), rtol=0, atol=1e-12)
    w = system.solve(vals, rhs2)
    assert w.flags.f_contiguous and not w.flags.c_contiguous
    np.testing.assert_allclose(w, np.linalg.solve(dense, rhs2), rtol=0, atol=1e-12)
    fresh = FixedSystem(rows, cols, n, "test matrix")
    assert np.array_equal(fresh.solve(vals, rhs2), w)


def test_fixed_system_rejects_indefinite_and_singular_matrices():
    rng = np.random.default_rng(6)
    rows, cols, vals, dense = _listed_system(rng)
    n = len(dense)
    bad = np.where((rows == 2) & (cols == 2), -20.0, vals)  # (2, 2) sums to -40
    dense_bad = dense.copy()
    dense_bad[2, 2] = -40.0
    assert np.min(np.linalg.eigvalsh(dense)) > 0.0 > np.min(np.linalg.eigvalsh(dense_bad))
    singular = np.where(rows == 3, 0.0, vals)  # row 3 empty
    singular = np.where(cols == 3, 0.0, singular)
    # on the first solve, which orders the pattern, and on a later one
    for warm in (False, True):
        for values, spd, error in ((bad, True, "not positive definite"),
                                   (singular, False, "singular")):
            system = FixedSystem(rows, cols, n, "test matrix")
            if warm:
                system.solve(vals, np.ones(n), spd=True)
            with pytest.raises(FactorizationError, match=f"test matrix is {error}"):
                system.solve(values, np.ones(n), spd=spd)
        # indefinite but nonsingular: solved without the check
        np.testing.assert_allclose(system.solve(bad, np.ones(n)),
                                   np.linalg.solve(dense_bad, np.ones(n)), rtol=0, atol=1e-12)


# --- recovery -----------------------------------------------------------------


def recover_local(cqp, x_target, chi):
    """One region's recovery, through the stacked one over a stack of one."""
    return recover(StackedQP.of([cqp]), chi, x_target, cqp.x_cols, cqp.y_cols)


def test_recover_stationary_point(problems):
    # lam = 0 and g = 0: the next iterate is the current one
    p = problems["fig1"]
    reg = p.regions[0]
    s = flat_start(reg.net)
    lin = linearize(reg.net, s, 1e-10)
    lin.g[:] = 0.0
    chi = s.free()
    cqp = condense_region(lin, reg.coupling_free_cols, chi)
    out = recover_local(cqp, chi[reg.coupling_free_cols], chi)
    np.testing.assert_allclose(out, chi, atol=1e-9)


def test_recover_single_region_is_plain_newton_step(problems):
    p = problems["single14"]
    reg = p.regions[0]
    s = flat_start(reg.net)
    lin = linearize(reg.net, s, 1e-10)
    chi = s.free()
    cqp = condense_region(lin, reg.coupling_free_cols, chi)
    out = recover_local(cqp, np.zeros(0), chi)
    expected = chi - np.linalg.solve(dense_b(lin), lin.g)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_recover_consensus_consistency(problems):
    # after a full pass, every region's coupling entries equal E zbar
    p = problems["case53"]
    states = [flat_start(r.net) for r in p.regions]
    lins = [linearize(r.net, s, 1e-10) for r, s in zip(p.regions, states)]
    chis = [s.free() for s in states]
    cqps = [condense_region(lin, r.coupling_free_cols, chi)
            for lin, r, chi in zip(lins, p.regions, chis)]
    sol = consensus_pass(cqps, p.regions, p.n_z)
    for cqp, reg, chi in zip(cqps, p.regions, chis):
        out = recover_local(cqp, sol.z_bar[reg.z_cols], chi)
        np.testing.assert_allclose(out[reg.coupling_free_cols],
                                   sol.z_bar[reg.z_cols], atol=1e-8)


def test_recover_hidden_entries_match_block_solve_with_interleaved_coupling():
    rng = np.random.default_rng(31)
    for n, x_cols in ((7, [1, 4, 5]), (9, [0, 3, 8]), (5, [2])):
        x_cols = np.array(x_cols)
        b = random_spd(rng, n)
        g = rng.standard_normal(n)
        hess0, g0 = b.copy(), g.copy()
        chi = rng.standard_normal(n)
        x_target = chi[x_cols] + rng.standard_normal(len(x_cols))
        for limit in PATHS:
            lin = _lin_from(b, g)
            with _path(limit):
                cqp = condense_region(lin, x_cols, chi)
            out = recover_local(cqp, x_target, chi)
            y_cols = cqp.y_cols
            rhs = (b @ chi - g)[y_cols] - b[np.ix_(y_cols, x_cols)] @ x_target
            expected = np.linalg.solve(b[np.ix_(y_cols, y_cols)], rhs)
            np.testing.assert_allclose(out[y_cols], expected, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(expected)))
            np.testing.assert_array_equal(out[x_cols], x_target)
            # the in-place factorization works on a copy: the model is untouched
            np.testing.assert_array_equal(lin.hess, hess0)
            np.testing.assert_array_equal(lin.g, g0)


@pytest.mark.parametrize("name", ["case53", "case1100", "grid-8x8"])
def test_stacked_recovery_matches_the_block_solve_on_every_region(problems, grid8x8, name):
    # the solver's step from a perturbed flat start: every region's local
    # entries against a dense solve of its local block, its coupling
    # entries exactly the consensus values z_bar[z_cols]
    p = grid8x8 if name == "grid-8x8" else problems[name]
    rng = np.random.default_rng(17)
    flat = flat_start(p.union)
    state = flat.with_free(flat.free() + rng.uniform(-0.01, 0.01, p.union.n_free))
    lins = linearize_regions(p.union, state, 1e-10)
    dense = [dense_b(lin) for lin in lins]  # the step frees each B
    chi = state.free()
    _, sol, new_chi = consensus_step(p, lins, chi)
    at = p.stacking
    assert np.array_equal(new_chi[at.x_at], sol.z_bar[at.z_cols])
    for reg, b, lin, old, new in zip(p.regions, dense, lins, region_free(p, chi),
                                     region_free(p, new_chi)):
        x, y = reg.split.x_cols, reg.split.y_cols
        x_target = sol.z_bar[reg.z_cols]
        assert np.array_equal(new[x], x_target), (name, reg.index)
        expected = old[y] - np.linalg.solve(b[np.ix_(y, y)],
                                            lin.g[y] + b[np.ix_(y, x)] @ (x_target - old[x]))
        err = np.max(np.abs(new[y] - expected))
        assert err <= 1e-12 * np.max(np.abs(expected)), (name, reg.index, err)
