import math

import numpy as np
import pytest
import scipy.sparse as sp

from hdpf import ModelError, build_network, central_solve, flat_start, parse_case
from hdpf.residual import jacobian, linearize, q_term, residual

from helpers import (complex_jacobian, complex_power_residual, dense_b, fd_hessian_of_f,
                     fd_jacobian, lm_hessian, union_state)

LOSSLESS_2BUS = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 1 {pd} {qd} 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.0 100 1;
];
mpc.branch = [
  1 2 0 0.1 0 0 0 0 0 0 1;
];
"""

# a phase-shifting transformer with off-nominal tap (2-3), line charging and
# bus shunts (3, 4): Y is not symmetric and its diagonal carries G and B
SHIFTER_4BUS = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 2 20 5 0 0 1 1.02 0 0 1 0 0;
  3 1 40 15 3 19 1 1.0 0 0 1 0 0;
  4 1 30 -10 -2 5 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.0 100 1;
  2 30 0 0 0 1.02 100 1;
];
mpc.branch = [
  1 2 0.01 0.1 0.02 0 0 0 0 0 1;
  2 3 0.02 0.15 0 0 0 0 0.95 5 1;
  3 4 0.015 0.12 0.03 0 0 0 0 0 1;
  4 1 0.01 0.09 0.01 0 0 0 1.03 -3 1;
];
"""


def _derivative_nets(cases, problems):
    """Base systems, the asymmetric 4-bus case, and twin14's regions (copy-bus
    columns)."""
    nets = [build_network(cases[name]) for name in ("case14", "case30")]
    shifter = build_network(parse_case(SHIFTER_4BUS))
    assert abs(shifter.ybus - shifter.ybus.T).max() > 0.1
    nets.append(shifter)
    return nets + [reg.net for reg in problems["twin14"].regions]


def _random_state(net, rng, scale=0.1):
    s = flat_start(net)
    return s.with_free(s.free() + rng.uniform(-scale, scale, net.n_free))


def test_lossless_flat_start_residual_is_zero():
    net = build_network(parse_case(LOSSLESS_2BUS.format(pd=0, qd=0)))
    r = residual(net, flat_start(net))
    np.testing.assert_allclose(r, 0.0, atol=1e-15)


def test_two_bus_angle_residual_value():
    # slack 1 at 1.0/0 rad, PQ bus at v=1, theta=-0.1 over an x=0.1 line:
    # r_p at bus 2 is p_2 - 10*sin(-0.1)
    net = build_network(parse_case(LOSSLESS_2BUS.format(pd=50, qd=20)))
    s = flat_start(net)
    theta = s.theta.copy()
    theta[1] = -0.1
    s = type(s)(net, theta, s.vm, s.p, s.q)
    r = residual(net, s)
    expected_rp2 = -0.5 - 10.0 * math.sin(-0.1)
    np.testing.assert_allclose(r[2], expected_rp2, rtol=1e-14)
    # and the whole vector agrees with the complex-power oracle
    np.testing.assert_allclose(r, complex_power_residual(net, s), atol=1e-14)


def test_residual_matches_complex_oracle_random_states(cases):
    rng = np.random.default_rng(3)
    for name in ("case14", "case30", "case57"):
        net = build_network(cases[name])
        for _ in range(5):
            s = _random_state(net, rng)
            np.testing.assert_allclose(residual(net, s),
                                       complex_power_residual(net, s),
                                       atol=1e-12)


def test_residual_small_at_central_solution(central_refs, merged_nets):
    state, _ = central_refs["single14"]
    r = residual(merged_nets["single14"], state)
    assert np.max(np.abs(r)) <= 1e-6


def test_residual_separable_across_partition(problems, merged_nets):
    # with copies mirroring their cores, regional objectives sum to the
    # merged objective at the stitched state
    rng = np.random.default_rng(11)
    p = problems["case53"]
    merged_net = merged_nets["case53"]
    merged_state = flat_start(merged_net)
    merged_state = merged_state.with_free(
        merged_state.free() + rng.uniform(-0.05, 0.05, merged_net.n_free))

    total = 0.0
    for reg in p.regions:
        s = flat_start(reg.net)
        theta = s.theta.copy()
        vm = s.vm.copy()
        pp = s.p.copy()
        qq = s.q.copy()
        mpos = reg.merged_ids - 1
        theta[:] = merged_state.theta[mpos]
        vm[:] = merged_state.vm[mpos]
        core = ~reg.net.is_copy
        pp[core] = merged_state.p[mpos[core]]
        qq[core] = merged_state.q[mpos[core]]
        r = residual(reg.net, type(s)(reg.net, theta, vm, pp, qq))
        total += 0.5 * float(r @ r)

    r_merged = residual(merged_net, merged_state)
    f_merged = 0.5 * float(r_merged @ r_merged)
    np.testing.assert_allclose(total, f_merged, rtol=1e-12)


# --- jacobian ----------------------------------------------------------------


def test_jacobian_matches_finite_differences(cases, problems):
    rng = np.random.default_rng(5)
    for net in _derivative_nets(cases, problems):
        for _ in range(3):
            s = _random_state(net, rng)
            j = jacobian(net, s).toarray()
            j_fd = fd_jacobian(net, s)
            assert np.max(np.abs(j - j_fd)) <= 1e-6


def test_jacobian_matches_complex_matrix_derivatives(cases, problems):
    # the per-term rule against the whole-matrix formulas, to rounding
    rng = np.random.default_rng(29)
    for net in _derivative_nets(cases, problems):
        for s in (flat_start(net), _random_state(net, rng)):
            j = jacobian(net, s).toarray()
            oracle = complex_jacobian(net, s)
            assert np.max(np.abs(j - oracle)) <= 1e-12 * (1.0 + np.max(np.abs(oracle)))


def test_jacobian_injection_columns_are_unit(cases):
    net = build_network(cases["case14"])
    s = flat_start(net)
    j = jacobian(net, s).toarray()
    row_of_bus = {int(b): 2 * k for k, b in enumerate(net.core_idx)}
    for bus in np.flatnonzero(net.free[2]):
        col = net.col[2, bus]
        expected = np.zeros(j.shape[0])
        expected[row_of_bus[int(bus)]] = 1.0
        np.testing.assert_array_equal(j[:, col], expected)
    for bus in np.flatnonzero(net.free[3]):
        col = net.col[3, bus]
        expected = np.zeros(j.shape[0])
        expected[row_of_bus[int(bus)] + 1] = 1.0
        np.testing.assert_array_equal(j[:, col], expected)


def test_jacobian_flat_lossless_angle_block():
    # at a flat start on a lossless network the active-power angle partials
    # collapse to dr_p,i/dth_k = v_i v_k B_ik for neighbours k != i
    text = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 1 0 0 0 0 1 1.0 0 0 1 0 0;
  3 1 0 0 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.0 100 1;
];
mpc.branch = [
  1 2 0 0.1 0 0 0 0 0 0 1;
  2 3 0 0.2 0 0 0 0 0 0 1;
];
"""
    net = build_network(parse_case(text))
    s = flat_start(net)
    j = jacobian(net, s).toarray()
    b = net.ybus.imag.toarray()
    # bus 2 p-row (row 2), partial w.r.t. theta_3
    col_th3 = net.col[0, 2]
    np.testing.assert_allclose(j[2, col_th3], s.vm[1] * s.vm[2] * b[1, 2], atol=1e-14)


def test_gradient_matches_finite_differences(cases):
    rng = np.random.default_rng(17)
    net = build_network(cases["case30"])
    for _ in range(3):
        s = _random_state(net, rng)
        lin = linearize(net, s, 1e-10)
        x0 = s.free()
        g_fd = np.empty_like(x0)
        h = 1e-7
        for i in range(len(x0)):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            rp = residual(net, s.with_free(xp))
            rm = residual(net, s.with_free(xm))
            g_fd[i] = (0.5 * rp @ rp - 0.5 * rm @ rm) / (2 * h)
        denom = 1.0 + np.abs(g_fd)
        assert np.max(np.abs(lin.g - g_fd) / denom) <= 1e-6


# --- second-order term --------------------------------------------------------


def test_q_term_zero_at_zero_residual():
    net = build_network(parse_case(LOSSLESS_2BUS.format(pd=0, qd=0)))
    q = q_term(net, flat_start(net))
    np.testing.assert_allclose(q, 0.0, atol=1e-15)


def test_q_term_completes_fd_hessian(cases, problems):
    rng = np.random.default_rng(23)
    for net in _derivative_nets(cases, problems):
        s = _random_state(net, rng, scale=0.05)
        j = jacobian(net, s).toarray()
        h = j.T @ j + q_term(net, s)
        h_fd = fd_hessian_of_f(net, s)
        assert np.max(np.abs(h - h_fd)) <= 1e-4


def test_q_term_ignores_linear_rows():
    # at a flat lossless state with nonzero injections only the p/q rows
    # carry residual, and those rows are linear, so the correction vanishes
    net = build_network(parse_case(LOSSLESS_2BUS.format(pd=30, qd=10)))
    s = flat_start(net)
    q = q_term(net, s)
    r = residual(net, s)
    assert np.max(np.abs(r)) > 0.1
    # residual rows are nonzero but depend on (p, q) linearly at this point:
    # curvature enters only through the trig part evaluated at flat profile
    h_fd = fd_hessian_of_f(net, s)
    j = jacobian(net, s).toarray()
    np.testing.assert_allclose(j.T @ j + q, h_fd, atol=1e-5)


def test_q_term_on_b_pattern_matches_dense_bit_for_bit(problems):
    # the diagnostics' Q, its values on the network's B pattern, equals the
    # dense q_term of the same state there bit for bit, and the dense one
    # is zero off the pattern
    rng = np.random.default_rng(29)
    for name, p in problems.items():
        for reg in p.regions:
            net = reg.net
            flat = flat_start(net)
            for s in (flat, flat.with_free(flat.free() + rng.uniform(-0.1, 0.1, net.n_free))):
                values, dense = linearize(net, s, 1e-10, q=True).q, q_term(net, s)
                gram = net.union.grams[0][1]
                assert isinstance(dense, np.ndarray) and dense.shape == (net.n_free,) * 2, name
                assert np.array_equal(values, dense[gram.indices, gram.cols]), name
                off = np.ones_like(dense, dtype=bool)
                off[gram.indices, gram.cols] = False
                assert not dense[off].any(), name


def test_q_term_takes_the_form_of_b(problems):
    # Q's values lie on B's pattern, one value per entry as B's do, for
    # every region, through a map of Q's entries the network's union of one
    # builds once
    for p in problems.values():
        for reg in p.regions:
            net = reg.net
            s = flat_start(net)
            lin = linearize(net, s, 1e-10, q=True)
            gram = net.union.grams[0][1]
            assert lin.pattern is gram
            assert lin.q.shape == lin.hess.shape == (len(gram.indices),)
            slots = net.union.__dict__["q_slots"]
            linearize(net, s, 1e-10, q=True)
            assert net.union.__dict__["q_slots"] is slots


# --- regularized Gauss-Newton matrix -----------------------------------------


def test_lm_hessian_diagonal_example():
    j = np.diag([1.0, 2.0])
    b = lm_hessian(j, 1e-10)
    np.testing.assert_allclose(np.diag(b), [1.0 + 1e-10, 4.0 + 1e-10])


def test_lm_hessian_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        lm_hessian(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        lm_hessian(np.eye(2), -1e-3)


def test_linearize_rejects_nonpositive_eps(cases):
    net = build_network(cases["case9"])
    for eps in (0.0, -1e-3):
        with pytest.raises(ValueError, match="regularization must be positive"):
            linearize(net, flat_start(net), eps)


def test_lm_hessian_floor_on_rank_deficient_jacobian():
    j = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = lm_hessian(j, 1e-10)
    eigs = np.linalg.eigvalsh(b)
    assert eigs.min() >= 1e-10 * (1 - 1e-12)
    np.testing.assert_allclose(b - j.T @ j, 1e-10 * np.eye(2), atol=1e-25)


def test_lm_hessian_spd_on_regions(problems):
    p = problems["twin14"]
    for reg in p.regions:
        lin = linearize(reg.net, flat_start(reg.net), 1e-10)
        eigs = np.linalg.eigvalsh(dense_b(lin))
        assert eigs.min() > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_angle_rejected_with_positions(bad):
    net = build_network(parse_case(LOSSLESS_2BUS.format(pd=50, qd=20)))
    s = flat_start(net)
    theta = s.theta.copy()
    theta[1] = bad
    s = type(s)(net, theta, s.vm, s.p, s.q)
    for fn in (residual, jacobian, q_term):
        with pytest.raises(ModelError, match=r"non-finite state at bus position\(s\) \[1\]"):
            fn(net, s)


# --- fixed-pattern assembly ---------------------------------------------------


def test_linearize_matches_sparse_oracle_bit_for_bit(problems):
    # the bincount assembly adds in the order a sparse J'J and J'r do, into
    # B's values on the network's fixed pattern, for every region
    rng = np.random.default_rng(17)
    for name, p in problems.items():
        for reg in p.regions:
            net = reg.net
            flat = flat_start(net)
            for s in (flat, flat.with_free(flat.free() + rng.uniform(-0.1, 0.1, net.n_free))):
                j = jacobian(net, s)
                assert j.has_canonical_format, name
                lin = linearize(net, s, 1e-10)
                gram = lin.pattern
                assert gram is net.union.grams[0][1], name
                oracle = lm_hessian(j, 1e-10)
                assert np.array_equal(lin.hess, oracle[gram.indices, gram.cols]), name
                assert np.array_equal(dense_b(lin), oracle), name  # zero off the pattern
                assert np.array_equal(lin.g, j.T @ residual(net, s)), name


def test_linearize_builds_no_sparse_matrix(problems, monkeypatch):
    # no region's linearization builds a matrix, small (case53) or large (case404)
    calls = []

    def spy(name):
        real = getattr(sp, name)
        return lambda *a, **k: calls.append(name) or real(*a, **k)

    for name in ("coo_matrix", "csr_matrix", "csc_matrix"):
        monkeypatch.setattr(sp, name, spy(name))
    for reg in problems["case53"].regions + problems["case404"].regions:
        linearize(reg.net, flat_start(reg.net), 1e-10)
    assert calls == []


def test_index_maps_built_once_per_network(cases):
    # every region, small or large, builds its Jacobian's pattern and the
    # union of one through which it is evaluated, which builds B's pattern,
    # on which its values live, and keeps it
    from hdpf import load_manifest, partition

    from conftest import fixture_path

    big = partition(*load_manifest(fixture_path("case404.manifest"))).regions[0].net
    for net in (build_network(cases["case14"]), big):
        lin = linearize(net, flat_start(net), 1e-10)
        maps = {k: net.__dict__[k] for k in ("jac_pattern", "union")}
        grams = maps["union"].__dict__["grams"]
        assert "q_slots" not in maps["union"].__dict__
        assert lin.pattern is grams[0][1]
        lin = linearize(net, flat_start(net), 1e-10)
        assert all(net.__dict__[k] is v for k, v in maps.items())
        assert maps["union"].__dict__["grams"] is grams
        assert lin.pattern is grams[0][1]
    # the reference's linearization needs only the Jacobian's pattern
    merged = build_network(cases["case14"])
    central_solve(merged)
    assert "jac_pattern" in merged.__dict__
    assert "union" not in merged.__dict__


# --- batched evaluation -------------------------------------------------------


def _same(a, b):
    """Equal bit for bit, in the same shape."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("limit", [0, 10**9])
def test_batched_evaluation_equals_per_network_linearize(problems, monkeypatch, limit):
    # every region of every shipped manifest, at the flat start and at a
    # perturbed state, with every region on the sparse path (limit 0) and
    # every one on the dense path: B takes one form on either, and so does
    # Q, when asked for, from the same pass
    import hdpf.condense
    from hdpf.residual import linearize_regions

    monkeypatch.setattr(hdpf.condense, "SPARSE_MIN_FREE", limit)
    rng = np.random.default_rng(41)
    for name, p in problems.items():
        flat = [flat_start(r.net) for r in p.regions]
        union = p.analyze().union
        for states in (flat, [_random_state(r.net, rng) for r in p.regions]):
            for q in (False, True):
                lins = linearize_regions(union, union_state(union, states), 1e-10, q=q)
                assert len(lins) == len(p.regions), name
                for reg, s, lin, (_, gram) in zip(p.regions, states, lins, union.grams):
                    one = linearize(reg.net, s, 1e-10, q=q)
                    # each network's B pattern, the problem union's and the
                    # network's union of one's, equal bit for bit
                    assert lin.pattern is gram and one.pattern is reg.net.union.grams[0][1], name
                    assert all(_same(getattr(gram, f), getattr(one.pattern, f))
                               for f in ("slot", "diag", "indices", "indptr", "cols")), name
                    for field in ("r", "g", "hess"):
                        assert _same(getattr(lin, field), getattr(one, field)), \
                            (name, reg.index, field)
                    if q:
                        assert _same(lin.q, one.q), (name, reg.index, "q")
                    else:
                        assert lin.q is None and one.q is None, name


@pytest.mark.parametrize("row,bad,what", [
    (0, np.nan, "non-finite state"),
    (3, np.inf, "non-finite state"),
    (1, 0.0, "non-positive voltage magnitude"),
])
def test_bad_state_names_its_region(problems, row, bad, what):
    # positions are local to the region; a network evaluated alone keeps
    # the message without a region
    from hdpf.residual import linearize_regions

    p = problems["case53"]
    states = [flat_start(r.net) for r in p.regions]
    assert len(p.regions) == 3
    states[1].x[row, [1, 4]] = bad
    states[2].x[row, 0] = bad
    union = p.analyze().union
    with pytest.raises(ModelError, match=rf"^region 1: {what} at bus position\(s\) \[1, 4\]$"):
        linearize_regions(union, union_state(union, states), 1e-10)
    with pytest.raises(ModelError, match=rf"^{what} at bus position\(s\) \[1, 4\]$"):
        linearize(p.regions[1].net, states[1], 1e-10)
