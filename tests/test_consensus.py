import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from hdpf import FactorizationError, dense_kkt_solve
from hdpf.condense import CondensedQP
from hdpf.consensus import (
    TOL_KKT,
    averaging_projector,
    consensus_pass,
    verify_kkt,
    weighted_average,
)

from helpers import random_consensus_qp, random_spd


def _cqp(b, g, x_k):
    n = len(g)
    return CondensedQP(
        b_bar=b, g_bar=g, x_k=x_k, x_cols=np.arange(n),
        y_cols=np.zeros(0, dtype=np.int64), w_y=np.zeros(0), w_x=np.zeros((0, n)))


def _stub(cols):
    cols = np.asarray(cols, dtype=np.int64)
    return SimpleNamespace(z_cols=cols, n_cpl=len(cols))


def _alone(cqp):
    """One pass of a single region that owns every consensus column."""
    return consensus_pass([cqp], [_stub(np.arange(cqp.n_cpl))], cqp.n_cpl)


def test_local_move_zero_gradient_stays_put():
    cqp = _cqp(np.eye(3), np.zeros(3), np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(_alone(cqp).z_bar, cqp.x_k, atol=1e-15)


def test_local_move_unit_hessian():
    cqp = _cqp(np.eye(2), np.array([1.0, -1.0]), np.zeros(2))
    np.testing.assert_allclose(_alone(cqp).z_bar, [-1.0, 1.0], atol=1e-15)


def test_local_move_solves_stationarity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        cqp = _cqp(random_spd(rng, n), rng.standard_normal(n), rng.standard_normal(n))
        x = _alone(cqp).z_bar
        np.testing.assert_allclose(cqp.b_bar @ (x - cqp.x_k) + cqp.g_bar,
                                   0.0, atol=1e-10)


def test_weighted_average_equal_weights_is_mean():
    cols = np.array([0, 1])
    z = weighted_average([(cols, np.eye(2), np.array([1.0, 3.0])),
                          (cols, np.eye(2), np.array([3.0, 5.0]))], 2)
    np.testing.assert_allclose(z, [2.0, 4.0], atol=1e-14)


def test_weighted_average_respects_weights():
    # payload vectors are Bbar x: 3 * 1.0 and 1 * 5.0
    cols = np.array([0])
    z = weighted_average([(cols, 3.0 * np.eye(1), np.array([3.0])),
                          (cols, np.eye(1), np.array([5.0]))], 1)
    np.testing.assert_allclose(z, [(3.0 * 1.0 + 5.0) / 4.0], atol=1e-14)


def test_weighted_average_single_region_identity():
    b = random_spd(np.random.default_rng(0), 3)
    x = np.array([0.3, -0.1, 2.0])
    z = weighted_average([(np.arange(3), b, b @ x)], 3)
    np.testing.assert_allclose(z, x, atol=1e-12)


def test_weighted_average_detects_untouched_column():
    with pytest.raises(FactorizationError, match="consensus"):
        weighted_average([(np.array([0]), np.eye(1), np.zeros(1))], 2)


def test_weighted_average_ignores_column_order_within_a_region():
    # each payload entry is added once at its column, so permuting one
    # region's (cols, s_block, b_vec) jointly leaves the average unchanged
    rng = np.random.default_rng(58)
    for _ in range(25):
        cqps, regions, n_z = random_consensus_qp(rng)
        contribs = [(r.z_cols, c.b_bar, c.b_bar @ c.x_k - c.g_bar)
                    for c, r in zip(cqps, regions)]
        z = weighted_average(contribs, n_z)
        l = max(range(len(contribs)), key=lambda i: len(contribs[i][0]))
        cols, s_block, b_vec = contribs[l]
        perm = rng.permutation(len(cols))
        permuted = list(contribs)
        permuted[l] = (cols[perm], s_block[np.ix_(perm, perm)], b_vec[perm])
        assert np.array_equal(weighted_average(permuted, n_z), z)


def test_weighted_average_sparse_on_a_long_chain():
    # n_z columns chained by 2 x 2 blocks: S is tridiagonal, so a dense
    # n_z x n_z S (128 MB at this size) is far more than the solve needs
    n_z = 4000
    rng = np.random.default_rng(21)
    payloads = []
    diag, off, rhs = np.zeros(n_z), np.zeros(n_z - 1), np.zeros(n_z)
    for l in range(n_z - 1):
        block = random_spd(rng, 2)
        vec = rng.standard_normal(2)
        payloads.append((np.array([l, l + 1]), block, vec))
        diag[l:l + 2] += np.diag(block)
        off[l] += block[0, 1]
        rhs[l:l + 2] += vec
    tracemalloc.start()
    try:
        z = weighted_average(payloads, n_z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    banded = np.zeros((3, n_z))
    banded[0, 1:], banded[1], banded[2, :-1] = off, diag, off
    ref = sla.solve_banded((1, 1), banded, rhs)
    np.testing.assert_allclose(z, ref, atol=1e-9 * (1 + np.max(np.abs(ref))))
    assert peak < 16e6, peak


def test_dual_update_single_region_vanishes():
    rng = np.random.default_rng(8)
    cqp = _cqp(random_spd(rng, 2), rng.standard_normal(2), rng.standard_normal(2))
    np.testing.assert_allclose(_alone(cqp).lam[0], 0.0, atol=1e-10)


def test_dual_update_antisymmetric_two_regions():
    # with gbar = 0 each region's move is its own x^k
    x1 = np.array([1.0, 0.0])
    x2 = np.array([0.0, 2.0])
    c = [_cqp(np.eye(2), np.zeros(2), x) for x in (x1, x2)]
    l1, l2 = consensus_pass(c, [_stub([0, 1]), _stub([0, 1])], 2).lam
    np.testing.assert_allclose(l1, (x1 - x2) / 2.0, atol=1e-14)
    np.testing.assert_allclose(l1, -l2, atol=1e-14)


def test_dual_feasibility_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(25):
        cqps, regions, n_z = random_consensus_qp(rng)
        sol = consensus_pass(cqps, regions, n_z)
        acc = np.zeros(n_z)
        for reg, lam in zip(regions, sol.lam):
            np.add.at(acc, reg.z_cols, lam)
        assert np.max(np.abs(acc)) <= 1e-10 * (1 + max(
            float(np.max(np.abs(c.g_bar))) if c.n_cpl else 0.0 for c in cqps))


def test_dual_feasibility_holds_for_arbitrary_local_moves():
    # the averaging map annihilates the accumulated multipliers no matter
    # what the regions propose, not just for the optimal local moves
    rng = np.random.default_rng(13)
    for _ in range(10):
        cqps, regions, n_z = random_consensus_qp(rng)
        x_arbitrary = [rng.standard_normal(c.n_cpl) for c in cqps]
        contribs = [(r.z_cols, c.b_bar, c.b_bar @ x)
                    for c, r, x in zip(cqps, regions, x_arbitrary)]
        z = weighted_average(contribs, n_z)
        acc = np.zeros(n_z)
        for (cols, b, v) in contribs:
            np.add.at(acc, cols, v - b @ z[cols])
        scale = 1.0 + max(float(np.max(np.abs(x))) if len(x) else 0.0
                          for x in x_arbitrary)
        assert np.max(np.abs(acc)) <= 1e-9 * scale


def test_one_pass_reaches_kkt_and_is_fixed_point():
    rng = np.random.default_rng(31)
    for _ in range(25):
        cqps, regions, n_z = random_consensus_qp(rng)
        sol = consensus_pass(cqps, regions, n_z)
        chi_next = [sol.z_bar[r.z_cols] for r in regions]
        kkt = verify_kkt(cqps, regions, sol, chi_next)
        scale = 1.0 + max(float(np.max(np.abs(c.g_bar))) if c.n_cpl else 0.0
                          for c in cqps)
        assert kkt.max() <= 1e-8 * scale

        # re-running the pass from the new primal point with the model
        # re-anchored there changes nothing
        cqps2 = [_cqp(c.b_bar, c.g_bar + c.b_bar @ (xn - c.x_k), xn)
                 for c, xn in zip(cqps, chi_next)]
        sol2 = consensus_pass(cqps2, regions, n_z)
        for xn, x2, reg in zip(chi_next, (sol2.z_bar[r.z_cols] for r in regions), regions):
            np.testing.assert_allclose(x2, xn, atol=1e-8 * scale)


def test_matches_dense_kkt_oracle():
    rng = np.random.default_rng(44)
    for _ in range(25):
        cqps, regions, n_z = random_consensus_qp(rng)
        sol = consensus_pass(cqps, regions, n_z)
        xs, z, lams = dense_kkt_solve([c.b_bar for c in cqps],
                                      [c.g_bar for c in cqps],
                                      [c.x_k for c in cqps],
                                      [r.z_cols for r in regions], n_z)
        scale = 1.0 + float(np.max(np.abs(z))) if len(z) else 1.0
        np.testing.assert_allclose(sol.z_bar, z, atol=1e-8 * scale)
        for reg, lam, lam_ref in zip(regions, sol.lam, lams):
            np.testing.assert_allclose(lam, lam_ref, atol=1e-8 * scale)
            np.testing.assert_allclose(sol.z_bar[reg.z_cols],
                                       xs[regions.index(reg)], atol=1e-8 * scale)


def test_projector_idempotent_and_annihilates_consensus():
    rng = np.random.default_rng(77)
    for _ in range(25):
        cqps, regions, n_z = random_consensus_qp(rng)
        m = averaging_projector(cqps, regions, n_z)
        assert np.max(np.abs(m @ m - m)) <= 1e-10
        # M annihilates range(E): consensus-consistent stacks map to zero
        w = rng.standard_normal(n_z)
        stacked = np.concatenate([w[r.z_cols] for r in regions])
        assert np.max(np.abs(m @ stacked)) <= 1e-10 * (1 + np.max(np.abs(w)))


def test_lambda_invariant_under_consensus_shifts():
    # shifting every region's x^k by the same consensus vector w shifts
    # zbar by w and leaves the multipliers alone
    rng = np.random.default_rng(99)
    cqps, regions, n_z = random_consensus_qp(rng, n_regions=3)
    sol = consensus_pass(cqps, regions, n_z)

    w = rng.standard_normal(n_z)
    shifted = [_cqp(c.b_bar, c.g_bar, c.x_k + w[r.z_cols]) for c, r in zip(cqps, regions)]
    sol2 = consensus_pass(shifted, regions, n_z)
    np.testing.assert_allclose(sol2.z_bar, sol.z_bar + w, atol=1e-9)
    for a, b in zip(sol.lam, sol2.lam):
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_one_pass_exact_along_a_flat_direction():
    # Bbar with one eigenvalue at the regularization floor (a direction the
    # region's model is flat in) and a generic gbar: the pass must not solve
    # through Bbar, whose local move is then of size |gbar| / 1e-10
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = np.exp(rng.uniform(0.0, np.log(100.0), n))
        eig[0] = 1e-10
        flat = (q * eig) @ q.T
        cqps = [_cqp(0.5 * (flat + flat.T), rng.standard_normal(n), rng.standard_normal(n)),
                _cqp(random_spd(rng, n), rng.standard_normal(n), rng.standard_normal(n))]
        regions = [_stub(np.arange(n)), _stub(rng.permutation(n))]
        sol = consensus_pass(cqps, regions, n)
        kkt = verify_kkt(cqps, regions, sol, [sol.z_bar[r.z_cols] for r in regions])
        scale = 1.0 + max(float(np.max(np.abs(c.g_bar))) for c in cqps)
        worst = max(worst, kkt.stationarity / scale)
    assert worst <= TOL_KKT, worst


def test_dense_kkt_no_coupling_unconstrained():
    rng = np.random.default_rng(3)
    b = random_spd(rng, 3)
    g = rng.standard_normal(3)
    xk = rng.standard_normal(3)
    xs, z, lams = dense_kkt_solve([b], [g], [xk], [np.zeros(0, dtype=int)], 0)
    np.testing.assert_allclose(xs[0], xk - np.linalg.solve(b, g), atol=1e-12)
    assert len(z) == 0
    np.testing.assert_allclose(lams[0], 0.0)


def test_dense_kkt_identity_mean():
    # Bbar = I for two regions sharing one column: z is the plain mean
    xs, z, lams = dense_kkt_solve(
        [np.eye(1), np.eye(1)], [np.zeros(1), np.zeros(1)],
        [np.array([1.0]), np.array([5.0])],
        [np.array([0]), np.array([0])], 1)
    np.testing.assert_allclose(z, [3.0], atol=1e-12)
    np.testing.assert_allclose(xs[0], [3.0], atol=1e-12)
    np.testing.assert_allclose(lams[0], -lams[1], atol=1e-12)
