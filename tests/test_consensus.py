import numpy as np
import pytest
import scipy.linalg as sla
from types import SimpleNamespace

from hdpf import FactorizationError, dense_kkt_solve
from hdpf.condense import CondensedQP
from hdpf.consensus import (
    averaging_projector,
    dual_update,
    consensus_pass,
    local_unconstrained,
    region_contribution,
    verify_kkt,
    weighted_average,
)

from helpers import random_consensus_qp, random_spd


def _cqp(b, g, x_k):
    n = len(g)
    return CondensedQP(
        b_bar=b, g_bar=g, x_k=x_k,
        chol_bbar=sla.cho_factor(b, lower=True) if n else None,
        x_cols=np.arange(n), y_cols=np.zeros(0, dtype=np.int64),
        factor=None, w_y=np.zeros(0))


def _stub(cols):
    cols = np.asarray(cols, dtype=np.int64)
    return SimpleNamespace(z_cols=cols, n_cpl=len(cols))


def test_local_move_zero_gradient_stays_put():
    cqp = _cqp(np.eye(3), np.zeros(3), np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(local_unconstrained(cqp), cqp.x_k, atol=1e-15)


def test_local_move_unit_hessian():
    cqp = _cqp(np.eye(2), np.array([1.0, -1.0]), np.zeros(2))
    np.testing.assert_allclose(local_unconstrained(cqp), [-1.0, 1.0], atol=1e-15)


def test_local_move_solves_stationarity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        cqp = _cqp(random_spd(rng, n), rng.standard_normal(n), rng.standard_normal(n))
        x = local_unconstrained(cqp)
        np.testing.assert_allclose(cqp.b_bar @ (x - cqp.x_k) + cqp.g_bar,
                                   0.0, atol=1e-10)


def test_weighted_average_equal_weights_is_mean():
    c1 = _cqp(np.eye(2), np.zeros(2), np.zeros(2))
    c2 = _cqp(np.eye(2), np.zeros(2), np.zeros(2))
    regions = [_stub([0, 1]), _stub([0, 1])]
    x1 = np.array([1.0, 3.0])
    x2 = np.array([3.0, 5.0])
    contribs = [region_contribution(c1, regions[0], x1),
                region_contribution(c2, regions[1], x2)]
    z = weighted_average(contribs, 2)
    np.testing.assert_allclose(z, [2.0, 4.0], atol=1e-14)


def test_weighted_average_respects_weights():
    c1 = _cqp(3.0 * np.eye(1), np.zeros(1), np.zeros(1))
    c2 = _cqp(np.eye(1), np.zeros(1), np.zeros(1))
    regions = [_stub([0]), _stub([0])]
    contribs = [region_contribution(c1, regions[0], np.array([1.0])),
                region_contribution(c2, regions[1], np.array([5.0]))]
    z = weighted_average(contribs, 1)
    np.testing.assert_allclose(z, [(3.0 * 1.0 + 5.0) / 4.0], atol=1e-14)


def test_weighted_average_single_region_identity():
    cqp = _cqp(random_spd(np.random.default_rng(0), 3), np.zeros(3), np.zeros(3))
    region = _stub([0, 1, 2])
    x = np.array([0.3, -0.1, 2.0])
    z = weighted_average([region_contribution(cqp, region, x)], 3)
    np.testing.assert_allclose(z, x, atol=1e-12)


def test_weighted_average_detects_untouched_column():
    cqp = _cqp(np.eye(1), np.zeros(1), np.zeros(1))
    with pytest.raises(FactorizationError, match="consensus"):
        weighted_average([region_contribution(cqp, _stub([0]), np.zeros(1))], 2)


def test_weighted_average_ignores_column_order_within_a_region():
    # each payload entry is added once at its column, so permuting one
    # region's (cols, s_block, b_vec) jointly leaves the average unchanged
    rng = np.random.default_rng(58)
    for _ in range(25):
        cqps, regions, n_z = random_consensus_qp(rng)
        contribs = [region_contribution(c, r, local_unconstrained(c))
                    for c, r in zip(cqps, regions)]
        z = weighted_average(contribs, n_z)
        l = max(range(len(contribs)), key=lambda i: len(contribs[i][0]))
        cols, s_block, b_vec = contribs[l]
        perm = rng.permutation(len(cols))
        permuted = list(contribs)
        permuted[l] = (cols[perm], s_block[np.ix_(perm, perm)], b_vec[perm])
        assert np.array_equal(weighted_average(permuted, n_z), z)


def test_dual_update_single_region_vanishes():
    rng = np.random.default_rng(8)
    cqp = _cqp(random_spd(rng, 2), rng.standard_normal(2), rng.standard_normal(2))
    region = _stub([0, 1])
    x_bar = local_unconstrained(cqp)
    z = weighted_average([region_contribution(cqp, region, x_bar)], 2)
    lam = dual_update(cqp, region, x_bar, z)
    np.testing.assert_allclose(lam, 0.0, atol=1e-10)


def test_dual_update_antisymmetric_two_regions():
    c = [_cqp(np.eye(2), np.zeros(2), np.zeros(2)) for _ in range(2)]
    regions = [_stub([0, 1]), _stub([0, 1])]
    x1 = np.array([1.0, 0.0])
    x2 = np.array([0.0, 2.0])
    z = weighted_average([region_contribution(c[0], regions[0], x1),
                          region_contribution(c[1], regions[1], x2)], 2)
    l1 = dual_update(c[0], regions[0], x1, z)
    l2 = dual_update(c[1], regions[1], x2, z)
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
        contribs = [region_contribution(c, r, x)
                    for c, r, x in zip(cqps, regions, x_arbitrary)]
        z = weighted_average(contribs, n_z)
        acc = np.zeros(n_z)
        for c, r, x in zip(cqps, regions, x_arbitrary):
            np.add.at(acc, r.z_cols, dual_update(c, r, x, z))
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
    rng = np.random.default_rng(99)
    cqps, regions, n_z = random_consensus_qp(rng, n_regions=3)
    x_bars = [local_unconstrained(c) for c in cqps]
    contribs = [region_contribution(c, r, x) for c, r, x in zip(cqps, regions, x_bars)]
    z = weighted_average(contribs, n_z)
    lams = [dual_update(c, r, x, z) for c, r, x in zip(cqps, regions, x_bars)]

    w = rng.standard_normal(n_z)
    x_shift = [x + w[r.z_cols] for x, r in zip(x_bars, regions)]
    contribs2 = [region_contribution(c, r, x) for c, r, x in zip(cqps, regions, x_shift)]
    z2 = weighted_average(contribs2, n_z)
    lams2 = [dual_update(c, r, x, z2) for c, r, x in zip(cqps, regions, x_shift)]
    np.testing.assert_allclose(z2, z + w, atol=1e-9)
    for a, b in zip(lams, lams2):
        np.testing.assert_allclose(a, b, atol=1e-9)


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
