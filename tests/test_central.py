import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdpf import SolverConfig, build_network, central_solve, flat_start, parse_case
from hdpf.central import _full_space_step, _sparse_linearize
from hdpf.condense import FactorizationError
from hdpf.residual import RegionLinearization, residual
from hdpf.trace import STATUS_MAX_ITER

from helpers import newton_solve_complex


def test_ieee14_converges_fast_and_matches_newton_oracle(cases):
    case = cases["case14"]
    net = build_network(case)
    state, trace = central_solve(net)
    assert trace.converged
    assert trace.n_iter <= 10
    assert np.linalg.norm(residual(net, state)) <= 1e-12

    vm_ref, va_ref = newton_solve_complex(case)
    np.testing.assert_allclose(state.vm, vm_ref, atol=1e-8)
    np.testing.assert_allclose(state.theta, va_ref, atol=1e-8)
    # sanity against the published (rounded) voltage column
    stored = np.array([b.v_mag for b in sorted(case.buses, key=lambda b: b.id)])
    assert np.max(np.abs(state.vm - stored)) <= 2e-3


def test_newton_oracle_agreement_all_base_cases(cases):
    for name in ("case9", "case30", "case57"):
        net = build_network(cases[name])
        state, trace = central_solve(net)
        assert trace.converged, name
        vm_ref, va_ref = newton_solve_complex(cases[name])
        np.testing.assert_allclose(state.vm, vm_ref, atol=1e-8)
        np.testing.assert_allclose(state.theta, va_ref, atol=1e-8)


def test_lossless_zero_demand_converges_in_zero_iterations():
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
    net = build_network(parse_case(text))
    state, trace = central_solve(net)
    assert trace.converged
    assert trace.n_iter == 0
    s0 = flat_start(net)
    np.testing.assert_array_equal(state.free(), s0.free())


def test_infeasible_case_reports_max_iter():
    # 10 p.u. of demand over a line that can deliver about 1 p.u.
    text = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 1 1000 300 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.0 100 1;
];
mpc.branch = [
  1 2 0.05 1.0 0 0 0 0 0 0 1;
];
"""
    net = build_network(parse_case(text))
    state, trace = central_solve(net, SolverConfig(tol_residual=1e-12, max_iter=12))
    assert not trace.converged
    if trace.status == STATUS_MAX_ITER:
        assert trace.final().r_norm2 > 0.1


def test_central_reuses_residual_path(merged_nets, central_refs):
    # the reported trace residual is exactly the pf residual at the iterates
    state, trace = central_refs["twin14"]
    r = residual(merged_nets["twin14"], state)
    assert np.linalg.norm(r) <= 1e-12


def test_singular_full_space_matrix_raises_factorization_error():
    lin = RegionLinearization(
        r=np.zeros(2), jac=None, g=np.ones(2),
        hess=sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])), eps=1e-10)
    with pytest.raises(FactorizationError, match="full-space Gauss-Newton matrix"):
        _full_space_step([lin], [np.zeros(2)])


def test_zero_column_network_steps_without_factoring(monkeypatch):
    def no_factor(*args, **kwargs):
        raise AssertionError("a 0-column matrix must not be factored")

    monkeypatch.setattr(spla, "splu", no_factor)
    lin = RegionLinearization(r=np.zeros(0), jac=None, g=np.zeros(0),
                              hess=sp.csc_matrix((0, 0)), eps=1e-10)
    out, lams, fields = _full_space_step([lin], np.zeros(0))
    assert out.shape == (0,)
    assert lams is None and fields == {"primal_residual": 0.0}


def test_reference_residual_at_most_2e_12_on_fixtures(merged_nets, central_refs):
    for name, net in merged_nets.items():
        state, _ = central_refs[name]
        assert np.linalg.norm(residual(net, state)) <= 2e-12, name


def test_reference_memory_below_quarter_of_one_dense_matrix(merged_nets):
    net = merged_nets["case1100"]
    dense_bytes = 8 * net.n_free * net.n_free
    tracemalloc.start()
    try:
        _, trace = central_solve(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged
    assert peak < dense_bytes / 4, (peak, dense_bytes)


def test_full_space_step_drops_b_once_factored(merged_nets):
    net = merged_nets["twin14"]
    lin = _sparse_linearize(net, flat_start(net), 1e-10)
    chi = flat_start(net).free()
    out, _, _ = _full_space_step([lin], chi)
    assert lin.hess is None and out.shape == chi.shape and np.all(np.isfinite(out))


def test_reference_memory_below_three_gram_matrices(merged_nets):
    # J is dropped before eps*I is added and each iterate's B once factored,
    # so a warm case1100 reference peaks below three J'J + eps*I in CSC form
    # (2.6 of them; 4.1 while J, J'J, J'J + eps*I and the last B lived at once)
    net = merged_nets["case1100"]
    hess = _sparse_linearize(net, flat_start(net), 1e-10).hess
    gram_bytes = hess.data.nbytes + hess.indices.nbytes + hess.indptr.nbytes
    central_solve(net)
    tracemalloc.start()
    try:
        _, trace = central_solve(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged
    assert peak < 3 * gram_bytes, (peak, gram_bytes)
