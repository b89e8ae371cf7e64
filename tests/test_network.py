import numpy as np
import pytest

from hdpf import (
    BusType,
    ModelError,
    RawBranch,
    RawBus,
    RawCase,
    RawGen,
    StateVector,
    build_network,
    flat_start,
    parse_case,
)
from hdpf.residual import residual

from helpers import dense_admittance_pu

SINGLE_LINE = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 1 0 0 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.0 100 1;
];
mpc.branch = [
  1 2 0 0.1 0 0 0 0 {tap} 0 1;
];
"""


def test_single_branch_susceptance():
    net = build_network(parse_case(SINGLE_LINE.format(tap=0)))
    b = net.B.toarray()
    g = net.G.toarray()
    np.testing.assert_allclose(b, [[-10.0, 10.0], [10.0, -10.0]], atol=1e-14)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_single_branch_tap_scaling():
    # tap 2 scales the from-side series diagonal by 1/4, off-diagonals by 1/2
    net = build_network(parse_case(SINGLE_LINE.format(tap=2)))
    b = net.B.toarray()
    np.testing.assert_allclose(b, [[-2.5, 5.0], [5.0, -10.0]], atol=1e-14)


def test_ieee14_matches_dense_loop_oracle(cases):
    net = build_network(cases["case14"])
    y = net.ybus.toarray()
    y_ref = dense_admittance_pu(cases["case14"])
    assert np.max(np.abs(y - y_ref)) <= 1e-12


def test_admittance_pattern_symmetric_all_cases(cases):
    for case in cases.values():
        net = build_network(case)
        pattern = (net.ybus != 0)
        assert (pattern != pattern.T).nnz == 0


def test_row_sums_vanish_without_shunts_or_taps(cases):
    # Kirchhoff consistency: without shunts and with unit taps each row of Y
    # sums to the charging contribution only; case9 has zero shunts but line
    # charging, so strip the charging too.
    case = cases["case9"]
    stripped = type(case)(
        case.base_mva,
        case.buses,
        case.generators,
        tuple(type(b)(b.from_bus, b.to_bus, b.r, b.x, 0.0, 1.0, 0.0, True)
              for b in case.branches),
        name="case9-nocharge",
    )
    net = build_network(stripped)
    sums = np.asarray(net.ybus.sum(axis=1)).ravel()
    assert np.max(np.abs(sums)) <= 1e-12


def test_zero_impedance_branch_rejected():
    text = SINGLE_LINE.format(tap=0).replace("1 2 0 0.1", "1 2 0 0")
    with pytest.raises(ModelError, match="zero-impedance"):
        build_network(parse_case(text))


def test_isolated_bus_rejected():
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
];
"""
    with pytest.raises(ModelError, match="isolated"):
        build_network(parse_case(text))


def test_out_of_service_branch_skipped():
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
  1 2 99 99 0 0 0 0 0 0 0;
];
"""
    net = build_network(parse_case(text))
    np.testing.assert_allclose(net.B.toarray(), [[-10.0, 10.0], [10.0, -10.0]], atol=1e-14)


# --- slack rule ----------------------------------------------------------------


def _two_bus_case(type1, type2, extra_buses=(), extra_branches=()):
    buses = (RawBus(1, type1), RawBus(2, type2)) + tuple(extra_buses)
    branches = (RawBranch(1, 2, 0.0, 0.1),) + tuple(extra_branches)
    return RawCase(100.0, buses, (RawGen(1),), branches)


def test_plain_case_without_slack_rejected():
    text = SINGLE_LINE.format(tap=0).replace("1 3 0 0", "1 2 0 0")
    with pytest.raises(ModelError, match="expected exactly one slack bus, found 0"):
        build_network(parse_case(text))


def test_plain_case_with_two_slacks_rejected():
    # parse_case refuses a second slack, so the case is built in code
    with pytest.raises(ModelError, match="expected exactly one slack bus, found 2"):
        build_network(_two_bus_case(BusType.SLACK, BusType.SLACK))


def test_region_case_with_copy_bus_and_no_slack_builds():
    case = _two_bus_case(BusType.PV, BusType.PQ, [RawBus(3, BusType.COPY, v_mag=1.02)],
                         [RawBranch(2, 3, 0.01, 0.1)])
    net = build_network(case)
    assert not np.any(net.bus_type == BusType.SLACK)
    np.testing.assert_array_equal(net.is_copy, [False, False, True])
    assert net.v_spec[2] == 1.02
    assert net.p_spec[2] == 0.0 and net.q_spec[2] == 0.0


def test_region_case_with_two_slacks_rejected():
    case = _two_bus_case(BusType.SLACK, BusType.SLACK, [RawBus(3, BusType.COPY)],
                         [RawBranch(2, 3, 0.01, 0.1)])
    with pytest.raises(ModelError, match="at most one slack bus, found 2"):
        build_network(case)


def test_element_at_unknown_bus_rejected():
    # parse_case refuses dangling references, so the cases are built in code
    with pytest.raises(ModelError, match="generator references unknown bus 7"):
        build_network(RawCase(100.0, (RawBus(1, BusType.SLACK), RawBus(2, BusType.PQ)),
                              (RawGen(7),), (RawBranch(1, 2, 0.0, 0.1),)))
    with pytest.raises(ModelError, match="branch 2-9 references unknown bus 9"):
        build_network(_two_bus_case(BusType.SLACK, BusType.PQ,
                                    extra_branches=[RawBranch(2, 9, 0.01, 0.1)]))


# --- flat start --------------------------------------------------------------


def test_flat_start_unit_profile():
    net = build_network(parse_case(SINGLE_LINE.format(tap=0)))
    s = flat_start(net)
    np.testing.assert_array_equal(s.theta, [0.0, 0.0])
    np.testing.assert_array_equal(s.vm, [1.0, 1.0])


def test_flat_start_fixed_entries_win(cases):
    net = build_network(cases["case14"])
    s = flat_start(net)
    # PV setpoints come from the generator table, not 1.0
    bus2 = int(np.flatnonzero(net.bus_ids == 2)[0])
    assert s.vm[bus2] == 1.045
    bus1 = int(np.flatnonzero(net.bus_ids == 1)[0])
    assert s.vm[bus1] == 1.06
    # free magnitudes are exactly 1.0
    assert np.all(s.vm[net.free[1]] == 1.0)
    assert np.all(s.theta[net.free[0]] == 0.0)
    # free injections start at the specified net injection
    assert s.p[bus1] == net.p_spec[bus1]


def test_flat_start_all_fixed_matches_spec():
    # two generators, no free magnitude/angle on the slack; a PV-only pair
    text = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.03 2.0 0 1 0 0;
  2 2 10 0 0 0 1 0.97 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.03 100 1;
  2 20 0 0 0 0.97 100 1;
];
mpc.branch = [
  1 2 0.01 0.1 0 0 0 0 0 0 1;
];
"""
    net = build_network(parse_case(text))
    s = flat_start(net)
    assert s.vm[0] == 1.03 and s.vm[1] == 0.97
    np.testing.assert_allclose(s.theta[0], np.radians(2.0))
    assert s.p[1] == net.p_spec[1]


def test_lossless_zero_demand_flat_start_zero_residual():
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
  1 3 0 0.25 0 0 0 0 0 0 1;
];
"""
    net = build_network(parse_case(text))
    r = residual(net, flat_start(net))
    np.testing.assert_allclose(r, 0.0, atol=1e-15)


# --- state layout ------------------------------------------------------------


def _layout_states(cases, problems):
    """Random states on case14 and on each twin14 region (which has copy
    buses), every entry distinct."""
    rng = np.random.default_rng(11)
    nets = [build_network(cases["case14"])] + [r.net for r in problems["twin14"].regions]
    assert any(net.is_copy.any() for net in nets)
    return [StateVector(net, *rng.uniform(0.5, 1.5, (4, net.n_bus))) for net in nets]


def test_free_lists_theta_then_v_then_p_then_q_by_bus_position(cases, problems):
    for s in _layout_states(cases, problems):
        t = s.net.bus_type
        slack, pv = t == BusType.SLACK, t == BusType.PV
        pq_or_copy = (t == BusType.PQ) | (t == BusType.COPY)
        expected = np.concatenate([s.theta[~slack], s.vm[pq_or_copy],
                                   s.p[slack], s.q[slack | pv]])
        assert np.array_equal(s.free(), expected)
        assert s.net.n_free == len(expected)


def test_with_free_leaves_fixed_entries_bit_identical(cases, problems):
    rng = np.random.default_rng(12)
    for s in _layout_states(cases, problems):
        net = s.net
        before = s.x.copy()
        vec = rng.uniform(-1.0, 1.0, net.n_free)
        out = s.with_free(vec)
        assert np.array_equal(out.free(), vec)
        assert out.x[~net.free].tobytes() == s.x[~net.free].tobytes()
        assert s.x.tobytes() == before.tobytes()


def test_with_free_rejects_wrong_shape(cases, problems):
    for s in _layout_states(cases, problems):
        n = s.net.n_free
        for bad in (np.zeros(n + 1), np.zeros(n - 1), np.zeros((n, 1))):
            with pytest.raises(ValueError, match="free vector must have shape"):
                s.with_free(bad)


def test_in_place_edit_of_a_copy_changes_only_the_copy(cases, problems):
    for s in _layout_states(cases, problems):
        free_v = s.net.free[1]
        assert free_v.any()
        before = s.free()
        moved = s.copy()
        moved.vm[free_v] += 1e-4
        assert np.array_equal(moved.free()[s.net.col[1, free_v]], s.vm[free_v] + 1e-4)
        assert not np.array_equal(moved.free(), before)
        assert np.array_equal(s.free(), before)
