import glob
import math
import os
from dataclasses import replace

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
    parse_case_file,
)
from hdpf.residual import residual

from conftest import bench_source, fixture_path
from helpers import (
    dense_admittance_pu,
    gram_maps_alone,
    q_slots_alone,
    scalar_ybus,
    union_pattern_alone,
)

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
    b = net.ybus.imag.toarray()
    g = net.ybus.real.toarray()
    np.testing.assert_allclose(b, [[-10.0, 10.0], [10.0, -10.0]], atol=1e-14)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_single_branch_tap_scaling():
    # tap 2 scales the from-side series diagonal by 1/4, off-diagonals by 1/2
    net = build_network(parse_case(SINGLE_LINE.format(tap=2)))
    b = net.ybus.imag.toarray()
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
    np.testing.assert_allclose(net.ybus.imag.toarray(), [[-10.0, 10.0], [10.0, -10.0]], atol=1e-14)


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


@pytest.mark.parametrize("vg", [0.0, -1.0, math.nan])
def test_non_positive_voltage_setpoint_rejected_with_bus_ids(cases, vg):
    case = cases["case9"]
    gens = tuple(replace(g, v_setpoint=vg) if g.bus_id == 2 else g for g in case.generators)
    with pytest.raises(ModelError, match=r"voltage setpoint at PV or slack bus\(es\) \[2\]"):
        build_network(replace(case, generators=gens))


def test_pq_bus_magnitude_is_not_a_setpoint(cases):
    # a PQ bus's magnitude is free, so its case value is only a start hint
    case = cases["case9"]
    buses = tuple(replace(b, v_mag=0.0) if b.id == 5 else b for b in case.buses)
    assert build_network(replace(case, buses=buses)).n_bus == 9


def test_every_shipped_fixture_builds(problems):
    for path in glob.glob(fixture_path("*.m")):
        case = parse_case_file(path)
        if any(b.type == BusType.SLACK for b in case.buses):  # not a region file
            build_network(case)
    for p in problems.values():  # their regions were built by partition
        assert p.merged_net.n_bus > 0


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


# --- admittance bytes and per-problem index maps --------------------------------


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_ybus(y, oracle) -> bool:
    return all(_same_bytes(getattr(y, f), getattr(oracle, f)) for f in ("data", "indices", "indptr"))


def _bench_problems():
    """(name, manifest, cases) of the benchmark's generated grid-8x8 and
    pair-808 at seed 1, built by ``bench/workloads.py``."""
    return [(name, *bench_source(name)) for name in ("grid-8x8", "pair-808")]


def _all_problems():
    from hdpf import load_manifest

    return ([(os.path.basename(p), *load_manifest(p))
             for p in sorted(glob.glob(fixture_path("*.manifest")))] + _bench_problems())


def _region_cases(monkeypatch, manifest, raws):
    """The problem partition builds, and each region's case, as build_network got it."""
    import hdpf.network
    from hdpf import partition

    seen, real = [], hdpf.network.build_network
    monkeypatch.setattr(hdpf.network, "build_network", lambda case: seen.append(case) or real(case))
    p = partition(manifest, raws)
    monkeypatch.setattr(hdpf.network, "build_network", real)
    return p, seen


def test_ybus_byte_identical_to_scalar_complex_oracle(monkeypatch):
    # every shipped case file, every manifest's merged case and regions,
    # and the benchmark's generated problems, signed zeros included
    for path in glob.glob(fixture_path("*.m")):
        case = parse_case_file(path)
        if any(b.type == BusType.SLACK for b in case.buses):
            assert _same_ybus(build_network(case).ybus, scalar_ybus(case)), path
    for name, manifest, raws in _all_problems():
        p, region_cases = _region_cases(monkeypatch, manifest, raws)
        assert _same_ybus(p.merged_net.ybus, scalar_ybus(p.merged_case)), name
        assert len(region_cases) == len(p.regions), name
        for reg, case in zip(p.regions, region_cases):
            assert _same_ybus(reg.net.ybus, scalar_ybus(case)), (name, reg.index)


def test_ybus_byte_identical_with_shifters_taps_and_charging():
    # one branch for each combination of signed and zero impedances, line
    # charging of either sign or none, taps of 0 (read as 1), off-nominal
    # or negative, and phase shifts of either sign, zero and -0.0 among
    # them, each alone between two buses whose -0.0 shunts keep a signed
    # zero in the sums; then all of them in one chain, with out-of-service
    # branches and bus shunts
    import itertools

    impedances = [(0.0, 0.1), (-0.0, 0.1), (0.0, -0.1), (0.05, 0.0), (0.05, -0.0),
                  (-0.05, 0.0), (-0.05, -0.0), (-0.05, 0.1), (0.05, 0.1)]
    combos = list(itertools.product(impedances, (0.0, -0.0, 0.02, -0.02), (0.0, 1.0, 0.95, -1.1),
                                    (0.0, -0.0, 30.0, -30.0, 180.0, 90.0)))
    signed = set()
    for (r, x), b, tap, shift in combos:
        case = RawCase(100.0, (RawBus(1, BusType.SLACK, shunt_g=-0.0, shunt_b=-0.0),
                               RawBus(2, BusType.PQ, shunt_g=-0.0, shunt_b=-0.0)),
                       (RawGen(1),), (RawBranch(1, 2, r, x, b, tap, shift),))
        y = build_network(case).ybus
        assert _same_ybus(y, scalar_ybus(case)), (r, x, b, tap, shift)
        signed.update(np.signbit(v[v == 0.0]).any() for v in (y.data.real, y.data.imag))
    assert signed == {True, False}
    n = len(combos) + 1
    buses = (RawBus(1, BusType.SLACK),) + tuple(
        RawBus(i, BusType.PQ, shunt_g=0.5 * (i % 3), shunt_b=-1.5 * (i % 2)) for i in range(2, n + 1))
    branches = tuple(RawBranch(i + 1, i + 2, r, x, b, tap, shift)
                     for i, ((r, x), b, tap, shift) in enumerate(combos))
    branches += (RawBranch(1, 3, 0.3, 0.1, in_service=False), RawBranch(2, 9, 0.0, 0.0, in_service=False))
    case = RawCase(100.0, buses, (RawGen(1),), branches)
    assert _same_ybus(build_network(case).ybus, scalar_ybus(case))


@pytest.mark.parametrize("r, x", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_ybus_of_a_nan_impedance_matches_the_scalar_oracle(r, x):
    # Python's complex division gives NaN for a NaN divisor, even one with
    # a zero part, and raises nothing
    case = RawCase(100.0, (RawBus(1, BusType.SLACK), RawBus(2, BusType.PQ)), (RawGen(1),),
                   (RawBranch(1, 2, r, x),))
    y, oracle = build_network(case).ybus, scalar_ybus(case)
    assert np.array_equal(y.indices, oracle.indices) and np.array_equal(y.indptr, oracle.indptr)
    assert np.array_equal(y.data, oracle.data, equal_nan=True) and np.isnan(y.data).any()


def test_per_problem_maps_equal_each_network_alone(monkeypatch):
    # the union's Jacobian pattern equals the regions' own ones side by
    # side; each region's pairs, B pattern and q_slots, built for every
    # region at once, equal those of the region alone; and each split's
    # maps, on the dense and on the sparse path, equal a split on the B
    # pattern built alone; B's keys are ranked by a mark in some regions
    # and by a sort in others
    import hdpf.condense
    from hdpf import partition
    from hdpf.condense import BlockSplit
    from hdpf.network import GramPattern, NetworkUnion

    ranks = set()
    for name, manifest, raws in _all_problems():
        p = partition(manifest, raws)
        union = p.analyze(diagnose=True).union
        assert len(union.nets) == len(p.regions)
        # a second partition's regions, whose maps are built network by network
        alone = partition(manifest, raws)
        pat = union.jac_pattern
        fields = ("slot", "rows", "indices", "indptr", "cols", "i", "k", "g", "b")
        for field, want in zip(fields, union_pattern_alone([r.net for r in alone.regions])):
            assert _same_bytes(getattr(pat, field), want), (name, field)
        for reg, other, (union_pairs, union_gram), q in zip(p.regions, alone.regions,
                                                            union.grams, union.q_slots):
            net, own = reg.net, other.net
            # a union of several never builds a region's own pattern
            assert ("jac_pattern" in net.__dict__) == (len(p.regions) == 1), name
            pairs, gram = gram_maps_alone(own.jac_pattern, own.n_free)
            assert all(_same_bytes(x, y) for x, y in zip(union_pairs, pairs)), name
            for field, want in zip(("slot", "diag", "indices", "indptr", "cols"), gram):
                assert _same_bytes(getattr(union_gram, field), want), (name, field)
            assert _same_bytes(q, q_slots_alone(own.jac_pattern, gram[4], gram[2], own.n_free))
            ranks.add(own.n_free ** 2 <= 8 * (len(pairs[0]) + own.n_free))
            for limit in (0, 10**9):
                monkeypatch.setattr(hdpf.condense, "SPARSE_MIN_FREE", limit)
                split = BlockSplit(union_gram, net.n_free, reg.coupling_free_cols)
                oracle = BlockSplit(GramPattern(*gram), own.n_free, other.coupling_free_cols)
                assert split.dense == oracle.dense == (limit > 0)
                for field in ("x_cols", "y_cols", "local", "src", "flat"):
                    assert _same_bytes(getattr(split, field), getattr(oracle, field)), name
                if not split.dense:
                    for field in ("indices", "indptr", "_at"):
                        assert _same_bytes(getattr(split.byy, field), getattr(oracle.byy, field))
        # a union of one takes its network's own maps
        one = NetworkUnion((alone.regions[0].net,))
        assert one.jac_pattern is alone.regions[0].net.jac_pattern
    assert ranks == {True, False}


def test_cold_solve_builds_the_maps_once_for_the_union(monkeypatch, capsys):
    # partition builds none of a problem's analysis; a first solve builds
    # the Jacobian pattern, the Gram maps, S and each region's split (with
    # its Byy system on the sparse path) once, for the regions' union, never
    # region by region, and no q_slots or K; a first diagnosed solve builds
    # the q_slots and K once; a repeat solve of either kind builds nothing;
    # `hdpf check` and a later solve of one problem share one analysis; and
    # a SPARSE_MIN_FREE set before the first solve fixes each split's path
    import importlib

    import hdpf.cli
    import hdpf.condense
    import hdpf.network
    from hdpf import SolverConfig, load_manifest, partition, solve
    from hdpf.cli import main

    counts: dict[str, int] = {}

    def spy(owner, name, key=lambda *args: None):
        real = getattr(owner, name)

        def wrapper(*args):
            what = key(*args) or name
            counts[what] = counts.get(what, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_jac_pattern", "_gram_maps", "_q_slots"):
        spy(hdpf.network, name)
    spy(importlib.import_module("hdpf.partition"), "consensus_system")
    spy(hdpf.condense.BlockSplit, "__init__", lambda *args: "BlockSplit")
    # every fixed system by what it solves: S, a sparse-path Byy, K
    spy(hdpf.condense.FixedSystem, "__init__", lambda *args: args[-1])
    diagnosed = {"_q_slots": 1, "exact-Hessian consensus matrix": 1}

    def fresh(path):
        counts.clear()
        p = partition(*load_manifest(path))
        assert counts == {}, (path, counts)
        return p

    for manifest, n_sparse in (("case53.manifest", 0), ("case404.manifest", 2)):
        path = fixture_path(manifest)
        p = fresh(path)
        plain = {"_jac_pattern": 1, "_gram_maps": 1, "consensus_system": 1,
                 "consensus system": 1, "BlockSplit": len(p.regions)}
        if n_sparse:
            plain[hdpf.condense._LOCAL_BLOCK] = n_sparse
        for cfg, built in ((SolverConfig(), plain), (SolverConfig(), {}),
                           (SolverConfig(diagnose=True), diagnosed),
                           (SolverConfig(diagnose=True), {}), (SolverConfig(), {})):
            counts.clear()
            _, _, trace = solve(p, cfg)
            assert trace.converged and counts == built, (manifest, counts)
        assert all("jac_pattern" not in r.net.__dict__ for r in p.regions), manifest
        p = fresh(path)
        _, _, trace = solve(p, SolverConfig(diagnose=True))
        assert trace.converged and counts == {**plain, **diagnosed}, (manifest, counts)
        # the check's step and a later solve of the same problem
        p = fresh(path)
        monkeypatch.setattr(hdpf.cli, "partition", lambda *args: p)
        assert main(["check", path]) == 0 and "check: ok" in capsys.readouterr().out
        assert counts == plain, (manifest, counts)
        counts.clear()
        _, _, trace = solve(p)
        assert trace.converged and counts == {}, (manifest, counts)
    for limit in (0, 10**9):
        monkeypatch.setattr(hdpf.condense, "SPARSE_MIN_FREE", limit)
        p = fresh(fixture_path("case53.manifest"))
        solve(p)
        assert all(s.dense == (limit > 0) for s in p.analyze().splits), limit
