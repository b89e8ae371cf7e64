import dataclasses
from collections import Counter

import numpy as np
import pytest

from hdpf import (
    BusType,
    Interconnection,
    MergeManifest,
    PartitionError,
    consensus_dims,
    load_manifest,
    parse_case,
    partition,
)

from conftest import fixture_path

REGION_TMPL = """
mpc.baseMVA = 100;
mpc.bus = [
  {sid} {stype} 0 0 0 0 1 1.0 0 0 1 0 0;
  {lid} 1 40 10 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  {sid} 50 0 0 0 1.0 100 1;
];
mpc.branch = [
  {sid} {lid} 0.01 0.1 0 0 0 0 0 0 1;
];
"""


def _selector(reg):
    """A_l as an explicit 0/1 matrix (n_cpl x n_free), from its index array."""
    return np.eye(reg.net.n_free)[reg.coupling_free_cols]


def _stacked_incidence(p):
    """The stacked E as an explicit 0/1 matrix, from the regions' z_cols."""
    return np.eye(p.n_z)[np.concatenate([r.z_cols for r in p.regions])]


def _region(sid, lid, slack=False):
    return parse_case(REGION_TMPL.format(sid=sid, lid=lid, stype=3 if slack else 2))


def test_fig1_coupling_layout(problems):
    p = problems["fig1"]
    assert p.hypergraph.n_z == 4
    assert len(p.hypergraph.edges) == 2
    assert all(len(e.instances) == 2 for e in p.hypergraph.edges)

    r1 = p.regions[0]
    net = r1.net
    # region 1 couples (theta_3, theta_copy4, v_3, v_copy4) in that order
    pos3 = int(np.flatnonzero(r1.net.bus_ids == 3)[0])
    pos4 = int(np.flatnonzero(r1.net.is_copy)[0])
    expected = [net.col[0, pos3], net.col[0, pos4],
                net.col[1, pos3], net.col[1, pos4]]
    assert r1.coupling_free_cols.tolist() == expected
    # mirrored for region 2
    assert p.regions[1].n_cpl == 4
    n_state, n_cpl, n_z = consensus_dims(p)
    assert (n_cpl, n_z) == (8, 4)
    assert n_state == 28  # 2 regions x (3 cores x 4 + 1 copy x 2)


def test_single_region_degenerates(problems):
    p = problems["single14"]
    assert p.hypergraph.n_z == 0
    assert consensus_dims(p) == (56, 0, 0)
    assert p.regions[0].n_cpl == 0
    assert not p.regions[0].net.is_copy.any()


def test_three_regions_sharing_one_bus():
    # bus 20 of region 0 is tied into regions 1 and 2: one hyperedge with
    # three instances, which a plain graph cannot express
    r0 = _region(10, 20, slack=True)
    r1 = _region(30, 40)
    r2 = _region(50, 60)
    for ties in (
        # bus 20 is the from end of both ties
        ((0, 20, 1, 40), (0, 20, 2, 60)),
        # bus 20 is the to end of one tie and the from end of the other
        ((1, 40, 0, 20), (0, 20, 2, 60)),
    ):
        manifest = MergeManifest(
            region_files=("r0.m", "r1.m", "r2.m"),
            interconnections=tuple(Interconnection(*t, 0.01, 0.1, 0.0, 1.0, 0.0)
                                   for t in ties),
            slack_region=0,
        )
        p = partition(manifest, [r0, r1, r2])
        cards = sorted(len(e.instances) for e in p.hypergraph.edges)
        assert cards == [2, 2, 3]
        big = max(p.hypergraph.edges, key=lambda e: len(e.instances))
        assert {reg for reg, _ in big.instances} == {0, 1, 2}
        # home instance first (bus 20 at position 1), then the copies by
        # region, each after its region's two own buses
        assert big.instances == ((0, 1), (1, 2), (2, 2))

        # each tie has an image on both sides, between the local instances
        # of its two ends
        merged_of = p.merged_of
        for t in manifest.interconnections:
            ends = [e for e in p.hypergraph.edges
                    if e.merged_bus in (merged_of[(t.from_region, t.from_bus)],
                                        merged_of[(t.to_region, t.to_bus)])]
            for reg in (t.from_region, t.to_region):
                i, j = (dict(e.instances)[reg] for e in ends)
                assert p.regions[reg].net.ybus[i, j] != 0

        # stacked incidence has full column rank and the right row count
        e = _stacked_incidence(p)
        assert e.shape == (sum(r.n_cpl for r in p.regions), p.n_z)
        assert np.linalg.matrix_rank(e) == p.n_z
        # each row selects exactly one consensus column
        assert np.all(e.sum(axis=1) == 1.0)
        # column multiplicity equals instance count per quantity
        mult = e.T @ e
        assert np.all(np.diag(mult) >= 2)


def test_selector_is_partial_permutation(problems):
    for name in ("fig1", "case53"):
        for reg in problems[name].regions:
            a = _selector(reg)
            assert np.all(a.sum(axis=1) == 1.0)
            proj = a.T @ a
            # A^T A is a 0/1 diagonal projector
            np.testing.assert_array_equal(proj, np.diag(np.diag(proj)))
            assert set(np.diag(proj)).issubset({0.0, 1.0})


def test_stacked_incidence_full_rank_all_fixtures(problems):
    for name, p in problems.items():
        if p.n_z == 0:
            continue
        e = _stacked_incidence(p)
        assert np.linalg.matrix_rank(e) == p.n_z, name
        # the rank `hdpf check` reads off the z columns the regions hold
        held = np.bincount(np.concatenate([r.z_cols for r in p.regions]), minlength=p.n_z)
        assert np.count_nonzero(held) == p.n_z, name


def test_partition_remerge_reproduces_bus_and_branch_sets(problems):
    p = problems["case53"]
    merged = p.merged_case

    # cores across regions = merged bus set, disjointly
    cores = []
    for reg in p.regions:
        cores.extend(reg.merged_ids[~reg.net.is_copy].tolist())
    assert sorted(cores) == sorted(b.id for b in merged.buses)
    assert len(set(cores)) == len(cores)

    # the merged branch multiset is exactly the regional files' branches,
    # renumbered, plus one branch per manifest link
    merged_branches = Counter(
        (br.from_bus, br.to_bus, br.r, br.x) for br in merged.branches)
    manifest = p.manifest
    from hdpf import parse_case_file
    import os
    raws = [parse_case_file(os.path.join(fixture_path(""), f))
            for f in manifest.region_files]
    rebuilt = Counter()
    for reg_idx, raw in enumerate(raws):
        for br in raw.branches:
            rebuilt[(p.merged_of[(reg_idx, br.from_bus)],
                     p.merged_of[(reg_idx, br.to_bus)],
                     br.r, br.x)] += 1
    for t in manifest.interconnections:
        rebuilt[(p.merged_of[(t.from_region, t.from_bus)],
                 p.merged_of[(t.to_region, t.to_bus)],
                 t.r, t.x)] += 1
    assert rebuilt == merged_branches


def test_copy_buses_have_no_injections_and_free_tv(problems):
    for reg in problems["case53"].regions:
        net = reg.net
        copies = np.flatnonzero(reg.net.is_copy)
        for c in copies:
            assert net.bus_type[c] == BusType.COPY
            assert net.free[0, c] and net.free[1, c]
            assert not net.free[2, c] and not net.free[3, c]
            assert net.p_spec[c] == 0.0 and net.q_spec[c] == 0.0


def test_foreign_slack_demoted_to_pv(problems):
    p = problems["case53"]
    # regions 1 and 2 had their own slack in the raw files
    for reg in p.regions[1:]:
        assert not np.any(reg.net.bus_type == BusType.SLACK)
        assert np.any(reg.net.bus_type == BusType.PV)
    # merged case keeps exactly one slack
    assert sum(1 for b in p.merged_case.buses if b.type == BusType.SLACK) == 1


def test_pv_boundary_bus_rejected():
    r0 = _region(1, 2, slack=True)
    r1 = _region(3, 4)
    manifest = MergeManifest(
        region_files=("r0.m", "r1.m"),
        interconnections=(Interconnection(0, 2, 1, 3, 0.01, 0.1, 0.0, 1.0, 0.0),),
        slack_region=0,
    )
    # bus 3 is region 1's PV bus
    with pytest.raises(PartitionError, match="PQ"):
        partition(manifest, [r0, r1])


def test_tie_within_one_region_rejected():
    r0 = _region(10, 20, slack=True)
    r1 = parse_case(REGION_TMPL.format(sid=30, lid=40, stype=2).replace(
        "];\nmpc.gen", "  41 1 20 5 0 0 1 1.0 0 0 1 0 0;\n];\nmpc.gen", 1).replace(
        "30 40 0.01 0.1 0 0 0 0 0 0 1;", "30 40 0.01 0.1 0 0 0 0 0 0 1;\n  40 41 0.01 0.1 0 0 0 0 0 0 1;"))
    manifest = MergeManifest(
        region_files=("r0.m", "r1.m"),
        interconnections=(
            Interconnection(0, 20, 1, 40, 0.01, 0.1, 0.0, 1.0, 0.0),
            Interconnection(1, 40, 1, 41, 0.01, 0.1, 0.0, 1.0, 0.0),
        ),
        slack_region=0,
    )
    with pytest.raises(PartitionError, match="itself"):
        partition(manifest, [r0, r1])


def test_conflicting_base_voltage_rejected():
    a = parse_case(REGION_TMPL.format(sid=1, lid=2, stype=3).replace(
        "2 1 40 10 0 0 1 1.0 0 0 1 0 0;", "2 1 40 10 0 0 1 1.0 0 110 1 0 0;"))
    b = parse_case(REGION_TMPL.format(sid=3, lid=4, stype=2).replace(
        "4 1 40 10 0 0 1 1.0 0 0 1 0 0;", "4 1 40 10 0 0 1 1.0 0 220 1 0 0;"))
    manifest = MergeManifest(
        region_files=("a.m", "b.m"),
        interconnections=(Interconnection(0, 2, 1, 4, 0.01, 0.1, 0.0, 1.0, 0.0),),
        slack_region=0,
    )
    with pytest.raises(PartitionError, match="base voltage"):
        partition(manifest, [a, b])
    # a transformer tie (tap != 1) makes it legal
    manifest_tap = MergeManifest(
        region_files=("a.m", "b.m"),
        interconnections=(Interconnection(0, 2, 1, 4, 0.01, 0.1, 0.0, 1.05, 0.0),),
        slack_region=0,
    )
    p = partition(manifest_tap, [a, b])
    assert p.hypergraph.n_z == 4


def test_slack_region_without_slack_rejected():
    r0 = _region(1, 2)  # no slack bus
    r1 = _region(3, 4)
    manifest = MergeManifest(("r0.m", "r1.m"),
                             (Interconnection(0, 2, 1, 4, 0.01, 0.1, 0.0, 1.0, 0.0),),
                             slack_region=0)
    with pytest.raises(PartitionError, match="slack"):
        partition(manifest, [r0, r1])


def test_mixed_base_mva_rejected():
    r0 = _region(1, 2, slack=True)
    raw = REGION_TMPL.format(sid=3, lid=4, stype=2).replace("= 100;", "= 50;")
    r1 = parse_case(raw)
    manifest = MergeManifest(("r0.m", "r1.m"),
                             (Interconnection(0, 2, 1, 4, 0.01, 0.1, 0.0, 1.0, 0.0),),
                             slack_region=0)
    with pytest.raises(PartitionError, match="base"):
        partition(manifest, [r0, r1])


def test_consensus_dims_table_shapes(problems):
    assert consensus_dims(problems["case53"]) == (232, 40, 20)
    assert consensus_dims(problems["case404"]) == (1628, 24, 12)
    assert consensus_dims(problems["case1100"]) == (4444, 88, 44)


def test_tie_images_present_on_both_sides(problems):
    # each region models its image of every incident tie line, terminating at
    # the local copy, so bus balance at both endpoints sees the tie flow
    p = problems["fig1"]
    y0 = p.regions[0].net.ybus.toarray()
    y1 = p.regions[1].net.ybus.toarray()
    # region 0: pos of bus 3 core and the copy
    pos3 = int(np.flatnonzero(p.regions[0].net.bus_ids == 3)[0])
    cpos = int(np.flatnonzero(p.regions[0].net.is_copy)[0])
    assert y0[pos3, cpos] != 0
    pos4 = int(np.flatnonzero(p.regions[1].net.bus_ids == 4)[0])
    cpos1 = int(np.flatnonzero(p.regions[1].net.is_copy)[0])
    assert y1[pos4, cpos1] != 0
    # same series admittance on both images
    np.testing.assert_allclose(y0[pos3, cpos], y1[cpos1, pos4], atol=1e-15)


def test_tie_tap_zero_reads_as_one_in_every_network():
    # a region's tie image goes through the same case rules as the merged
    # tie branch, where a tap of 0 means 1
    def built(tap):
        tie = Interconnection(0, 2, 1, 4, 0.01, 0.1, 0.02, tap, 0.0)
        return partition(MergeManifest(("r0.m", "r1.m"), (tie,), slack_region=0),
                         [_region(1, 2, slack=True), _region(3, 4)])

    def nets(p):
        return [r.net for r in p.regions] + [p.merged_net]

    for a, b in zip(nets(built(0.0)), nets(built(1.0))):
        np.testing.assert_array_equal(a.ybus.toarray(), b.ybus.toarray())


def test_region_without_tie_path_to_slack_rejected():
    r0 = _region(1, 2, slack=True)
    r1 = _region(3, 4)
    r2 = _region(5, 6)
    manifest = MergeManifest(
        ("r0.m", "r1.m", "r2.m"),
        (Interconnection(0, 2, 1, 4, 0.01, 0.1, 0.0, 1.0, 0.0),),
        slack_region=0,
    )
    with pytest.raises(PartitionError, match="no tie-line path"):
        partition(manifest, [r0, r1, r2])


@pytest.mark.parametrize("slack_region, to_region, message", [
    (-1, 1, "slack region -1"), (7, 1, "slack region 7"),
    (0, 9, "unknown region 9"), (0, -1, "unknown region -1"),
], ids=["slack=-1", "slack=7", "tie_to=9", "tie_to=-1"])
def test_region_index_out_of_range_rejected(slack_region, to_region, message):
    # a manifest built in code never meets the parser's range checks
    manifest, raws = load_manifest(fixture_path("case53.manifest"))
    first, *rest = manifest.interconnections
    manifest = dataclasses.replace(
        manifest, slack_region=slack_region,
        interconnections=(dataclasses.replace(first, to_region=to_region), *rest))
    with pytest.raises(PartitionError, match=message):
        partition(manifest, raws)
