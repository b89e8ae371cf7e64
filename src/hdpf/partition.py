"""Multi-region decomposition with shared boundary buses.

The decomposition starts from its hyperedges.  Every bus at either end of a
tie line in the manifest is a boundary bus, keyed by its merged id; its
hyperedge holds the home instance plus one copy in each region it is tied
to.  A bus tied into several regions yields a hyperedge with more than two
instances, which is exactly what a plain graph cannot express.

Each region is a case of its own, built by :func:`hdpf.network.build_network`
like the merged case.  Its buses are its own buses in local-id order (a
slack bus outside the slack region demoted to PV), then one ``COPY`` bus per
boundary bus it is tied to, in merged-id order, numbered on from its last
own id and carrying the home bus's magnitude.  Its branches are its own,
then one image per tie, so each regional power-flow problem is
self-contained; one map from merged id to position per region places own
buses, copies and both ends of every tie image.

Consensus bookkeeping per region l:

* coupling vector ``x_l``: the (theta, v) entries of the region's hyperedge
  buses, all angles first then all magnitudes, buses by local position;
* ``coupling_free_cols``, the selector ``A_l`` as an index array:
  ``x_l = chi_l[coupling_free_cols]``;
* ``z_cols``, the incidence ``E_l`` as an index array:
  ``x_l = z[z_cols]`` against the global consensus vector ``z`` (all
  hyperedge angles by merged bus id, then magnitudes).  Each row of the
  stacked E is a unit row, so E has full column rank exactly when every
  column of z appears in some region's ``z_cols``.

The tie branch itself is materialized once in the merged case (oriented as
written in the manifest) and as one image per region, each terminating at
the local copy; bus balance rows are never double counted because copy
buses contribute no rows.

Every structure the solvers reuse from one iterate to the next depends on
the decomposition alone; :meth:`PartitionedProblem.analyze` builds it all
on a problem's first solve, not in :func:`partition`.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import network
from .caseio import BusType, MergeManifest, RawBranch, RawBus, RawCase, RawGen
from .condense import BlockSplit, FixedSystem
from .consensus import consensus_system
from .network import NetworkModel, NetworkUnion

__all__ = [
    "PartitionError",
    "Hyperedge",
    "Hypergraph",
    "RegionStructure",
    "ProblemAnalysis",
    "PartitionedProblem",
    "merge_cases",
    "partition",
    "consensus_dims",
]


class PartitionError(ValueError):
    """Raised when a manifest cannot be turned into a valid decomposition."""


@dataclass(frozen=True)
class Hyperedge:
    merged_bus: int
    instances: tuple[tuple[int, int], ...]  # (region, local bus position), home first


@dataclass
class Hypergraph:
    edges: list[Hyperedge]
    n_z: int = field(init=False)

    def __post_init__(self):
        self.n_z = 2 * len(self.edges)

    def cardinality_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(len(e.instances) for e in self.edges).items()))


@dataclass
class RegionStructure:
    """One region's network plus its consensus bookkeeping."""

    index: int
    net: NetworkModel
    merged_ids: np.ndarray         # merged bus id per position
    coupling_free_cols: np.ndarray  # x_l = chi_free[coupling_free_cols]
    z_cols: np.ndarray             # x_l[r] lives at z[z_cols[r]]

    @property
    def n_cpl(self) -> int:
        return len(self.coupling_free_cols)


@dataclass(eq=False)
class ProblemAnalysis:
    """What :meth:`PartitionedProblem.analyze` builds."""

    union: NetworkUnion       # the regions' networks, owner of their Gram maps and q_slots
    splits: list[BlockSplit]  # each region's, on its Gram pattern
    x_at: np.ndarray          # union column of every coupling entry, coupling_free_cols order
    y_at: np.ndarray          # union column of every local entry
    z_cols: np.ndarray        # z column of every coupling entry
    ends: list[int]           # each region's first coupling entry, then the total
    home: np.ndarray          # each merged bus's home core bus in the union
    consensus: FixedSystem    # the coordinator's S
    k_maps: list[np.ndarray] | None = None  # each region's free entries -> K's unknowns,
    k_system: FixedSystem | None = None     # and K; both None until diagnosed


@dataclass
class PartitionedProblem:
    regions: list[RegionStructure]
    hypergraph: Hypergraph
    merged_of: dict[tuple[int, int], int]  # (region, local bus id) -> merged bus id
    merged_case: RawCase
    manifest: MergeManifest
    _analysis: ProblemAnalysis | None = field(default=None, init=False, repr=False,
                                              compare=False)

    @functools.cached_property
    def merged_net(self) -> NetworkModel:
        """The merged case's network, built on first use."""
        return network.build_network(self.merged_case)

    def analyze(self, diagnose: bool = False) -> ProblemAnalysis:
        """The problem's analysis, built on the first call and kept: the
        regions' union with every region's Gram maps, each region's split,
        where the regions' entries lie over the union, and S's system; the
        first call with ``diagnose`` adds the union's ``q_slots`` and the
        system K of :func:`hdpf.driver._exact_z`."""
        a = self._analysis
        if a is None:
            regions = self.regions
            union = NetworkUnion(r.net for r in regions)
            x_at = np.concatenate([r.coupling_free_cols + f
                                   for r, f in zip(regions, union.bounds[:, 1])])
            core = ~np.concatenate([r.net.is_copy for r in regions])
            home = np.empty(int(core.sum()), dtype=np.int64)
            home[np.concatenate([r.merged_ids for r in regions])[core] - 1] = np.flatnonzero(core)
            a = self._analysis = ProblemAnalysis(
                union=union,
                splits=[BlockSplit(gram, r.net.n_free, r.coupling_free_cols)
                        for r, (_, gram) in zip(regions, union.grams)],
                x_at=x_at, y_at=np.setdiff1d(np.arange(union.n_free), x_at),
                z_cols=np.concatenate([r.z_cols for r in regions]),
                ends=[0, *itertools.accumulate(r.n_cpl for r in regions)], home=home,
                consensus=consensus_system([r.z_cols for r in regions], self.n_z))
        if diagnose and a.k_system is None:
            union = a.union
            union.q_slots  # the diagnosed evaluation's maps, built here with K's
            # K's unknowns: the regions' local entries, in region order, then z;
            # the regions' Gram patterns, side by side in the union's free
            # entries, are listed through the maps at once
            n_local = len(a.y_at)
            m = np.empty(union.n_free, dtype=np.int64)
            m[a.y_at] = np.arange(n_local)
            m[a.x_at] = n_local + a.z_cols  # the coupling entries are distinct within a region
            grams = [g for _, g in union.grams]
            shift = np.repeat(union.bounds[:-1, 1], [len(g.indices) for g in grams])
            a.k_maps = [m[free] for _, free, *_ in union.slices]
            a.k_system = FixedSystem(m[np.concatenate([g.indices for g in grams]) + shift],
                                     m[np.concatenate([g.cols for g in grams]) + shift],
                                     n_local + self.n_z, "exact-Hessian consensus matrix")
        return a

    @property
    def n_z(self) -> int:
        return self.hypergraph.n_z


def _check_manifest(manifest: MergeManifest, raws: list[RawCase]):
    n = len(raws)
    if n != len(manifest.region_files):
        raise PartitionError(f"{len(manifest.region_files)} region files declared, {n} cases given")
    # a manifest built in code skips the parser's range checks on region indices
    if not 0 <= manifest.slack_region < n:
        raise PartitionError(f"slack region {manifest.slack_region} is not one of 0..{n - 1}")
    base = raws[0].base_mva
    for i, c in enumerate(raws):
        if c.base_mva != base:
            raise PartitionError(
                f"region {i} has base {c.base_mva} MVA, expected {base} MVA everywhere"
            )
        if len(c.buses) == 0:
            raise PartitionError(f"region {i} has no core buses")
    slack_case = raws[manifest.slack_region]
    if not any(b.type == BusType.SLACK for b in slack_case.buses):
        raise PartitionError(
            f"slack region {manifest.slack_region} contains no slack bus"
        )
    buses_of = [{b.id: b for b in c.buses} for c in raws]
    ties = manifest.interconnections
    for t in ties:
        if t.from_region == t.to_region:
            raise PartitionError(
                f"tie {t.from_bus}-{t.to_bus} joins region {t.from_region} to itself"
            )
        for reg, bus in ((t.from_region, t.from_bus), (t.to_region, t.to_bus)):
            if not 0 <= reg < n:
                raise PartitionError(f"tie {t.from_bus}-{t.to_bus} names unknown region {reg}")
            hit = buses_of[reg].get(bus)
            if hit is None:
                raise PartitionError(f"link references bus {bus} absent from region {reg}")
            if hit.type != BusType.PQ:
                raise PartitionError(
                    f"boundary bus {bus} in region {reg} is {hit.type.name}; tie lines "
                    "must terminate on PQ buses so both coupled quantities stay free"
                )
        fb, tb = buses_of[t.from_region][t.from_bus], buses_of[t.to_region][t.to_bus]
        if (
            fb.base_kv is not None
            and tb.base_kv is not None
            and fb.base_kv != tb.base_kv
            and t.tap_ratio == 1.0
        ):
            raise PartitionError(
                f"boundary buses {t.from_bus} (region {t.from_region}, {fb.base_kv} kV) and "
                f"{t.to_bus} (region {t.to_region}, {tb.base_kv} kV) have conflicting base "
                "voltage and the tie line carries no transformer"
            )
    # every region needs a path of tie lines to the slack region, or its
    # angles have no reference and the coupled system turns singular
    links = sp.coo_matrix((np.ones(len(ties)), ([t.from_region for t in ties],
                                                [t.to_region for t in ties])),
                          shape=(n, n))
    _, label = connected_components(links, directed=False)
    stranded = np.flatnonzero(label != label[manifest.slack_region]).tolist()
    if stranded:
        raise PartitionError(f"region(s) {stranded} have no tie-line path to the slack region")


def _demote_foreign_slack(bus: RawBus, region: int, slack_region: int) -> RawBus:
    if bus.type == BusType.SLACK and region != slack_region:
        return RawBus(bus.id, BusType.PV, bus.p_demand, bus.q_demand, bus.shunt_g,
                      bus.shunt_b, bus.v_mag, bus.v_ang, bus.base_kv)
    return bus


def merge_cases(manifest: MergeManifest, raws: list[RawCase],
                ) -> tuple[RawCase, dict[tuple[int, int], int]]:
    """Combine regional cases into one case with globally renumbered buses,
    and return it with the map from (region, local bus id) to merged id.

    Region l's buses, sorted by local id, become merged ids
    offset_l + 1 ... offset_l + n_l.  Only the designated slack region keeps
    its slack bus; other regions' slack buses become PV buses.  Tie lines
    become ordinary branches oriented from-side as written.
    """
    _check_manifest(manifest, raws)

    merged_of: dict[tuple[int, int], int] = {}
    buses: list[RawBus] = []
    gens: list[RawGen] = []
    branches: list[RawBranch] = []
    for reg, case in enumerate(raws):
        for b in sorted(case.buses, key=lambda bb: bb.id):
            merged_of[(reg, b.id)] = len(buses) + 1
            nb = _demote_foreign_slack(b, reg, manifest.slack_region)
            buses.append(RawBus(merged_of[(reg, b.id)], nb.type, nb.p_demand, nb.q_demand,
                                nb.shunt_g, nb.shunt_b, nb.v_mag, nb.v_ang, nb.base_kv))
        for g in case.generators:
            gens.append(RawGen(merged_of[(reg, g.bus_id)], g.p_gen, g.q_gen,
                               g.v_setpoint, g.in_service))
        for br in case.branches:
            branches.append(RawBranch(merged_of[(reg, br.from_bus)], merged_of[(reg, br.to_bus)],
                                      br.r, br.x, br.total_line_charging_b, br.tap_ratio,
                                      br.phase_shift, br.in_service))
    for t in manifest.interconnections:
        branches.append(RawBranch(merged_of[(t.from_region, t.from_bus)],
                                  merged_of[(t.to_region, t.to_bus)],
                                  t.r, t.x, t.b, t.tap_ratio, t.phase_shift, True))

    merged = RawCase(raws[0].base_mva, tuple(buses), tuple(gens), tuple(branches),
                     name="merged")
    return merged, merged_of


def partition(manifest: MergeManifest, raws: list[RawCase]) -> PartitionedProblem:
    """Build the full multi-region decomposition from a manifest.

    Hyperedges are per physical boundary bus (not per tie line), ordered by
    merged bus id; z columns hold all hyperedge angles first, then all
    magnitudes, so runs are reproducible.
    """
    merged, merged_of = merge_cases(manifest, raws)
    ties = manifest.interconnections

    # hyperedges first: each boundary bus's home region and the regions
    # holding a copy of it
    home: dict[int, int] = {}
    tied: dict[int, set[int]] = {}
    for t in ties:
        for reg, bus, other in ((t.from_region, t.from_bus, t.to_region),
                                (t.to_region, t.to_bus, t.from_region)):
            merged_id = merged_of[(reg, bus)]
            home[merged_id] = reg
            tied.setdefault(merged_id, set()).add(other)
    boundary = sorted(tied)
    edge_of = {merged_id: e for e, merged_id in enumerate(boundary)}
    copies: list[list[int]] = [[] for _ in raws]
    for merged_id in boundary:
        for reg in tied[merged_id]:
            copies[reg].append(merged_id)

    regions: list[RegionStructure] = []
    pos_of: list[dict[int, int]] = []
    for reg, case in enumerate(raws):
        own = tuple(_demote_foreign_slack(b, reg, manifest.slack_region)
                    for b in sorted(case.buses, key=lambda b: b.id))
        merged_ids = [merged_of[(reg, b.id)] for b in own] + copies[reg]
        pos = {merged_id: i for i, merged_id in enumerate(merged_ids)}
        pos_of.append(pos)

        # own buses, then the copies, which carry their home bus's magnitude;
        # internal branches, then one image per tie, outgoing ties first, each
        # oriented as in the manifest with the local copy as foreign end
        copy_buses = tuple(RawBus(local_id, BusType.COPY, v_mag=merged.buses[merged_id - 1].v_mag)
                           for local_id, merged_id in enumerate(copies[reg], start=own[-1].id + 1))
        local_of = {merged_id: b.id for merged_id, b in zip(merged_ids, own + copy_buses)}
        images = tuple(
            RawBranch(local_of[merged_of[(tie.from_region, tie.from_bus)]],
                      local_of[merged_of[(tie.to_region, tie.to_bus)]],
                      tie.r, tie.x, tie.b, tie.tap_ratio, tie.phase_shift)
            for tie in ([t for t in ties if t.from_region == reg]
                        + [t for t in ties if t.to_region == reg]))
        net = network.build_network(RawCase(case.base_mva, own + copy_buses, case.generators,
                                            case.branches + images, case.name))

        # coupling rows: theta block then v block, by local position
        cpl = [i for i, merged_id in enumerate(merged_ids) if merged_id in edge_of]
        edges = np.array([edge_of[merged_ids[i]] for i in cpl], dtype=np.int64)
        a_cols = net.col[:2, cpl].ravel()
        if np.any(a_cols < 0):
            raise PartitionError(
                f"region {reg}: a coupled quantity is fixed; boundary buses "
                "must keep both theta and v free"
            )
        regions.append(RegionStructure(
            index=reg, net=net, merged_ids=np.array(merged_ids, dtype=np.int64),
            coupling_free_cols=a_cols, z_cols=np.concatenate([edges, len(boundary) + edges]),
        ))

    # instances: home first, then the copies by region
    graph = Hypergraph([
        Hyperedge(merged_bus=m, instances=tuple(
            (reg, pos_of[reg][m]) for reg in [home[m]] + sorted(tied[m])))
        for m in boundary
    ])
    return PartitionedProblem(
        regions=regions, hypergraph=graph, merged_of=merged_of,
        merged_case=merged, manifest=manifest,
    )


def consensus_dims(p: PartitionedProblem) -> tuple[int, int, int]:
    """(total state entries, total coupling entries, consensus columns)."""
    n_state = sum(r.net.n_state_entries for r in p.regions)
    n_cpl = sum(r.n_cpl for r in p.regions)
    return n_state, n_cpl, p.hypergraph.n_z
