"""Multi-region decomposition with shared boundary buses.

Every tie line named in the manifest copies its opposite endpoint into the
local region, so each regional power-flow problem is self-contained.  All
instances of one physical boundary bus (the core instance plus every copy)
form one hyperedge; a bus touched by ties into several regions yields a
hyperedge with more than two instances, which is exactly what a plain graph
cannot express.

Consensus bookkeeping per region l:

* coupling vector ``x_l``: the (theta, v) entries of the region's hyperedge
  buses, all angles first then all magnitudes, buses by local position;
* selector ``A_l`` with ``x_l = A_l @ chi_l`` picking those entries out of
  the free state;
* incidence ``E_l`` with ``x_l = E_l @ z`` against the global consensus
  vector ``z`` (all hyperedge angles by merged bus id, then magnitudes).

The tie branch itself is materialized once in the merged case (oriented as
written in the manifest) and as one image per region, each terminating at
the local copy; bus balance rows are never double counted because copy
buses contribute no rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .caseio import BusType, Interconnection, MergeManifest, RawBranch, RawBus, RawCase, RawGen
from .network import (
    BranchSpec,
    BusSpec,
    NetworkModel,
    _branch_specs_from_case,
    _bus_specs_from_case,
)

__all__ = [
    "PartitionError",
    "Hyperedge",
    "Hypergraph",
    "RegionStructure",
    "PartitionedProblem",
    "GlobalIndex",
    "merge_cases",
    "partition",
    "consensus_dims",
]


class PartitionError(ValueError):
    """Raised when a manifest cannot be turned into a valid decomposition."""


@dataclass(frozen=True)
class GlobalIndex:
    """Map from (region, local bus id) to merged bus id."""

    merged_of: dict[tuple[int, int], int]


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

    def z_index(self, edge: int, quantity: str) -> int:
        """Column of z for (hyperedge, quantity in {'theta', 'v'})."""
        if quantity == "theta":
            return edge
        if quantity == "v":
            return len(self.edges) + edge
        raise ValueError(f"unknown quantity {quantity!r}")

    def cardinality_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for e in self.edges:
            hist[len(e.instances)] = hist.get(len(e.instances), 0) + 1
        return dict(sorted(hist.items()))


@dataclass
class RegionStructure:
    """One region's network plus its consensus bookkeeping."""

    index: int
    net: NetworkModel
    local_ids: np.ndarray          # local bus id per position (copies included)
    merged_ids: np.ndarray         # merged bus id per position
    is_copy: np.ndarray            # bool per position
    coupling_free_cols: np.ndarray  # x_l = chi_free[coupling_free_cols]
    z_cols: np.ndarray             # x_l[r] lives at z[z_cols[r]]

    @property
    def n_cpl(self) -> int:
        return len(self.coupling_free_cols)

    @property
    def n_state_entries(self) -> int:
        return self.net.n_state_entries

    @property
    def selector(self) -> sp.csr_matrix:
        """A_l as an explicit 0/1 matrix (n_cpl x n_free)."""
        n = self.n_cpl
        return sp.csr_matrix(
            (np.ones(n), (np.arange(n), self.coupling_free_cols)),
            shape=(n, self.net.n_free),
        )

    def incidence(self, n_z: int) -> sp.csr_matrix:
        """E_l as an explicit 0/1 matrix (n_cpl x n_z)."""
        n = self.n_cpl
        return sp.csr_matrix(
            (np.ones(n), (np.arange(n), self.z_cols)), shape=(n, n_z)
        )


@dataclass
class PartitionedProblem:
    regions: list[RegionStructure]
    hypergraph: Hypergraph
    global_index: GlobalIndex
    merged_case: RawCase
    manifest: MergeManifest

    @property
    def n_z(self) -> int:
        return self.hypergraph.n_z

    def stacked_incidence(self) -> sp.csr_matrix:
        return sp.vstack([r.incidence(self.n_z) for r in self.regions]).tocsr()


def _check_manifest(manifest: MergeManifest, raws: list[RawCase]):
    if len(raws) != len(manifest.region_files):
        raise PartitionError(
            f"{len(manifest.region_files)} region files declared, {len(raws)} cases given"
        )
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
    if len(raws) > 1:
        # every region needs a path of tie lines to the slack region, or its
        # angles have no reference and the coupled system turns singular
        parent = list(range(len(raws)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for t in manifest.interconnections:
            parent[find(t.from_region)] = find(t.to_region)
        anchored = find(manifest.slack_region)
        stranded = [i for i in range(len(raws)) if find(i) != anchored]
        if stranded:
            raise PartitionError(
                f"region(s) {stranded} have no tie-line path to the slack region"
            )
    for t in manifest.interconnections:
        for reg, bus in ((t.from_region, t.from_bus), (t.to_region, t.to_bus)):
            case = raws[reg]
            hit = next((b for b in case.buses if b.id == bus), None)
            if hit is None:
                raise PartitionError(f"link references bus {bus} absent from region {reg}")
            if hit.type != BusType.PQ:
                raise PartitionError(
                    f"boundary bus {bus} in region {reg} is {hit.type.name}; tie lines "
                    "must terminate on PQ buses so both coupled quantities stay free"
                )
    for t in manifest.interconnections:
        fb = next(b for b in raws[t.from_region].buses if b.id == t.from_bus)
        tb = next(b for b in raws[t.to_region].buses if b.id == t.to_bus)
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


def _demote_foreign_slack(bus: RawBus, region: int, slack_region: int) -> RawBus:
    if bus.type == BusType.SLACK and region != slack_region:
        return RawBus(bus.id, BusType.PV, bus.p_demand, bus.q_demand, bus.shunt_g,
                      bus.shunt_b, bus.v_mag, bus.v_ang, bus.base_kv)
    return bus


def merge_cases(manifest: MergeManifest, raws: list[RawCase]) -> tuple[RawCase, GlobalIndex]:
    """Combine regional cases into one case with globally renumbered buses.

    Region l's buses, sorted by local id, become merged ids
    offset_l + 1 ... offset_l + n_l.  Only the designated slack region keeps
    its slack bus; other regions' slack buses become PV buses.  Tie lines
    become ordinary branches oriented from-side as written.
    """
    _check_manifest(manifest, raws)

    merged_of: dict[tuple[int, int], int] = {}
    next_id = 1
    for reg, case in enumerate(raws):
        for b in sorted(case.buses, key=lambda bb: bb.id):
            merged_of[(reg, b.id)] = next_id
            next_id += 1
    gidx = GlobalIndex(merged_of)

    buses: list[RawBus] = []
    gens: list[RawGen] = []
    branches: list[RawBranch] = []
    for reg, case in enumerate(raws):
        for b in sorted(case.buses, key=lambda bb: bb.id):
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
    return merged, gidx


def _region_network(reg: int, case: RawCase, copies: list[tuple[int, RawBus]],
                    ties: list[tuple[Interconnection, bool]], slack_region: int,
                    local_pos: dict) -> NetworkModel:
    """Build one region's model: own buses, copy buses, tie-line images.

    ``local_pos`` maps a local bus id, or a ("copy", home region, bus id)
    key for copied foreign buses, to the bus position in the region.
    """
    own = tuple(_demote_foreign_slack(b, reg, slack_region)
                for b in sorted(case.buses, key=lambda b: b.id))
    specs = _bus_specs_from_case(RawCase(case.base_mva, own, case.generators, case.branches))
    for local_id, src in copies:
        specs.append(BusSpec(
            bus_id=local_id,
            type=BusType.COPY,
            p_inj=0.0,
            q_inj=0.0,
            shunt_g=0.0,
            shunt_b=0.0,
            v_spec=src.v_mag,
            theta_spec=0.0,
        ))

    branches = _branch_specs_from_case(case, local_pos)
    for t, outgoing in ties:
        # tie image keeps the manifest orientation; the foreign endpoint is
        # the local copy
        if outgoing:
            f = local_pos[t.from_bus]
            tt = local_pos[("copy", t.to_region, t.to_bus)]
        else:
            f = local_pos[("copy", t.from_region, t.from_bus)]
            tt = local_pos[t.to_bus]
        branches.append(BranchSpec(
            f=f, t=tt, r=t.r, x=t.x, b=t.b, tap=t.tap_ratio,
            shift=math.radians(t.phase_shift),
        ))

    return NetworkModel(specs, branches, case.base_mva, require_slack=False)


def partition(manifest: MergeManifest, raws: list[RawCase]) -> PartitionedProblem:
    """Build the full multi-region decomposition from a manifest.

    Hyperedges are per physical boundary bus (not per tie line), ordered by
    merged bus id; z columns hold all hyperedge angles first, then all
    magnitudes, so runs are reproducible.
    """
    merged, gidx = merge_cases(manifest, raws)
    n_region = len(raws)

    # foreign buses each region must copy, keyed and ordered by merged id
    needed: list[dict[int, tuple[int, int]]] = [dict() for _ in range(n_region)]
    for t in manifest.interconnections:
        needed[t.from_region][gidx.merged_of[(t.to_region, t.to_bus)]] = (t.to_region, t.to_bus)
        needed[t.to_region][gidx.merged_of[(t.from_region, t.from_bus)]] = (t.from_region, t.from_bus)

    bus_lookup = [{b.id: b for b in case.buses} for case in raws]

    regions: list[RegionStructure] = []
    copy_pos: list[dict[tuple[int, int], int]] = []  # (home region, bus id) -> local position
    for reg, case in enumerate(raws):
        own = sorted(case.buses, key=lambda b: b.id)
        local_pos = {b.id: i for i, b in enumerate(own)}
        max_id = max(b.id for b in own)

        copies: list[tuple[int, RawBus]] = []
        cpos: dict[tuple[int, int], int] = {}
        for off, merged_id in enumerate(sorted(needed[reg])):
            src_reg, src_bus = needed[reg][merged_id]
            local_id = max_id + 1 + off
            pos = len(own) + off
            copies.append((local_id, bus_lookup[src_reg][src_bus]))
            cpos[(src_reg, src_bus)] = pos
            local_pos[("copy", src_reg, src_bus)] = pos
        copy_pos.append(cpos)

        ties = [(t, True) for t in manifest.interconnections if t.from_region == reg]
        ties += [(t, False) for t in manifest.interconnections if t.to_region == reg]

        net = _region_network(reg, case, copies, ties, manifest.slack_region, local_pos)
        if net.n_core == 0:
            raise PartitionError(f"region {reg} has no core buses")

        merged_ids = np.array(
            [gidx.merged_of[(reg, b.id)] for b in own]
            + [gidx.merged_of[needed[reg][m]] for m in sorted(needed[reg])],
            dtype=np.int64,
        )
        local_ids = np.array([b.id for b in own] + [lid for lid, _ in copies], dtype=np.int64)
        regions.append(RegionStructure(
            index=reg, net=net, local_ids=local_ids, merged_ids=merged_ids,
            is_copy=net.is_copy.copy(),
            coupling_free_cols=np.empty(0, dtype=np.int64),
            z_cols=np.empty(0, dtype=np.int64),
        ))

    # hyperedges: one per physical boundary bus, home instance first
    boundary: dict[int, tuple[int, int]] = {}
    for t in manifest.interconnections:
        boundary[gidx.merged_of[(t.from_region, t.from_bus)]] = (t.from_region, t.from_bus)
        boundary[gidx.merged_of[(t.to_region, t.to_bus)]] = (t.to_region, t.to_bus)

    edges: list[Hyperedge] = []
    for merged_id in sorted(boundary):
        home_reg, home_bus = boundary[merged_id]
        home_pos = int(np.flatnonzero(regions[home_reg].local_ids == home_bus)[0])
        inst = [(home_reg, home_pos)]
        for reg in range(n_region):
            if (home_reg, home_bus) in copy_pos[reg]:
                inst.append((reg, copy_pos[reg][(home_reg, home_bus)]))
        inst = [inst[0]] + sorted(inst[1:])
        if len(inst) < 2:
            raise PartitionError(f"hyperedge for merged bus {merged_id} has a single instance")
        edges.append(Hyperedge(merged_bus=merged_id, instances=tuple(inst)))
    graph = Hypergraph(edges)

    # per-region coupling rows: theta block then v block, by local position
    touch: list[list[tuple[int, int]]] = [[] for _ in range(n_region)]  # (local pos, edge)
    for e_idx, e in enumerate(graph.edges):
        for reg, pos in e.instances:
            touch[reg].append((pos, e_idx))
    for reg_struct in regions:
        entries = sorted(touch[reg_struct.index])
        a_cols: list[int] = []
        z_cols: list[int] = []
        net = reg_struct.net
        for pos, e_idx in entries:
            a_cols.append(int(net.col_theta[pos]))
            z_cols.append(graph.z_index(e_idx, "theta"))
        for pos, e_idx in entries:
            a_cols.append(int(net.col_v[pos]))
            z_cols.append(graph.z_index(e_idx, "v"))
        if any(c < 0 for c in a_cols):
            raise PartitionError(
                f"region {reg_struct.index}: a coupled quantity is fixed; boundary buses "
                "must keep both theta and v free"
            )
        reg_struct.coupling_free_cols = np.array(a_cols, dtype=np.int64)
        reg_struct.z_cols = np.array(z_cols, dtype=np.int64)

    return PartitionedProblem(
        regions=regions, hypergraph=graph, global_index=gidx,
        merged_case=merged, manifest=manifest,
    )


def consensus_dims(p: PartitionedProblem) -> tuple[int, int, int]:
    """(total state entries, total coupling entries, consensus columns)."""
    n_state = sum(r.n_state_entries for r in p.regions)
    n_cpl = sum(r.n_cpl for r in p.regions)
    return n_state, n_cpl, p.hypergraph.n_z
