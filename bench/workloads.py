"""Benchmark inputs: the shipped 1,100-bus fixture and two generated tilings.

``tiles-1100`` is read from ``fixtures/case1100.manifest`` on disk.  The two
generated workloads are built here as case and manifest *text*, so set-up
parses them exactly as it parses files.  The seed draws one factor per
region from [1 - SPREAD, 1 + SPREAD] and scales that region's demand and
generation by it; everything else (topology, impedances, setpoints) is
fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from hdpf import caseio

SPREAD = 0.02


@dataclass
class Source:
    """What set-up starts from: a manifest file, or manifest and case texts."""

    manifest_path: str | None = None
    manifest_text: str | None = None
    case_texts: tuple[str, ...] = ()


def load_source(src: Source):
    """Parse a source into (manifest, regional cases) with the program's parser."""
    if src.manifest_path is not None:
        return caseio.load_manifest(src.manifest_path)
    manifest = caseio.parse_manifest(src.manifest_text)
    cases = [caseio.parse_case(t, name=f"r{i}.m") for i, t in enumerate(src.case_texts)]
    return manifest, cases


# -- text rendering -----------------------------------------------------------

def _case_text(case) -> str:
    out = [f"mpc.baseMVA = {case.base_mva!r};", "mpc.bus = ["]
    for b in case.buses:
        out.append(f"{b.id} {int(b.type)} {b.p_demand!r} {b.q_demand!r} {b.shunt_g!r} "
                   f"{b.shunt_b!r} 1 {b.v_mag!r} {b.v_ang!r} 0;")
    out += ["];", "mpc.gen = ["]
    for g in case.generators:
        out.append(f"{g.bus_id} {g.p_gen!r} {g.q_gen!r} 0 0 {g.v_setpoint!r} "
                   f"{case.base_mva!r} {int(g.in_service)};")
    out += ["];", "mpc.branch = ["]
    for br in case.branches:
        out.append(f"{br.from_bus} {br.to_bus} {br.r!r} {br.x!r} "
                   f"{br.total_line_charging_b!r} 0 0 0 {br.tap_ratio!r} "
                   f"{br.phase_shift!r} {int(br.in_service)};")
    out.append("];")
    return "\n".join(out) + "\n"


def _manifest_text(n_regions: int, links) -> str:
    out = [f"region r{i}.m" for i in range(n_regions)]
    out.append("slack_region 0")
    for ra, ba, rb, bb, r, x, b in links:
        out.append(f"link {ra} {ba} {rb} {bb} {r!r} {x!r} {b!r} 1 0")
    return "\n".join(out) + "\n"


def _scaled(case, factor: float):
    return replace(
        case,
        buses=tuple(replace(b, p_demand=b.p_demand * factor, q_demand=b.q_demand * factor)
                    for b in case.buses),
        generators=tuple(replace(g, p_gen=g.p_gen * factor, q_gen=g.q_gen * factor)
                         for g in case.generators),
    )


def _join(blocks, ties):
    """One case from several blocks: ids shifted by block, extra slacks
    demoted to PV, plus internal tie branches ``(block, bus, block, bus, r, x, b)``."""
    offsets = np.cumsum([0] + [len(c.buses) for c in blocks[:-1]])
    buses, gens, branches = [], [], []
    for k, (c, off) in enumerate(zip(blocks, offsets)):
        off = int(off)
        for b in c.buses:
            kind = caseio.BusType.PV if k and b.type == caseio.BusType.SLACK else b.type
            buses.append(replace(b, id=b.id + off, type=kind))
        gens += [replace(g, bus_id=g.bus_id + off) for g in c.generators]
        branches += [replace(br, from_bus=br.from_bus + off, to_bus=br.to_bus + off)
                     for br in c.branches]
    for ka, ba, kb, bb, r, x, b in ties:
        branches.append(caseio.RawBranch(ba + int(offsets[ka]), bb + int(offsets[kb]), r, x, b))
    return caseio.RawCase(blocks[0].base_mva, tuple(buses), tuple(gens), tuple(branches))


def _factors(seed: int, n: int) -> list[float]:
    return [float(f) for f in np.random.default_rng(seed).uniform(1.0 - SPREAD, 1.0 + SPREAD, n)]


# -- workloads ----------------------------------------------------------------

def tiles_1100(root: str, seed: int) -> Source:
    # the fixture is fixed; the seed has nothing to perturb
    return Source(manifest_path=os.path.join(root, "fixtures", "case1100.manifest"))


def grid_8x8(root: str, seed: int) -> Source:
    """64 IEEE-14 regions on an 8x8 grid.  Bus 4 of each region ties to bus 5
    of its right neighbour and to bus 13 of the neighbour below, so interior
    bus-4 hyperedges have three instances."""
    side = 8
    base = caseio.parse_case_file(os.path.join(root, "fixtures", "case14.m"))
    cases = [_scaled(base, f) for f in _factors(seed, side * side)]
    links = []
    for r in range(side):
        for c in range(side):
            here = r * side + c
            if c + 1 < side:
                links.append((here, 4, here + 1, 5, 0.01, 0.08, 0.02))
            if r + 1 < side:
                links.append((here, 4, here + side, 13, 0.01, 0.08, 0.02))
    return Source(manifest_text=_manifest_text(len(cases), links),
                  case_texts=tuple(_case_text(c) for c in cases))


# ties that join two block202 copies inside one region (those of case404)
_BLOCK_TIES = [(0, 10, 1, 133, 0.01, 0.1, 0.02),
               (0, 170, 1, 82, 0.012, 0.11, 0.024),
               (0, 185, 1, 200, 0.011, 0.09, 0.02)]


def pair_808(root: str, seed: int) -> Source:
    """Two 404-bus regions, each two ``block202.m`` copies, joined by three
    tie lines between PQ buses."""
    block = caseio.parse_case_file(os.path.join(root, "fixtures", "block202.m"))
    region = _join([block, block], _BLOCK_TIES)
    cases = [_scaled(region, f) for f in _factors(seed, 2)]
    links = [(0, 13, 1, 215, 0.01, 0.1, 0.02),
             (0, 250, 1, 47, 0.012, 0.1, 0.02),
             (0, 120, 1, 322, 0.011, 0.09, 0.02)]
    return Source(manifest_text=_manifest_text(2, links),
                  case_texts=tuple(_case_text(c) for c in cases))


WORKLOADS = {"tiles-1100": tiles_1100, "grid-8x8": grid_8x8, "pair-808": pair_808}
