import os
import sys

import pytest

from hdpf import (
    SolverConfig,
    build_network,
    central_solve,
    load_manifest,
    parse_case_file,
    partition,
    solve,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="session")
def cases():
    """Base IEEE systems, parsed once."""
    return {n: parse_case_file(fixture_path(f"{n}.m"))
            for n in ("case9", "case14", "case30", "case57")}


@pytest.fixture(scope="session")
def problems():
    """Partitioned problems for every shipped manifest."""
    out = {}
    for name in ("fig1", "single14", "twin14", "case53", "case404", "case1100"):
        manifest, raws = load_manifest(fixture_path(f"{name}.manifest"))
        out[name] = partition(manifest, raws)
    return out


def bench_source(name: str, seed: int = 1):
    """(manifest, cases) of the benchmark's generated workload ``name`` at
    ``seed``, built by ``bench/workloads.py``."""
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads.load_source(workloads.WORKLOADS[name](os.path.join(BENCH, ".."), seed))


@pytest.fixture(scope="session")
def grid8x8():
    """The benchmark's grid-8x8 at seed 1, partitioned: 64 regions, with
    3-instance hyperedges."""
    return partition(*bench_source("grid-8x8"))


@pytest.fixture(scope="session")
def merged_nets(problems):
    return {name: build_network(p.merged_case) for name, p in problems.items()}


@pytest.fixture(scope="session")
def central_refs(problems, merged_nets):
    """Centralized reference solutions, solved once per fixture."""
    out = {}
    for name, net in merged_nets.items():
        state, trace = central_solve(net)
        assert trace.converged, f"central solve failed on {name}"
        out[name] = (state, trace)
    return out


@pytest.fixture(scope="session")
def solved(problems, central_refs):
    """Distributed solves with references, run once per fixture."""
    out = {}
    for name, p in problems.items():
        ref = central_refs[name][0]
        out[name] = solve(p, SolverConfig(), ref=ref)
    return out


@pytest.fixture(scope="session")
def solved_diagnose(problems):
    """Distributed solves with diagnostics on the three main fixtures."""
    out = {}
    for name in ("case53", "case404", "case1100"):
        out[name] = solve(problems[name], SolverConfig(diagnose=True))
    return out
