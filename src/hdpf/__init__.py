"""Distributed AC power flow over hypergraph-coupled regions.

The workflow: parse regional case files and a merge manifest, partition the
system into self-contained regions with shared boundary buses, then iterate
regularized Gauss-Newton steps whose coupled quadratic subproblems are
condensed per region and resolved in a single consensus pass.  A
centralized solver on the merged case serves as the reference, and a
message-passing harness accounts for the consensus traffic.
"""

from .caseio import (
    BusType,
    CaseFormatError,
    Interconnection,
    ManifestError,
    MergeManifest,
    RawBranch,
    RawBus,
    RawCase,
    RawGen,
    load_manifest,
    parse_case,
    parse_case_file,
    parse_manifest,
    parse_manifest_file,
    serialize_case,
    serialize_manifest,
)
from .central import central_solve, dense_kkt_solve
from .comm import CommLedger, run_distributed
from .condense import (
    CondensedQP,
    FactorizationError,
    condense_region,
    recover_local,
)
from .consensus import (
    ConsensusSolution,
    KktResiduals,
    averaging_projector,
    consensus_pass,
    verify_kkt,
    weighted_average,
)
from .driver import SolverConfig, comm_floats_per_iteration, convergence_order, solve, stitch_state
from .network import ModelError, NetworkModel, StateVector, build_network, flat_start
from .partition import (
    Hyperedge,
    Hypergraph,
    PartitionError,
    PartitionedProblem,
    RegionStructure,
    consensus_dims,
    merge_cases,
    partition,
)
from .residual import RegionLinearization, jacobian, linearize, linearize_regions, q_term, residual
from .trace import (
    IterationRecord,
    SolveTrace,
    read_state,
    read_trace,
    trace_signature,
    write_state,
    write_trace,
)

__version__ = "0.1.0"
