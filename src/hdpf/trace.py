"""Solve traces: per-iteration convergence and communication metrics.

Traces serialize as newline-delimited JSON: one header object carrying the
terminal status, then one record per outer iteration with fields

    iter, f, r_norm2, dchi_inf, primal_residual, comm_floats, wall_ns

plus ``lm_error`` and ``condense_gap`` when diagnostics were enabled and
``dist_to_ref`` when a reference state was supplied.  JSON float rendering
round-trips at full double precision.

``primal_residual`` is the largest gap between a region's recovered
coupling entries and its consensus values ``E_l zbar``.  It is 0.0 by
construction: step recovery writes ``E_l zbar`` into those entries (the
README's numerical note), so the field checks that identity rather than
measuring an approximation.

``wall_ns`` is measured wall time and therefore varies between runs; every
other field is deterministic, which is what :func:`trace_signature`
captures.
"""

from __future__ import annotations

import io
import json
from dataclasses import MISSING, dataclass, field, fields
from typing import IO

import numpy as np

from .network import NetworkModel, StateVector

__all__ = [
    "IterationRecord",
    "SolveTrace",
    "STATUS_CONVERGED",
    "STATUS_MAX_ITER",
    "STATUS_BREAKDOWN",
    "write_trace",
    "read_trace",
    "trace_signature",
    "write_state",
    "read_state",
]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_BREAKDOWN = "numerical_breakdown"


@dataclass
class IterationRecord:
    iter: int
    f: float
    r_norm2: float
    dchi_inf: float
    primal_residual: float
    comm_floats: int
    wall_ns: int
    lm_error: float | None = None
    condense_gap: float | None = None
    dist_to_ref: float | None = None


@dataclass
class SolveTrace:
    records: list[IterationRecord] = field(default_factory=list)
    status: str = STATUS_MAX_ITER

    @property
    def n_iter(self) -> int:
        return len(self.records)

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    def final(self) -> IterationRecord | None:
        return self.records[-1] if self.records else None


# the schema is the dataclass: required fields with their types, then the
# optional ones, written only when set
_FIELDS = {f.name: {"int": int, "float": float}[f.type]
           for f in fields(IterationRecord) if f.default is MISSING}
_OPTIONAL = tuple(f.name for f in fields(IterationRecord) if f.name not in _FIELDS)
_DETERMINISTIC = tuple(f.name for f in fields(IterationRecord) if f.name != "wall_ns")


def _write(sink: IO, payload: str) -> None:
    if isinstance(sink, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(sink, "mode", ""):
        sink.write(payload.encode("utf-8"))
    else:
        sink.write(payload)


def _read(source: IO) -> str:
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def _record_dict(rec: IterationRecord) -> dict:
    return {k: v for k, v in vars(rec).items() if k in _FIELDS or v is not None}


def write_trace(trace: SolveTrace, sink: IO) -> None:
    """Write a trace as JSON lines; a header-only file means zero iterations."""
    lines = [json.dumps({"type": "header", "format": "hdpf-trace", "version": 1,
                         "status": trace.status})]
    lines += [json.dumps(_record_dict(r)) for r in trace.records]
    _write(sink, "\n".join(lines) + "\n")


def read_trace(source: IO) -> SolveTrace:
    lines = [ln for ln in _read(source).splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty trace stream")
    header = json.loads(lines[0])
    if header.get("format") != "hdpf-trace":
        raise ValueError("not a trace stream (missing header)")
    records = []
    for ln in lines[1:]:
        d = json.loads(ln)
        records.append(IterationRecord(**{k: cast(d[k]) for k, cast in _FIELDS.items()},
                                       **{k: d.get(k) for k in _OPTIONAL}))
    return SolveTrace(records=records, status=header.get("status", STATUS_MAX_ITER))


def trace_signature(trace: SolveTrace) -> tuple:
    """Everything deterministic in a trace (wall time excluded)."""
    rows = tuple(tuple(getattr(r, k) for k in _DETERMINISTIC) for r in trace.records)
    return (trace.status, rows)


def write_state(state: StateVector, sink: IO) -> None:
    """Serialize a full state (theta, v, p, q per bus) as JSON."""
    _write(sink, json.dumps({
        "bus_ids": state.net.bus_ids.tolist(),
        "theta": state.theta.tolist(),
        "vm": state.vm.tolist(),
        "p": state.p.tolist(),
        "q": state.q.tolist(),
    }) + "\n")


def read_state(source: IO, net: NetworkModel) -> StateVector:
    d = json.loads(_read(source))
    ids = np.asarray(d["bus_ids"], dtype=np.int64)
    if len(ids) != net.n_bus or not np.array_equal(ids, net.bus_ids):
        raise ValueError("state file does not match the network's buses")
    return StateVector(net, np.asarray(d["theta"]), np.asarray(d["vm"]),
                       np.asarray(d["p"]), np.asarray(d["q"]))
