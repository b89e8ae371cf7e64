"""Solve traces: per-iteration convergence and communication metrics.

Traces serialize as newline-delimited JSON: one header object carrying the
terminal status, then one record per outer iteration with fields

    iter, f, r_norm2, dchi_inf, primal_residual, comm_floats, wall_ns

plus ``lm_error`` and ``condense_gap`` when diagnostics were enabled and
``dist_to_ref`` when a reference state was supplied.  JSON float rendering
round-trips at full double precision.  A non-finite value (a breakdown
record's ``dchi_inf``, say) is written as the string ``"NaN"``,
``"Infinity"`` or ``"-Infinity"``, so every line is strict JSON.

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

import json
import math
import sys
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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _record_dict(rec: IterationRecord) -> dict:
    # keyed on the Python float's repr: numpy 2 renders an np.float64 NaN
    # as 'np.float64(nan)'
    return {k: _NON_FINITE[repr(float(v))] if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in vars(rec).items() if k in _FIELDS or v is not None}


def write_trace(trace: SolveTrace, sink: IO) -> None:
    """Write a trace as JSON lines; a header-only file means zero iterations."""
    lines = [json.dumps({"type": "header", "format": "hdpf-trace", "version": 1,
                         "status": trace.status})]
    lines += [json.dumps(_record_dict(r), allow_nan=False) for r in trace.records]
    sink.write("\n".join(lines) + "\n")


def read_trace(source: IO) -> SolveTrace:
    """Read a version-1 trace; a malformed line, the header included (another
    version, an unknown status), raises ``ValueError`` naming its 1-based number."""
    lines = [(n, ln) for n, ln in enumerate(source.read().splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty trace stream")
    try:
        header = json.loads(lines[0][1])
    except ValueError as exc:
        raise ValueError(f"line {lines[0][0]}: malformed trace header ({exc!r})") from None
    if not isinstance(header, dict) or header.get("format") != "hdpf-trace":
        raise ValueError(f"line {lines[0][0]}: not a trace stream (missing header)")
    version, status = header.get("version"), header.get("status")
    if type(version) is not int or version != 1:  # JSON true reads as 1, and is no version
        raise ValueError(f"line {lines[0][0]}: unsupported trace version {version!r}")
    if status not in (STATUS_CONVERGED, STATUS_MAX_ITER, STATUS_BREAKDOWN):
        raise ValueError(f"line {lines[0][0]}: unknown trace status {status!r}")
    records = []
    for n, ln in lines[1:]:
        try:
            d = json.loads(ln)
            records.append(IterationRecord(**{k: cast(d[k]) for k, cast in _FIELDS.items()},
                                           **{k: None if d.get(k) is None else float(d[k])
                                              for k in _OPTIONAL}))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"line {n}: malformed trace record ({exc!r})") from None
    return SolveTrace(records=records, status=status)


def trace_signature(trace: SolveTrace) -> tuple:
    """Everything deterministic in a trace (wall time excluded)."""
    rows = tuple(tuple(getattr(r, k) for k in _DETERMINISTIC) for r in trace.records)
    return (trace.status, rows)


# the keys of a state file's rows of (theta, v, p, q)
_STATE_ROWS = ("theta", "vm", "p", "q")


def write_state(state: StateVector, sink: IO) -> None:
    """Serialize a full state (theta, v, p, q per bus) as JSON."""
    sink.write(json.dumps({"bus_ids": state.net.bus_ids.tolist(),
                           **dict(zip(_STATE_ROWS, state.x.tolist()))}) + "\n")


def _json_array_of(value, kind) -> bool:
    """Whether ``value`` is a JSON array of ``kind`` values; JSON booleans,
    which Python reads as ints, are not numbers here."""
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value)


def read_state(source: IO, net: NetworkModel) -> StateVector:
    """Read a state written by :func:`write_state` for ``net``'s buses.

    Raises ``ValueError`` when the file is not one JSON object, when its
    bus ids are not JSON integers equal to the network's, or when theta, vm,
    p or q is not one finite JSON number per bus.
    """
    d = json.loads(source.read())
    if not isinstance(d, dict):
        raise ValueError("state file must hold one JSON object")
    ids = d.get("bus_ids")
    if not _json_array_of(ids, int) or ids != net.bus_ids.tolist():
        raise ValueError("state file does not match the network's buses")
    fields = []
    for name in _STATE_ROWS:
        vals = d.get(name)
        if not _json_array_of(vals, (int, float)) or len(vals) != net.n_bus:
            raise ValueError(f"state field {name!r} must be {net.n_bus} numbers, one per bus")
        if not all(abs(v) <= sys.float_info.max for v in vals):  # NaN, inf, huge ints
            raise ValueError(f"state field {name!r} holds a non-finite number")
        fields.append(np.asarray(vals, dtype=float))
    return StateVector(net, *fields)
