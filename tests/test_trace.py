import io
import json

import numpy as np
import pytest

from hdpf import SolverConfig, read_state, read_trace, solve, write_state, write_trace
from hdpf.network import flat_start
from hdpf.trace import (
    STATUS_CONVERGED,
    IterationRecord,
    SolveTrace,
    trace_signature,
)


def _random_trace(rng, n=6, optional=False):
    recs = []
    for k in range(n):
        recs.append(IterationRecord(
            iter=k + 1,
            f=float(rng.uniform(0, 10)),
            r_norm2=float(rng.uniform(0, 3)),
            dchi_inf=float(rng.uniform(0, 1)),
            primal_residual=float(rng.uniform(0, 1e-6)),
            comm_floats=int(rng.integers(0, 1000)),
            wall_ns=int(rng.integers(0, 10 ** 9)),
            lm_error=float(rng.uniform(0, 1)) if optional else None,
            condense_gap=float(rng.uniform(0, 1)) if optional else None,
            dist_to_ref=float(rng.uniform(0, 1)) if optional else None,
        ))
    return SolveTrace(records=recs, status=STATUS_CONVERGED)


def test_six_record_trace_has_required_fields():
    rng = np.random.default_rng(0)
    trace = _random_trace(rng, n=6)
    buf = io.StringIO()
    write_trace(trace, buf)
    lines = [ln for ln in buf.getvalue().splitlines() if ln]
    assert len(lines) == 7  # header + 6 records
    import json

    for ln in lines[1:]:
        d = json.loads(ln)
        for key in ("iter", "f", "r_norm2", "dchi_inf", "primal_residual",
                    "comm_floats", "wall_ns"):
            assert key in d


def test_empty_trace_is_header_only():
    trace = SolveTrace(records=[], status=STATUS_CONVERGED)
    buf = io.StringIO()
    write_trace(trace, buf)
    lines = [ln for ln in buf.getvalue().splitlines() if ln]
    assert len(lines) == 1
    back = read_trace(io.StringIO(buf.getvalue()))
    assert back.status == STATUS_CONVERGED
    assert back.n_iter == 0


def test_roundtrip_identity_random_traces():
    rng = np.random.default_rng(42)
    for optional in (False, True):
        trace = _random_trace(rng, n=9, optional=optional)
        buf = io.StringIO()
        write_trace(trace, buf)
        back = read_trace(io.StringIO(buf.getvalue()))
        assert back.status == trace.status
        assert len(back.records) == len(trace.records)
        for a, b in zip(trace.records, back.records):
            assert a == b  # dataclass equality: bit-exact floats via repr


def test_roundtrip_binary_source():
    # writers take text sinks; readers take text or binary sources
    rng = np.random.default_rng(1)
    trace = _random_trace(rng, n=3)
    buf = io.StringIO()
    write_trace(trace, buf)
    back = read_trace(io.BytesIO(buf.getvalue().encode("utf-8")))
    assert trace_signature(back) == trace_signature(trace)


def test_read_rejects_non_trace_stream():
    with pytest.raises(ValueError):
        read_trace(io.StringIO('{"not": "a header"}\n'))


# a version-1 trace: two records of a diagnosed fig1 solve with a reference
V1_TRACE = (
    '{"type": "header", "format": "hdpf-trace", "version": 1, "status": "converged"}\n'
    '{"iter": 1, "f": 0.9886179217997555, "r_norm2": 1.4061421847023547, '
    '"dchi_inf": 0.4014913773812181, "primal_residual": 0.0, "comm_floats": 48, '
    '"wall_ns": 8252205, "lm_error": 3.173259277864652, '
    '"condense_gap": 0.006467353013467125, "dist_to_ref": 0.07106386129446673}\n'
    '{"iter": 2, "f": 0.0015281353895349554, "r_norm2": 0.055283548900825014, '
    '"dchi_inf": 0.07097083606149812, "primal_residual": 0.0, "comm_floats": 48, '
    '"wall_ns": 7832693}\n'
)


def test_version_1_trace_reads_and_writes_byte_for_byte():
    trace = read_trace(io.StringIO(V1_TRACE))
    assert trace.status == STATUS_CONVERGED
    assert [r.iter for r in trace.records] == [1, 2]
    assert trace.records[0].dist_to_ref == 0.07106386129446673
    assert trace.records[1].lm_error is None
    assert isinstance(trace.records[1].wall_ns, int)
    buf = io.StringIO()
    write_trace(trace, buf)
    assert buf.getvalue() == V1_TRACE


_HEADER, _RECORD = V1_TRACE.splitlines()[:2]


@pytest.mark.parametrize("text, line", [
    (_HEADER + "\n\n" + _RECORD.replace('"f": ', '"g": ') + "\n", 3),
    (_HEADER + "\n[1, 2]\n", 2),
    ("[1]\n" + _RECORD + "\n", 1),
    ('"x"\n' + _RECORD + "\n", 1),
    ("\n  \n{not json\n" + _RECORD + "\n", 3),
], ids=["record-lacks-f", "record-is-array", "header-is-array", "header-is-string",
        "header-is-not-json-after-blank-lines"])
def test_read_trace_names_the_malformed_line(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        read_trace(io.StringIO(text))


@pytest.mark.parametrize("key, value, message", [
    ("version", 7, "unsupported trace version 7"),
    ("version", True, "unsupported trace version True"),
    ("version", None, "unsupported trace version None"),
    ("status", "bogus", "unknown trace status 'bogus'"),
    ("status", None, "unknown trace status None"),
], ids=["version-7", "version-true", "no-version", "status-bogus", "no-status"])
def test_read_trace_rejects_a_header_of_another_version_or_status(key, value, message):
    # only what write_trace writes reads back: version 1 and one of the
    # three statuses; None drops the key
    header = json.loads(_HEADER)
    header.pop(key)
    if value is not None:
        header[key] = value
    text = json.dumps(header) + "\n" + _RECORD + "\n"
    with pytest.raises(ValueError, match=f"^line 1: {message}$"):
        read_trace(io.StringIO(text))


def test_non_finite_values_write_strict_json_and_read_back():
    import json

    def reject(token):
        raise ValueError(f"bare {token} token")

    recs = [IterationRecord(iter=1, f=1.0, r_norm2=2.0, dchi_inf=float("nan"),
                            primal_residual=0.0, comm_floats=4, wall_ns=5),
            IterationRecord(iter=2, f=1.0, r_norm2=float("inf"), dchi_inf=1.0,
                            primal_residual=0.0, comm_floats=4, wall_ns=5,
                            lm_error=float("-inf"), condense_gap=float("nan"))]
    buf = io.StringIO()
    write_trace(SolveTrace(records=recs, status="numerical_breakdown"), buf)
    for ln in buf.getvalue().splitlines():
        json.loads(ln, parse_constant=reject)
    back = read_trace(io.StringIO(buf.getvalue())).records
    assert np.isnan(back[0].dchi_inf)
    assert back[1].r_norm2 == float("inf")
    assert back[1].lm_error == float("-inf")
    assert np.isnan(back[1].condense_gap)
    assert back[1].dist_to_ref is None


def test_non_finite_numpy_scalars_round_trip():
    # numpy 2 renders np.float64('nan') as 'np.float64(nan)', not 'nan'
    recs = [IterationRecord(iter=1, f=1.0, r_norm2=np.float64("inf"), dchi_inf=np.float64("nan"),
                            primal_residual=0.0, comm_floats=0, wall_ns=1,
                            lm_error=np.float64("-inf"))]
    buf = io.StringIO()
    write_trace(SolveTrace(records=recs), buf)
    (back,) = read_trace(io.StringIO(buf.getvalue())).records
    assert np.isnan(back.dchi_inf)
    assert back.r_norm2 == float("inf")
    assert back.lm_error == float("-inf")


def test_solver_trace_roundtrip(problems):
    _, _, trace = solve(problems["fig1"], SolverConfig(diagnose=True))
    buf = io.StringIO()
    write_trace(trace, buf)
    back = read_trace(io.StringIO(buf.getvalue()))
    assert trace_signature(back) == trace_signature(trace)
    assert [r.wall_ns for r in back.records] == [r.wall_ns for r in trace.records]


def test_state_roundtrip(merged_nets):
    net = merged_nets["fig1"]
    s = flat_start(net)
    buf = io.StringIO()
    write_state(s, buf)
    back = read_state(io.StringIO(buf.getvalue()), net)
    for field in ("theta", "vm", "p", "q"):
        np.testing.assert_array_equal(getattr(back, field), getattr(s, field))


def test_state_rejects_mismatched_network(merged_nets):
    s = flat_start(merged_nets["fig1"])
    buf = io.StringIO()
    write_state(s, buf)
    with pytest.raises(ValueError, match="match"):
        read_state(io.StringIO(buf.getvalue()), merged_nets["twin14"])
    d = json.loads(buf.getvalue())
    d_ids = d.pop("bus_ids")
    with pytest.raises(ValueError, match="match"):
        read_state(io.StringIO(json.dumps(d)), merged_nets["fig1"])
    with pytest.raises(ValueError, match="one JSON object"):
        read_state(io.StringIO("[1, 2]"), merged_nets["fig1"])
    # bus ids are JSON integers: 1.4 is not bus 1, and true is not 1
    for ids in ([i + 0.4 for i in d_ids], [True] + d_ids[1:], [str(i) for i in d_ids]):
        d["bus_ids"] = ids
        with pytest.raises(ValueError, match="match"):
            read_state(io.StringIO(json.dumps(d)), merged_nets["fig1"])


@pytest.mark.parametrize("field", ["theta", "vm", "p", "q"])
def test_state_rejects_field_not_one_number_per_bus(merged_nets, field):
    net = merged_nets["fig1"]
    buf = io.StringIO()
    write_state(flat_start(net), buf)
    d = json.loads(buf.getvalue())
    # each entry a JSON number: no strings, even numeric ones, no booleans
    for bad in (d[field][:-1], d[field] + [0.0], ["x"] * net.n_bus, None,
                ["0.0"] * net.n_bus, [False] * net.n_bus, [None] * net.n_bus):
        d[field] = bad
        with pytest.raises(ValueError, match=f"state field '{field}' must be {net.n_bus} numbers"):
            read_state(io.StringIO(json.dumps(d)), net)


@pytest.mark.parametrize("field", ["theta", "vm", "p", "q"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                   pytest.param("1" + "0" * 400, id="int-past-float-range")])
def test_state_rejects_non_finite_numbers(merged_nets, field, token):
    # Python's json reads the three named tokens as floats, and the 401-digit
    # integer as an int that is infinite as a float
    net = merged_nets["fig1"]
    buf = io.StringIO()
    write_state(flat_start(net), buf)
    d = json.loads(buf.getvalue())
    d[field][0] = "BAD"
    text = json.dumps(d).replace('"BAD"', token)
    with pytest.raises(ValueError, match=f"state field '{field}' holds a non-finite number"):
        read_state(io.StringIO(text), net)
