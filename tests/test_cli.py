import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from hdpf import (
    build_network,
    parse_case_file,
    read_state,
    read_trace,
    serialize_case,
    serialize_manifest,
)
from hdpf.cli import main
from hdpf.residual import residual

from conftest import bench_source, fixture_path


def test_solve_writes_trace_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    rc = main(["solve", fixture_path("fig1.manifest"), "--trace", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "status=converged" in text
    with open(out) as fh:
        trace = read_trace(fh)
    assert trace.converged
    assert trace.n_iter <= 15


def test_solve_missing_manifest_exits_one(capsys):
    rc = main(["solve", "no-such-file.manifest"])
    assert rc == 1
    assert "error" in capsys.readouterr().err.lower()


def test_solve_malformed_case_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.m"
    bad.write_text("mpc.baseMVA = 100;\nmpc.bus = [\n 1 3 zz 0 0 0 1 1 0;\n];\n")
    mf = tmp_path / "m.manifest"
    mf.write_text("region bad.m\nslack_region 0\n")
    rc = main(["solve", str(mf)])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_solve_short_reference_state_exits_one(tmp_path, capsys):
    # a reference whose theta is shorter than its bus ids is an input error
    merged = tmp_path / "merged.m"
    assert main(["merge", fixture_path("fig1.manifest"), "-o", str(merged)]) == 0
    assert main(["baseline", str(merged), "--output", str(tmp_path / "ref.json")]) == 0
    d = json.loads((tmp_path / "ref.json").read_text())
    d["theta"] = d["theta"][:2]
    (tmp_path / "bad.json").write_text(json.dumps(d))
    capsys.readouterr()
    rc = main(["solve", fixture_path("fig1.manifest"), "--reference", str(tmp_path / "bad.json")])
    assert rc == 1
    assert "state field 'theta' must be 6 numbers" in capsys.readouterr().err


def test_solve_zero_max_iter_exits_one(capsys):
    # a configuration error is an input error
    rc = main(["solve", fixture_path("fig1.manifest"), "--max-iter", "0"])
    assert rc == 1
    assert "max_iter must be at least 1" in capsys.readouterr().err


def test_solve_nonconvergence_exits_two(tmp_path, capsys):
    rc = main(["solve", fixture_path("case53.manifest"), "--max-iter", "2"])
    assert rc == 2
    # a diverging diagnosed solve ends numerical_breakdown, not in an error:
    # the 2-bus voltage-collapse case of test_driver.py
    (tmp_path / "x.m").write_text("""
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 1 500 150 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 0 0 0 0 1.0 100 1;
];
mpc.branch = [
  1 2 0.02 1.0 0 0 0 0 0 0 1;
];
""")
    mf = tmp_path / "x.manifest"
    mf.write_text("region x.m\nslack_region 0\n")
    rc = main(["solve", str(mf), "--max-iter", "40", "--diagnose"])
    assert rc == 2
    assert "status=numerical_breakdown" in capsys.readouterr().out


def test_check_reports_dimensions(capsys):
    rc = main(["check", fixture_path("fig1.manifest")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_state=28" in out
    assert "n_cpl=8" in out
    assert "n_z=4" in out
    assert "histogram" in out
    assert "check: ok" in out


def test_check_single_region(capsys):
    rc = main(["check", fixture_path("single14.manifest")])
    assert rc == 0
    assert "single region" in capsys.readouterr().out


def test_check_on_three_instance_hyperedges(tmp_path, capsys):
    # the benchmark's grid-8x8, 64 regions whose interior hyperedges have
    # three instances, written out as case files and a manifest
    manifest, cases = bench_source("grid-8x8")
    names = tuple(f"region{l}.m" for l in range(len(cases)))
    for name, case in zip(names, cases):
        (tmp_path / name).write_text(serialize_case(case), encoding="utf-8")
    path = tmp_path / "grid.manifest"
    path.write_text(serialize_manifest(replace(manifest, region_files=names)), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "regions=64" in out and "{2: 126, 3: 49}" in out
    assert "full column rank" in out and "check: ok" in out


def test_merge_materializes_loadable_case(tmp_path, capsys):
    out = tmp_path / "merged.m"
    rc = main(["merge", fixture_path("fig1.manifest"), "-o", str(out)])
    assert rc == 0
    case = parse_case_file(out)
    assert case.n_bus == 6
    net = build_network(case)
    assert net.n_bus == 6
    assert "hyperedge cardinality histogram" in capsys.readouterr().out


def test_baseline_solves_and_writes_state(tmp_path, capsys):
    merged = tmp_path / "merged.m"
    assert main(["merge", fixture_path("twin14.manifest"), "-o", str(merged)]) == 0
    state_file = tmp_path / "ref.json"
    rc = main(["baseline", str(merged), "--output", str(state_file)])
    assert rc == 0
    net = build_network(parse_case_file(merged))
    with open(state_file) as fh:
        state = read_state(fh, net)
    assert state.vm.shape == (28,)


def test_baseline_writes_trace(tmp_path, capsys):
    merged = tmp_path / "merged.m"
    assert main(["merge", fixture_path("fig1.manifest"), "-o", str(merged)]) == 0
    capsys.readouterr()
    out = tmp_path / "central.jsonl"
    assert main(["baseline", str(merged), "--trace", str(out)]) == 0
    n_iter = int(capsys.readouterr().out.split(" iterations,")[0])
    with open(out) as fh:
        trace = read_trace(fh)
    assert trace.status == "converged"
    assert trace.n_iter == n_iter > 0
    for rec in trace.records:
        assert rec.comm_floats == 0
        assert rec.lm_error is None and rec.condense_gap is None and rec.dist_to_ref is None


def test_solve_with_reference_records_distance(tmp_path):
    merged = tmp_path / "merged.m"
    main(["merge", fixture_path("fig1.manifest"), "-o", str(merged)])
    ref = tmp_path / "ref.json"
    main(["baseline", str(merged), "--output", str(ref)])
    out = tmp_path / "trace.jsonl"
    rc = main(["solve", fixture_path("fig1.manifest"), "--reference", str(ref),
               "--trace", str(out), "--diagnose"])
    assert rc == 0
    with open(out) as fh:
        trace = read_trace(fh)
    assert all(r.dist_to_ref is not None for r in trace.records)
    assert all(r.lm_error is not None for r in trace.records)


def test_distributed_flag_matches_direct(tmp_path):
    t1 = tmp_path / "direct.jsonl"
    t2 = tmp_path / "dist.jsonl"
    assert main(["solve", fixture_path("case53.manifest"), "--trace", str(t1)]) == 0
    assert main(["solve", fixture_path("case53.manifest"), "--trace", str(t2),
                 "--distributed"]) == 0
    with open(t1) as fh:
        a = read_trace(fh)
    with open(t2) as fh:
        b = read_trace(fh)
    from hdpf import trace_signature

    assert trace_signature(a) == trace_signature(b)


def test_repeated_invocations_identical_up_to_timing(tmp_path):
    t1 = tmp_path / "a.jsonl"
    t2 = tmp_path / "b.jsonl"
    main(["solve", fixture_path("fig1.manifest"), "--trace", str(t1)])
    main(["solve", fixture_path("fig1.manifest"), "--trace", str(t2)])

    def normalized(path):
        out = []
        with open(path) as fh:
            for line in fh:
                d = json.loads(line)
                d.pop("wall_ns", None)
                out.append(json.dumps(d, sort_keys=True))
        return out

    assert normalized(t1) == normalized(t2)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hdpf", "check",
                           fixture_path("fig1.manifest")],
                          capture_output=True, text=True, cwd=fixture_path(".."))
    assert proc.returncode == 0
    assert "check: ok" in proc.stdout


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def _printed_r_norm2(out: str) -> str:
    return out.split("r_norm2=")[1].split()[0]


def test_report_prints_residual_of_returned_state(tmp_path, capsys, problems):
    # the printed r_norm2 is that of the state written, not of the iterate
    # before the last step
    state_file = tmp_path / "s.json"
    assert main(["solve", fixture_path("case53.manifest"), "--output", str(state_file)]) == 0
    printed = _printed_r_norm2(capsys.readouterr().out)
    net = problems["case53"].merged_net
    with open(state_file) as fh:
        r = np.linalg.norm(residual(net, read_state(fh, net)))
    assert printed == f"{r:.3e}" and r <= 1e-8

    merged, ref = tmp_path / "merged.m", tmp_path / "ref.json"
    assert main(["merge", fixture_path("case53.manifest"), "-o", str(merged)]) == 0
    capsys.readouterr()
    assert main(["baseline", str(merged), "--output", str(ref)]) == 0
    printed = _printed_r_norm2(capsys.readouterr().out)
    net = build_network(parse_case_file(merged))
    with open(ref) as fh:
        r = np.linalg.norm(residual(net, read_state(fh, net)))
    assert printed == f"{r:.3e}" and r <= 1e-8


def test_check_runs_the_solvers_step(monkeypatch, capsys):
    import hdpf.driver

    calls = []
    real = hdpf.driver.condense_region

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hdpf.driver, "condense_region", spy)
    assert main(["check", fixture_path("fig1.manifest")]) == 0
    assert "check: ok" in capsys.readouterr().out
    assert len(calls) == 2  # fig1 has two regions


def test_baseline_zero_voltage_setpoint_exits_one(tmp_path, capsys):
    with open(fixture_path("case9.m")) as fh:
        text = fh.read()
    row = "\t2\t163\t6.54\t300\t-300\t1.025"
    assert text.count(row) == 1
    bad = tmp_path / "vg0.m"
    bad.write_text(text.replace(row, "\t2\t163\t6.54\t300\t-300\t0"))
    assert main(["baseline", str(bad)]) == 1
    assert "non-positive voltage setpoint at PV or slack bus(es) [2]" in capsys.readouterr().err
