import numpy as np
import pytest

from hdpf import (
    BusType,
    CaseFormatError,
    ManifestError,
    RawBranch,
    RawBus,
    RawCase,
    RawGen,
    load_manifest,
    parse_case,
    parse_manifest,
    serialize_case,
    serialize_manifest,
)

from conftest import fixture_path

TWO_BUS = """
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0 0 0 0 1 1.0 0 0 1 0 0;
  2 1 50 20 0 0 1 1.0 0 0 1 0 0;
];
mpc.gen = [
  1 60 10 0 0 1.0 100 1;
];
mpc.branch = [
  1 2 0 0.1 0 0 0 0 0 0 1;
];
"""


def test_parse_minimal_two_bus():
    case = parse_case(TWO_BUS)
    assert case.n_bus == 2
    assert len(case.branches) == 1
    assert case.buses[0].type == BusType.SLACK
    assert case.buses[1].p_demand == 50.0
    # tap 0 in the file is normalized to 1 on parse
    assert case.branches[0].tap_ratio == 1.0


def test_parse_dangling_branch_reference():
    text = TWO_BUS.replace("1 2 0 0.1", "1 99 0 0.1")
    with pytest.raises(CaseFormatError, match="99"):
        parse_case(text)


def test_parse_duplicate_bus_id():
    text = TWO_BUS.replace("2 1 50 20", "1 1 50 20")
    with pytest.raises(CaseFormatError, match="duplicate"):
        parse_case(text)


def test_parse_error_carries_line_number():
    text = TWO_BUS.replace("2 1 50 20 0 0 1 1.0 0 0 1 0 0;", "2 1 50 twenty 0 0 1 1.0 0 0 1 0 0;")
    with pytest.raises(CaseFormatError, match="line 5"):
        parse_case(text)
    with pytest.raises(CaseFormatError, match=r"line 7: unrecognised statement 'bus 3'"):
        parse_case(TWO_BUS.replace("];\nmpc.gen", "];\nbus 3 % not an assignment\nmpc.gen", 1))


def test_parse_rejects_non_integer_ids_and_codes():
    bad_bus = TWO_BUS.replace("2 1 50 20", "2.7 1.5 50 20")
    with pytest.raises(CaseFormatError, match=r"line 5: bus type code must be an integer"):
        parse_case(bad_bus)
    bad_id = TWO_BUS.replace("2 1 50 20", "2.7 1 50 20")
    with pytest.raises(CaseFormatError, match=r"line 5: bus id must be an integer, got 2\.7"):
        parse_case(bad_id)
    bad_gen = TWO_BUS.replace("1 60 10", "1.5 60 10")
    with pytest.raises(CaseFormatError, match=r"line 8: generator bus must be an integer"):
        parse_case(bad_gen)
    bad_end = TWO_BUS.replace("1 2 0 0.1", "1 2.2 0 0.1")
    with pytest.raises(CaseFormatError,
                       match=r"line 11: branch to bus must be an integer, got 2\.2"):
        parse_case(bad_end)
    # integral values written as floats are ids all the same
    case = parse_case(TWO_BUS.replace("1 2 0 0.1", "1.0 2.0 0 0.1"))
    assert (case.branches[0].from_bus, case.branches[0].to_bus) == (1, 2)


def test_parse_rejects_short_rows():
    text = TWO_BUS.replace("1 2 0 0.1 0 0 0 0 0 0 1;", "1 2 0 0.1 0;")
    with pytest.raises(CaseFormatError, match="branch row"):
        parse_case(text)


def test_parse_missing_base_mva():
    with pytest.raises(CaseFormatError, match="baseMVA"):
        parse_case("mpc.bus = [\n 1 3 0 0 0 0 1 1 0 0 1 0 0;\n];")
    with pytest.raises(CaseFormatError, match=r"^unterminated branch table$"):
        parse_case(TWO_BUS.rstrip().removesuffix("];"))


def test_parse_non_numeric_base_mva_carries_line_number():
    with pytest.raises(CaseFormatError, match=r"line 2: expected a number, got 'abc'"):
        parse_case(TWO_BUS.replace("mpc.baseMVA = 100;", "mpc.baseMVA = abc;"))
    for bad in ("100 10", "0", "-100", "nan", "inf"):
        with pytest.raises(CaseFormatError,
                           match=r"line 2: baseMVA must be one positive finite number"):
            parse_case(TWO_BUS.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {bad};"))


def test_parse_two_slack_buses_rejected():
    text = TWO_BUS.replace("2 1 50 20", "2 3 50 20")
    with pytest.raises(CaseFormatError, match="slack"):
        parse_case(text)


def test_unknown_sections_are_skipped(caplog):
    text = TWO_BUS + "\nmpc.gencost = [\n 2 0 0 3 0.01 40 0;\n];\n"
    with caplog.at_level("WARNING"):
        case = parse_case(text)
    assert case.n_bus == 2
    assert any("gencost" in rec.message for rec in caplog.records)
    # unmodelled assignments and columns past the known ones warn and are
    # skipped; the version string is expected and passes silently
    caplog.clear()
    text = ("mpc.version = '2';\nmpc.areas = 3;\n"
            + TWO_BUS.replace("2 1 50 20 0 0 1 1.0 0 0 1 0 0;", "2 1 50 20 0 0 1 1.0 0 0 1 0 0 7;"))
    with caplog.at_level("WARNING"):
        assert parse_case(text) == case
    assert [rec.message for rec in caplog.records] == [
        "ignoring unknown assignment 'areas' (line 2)",
        "bus row has 14 columns; extras ignored (line 7)",
    ]


def test_published_case_loads_unmodified(cases):
    case14 = cases["case14"]
    assert case14.n_bus == 14
    assert len(case14.branches) == 20
    assert len(case14.generators) == 5
    # shunt at bus 9, tap on the 5-6 transformer
    bus9 = next(b for b in case14.buses if b.id == 9)
    assert bus9.shunt_b == 19.0
    br56 = next(b for b in case14.branches if (b.from_bus, b.to_bus) == (5, 6))
    assert br56.tap_ratio == 0.932


def test_roundtrip_identity_on_fixture_cases(cases):
    for case in cases.values():
        again = parse_case(serialize_case(case), name=case.name)
        assert again == case


def test_roundtrip_identity_random_case():
    rng = np.random.default_rng(7)
    buses = [RawBus(1, BusType.SLACK, 0.0, 0.0, 0.0, 0.0, 1.02, 0.0)]
    for i in range(2, 12):
        buses.append(RawBus(i, BusType.PQ, float(rng.uniform(0, 80)),
                            float(rng.uniform(-10, 30)), 0.0,
                            float(rng.uniform(0, 5)), 1.0, 0.0,
                            base_kv=float(rng.choice([110.0, 220.0]))))
    gens = [RawGen(1, 100.0, 10.0, 1.02, True)]
    branches = []
    for i in range(2, 12):
        branches.append(RawBranch(i - 1, i, float(rng.uniform(0.001, 0.05)),
                                  float(rng.uniform(0.01, 0.3)),
                                  float(rng.uniform(0, 0.05)),
                                  float(rng.choice([1.0, 0.98, 1.02])),
                                  float(rng.choice([0.0, 1.5])), True))
    case = RawCase(100.0, tuple(buses), tuple(gens), tuple(branches), name="rand")
    assert parse_case(serialize_case(case), name="rand") == case


def test_merged_53_bus_fixture_bus_count():
    # three regional files assembled into one 53-bus system
    from hdpf import merge_cases

    manifest, raws = load_manifest(fixture_path("case53.manifest"))
    merged, _ = merge_cases(manifest, raws)
    assert merged.n_bus == 53


# --- manifests -------------------------------------------------------------

MANIFEST = """
% two regions, one tie
region a.m
region b.m
slack_region 0
link 0 3 1 4 0.01 0.08 0.02 1 0
"""


def test_parse_manifest_basic():
    m = parse_manifest(MANIFEST)
    assert m.region_files == ("a.m", "b.m")
    assert m.slack_region == 0
    assert len(m.interconnections) == 1
    tie = m.interconnections[0]
    assert (tie.from_region, tie.from_bus, tie.to_region, tie.to_bus) == (0, 3, 1, 4)
    assert tie.x == 0.08


def test_parse_manifest_single_region_no_links():
    m = parse_manifest("region only.m\nslack_region 0\n")
    assert len(m.interconnections) == 0
    assert len(m.region_files) == 1


def test_manifest_same_region_link_rejected():
    bad = MANIFEST.replace("link 0 3 1 4", "link 0 3 0 4")
    with pytest.raises(ManifestError, match="same region"):
        parse_manifest(bad)


def test_manifest_unknown_region_rejected():
    bad = MANIFEST.replace("link 0 3 1 4", "link 0 3 7 4")
    with pytest.raises(ManifestError, match="unknown region"):
        parse_manifest(bad)


def test_manifest_missing_slack_rejected():
    bad = MANIFEST.replace("slack_region 0", "")
    with pytest.raises(ManifestError, match="slack_region"):
        parse_manifest(bad)


def test_manifest_non_integer_slack_region_rejected():
    bad = MANIFEST.replace("slack_region 0", "slack_region x")
    with pytest.raises(ManifestError,
                       match=r"line 5: slack_region takes an integer index, got 'x'"):
        parse_manifest(bad)


def test_manifest_roundtrip():
    m = parse_manifest(MANIFEST)
    assert parse_manifest(serialize_manifest(m)) == m


def test_load_manifest_checks_bus_existence(tmp_path):
    (tmp_path / "a.m").write_text(TWO_BUS)
    (tmp_path / "b.m").write_text(TWO_BUS.replace("1 3", "1 2"))
    (tmp_path / "m.manifest").write_text(
        "region a.m\nregion b.m\nslack_region 0\nlink 0 1 1 99 0.01 0.1 0 1 0\n")
    with pytest.raises(ManifestError, match="bus 99"):
        load_manifest(tmp_path / "m.manifest")


def test_parse_data_on_table_opening_line():
    text = TWO_BUS.replace("mpc.branch = [\n  1 2 0 0.1 0 0 0 0 0 0 1;",
                           "mpc.branch = [ 1 2 0 0.1 0 0 0 0 0 0 1;")
    case = parse_case(text)
    assert len(case.branches) == 1
    # a table opened, filled and closed on one line, and a closing bracket
    # on the last row's line, read the same rows at the same line numbers
    one_line = TWO_BUS.replace("mpc.gen = [\n  1 60 10 0 0 1.0 100 1;\n];",
                               "mpc.gen = [ 1 60 10 0 0 1.0 100 1; ];")
    assert parse_case(one_line) == case
    with pytest.raises(CaseFormatError, match=r"line 7: generator references unknown bus 9"):
        parse_case(one_line.replace("[ 1 60", "[ 9 60"))
    closing = TWO_BUS.replace("2 1 50 20 0 0 1 1.0 0 0 1 0 0;\n];", "2 1 50 20 0 0 1 1.0 0 0 1 0 0 ];")
    assert parse_case(closing) == case
    with pytest.raises(CaseFormatError, match=r"line 5: bus row needs at least 9 columns, got 4"):
        parse_case(closing.replace("2 1 50 20 0 0 1 1.0 0 0 1 0 0 ]", "2 1 50 20 ]"))


def test_out_of_service_elements_roundtrip():
    case = parse_case(TWO_BUS.replace("1 2 0 0.1 0 0 0 0 0 0 1;",
                                      "1 2 0 0.1 0 0 0 0 0 0 0;"))
    assert case.branches[0].in_service is False
    assert parse_case(serialize_case(case)) == case


def test_committed_blocks_match_generator():
    # the composite fixture blocks must stay in sync with their generator
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "make_fixtures",
        os.path.join(os.path.dirname(__file__), "..", "scripts", "make_fixtures.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for name, (parts, ties) in gen.BLOCKS.items():
        with open(fixture_path(f"{name}.m"), encoding="utf-8") as fh:
            committed = fh.read()
        assert gen.render_block(name, parts, ties) == committed, name
