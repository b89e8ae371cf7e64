"""Reading and writing grid case files and merge manifests.

The case grammar is a strict subset of the MATPOWER text layout: a
``baseMVA`` scalar plus ``bus``/``gen``/``branch`` tables of
whitespace-separated numeric rows, ``%`` comments, and an optional
``mpc.``/``];`` MATLAB dressing so that published IEEE case files load
unmodified.  Columns beyond the ones used here (voltage limits, ratings,
cost data) are ignored; truly unknown sections raise a logged warning and
are skipped.

Both case and manifest text go through one line scanner, :func:`_lines`,
which yields the number and content of every line left non-blank once its
``%`` comment is cut.  A case table's rows are the ``;``-separated parts
of each line's text up to a ``]``, which only a ``;`` may follow; a table's
opening line contributes its remainder after ``[`` like any other.
:func:`_rows` checks every row against ``_TABLES`` and ``_READ``, and
:func:`serialize_case` writes the three tables with one loop.

Angles are kept in degrees at this layer and converted to radians exactly
once when a network model is built.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

logger = logging.getLogger(__name__)

__all__ = [
    "BusType",
    "CaseFormatError",
    "ManifestError",
    "RawBus",
    "RawGen",
    "RawBranch",
    "RawCase",
    "Interconnection",
    "MergeManifest",
    "parse_case",
    "parse_case_file",
    "serialize_case",
    "parse_manifest",
    "parse_manifest_file",
    "serialize_manifest",
    "load_manifest",
]


class BusType(IntEnum):
    """Bus classification. ``COPY`` never appears in raw files; it marks the
    locally duplicated neighbour buses created when a system is split into
    regions."""

    PQ = 1
    PV = 2
    SLACK = 3
    COPY = 4


class CaseFormatError(ValueError):
    """Raised on malformed case text. Carries the 1-based source line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ManifestError(ValueError):
    """Raised on malformed or inconsistent merge manifests."""


@dataclass(frozen=True)
class RawBus:
    id: int
    type: BusType
    p_demand: float = 0.0  # MW
    q_demand: float = 0.0  # MVAr
    shunt_g: float = 0.0  # MW at 1 p.u.
    shunt_b: float = 0.0  # MVAr at 1 p.u.
    v_mag: float = 1.0  # p.u.
    v_ang: float = 0.0  # degrees
    base_kv: float | None = None


@dataclass(frozen=True)
class RawGen:
    bus_id: int
    p_gen: float = 0.0  # MW
    q_gen: float = 0.0  # MVAr
    v_setpoint: float = 1.0  # p.u.
    in_service: bool = True


@dataclass(frozen=True)
class RawBranch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    total_line_charging_b: float = 0.0  # p.u.
    tap_ratio: float = 1.0  # dimensionless, 0 on input means 1
    phase_shift: float = 0.0  # degrees
    in_service: bool = True


@dataclass(frozen=True)
class RawCase:
    base_mva: float
    buses: tuple[RawBus, ...]
    generators: tuple[RawGen, ...]
    branches: tuple[RawBranch, ...]
    name: str = ""

    def bus_ids(self) -> set[int]:
        return {b.id for b in self.buses}

    @property
    def n_bus(self) -> int:
        return len(self.buses)


@dataclass(frozen=True)
class Interconnection:
    """A tie line between buses in two distinct regions.

    Impedance fields follow branch conventions; the tap and phase shift sit
    on the ``from`` side.
    """

    from_region: int
    from_bus: int
    to_region: int
    to_bus: int
    r: float
    x: float
    b: float = 0.0
    tap_ratio: float = 1.0
    phase_shift: float = 0.0


@dataclass(frozen=True)
class MergeManifest:
    region_files: tuple[str, ...]
    interconnections: tuple[Interconnection, ...]
    slack_region: int


# --------------------------------------------------------------------------
# case parsing

# each table's (required, known) column counts; columns past the known ones
# are ignored with a warning.  The required ones:
#   bus     id type Pd Qd Gs Bs area Vm Va
#   gen     bus Pg Qg Qmax Qmin Vg mBase status
#   branch  f t r x b rateA rateB rateC ratio angle status
_TABLES = {"bus": (9, 13), "gen": (8, 25), "branch": (11, 17)}
# the columns the model reads, which must be finite (MATPOWER writes Inf in others)
_READ = {"bus": {2: "Pd", 3: "Qd", 4: "Gs", 5: "Bs", 7: "Vm", 8: "Va", 9: "baseKV"},
         "gen": {1: "Pg", 2: "Qg", 5: "Vg", 7: "status"},
         "branch": {2: "r", 3: "x", 4: "b", 8: "ratio", 9: "angle", 10: "status"}}


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, content) of each line that is not blank once
    its ``%`` comment is cut."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.partition("%")[0].strip()
        if line:
            yield lineno, line


def _parse_row(text: str, lineno: int) -> list[float]:
    vals = []
    for tok in text.split():
        try:
            vals.append(float(tok))
        except ValueError:
            raise CaseFormatError(f"expected a number, got {tok!r}", lineno) from None
    return vals


def _int_field(value: float, what: str, lineno: int) -> int:
    if not value.is_integer():
        raise CaseFormatError(f"{what} must be an integer, got {value!r}", lineno)
    return int(value)


def _rows(tables: dict[str, list[tuple[int, list[float]]]],
          name: str) -> Iterator[tuple[int, list[float]]]:
    """The (line, row) pairs of one table, each checked against ``_TABLES`` and ``_READ``."""
    need, known = _TABLES[name]
    for lineno, row in tables[name]:
        if len(row) < need:
            raise CaseFormatError(f"{name} row needs at least {need} columns, got {len(row)}",
                                  lineno)
        if not math.isfinite(sum(row)):  # one test per row; unread columns may hold Inf
            for col, label in _READ[name].items():
                if col < len(row) and not math.isfinite(row[col]):
                    raise CaseFormatError(f"{name} {label} must be finite", lineno)
        if len(row) > known:
            logger.warning("%s row has %d columns; extras ignored (line %d)",
                           name, len(row), lineno)
        yield lineno, row


def parse_case(text: str, name: str = "") -> RawCase:
    """Parse case text into a :class:`RawCase`.

    Accepts both bare ``name = [ rows ];`` sections and the ``mpc.``-prefixed
    MATPOWER form.  Raises :class:`CaseFormatError` with a line number on any
    malformed row, dangling bus reference, or duplicate bus id.
    """
    base_mva: float | None = None
    tables: dict[str, list[tuple[int, list[float]]]] = {n: [] for n in _TABLES}
    current: str | None = None  # open table name, "?" for an unknown section

    for lineno, line in _lines(text):
        if current is None:
            if line.startswith("function"):
                continue
            head, eq, rest = line.partition("=")
            if not eq:
                raise CaseFormatError(f"unrecognised statement {line!r}", lineno)
            key = head.strip().removeprefix("mpc.")
            rest = rest.strip()
            if key == "baseMVA":
                vals = _parse_row(rest.rstrip(";"), lineno)
                if len(vals) != 1 or not 0.0 < vals[0] < float("inf"):
                    raise CaseFormatError(
                        f"baseMVA must be one positive finite number, got {rest!r}", lineno)
                base_mva = vals[0]
                continue
            if not rest.startswith("["):
                # scalar or string assignment we do not model (version, names, ...)
                if key != "version":
                    logger.warning("ignoring unknown assignment %r (line %d)", key, lineno)
                continue
            if key in _TABLES:
                current = key
            else:
                logger.warning("ignoring unknown section %r (line %d)", key, lineno)
                current = "?"
            line = rest[1:]  # the opening line's remainder is read as a row
        body, closed, after = line.partition("]")
        if after and after.strip() != ";":
            raise CaseFormatError(f"unexpected text after ']': {after.strip()!r}", lineno)
        if current != "?":
            for row in body.split(";"):
                if row.strip():
                    tables[current].append((lineno, _parse_row(row, lineno)))
        if closed:
            current = None

    if current not in (None, "?"):
        raise CaseFormatError(f"unterminated {current} table")
    if base_mva is None:
        raise CaseFormatError("missing baseMVA")

    buses = []
    seen: set[int] = set()
    n_slack = 0
    for lineno, row in _rows(tables, "bus"):
        code = _int_field(row[1], "bus type code", lineno)
        if code not in (1, 2, 3):
            raise CaseFormatError(f"unsupported bus type code {code}", lineno)
        bus_id = _int_field(row[0], "bus id", lineno)
        if bus_id in seen:
            raise CaseFormatError(f"duplicate bus id {bus_id}", lineno)
        seen.add(bus_id)
        if code == 3:
            n_slack += 1
            if n_slack > 1:
                raise CaseFormatError("at most one slack bus allowed per file", lineno)
        base_kv = None
        if len(row) >= 10 and row[9] != 0.0:
            base_kv = row[9]
        buses.append(
            RawBus(
                id=bus_id,
                type=BusType(code),
                p_demand=row[2],
                q_demand=row[3],
                shunt_g=row[4],
                shunt_b=row[5],
                v_mag=row[7],
                v_ang=row[8],
                base_kv=base_kv,
            )
        )

    gens = []
    for lineno, row in _rows(tables, "gen"):
        gen_bus = _int_field(row[0], "generator bus", lineno)
        if gen_bus not in seen:
            raise CaseFormatError(f"generator references unknown bus {gen_bus}", lineno)
        gens.append(
            RawGen(
                bus_id=gen_bus,
                p_gen=row[1],
                q_gen=row[2],
                v_setpoint=row[5],
                in_service=row[7] > 0,
            )
        )

    branches = []
    for lineno, row in _rows(tables, "branch"):
        ends = (_int_field(row[0], "branch from bus", lineno),
                _int_field(row[1], "branch to bus", lineno))
        for end in ends:
            if end not in seen:
                raise CaseFormatError(f"branch references unknown bus {end}", lineno)
        branches.append(
            RawBranch(
                from_bus=ends[0],
                to_bus=ends[1],
                r=row[2],
                x=row[3],
                total_line_charging_b=row[4],
                tap_ratio=row[8] if row[8] != 0.0 else 1.0,
                phase_shift=row[9],
                in_service=row[10] > 0,
            )
        )

    return RawCase(
        base_mva=base_mva,
        buses=tuple(buses),
        generators=tuple(gens),
        branches=tuple(branches),
        name=name,
    )


def parse_case_file(path) -> RawCase:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_case(fh.read(), name=os.path.basename(str(path)))


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_case(case: RawCase) -> str:
    """Render a case back to text; ``parse_case(serialize_case(c)) == c``."""
    tables = (
        ("bus", "id type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin",
         [f"{b.id} {int(b.type)} {_fmt(b.p_demand)} {_fmt(b.q_demand)} {_fmt(b.shunt_g)} "
          f"{_fmt(b.shunt_b)} 1 {_fmt(b.v_mag)} {_fmt(b.v_ang)} "
          f"{_fmt(0.0 if b.base_kv is None else b.base_kv)} 1 0 0" for b in case.buses]),
        ("gen", "bus Pg Qg Qmax Qmin Vg mBase status",
         [f"{g.bus_id} {_fmt(g.p_gen)} {_fmt(g.q_gen)} 0 0 {_fmt(g.v_setpoint)} "
          f"{_fmt(case.base_mva)} {int(g.in_service)}" for g in case.generators]),
        ("branch", "from to r x b rateA rateB rateC tap shift status",
         [f"{br.from_bus} {br.to_bus} {_fmt(br.r)} {_fmt(br.x)} {_fmt(br.total_line_charging_b)} "
          f"0 0 0 {_fmt(br.tap_ratio)} {_fmt(br.phase_shift)} {int(br.in_service)}"
          for br in case.branches]),
    )
    out = [f"% {case.name or 'case'}: {len(case.buses)} buses, {len(case.branches)} branches",
           f"mpc.baseMVA = {_fmt(case.base_mva)};", ""]
    for name, header, rows in tables:
        out += [f"% {header}", f"mpc.{name} = [", *(f"  {row};" for row in rows), "];", ""]
    return "\n".join(out)


# --------------------------------------------------------------------------
# manifests


def parse_manifest(text: str) -> MergeManifest:
    """Parse a merge manifest.

    Grammar: ``region <path>`` lines (order defines region indices, starting
    at 0), ``link <rA> <busA> <rB> <busB> <r> <x> <b> <tap> <shift>`` lines,
    and one ``slack_region <idx>`` line.
    """
    regions: list[str] = []
    links: list[tuple[int, list[str]]] = []
    slack_region: int | None = None

    for lineno, line in _lines(text):
        parts = line.split()
        kind = parts[0]
        if kind == "region":
            if len(parts) != 2:
                raise ManifestError(f"line {lineno}: region takes exactly one path")
            regions.append(parts[1])
        elif kind == "link":
            if len(parts) != 10:
                raise ManifestError(
                    f"line {lineno}: link takes 9 fields "
                    "(rA busA rB busB r x b tap shift)"
                )
            links.append((lineno, parts[1:]))
        elif kind == "slack_region":
            if len(parts) != 2:
                raise ManifestError(f"line {lineno}: slack_region takes one index")
            if slack_region is not None:
                raise ManifestError(
                    f"line {lineno}: slack_region given twice, first as {slack_region}")
            try:
                slack_region = int(parts[1])
            except ValueError:
                raise ManifestError(
                    f"line {lineno}: slack_region takes an integer index, got {parts[1]!r}"
                ) from None
        else:
            raise ManifestError(f"line {lineno}: unknown directive {kind!r}")

    if not regions:
        raise ManifestError("manifest declares no regions")
    if slack_region is None:
        raise ManifestError("manifest is missing slack_region")
    if not 0 <= slack_region < len(regions):
        raise ManifestError(f"slack_region {slack_region} out of range for {len(regions)} regions")

    ties = []
    for lineno, f in links:
        try:
            ra, ba, rb, bb = int(f[0]), int(f[1]), int(f[2]), int(f[3])
            r, x, b, tap, shift = (float(v) for v in f[4:9])
        except ValueError:
            raise ManifestError(f"line {lineno}: malformed link fields") from None
        if not all(map(math.isfinite, (r, x, b, tap, shift))):
            raise ManifestError(f"line {lineno}: link r x b tap shift must be finite")
        for reg in (ra, rb):
            if not 0 <= reg < len(regions):
                raise ManifestError(f"line {lineno}: unknown region index {reg}")
        if ra == rb:
            raise ManifestError(f"line {lineno}: link endpoints lie in the same region {ra}")
        ties.append(
            Interconnection(
                from_region=ra,
                from_bus=ba,
                to_region=rb,
                to_bus=bb,
                r=r,
                x=x,
                b=b,
                tap_ratio=tap if tap != 0.0 else 1.0,
                phase_shift=shift,
            )
        )

    return MergeManifest(
        region_files=tuple(regions),
        interconnections=tuple(ties),
        slack_region=slack_region,
    )


def parse_manifest_file(path) -> MergeManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def serialize_manifest(manifest: MergeManifest) -> str:
    out = []
    for p in manifest.region_files:
        out.append(f"region {p}")
    for t in manifest.interconnections:
        out.append(
            f"link {t.from_region} {t.from_bus} {t.to_region} {t.to_bus} "
            f"{_fmt(t.r)} {_fmt(t.x)} {_fmt(t.b)} {_fmt(t.tap_ratio)} {_fmt(t.phase_shift)}"
        )
    out.append(f"slack_region {manifest.slack_region}")
    out.append("")
    return "\n".join(out)


def load_manifest(path) -> tuple[MergeManifest, list[RawCase]]:
    """Parse a manifest file and all regional case files it names.

    Relative region paths are resolved against the manifest's directory.
    """
    manifest = parse_manifest_file(path)
    base = os.path.dirname(os.path.abspath(str(path)))
    cases = []
    for rel in manifest.region_files:
        full = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(full):
            raise ManifestError(f"region file not found: {full}")
        cases.append(parse_case_file(full))
    for t in manifest.interconnections:
        for reg, bus in ((t.from_region, t.from_bus), (t.to_region, t.to_bus)):
            if bus not in cases[reg].bus_ids():
                raise ManifestError(
                    f"link references bus {bus} absent from region {reg} "
                    f"({manifest.region_files[reg]})"
                )
    return manifest, cases
