"""Reader and writer for the sectioned `.pb` election file format.

The format is a semicolon-separated CSV dialect with three ordered
sections, each introduced by a bare section line and a header row::

    META
    key;value
    budget;1000000
    vote_type;approval
    PROJECTS
    project_id;cost
    A;300000
    VOTES
    voter_id;vote
    v1;A

Rows are read as ``csv.reader`` reads them, so cells may be quoted.
Multi-valued cells (vote lists, points) are comma-separated. Numbers are
decimal strings and convert exactly to rationals. Parse failures carry the
offending line number. :func:`ballots_to_utilities` turns a parsed file into
an :class:`~eqshares.model.Election`; :func:`load_election` reads a file
straight into one, with the same checks and conversion and no parsed
:class:`PbFile` in between. :func:`write_pb` is their inverse for any
election expressible in the target ballot type with plain cells.

:func:`parse_pb` and :func:`load_election` share one loop over the VOTES
rows. Cells are stripped, but a VOTES section with no quote, non-ASCII
character or whitespace other than line ends is read as written, which
stripping would not change.
"""
from __future__ import annotations

import csv
import enum
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Container, Iterable, Iterator, Mapping, Optional, Sequence

from .model import (
    ONE,
    Election,
    Num,
    Project,
    UtilityModel,
    UtilityProfile,
    as_num,
)

__all__ = [
    "BallotType",
    "PbParseError",
    "PbWriteError",
    "PbProject",
    "PbVote",
    "PbFile",
    "parse_pb",
    "ballots_to_utilities",
    "write_pb",
    "load_election",
]

# Metadata keys that carry reconstruction hints rather than source META rows.
_SYNTHETIC_META = ("pb_voter_ids",)


class PbParseError(ValueError):
    """A malformed `.pb` input, pointing at the offending line."""

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class PbWriteError(ValueError):
    """The election cannot be expressed in the requested ballot type."""


class BallotType(str, enum.Enum):
    APPROVAL = "approval"
    ORDINAL = "ordinal"
    CUMULATIVE = "cumulative"
    SCORING = "scoring"
    CHOOSE1 = "choose1"

    @classmethod
    def parse(cls, text: str) -> "BallotType":
        normalized = text.strip().lower().replace("-", "").replace("_", "")
        for member in cls:
            if member.value == normalized:
                return member
        raise ValueError(f"unknown vote_type {text!r}")


# Ballots that list points, and ballots that give each listed project one.
_POINT_BALLOTS = (BallotType.CUMULATIVE, BallotType.SCORING)
_APPROVAL_BALLOTS = (BallotType.APPROVAL, BallotType.CHOOSE1)


@dataclass(frozen=True)
class PbProject:
    """One PROJECTS row: external id, exact cost, remaining columns."""

    id: str
    cost: Num
    extra: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PbVote:
    """One VOTES row: external voter id, listed projects, optional points."""

    voter_id: str
    vote: tuple[str, ...]
    points: Optional[tuple[Num, ...]] = None


@dataclass(frozen=True)
class PbFile:
    """A parsed `.pb` file, structurally validated but not yet an election."""

    meta: Mapping[str, str]
    projects: tuple[PbProject, ...]
    votes: tuple[PbVote, ...]

    @property
    def budget(self) -> Num:
        return _parse_decimal(self.meta["budget"])

    @property
    def ballot_type(self) -> BallotType:
        return BallotType.parse(self.meta["vote_type"])


def _parse_decimal(text: str) -> Num:
    """The exact value of a decimal string, built from its integer pair:
    the digits as one integer over ten to the number of fraction digits.

    After stripping, the text is an optional sign, then decimal digits of
    any script (Unicode Nd) with at most one point among them, and at
    least one digit."""
    body = text.strip()
    sign = body[:1]
    if sign == "+" or sign == "-":
        body = body[1:]
    whole, _, frac = body.partition(".")
    # Empty, a second point or any other character fails isdecimal.
    digits = whole + frac
    if not digits.isdecimal():
        raise ValueError(f"not a decimal number: {text!r}")
    numerator = int(digits)
    if sign == "-":
        numerator = -numerator
    return Fraction(numerator, 10 ** len(frac))


# The ASCII whitespace but the line ends, which ``csv.reader`` leaves in no
# unquoted cell, and the quote that may wrap a cell's whitespace.
_ASCII_STRIPPED = '"\t\x0b\x0c\x1c\x1d\x1e\x1f '


def _blank(row: Sequence[str], start: int, end: int, lines: Sequence[str]) -> bool:
    """Whether ``row``, read from lines ``start`` to ``end``, is a blank
    line: one line of whitespace only."""
    return len(row) <= 1 and start == end and lines[end - 1].isspace()


def _rows(
    reader: Iterator[list[str]], lines: Sequence[str]
) -> Iterator[tuple[int, Optional[tuple[str, ...]]]]:
    """(the line it ends on, its stripped cells) of each row ``reader``
    reads from ``lines`` but blank lines; then (last line + 1, None)."""
    end = reader.line_num
    try:
        for row in reader:
            start, end = end + 1, reader.line_num
            if not _blank(row, start, end, lines):
                yield end, tuple(map(str.strip, row))
    except csv.Error as exc:
        raise PbParseError(reader.line_num, str(exc)) from None
    yield len(lines) + 1, None


def _row_id(lineno: int, cells: Sequence[str], width: int, seen: Container[str], what: str) -> str:
    """The id of a PROJECTS or VOTES row of ``width`` cells, new to ``seen``."""
    if len(cells) != width:
        raise PbParseError(lineno, f"expected {width} fields, got {len(cells)}")
    row_id = cells[0]
    if row_id == "":
        raise PbParseError(lineno, f"empty {what} id")
    if row_id in seen:
        raise PbParseError(lineno, f"duplicate {what} id {row_id!r}")
    return row_id


# The VOTES loop of :func:`_read_pb` hands each checked row (voter id,
# listed projects, points if any) to a ``take`` function, and returns the
# voter ids in file order, what ``take`` returned of each row, and the
# first ``ValueError`` that ``take`` raised, if any.
_Take = Callable[[str, tuple[str, ...], Optional[tuple[Num, ...]]], object]
_Votes = tuple[Iterable[str], Sequence, Optional[ValueError]]


def _read_pb(
    text: str,
) -> tuple[dict[str, str], Num, BallotType, tuple[PbProject, ...], Callable[[_Take], _Votes]]:
    """Check `.pb` text up to its VOTES rows, and return the META dict, the
    budget, the ballot type, the projects and the function that reads the
    VOTES rows.

    Everything :func:`parse_pb` enforces is checked here, in file order.
    The VOTES rows are checked as that function reads them, in one loop
    over the ``csv.reader`` rows that hands each checked row to ``take``.
    Once ``take`` raises ``ValueError`` the rows are only checked, so that
    a later parse fault is the one raised. Cells and vote entries are
    stripped only when the VOTES rows hold a quote, a non-ASCII character
    or whitespace other than line ends.
    """
    text = text.removeprefix("\ufeff")
    lines = text.splitlines(keepends=True)
    reader = csv.reader(lines, delimiter=";")
    rows = _rows(reader, lines)
    ahead = next(rows)  # the first row that no section has taken

    def section(name: str, required: tuple[str, str]) -> tuple[int, tuple[str, ...]]:
        """Check section ``name``'s line and header row; return the
        header's line number and columns."""
        lineno, header = ahead  # the section line, then the header row
        if header == (name,):
            lineno, header = next(rows)
        elif header is not None:
            raise PbParseError(
                lineno, f"expected {name} section, got {';'.join(header)!r}"
            )
        if header is None:
            raise PbParseError(lineno, "unexpected end of file")
        for column in required:
            if column not in header:
                raise PbParseError(
                    lineno, f"{name} header must include {column!r}"
                )
        if header[0] != required[0]:
            raise PbParseError(
                lineno, f"{name} header must start with {required[0]!r}"
            )
        if len(set(header)) != len(header):
            raise PbParseError(lineno, f"duplicate column in {name} header")
        return lineno, header

    def body(stop: tuple[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
        """Each row before the row ``stop`` or the end of the file, which
        is left in ``ahead``."""
        nonlocal ahead
        for ahead in rows:
            if ahead[1] is None or ahead[1] == stop:
                return
            yield ahead

    # META
    lineno, header = section("META", ("key", "value"))
    if header != ("key", "value"):
        raise PbParseError(lineno, "META header must be 'key;value'")
    meta: dict[str, str] = {}
    meta_lines: dict[str, int] = {}
    for lineno, cells in body(("PROJECTS",)):
        if len(cells) != 2:
            raise PbParseError(lineno, "META rows must have exactly 2 fields")
        key, value = cells
        if key in meta:
            raise PbParseError(lineno, f"duplicate META key {key!r}")
        meta[key] = value
        meta_lines[key] = lineno
    for required_key in ("budget", "vote_type"):
        if required_key not in meta:
            raise PbParseError(
                ahead[0], f"META is missing required key {required_key!r}"
            )
    try:
        budget = _parse_decimal(meta["budget"])
    except ValueError:
        raise PbParseError(meta_lines["budget"], "non-numeric budget") from None
    if budget <= 0:
        raise PbParseError(meta_lines["budget"], "budget must be positive")
    try:
        ballot_type = BallotType.parse(meta["vote_type"])
    except ValueError as exc:
        raise PbParseError(meta_lines["vote_type"], str(exc)) from None

    # PROJECTS
    lineno, header = section("PROJECTS", ("project_id", "cost"))
    cost_col = header.index("cost")
    projects: list[PbProject] = []
    seen_projects: set[str] = set()
    for lineno, cells in body(("VOTES",)):
        pid = _row_id(lineno, cells, len(header), seen_projects, "project")
        seen_projects.add(pid)
        try:
            cost = _parse_decimal(cells[cost_col])
        except ValueError:
            raise PbParseError(lineno, "non-numeric cost") from None
        extra = {
            column: cell
            for column, cell in zip(header, cells)
            if column not in ("project_id", "cost")
        }
        projects.append(PbProject(pid, cost, extra))

    # VOTES: its header here, its rows read from ``reader`` by read_votes.
    lineno, header = section("VOTES", ("voter_id", "vote"))
    vote_col = header.index("vote")
    points_col = header.index("points") if "points" in header else None
    needs_points = ballot_type in _POINT_BALLOTS
    if needs_points and points_col is None:
        raise PbParseError(
            lineno, f"{ballot_type.value} ballots require a points column"
        )
    width = len(header)
    rest = text[sum(map(len, lines[: reader.line_num])):]
    strip = not rest.isascii() or any(c in rest for c in _ASCII_STRIPPED)

    def read_votes(take: _Take) -> _Votes:
        voters: dict[str, None] = {}  # a set that keeps file order
        taken = []
        fault: Optional[ValueError] = None
        end = reader.line_num
        try:
            for row in reader:
                start, end = end + 1, reader.line_num
                if strip:
                    row = [*map(str.strip, row)]
                # The common, valid row is checked inline; _row_id names
                # the fault of any other row but a blank line.
                if len(row) != width or not row[0] or row[0] in voters:
                    if _blank(row, start, end, lines):
                        continue
                    _row_id(end, row, width, voters, "voter")
                voter_id = row[0]
                voters[voter_id] = None
                raw_vote = row[vote_col]
                vote = tuple(raw_vote.split(",")) if raw_vote else ()
                if strip:
                    vote = tuple(map(str.strip, vote))
                chosen = set(vote)
                if len(chosen) != len(vote):
                    raise PbParseError(end, "duplicate project in vote")
                if not seen_projects.issuperset(chosen):
                    unknown = next(pid for pid in vote if pid not in seen_projects)
                    raise PbParseError(
                        end, f"vote references unknown project {unknown!r}"
                    )
                points: Optional[tuple[Num, ...]] = None
                if points_col is not None:
                    raw_points = row[points_col]
                    if raw_points:
                        try:
                            points = tuple(map(_parse_decimal, raw_points.split(",")))
                        except ValueError:
                            raise PbParseError(end, "non-numeric points") from None
                        if len(points) != len(vote):
                            raise PbParseError(
                                end,
                                f"points list has {len(points)} entries for "
                                f"{len(vote)} vote entries",
                            )
                    elif not vote:
                        points = ()
                    elif needs_points:
                        raise PbParseError(end, "missing points for vote")
                if fault is None:
                    try:
                        taken.append(take(voter_id, vote, points))
                    except ValueError as exc:
                        fault = exc
        except csv.Error as exc:
            raise PbParseError(reader.line_num, str(exc)) from None
        return voters, taken, fault

    return meta, budget, ballot_type, tuple(projects), read_votes


def parse_pb(text: str) -> PbFile:
    """Parse `.pb` text into a :class:`PbFile`.

    Enforces section order META, PROJECTS, VOTES (each exactly once, each
    with a header row), semicolon-separated fields, unique keys and ids,
    numeric budget and costs, a known vote_type, points lists matching
    their vote lists, and vote references resolving to declared projects.
    Cells may be quoted as in CSV and are stripped. Every failure raises
    :class:`PbParseError` with the line number, which for a quoted cell
    that spans lines is the line its row ends on. A leading UTF-8
    byte-order mark (U+FEFF) is dropped.

    These are the checks :func:`load_election` makes as it reads a file,
    in the same loop over the VOTES rows; here that loop keeps each
    checked row as a :class:`PbVote`.
    """
    meta, _, _, projects, read_votes = _read_pb(text)
    _, votes, _ = read_votes(PbVote)
    return PbFile(meta=meta, projects=projects, votes=tuple(votes))


def _row_converter(
    ballot_type: BallotType, kept: Sequence[PbProject]
) -> Callable[[str, tuple[str, ...], Optional[tuple[Num, ...]]], dict[int, Num]]:
    """The function that turns one VOTES row into its score row, for
    ballots of ``ballot_type`` over the ``kept`` projects (see
    :func:`ballots_to_utilities`). It raises ``ValueError`` for a choose-1
    ballot that does not list exactly one project, a points ballot without
    points, and negative points."""
    index = {project.id: i for i, project in enumerate(kept)}
    if ballot_type in _APPROVAL_BALLOTS:
        choose1 = ballot_type is BallotType.CHOOSE1

        def row(voter_id, vote, points):
            if choose1 and len(vote) != 1:
                raise ValueError(
                    f"voter {voter_id!r}: choose-1 ballot must list "
                    f"exactly one project, got {len(vote)}"
                )
            return {index[pid]: ONE for pid in vote if pid in index}

    elif ballot_type in _POINT_BALLOTS:

        def row(voter_id, vote, points):
            if points is None:
                raise ValueError(
                    f"voter {voter_id!r}: {ballot_type.value} ballot has no points"
                )
            out: dict[int, Num] = {}
            for pid, score in zip(vote, points):
                if type(score) is not Fraction:
                    score = as_num(score)
                if score.numerator < 0:
                    raise ValueError(
                        f"voter {voter_id!r}: negative points for {pid!r}"
                    )
                if pid in index and score.numerator:
                    out[index[pid]] = score
            return out

    else:  # ordinal, Borda weights over the full ballot

        def row(voter_id, vote, points):
            length = len(vote)
            return {
                index[pid]: Fraction(length - position)
                for position, pid in enumerate(vote)
                if pid in index
            }

    return row


def _to_election(
    meta: Mapping[str, str],
    budget: Num,
    ballot_type: BallotType,
    projects: Sequence[PbProject],
    read_votes: Callable[[_Take], _Votes],
    model: UtilityModel,
) -> Election:
    """The election of the VOTES rows ``read_votes`` reads, each handed to
    the score-row converter as it is checked.

    A conversion fault is raised only once every row is read, so that a
    parse fault that reading them raises comes first, and the
    dropped-project warning is given only then too. Every entry is a
    positive rational at a kept project's index, so the profile is built
    from the rows directly rather than through the per-entry checks of
    :meth:`~eqshares.model.UtilityProfile.from_rows`.
    """
    kept = [project for project in projects if 0 < project.cost <= budget]
    voter_ids, rows, fault = read_votes(_row_converter(ballot_type, kept))
    dropped = [p.id for p in projects if not 0 < p.cost <= budget]
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} project(s) with cost outside (0, budget]: "
            + ", ".join(sorted(dropped)),
            stacklevel=3,
        )
    if fault is not None:
        raise fault
    metadata = dict(meta)
    metadata["pb_voter_ids"] = ",".join(voter_ids)
    return Election(
        projects=tuple(Project(i, p.id, p.cost) for i, p in enumerate(kept)),
        n_voters=len(rows),
        budget=budget,
        scores=UtilityProfile(len(rows), len(kept), tuple(rows)),
        utility_model=model,
        metadata=metadata,
    )


def ballots_to_utilities(pb: PbFile, model: UtilityModel) -> Election:
    """Convert a parsed file into an election under the given utility model.

    Score assignment by ballot type: approval and choose-1 give 1 to each
    listed project (choose-1 ballots must list exactly one); cumulative and
    scoring use the listed points; ordinal uses Borda weights, where a
    ballot ranking r projects gives r − j to the project in 0-based
    position j and 0 to unranked projects. Borda weights are computed on
    the full ballot before any project is dropped. A score's sign is read
    from its numerator.

    Projects whose cost exceeds the budget (or is not positive) are dropped
    with a warning and vanish from all ballots; the funding rules assume
    every project is individually affordable.

    :func:`load_election` makes the same conversion of each row of a file
    as it reads the row.
    """

    def read_votes(take: _Take) -> _Votes:
        try:
            taken = [take(v.voter_id, v.vote, v.points) for v in pb.votes]
        except ValueError as exc:
            return (), (), exc
        return [v.voter_id for v in pb.votes], taken, None

    return _to_election(
        pb.meta, pb.budget, pb.ballot_type, pb.projects, read_votes, model
    )


# A decimal's denominator is 2^a·5^b. Its odd part 5^b is looked up here,
# and a larger one is divided out a five at a time.
_FIVES = {5**k: k for k in range(32)}


def _decimal_str(value: Num) -> str:
    """Render a rational as an exact decimal string, or fail loudly."""
    denominator = value.denominator
    twos = (denominator & -denominator).bit_length() - 1
    denominator >>= twos
    fives = _FIVES.get(denominator, 0)
    if fives:
        denominator = 1
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        raise PbWriteError(
            f"{value} has no exact decimal representation"
        )
    shift = max(twos, fives)
    scaled = value.numerator * 10**shift // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    if shift == 0:
        return sign + digits
    whole, frac = digits[:-shift], digits[-shift:]
    frac = frac.rstrip("0")
    return sign + whole + ("." + frac if frac else "")


def _cell(text: str, what: str, is_id: bool = False) -> str:
    """``text`` as a cell of :func:`write_pb`, checked to read back unchanged."""
    if ";" in text or len(text.splitlines()) > 1 or (is_id and "," in text):
        raise PbWriteError(f"{what} {text!r} contains a delimiter")
    if text != text.strip() or text.startswith('"') or (is_id and not text):
        raise PbWriteError(f"{what} {text!r} would not read back unchanged")
    return text


def write_pb(election: Election, ballot_type: BallotType) -> str:
    """Serialize an election to `.pb` text, exactly invertible by parsing.

    The voter scores must be expressible in the target ballot type:
    approval and choose-1 need 0/1 scores (choose-1 exactly one approval
    per voter); ordinal needs each voter's positive scores to be exactly
    r, r−1, ..., 1 for some r; cumulative and scoring take scores as
    points. All numbers must have finite decimal expansions. Cells are not
    quoted, so no project name, voter id or metadata key or value may hold
    ``;`` or a line break, start with ``"`` or have surrounding whitespace,
    and names and ids must be nonempty and free of ``,``. Raises
    :class:`PbWriteError` otherwise.
    """
    names = [_cell(p.name, "project name", is_id=True) for p in election.projects]
    if len(set(names)) != len(names):
        raise PbWriteError("project names must be unique to serialize")

    raw_ids = election.metadata.get("pb_voter_ids")
    voter_ids = raw_ids.split(",") if raw_ids else []
    if len(voter_ids) == election.n_voters and len(set(voter_ids)) == len(voter_ids):
        voter_ids = [_cell(v, "voter id", is_id=True) for v in voter_ids]
    else:
        voter_ids = [f"v{i + 1}" for i in range(election.n_voters)]

    needs_points = ballot_type in _POINT_BALLOTS
    # Only a profile that is not all approvals is scanned for its first
    # offending voter.
    approvals = ballot_type in _APPROVAL_BALLOTS
    scan = approvals and not election.scores.is_approval
    vote_rows: list[str] = []
    for voter in range(election.n_voters):
        row = election.scores.support_set(voter)
        listed = sorted(row)
        if approvals:
            if scan and any(score != 1 for score in row.values()):
                raise PbWriteError(
                    f"voter {voter_ids[voter]!r} has non-approval scores"
                )
            if ballot_type is BallotType.CHOOSE1 and len(listed) != 1:
                raise PbWriteError(
                    f"voter {voter_ids[voter]!r} approves {len(listed)} "
                    "projects; choose-1 needs exactly one"
                )
        elif ballot_type is BallotType.ORDINAL:  # a Borda staircase r, ..., 1
            listed.sort(key=lambda c: -row[c])
            length = len(listed)
            for position, c in enumerate(listed):
                if row[c] != length - position:
                    raise PbWriteError(
                        f"voter {voter_ids[voter]!r}: scores do not form a "
                        "ranking"
                    )
        cells = [voter_ids[voter], ",".join(names[c] for c in listed)]
        if needs_points:
            cells.append(",".join(_decimal_str(row[c]) for c in listed))
        vote_rows.append(";".join(cells))

    meta = {
        "budget": _decimal_str(election.budget),
        "vote_type": ballot_type.value,
        "num_projects": str(len(election.projects)),
        "num_votes": str(election.n_voters),
    }
    for key, value in election.metadata.items():
        if key not in meta and key not in _SYNTHETIC_META:
            meta[_cell(key, "metadata key")] = _cell(value, "metadata value")
    meta_rows = [f"{key};{value}" for key, value in meta.items()]

    lines = ["META", "key;value", *meta_rows, "PROJECTS", "project_id;cost"]
    lines.extend(
        f"{p.name};{_decimal_str(p.cost)}" for p in election.projects
    )
    lines.append("VOTES")
    lines.append("voter_id;vote;points" if needs_points else "voter_id;vote")
    lines.extend(vote_rows)
    return "\n".join(lines) + "\n"


def load_election(path: str, model: UtilityModel) -> Election:
    """Read a `.pb` file from disk as an election under ``model``.

    The result equals ``ballots_to_utilities(parse_pb(text), model)``, and
    so do its faults: the file is read in one pass, and the VOTES loop
    :func:`parse_pb` runs hands each checked row straight to the score-row
    converter, with no :class:`PbVote` in between. A fault of the
    conversion (see :func:`ballots_to_utilities`) is raised only once
    every row has parsed, so that a later :class:`PbParseError` is the one
    reported, and the dropped-project warning is given only for a file
    that parses.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return _to_election(*_read_pb(text), model)
