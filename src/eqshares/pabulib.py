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

Multi-valued cells (vote lists, points) are comma-separated. All numbers
are decimal strings and convert exactly to rationals. Parse failures carry
the offending line number. :func:`ballots_to_utilities` turns a parsed file
into an :class:`~eqshares.model.Election`; :func:`write_pb` is its inverse
for any election expressible in the target ballot type.
"""
from __future__ import annotations

import enum
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .model import (
    ONE,
    Election,
    Num,
    Project,
    UtilityModel,
    UtilityProfile,
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

_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)$")

# Metadata keys that carry reconstruction hints rather than source META rows.
_SYNTHETIC_META = ("pb_voter_ids",)
_CANONICAL_META = ("budget", "vote_type", "num_projects", "num_votes")


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
    if not _DECIMAL_RE.match(text.strip()):
        raise ValueError(f"not a decimal number: {text!r}")
    return Fraction(text.strip())


def _split(line: str) -> list[str]:
    return [cell.strip() for cell in line.split(";")]


def parse_pb(text: str) -> PbFile:
    """Parse `.pb` text into a :class:`PbFile`.

    Enforces section order META, PROJECTS, VOTES (each exactly once, each
    with a header row), semicolon-separated fields, unique keys and ids,
    numeric budget and costs, a known vote_type, points lists matching
    their vote lists, and vote references resolving to declared projects.
    Every failure raises :class:`PbParseError` with the line number. A
    leading UTF-8 byte-order mark (U+FEFF) is dropped.
    """
    lines = text.removeprefix("\ufeff").splitlines()
    numbered = [
        (idx + 1, line.strip())
        for idx, line in enumerate(lines)
        if line.strip() != ""
    ]
    pos = 0

    def take() -> tuple[int, str]:
        nonlocal pos
        if pos >= len(numbered):
            raise PbParseError(len(lines) + 1, "unexpected end of file")
        item = numbered[pos]
        pos += 1
        return item

    def expect_section(name: str) -> None:
        lineno, line = take()
        if line != name:
            raise PbParseError(lineno, f"expected {name} section, got {line!r}")

    def expect_header(name: str, required: Sequence[str]) -> list[str]:
        lineno, line = take()
        cells = _split(line)
        for column in required:
            if column not in cells:
                raise PbParseError(
                    lineno, f"{name} header must include {column!r}"
                )
        if cells[0] != required[0]:
            raise PbParseError(
                lineno, f"{name} header must start with {required[0]!r}"
            )
        if len(set(cells)) != len(cells):
            raise PbParseError(lineno, f"duplicate column in {name} header")
        return cells

    def section_rows(stop: set[str]) -> list[tuple[int, str]]:
        nonlocal pos
        rows = []
        while pos < len(numbered) and numbered[pos][1] not in stop:
            rows.append(numbered[pos])
            pos += 1
        return rows

    # META
    expect_section("META")
    header = expect_header("META", ["key", "value"])
    if header != ["key", "value"]:
        raise PbParseError(numbered[pos - 1][0], "META header must be 'key;value'")
    meta: dict[str, str] = {}
    meta_lines: dict[str, int] = {}
    for lineno, line in section_rows({"PROJECTS"}):
        cells = _split(line)
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
                numbered[pos][0] if pos < len(numbered) else len(lines) + 1,
                f"META is missing required key {required_key!r}",
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
    expect_section("PROJECTS")
    header = expect_header("PROJECTS", ["project_id", "cost"])
    cost_col = header.index("cost")
    projects: list[PbProject] = []
    seen_projects: set[str] = set()
    for lineno, line in section_rows({"VOTES"}):
        cells = _split(line)
        if len(cells) != len(header):
            raise PbParseError(
                lineno, f"expected {len(header)} fields, got {len(cells)}"
            )
        pid = cells[0]
        if pid == "":
            raise PbParseError(lineno, "empty project id")
        if pid in seen_projects:
            raise PbParseError(lineno, f"duplicate project id {pid!r}")
        seen_projects.add(pid)
        try:
            cost = _parse_decimal(cells[cost_col])
        except ValueError:
            raise PbParseError(lineno, "non-numeric cost") from None
        extra = {
            header[k]: cells[k]
            for k in range(len(header))
            if k not in (0, cost_col)
        }
        projects.append(PbProject(pid, cost, extra))

    # VOTES
    expect_section("VOTES")
    header = expect_header("VOTES", ["voter_id", "vote"])
    vote_col = header.index("vote")
    points_col = header.index("points") if "points" in header else None
    needs_points = ballot_type in (BallotType.CUMULATIVE, BallotType.SCORING)
    if needs_points and points_col is None:
        raise PbParseError(
            numbered[pos - 1][0],
            f"{ballot_type.value} ballots require a points column",
        )
    votes: list[PbVote] = []
    seen_voters: set[str] = set()
    for lineno, line in section_rows(set()):
        cells = _split(line)
        if len(cells) != len(header):
            raise PbParseError(
                lineno, f"expected {len(header)} fields, got {len(cells)}"
            )
        voter_id = cells[0]
        if voter_id == "":
            raise PbParseError(lineno, "empty voter id")
        if voter_id in seen_voters:
            raise PbParseError(lineno, f"duplicate voter id {voter_id!r}")
        seen_voters.add(voter_id)
        raw_vote = cells[vote_col]
        vote = tuple(v.strip() for v in raw_vote.split(",")) if raw_vote else ()
        if len(set(vote)) != len(vote):
            raise PbParseError(lineno, "duplicate project in vote")
        for pid in vote:
            if pid not in seen_projects:
                raise PbParseError(
                    lineno, f"vote references unknown project {pid!r}"
                )
        points: Optional[tuple[Num, ...]] = None
        if points_col is not None:
            raw_points = cells[points_col]
            if raw_points == "" and not vote:
                points = ()
            elif raw_points == "":
                if needs_points:
                    raise PbParseError(lineno, "missing points for vote")
                points = None
            else:
                try:
                    points = tuple(
                        _parse_decimal(p) for p in raw_points.split(",")
                    )
                except ValueError:
                    raise PbParseError(lineno, "non-numeric points") from None
            if points is not None and len(points) != len(vote):
                raise PbParseError(
                    lineno,
                    f"points list has {len(points)} entries for "
                    f"{len(vote)} vote entries",
                )
        votes.append(PbVote(voter_id, vote, points))
    return PbFile(meta=meta, projects=tuple(projects), votes=tuple(votes))


def ballots_to_utilities(pb: PbFile, model: UtilityModel) -> Election:
    """Convert a parsed file into an election under the given utility model.

    Score assignment by ballot type: approval and choose-1 give 1 to each
    listed project (choose-1 ballots must list exactly one); cumulative and
    scoring use the listed points; ordinal uses Borda weights, where a
    ballot ranking r projects gives r − j to the project in 0-based
    position j and 0 to unranked projects. Borda weights are computed on
    the full ballot before any project is dropped.

    Projects whose cost exceeds the budget (or is not positive) are dropped
    with a warning and vanish from all ballots; the funding rules assume
    every project is individually affordable.
    """
    budget = pb.budget
    ballot_type = pb.ballot_type
    kept: list[PbProject] = []
    dropped: list[str] = []
    for project in pb.projects:
        if 0 < project.cost <= budget:
            kept.append(project)
        else:
            dropped.append(project.id)
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} project(s) with cost outside (0, budget]: "
            + ", ".join(sorted(dropped)),
            stacklevel=2,
        )
    index = {project.id: i for i, project in enumerate(kept)}

    rows: list[dict[int, Num]] = []
    for vote in pb.votes:
        row: dict[int, Num] = {}
        if ballot_type in (BallotType.APPROVAL, BallotType.CHOOSE1):
            if ballot_type is BallotType.CHOOSE1 and len(vote.vote) != 1:
                raise ValueError(
                    f"voter {vote.voter_id!r}: choose-1 ballot must list "
                    f"exactly one project, got {len(vote.vote)}"
                )
            for pid in vote.vote:
                if pid in index:
                    row[index[pid]] = ONE
        elif ballot_type in (BallotType.CUMULATIVE, BallotType.SCORING):
            if vote.points is None:
                raise ValueError(
                    f"voter {vote.voter_id!r}: {ballot_type.value} ballot has no points"
                )
            for pid, score in zip(vote.vote, vote.points):
                if score < 0:
                    raise ValueError(
                        f"voter {vote.voter_id!r}: negative points for {pid!r}"
                    )
                if pid in index and score > 0:
                    row[index[pid]] = score
        else:  # ordinal, Borda weights over the full ballot
            length = len(vote.vote)
            for position, pid in enumerate(vote.vote):
                if pid in index:
                    row[index[pid]] = Fraction(length - position)
        rows.append(row)

    projects = tuple(
        Project(i, p.id, p.cost) for i, p in enumerate(kept)
    )
    profile = UtilityProfile.from_rows(len(rows), len(projects), rows)
    metadata = dict(pb.meta)
    metadata["pb_voter_ids"] = ",".join(v.voter_id for v in pb.votes)
    return Election(
        projects=projects,
        n_voters=len(rows),
        budget=budget,
        scores=profile,
        utility_model=model,
        metadata=metadata,
    )


def _decimal_str(value: Num) -> str:
    """Render a rational as an exact decimal string, or fail loudly."""
    denominator = value.denominator
    twos = fives = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
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


def write_pb(election: Election, ballot_type: BallotType) -> str:
    """Serialize an election to `.pb` text, exactly invertible by parsing.

    The voter scores must be expressible in the target ballot type:
    approval and choose-1 need 0/1 scores (choose-1 exactly one approval
    per voter); ordinal needs each voter's positive scores to be exactly
    r, r−1, ..., 1 for some r; cumulative and scoring take scores as
    points. All numbers must have finite decimal expansions. Raises
    :class:`PbWriteError` otherwise.
    """
    names = [p.name for p in election.projects]
    if len(set(names)) != len(names):
        raise PbWriteError("project names must be unique to serialize")
    for name in names:
        if any(ch in name for ch in ";,\n\r"):
            raise PbWriteError(f"project name {name!r} contains a delimiter")

    voter_ids = None
    raw_ids = election.metadata.get("pb_voter_ids")
    if raw_ids is not None:
        candidate = raw_ids.split(",") if raw_ids else []
        if len(candidate) == election.n_voters and len(set(candidate)) == len(
            candidate
        ):
            voter_ids = candidate
    if voter_ids is None:
        voter_ids = [f"v{i + 1}" for i in range(election.n_voters)]

    needs_points = ballot_type in (BallotType.CUMULATIVE, BallotType.SCORING)
    vote_rows: list[str] = []
    for voter in range(election.n_voters):
        row = election.scores.support_set(voter)
        if ballot_type in (BallotType.APPROVAL, BallotType.CHOOSE1):
            if any(score != 1 for score in row.values()):
                raise PbWriteError(
                    f"voter {voter_ids[voter]!r} has non-approval scores"
                )
            listed = sorted(row)
            if ballot_type is BallotType.CHOOSE1 and len(listed) != 1:
                raise PbWriteError(
                    f"voter {voter_ids[voter]!r} approves {len(listed)} "
                    "projects; choose-1 needs exactly one"
                )
            cells = [voter_ids[voter], ",".join(names[c] for c in listed)]
        elif needs_points:
            listed = sorted(row)
            cells = [
                voter_ids[voter],
                ",".join(names[c] for c in listed),
                ",".join(_decimal_str(row[c]) for c in listed),
            ]
        else:  # ordinal: scores must form a Borda staircase r, r-1, ..., 1
            ranked = sorted(row, key=lambda c: (-row[c], c))
            length = len(ranked)
            for position, c in enumerate(ranked):
                if row[c] != length - position:
                    raise PbWriteError(
                        f"voter {voter_ids[voter]!r}: scores do not form a "
                        "ranking"
                    )
            cells = [voter_ids[voter], ",".join(names[c] for c in ranked)]
        vote_rows.append(";".join(cells))

    meta_rows = [
        f"budget;{_decimal_str(election.budget)}",
        f"vote_type;{ballot_type.value}",
        f"num_projects;{len(election.projects)}",
        f"num_votes;{election.n_voters}",
    ]
    for key, value in election.metadata.items():
        if key in _CANONICAL_META or key in _SYNTHETIC_META:
            continue
        if any(ch in key + value for ch in ";\n\r"):
            raise PbWriteError(f"metadata entry {key!r} contains a delimiter")
        meta_rows.append(f"{key};{value}")

    lines = ["META", "key;value", *meta_rows, "PROJECTS", "project_id;cost"]
    lines.extend(
        f"{p.name};{_decimal_str(p.cost)}" for p in election.projects
    )
    lines.append("VOTES")
    lines.append("voter_id;vote;points" if needs_points else "voter_id;vote")
    lines.extend(vote_rows)
    return "\n".join(lines) + "\n"


def load_election(path: str, model: UtilityModel) -> Election:
    """Parse a `.pb` file from disk and convert it to an election."""
    with open(path, encoding="utf-8") as handle:
        return ballots_to_utilities(parse_pb(handle.read()), model)
