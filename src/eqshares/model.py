"""Immutable election data model built on exact rational arithmetic.

Every monetary amount, utility, price, and fraction in this package is a
:class:`fractions.Fraction`. Selections made by the sequential funding rules
hinge on exact comparisons of prices, so no floating-point value may enter
the decision path. Decimal strings convert to rationals without loss.

What an outcome funds, spends and gives each voter is defined here once:
``shares`` on both outcome types maps each funded project to its funded
share (1 for an integral selection), :meth:`Election.spent` is the sum of
share times cost, :meth:`Election.profile` picks the score or cost profile
for a utility model, and :func:`voter_utilities` is every voter's
share-weighted utility. Rules, audits and records use these rather than
deriving any of the four again.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

Num = Fraction
NumLike = Union[Fraction, int, str]
ZERO = Fraction(0)
ONE = Fraction(1)

__all__ = [
    "Num",
    "NumLike",
    "as_num",
    "UtilityModel",
    "Project",
    "UtilityProfile",
    "Election",
    "PurchaseRecord",
    "Outcome",
    "FractionalOutcome",
    "BudgetState",
    "derive_cost_utilities",
    "outcome_utility",
    "voter_utilities",
    "is_feasible",
]


def as_num(value: NumLike) -> Num:
    """Convert an int, exact decimal/rational string, or Fraction to a Num.

    Floats are rejected: binary rounding would silently corrupt the exact
    arithmetic this package guarantees. Quantize floats explicitly instead
    (see :mod:`eqshares.synth` for an example).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


class UtilityModel(str, enum.Enum):
    """How ballot scores are weighted when rules and audits consume them.

    SCORE uses the raw ballot scores. COST multiplies each score by the
    project's cost, so a voter's satisfaction measures the funds directed
    to projects she values.
    """

    SCORE = "score"
    COST = "cost"


@dataclass(frozen=True)
class Project:
    """One fundable project. Ids are dense 0-based indices in input order."""

    id: int
    name: str
    cost: Num

    def __post_init__(self) -> None:
        if not isinstance(self.cost, Fraction):
            object.__setattr__(self, "cost", as_num(self.cost))
        if self.cost <= 0:
            raise ValueError(f"project {self.name!r}: cost must be positive")


@dataclass(frozen=True)
class UtilityProfile:
    """Sparse voter-by-project matrix of nonnegative utilities.

    ``rows[i]`` maps project id to a strictly positive utility; absent
    entries are zero. Per-project supporter lists are derived lazily and
    are exact inverses of the per-voter support sets.
    """

    n_voters: int
    n_projects: int
    rows: tuple[Mapping[int, Num], ...]

    @classmethod
    def from_rows(
        cls,
        n_voters: int,
        n_projects: int,
        rows: Iterable[Mapping[int, NumLike]],
    ) -> "UtilityProfile":
        """Build a profile, dropping zero entries and validating the rest."""
        packed: list[dict[int, Num]] = []
        for i, row in enumerate(rows):
            clean: dict[int, Num] = {}
            for project, raw in row.items():
                value = as_num(raw)
                if value < 0:
                    raise ValueError(f"voter {i}: negative utility for project {project}")
                if not 0 <= project < n_projects:
                    raise ValueError(f"voter {i}: unknown project id {project}")
                if value > 0:
                    clean[project] = value
            packed.append(clean)
        if len(packed) != n_voters:
            raise ValueError(f"expected {n_voters} rows, got {len(packed)}")
        return cls(n_voters=n_voters, n_projects=n_projects, rows=tuple(packed))

    def value(self, voter: int, project: int) -> Num:
        return self.rows[voter].get(project, Fraction(0))

    def support_set(self, voter: int) -> Mapping[int, Num]:
        """Projects the voter values positively, with their utilities."""
        return self.rows[voter]

    @cached_property
    def supporters(self) -> tuple[tuple[int, ...], ...]:
        """For each project, the sorted ids of voters valuing it positively."""
        buckets: list[list[int]] = [[] for _ in range(self.n_projects)]
        for voter, row in enumerate(self.rows):
            for project in row:
                buckets[project].append(voter)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def project_totals(self) -> tuple[Num, ...]:
        """Total utility each project receives across all voters."""
        totals = [Fraction(0)] * self.n_projects
        for row in self.rows:
            for project, value in row.items():
                totals[project] += value
        return tuple(totals)

    @cached_property
    def is_approval(self) -> bool:
        """Whether every positive entry is 1 (approval ballots)."""
        return all(u == 1 for row in self.rows for u in row.values())

    def scaled(self, factor: Num) -> "UtilityProfile":
        """A copy with every entry multiplied by a positive rational."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        rows = tuple({c: u * factor for c, u in row.items()} for row in self.rows)
        return UtilityProfile(self.n_voters, self.n_projects, rows)


def derive_cost_utilities(
    scores: UtilityProfile, projects: Sequence[Project]
) -> UtilityProfile:
    """Weight each score by the project's cost: u(i, c) = score(i, c) * cost(c).

    Under approval scores the resulting satisfaction of a voter from an
    outcome equals the amount of funds allocated to projects she approves.
    """
    if len(projects) != scores.n_projects:
        raise ValueError("project list does not match profile width")
    rows = tuple(
        {c: u * projects[c].cost for c, u in row.items()} for row in scores.rows
    )
    return UtilityProfile(scores.n_voters, scores.n_projects, rows)


@dataclass(frozen=True)
class Election:
    """The immutable input universe: projects, voters, one budget.

    ``scores`` always holds the raw ballot scores. ``utilities`` exposes the
    profile the configured utility model induces; under the cost model every
    entry is the score times the project's cost.
    """

    projects: tuple[Project, ...]
    n_voters: int
    budget: Num
    scores: UtilityProfile
    utility_model: UtilityModel = UtilityModel.SCORE
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.budget, Fraction):
            object.__setattr__(self, "budget", as_num(self.budget))
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        for index, project in enumerate(self.projects):
            if project.id != index:
                raise ValueError("project ids must be dense 0-based input order")
            if project.cost > self.budget:
                raise ValueError(
                    f"project {project.name!r} costs more than the whole budget"
                )
        if self.scores.n_projects != len(self.projects):
            raise ValueError("profile width does not match project count")
        if self.scores.n_voters != self.n_voters:
            raise ValueError("profile height does not match voter count")

    @cached_property
    def cost_utilities(self) -> UtilityProfile:
        return derive_cost_utilities(self.scores, self.projects)

    @property
    def utilities(self) -> UtilityProfile:
        """The effective profile under the election's utility model."""
        return self.profile()

    def profile(self, model: UtilityModel | None = None) -> UtilityProfile:
        """The profile a utility model induces; the election's own if None."""
        if (model or self.utility_model) is UtilityModel.COST:
            return self.cost_utilities
        return self.scores

    def spent(self, outcome: Outcome | FractionalOutcome) -> Num:
        """Funds the outcome spends: the sum of share times cost."""
        return sum(
            (share * self.projects[c].cost for c, share in outcome.shares.items()),
            ZERO,
        )

    def with_model(self, model: UtilityModel) -> "Election":
        if model is self.utility_model:
            return self
        return Election(
            projects=self.projects,
            n_voters=self.n_voters,
            budget=self.budget,
            scores=self.scores,
            utility_model=model,
            metadata=self.metadata,
        )

    def project_by_name(self, name: str) -> Project:
        for project in self.projects:
            if project.name == name:
                return project
        raise KeyError(name)

    def same_instance(self, other: "Election") -> bool:
        """Structural equality ignoring metadata and utility model."""
        return (
            self.projects == other.projects
            and self.n_voters == other.n_voters
            and self.budget == other.budget
            and self.scores == other.scores
        )


@dataclass(frozen=True)
class PurchaseRecord:
    """One funding decision: which project, how much of it, at what price.

    ``alpha`` is the share bought this round (always 1 for integral rules).
    ``rho`` is the price per utility unit the buyers paid, or None when the
    purchase was funded centrally (completion tails pay from the leftover
    public budget, not from voter accounts). ``payments`` maps voter id to
    the amount charged against the full project cost; ``overspent`` lists
    voters whose payment exceeded their remaining balance.
    """

    project: int
    alpha: Num
    rho: Num | None
    payments: Mapping[int, Num]
    overspent: tuple[int, ...] = ()


@dataclass(frozen=True)
class Outcome:
    """An integral selection with its full per-round log.

    ``feasible`` is False only for diagnostic runs started with inflated
    per-voter endowments, which may select more than the budget covers.
    """

    selected: tuple[int, ...]
    rounds: tuple[PurchaseRecord, ...]
    feasible: bool = True

    @property
    def shares(self) -> dict[int, Num]:
        """Funded share of each selected project: 1."""
        return dict.fromkeys(self.selected, ONE)


@dataclass(frozen=True)
class FractionalOutcome:
    """Per-project funded shares in [0, 1] with the purchase log.

    Each purchase record's ``alpha`` holds the share bought in that step, so
    a project funded in several steps appears once per step; ``fractions``
    carries the accumulated totals.
    """

    fractions: Mapping[int, Num]
    purchases: tuple[PurchaseRecord, ...]

    def fraction(self, project: int) -> Num:
        return self.fractions.get(project, Fraction(0))

    @property
    def shares(self) -> dict[int, Num]:
        """Funded share of each project funded at all."""
        return {c: share for c, share in self.fractions.items() if share > 0}


class BudgetState:
    """Per-voter virtual balances plus an overdraft ledger.

    The ledger (``over``) records how much each voter has already paid beyond
    her balance; only the budget-boosting rule consults it, every other rule
    leaves it at zero. Balances never go negative.
    """

    __slots__ = ("balances", "over")

    def __init__(
        self, balances: Iterable[Num], over: Iterable[Num] | None = None
    ) -> None:
        self.balances: list[Num] = list(balances)
        if any(b < 0 for b in self.balances):
            raise ValueError("balances must be nonnegative")
        self.over: list[Num] = (
            list(over) if over is not None else [Fraction(0)] * len(self.balances)
        )
        if len(self.over) != len(self.balances):
            raise ValueError("ledger length does not match balance count")

    @classmethod
    def equal_endowment(cls, per_voter: Num, n_voters: int) -> "BudgetState":
        if per_voter < 0:
            raise ValueError("endowment must be nonnegative")
        return cls([per_voter] * n_voters)

    def copy(self) -> "BudgetState":
        return BudgetState(self.balances, self.over)

    def total(self) -> Num:
        return sum(self.balances, Fraction(0))


def _row_utility(row: Mapping[int, Num], shares: Mapping[int, Num]) -> Num:
    return sum((shares[c] * u for c, u in row.items() if c in shares), ZERO)


def voter_utilities(
    election: Election,
    outcome: Outcome | FractionalOutcome,
    model: UtilityModel | None = None,
) -> list[Num]:
    """Every voter's additive utility from an outcome, in voter order.

    Each project's utility is weighted by its funded share. ``model``
    overrides the election's utility model when given.
    """
    shares = outcome.shares
    return [_row_utility(row, shares) for row in election.profile(model).rows]


def outcome_utility(
    election: Election,
    voter: int,
    outcome: Outcome | FractionalOutcome,
    model: UtilityModel | None = None,
) -> Num:
    """Additive utility of one voter from an outcome.

    Fractional outcomes weight each project's utility by its funded share.
    ``model`` overrides the election's utility model when given.
    """
    if not 0 <= voter < election.n_voters:
        raise IndexError(f"voter index {voter} out of range")
    return _row_utility(election.profile(model).rows[voter], outcome.shares)


def is_feasible(election: Election, outcome: Outcome | FractionalOutcome) -> bool:
    """Whether the outcome's total cost stays within the budget, exactly."""
    return election.spent(outcome) <= election.budget
