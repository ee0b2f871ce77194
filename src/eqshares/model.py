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
share-weighted utility, one row sum per voter. Rules, audits and records
use these rather than deriving any of the four again.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

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
    "Payments",
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


def _uniform(weights: list[int]) -> bool:
    """Whether every weight is the same: then b/u order is balance order.

    Every approval column is uniform, under both utility models.
    """
    return not weights or weights.count(weights[0]) == len(weights)


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

    @cached_property
    def cost_pair(self) -> tuple[int, int]:
        """The cost as the integer pair (numerator, denominator), in lowest
        terms, read once: every quote of the project prices from it."""
        return self.cost.as_integer_ratio()


@dataclass(frozen=True)
class UtilityProfile:
    """Sparse voter-by-project matrix of nonnegative utilities.

    ``rows[i]`` maps project id to a strictly positive utility; absent
    entries are zero. Per-project supporter lists are derived lazily and
    are exact inverses of the per-voter support sets.

    A profile of products (:meth:`scaled`, :func:`derive_cost_utilities`)
    is a plain source profile with each column's entries times a positive
    factor (one made from another keeps its source and multiplies the
    factors), so it has the source's support: its :attr:`supporters` are
    the source's tuple and :meth:`supported_by` reads the source's rows.
    Its own ``rows`` are built when first read, and it equals the profile
    built from them. Each per-project datum is derived once: approval
    :attr:`columns` from the supporter lists, :attr:`project_totals` from
    the columns or, on approval ballots, the supporter counts.
    """

    n_voters: int
    n_projects: int
    rows: tuple[Mapping[int, Num], ...]
    # A profile of products holds (source profile, factors); see _times.
    _source = None

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
                # A rational's sign is its numerator's (denominators are
                # positive), and an int test is far cheaper than a rational one.
                sign = value.numerator
                if sign < 0:
                    raise ValueError(f"voter {i}: negative utility for project {project}")
                if not 0 <= project < n_projects:
                    raise ValueError(f"voter {i}: unknown project id {project}")
                if sign:
                    clean[project] = value
            packed.append(clean)
        if len(packed) != n_voters:
            raise ValueError(f"expected {n_voters} rows, got {len(packed)}")
        return cls(n_voters=n_voters, n_projects=n_projects, rows=tuple(packed))

    def __getattr__(self, name: str):
        # Only a profile of products is made without rows; they are built
        # here when first read, and kept.
        if name != "rows" or self._source is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        rows = self.__dict__["rows"] = _product_rows(*self._source)
        return rows

    def value(self, voter: int, project: int) -> Num:
        return self.rows[voter].get(project, Fraction(0))

    def support_set(self, voter: int) -> Mapping[int, Num]:
        """Projects the voter values positively, with their utilities."""
        return self.rows[voter]

    def supported_by(self, voters: Iterable[int]) -> set[int]:
        """Projects at least one of the voters values positively.

        The scan stops once every project is found, which the voters of a
        large purchase usually reach within their first few hundred.
        """
        source = self._source
        rows = self.rows if source is None else source[0].rows
        everything = self.n_projects
        found: set[int] = set()
        for i in voters:
            found.update(rows[i])
            if len(found) == everything:
                break
        return found

    @cached_property
    def supporters(self) -> tuple[tuple[int, ...], ...]:
        """For each project, the sorted ids of voters valuing it positively."""
        if self._source is not None:
            return self._source[0].supporters
        buckets: list[list[int]] = [[] for _ in range(self.n_projects)]
        for voter, row in enumerate(self.rows):
            for project in row:
                buckets[project].append(voter)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def project_totals(self) -> tuple[Num, ...]:
        """Total utility each project receives across all voters: its
        column's weight sum (:attr:`column_sums`) over the column's scale,
        one exact rational. An approval profile's are its supporter counts,
        read without building its columns. A profile of products takes its
        source's totals times the factors."""
        if self._source is not None:
            profile, factors = self._source
            return tuple(map(operator.mul, profile.project_totals, factors))
        if self.is_approval:
            return tuple(Fraction(len(voters)) for voters in self.supporters)
        return tuple(
            Fraction(total, scale)
            for (total, _), (_, _, scale) in zip(self.column_sums, self.columns)
        )

    @cached_property
    def columns(self) -> tuple[tuple[Sequence[int], list[int], int], ...]:
        """For each project, ``(voters, weights, scale)``: its supporters and
        their utilities as integers over one scale.

        ``weights[j] / scale`` is the utility of ``voters[j]``, which runs
        through :attr:`supporters`, and ``scale`` is the lcm of the column's
        denominators. Over an approval source (:attr:`is_approval`) a column
        is one weight, 1 or factor c's integer pair, repeated, and no row is
        read; an empty column is ``((), [], 1)``. A plain profile's other
        columns read its rows: a run of one shared entry object reads its
        denominator and makes its weight once. A profile of products takes
        the source's column times the factor (:func:`_product_column`),
        with no row and no rational read.
        """
        source = self._source
        plain = self if source is None else source[0]
        if plain.is_approval:
            factors = (ONE,) * self.n_projects if source is None else source[1]
            return tuple(
                (voters, [num] * len(voters), den if voters else 1)
                for voters, (num, den) in zip(
                    plain.supporters, (f.as_integer_ratio() for f in factors)
                )
            )
        if source is not None:
            return tuple(map(_product_column, plain.columns, source[1]))
        rows = plain.rows
        out = []
        for c, voters in enumerate(self.supporters):
            column = [rows[i][c] for i in voters]
            heads = []
            last = None
            for u in column:
                if u is not last:
                    last = u
                    heads.append(u.as_integer_ratio())
            if len(heads) == 1:
                num, den = heads[0]
                out.append((voters, [num] * len(column), den))
                continue
            scale = lcm(*{den for _, den in heads})
            weights = []
            run = iter(heads)
            last = weight = None
            for u in column:
                if u is not last:
                    num, den = next(run)
                    last, weight = u, num * (scale // den)
                weights.append(weight)
            out.append((voters, weights, scale))
        return tuple(out)

    @cached_property
    def column_sums(self) -> tuple[tuple[int, bool], ...]:
        """For each project, ``(total, uniform)``: the sum of its
        :attr:`columns` weights, and whether they are all the same."""
        return tuple(
            (sum(weights), _uniform(weights)) for _, weights, _ in self.columns
        )

    @cached_property
    def is_approval(self) -> bool:
        """Whether every positive entry is 1 (approval ballots): then the
        :attr:`columns` come from the supporter lists and the totals are
        supporter counts. Entries are often one shared object, so only an
        entry that is not the last one seen has its integer pair tested.
        """
        last = None
        for row in self.rows:
            for u in row.values():
                if u is not last:
                    if u.as_integer_ratio() != (1, 1):
                        return False
                    last = u
        return True

    def scaled(self, factor: Num) -> "UtilityProfile":
        """This profile with every entry multiplied by a positive rational:
        a profile of products with ``factor`` for every project (see the
        class), whose rows are built when first read."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return self._times((factor,) * self.n_projects)

    def _times(self, factors: Sequence[Num]) -> "UtilityProfile":
        """The profile of products whose column c is this profile's times
        ``factors[c]``, each positive; its source is always plain."""
        source = self
        if self._source is not None:
            source, inner = self._source
            factors = map(operator.mul, inner, factors)
        out = object.__new__(UtilityProfile)
        # The dataclass is frozen, so the fields go into the instance dict.
        vars(out).update(
            n_voters=self.n_voters,
            n_projects=self.n_projects,
            _source=(source, tuple(factors)),
        )
        return out


def _product_column(
    column: tuple[Sequence[int], list[int], int], factor: Num
) -> tuple[Sequence[int], list[int], int]:
    """A source column ``(voters, weights, scale)`` times ``factor`` =
    n/d, over the lcm of the products' denominators.

    Each product is weight * n / D with D = scale * d, and the lcm of
    their reduced denominators is D / g with g = gcd(D, n * gcd(weights)):
    one gcd per column. A run of one weight object keeps one product
    object.
    """
    voters, weights, scale = column
    num, den = factor.as_integer_ratio()
    g = gcd(scale * den, num * gcd(*weights))
    products = []
    last = product = None
    for w in weights:
        if w is not last:
            last, product = w, w * num // g
        products.append(product)
    return voters, products, scale * den // g


def _product_rows(
    profile: UtilityProfile, factors: tuple[Num, ...]
) -> tuple[dict[int, Num], ...]:
    """``profile``'s rows with each entry of column c times ``factors[c]``.

    One product per distinct (project, entry), shared by every row. Rows
    often share their entry objects, so each column first checks the last
    entry it saw by identity; entries are looked up by their integer pair.
    """
    products: list[dict[tuple[int, int], Num]] = [{} for _ in factors]
    last: list[tuple[Num | None, Num | None]] = [(None, None)] * len(factors)
    rows = []
    for row in profile.rows:
        out: dict[int, Num] = {}
        for c, u in row.items():
            seen, product = last[c]
            if seen is not u:
                column = products[c]
                key = u.as_integer_ratio()
                product = column.get(key)
                if product is None:
                    product = column[key] = u * factors[c]
                last[c] = (u, product)
            out[c] = product
        rows.append(out)
    return tuple(rows)


def derive_cost_utilities(
    scores: UtilityProfile, projects: Sequence[Project]
) -> UtilityProfile:
    """Weight each score by the project's cost: u(i, c) = score(i, c) * cost(c).

    Under approval scores the resulting satisfaction of a voter from an
    outcome equals the amount of funds allocated to projects she approves.
    Costs are positive, so the result is a profile of products (see
    :class:`UtilityProfile`) with each project's cost as its column's
    factor: it shares the scores' :attr:`~UtilityProfile.supporters`
    tuple, its :attr:`~UtilityProfile.columns` come from the score rows
    (approval scores' from the supporter lists and the costs alone), and
    its rows are built only when something reads them. Nothing is
    computed here.
    """
    if len(projects) != scores.n_projects:
        raise ValueError("project list does not match profile width")
    return scores._times([project.cost for project in projects])


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
        if self.n_voters < 1:
            raise ValueError("an election needs at least one voter")
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

    @cached_property
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

    def same_instance(self, other: "Election") -> bool:
        """Structural equality ignoring metadata and utility model."""
        return (
            self.projects == other.projects
            and self.n_voters == other.n_voters
            and self.budget == other.budget
            and self.scores == other.scores
        )


class Payments(Mapping[int, Num]):
    """Exact per-voter payments held as integers over one denominator.

    ``payers[j]`` pays ``amounts[j] / den``. A quote
    (:class:`~eqshares.rules.AffordabilityQuote`) hands over the payer
    sequence its kernel built and its numerators as they are: the capped
    prefix's own, then one numerator object per run of a shared weight,
    which every payer of the run holds. The uncapped payers of an approval
    column hold one object. ``Payments(numerators, den)`` holds a
    voter-to-numerator mapping.

    The ledger's debit (:meth:`BudgetState.debit`) and the record writer
    (:class:`~eqshares.stats.RecordWriter`) read the two lists. The Mapping
    view is built only when read: ``numerators``, the dict from voter to
    numerator, and ``payments[i]``, with one rational per distinct
    numerator. Iteration follows ``payers``; the view equals, and has the
    ``repr`` of, the dict of the same payments in the same order.

    ``rate``, when positive, is a factor that most numerators share: a
    quote's uncapped payers each pay ``(weight // unit) * rate``. It
    changes no value; the writer uses it to reduce those payments with one
    gcd of ledger-sized integers per round. The default 0 names no such
    factor.
    """

    def __init__(
        self, numerators: Mapping[int, int], den: int, rate: int = 0
    ) -> None:
        self.payers: Sequence[int] = list(numerators)
        self.amounts: list[int] = list(numerators.values())
        self.den = den
        self.rate = rate

    @classmethod
    def of(
        cls, payers: Sequence[int], amounts: list[int], den: int, rate: int = 0
    ) -> "Payments":
        """``payers[j]`` paying ``amounts[j] / den``; the lists are taken,
        not copied."""
        pays = cls.__new__(cls)
        pays.payers, pays.amounts, pays.den, pays.rate = payers, amounts, den, rate
        return pays

    @cached_property
    def numerators(self) -> dict[int, int]:
        return dict(zip(self.payers, self.amounts))

    @cached_property
    def _rationals(self) -> dict[int, Num]:
        den = self.den
        made = {n: Fraction(n, den) for n in set(self.amounts)}
        return dict(zip(self.payers, map(made.__getitem__, self.amounts)))

    def __getitem__(self, voter: int) -> Num:
        return self._rationals[voter]

    def __iter__(self) -> Iterator[int]:
        return iter(self.payers)

    def __len__(self) -> int:
        return len(self.payers)

    def __repr__(self) -> str:
        return repr(self._rationals)


@dataclass(frozen=True)
class PurchaseRecord:
    """One funding decision: which project, how much of it, at what price.

    ``alpha`` is the share bought this round by a fractional rule. An
    integral purchase buys the whole project and records 1, except a
    :func:`~eqshares.rules.bos` round, which records its quote's coverage
    (the share its supporters' balances covered). ``rho`` is the price per
    utility unit the buyers paid, or None when the purchase was funded
    centrally (completion tails pay from the leftover public budget, not
    from voter accounts). ``payments`` maps voter id to the amount charged
    this round; a voter-funded integral purchase's payments add up to the
    project's cost, a fractional one's to alpha times it. The rules record
    it as :class:`Payments`, the payers' integer numerators over one
    denominator, which equals the dict of the same rationals. ``overspent``
    lists voters whose payment exceeded their remaining balance.
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
    """Per-voter virtual balances on an integer ledger.

    Voter i's balance is ``work_units[i] / work_scale``: every balance is
    an integer over one shared working scale. The rules read these working
    integers and change them only through :meth:`debit` and
    :meth:`redistribute`. A change grows the scale to a common multiple of
    the old scale and the change's denominator; the common factor
    ``gcd(scale, *units)`` is divided out only when the scale's bit length
    passes ``2 * r + SLACK_BITS``, r being its bit length at the last
    reduction, so many purchases share one gcd pass. The working scale's
    bit length never exceeds that bound after an operation, whatever the
    ledger's size.

    The public views ``units``, ``scale`` and ``balances`` reduce the
    ledger before they are read, so ``scale`` is always the lcm of the
    balances' denominators. Balances are built nonnegative and a debit stops
    each one at zero, so no balance is ever negative.
    """

    __slots__ = ("work_units", "work_scale", "_limit")

    SLACK_BITS = 64

    def __init__(self, balances: Iterable[Num]) -> None:
        pairs = [b.as_integer_ratio() for b in balances]
        if any(num < 0 for num, _ in pairs):
            raise ValueError("balances must be nonnegative")
        scale = lcm(*(den for _, den in pairs))
        self._start([num * (scale // den) for num, den in pairs], scale)

    @classmethod
    def equal_endowment(cls, per_voter: Num, n_voters: int) -> "BudgetState":
        return cls.equal_units(*per_voter.as_integer_ratio(), n_voters)

    @classmethod
    def equal_units(cls, num: int, den: int, n_voters: int) -> "BudgetState":
        """``n_voters`` balances of ``num / den`` each, built from the one
        integer pair."""
        if num < 0:
            raise ValueError("endowment must be nonnegative")
        g = gcd(num, den)
        state = cls.__new__(cls)
        state._start([num // g] * n_voters, den // g)
        return state

    @classmethod
    def from_units(cls, units: list[int], scale: int) -> "BudgetState":
        """Balances ``units[i] / scale``, held over the least scale that
        serves them all (the list is taken, not copied)."""
        if units and min(units) < 0:
            raise ValueError("balances must be nonnegative")
        state = cls.__new__(cls)
        state._start(units, scale)
        state._reduce()
        return state

    def _start(self, units: list[int], scale: int) -> None:
        """Hold ``units`` over ``scale``, which is already minimal."""
        self.work_units, self.work_scale = units, scale
        self._limit = 2 * scale.bit_length() + self.SLACK_BITS

    @property
    def units(self) -> list[int]:
        """Every balance times :attr:`scale` (the working list, reduced)."""
        self._reduce()
        return self.work_units

    @property
    def scale(self) -> int:
        """The lcm of the balances' denominators."""
        self._reduce()
        return self.work_scale

    @property
    def balances(self) -> list[Num]:
        """Every voter's balance as an exact rational (a fresh list)."""
        scale = self.scale
        return [Fraction(u, scale) for u in self.work_units]

    def total(self) -> Num:
        return Fraction(sum(self.work_units), self.work_scale)

    def debit(
        self,
        payers: Iterable[int],
        weights: Iterable[int],
        rate: int,
        den: int,
        unit: int = 1,
    ) -> list[tuple[int, Num]]:
        """Take ``(weight // unit) * rate / den`` from each payer in turn,
        ``weights`` holding the payers' weights in the same order: a
        quote's uncapped payers with its ``unit`` and ``rate``, or its
        capped payers with their money at its ``cap``
        (:meth:`~eqshares.rules.AffordabilityQuote.charge`). Payers that
        hold one weight object, a run, share one product with the working
        scale, so all of an approval column's do. Payments of ``amount /
        den`` each are ``(payers, amounts, 1, den)``.

        A balance stops at zero. The result lists ``(voter, shortfall)``,
        in charge order, for each voter charged more than she held; the
        rules decide whether a shortfall is an overdraft or a fault. The
        ledger is then reduced only if its scale has passed the bound.

        The ledger is rescaled only when ``den`` does not divide the
        working scale. A full quote's ``den`` is the least its payments
        allow, so most of its debits skip the rescale.
        """
        scale = self.work_scale
        if scale % den:
            scale = lcm(scale, den)
            factor = scale // self.work_scale
            self.work_units = [u * factor for u in self.work_units]
            self.work_scale = scale
        # rate and the scale factor are multiplied once, so a run's product
        # is its weight's multiple of a ledger-sized integer.
        rate *= scale // den
        units = self.work_units
        short = []
        last = take = None
        for i, w in zip(payers, weights):
            if w is not last:
                last, take = w, w // unit * rate
            left = units[i] - take
            if left < 0:
                short.append((i, Fraction(-left, scale)))
                left = 0
            units[i] = left
        if scale.bit_length() > self._limit:
            self._reduce()
        return short

    def redistribute(self, leaving: Sequence[int], stayers: Sequence[int]) -> bool:
        """Empty the ``leaving`` voters' balances into equal shares for the
        ``stayers``; whether any money moved."""
        units = self.work_units
        pot = sum(units[i] for i in leaving)
        for i in leaving:
            units[i] = 0
        moved = bool(stayers) and pot > 0
        if moved:
            k = len(stayers)
            self.work_units = units = [u * k for u in units]
            self.work_scale *= k
            for i in stayers:
                units[i] += pot
        if self.work_scale.bit_length() > self._limit:
            self._reduce()
        return moved

    def _reduce(self) -> None:
        """Divide out the common factor of the scale and every unit."""
        scale = self.work_scale
        if scale > 1:
            g = gcd(scale, *self.work_units)
            if g > 1:
                self.work_units = [u // g for u in self.work_units]
                self.work_scale = scale = scale // g
        self._limit = 2 * scale.bit_length() + self.SLACK_BITS


def _row_utility(row: Mapping[int, Num], shares: Mapping[int, Num]) -> Num:
    """Sum of share·u over the funded projects in one ballot row."""
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
