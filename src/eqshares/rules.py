"""Deterministic participatory-budgeting rules with full round logs.

Five rule families operate on :class:`~eqshares.model.Election`:

* :func:`utilitarian` - greedy by total ballot score.
* :func:`mes` / :func:`add1u` - equal virtual endowments, cheapest-per-utility
  purchases, with an optional endowment-growing completion.
* :func:`fres` / :func:`fres_utilitarian_completion` - fractional purchases at
  a shared utility price, plus a value-for-money completion.
* :func:`bos` - integral purchases that may charge supporters beyond their
  balance, picking the best (price, coverage) quote each round.
* :func:`bos_plus` - a two-phase variant that converts the would-be
  overcharge into a temporary equal boost of everyone's balance.

The equal-shares rules pick each purchase through one lazy best-quote
selector (:class:`_LazyBest`): every project enters at its proportional
price, quotes are cached and recomputed only when a purchase may have
changed them, and the pick equals a full rescan's. Prices stay integer
pairs (:class:`_Key`) from the quote kernel to the pick; a normalised
``Fraction`` is built only when a record or a debug log reads one.

Floats decide a comparison only where a certificate proves them right,
and exact integers decide the rest: distinct correctly rounded floats
order like the rationals they round (:func:`_proposal`,
:func:`_ratio_keys`), and :func:`bos_quote`'s logs decide only outside a
margin above their proven error.

Every voter-funded purchase is an :class:`AffordabilityQuote` over the
moneyed supporters' units on one integer ledger
(:class:`~eqshares.model.BudgetState`) and their utilities in the
profile's cached integer columns. A quote checks that its payments add up
to what it buys and charges them through the ledger's one debit, straight
from its own integers; the debit stops each balance at zero and reports
who was charged more than she held.
:func:`_record` keeps the same integer numerators in the round record
(:class:`~eqshares.model.Payments`): the winner of a round, and in an
add1u scan only the winners of the kept probe.

All rules are pure functions: identical inputs give byte-identical logs.
Ties are resolved by an injectable total order on projects.
"""
from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from operator import itemgetter
from typing import (
    Callable, Generic, Iterable, Mapping, NamedTuple, Optional, Sequence,
    TypeVar,
)

from .model import (
    ONE,
    ZERO,
    BudgetState,
    Election,
    FractionalOutcome,
    Num,
    NumLike,
    Outcome,
    Payments,
    Project,
    PurchaseRecord,
    UtilityModel,
    UtilityProfile,
    _uniform,
    as_num,
)

__all__ = [
    "InvariantError",
    "TieBreaker",
    "RuleConfig",
    "AffordabilityQuote",
    "utilitarian",
    "min_rho",
    "mes",
    "add1u",
    "fres",
    "fres_utilitarian_completion",
    "bos_quote",
    "bos",
    "bos_plus",
    "RULE_NAMES",
    "run_rule",
]

logger = logging.getLogger(__name__)

Q = TypeVar("Q")


class InvariantError(RuntimeError):
    """A rule reached a state its construction rules out.

    Raised by explicit checks rather than ``assert``, so that the check
    also runs under ``python -O``.
    """


@dataclass(frozen=True)
class TieBreaker:
    """Total order on projects used to break exact ties.

    ``order`` lists project ids from most to least preferred; projects not
    listed come after all listed ones, in ascending id order. The default
    (no explicit order) is plain ascending project id.
    """

    order: tuple[int, ...] | None = None
    _positions: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))
            if len(set(self.order)) != len(self.order):
                raise ValueError("tie-break order contains duplicate project ids")
        object.__setattr__(
            self, "_positions", {c: k for k, c in enumerate(self.order or ())}
        )

    def rank(self, project: int) -> tuple[int, int]:
        """Sort key: lower rank wins a tie."""
        position = self._positions.get(project)
        return (1, project) if position is None else (0, position)


@dataclass(frozen=True)
class RuleConfig:
    """Per-run knobs shared by all rules.

    ``add1u_step`` is the endowment increment used by :func:`add1u`, in the
    instance's own currency. ``exhaustive_redistribution`` switches
    :func:`bos` to the variant that removes fully satisfied voters and
    splits their leftover balance equally among the rest.
    """

    tie_breaker: TieBreaker = TieBreaker()
    add1u_step: Num = Fraction(1)
    exhaustive_redistribution: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "add1u_step", as_num(self.add1u_step))
        if self.add1u_step <= 0:
            raise ValueError("add1u_step must be positive")


class _Key:
    """A selector key: the nonnegative rational ``num / den`` (den > 0) as
    an integer pair that is never normalised.

    Keys compare by exact cross-multiplication, so making one costs no gcd.
    The selectors consult them only where the correctly rounded floats of
    two keys (:func:`_proposal`) are equal; :meth:`value` is the normalised
    rational, for whatever reads a price.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        self.num = num
        self.den = den

    def __eq__(self, other: _Key) -> bool:  # type: ignore[override]
        return self.num * other.den == other.num * self.den

    def __lt__(self, other: _Key) -> bool:
        return self.num * other.den < other.num * self.den

    # Equal keys may be different pairs, so a key cannot hash by its pair.
    __hash__ = None  # type: ignore[assignment]

    def value(self) -> Num:
        return Fraction(self.num, self.den)


def _proposal(key: _Key) -> float:
    """The correctly rounded float of a key, or inf.

    Integer true division rounds correctly whatever the pair's size, and
    rounding is monotone: an exactly smaller key never gets a larger float,
    so ordering by (float, key) is ordering by key.
    """
    try:
        return key.num / key.den
    except OverflowError:
        return math.inf


@dataclass(eq=False, slots=True)
class AffordabilityQuote:
    """One purchase: a share ``alpha`` of a project at utility price
    ``rho``, with the per-voter payments that fund it.

    ``cost`` is what the payments add up to, as the integer pair
    (numerator, denominator): the project's cost (its
    :attr:`~eqshares.model.Project.cost_pair`), even for a bos quote whose
    coverage alpha is below 1, and alpha times it for a :func:`fres` share.
    ``key`` is rho/alpha, the price of one utility unit
    through this quote with the share accounted for, as the unnormalised
    integer pair its kernel found (:class:`_Key`); the selectors order
    quotes by it, and for a full purchase (alpha = 1) it is rho. ``ratio``
    and ``rho`` are the same prices as normalised rationals, each built
    once, when first read.

    A quote keeps the integers its kernel found: the moneyed supporters
    (in ascending b/u order whenever anybody is capped), their balances
    times ``m_scale`` and their utilities times the column scale. The first
    ``capped`` of them pay ``money * cap / den`` and the rest pay
    ``(weight // unit) * rate / den``, which is u * rho (u * alpha * rho for
    a fres share); ``unit`` divides every uncapped weight, and is 1 except
    in a full quote (:func:`_full_quote`), whose ``den`` is then the least
    its payments allow. ``uniform`` is whether every weight is the same,
    as :func:`_moneyed` read it. These integers are the payments:
    :meth:`charge` checks that they add up to ``cost`` and debits them
    straight from ``money`` and ``weights``, each balance stopping at
    zero, with one product per run of a shared weight (one for all of a
    ``uniform`` quote's uncapped payers) and no payment list, and reports
    every voter charged more than she held. ``payments`` is a
    :class:`~eqshares.model.Payments` over ``voters`` and the numerator
    list of the same integers (:meth:`_amounts`), made only when a round
    record reads it; the record builds a mapping from it only when that is
    read. It carries ``rate`` too, the factor every uncapped numerator
    shares, so the record writer reduces those numerators with one gcd of
    ledger-sized integers per round.
    """

    project: int
    alpha: Num
    key: _Key
    voters: Sequence[int]
    money: Sequence[int]
    weights: list[int]
    capped: int
    cap: int
    rate: int
    den: int
    m_scale: int
    cost: tuple[int, int]
    unit: int = 1
    uniform: bool = False
    _ratio: Optional[Num] = field(default=None, init=False, repr=False)
    _rho: Optional[Num] = field(default=None, init=False, repr=False)

    @property
    def ratio(self) -> Num:
        if self._ratio is None:
            self._ratio = self.key.value()
        return self._ratio

    @property
    def rho(self) -> Num:
        if self._rho is None:
            ratio = self.ratio
            self._rho = ratio if self.alpha == 1 else ratio * self.alpha
        return self._rho

    def _amounts(self) -> list[int]:
        """Payment numerators over ``den``, one per voter of ``voters``:
        the capped voters' own, then one product per run of a shared
        weight, which every voter of the run holds. Only a round record
        reads them (``payments``); :meth:`charge` checks their sum."""
        s, weights = self.capped, self.weights
        k = len(weights)
        pays = list(map(self.cap.__mul__, self.money[:s])) if s else []
        if s < k:
            unit, rate = self.unit, self.rate
            if self.uniform:
                pays += [weights[s] // unit * rate] * (k - s)
            else:
                last = pay = None
                for w in weights[s:]:
                    if w is not last:
                        last, pay = w, w // unit * rate
                    pays.append(pay)
        return pays

    @property
    def payments(self) -> Payments:
        return Payments.of(self.voters, self._amounts(), self.den, self.rate)

    def charge(self, budgets: BudgetState) -> list[tuple[int, Num]]:
        """Debit the payments from ``budgets`` straight from the quote's
        integers, with no payment list, and return the debit's shortfalls
        (:meth:`BudgetState.debit`): the capped voters with their money at
        rate ``cap``, then the others with their weights at ``rate``.

        Raises :class:`InvariantError` first unless the payments add up to
        ``cost`` exactly: cap * sum(capped money) + rate * sum(weight //
        unit) over ``den``, where ``unit`` divides every uncapped weight.
        """
        s, weights, unit = self.capped, self.weights, self.unit
        k = len(weights)
        if self.uniform:
            shares = weights[0] // unit * (k - s)
        else:
            shares = sum(weights[s:] if s else weights) // unit
        paid = 0
        if s:
            head, cap = self.money[:s], self.cap
            paid = cap * sum(head)
        voters, rate, den = self.voters, self.rate, self.den
        num, cost_den = self.cost
        if (paid + rate * shares) * cost_den != num * den:
            raise InvariantError(
                f"payments for project {self.project} do not add up to its cost"
            )
        if not s:
            return budgets.debit(voters, weights, rate, den, unit)
        short = budgets.debit(voters[:s], head, cap, den)
        if s < k:
            short += budgets.debit(voters[s:], weights[s:], rate, den, unit)
        return short

    def drained(self) -> int:
        """How many voters u * rho would drain (b <= u * rho), for a
        partial quote (alpha < 1).

        Its voters are in ascending b/u order, so these are a prefix of
        them, and its ``unit`` is 1.
        """
        money, weights, rate = self.money, self.weights, self.rate
        factor = self.den // self.m_scale
        return bisect_left(
            range(len(money)), True,
            key=lambda j: money[j] * factor > weights[j] * rate,
        )


# A project's moneyed supporters: (voters, money, weights, due, m_scale,
# u_scale, total_w, uniform).
_Moneyed = tuple[
    Sequence[int], Sequence[int], list[int], int, int, int, int, bool
]


def _moneyed(
    project: Project,
    budgets: BudgetState,
    utilities: UtilityProfile,
    full: bool = False,
) -> Optional[_Moneyed]:
    """The project's moneyed supporters as integers: ``(voters, money,
    weights, due, m_scale, u_scale, total_w, uniform)``. None if there are
    none, or, when ``full``, if their balances together fall short of the
    cost; that is decided before anything else is made.

    money[j] = b_j * m_scale, weights[j] = u_j * u_scale and
    due = cost * m_scale, where m_scale is the lcm of the ledger's working
    scale and the cost's denominator and u_scale is the column's scale
    (:attr:`UtilityProfile.columns`). ``total_w`` is ``sum(weights)`` and
    ``uniform`` whether every weight is the same; when no supporter is
    broke they are the column's own (:attr:`UtilityProfile.column_sums`).
    Sums of these integers are exact sums of the rationals, and ratios of
    them order and price exactly like the rationals. The cost comes from
    :attr:`~eqshares.model.Project.cost_pair`, read once per project.
    """
    c = project.id
    voters, weights, u_scale = utilities.columns[c]
    units, scale = budgets.work_units, budgets.work_scale
    # itemgetter gathers in C; of one item it returns the item itself.
    money = (
        itemgetter(*voters)(units) if len(voters) > 1
        else [units[i] for i in voters]
    )
    num, den = project.cost_pair
    if full and sum(money) * den < num * scale:
        return None
    # Balances never go negative, so a nonzero balance is a positive one.
    # The filters run in C: a Python-level pass over (voter, weight, money)
    # triples is slower.
    if 0 in money:
        voters = list(compress(voters, money))
        weights = list(compress(weights, money))
        money = list(filter(None, money))
        if not money:
            return None
        total_w, uniform = sum(weights), _uniform(weights)
    elif money:
        total_w, uniform = utilities.column_sums[c]
    else:
        return None
    m_scale = scale
    if scale % den:
        m_scale = math.lcm(scale, den)
        factor = m_scale // scale
        money = [m * factor for m in money]
    return (
        voters, money, weights, num * (m_scale // den), m_scale, u_scale,
        total_w, uniform,
    )


def _ratio_keys(
    num: Sequence[int], den: Sequence[int], shift: int = 0
) -> list[float] | list[Fraction]:
    """Keys of the positive ratios num[j] / den[j]: each ratio times
    2**-shift (shift >= 0), correctly rounded, by one integer true division.

    Integer true division rounds correctly whatever the operands' size, and
    rounding is monotone, so of two ratios the exactly smaller one never
    gets the larger key, and keys that differ order their ratios. If any key
    overflows a float, every key is the exact ``Fraction`` num[j] / den[j]
    instead (the constant is then 1), which orders and compares the same
    way.
    """
    try:
        if shift:
            return [n / (d << shift) for n, d in zip(num, den)]
        return [n / d for n, d in zip(num, den)]
    except OverflowError:
        return [Fraction(n, d) for n, d in zip(num, den)]


def _ratio_order(
    money: list[int],
    weights: list[int],
    keys: Optional[list[float] | list[Fraction]] = None,
) -> list[int]:
    """Indices in ascending money/weight order (b/u order, as b/u is
    money/weight times u_scale / m_scale), exact and stable.

    ``keys`` are :func:`_ratio_keys` of these ratios; when none are given
    and every weight is the same (:func:`~eqshares.model._uniform`), the
    result is the stable integer sort of ``money``. Otherwise the keys only
    propose the order: every run of equal keys whose members are not all
    exactly equal is re-sorted by the exact ratio, and exactly equal ones
    stay in supporter order, as a stable exact sort leaves them.
    ``stats`` orders aggregated metric values num/den with it.
    """
    k = len(money)
    if keys is None:
        if _uniform(weights):
            return sorted(range(k), key=money.__getitem__)
        keys = _ratio_keys(money, weights)
    order = sorted(range(k), key=keys.__getitem__)
    if len(set(keys)) == k:
        return order
    start = 0
    for end in range(1, k + 1):
        if end < k and keys[order[end]] == keys[order[start]]:
            continue
        if end - start > 1:
            run = order[start:end]
            m0, w0 = money[run[0]], weights[run[0]]
            if any(money[j] * w0 != m0 * weights[j] for j in run):
                run.sort(key=lambda j: Fraction(money[j], weights[j]))
                order[start:end] = run
        start = end
    return order


# Whom a full purchase caps: (voters, money, weights, s, rest, rest_w, sums).
_Prefix = tuple[
    Sequence[int], Sequence[int], list[int], int, int, int,
    Optional[tuple[list[int], list[int]]],
]


def _capped_prefix(sup: _Moneyed) -> Optional[_Prefix]:
    """Whom a full purchase caps, from :func:`_moneyed`'s integers: None
    when nobody is, else the supporters in ascending b/u order and s.

    A full purchase caps the first s supporters at their balance and
    charges the rest u * rho_s, where rho_s = rest / rest_w, ``rest``
    being the cost (times m_scale) less the first s balances and
    ``rest_w`` the weight of the others. s = len(money) when all of them
    together fall short.

    Nobody is capped at the fully proportional price cost / sum(u)
    exactly when every b/u is at least that price. With equal weights
    every voter then owes due / k, so the poorest one decides. Otherwise
    one key pass decides (:func:`_ratio_keys`): every supporter's b/u and
    the proportional price get a correctly rounded float, all times one
    power of two. Rounding is monotone, so a least key above the price's
    key proves that nobody is capped and one below it proves that
    somebody is; only keys equal to the price's are checked in exact
    integers. On overflow the keys are exact ``Fraction`` values, and the
    same test reads them.

    When somebody is capped, the supporters go in ascending b/u order
    (:func:`_ratio_order`, on the same keys; balance order when the weights
    are equal, which then stay as they are), and s is the first index
    whose voter is uncapped (rho_s * u_s <= b_s), checked in exact
    integers. The check is monotone in s: if it holds at s then rho_{s+1}
    <= rho_s <= b_s/u_s <= b_{s+1}/u_{s+1}, so it holds at s + 1, and
    bisection finds s; the first voter, whose b/u is below the price, is
    capped. With equal weights the weight of the first j voters is j
    times the one weight, so the bisection keeps only the money below its
    lower end, adding that of each half it moves past, and makes no list.
    Otherwise it reads lists of prefix sums of the money and weights,
    ``sums``, which :func:`bos_quote`'s scan reads too; None when the
    weights are equal.
    """
    voters, money, weights, due, m_scale, u_scale, total_w, uniform = sup
    k = len(money)
    if uniform:
        if min(money) * k >= due:
            return None
        order = sorted(range(k), key=money.__getitem__)
        if k > 1:  # else the one supporter is in order already
            reorder = itemgetter(*order)
            money, voters = reorder(money), reorder(voters)
        # uncapped(j), over the one weight: due - paid_j <= money[j] * (k - j).
        lo, hi, paid = 1, k, money[0]
        while lo < hi:
            mid = (lo + hi) // 2
            paid_mid = paid + sum(money[lo:mid])
            if due - paid_mid <= money[mid] * (k - mid):
                hi = mid
            else:
                lo, paid = mid + 1, paid_mid + money[mid]
        return (
            voters, money, weights, lo, due - paid, total_w - lo * weights[0],
            None,
        )
    # Keys of every b/u and, last, of cost / sum(u), all times one constant
    # below 2**961, so that they stay in float range at any ledger scale. A
    # shift makes the divisors long, so small scales take none.
    keys = _ratio_keys(
        [*money, due], [*weights, total_w],
        max(0, m_scale.bit_length() - u_scale.bit_length() - 960),
    )
    bar = keys.pop()
    low = min(keys)
    if low > bar or low == bar and all(
        w * due <= m * total_w
        for m, w, key in zip(money, weights, keys) if key == bar
    ):
        return None
    order = _ratio_order(money, weights, keys)
    money = [money[j] for j in order]
    weights = [weights[j] for j in order]
    paid = list(accumulate(money, initial=0))
    held = list(accumulate(weights, initial=0))

    def uncapped(j: int) -> bool:
        return (due - paid[j]) * weights[j] <= money[j] * (total_w - held[j])

    s = bisect_left(range(k), True, lo=1, key=uncapped)
    return (
        [voters[j] for j in order], money, weights, s, due - paid[s],
        total_w - held[s], (paid, held),
    )


def _full_quote(
    project: Project, sup: _Moneyed, prefix: Optional[_Prefix]
) -> AffordabilityQuote:
    """Quote for alpha = 1 from :func:`_moneyed`'s integers and their
    :func:`_capped_prefix`: the first s voters pay their balance, and the
    rest, of weight rest_w, share rest (the cost left, times m_scale) in
    proportion to their weights, at rho = rest * u_scale / (m_scale *
    rest_w), kept as that pair. When nobody is capped (``prefix`` None)
    the supporters stay in column order, s = 0, rest is ``due`` and
    rest_w is ``total_w``.

    Its payments come over the least denominator they allow, so a ledger
    whose scale it divides debits them without rescaling. With ``unit`` the
    gcd of the uncapped weights (their one weight if ``uniform``), a payer
    of weight w pays (w / unit) * rate / den, rate / den being unit * rest /
    (m_scale * rest_w) in lowest terms; as the w / unit have gcd 1, den is
    the lcm of these payments' own denominators. A capped voter pays
    money / m_scale, so then den becomes lcm(den, m_scale) = cap * m_scale
    and rate grows by the same factor.
    """
    voters, money, weights, due, m_scale, u_scale, total_w, uniform = sup
    s, rest, rest_w = 0, due, total_w
    if prefix is not None:
        voters, money, weights, s, rest, rest_w, _ = prefix
    unit = weights[s] if uniform else math.gcd(*weights[s:])
    g = math.gcd(unit * rest, m_scale * rest_w)
    rate, den, cap = unit * rest // g, m_scale * rest_w // g, 0
    if s:
        h = math.gcd(den, m_scale)
        cap = den // h
        rate *= m_scale // h
        den = cap * m_scale
    return AffordabilityQuote(
        project.id, ONE, _Key(rest * u_scale, m_scale * rest_w), voters,
        money, weights, s, cap, rate, den, m_scale, project.cost_pair, unit,
        uniform,
    )


def min_rho(
    project: Project,
    budgets: BudgetState,
    utilities: UtilityProfile,
) -> Optional[AffordabilityQuote]:
    """Cheapest full purchase of ``project`` from its supporters' balances.

    Finds the smallest price rho such that charging every supporter
    min(b_i, u_i * rho) raises exactly the project's cost, or None when the
    supporters' combined balances fall short. Voters with the highest
    balance-to-utility ratio pay proportionally; the rest are capped at
    their full balance.

    Every decision is exact: the moneyed supporters' balances are read
    straight from the ledger's units and their utilities from the
    profile's cached integer column (:func:`_moneyed`), so sums are integer
    sums, a column's weights are summed once per profile, and a float
    decides only where it is certified (:func:`_capped_prefix`).
    The price stays an unnormalised integer pair, the quote's ``key``, and
    becomes a rational only when ``rho`` is read. Short supporters are
    turned away before anything is filtered or sorted. Otherwise
    :func:`_capped_prefix`, the search :func:`bos_quote`
    shares, finds whom the purchase caps: nobody when nobody is capped at
    the fully proportional price, and the quote is then made from the
    moneyed supporters' integers as they are, else a prefix of the b/u
    order found by bisection on an exact monotone check. The quote's
    payments are built only when read, over the least denominator they
    allow (:func:`_full_quote`). The price is never below the project's
    proportional price (:func:`_floors`), the bound at which the selectors
    enter it.
    """
    sup = _moneyed(project, budgets, utilities, True)
    if sup is None:
        return None
    return _full_quote(project, sup, _capped_prefix(sup))


def _floors(election: Election) -> list[_Key]:
    """Each project's fully proportional price cost / (sum of its
    utilities), read from the cached columns, as the selector key at which
    every selector enters it; 0 for an unsupported project.

    It is a lower bound on every selector key under any balances. A quote's
    payments add up to the cost and none exceeds u * rho, so rho >= cost /
    (moneyed support) >= this price; a :func:`bos_quote` ratio rho / alpha
    is at least its rho, and a :func:`fres` price cost / (active support)
    at least this one. Each price is in lowest terms, and equal prices are
    one shared key.
    """
    shared: dict[tuple[int, int], _Key] = {}
    floors = []
    for project, (_, _, scale), (total, _) in zip(
        election.projects, election.utilities.columns,
        election.utilities.column_sums,
    ):
        num, den = project.cost_pair
        num, den = (num * scale, den * total) if total else (0, 1)
        g = math.gcd(num, den)
        pair = (num // g, den // g)
        floors.append(shared.setdefault(pair, _Key(*pair)))
    return floors


def _cost_units(election: Election) -> tuple[list[int], int]:
    """Each project's cost and the budget as integers over one shared
    denominator, so a running spend is one integer sum. Every integral
    rule keeps its public budget in these units."""
    pairs = [p.cost_pair for p in election.projects]
    b_num, b_den = election.budget.as_integer_ratio()
    scale = math.lcm(b_den, *(den for _, den in pairs))
    return [num * (scale // den) for num, den in pairs], b_num * (scale // b_den)


# A selector heap entry: (float of the bound, bound, tie rank, project).
_Entry = tuple[float, _Key, tuple[int, int], int]


class _LazyBest(Generic[Q]):
    """Lazy best-quote selection over a live set of projects, after
    Minoux's lazy greedy (1978, "Accelerated greedy algorithms").

    ``quote(c)`` prices project c, or returns None when c cannot be bought;
    the smallest (``quote.key``, ``tie.rank(c)``) wins, keys being
    :class:`_Key` pairs. A heap holds (float of the bound, lower bound on
    the key, rank, c) entries; quotes stay cached until :meth:`stale`
    forgets them. The float is correctly rounded (:func:`_proposal`), so it
    orders the heap like the exact bound and leaves exact comparisons,
    integer cross-multiplications, to entries whose floats are equal.
    The caller retires a project for good by removing it from ``live``.

    Project c enters at ``floors[c]``, a lower bound on its key under any
    balances (every rule passes :func:`_floors`). A fresh quote whose key
    equals its bound keeps the bound's object; as equal floors are one
    object too, equal bounds in the heap compare by identity.

    Invariant the caller keeps: between two :meth:`stale` calls naming c,
    c's key can only grow, and a None quote stays None. Every bound then
    stays a lower bound, so a heap top that carries its project's cached
    key (that very object; older entries are discarded) is the pick of a
    full rescan. When keys may fall, build a new selector over ``live``.

    ``heap``, when given, is the selector's starting heap, made by
    :meth:`floor_heap` over exactly ``live`` and ``floors``; the selector
    takes it over.
    """

    __slots__ = ("_quote", "_cached", "live", "_heap")

    def __init__(
        self,
        tie: TieBreaker,
        quote: Callable[[int], Optional[Q]],
        live: Iterable[int],
        floors: Sequence[_Key],
        heap: Optional[list[_Entry]] = None,
    ) -> None:
        self._quote = quote
        self._cached: dict[int, Optional[tuple[_Key, Q]]] = {}
        self.live = set(live)
        if heap is None:
            heap = self.floor_heap(tie, self.live, floors)
        self._heap = heap

    @staticmethod
    def floor_heap(
        tie: TieBreaker, projects: Iterable[int], floors: Sequence[_Key]
    ) -> list[_Entry]:
        """A heap entering each project c at ``floors[c]``, with its tie
        rank."""
        rank = tie.rank
        heap = [(_proposal(b := floors[c]), b, rank(c), c) for c in projects]
        heapq.heapify(heap)
        return heap

    def best(self) -> Optional[Q]:
        """The best live quote; its project stays live and in the heap."""
        heap, cached, live = self._heap, self._cached, self.live
        while heap:
            proposal, bound, rank, c = heap[0]
            if c in live:
                if c not in cached:
                    quote = self._quote(c)
                    if quote is None:
                        cached[c] = None
                    else:
                        key = quote.key
                        if (fkey := _proposal(key)) == proposal and (
                            key.num * bound.den == bound.num * key.den
                        ):
                            # The top entry already carries the exact key.
                            cached[c] = (bound, quote)
                            return quote
                        cached[c] = (key, quote)
                        heapq.heapreplace(heap, (fkey, key, rank, c))
                        continue
                elif (entry := cached[c]) is not None and entry[0] is bound:
                    return entry[1]
            heapq.heappop(heap)
        return None

    def stale(self, projects: Iterable[int]) -> None:
        """Forget the quotes of projects whose key may have risen."""
        for c in projects:
            self._cached.pop(c, None)


def _record(
    quote: AffordabilityQuote, shortfalls: Iterable[tuple[int, Num]] = ()
) -> PurchaseRecord:
    """The round record of a voter-funded purchase; it keeps the voters of
    the debit's ``shortfalls`` (:meth:`AffordabilityQuote.charge`), sorted."""
    return PurchaseRecord(
        quote.project, quote.alpha, quote.rho, quote.payments,
        tuple(sorted(i for i, _ in shortfalls)),
    )


def _outcome(records: Sequence[PurchaseRecord], feasible: bool = True) -> Outcome:
    """The integral outcome selecting the recorded projects in order."""
    return Outcome(tuple(r.project for r in records), tuple(records), feasible)


def _utilitarian_tail(
    election: Election, config: RuleConfig, start: Outcome = Outcome((), ())
) -> Outcome:
    """Extend an outcome with still-affordable projects by descending
    total score.

    Tail purchases are funded centrally from the leftover public budget
    (rho is None, no voter payments), counted in :func:`_cost_units`.
    """
    totals = election.scores.project_totals
    tie = config.tie_breaker
    rounds = list(start.rounds)
    costs, left = _cost_units(election)
    left -= sum(costs[c] for c in start.selected)
    chosen = set(start.selected)
    ranked = sorted(
        (c for c in range(len(costs)) if c not in chosen),
        key=lambda c: (-totals[c], tie.rank(c)),
    )
    for c in ranked:
        if costs[c] <= left:
            left -= costs[c]
            rounds.append(PurchaseRecord(c, ONE, None, {}))
    return _outcome(rounds)


def utilitarian(election: Election, config: RuleConfig = RuleConfig()) -> Outcome:
    """Greedy selection by descending total ballot score.

    Projects are ranked by the sum of raw scores over all voters (vote
    count under approvals) regardless of the election's utility model;
    each project whose cost still fits is added. The result is exhaustive
    by construction: every skipped project stayed unaffordable forever.
    """
    return _utilitarian_tail(election, config)


def _equal_shares(
    election: Election,
    config: RuleConfig,
    num: int,
    den: int,
    floors: Sequence[_Key],
    costs: tuple[list[int], int],
    heap: Optional[list[_Entry]] = None,
    near: Optional[dict[int, Sequence[int]]] = None,
    stop: bool = False,
) -> tuple[list[AffordabilityQuote], bool]:
    """The MES purchase loop from an endowment of num / den per voter.

    Returns the quote of each purchase in order, and whether the
    money spent stays within the budget. ``floors`` are the election's
    :func:`_floors` and ``costs`` its :func:`_cost_units`, from which the
    loop keeps a running spend: the sum of the costs bought so far, one
    integer. Each purchase's payments add up to its cost, so this is the
    money that left the ledger. Spending only rises, so with ``stop`` the
    loop returns ``(bought, False)`` at the purchase that takes the spend
    past the budget, that purchase kept; without it the loop buys to the
    end. ``heap``, if given, is a fresh :meth:`_LazyBest.floor_heap` over
    every project at those floors, which the loop consumes. ``near`` maps
    a project to the projects its supporters value (a range when that is
    every project), as far as found; the loop fills it, and the probes of
    an add1u scan share one.
    """
    utilities = election.utilities
    supporters, supported_by = utilities.supporters, utilities.supported_by
    budgets = BudgetState.equal_units(num, den, election.n_voters)
    projects = election.projects
    everything = range(len(projects))
    # Balances only fall, so prices only rise and short supporters stay
    # short; only projects sharing a payer can see their price move.
    selector = _LazyBest(
        config.tie_breaker,
        lambda c: min_rho(projects[c], budgets, utilities),
        everything,
        floors,
        heap,
    )
    next_best, stale, live = selector.best, selector.stale, selector.live
    if near is None:
        near = {}
    debug = logger.isEnabledFor(logging.DEBUG)
    cost_units, budget = costs
    spent = 0
    bought = []
    while (best := next_best()) is not None:
        c, voters = best.project, best.voters
        if debug:
            logger.debug("mes: buy %d at rho=%s", c, best.rho)
        # Nobody pays more than min(b, u * rho), so nobody falls short.
        for i, _ in best.charge(budgets):
            raise InvariantError(f"mes: voter {i} overdrawn buying {c}")
        bought.append(best)
        spent += cost_units[c]
        if stop and spent > budget:
            return bought, False
        if len(voters) == len(supporters[c]):
            # Every supporter pays: the projects they value are c's own.
            touched = near.get(c)
            if touched is None:
                found = supported_by(voters)
                touched = near[c] = (
                    everything if len(found) == len(everything) else tuple(found)
                )
        else:
            touched = supported_by(voters)
        stale(touched)
        live.discard(c)
    return bought, spent <= budget


def mes(
    election: Election,
    config: RuleConfig = RuleConfig(),
    b_ini: NumLike | None = None,
) -> Outcome:
    """Sequential purchases from equal virtual endowments.

    Every voter starts with ``b_ini`` (default: budget / n). Each round buys
    the project whose cheapest full purchase has minimal price rho, charging
    each supporter min(b_i, u_i * rho); the rule stops when no project's
    supporters can cover its cost. With the default endowment the outcome
    never exceeds the budget; larger endowments are allowed for diagnostic
    probing and may yield an outcome flagged infeasible. Such an outcome
    holds every purchase, not only those up to the one that overspent.
    """
    endowment = (
        election.budget / election.n_voters if b_ini is None else as_num(b_ini)
    )
    if endowment <= 0:
        raise ValueError("initial endowment must be positive")
    bought, feasible = _equal_shares(
        election, config, *endowment.as_integer_ratio(), _floors(election),
        _cost_units(election),
    )
    return _outcome([_record(quote) for quote in bought], feasible)


def add1u(election: Election, config: RuleConfig = RuleConfig()) -> Outcome:
    """Equal-shares selection completed by endowment growth plus a greedy tail.

    Reruns the :func:`mes` loop with per-voter endowments b/n, b/n + step,
    ... and keeps the outcome of the last endowment that stayed within the
    budget. The scan is a plain linear walk: feasibility is not monotone in
    the endowment, so no bisection is sound. It stops at the first
    infeasible probe, or once the endowment reaches the full budget, at
    which point any single supporter could buy any affordable project alone.
    Finally, projects that still fit are appended in descending total score
    order.

    A probe keeps each purchase's quote as it stands, with the integers it
    charged from; only the kept probe's quotes become round records.
    Spending only rises within a probe, so a probe ends at the purchase
    that takes its spend past the budget: the scan discards it whatever it
    would buy next. The probes share one initial
    selector heap, the costs as integers over one denominator and one map
    from project to the projects its supporters value.
    """
    n = election.n_voters
    b_num, b_den = election.budget.as_integer_ratio()
    s_num, s_den = config.add1u_step.as_integer_ratio()
    # Endowments as integers over one scale: b/n is units / scale, the
    # step inc / scale and the budget full / scale.
    scale = n * b_den * s_den
    units, inc, full = b_num * s_den, s_num * b_den * n, b_num * s_den * n
    floors, costs = _floors(election), _cost_units(election)
    heap = _LazyBest.floor_heap(
        config.tie_breaker, range(len(election.projects)), floors
    )

    near: dict[int, Sequence[int]] = {}

    def probe(num: int) -> tuple[list[AffordabilityQuote], bool]:
        return _equal_shares(
            election, config, num, scale, floors, costs, list(heap), near,
            stop=True,
        )

    kept, feasible = probe(units)
    if not feasible:
        raise InvariantError("add1u: mes at the equal share b/n overspent")
    probes, kept_units = 1, units
    while True:
        units += inc
        bought, feasible = probe(units)
        probes += 1
        if not feasible:
            break
        kept, kept_units = bought, units
        if units >= full:
            break
    logger.debug(
        "add1u: %d probes, kept endowment %s",
        probes, Fraction(kept_units, scale),
    )
    return _utilitarian_tail(
        election, config, _outcome([_record(q) for q in kept])
    )


class _FresPrice(NamedTuple):
    """A :func:`fres` quote: the price cost / (active support) of a project."""

    key: _Key
    project: int


def fres(election: Election, config: RuleConfig = RuleConfig()) -> FractionalOutcome:
    """Fractional purchases at a shared per-utility price.

    All voters start with budget / n. Each round picks the project with the
    smallest price rho = cost / (total remaining support), buys the largest
    share alpha that neither exceeds the project's remaining gap to full
    funding nor overdraws any active supporter, and charges every active
    voter alpha * rho * u_i. Voters whose balance reaches zero drop out of
    the pricing; the rule ends when no partially funded project has any
    remaining support. A voter is active exactly while her balance is
    nonzero. Each share is bought as an uncapped
    :class:`AffordabilityQuote` costing alpha times the project's cost.
    """
    utilities = election.utilities
    n = election.n_voters
    budgets = BudgetState.equal_endowment(election.budget / n, n)
    projects = election.projects
    columns = utilities.columns
    # Per-project support of the active voters, in the column's integer
    # weights, kept incrementally. It only falls, so prices only rise, and
    # only when a supporter drains.
    support = [total for total, _ in utilities.column_sums]
    # The price cost / support is the pair cost * scale over support.
    costs = [
        (p.cost.numerator * scale, p.cost.denominator)
        for p, (_, _, scale) in zip(projects, columns)
    ]
    selector = _LazyBest(
        config.tie_breaker,
        lambda c: (
            _FresPrice(_Key(costs[c][0], costs[c][1] * support[c]), c)
            if support[c] else None
        ),
        range(len(projects)),
        _floors(election),
    )
    fractions: dict[int, Num] = {}
    purchases: list[PurchaseRecord] = []
    while (best := selector.best()) is not None:
        key, c = best
        rho = key.value()
        # The supporters still pricing c are exactly its moneyed ones.
        voters, money, weights, _, m_scale, u_scale, _, uniform = _moneyed(
            projects[c], budgets, utilities
        )
        # The largest share every payer affords is min b / (rho * u), at the
        # payer with the least money / weight.
        low_m, low_w = money[0], weights[0]
        if uniform:
            low_m = min(money)
        else:
            for m, w in zip(money, weights):
                if m * low_w < low_m * w:
                    low_m, low_w = m, w
        gap = ONE - fractions.get(c, ZERO)
        alpha = min(gap, Fraction(low_m * u_scale, m_scale * low_w) / rho)
        logger.debug("fres: buy %s of %d at rho=%s", alpha, c, rho)
        # Each payer pays alpha * rho * u = weight * rate / (den * u_scale).
        rate, den = (alpha * rho).as_integer_ratio()
        quote = AffordabilityQuote(
            c, alpha,
            _Key(key.num * alpha.denominator, key.den * alpha.numerator),
            voters, money, weights, 0, 0, rate, den * u_scale, m_scale,
            (alpha * projects[c].cost).as_integer_ratio(), 1, uniform,
        )
        for i, _ in quote.charge(budgets):
            raise InvariantError(f"fres: voter {i} overdrawn buying {c}")
        purchases.append(_record(quote))
        fractions[c] = fractions.get(c, ZERO) + alpha
        if fractions[c] == 1:
            selector.live.discard(c)
        units = budgets.work_units
        for i in voters:
            if not units[i]:
                row = utilities.support_set(i)
                for d, u in row.items():
                    support[d] -= u.numerator * (columns[d][2] // u.denominator)
                selector.stale(row)
    return FractionalOutcome(fractions, tuple(purchases))


def fres_utilitarian_completion(
    election: Election,
    partial: FractionalOutcome,
    config: RuleConfig = RuleConfig(),
) -> FractionalOutcome:
    """Spend the leftover budget on the best value-for-money projects.

    Partially funded projects are raised toward full funding in descending
    order of total utility per unit cost (vote count under the cost model),
    with one final partial purchase that exactly exhausts the budget.
    Completion purchases are centrally funded: rho is None and no voter
    account is charged.
    """
    utilities = election.utilities
    tie = config.tie_breaker
    fractions = dict(partial.fractions)
    purchases = list(partial.purchases)
    remaining = election.budget - election.spent(partial)
    if remaining < 0:
        raise ValueError("partial outcome already exceeds the budget")
    totals = utilities.project_totals
    ranked = sorted(
        (p for p in election.projects if fractions.get(p.id, ZERO) < 1),
        key=lambda p: (-(totals[p.id] / p.cost), tie.rank(p.id)),
    )
    for project in ranked:
        if remaining == 0:
            break
        gap = ONE - fractions.get(project.id, ZERO)
        delta = min(gap, remaining / project.cost)
        if delta > 0:
            fractions[project.id] = fractions.get(project.id, ZERO) + delta
            remaining -= delta * project.cost
            purchases.append(PurchaseRecord(project.id, delta, None, {}))
    return FractionalOutcome(fractions, tuple(purchases))


# bos_quote's filter margin per operand bit: within it, exact integers
# decide. It is over 200 times the filter's proven error (see bos_quote).
_LOG_MARGIN = 2.0**-40


def bos_quote(
    project: Project,
    budgets: BudgetState,
    utilities: UtilityProfile,
) -> Optional[AffordabilityQuote]:
    """Best (alpha, rho) purchase quote for one project.

    A quote buys a share alpha of the project at per-utility price rho,
    charging each moneyed supporter min(b_i, alpha * u_i * rho) / alpha so
    the payments cover the full cost; when alpha < 1 a capped voter's
    payment exceeds her balance. Among all consistent quotes the one
    minimizing rho / alpha is returned, preferring larger alpha and then
    smaller rho on exact ties. Only prices at which some voter's cap binds,
    plus the fully proportional price, can be optimal, so exactly those are
    examined. Returns None when no supporter has money. It only prices:
    whether the project still fits the budget is the rule's to decide
    (:func:`_spend`).

    It finds whom a full purchase caps with :func:`min_rho`'s search
    (:func:`_capped_prefix`), on the same integers, and the payments are
    built only when read. The cap-price candidates pass a float filter
    with a proven error bound (Shewchuk 1997, "Adaptive precision
    floating-point arithmetic and fast robust geometric predicates").
    Candidate j's rho / alpha is mw_j / r_j**2 times a factor common to all
    of them (see the scan), so f_j = log(mw_j) - 2 * log(r_j) is compared
    with the best candidate's. Where the gap is beyond ``margin`` the float
    decides; within it the exact integer products and the tie rule decide,
    as they do for every candidate of an exact tie.

    The bound. Let u = 2**-53 and n = bit length of ``due`` plus that of
    ``total_w``. Every operand is a positive integer below 2**n: a capped
    voter's money is below due, so mw_j < due * total_w, and r_j < due *
    w_j since alpha_j < 1. CPython's ``math.log`` of an int N below 2**1024
    takes the log of N's nearest float; beyond that it rounds N to a
    53-bit mantissa x with N ~ x * 2**e (frexp, e <= n) and returns log(x)
    + log(2) * e. With a libm log within one ulp, the first is within
    2u(n + 1) of ln N. The second is within 4u (mantissa rounding and
    log(x)) + 2.2ue (log(2) and its product with e) + u(0.7n + 1) (the
    sum), so within 5u(n + 1); the error grows with the bit length. Each
    f is then within 5u(n + 1) + 10u(n + 1) + 1.5u(n + 1) (its
    subtraction) of its exact value, and the gap within 2 * 16.5u(n + 1)
    + 3u(n + 1) (its subtraction) = 36u(n + 1) < 2**-47.8 (n + 1) of the
    exact difference of the logs. ``margin`` is 2**-40 (n + 1)
    (``_LOG_MARGIN``), over 200 times that, so a gap beyond it has the
    exact difference's sign.
    """
    sup = _moneyed(project, budgets, utilities)
    if sup is None:
        return None
    # Cap prices from the first uncapped index s on raise at least the cost,
    # and are dominated by the exact full-coverage price of that segment.
    prefix = _capped_prefix(sup)
    if prefix is None:
        return _full_quote(project, sup, None)
    voters, money, weights, s, rest, rest_w, sums = prefix
    due, m_scale, u_scale, total_w, uniform = sup[3:]
    # paid[j] and held[j] are the money and weight of the first j voters.
    paid, held = sums or (
        list(accumulate(money[:s], initial=0)),
        list(accumulate(weights[:s], initial=0)),
    )
    # Below s, cap price lam_j = b_j/u_j raises R_j / (m_scale * w_j) with
    # R_j = paid_j * w_j + money_j * (weight from j on), so alpha_j =
    # R_j / (due * w_j) < 1, and rho_j / alpha_j = lam_j / alpha_j**2 is
    # money_j * w_j / R_j**2 times a factor common to every candidate. f is
    # its log, to within the docstring's bound.
    best, best_r, best_mw = 0, money[0] * total_w, money[0] * weights[0]
    if s > 1:
        log = math.log
        best_f = log(best_mw) - 2 * log(best_r)
        margin = _LOG_MARGIN * (due.bit_length() + total_w.bit_length() + 1)
    for j in range(1, s):
        w = weights[j]
        r = paid[j] * w + money[j] * (total_w - held[j])
        mw = money[j] * w
        f = log(mw) - 2 * log(r)
        gap = f - best_f
        if gap > margin:
            continue
        if gap >= -margin:
            # Too close for the floats: the exact ratios and the tie rule
            # (larger alpha) decide.
            lhs, rhs = mw * best_r * best_r, best_mw * r * r
            if lhs > rhs or (lhs == rhs and r * weights[best] <= best_r * w):
                continue
        best, best_r, best_mw, best_f = j, r, mw, f
    # The full-coverage price (alpha = 1) wins ties on rho / alpha.
    if s < len(money) and (
        rest * best_r * best_r <= due * due * best_mw * rest_w
    ):
        return _full_quote(project, sup, prefix)
    # alpha = R / (due * w_best) and rho = money_best * u_scale * due /
    # (m_scale * R), so rho / alpha is the pair below. Voters up to the
    # pinning one are capped at lam = b/u and pay b / alpha = money * due *
    # w_best / (m_scale * R); the rest pay u * lam / alpha = u * rho =
    # weight * money_best * due / (m_scale * R).
    w_best, rate = weights[best], money[best] * due
    den = m_scale * best_r
    return AffordabilityQuote(
        project.id, Fraction(best_r, due * w_best),
        _Key(rate * u_scale * due * w_best, den * best_r), voters, money,
        weights, best + 1, due * w_best, rate, den, m_scale,
        project.cost_pair, 1, uniform,
    )


def _spend(live: set[int], costs: Sequence[int], left: int, c: int) -> int:
    """Buy c from ``left`` :func:`_cost_units` of public budget: drop c and
    every project that no longer fits from ``live``, and return what is left.
    The budget never grows back, so a rule that prices only live projects
    never prices one it cannot afford."""
    left -= costs[c]
    live.difference_update([c, *(d for d in live if costs[d] > left)])
    return left


def bos(election: Election, config: RuleConfig = RuleConfig()) -> Outcome:
    """Integral purchases through the best (price, coverage) quotes.

    Each round considers every unselected project that still fits the
    public budget (:func:`_spend`) and has at least one moneyed supporter,
    asks :func:`bos_quote` for its best quote, and buys the project
    minimizing rho / alpha. The quote's payments are debited with every
    balance stopping at zero, so capped voters in a partial-coverage round
    pay more than they own; the debit's shortfalls are those overspend
    events, and they are recorded per round.

    With ``config.exhaustive_redistribution`` enabled, any voter whose
    entire support set is already funded is removed and her leftover
    balance is split equally among the voters still in play.
    """
    utilities = election.utilities
    n = election.n_voters
    budgets = BudgetState.equal_endowment(election.budget / n, n)
    redistribute = config.exhaustive_redistribution
    projects = election.projects
    costs, left = _cost_units(election)
    rounds: list[PurchaseRecord] = []
    tie, floors = config.tie_breaker, _floors(election)

    def price(c: int) -> Optional[AffordabilityQuote]:
        return bos_quote(projects[c], budgets, utilities)

    # Without redistribution balances only fall, so ratios only rise and
    # quotes of projects without a moneyed supporter stay None. A
    # redistribution that moves money can lower ratios, so a new selector
    # takes over the live projects from their floors.
    selector = _LazyBest(tie, price, range(len(projects)), floors)

    # Claim check scope: per-voter approval stakes and default accounting.
    check_overspend = (
        election.utility_model is UtilityModel.COST
        and not redistribute
        and election.scores.is_approval
    )

    # A voter leaves once this count reaches zero; it never rises again.
    unfunded_support = [len(election.scores.support_set(i)) for i in range(n)]

    def redistribute_satisfied(voters: Iterable[int]) -> None:
        """Drop those of ``voters`` with nothing left to fund; share out
        their money among the voters still in play."""
        nonlocal selector
        leaving = [i for i in voters if unfunded_support[i] == 0]
        if leaving:
            stayers = [i for i in range(n) if unfunded_support[i]]
            if budgets.redistribute(leaving, stayers):
                selector = _LazyBest(tie, price, selector.live, floors)

    if redistribute:
        redistribute_satisfied(range(n))

    debug = logger.isEnabledFor(logging.DEBUG)
    while (best := selector.best()) is not None:
        c = best.project
        if debug:
            logger.debug(
                "bos: buy %d at alpha=%s rho=%s", c, best.alpha, best.rho
            )
        # The paper charges every moneyed supporter u * rho, stopping at her
        # balance. Charging the quote's payments leaves the same ledger: the
        # uncapped voters pay u * rho, and a capped voter's payment (b when
        # alpha = 1, b / alpha otherwise) and u * rho are both at least b,
        # so either way her balance stops at zero.
        overspent = best.charge(budgets)
        if check_overspend and overspent:
            # Every moneyed supporter pays a positive amount, and those
            # charged at least their balance are now at zero.
            drained = sum(1 for i in best.voters if not budgets.work_units[i])
            if 2 * drained <= len(best.voters):
                raise InvariantError(
                    f"bos: overspending round buying {c} drains no strict "
                    "majority of its payers"
                )
        selector.stale(utilities.supported_by(best.voters))
        left = _spend(selector.live, costs, left, c)
        rounds.append(_record(best, overspent))
        supporters = utilities.supporters[c]
        for i in supporters:
            unfunded_support[i] -= 1
        if redistribute:
            # Only the round's supporters can have run out of projects.
            redistribute_satisfied(supporters)
    return _outcome(rounds)


def _boosted(
    budgets: BudgetState, boost: Num, used: Mapping[int, Num]
) -> BudgetState:
    """A ledger holding each balance plus what is left of ``boost`` after
    its voter's ``used`` boost: b + boost - min(boost, used).

    It is built on one integer scale, the lcm of the ledger's working
    scale, the boost's denominator and the used amounts', and then reduced,
    so it holds what ``BudgetState`` of the same rationals would.
    """
    num, den = boost.as_integer_ratio()
    scale = math.lcm(
        budgets.work_scale, den, *(o.denominator for o in used.values())
    )
    lift = num * (scale // den)
    factor = scale // budgets.work_scale
    units = [u * factor + lift for u in budgets.work_units]
    for i, o in used.items():
        units[i] -= min(lift, o.numerator * (scale // o.denominator))
    return BudgetState.from_units(units, scale)


def bos_plus(election: Election, config: RuleConfig = RuleConfig()) -> Outcome:
    """Overspend-free variant: boosted balances instead of overcharges.

    Each round first computes the plain buyout quote among projects that fit
    the remaining budget (:func:`_spend`). If that quote would cover only a
    share alpha < 1, the uncovered cost is divided equally among the voters
    the quote would cap, and every voter's balance is temporarily raised by
    that amount minus whatever boost she has already consumed in earlier
    rounds. The round then buys the cheapest fully covered project under the
    boosted balances and debits its payments from the real ones, each
    stopping at zero. The debit's shortfalls are the boost consumed, tracked
    so later rounds do not grant it twice. Rounds stop when even boosted
    balances cover nothing.

    A round whose plain quote covers the whole project has no boost and
    buys that quote as it stands: it is :func:`min_rho`'s quote for its
    project, and as every full purchase is a buyout candidate, no other
    project's is cheaper or wins a tie. Only partial rounds re-price.
    """
    utilities = election.utilities
    n = election.n_voters
    budgets = BudgetState.equal_endowment(election.budget / n, n)
    over: dict[int, Num] = {}  # the boost each voter has consumed so far
    projects = election.projects
    floors = _floors(election)
    costs, left = _cost_units(election)
    rounds: list[PurchaseRecord] = []
    # Real balances only fall, so phase-1 ratios only rise and a None quote
    # stays None: one selector serves every round. Boosted balances are not
    # monotone, so phase 2 starts afresh each round from the same floors.
    phase1 = _LazyBest(
        config.tie_breaker,
        lambda c: bos_quote(projects[c], budgets, utilities),
        range(len(projects)),
        floors,
    )
    debug = logger.isEnabledFor(logging.DEBUG)
    while (best := phase1.best()) is not None:
        boost = ZERO
        if best.alpha < 1:
            # The voters the quote caps (b <= u * rho) are a prefix of its
            # b/u order. They include the voter whose balance pinned its
            # price, so the divisor is at least one.
            cost1 = projects[best.project].cost
            boost = cost1 * (ONE - best.alpha) / best.drained()
            # Each voter holds her balance plus what is left of the boost
            # after her overdraft.
            boosted = _boosted(budgets, boost, over)
            best = _LazyBest(
                config.tie_breaker,
                lambda c: min_rho(projects[c], boosted, utilities),
                phase1.live,
                floors,
            ).best()
            if best is None:
                break
        c = best.project
        if debug:
            logger.debug(
                "bos_plus: buy %d at rho=%s (boost %s)", c, best.rho, boost
            )
        units = budgets.work_units
        phase1.stale(utilities.supported_by(i for i in best.voters if units[i]))
        overspent = best.charge(budgets)
        for i, short in overspent:
            over[i] = over.get(i, ZERO) + short
        left = _spend(phase1.live, costs, left, c)
        rounds.append(_record(best, overspent))
    return _outcome(rounds)


_RULES: dict[str, Callable[[Election, RuleConfig], Outcome | FractionalOutcome]] = {
    "utilitarian": utilitarian,
    "mes": mes,
    "mes-add1u": add1u,
    "fres": fres,
    "fres-complete": lambda election, config: fres_utilitarian_completion(
        election, fres(election, config), config
    ),
    "bos": bos,
    "bos-plus": bos_plus,
}
RULE_NAMES = tuple(_RULES)


def run_rule(
    name: str, election: Election, config: RuleConfig = RuleConfig()
) -> Outcome | FractionalOutcome:
    """Dispatch a rule by its public name (see ``RULE_NAMES``)."""
    rule = _RULES.get(name)
    if rule is None:
        raise ValueError(f"unknown rule {name!r}")
    return rule(election, config)
