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
selector (:class:`_LazyBest`): quotes are cached and recomputed only when a
purchase may have changed them, and the pick equals a full rescan's.

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
from itertools import accumulate
from operator import attrgetter, itemgetter
from typing import Callable, Generic, Iterable, Mapping, Optional, TypeVar

from .model import (
    BudgetState,
    Election,
    FractionalOutcome,
    Num,
    NumLike,
    Outcome,
    Project,
    PurchaseRecord,
    UtilityModel,
    UtilityProfile,
    as_num,
)

__all__ = [
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

ZERO = Fraction(0)
ONE = Fraction(1)
Q = TypeVar("Q")


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


@dataclass(frozen=True)
class AffordabilityQuote:
    """One candidate purchase: a share ``alpha`` of a project at utility
    price ``rho``, with the per-voter payments that cover the full cost.

    ``ratio`` (rho/alpha) is the price of buying one utility unit through
    this quote when the fractional share is accounted for; integral rules
    with alpha = 1 reduce it to rho.
    """

    project: int
    alpha: Num
    rho: Num
    payments: Mapping[int, Num]

    @property
    def ratio(self) -> Num:
        return self.rho / self.alpha


def _moneyed_supporters(
    project: Project,
    budgets: BudgetState,
    utilities: UtilityProfile,
) -> list[tuple[int, Num, Num]]:
    """(voter, utility, balance) for supporters with a positive balance."""
    balances = budgets.balances
    rows = utilities.rows
    c = project.id
    # Balances never go negative, so a nonzero balance is a positive one.
    return [
        (i, rows[i][c], b) for i in utilities.supporters[c] if (b := balances[i])
    ]


def _over_lcm(
    parts: list[tuple[int, int]], scale: int = 1
) -> tuple[list[int], int]:
    """Numerators of n/d over L = lcm(scale, every d), and L itself."""
    scale = math.lcm(scale, *[d for _, d in parts])
    return [n * (scale // d) for n, d in parts], scale


def _pays_exactly(payments: Mapping[int, Num], cost: Num) -> bool:
    """Whether the payments add up to ``cost``, summed as integers over the
    lcm of their denominators."""
    paid, scale = _over_lcm([p.as_integer_ratio() for p in payments.values()])
    num, den = cost.as_integer_ratio()
    return sum(paid) * den == num * scale


def _integers(
    sup: list[tuple[int, Num, Num]], cost: Num
) -> tuple[list[int], list[int], int, int, int]:
    """Balances, utilities and cost as integers over common denominators.

    Returns ``(money, weights, due, m_scale, u_scale)`` with
    money[j] = b_j * m_scale, weights[j] = u_j * u_scale and
    due = cost * m_scale, where each scale is the lcm of the denominators it
    clears. Sums of these integers are exact sums of the rationals, and
    ratios of them order and price exactly like the rationals.
    """
    num, den = cost.as_integer_ratio()
    money, m_scale = _over_lcm([b.as_integer_ratio() for _, _, b in sup], den)
    weights, u_scale = _over_lcm([u.as_integer_ratio() for _, u, _ in sup])
    return money, weights, num * (m_scale // den), m_scale, u_scale


def _ratio_order(
    money: list[int], weights: list[int], m_scale: int, u_scale: int
) -> list[int]:
    """Indices in ascending b/u order, exact and stable.

    Voter j's b/u is money[j] * u_scale / (weights[j] * m_scale). Floats
    only propose the order: each key is the correctly rounded value of b/u
    (integer true division), so an exactly smaller ratio never gets a larger
    key. Every run of equal keys whose members are not all exactly equal is
    then re-sorted by the exact ratio; exactly equal ones stay in supporter
    order, as a stable exact sort leaves them.
    """
    k = len(money)
    try:
        keys = [m * u_scale / (w * m_scale) for m, w in zip(money, weights)]
    except OverflowError:
        return sorted(range(k), key=lambda j: Fraction(money[j], weights[j]))
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


def _proportional_price(
    money: list[int], weights: list[int], due: int, m_scale: int, u_scale: int
) -> Optional[Num]:
    """cost / sum(u) if no supporter is capped at that price, else None."""
    total_w = sum(weights)
    if all(w * due <= m * total_w for m, w in zip(money, weights)):
        return Fraction(due * u_scale, m_scale * total_w)
    return None


def _ascending(
    sup: list[tuple[int, Num, Num]],
    money: list[int],
    weights: list[int],
    m_scale: int,
    u_scale: int,
) -> tuple[list[tuple[int, Num, Num]], list[int], list[int], list[int], list[int]]:
    """Supporters, money and weights in ascending b/u order, with prefix sums.

    ``paid[j]`` is the money of the first j supporters and ``held[j]`` their
    weight, so both lists have one more entry than there are supporters.
    """
    order = _ratio_order(money, weights, m_scale, u_scale)
    money = [money[j] for j in order]
    weights = [weights[j] for j in order]
    return (
        [sup[j] for j in order],
        money,
        weights,
        list(accumulate(money, initial=0)),
        list(accumulate(weights, initial=0)),
    )


def _first_uncapped(
    money: list[int], weights: list[int], paid: list[int], held: list[int],
    due: int,
) -> int:
    """First index s whose voter is not capped at rho_s, or len(money).

    With the first s voters (ascending b/u) capped at their balance and the
    rest paying u_j * rho_s, the price is rho_s = (cost - paid_s) / (sum of
    the remaining u). Voter s is uncapped when rho_s * u_s <= b_s, checked
    here in exact integers. The check is monotone in s: if it holds at s
    then rho_{s+1} <= rho_s <= b_s/u_s <= b_{s+1}/u_{s+1}, so it holds at
    s + 1, and bisection finds the unique first s where it holds.
    """
    total_w = held[-1]

    def uncapped(s: int) -> bool:
        return (due - paid[s]) * weights[s] <= money[s] * (total_w - held[s])

    return bisect_left(range(len(money)), True, key=uncapped)


def _full_quote(
    project: Project,
    sup: list[tuple[int, Num, Num]],
    weights: list[int],
    s: int,
    rho: Num,
    u_scale: int,
) -> AffordabilityQuote:
    """Quote for alpha = 1 at price rho: the first s supporters pay their
    balance, the rest u_i * rho (one division per distinct utility)."""
    payments = {i: b for i, _, b in sup[:s]}
    num, den = rho.as_integer_ratio()
    den *= u_scale
    charge: dict[int, Num] = {}
    for (i, _, _), w in zip(sup[s:], weights[s:]):
        pay = charge.get(w)
        if pay is None:
            pay = charge[w] = Fraction(w * num, den)
        payments[i] = pay
    if __debug__:
        assert _pays_exactly(payments, project.cost)
    return AffordabilityQuote(project.id, ONE, rho, payments)


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

    Every decision is exact. Balances and utilities are turned into
    integers over common denominators (:func:`_integers`), so sums are
    integer sums and each price is normalised once. When somebody is capped
    at the fully proportional price, floats propose the b/u order and exact
    checks repair it (:func:`_ratio_order`); the capped prefix is then found
    by bisection on an exact monotone check (:func:`_first_uncapped`).
    """
    sup = _moneyed_supporters(project, budgets, utilities)
    if not sup:
        return None
    money, weights, due, m_scale, u_scale = _integers(sup, project.cost)
    if sum(money) < due:
        return None
    rho = _proportional_price(money, weights, due, m_scale, u_scale)
    if rho is not None:
        return _full_quote(project, sup, weights, 0, rho, u_scale)
    sup, money, weights, paid, held = _ascending(
        sup, money, weights, m_scale, u_scale
    )
    s = _first_uncapped(money, weights, paid, held, due)
    rho = Fraction((due - paid[s]) * u_scale, m_scale * (held[-1] - held[s]))
    return _full_quote(project, sup, weights, s, rho, u_scale)


class _LazyBest(Generic[Q]):
    """Lazy best-quote selection over a live set of projects, after
    Minoux's lazy greedy (1978, "Accelerated greedy algorithms").

    ``quote(c)`` prices project c, or returns None when c cannot be bought;
    the smallest (``key(quote)``, ``tie.rank(c)``) wins. A heap holds
    (lower bound on the key, rank, c) entries; quotes stay cached until
    :meth:`stale` forgets them.

    Invariant the caller keeps: between two :meth:`stale` calls naming c,
    c's key can only grow, and a None quote stays None. Every bound then
    stays a lower bound, so a heap top that carries its project's cached
    key (that very object; older entries are discarded) is the pick of a
    full rescan. A key that may fall must be re-entered with :meth:`push`.
    """

    def __init__(
        self,
        tie: TieBreaker,
        quote: Callable[[int], Optional[Q]],
        key: Callable[[Q], Num],
        live: Iterable[int],
        floor: Callable[[int], Num] = lambda c: ZERO,
    ) -> None:
        self._rank = tie.rank
        self._quote = quote
        self._key = key
        self._cached: dict[int, Optional[tuple[Num, Q]]] = {}
        self._heap: list[tuple[Num, tuple[int, int], int]] = []
        self.live = set(live)
        self.push(self.live, floor)

    def best(self) -> Optional[Q]:
        """The best live quote; its project stays live and in the heap."""
        heap, cached, live = self._heap, self._cached, self.live
        while heap:
            bound, rank, c = heap[0]
            if c in live:
                if c not in cached:
                    quote = self._quote(c)
                    if quote is None:
                        cached[c] = None
                    else:
                        key = self._key(quote)
                        cached[c] = (key, quote)
                        heapq.heapreplace(heap, (key, rank, c))
                        continue
                elif (entry := cached[c]) is not None and entry[0] is bound:
                    return entry[1]
            heapq.heappop(heap)
        return None

    def stale(self, projects: Iterable[int]) -> None:
        """Forget the quotes of projects whose key may have risen."""
        for c in projects:
            self._cached.pop(c, None)

    def push(
        self, projects: Iterable[int], floor: Callable[[int], Num] = lambda c: ZERO
    ) -> None:
        """Re-enter projects whose key may have fallen, each at floor(c)."""
        rank = self._rank
        for c in projects:
            self._cached.pop(c, None)
            self._heap.append((floor(c), rank(c), c))
        heapq.heapify(self._heap)

    def drop(self, projects: Iterable[int]) -> None:
        """Remove projects from the live set for good."""
        self.live.difference_update(projects)


def _utilitarian_tail(
    election: Election, config: RuleConfig, start: Outcome = Outcome((), ())
) -> Outcome:
    """Extend an outcome with still-affordable projects by descending
    total score.

    Tail purchases are funded centrally from the leftover public budget
    (rho is None, no voter payments).
    """
    totals = election.scores.project_totals
    tie = config.tie_breaker
    selected, rounds = list(start.selected), list(start.rounds)
    remaining = election.budget - election.spent(start)
    chosen = set(selected)
    ranked = sorted(
        (p for p in election.projects if p.id not in chosen),
        key=lambda p: (-totals[p.id], tie.rank(p.id)),
    )
    for project in ranked:
        if project.cost <= remaining:
            remaining -= project.cost
            selected.append(project.id)
            rounds.append(PurchaseRecord(project.id, ONE, None, {}))
    return Outcome(tuple(selected), tuple(rounds), feasible=True)


def utilitarian(election: Election, config: RuleConfig = RuleConfig()) -> Outcome:
    """Greedy selection by descending total ballot score.

    Projects are ranked by the sum of raw scores over all voters (vote
    count under approvals) regardless of the election's utility model;
    each project whose cost still fits is added. The result is exhaustive
    by construction: every skipped project stayed unaffordable forever.
    """
    return _utilitarian_tail(election, config)


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
    probing and may yield an outcome flagged infeasible.
    """
    endowment = (
        election.budget / election.n_voters if b_ini is None else as_num(b_ini)
    )
    if endowment <= 0:
        raise ValueError("initial endowment must be positive")
    utilities = election.utilities
    budgets = BudgetState.equal_endowment(endowment, election.n_voters)
    projects = election.projects
    # Balances only fall, so prices only rise and short supporters stay
    # short; only projects sharing a payer can see their price move.
    selector = _LazyBest(
        config.tie_breaker,
        lambda c: min_rho(projects[c], budgets, utilities),
        attrgetter("rho"),
        range(len(projects)),
    )
    selected: list[int] = []
    rounds: list[PurchaseRecord] = []
    spent = ZERO
    while (best := selector.best()) is not None:
        logger.debug("mes: buy %d at rho=%s", best.project, best.rho)
        for i, pay in best.payments.items():
            budgets.balances[i] -= pay
            selector.stale(utilities.support_set(i))
        selector.drop((best.project,))
        selected.append(best.project)
        spent += projects[best.project].cost
        rounds.append(
            PurchaseRecord(best.project, ONE, best.rho, best.payments)
        )
    return Outcome(
        tuple(selected), tuple(rounds), feasible=spent <= election.budget
    )


def add1u(election: Election, config: RuleConfig = RuleConfig()) -> Outcome:
    """Equal-shares selection completed by endowment growth plus a greedy tail.

    Reruns :func:`mes` with per-voter endowments b/n, b/n + step, ... and
    keeps the outcome of the last endowment that stayed within the budget.
    The scan is a plain linear walk: feasibility is not monotone in the
    endowment, so no bisection is sound. It stops at the first infeasible
    probe, or once the endowment reaches the full budget, at which point any
    single supporter could buy any affordable project alone. Finally,
    projects that still fit are appended in descending total score order.
    """
    base = election.budget / election.n_voters
    step = config.add1u_step
    best = mes(election, config, b_ini=base)
    assert best.feasible
    k = 1
    while True:
        endowment = base + k * step
        probe = mes(election, config, b_ini=endowment)
        if not probe.feasible:
            break
        best = probe
        if endowment >= election.budget:
            break
        k += 1
    return _utilitarian_tail(election, config, best)


def fres(election: Election, config: RuleConfig = RuleConfig()) -> FractionalOutcome:
    """Fractional purchases at a shared per-utility price.

    All voters start with budget / n. Each round picks the project with the
    smallest price rho = cost / (total remaining support), buys the largest
    share alpha that neither exceeds the project's remaining gap to full
    funding nor overdraws any active supporter, and charges every active
    voter alpha * rho * u_i. Voters whose balance reaches zero drop out of
    the pricing; the rule ends when no partially funded project has any
    remaining support.
    """
    utilities = election.utilities
    n = election.n_voters
    budgets = BudgetState.equal_endowment(election.budget / n, n)
    balances = budgets.balances
    projects = election.projects

    active = [True] * n
    # Per-project support mass over active voters, kept incrementally. It
    # only falls, so prices only rise, and only when a supporter drains.
    support = list(utilities.project_totals)
    selector = _LazyBest(
        config.tie_breaker,
        lambda c: (projects[c].cost / support[c], c) if support[c] > 0 else None,
        itemgetter(0),
        range(len(projects)),
    )
    fractions: dict[int, Num] = {}
    purchases: list[PurchaseRecord] = []
    while (best := selector.best()) is not None:
        rho, best_c = best
        payers = [
            (i, utilities.value(i, best_c))
            for i in utilities.supporters[best_c]
            if active[i]
        ]
        gap = ONE - fractions.get(best_c, ZERO)
        alpha = min(gap, min(balances[i] / (rho * u) for i, u in payers))
        logger.debug("fres: buy %s of %d at rho=%s", alpha, best_c, rho)
        payments: dict[int, Num] = {}
        drained: list[int] = []
        for i, u in payers:
            pay = alpha * rho * u
            payments[i] = pay
            balances[i] -= pay
            assert balances[i] >= 0
            if balances[i] == 0:
                drained.append(i)
        fractions[best_c] = fractions.get(best_c, ZERO) + alpha
        purchases.append(PurchaseRecord(best_c, alpha, rho, payments))
        if fractions[best_c] == 1:
            selector.drop((best_c,))
        for i in drained:
            active[i] = False
            for c, u in utilities.support_set(i).items():
                support[c] -= u
            selector.stale(utilities.support_set(i))
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


def bos_quote(
    project: Project,
    budgets: BudgetState,
    utilities: UtilityProfile,
    remaining_budget: Num,
) -> Optional[AffordabilityQuote]:
    """Best (alpha, rho) purchase quote for one project.

    A quote buys a share alpha of the project at per-utility price rho,
    charging each moneyed supporter min(b_i, alpha * u_i * rho) / alpha so
    the payments cover the full cost; when alpha < 1 a capped voter's
    payment exceeds her balance. Among all consistent quotes the one
    minimizing rho / alpha is returned, preferring larger alpha and then
    smaller rho on exact ties. Only prices at which some voter's cap binds,
    plus the fully proportional price, can be optimal, so exactly those are
    examined. Returns None when the project exceeds the remaining public
    budget or no supporter has money.

    Arithmetic is exact on integers over common denominators, as in
    :func:`min_rho`: floats only propose the b/u order, and every candidate
    comparison is an exact integer cross-multiplication.
    """
    cost = project.cost
    if cost > remaining_budget:
        return None
    sup = _moneyed_supporters(project, budgets, utilities)
    if not sup:
        return None
    money, weights, due, m_scale, u_scale = _integers(sup, cost)
    rho = _proportional_price(money, weights, due, m_scale, u_scale)
    if rho is not None:
        # Nobody is capped at the fully proportional price: alpha = 1.
        return _full_quote(project, sup, weights, 0, rho, u_scale)

    sup, money, weights, paid, held = _ascending(
        sup, money, weights, m_scale, u_scale
    )
    total_w = held[-1]
    # Cap prices from the first uncapped index on raise at least the cost,
    # and are dominated by the exact full-coverage price of that segment.
    s = _first_uncapped(money, weights, paid, held, due)
    # Below s, cap price lam_j = b_j/u_j raises R_j / (m_scale * w_j) with
    # R_j = paid_j * w_j + money_j * (weight from j on), so alpha_j =
    # R_j / (due * w_j) < 1, and rho_j / alpha_j = lam_j / alpha_j**2 is
    # money_j * w_j / R_j**2 times a factor common to every candidate.
    best, best_r, best_mw = 0, money[0] * total_w, money[0] * weights[0]
    for j in range(1, s):
        w = weights[j]
        r = paid[j] * w + money[j] * (total_w - held[j])
        mw = money[j] * w
        lhs, rhs = mw * best_r * best_r, best_mw * r * r
        if lhs < rhs or (lhs == rhs and r * weights[best] > best_r * w):
            best, best_r, best_mw = j, r, mw
    if s < len(money):
        # The full-coverage price (alpha = 1) wins ties on rho / alpha.
        rest, rest_w = due - paid[s], total_w - held[s]
        if rest * best_r * best_r <= due * due * best_mw * rest_w:
            rho = Fraction(rest * u_scale, m_scale * rest_w)
            return _full_quote(project, sup, weights, s, rho, u_scale)
    alpha = Fraction(best_r, due * weights[best])
    rho = Fraction(money[best] * u_scale * due, m_scale * best_r)
    # Voters up to the pinning one are capped at lam = b/u and pay b/alpha;
    # the rest pay u * lam / alpha = u * rho.
    payments = {i: b / alpha for i, _, b in sup[: best + 1]}
    payments.update((i, u * rho) for i, u, _ in sup[best + 1 :])
    if __debug__:
        assert _pays_exactly(payments, cost)
    return AffordabilityQuote(project.id, alpha, rho, payments)


def bos(election: Election, config: RuleConfig = RuleConfig()) -> Outcome:
    """Integral purchases through the best (price, coverage) quotes.

    Each round considers every unselected project that fits the remaining
    public budget and has at least one moneyed supporter, asks
    :func:`bos_quote` for its best quote, and buys the project minimizing
    rho / alpha. Supporters are charged u_i * rho with their balance floored
    at zero, so capped voters in a partial-coverage round pay more than
    they own; those overspend events are recorded per round.

    With ``config.exhaustive_redistribution`` enabled, any voter whose
    entire support set is already funded is removed and her leftover
    balance is split equally among the voters still in play.
    """
    utilities = election.utilities
    n = election.n_voters
    budgets = BudgetState.equal_endowment(election.budget / n, n)
    balances = budgets.balances
    redistribute = config.exhaustive_redistribution
    projects = election.projects
    remaining = election.budget
    selected: list[int] = []
    rounds: list[PurchaseRecord] = []
    # Without redistribution balances only fall, so ratios only rise and
    # quotes of projects without a moneyed supporter stay None.
    # Redistribution can raise a balance, so it pushes every project back.
    selector = _LazyBest(
        config.tie_breaker,
        lambda c: bos_quote(projects[c], budgets, utilities, remaining),
        attrgetter("ratio"),
        (c for c in range(len(projects)) if projects[c].cost <= remaining),
    )

    # Claim check scope: per-voter approval stakes and default accounting.
    check_overspend = (
        __debug__
        and election.utility_model is UtilityModel.COST
        and not redistribute
        and election.scores.is_approval
    )

    removed = [False] * n
    unfunded_support = [len(election.scores.support_set(i)) for i in range(n)]

    def redistribute_satisfied() -> None:
        """Drop voters with nothing left to fund; share out their money."""
        leaving = [
            i
            for i in range(n)
            if not removed[i] and unfunded_support[i] == 0
        ]
        if not leaving:
            return
        pot = ZERO
        for i in leaving:
            removed[i] = True
            pot += balances[i]
            balances[i] = ZERO
        stayers = [i for i in range(n) if not removed[i]]
        if not stayers or pot == 0:
            return
        share = pot / len(stayers)
        for i in stayers:
            balances[i] += share
        selector.push(selector.live)

    if redistribute:
        redistribute_satisfied()

    while (best := selector.best()) is not None:
        c = best.project
        logger.debug(
            "bos: buy %d at alpha=%s rho=%s", c, best.alpha, best.rho
        )
        overspent = tuple(
            sorted(i for i, pay in best.payments.items() if pay > balances[i])
        )
        if check_overspend and overspent:
            payers = [i for i, pay in best.payments.items() if pay > 0]
            drained = [i for i in payers if best.payments[i] >= balances[i]]
            assert 2 * len(drained) > len(payers), (
                "an overspending round must drain a strict majority of payers"
            )
        for i in utilities.supporters[c]:
            if balances[i] > 0:
                balances[i] = max(
                    ZERO, balances[i] - utilities.value(i, c) * best.rho
                )
                selector.stale(utilities.support_set(i))
        remaining -= projects[c].cost
        # The public budget never grows back: drop what no longer fits.
        selector.drop(
            [c, *(d for d in selector.live if projects[d].cost > remaining)]
        )
        selected.append(c)
        rounds.append(
            PurchaseRecord(c, best.alpha, best.rho, best.payments, overspent)
        )
        for i in utilities.supporters[c]:
            unfunded_support[i] -= 1
        if redistribute:
            redistribute_satisfied()
    return Outcome(tuple(selected), tuple(rounds), feasible=True)


def bos_plus(election: Election, config: RuleConfig = RuleConfig()) -> Outcome:
    """Overspend-free variant: boosted balances instead of overcharges.

    Each round first computes the plain buyout quote among projects that fit
    the remaining budget. If that quote would cover only a share alpha < 1,
    the uncovered cost is divided equally among the voters the quote would
    cap, and every voter's balance is temporarily raised by that amount
    minus whatever boost she has already consumed in earlier rounds. The
    round then buys the cheapest fully covered project under the boosted
    balances; consumed boost is tracked so later rounds do not grant it
    twice. Rounds stop when even boosted balances cover nothing.
    """
    utilities = election.utilities
    n = election.n_voters
    budgets = BudgetState.equal_endowment(election.budget / n, n)
    balances = budgets.balances
    over = budgets.over
    projects = election.projects
    totals = utilities.project_totals
    remaining = election.budget
    selected: list[int] = []
    rounds: list[PurchaseRecord] = []
    # Projects that fit and have supporters; nobody else can ever be bought.
    # Real balances only fall, so phase-1 ratios only rise and a None quote
    # stays None: one selector serves every round. Boosted balances are not
    # monotone, so phase 2 starts afresh each round from the floor
    # cost / (total support): rho * (moneyed support) >= cost.
    phase1 = _LazyBest(
        config.tie_breaker,
        lambda c: bos_quote(projects[c], budgets, utilities, remaining),
        attrgetter("ratio"),
        (
            c for c in range(len(projects))
            if projects[c].cost <= remaining and totals[c]
        ),
    )
    floors = {c: projects[c].cost / totals[c] for c in phase1.live}
    while True:
        quote = phase1.best()
        boost = ZERO
        if quote is not None and quote.alpha < 1:
            capped = [
                i
                for i in utilities.supporters[quote.project]
                if balances[i] > 0
                and utilities.value(i, quote.project) * quote.rho >= balances[i]
            ]
            # A partial-coverage quote always caps the voter whose balance
            # pinned its price, so the divisor is at least one.
            cost1 = projects[quote.project].cost
            boost = cost1 * (ONE - quote.alpha) / len(capped)
        boosted = BudgetState(
            [balances[i] + max(ZERO, boost - over[i]) for i in range(n)]
        )
        best = _LazyBest(
            config.tie_breaker,
            lambda c: min_rho(projects[c], boosted, utilities),
            attrgetter("rho"),
            phase1.live,
            floors.__getitem__,
        ).best()
        if best is None:
            break
        c = best.project
        logger.debug(
            "bos_plus: buy %d at rho=%s (boost %s)", c, best.rho, boost
        )
        overspent = []
        for i, pay in best.payments.items():
            if balances[i]:
                phase1.stale(utilities.support_set(i))
            if pay > balances[i]:
                over[i] += pay - balances[i]
                balances[i] = ZERO
                overspent.append(i)
            else:
                balances[i] -= pay
        remaining -= projects[c].cost
        phase1.drop(
            [c, *(d for d in phase1.live if projects[d].cost > remaining)]
        )
        selected.append(c)
        rounds.append(
            PurchaseRecord(
                c, ONE, best.rho, best.payments, tuple(sorted(overspent))
            )
        )
    return Outcome(tuple(selected), tuple(rounds), feasible=True)


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
