"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions alone, deliberately naive,
and shares no code with ``eqshares`` beyond the immutable data model. The
test suite freezes values computed by these oracles and also compares them
against the package at run time.
"""
from __future__ import annotations

import bisect
import csv
import math
import re
import statistics
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from eqshares.model import Election

ZERO = Fraction(0)
ONE = Fraction(1)


def tie_key(order: Sequence[int] | None):
    """Replicates the injectable project order: listed ids first, then id."""

    def key(c: int) -> tuple[int, int]:
        if order is not None and c in order:
            return (0, order.index(c))
        return (1, c)

    return key


# ---------------------------------------------------------------------------
# Greedy selection by total ballot score.


def naive_utilitarian(
    election: Election, order: Sequence[int] | None = None
) -> list[int]:
    """Two-line greedy: rank by vote count (raw score total), take what fits."""
    totals = [ZERO] * len(election.projects)
    for row in election.scores.rows:
        for c, u in row.items():
            totals[c] += u
    key = tie_key(order)
    ranked = sorted(range(len(election.projects)), key=lambda c: (-totals[c], key(c)))
    remaining = election.budget
    chosen = []
    for c in ranked:
        if election.projects[c].cost <= remaining:
            remaining -= election.projects[c].cost
            chosen.append(c)
    return sorted(chosen)


# ---------------------------------------------------------------------------
# Cheapest full purchase price (the rho-affordability fixed point).


def naive_min_rho(
    cost: Fraction, supporters: list[tuple[Fraction, Fraction]]
) -> Optional[Fraction]:
    """Smallest rho with sum(min(b_i, u_i*rho)) = cost, or None.

    ``supporters`` holds (utility, balance) pairs with balance > 0. The sum
    is a piecewise-linear nondecreasing function of rho with breakpoints at
    the balance/utility ratios; each segment is solved linearly and the
    candidate is validated by direct substitution.
    """
    if not supporters:
        return None
    if sum(b for _, b in supporters) < cost:
        return None

    def raised(rho: Fraction) -> Fraction:
        return sum(min(b, u * rho) for u, b in supporters)

    breakpoints = sorted({b / u for u, b in supporters})
    previous = ZERO
    for point in breakpoints + [None]:
        # Inside (previous, point] exactly the voters with b/u <= previous
        # are capped; solve the linear segment for rho.
        capped = sum(b for u, b in supporters if b / u <= previous)
        slope = sum(u for u, b in supporters if b / u > previous)
        if slope > 0:
            rho = (cost - capped) / slope
            inside = previous < rho and (point is None or rho <= point)
            if inside and raised(rho) == cost:
                return rho
        if point is not None and raised(point) == cost:
            return point
        previous = point if point is not None else previous
    return None


def naive_bos_quote(
    cost: Fraction, supporters: list[tuple[Fraction, Fraction]]
) -> Optional[tuple[Fraction, Fraction, list[Fraction]]]:
    """Best buyout quote (alpha, rho, payments), or None without supporters.

    ``supporters`` holds (utility, balance) pairs with balance > 0, and the
    payments come back in the same order. A quote at spending level
    lam = alpha * rho charges min(b_i, u_i*lam) / alpha to every supporter,
    which covers the cost when sum(min(b_i, u_i*lam)) = alpha * cost. The
    quote minimizing rho/alpha = lam/alpha**2 wins, then larger alpha, then
    smaller rho. On each linear segment of the sum, lam/alpha**2 first rises
    and then falls, so its minimum sits at a segment end: a breakpoint b/u
    whose sum falls short of the cost (alpha < 1), or the price where the
    sum first reaches the cost (alpha = 1).
    """
    if not supporters:
        return None

    def raised(lam: Fraction) -> Fraction:
        return sum(min(b, u * lam) for u, b in supporters)

    candidates = []
    for lam in sorted({b / u for u, b in supporters}):
        alpha = raised(lam) / cost
        if alpha < 1:
            candidates.append((lam / alpha**2, -alpha, lam / alpha, alpha, lam))
    full = naive_min_rho(cost, supporters)
    if full is not None:
        candidates.append((full, -ONE, full, ONE, full))
    _, _, rho, alpha, lam = min(candidates)
    return alpha, rho, [min(b, u * lam) / alpha for u, b in supporters]


def sorted_bisection_quote(
    cost: Fraction,
    column: list[tuple[int, Fraction]],
    balances: Sequence[Fraction],
    scale: int,
) -> Optional[dict]:
    """``min_rho``'s full quote, field by field, from a plain stable sort
    and a bisection; None when the supporters' balances fall short.

    ``column`` lists every supporter of the project as (voter, utility) in
    voter order, ``balances`` holds every voter's balance and ``scale`` is
    the ledger's working scale. The moneyed supporters are stably sorted by
    b/u; s is the first index of that order whose voter is not capped, that
    is, whose u times rho_s = (cost - balances before s) / (utilities from
    s on) is at most her balance, found by bisection. Nobody is capped when
    s is 0, and the voters then stay in column order.

    The fields: ``voters`` in that order; ``money`` and ``weights``, each
    b * m_scale and u * u_scale, with m_scale = lcm(scale, the cost's
    denominator) and u_scale the lcm of the column's utility denominators;
    ``capped`` = s; ``rho`` = rho_s; ``unit``, the gcd of the uncapped
    weights; ``rate`` / ``den``, unit * rho / u_scale in lowest terms, over
    lcm(den, m_scale) when somebody is capped; ``cap`` = den / m_scale
    then, else 0; ``payments``, each voter's min(b, u * rho), in order.
    """
    u_scale = math.lcm(*(u.denominator for _, u in column))
    m_scale = math.lcm(scale, cost.denominator)
    moneyed = [(i, u, balances[i]) for i, u in column if balances[i] > 0]
    if not moneyed or sum(b for _, _, b in moneyed) < cost:
        return None
    ranked = sorted(moneyed, key=lambda voter: voter[2] / voter[1])

    def rho_at(s: int) -> Fraction:
        paid = sum((b for _, _, b in ranked[:s]), ZERO)
        return (cost - paid) / sum(u for _, u, _ in ranked[s:])

    def uncapped(s: int) -> bool:
        _, u, b = ranked[s]
        return u * rho_at(s) <= b

    s = bisect.bisect_left(range(len(ranked)), True, key=uncapped)
    order = ranked if s else moneyed
    rho = rho_at(s)
    unit = math.gcd(*(int(u * u_scale) for _, u, _ in order[s:]))
    share = unit * rho / u_scale
    rate, den, cap = share.numerator, share.denominator, 0
    if s:
        den = math.lcm(den, m_scale)
        rate, cap = int(share * den), den // m_scale
    return {
        "voters": [i for i, _, _ in order],
        "money": [int(b * m_scale) for _, _, b in order],
        "weights": [int(u * u_scale) for _, u, _ in order],
        "capped": s,
        "rho": rho,
        "unit": unit,
        "rate": rate,
        "den": den,
        "cap": cap,
        "payments": [(i, min(b, u * rho)) for i, u, b in order],
    }


def naive_mes(
    election: Election,
    order: Sequence[int] | None = None,
    b_ini: Fraction | None = None,
) -> tuple[list[int], list[tuple[int, Fraction]]]:
    """Full-rescan equal-shares loop; returns (sorted selection, rho trace)."""
    n = election.n_voters
    utilities = election.utilities
    balances = [election.budget / n if b_ini is None else b_ini] * n
    key = tie_key(order)
    unselected = set(range(len(election.projects)))
    trace: list[tuple[int, Fraction]] = []
    while True:
        best = None
        for c in sorted(unselected):
            sup = [
                (utilities.value(i, c), balances[i])
                for i in range(n)
                if utilities.value(i, c) > 0 and balances[i] > 0
            ]
            rho = naive_min_rho(election.projects[c].cost, sup)
            if rho is None:
                continue
            if best is None or (rho, key(c)) < (best[1], key(best[0])):
                best = (c, rho)
        if best is None:
            break
        c, rho = best
        for i in range(n):
            u = utilities.value(i, c)
            if u > 0:
                balances[i] -= min(balances[i], u * rho)
        unselected.discard(c)
        trace.append((c, rho))
    return sorted(c for c, _ in trace), trace


def _moneyed(
    election: Election, balances: list[Fraction], c: int
) -> list[tuple[int, Fraction, Fraction]]:
    """(voter, utility, balance) for every supporter of c with money left."""
    utilities = election.utilities
    return [
        (i, utilities.value(i, c), balances[i])
        for i in range(election.n_voters)
        if utilities.value(i, c) > 0 and balances[i] > 0
    ]


def naive_fres(
    election: Election, order: Sequence[int] | None = None
) -> tuple[dict[int, Fraction], list[tuple]]:
    """Full-rescan FrES; returns (fractions, round log).

    Each round prices every project that is not fully bought at
    cost / (utility of its supporters who still have money), takes the
    cheapest, and buys the largest share that neither passes full funding
    nor overdraws a supporter. Log entries are (project, alpha, rho,
    payments, overspent), with overspent always empty.
    """
    n = election.n_voters
    balances = [election.budget / n] * n
    key = tie_key(order)
    fractions: dict[int, Fraction] = {}
    log: list[tuple] = []
    while True:
        best = None
        for c, project in enumerate(election.projects):
            if fractions.get(c, ZERO) == 1:
                continue
            support = sum(u for _, u, _ in _moneyed(election, balances, c))
            if support == 0:
                continue
            rho = project.cost / support
            if best is None or (rho, key(c)) < (best[1], key(best[0])):
                best = (c, rho)
        if best is None:
            break
        c, rho = best
        payers = _moneyed(election, balances, c)
        alpha = min(
            [ONE - fractions.get(c, ZERO)] + [b / (rho * u) for _, u, b in payers]
        )
        payments = {i: alpha * rho * u for i, u, _ in payers}
        for i, pay in payments.items():
            balances[i] -= pay
        fractions[c] = fractions.get(c, ZERO) + alpha
        log.append((c, alpha, rho, payments, ()))
    return fractions, log


def _best_bos_quote(
    election: Election,
    balances: list[Fraction],
    candidates: list[int],
    key,
):
    """(alpha, rho, payments) of the candidate minimizing (rho/alpha, tie)."""
    best = None
    for c in candidates:
        sup = _moneyed(election, balances, c)
        if not sup:
            continue
        alpha, rho, pays = naive_bos_quote(
            election.projects[c].cost, [(u, b) for _, u, b in sup]
        )
        rank = (rho / alpha, key(c))
        if best is None or rank < best[0]:
            payments = {i: pay for (i, _, _), pay in zip(sup, pays)}
            best = (rank, c, alpha, rho, payments)
    return None if best is None else best[1:]


def naive_bos(
    election: Election,
    order: Sequence[int] | None = None,
    redistribute: bool = False,
) -> list[tuple]:
    """Full-rescan BOS; returns the round log.

    Each round quotes every unselected project that fits the remaining
    budget and buys the one with the smallest rho/alpha. Each moneyed
    supporter's balance falls by u*rho, floored at zero; payments above the
    balance are overspent. With ``redistribute``, voters whose every
    supported project is funded leave, and their money is split equally
    among the voters still in play. Log entries are (project, alpha, rho,
    payments, overspent).
    """
    n = election.n_voters
    utilities = election.utilities
    balances = [election.budget / n] * n
    remaining = election.budget
    key = tie_key(order)
    unselected = set(range(len(election.projects)))
    removed = [False] * n
    log: list[tuple] = []

    def share_out() -> None:
        leaving = [
            i for i in range(n)
            if not removed[i]
            and all(c not in unselected for c in election.scores.support_set(i))
        ]
        pot = sum((balances[i] for i in leaving), ZERO)
        for i in leaving:
            removed[i] = True
            balances[i] = ZERO
        stayers = [i for i in range(n) if not removed[i]]
        if stayers and pot != 0:
            for i in stayers:
                balances[i] += pot / len(stayers)

    if redistribute:
        share_out()
    while True:
        fits = [
            c for c in sorted(unselected)
            if election.projects[c].cost <= remaining
        ]
        best = _best_bos_quote(election, balances, fits, key)
        if best is None:
            break
        c, alpha, rho, payments = best
        overspent = tuple(sorted(i for i, p in payments.items() if p > balances[i]))
        for i, u, b in _moneyed(election, balances, c):
            balances[i] = max(ZERO, b - u * rho)
        remaining -= election.projects[c].cost
        unselected.discard(c)
        log.append((c, alpha, rho, payments, overspent))
        if redistribute:
            share_out()
    return log


def naive_bos_plus(
    election: Election, order: Sequence[int] | None = None
) -> list[tuple]:
    """Full-rescan BOS+; returns the round log.

    Each round finds the best BOS quote among the projects that fit. If it
    covers only a share alpha < 1, the uncovered cost is split equally
    among the voters it caps (u*rho >= b), and every voter's balance is
    raised by that boost less the overdraft she has already used. The
    round buys the project with the smallest MES price under the boosted
    balances; each supporter pays min(b, u*rho) of her boosted balance, and
    whatever exceeds her real balance is overspent and added to her
    overdraft. Log entries are (project, alpha, rho, payments, overspent).
    """
    n = election.n_voters
    balances = [election.budget / n] * n
    over = [ZERO] * n
    remaining = election.budget
    key = tie_key(order)
    unselected = set(range(len(election.projects)))
    log: list[tuple] = []
    while True:
        fits = [
            c for c in sorted(unselected)
            if election.projects[c].cost <= remaining
        ]
        phase1 = _best_bos_quote(election, balances, fits, key)
        boost = ZERO
        if phase1 is not None and phase1[1] < 1:
            c1, alpha1, rho1, _ = phase1
            capped = [
                i for i, u, b in _moneyed(election, balances, c1) if u * rho1 >= b
            ]
            boost = election.projects[c1].cost * (ONE - alpha1) / len(capped)
        boosted = [balances[i] + max(ZERO, boost - over[i]) for i in range(n)]
        best = None
        for c in fits:
            sup = _moneyed(election, boosted, c)
            rho = naive_min_rho(
                election.projects[c].cost, [(u, b) for _, u, b in sup]
            )
            if rho is not None and (
                best is None or (rho, key(c)) < (best[1], key(best[0]))
            ):
                best = (c, rho, {i: min(b, u * rho) for i, u, b in sup})
        if best is None:
            break
        c, rho, payments = best
        overspent = []
        for i, pay in payments.items():
            if pay > balances[i]:
                over[i] += pay - balances[i]
                balances[i] = ZERO
                overspent.append(i)
            else:
                balances[i] -= pay
        remaining -= election.projects[c].cost
        unselected.discard(c)
        log.append((c, ONE, rho, payments, tuple(sorted(overspent))))
    return log


def naive_add1u(
    election: Election,
    order: Sequence[int] | None = None,
    step: Fraction = ONE,
) -> tuple[list[int], Fraction]:
    """Linear endowment scan plus a vote-count tail, straight from the text.

    Returns the sorted selection and the per-voter endowment whose equal-
    shares outcome the scan kept.
    """
    base = election.budget / election.n_voters
    costs = [p.cost for p in election.projects]

    def feasible(chosen: list[int]) -> bool:
        return sum(costs[c] for c in chosen) <= election.budget

    best, _ = naive_mes(election, order, b_ini=base)
    kept = base
    k = 1
    while True:
        endowment = base + k * step
        probe, _ = naive_mes(election, order, b_ini=endowment)
        if not feasible(probe):
            break
        best, kept = probe, endowment
        if endowment >= election.budget:
            break
        k += 1
    totals = [ZERO] * len(election.projects)
    for row in election.scores.rows:
        for c, u in row.items():
            totals[c] += u
    key = tie_key(order)
    remaining = election.budget - sum(costs[c] for c in best)
    chosen = list(best)
    for c in sorted(
        (c for c in range(len(costs)) if c not in set(best)),
        key=lambda c: (-totals[c], key(c)),
    ):
        if costs[c] <= remaining:
            remaining -= costs[c]
            chosen.append(c)
    return sorted(chosen), kept


# ---------------------------------------------------------------------------
# Fractional knapsack (the single-voter optimum).


def fractional_knapsack(
    budget: Fraction, items: list[tuple[Fraction, Fraction]]
) -> dict[int, Fraction]:
    """Greedy value-per-cost shares for (cost, value) items, exact."""
    shares: dict[int, Fraction] = {}
    remaining = budget
    ranked = sorted(
        (j for j, (_, value) in enumerate(items) if value > 0),
        key=lambda j: (-(items[j][1] / items[j][0]), j),
    )
    for j in ranked:
        if remaining <= 0:
            break
        cost = items[j][0]
        share = min(ONE, remaining / cost)
        shares[j] = share
        remaining -= share * cost
    return shares


# ---------------------------------------------------------------------------
# Brute-force violation counting over all approver subsets.


def brute_force_ejr_plus(
    election: Election, funded: dict[int, Fraction]
) -> set[int]:
    """Ids of unfunded projects certified by SOME approver subset.

    Checks every subset of each project's approvers, so it is complete and
    independent of the prefix-greedy search used by the package. Only
    usable on small instances.
    """
    n = election.n_voters
    share = election.budget / n
    cu = election.cost_utilities
    sat = [
        sum(
            (w * cu.value(i, c) for c, w in funded.items()),
            ZERO,
        )
        for i in range(n)
    ]
    violating: set[int] = set()
    for project in election.projects:
        if funded.get(project.id, ZERO) >= 1:
            continue
        approvers = [
            i for i in range(n) if election.scores.value(i, project.id) > 0
        ]
        for mask in range(1, 1 << len(approvers)):
            group = [approvers[k] for k in range(len(approvers)) if mask >> k & 1]
            cap = len(group) * share
            if cap >= project.cost and all(
                sat[i] + project.cost <= cap for i in group
            ):
                violating.add(project.id)
                break
    return violating


def naive_ejr_plus(
    election: Election, funded: dict[int, Fraction]
) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Violation count and (project, group) witnesses by a rational prefix scan.

    For each project funded below 1, its approvers are sorted by (cost-utility
    satisfaction, id) and every prefix is tried from size 1; the first prefix
    of size s with s·b/n ≥ cost and sat + cost ≤ s·b/n for its last (most
    satisfied) member is the witness. All arithmetic is on Fractions.
    """
    n = election.n_voters
    if n == 0:
        return 0, []
    share = election.budget / n
    cu = election.cost_utilities
    sat = [
        sum((w * cu.value(i, c) for c, w in funded.items()), ZERO)
        for i in range(n)
    ]
    witnesses = []
    for project in election.projects:
        if funded.get(project.id, ZERO) >= 1:
            continue
        approvers = sorted(
            (i for i in range(n) if election.scores.value(i, project.id) > 0),
            key=lambda i: (sat[i], i),
        )
        for s, voter in enumerate(approvers, start=1):
            if s * share >= project.cost and sat[voter] + project.cost <= s * share:
                witnesses.append((project.id, tuple(approvers[:s])))
                break
    return len(witnesses), witnesses


def naive_exclusion_ratio(
    election: Election, funded: dict[int, Fraction]
) -> Fraction:
    """Share of voters whose ballot row names no project funded above 0,
    by one pass over the rows."""
    positive = {c for c, w in funded.items() if w > 0}
    excluded = sum(1 for row in election.scores.rows if positive.isdisjoint(row))
    return Fraction(excluded, election.n_voters)


# ---------------------------------------------------------------------------
# Dense-sweep lower-envelope check for purchase quotes.


def sweep_quote_min_ratio(
    cost: Fraction,
    supporters: list[tuple[Fraction, Fraction]],
    points: int = 10**4,
) -> float:
    """Minimum rho/alpha over a dense alpha grid, solved in floats.

    For each alpha the minimal consistent price lambda satisfies
    sum(min(b_i, u_i*lambda)) = alpha*cost; the sum is piecewise linear in
    lambda, so lambda is found by locating the crossing segment. Returns
    min over the grid of lambda/alpha**2 (= rho/alpha with rho = lambda/alpha).
    """
    u = np.array([float(ui) for ui, _ in supporters])
    b = np.array([float(bi) for _, bi in supporters])
    order = np.argsort(b / u)
    u, b = u[order], b[order]
    knots = b / u
    # Value of the sum at each knot, plus cumulative prefixes for segments.
    prefix_b = np.concatenate(([0.0], np.cumsum(b)))
    suffix_u = np.concatenate((np.cumsum(u[::-1])[::-1], [0.0]))
    at_knots = prefix_b[:-1] + knots * suffix_u[:-1]

    total_b = float(prefix_b[-1])
    alpha_max = min(1.0, total_b / float(cost))
    alphas = np.linspace(alpha_max / points, alpha_max, points)
    targets = alphas * float(cost)

    # Segment k covers targets in (at_knots[k-1], at_knots[k]]; the last
    # knot's value equals the total balance, so alpha_max keeps every
    # target inside a segment and the clip only guards float rounding.
    seg = np.searchsorted(at_knots, targets, side="right")
    seg = np.clip(seg, 0, len(knots) - 1)
    lam = (targets - prefix_b[seg]) / suffix_u[seg]
    ratio = lam / alphas**2
    return float(np.min(ratio))


# ---------------------------------------------------------------------------
# Second statistics implementation: plain rational sums for the mean and
# variance (the package uses the stdlib's), the stdlib for quantiles.


def second_mean(values: list[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values)


def second_std(values: list[Fraction]) -> float:
    mean = second_mean(values)
    return math.sqrt(sum(((v - mean) ** 2 for v in values), Fraction(0)) / len(values))


def second_quantiles(values: list[Fraction]) -> dict[int, Fraction]:
    """The 10/25/50/75/90 percent points, linear interpolation, exact."""
    if len(values) == 1:
        return {p: values[0] for p in (10, 25, 50, 75, 90)}
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return {10: cuts[1], 25: cuts[4], 50: cuts[9], 75: cuts[14], 90: cuts[17]}


# ---------------------------------------------------------------------------
# A second `.pb` reader: every row read first and every cell stripped, then
# the checks made row by row in file order, then the rows converted.


class _PbFault(Exception):
    def __init__(self, line: Optional[int], message: str) -> None:
        super().__init__(line, message)
        self.line, self.message = line, message


def _naive_decimal(text: str) -> Fraction:
    match = re.fullmatch(r"([+-]?)(\d*)(?:\.(\d*))?", text.strip())
    if match is None or not (match[2] or match[3]):
        raise ValueError(text)
    whole, frac = match[2], match[3] or ""
    value = Fraction(int(whole + frac), 10 ** len(frac))
    return -value if match[1] == "-" else value


def _naive_rows(lines: list[str]) -> list:
    """(the line it ends on, its stripped cells) of every row but blank
    lines; a ``csv.Error`` ends the list as (its line, the error)."""
    reader = csv.reader(lines, delimiter=";")
    rows: list = []
    last = 0
    while True:
        try:
            cells = next(reader)
        except StopIteration:
            return rows
        except csv.Error as exc:
            rows.append((reader.line_num, exc))
            return rows
        first, last = last + 1, reader.line_num
        if first == last and len(cells) <= 1 and lines[last - 1].strip() == "":
            continue
        rows.append((last, [cell.strip() for cell in cells]))


def _naive_parse(text: str):
    """The ballot type, budget, project costs and ballots of `.pb` text."""
    if text.startswith("\ufeff"):
        text = text[1:]
    lines = text.splitlines(keepends=True)
    rows = _naive_rows(lines)
    rows.append((len(lines) + 1, None))  # the end of the file
    at = 0

    def peek() -> tuple[int, Optional[list[str]]]:
        line, cells = rows[at]
        if isinstance(cells, csv.Error):
            raise _PbFault(line, str(cells))
        return line, cells

    def header(name: str, required: tuple[str, str]) -> tuple[int, list[str]]:
        nonlocal at
        line, cells = peek()
        if cells is None:
            raise _PbFault(line, "unexpected end of file")
        if cells != [name]:
            raise _PbFault(line, f"expected {name} section, got {';'.join(cells)!r}")
        at += 1
        line, cells = peek()
        if cells is None:
            raise _PbFault(line, "unexpected end of file")
        for column in required:
            if column not in cells:
                raise _PbFault(line, f"{name} header must include {column!r}")
        if cells[0] != required[0]:
            raise _PbFault(line, f"{name} header must start with {required[0]!r}")
        if len(set(cells)) != len(cells):
            raise _PbFault(line, f"duplicate column in {name} header")
        at += 1
        return line, cells

    def body(stop: Optional[str]):
        nonlocal at
        while True:
            line, cells = peek()
            if cells is None or cells == [stop]:
                return
            at += 1
            yield line, cells

    def row_id(line: int, cells: list[str], width: int, seen, what: str) -> str:
        if len(cells) != width:
            raise _PbFault(line, f"expected {width} fields, got {len(cells)}")
        if cells[0] == "":
            raise _PbFault(line, f"empty {what} id")
        if cells[0] in seen:
            raise _PbFault(line, f"duplicate {what} id {cells[0]!r}")
        return cells[0]

    line, columns = header("META", ("key", "value"))
    if columns != ["key", "value"]:
        raise _PbFault(line, "META header must be 'key;value'")
    meta: dict[str, tuple[int, str]] = {}
    for line, cells in body("PROJECTS"):
        if len(cells) != 2:
            raise _PbFault(line, "META rows must have exactly 2 fields")
        if cells[0] in meta:
            raise _PbFault(line, f"duplicate META key {cells[0]!r}")
        meta[cells[0]] = (line, cells[1])
    for key in ("budget", "vote_type"):
        if key not in meta:
            raise _PbFault(peek()[0], f"META is missing required key {key!r}")
    line, value = meta["budget"]
    try:
        budget = _naive_decimal(value)
    except ValueError:
        raise _PbFault(line, "non-numeric budget") from None
    if budget <= 0:
        raise _PbFault(line, "budget must be positive")
    line, value = meta["vote_type"]
    ballot = value.lower().replace("-", "").replace("_", "")
    if ballot not in ("approval", "ordinal", "cumulative", "scoring", "choose1"):
        raise _PbFault(line, f"unknown vote_type {value!r}")

    line, columns = header("PROJECTS", ("project_id", "cost"))
    costs: dict[str, Fraction] = {}
    for line, cells in body("VOTES"):
        pid = row_id(line, cells, len(columns), costs, "project")
        try:
            costs[pid] = _naive_decimal(cells[columns.index("cost")])
        except ValueError:
            raise _PbFault(line, "non-numeric cost") from None

    line, columns = header("VOTES", ("voter_id", "vote"))
    has_points = "points" in columns
    if ballot in ("cumulative", "scoring") and not has_points:
        raise _PbFault(line, f"{ballot} ballots require a points column")
    ballots: dict[str, tuple[list[str], Optional[list[Fraction]]]] = {}
    for line, cells in body(None):
        voter = row_id(line, cells, len(columns), ballots, "voter")
        cell = cells[columns.index("vote")]
        vote = [pid.strip() for pid in cell.split(",")] if cell else []
        if len(set(vote)) < len(vote):
            raise _PbFault(line, "duplicate project in vote")
        for pid in vote:
            if pid not in costs:
                raise _PbFault(line, f"vote references unknown project {pid!r}")
        points = None
        cell = cells[columns.index("points")] if has_points else ""
        if cell:
            try:
                points = [_naive_decimal(p) for p in cell.split(",")]
            except ValueError:
                raise _PbFault(line, "non-numeric points") from None
            if len(points) != len(vote):
                raise _PbFault(
                    line,
                    f"points list has {len(points)} entries for "
                    f"{len(vote)} vote entries",
                )
        elif has_points and not vote:
            points = []
        elif ballot in ("cumulative", "scoring"):
            raise _PbFault(line, "missing points for vote")
        ballots[voter] = (vote, points)

    return ballot, budget, costs, ballots


def naive_read_pb(text: str) -> dict:
    """What reading ``text`` as a `.pb` file and converting its ballots
    gives, written from the format's rules alone: ``voter_ids`` and the
    score ``rows`` over the kept projects, the dropped-project ``warning``
    (or None), and the ``fault`` as (line, message). A fault of the
    conversion has line None and comes after the warning.

    Rows are those ``csv.reader`` reads from the text's lines, split as
    ``str.splitlines`` splits them; a row of one line of whitespace is
    blank and skipped. Every cell and vote entry is stripped, and the
    checks are made in file order.
    """
    result = {"voter_ids": None, "rows": None, "warning": None, "fault": None}
    try:
        ballot, budget, costs, ballots = _naive_parse(text)
    except _PbFault as fault:
        result["fault"] = (fault.line, fault.message)
        return result
    kept = [pid for pid, cost in costs.items() if 0 < cost <= budget]
    dropped = sorted(pid for pid in costs if pid not in kept)
    if dropped:
        result["warning"] = (
            f"dropped {len(dropped)} project(s) with cost outside (0, budget]: "
            + ", ".join(dropped)
        )
    rows = []
    for voter, (vote, points) in ballots.items():
        if ballot == "choose1" and len(vote) != 1:
            result["fault"] = (None, f"voter {voter!r}: choose-1 ballot must "
                                     f"list exactly one project, got {len(vote)}")
            return result
        if ballot in ("approval", "choose1"):
            scores = [ONE] * len(vote)
        elif ballot == "ordinal":  # Borda weights over the full ballot
            scores = [Fraction(len(vote) - j) for j in range(len(vote))]
        else:
            scores = points
        for pid, score in zip(vote, scores):
            if score < 0:
                result["fault"] = (None, f"voter {voter!r}: negative points for {pid!r}")
                return result
        rows.append({
            kept.index(pid): score
            for pid, score in zip(vote, scores)
            if pid in kept and score != 0
        })
    result["voter_ids"], result["rows"] = list(ballots), rows
    return result
