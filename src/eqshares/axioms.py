"""Welfare and proportionality audits for funding outcomes.

Provides the six per-outcome statistics bundled as :class:`AuditReport`,
a per-project counter of unmet-group violations (:func:`ejr_plus_violations`),
an exhaustive small-instance witness search for near-proportional
representation (:func:`ejr_up_to_witnesses`), and a randomized falsifier for
the fractional cohesive-group guarantee (:func:`fractional_ejr_falsifier`).

All audits treat an outcome as data: they never rerun the producing rule,
except for the relative satisfaction metrics, which normalize against a
fresh greedy-by-score baseline on the same election.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from .model import (
    Election,
    FractionalOutcome,
    Num,
    NumLike,
    Outcome,
    UtilityModel,
    as_num,
    voter_utilities,
)
from .rules import RuleConfig, utilitarian

__all__ = [
    "AuditReport",
    "EjrPlusWitness",
    "EjrWitness",
    "CohesiveSpec",
    "FalsifierReport",
    "satisfaction",
    "relative_satisfaction",
    "exclusion_ratio",
    "is_exhaustive",
    "budget_spent_fraction",
    "ejr_plus_violations",
    "ejr_up_to_witnesses",
    "fractional_ejr_falsifier",
    "overspend_rounds_exhaust_majority",
    "audit",
]

ZERO = Fraction(0)
ONE = Fraction(1)

AnyOutcome = Union[Outcome, FractionalOutcome]


def satisfaction(
    election: Election, outcome: AnyOutcome, model: UtilityModel
) -> Num:
    """Total voter utility from the outcome under the given model.

    Fractional outcomes weight each project by its funded share.
    """
    totals = election.profile(model).project_totals
    return sum(
        (share * totals[c] for c, share in outcome.shares.items()), ZERO
    )


def relative_satisfaction(
    election: Election,
    outcome: AnyOutcome,
    model: UtilityModel,
    config: RuleConfig = RuleConfig(),
) -> Num:
    """Satisfaction divided by the greedy-by-score baseline's satisfaction.

    The baseline is :func:`~eqshares.rules.utilitarian` under the same tie
    configuration. A 0/0 ratio is defined as 1 (an all-zero profile
    satisfies everyone maximally).
    """
    base = satisfaction(election, utilitarian(election, config), model)
    return _relative(satisfaction(election, outcome, model), base)


def _relative(value: Num, base: Num) -> Num:
    """value / base, with 0/0 read as 1."""
    if base == 0:
        if value == 0:
            return ONE
        raise ArithmeticError("positive satisfaction with a zero baseline")
    return value / base


def exclusion_ratio(election: Election, outcome: AnyOutcome) -> Num:
    """Fraction of voters with zero utility for every funded project."""
    if election.n_voters == 0:
        return ZERO
    funded = outcome.shares.keys()
    excluded = sum(1 for row in election.scores.rows if funded.isdisjoint(row))
    return Fraction(excluded, election.n_voters)


def budget_spent_fraction(election: Election, outcome: AnyOutcome) -> Num:
    """Spent funds as a fraction of the budget (Σ share·cost / b)."""
    return election.spent(outcome) / election.budget


def is_exhaustive(election: Election, outcome: AnyOutcome) -> bool:
    """Whether no further spending is possible.

    Integral: no unselected project fits the remaining budget. Fractional:
    the budget is fully spent or every project is fully funded.
    """
    remaining = election.budget - election.spent(outcome)
    if isinstance(outcome, FractionalOutcome):
        return remaining == 0 or all(
            outcome.fraction(p.id) == 1 for p in election.projects
        )
    chosen = set(outcome.selected)
    return all(
        p.cost > remaining for p in election.projects if p.id not in chosen
    )


@dataclass(frozen=True)
class EjrPlusWitness:
    """An unselected project and an approver group certifying a violation.

    Every voter in ``group`` approves ``project``, the group's pooled budget
    share covers the project's cost, and even after adding the project's
    cost to each member's current cost-utility satisfaction nobody reaches
    the group's proportional entitlement.
    """

    project: int
    group: tuple[int, ...]


def ejr_plus_violations(
    election: Election, outcome: AnyOutcome
) -> tuple[int, list[EjrPlusWitness]]:
    """Count unselected projects whose approver groups are underserved.

    Requires approval ballots; satisfaction is measured in cost utilities.
    For each project with funded share below 1, its approvers are sorted by
    ascending satisfaction; the project counts as one violation if some
    prefix of size s has s·b/n ≥ cost and every member's satisfaction plus
    the project's cost still fits within s·b/n (the up-to-one relaxation).
    Checking prefixes is complete: any certifying group can be replaced by
    the least-satisfied approvers of the same size. Returns the violation
    count (one per project, however many groups certify it) and one witness
    per violating project.
    """
    if not election.scores.is_approval:
        raise ValueError("violation counting requires approval ballots")
    n = election.n_voters
    if n == 0:
        return 0, []
    share = election.budget / n
    funded = outcome.shares
    sat = voter_utilities(election, outcome, UtilityModel.COST)
    witnesses: list[EjrPlusWitness] = []
    for project in election.projects:
        if funded.get(project.id, ZERO) >= 1:
            continue
        approvers = sorted(
            election.scores.supporters[project.id], key=lambda i: (sat[i], i)
        )
        for s, voter in enumerate(approvers, start=1):
            if s * share >= project.cost and sat[voter] + project.cost <= s * share:
                witnesses.append(
                    EjrPlusWitness(project.id, tuple(approvers[:s]))
                )
                break
    return len(witnesses), witnesses


@dataclass(frozen=True)
class EjrWitness:
    """A deserving group left short by more than the allowed slack.

    ``group`` jointly approves all of ``projects`` and could afford them
    from its pooled budget share, yet every member's satisfaction falls
    short of cost(projects) − slack − cost(violating_project), where the
    violating project is an unfunded member of ``projects``.
    """

    group: tuple[int, ...]
    projects: tuple[int, ...]
    violating_project: int
    slack: Num


def ejr_up_to_witnesses(
    election: Election,
    outcome: AnyOutcome,
    t: Union[NumLike, Callable[[int], NumLike]],
    caps: tuple[int, int] = (12, 12),
    limit: Optional[int] = None,
) -> list[EjrWitness]:
    """Exhaustive search for deserving groups underserved beyond slack ``t``.

    Enumerates every voter group S and every nonempty set T of commonly
    approved projects with cost(T) ≤ |S|·b/n. A witness is emitted when T
    has an unfunded member c such that every voter in S has cost-utility
    satisfaction strictly below cost(T) − t − cost(c); checking the cheapest
    unfunded member suffices, since it maximizes the right-hand side.

    ``t`` is either a constant or a function of |S|, evaluated lazily and
    only for groups that can afford some T. The search is exponential in
    the voter count, so ``caps`` (max voters, max projects) guards against
    misuse; ``limit`` stops after that many witnesses.
    """
    n, m = election.n_voters, len(election.projects)
    if n > caps[0] or m > caps[1]:
        raise ValueError(
            f"instance size ({n} voters, {m} projects) exceeds caps {caps}"
        )
    if not election.scores.is_approval:
        raise ValueError("witness search requires approval ballots")
    if n == 0:
        return []
    share = election.budget / n
    sat = voter_utilities(election, outcome, UtilityModel.COST)
    costs = [p.cost for p in election.projects]
    fully_funded = {c for c, w in outcome.shares.items() if w == 1}

    if callable(t):
        t_cache: dict[int, Num] = {}

        def t_of(size: int) -> Num:
            if size not in t_cache:
                t_cache[size] = as_num(t(size))
            return t_cache[size]

    else:
        t_const = as_num(t)

        def t_of(size: int) -> Num:
            return t_const

    # Subset sums over bitmasks: cost of each project set, its cheapest
    # unfunded member, each group's common approval set and max satisfaction.
    mask_cost: list[Num] = [ZERO] * (1 << m)
    best_unfunded: list[tuple[Num, int] | None] = [None] * (1 << m)
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        mask_cost[mask] = mask_cost[rest] + costs[low]
        cand = best_unfunded[rest]
        if low not in fully_funded and (cand is None or costs[low] < cand[0]):
            cand = (costs[low], low)
        best_unfunded[mask] = cand

    approve_mask = [0] * n
    for i in range(n):
        for c in election.scores.support_set(i):
            approve_mask[i] |= 1 << c
    full = (1 << m) - 1
    common = [full] * (1 << n)
    max_sat: list[Num] = [ZERO] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        common[mask] = approve_mask[low] & common[rest]
        max_sat[mask] = max(sat[low], max_sat[rest]) if rest else sat[low]

    witnesses: list[EjrWitness] = []
    for smask in range(1, 1 << n):
        pool = common[smask]
        if pool == 0:
            continue
        size = smask.bit_count()
        cap = size * share
        group_max = max_sat[smask]
        slack: Num | None = None
        tmask = pool
        while tmask:
            cand = best_unfunded[tmask]
            if cand is not None and mask_cost[tmask] <= cap:
                if slack is None:
                    slack = t_of(size)
                cheapest_cost, cheapest_id = cand
                if group_max < mask_cost[tmask] - slack - cheapest_cost:
                    witnesses.append(
                        EjrWitness(
                            group=tuple(i for i in range(n) if smask >> i & 1),
                            projects=tuple(
                                c for c in range(m) if tmask >> c & 1
                            ),
                            violating_project=cheapest_id,
                            slack=slack,
                        )
                    )
                    if limit is not None and len(witnesses) >= limit:
                        return witnesses
            tmask = (tmask - 1) & pool
    return witnesses


@dataclass(frozen=True)
class CohesiveSpec:
    """A candidate refutation: group S, project set T, and (β, γ) targets.

    The spec is cohesive when the group's pooled budget share covers the
    β-weighted cost of T and u_i(c)·β(c) ≥ γ(c) holds for every project c
    in T and every group member i.
    """

    group: tuple[int, ...]
    projects: tuple[int, ...]
    beta: Mapping[int, Num]
    gamma: Mapping[int, Num]


@dataclass(frozen=True)
class FalsifierReport:
    """Result of a randomized cohesive-group search."""

    counterexample: Optional[CohesiveSpec]
    trials: int


def fractional_ejr_falsifier(
    election: Election,
    fractional_outcome: FractionalOutcome,
    trials: int = 1000,
    seed: int = 0,
) -> FalsifierReport:
    """Randomized search for a cohesive group beating a fractional outcome.

    Each trial samples a voter group S, a subset T of the projects every
    member values positively, and per-project weights β from the grid
    {1/8, ..., 8/8}; γ(c) is the largest target the cohesion constraint
    allows, min_{i∈S} u_i(c)·β(c). A counterexample is a cohesive spec where
    every member's total outcome utility falls strictly below Σ γ. Absence
    of a counterexample is evidence, not proof: the (β, γ) space is
    continuous and only refutation is mechanized.
    """
    rng = random.Random(seed)
    n = election.n_voters
    utilities = election.utilities
    sat = voter_utilities(election, fractional_outcome)
    if n == 0:
        return FalsifierReport(None, trials)
    entitlement = election.budget / n
    for _ in range(trials):
        size = rng.randint(1, n)
        group = sorted(rng.sample(range(n), size))
        pool = [
            p.id
            for p in election.projects
            if all(utilities.value(i, p.id) > 0 for i in group)
        ]
        if not pool:
            continue
        projects = [c for c in pool if rng.random() < 0.5] or pool
        beta = {c: Fraction(rng.randint(1, 8), 8) for c in projects}
        weighted_cost = sum(
            (election.projects[c].cost * beta[c] for c in projects), ZERO
        )
        if weighted_cost > entitlement * size:
            continue
        gamma = {
            c: min(utilities.value(i, c) for i in group) * beta[c]
            for c in projects
        }
        target = sum(gamma.values(), ZERO)
        if target == 0:
            continue
        if all(sat[i] < target for i in group):
            return FalsifierReport(
                CohesiveSpec(tuple(group), tuple(projects), beta, gamma),
                trials,
            )
    return FalsifierReport(None, trials)


def overspend_rounds_exhaust_majority(
    election: Election, outcome: Outcome
) -> bool:
    """Replay a buyout-rule round log and audit its overspending rounds.

    Reconstructs balances from equal endowments using the logged prices
    (each supporter is charged u_i·ρ, floored at zero) and verifies that in
    every round where some voter paid beyond her balance, strictly more
    than half of the round's payers ended the round with nothing left.
    Expects logs produced by :func:`~eqshares.rules.bos` without the
    redistribution variant.
    """
    n = election.n_voters
    utilities = election.utilities
    balances = [election.budget / n] * n
    for record in outcome.rounds:
        if record.rho is None:
            continue
        payers = [i for i, pay in record.payments.items() if pay > 0]
        overspenders = [i for i in payers if record.payments[i] > balances[i]]
        if overspenders:
            drained = [
                i for i in payers if record.payments[i] >= balances[i]
            ]
            if 2 * len(drained) <= len(payers):
                return False
        for i in utilities.supporters[record.project]:
            charge = utilities.value(i, record.project) * record.rho
            balances[i] = max(ZERO, balances[i] - charge)
    return True


@dataclass(frozen=True)
class AuditReport:
    """The per-outcome statistics bundle.

    ``ejr_plus_violations`` is None when the election is not approval-based
    (the violation counter is defined only for approval ballots).
    """

    score_satisfaction: Num
    cost_satisfaction: Num
    relative_score_satisfaction: Num
    relative_cost_satisfaction: Num
    exclusion_ratio: Num
    budget_spent_fraction: Num
    exhaustive: bool
    ejr_plus_violations: Optional[int]


def audit(
    election: Election,
    outcome: AnyOutcome,
    config: RuleConfig = RuleConfig(),
) -> AuditReport:
    """Compute the full statistics bundle for one outcome."""
    violations: Optional[int]
    if election.scores.is_approval:
        violations = ejr_plus_violations(election, outcome)[0]
    else:
        violations = None
    score = satisfaction(election, outcome, UtilityModel.SCORE)
    cost = satisfaction(election, outcome, UtilityModel.COST)
    # The baseline selection does not depend on the utility model.
    baseline = utilitarian(election, config)
    return AuditReport(
        score_satisfaction=score,
        cost_satisfaction=cost,
        relative_score_satisfaction=_relative(
            score, satisfaction(election, baseline, UtilityModel.SCORE)
        ),
        relative_cost_satisfaction=_relative(
            cost, satisfaction(election, baseline, UtilityModel.COST)
        ),
        exclusion_ratio=exclusion_ratio(election, outcome),
        budget_spent_fraction=budget_spent_fraction(election, outcome),
        exhaustive=is_exhaustive(election, outcome),
        ejr_plus_violations=violations,
    )
