"""The equal-shares rules price projects through the quote kernels' module
attributes, they price lazily, and they price only projects that the budget
left still covers.

Tracing tools count kernel calls by replacing ``rules.min_rho`` and
``rules.bos_quote``, so a rule that bound a kernel at import time would
hide its work from them.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eqshares import rules
from eqshares.model import BudgetState, Election, Project, UtilityProfile
from eqshares.rules import RULE_NAMES, RuleConfig, TieBreaker, bos_quote, run_rule
from instances import random_approval_election

KERNELS = {
    "utilitarian": set(),
    "mes": {"min_rho"},
    "mes-add1u": {"min_rho"},
    "fres": set(),
    "fres-complete": set(),
    "bos": {"bos_quote"},
    "bos-plus": {"min_rho", "bos_quote"},
}


@pytest.fixture
def quote_calls(monkeypatch):
    """Per-kernel lists of the project ids each call priced."""
    calls: dict[str, list[int]] = {}
    for name in ("min_rho", "bos_quote"):
        kernel = getattr(rules, name)
        seen = calls[name] = []

        def counted(project, *args, _kernel=kernel, _seen=seen):
            _seen.append(project.id)
            return _kernel(project, *args)

        monkeypatch.setattr(rules, name, counted)
    return calls


def full_rescan_quotes(election, outcome) -> int:
    """Quotes a full rescan makes: two per fitting project in each round."""
    remaining = election.budget
    unselected = set(range(len(election.projects)))
    fitting = 0
    for record in outcome.rounds:
        fitting += sum(
            1 for c in unselected if election.projects[c].cost <= remaining
        )
        remaining -= election.projects[record.project].cost
        unselected.discard(record.project)
    return 2 * fitting


def test_rules_reach_the_kernels_through_module_attributes(
    blocks_election, quote_calls
):
    assert set(KERNELS) == set(RULE_NAMES)
    for name in RULE_NAMES:
        for seen in quote_calls.values():
            seen.clear()
        run_rule(name, blocks_election)
        used = {kernel for kernel, seen in quote_calls.items() if seen}
        assert used == KERNELS[name], name


def test_bos_plus_quotes_fewer_than_a_full_rescan(blocks_election, quote_calls):
    outcome = run_rule("bos-plus", blocks_election)
    quotes = len(quote_calls["min_rho"]) + len(quote_calls["bos_quote"])
    assert outcome.rounds
    assert 0 < quotes < full_rescan_quotes(blocks_election, outcome)


def test_add1u_scan_work_on_the_reference_fixture(
    reference_election, quote_calls, monkeypatch
):
    """The kernel work of add1u's scan on reference.pb under the cost model:
    16,001 probes, each one run of the mes loop, and 112,006 min_rho quotes
    over them. A faster kernel must make the same quotes, no more."""
    probes = []
    real_loop = rules._equal_shares

    def counted_loop(*args, **kwargs):
        probes.append(1)
        return real_loop(*args, **kwargs)

    monkeypatch.setattr(rules, "_equal_shares", counted_loop)
    run_rule("mes-add1u", reference_election)
    assert len(probes) == 16_001
    assert len(quote_calls["min_rho"]) == 112_006
    assert quote_calls["bos_quote"] == []


def partial_rounds(election, rounds) -> list[bool]:
    """For each round, whether the best buyout quote on the real balances
    before it covers only a share alpha < 1 (ties by ascending id)."""
    balances = [election.budget / election.n_voters] * election.n_voters
    remaining = election.budget
    left = set(range(len(election.projects)))
    partial = []
    for record in rounds:
        budgets = BudgetState(balances)
        quotes = [
            bos_quote(election.projects[c], budgets, election.utilities)
            for c in sorted(left)
            if election.projects[c].cost <= remaining
        ]
        best = min(
            (q for q in quotes if q is not None),
            key=lambda q: (q.ratio, q.project),
        )
        partial.append(best.alpha < 1)
        for i, pay in record.payments.items():
            balances[i] = max(F(0), balances[i] - pay)
        remaining -= election.projects[record.project].cost
        left.discard(record.project)
    return partial


def test_bos_plus_reprices_only_partial_rounds(
    blocks_election, quote_calls, monkeypatch
):
    """Phase 2 of bos_plus prices projects with min_rho only in rounds
    whose phase-1 quote is partial; a full phase-1 quote is bought as it
    stands, and the round log still matches the full-rescan oracle."""
    priced = quote_calls["min_rho"]
    ends = []  # min_rho calls made by the end of each round
    record = rules._record

    def recorded(*args):
        ends.append(len(priced))
        return record(*args)

    monkeypatch.setattr(rules, "_record", recorded)
    outcome = run_rule("bos-plus", blocks_election)
    calls = [end - start for start, end in zip([0, *ends], ends)]
    partial = partial_rounds(blocks_election, outcome.rounds)
    assert (len(partial), sum(partial)) == (10, 3)
    assert [k > 0 for k in calls] == partial
    assert len(priced) == ends[-1]
    assert [
        (r.project, r.alpha, r.rho, dict(r.payments), r.overspent)
        for r in outcome.rounds
    ] == oracles.naive_bos_plus(blocks_election)


def test_a_project_waits_at_its_proportional_price(quote_calls):
    """Project 1 enters at its proportional price 8 / 2, above project 0's
    round-1 price 2 / 2, so mes buys project 0 before it quotes project 1,
    even when ties favour project 1."""
    profile = UtilityProfile.from_rows(2, 2, [{0: 1, 1: 1}, {0: 1, 1: 1}])
    election = Election(
        (Project(0, "a", F(2)), Project(1, "b", F(8))), 2, F(10), profile
    )
    outcome = run_rule("mes", election, RuleConfig(TieBreaker((1, 0))))
    assert outcome.selected == (0, 1)
    assert quote_calls["min_rho"] == [0, 1]


def test_add1u_prices_rationals_only_for_the_kept_probe(
    minority_election, monkeypatch, caplog
):
    """A quote holds rho as an integer pair; with debug logging off, the
    scan makes a rational price only for the kept probe's round records."""
    made = []
    value = rules._Key.value

    def counted(key):
        made.append(key)
        return value(key)

    monkeypatch.setattr(rules._Key, "value", counted)
    with caplog.at_level("INFO", logger="eqshares.rules"):
        out = rules.add1u(minority_election)
    kept = [r for r in out.rounds if r.rho is not None]
    assert kept and len(made) == len(kept)
    # With debug logging on, every purchase of every probe logs its rho.
    made.clear()
    with caplog.at_level("DEBUG", logger="eqshares.rules"):
        assert rules.add1u(minority_election) == out
    assert len(made) > len(kept)


FIT_RULES = [
    ("bos", RuleConfig()),
    ("bos", RuleConfig(exhaustive_redistribution=True)),
    ("bos-plus", RuleConfig()),
]
FIT_IDS = ["bos", "bos-redistribution", "bos-plus"]


@contextlib.contextmanager
def budget_watch(election):
    """Watch the kernels and the round records of one rule run.

    Yields a dict: ``left`` is the public budget left, lowered by each
    recorded purchase's cost, and ``dear`` lists each project a kernel
    priced while it cost more than ``left``.
    """
    seen = {"left": election.budget, "dear": []}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("min_rho", "bos_quote"):
            kernel = getattr(rules, name)

            def priced(project, *args, _kernel=kernel):
                if project.cost > seen["left"]:
                    seen["dear"].append(project.id)
                return _kernel(project, *args)

            mp.setattr(rules, name, priced)
        record = rules._record

        def recorded(quote, *args):
            seen["left"] -= election.projects[quote.project].cost
            return record(quote, *args)

        mp.setattr(rules, "_record", recorded)
        yield seen


@pytest.mark.parametrize(
    "fixture", ["reference_election", "minority_election", "tail_election",
                "blocks_election"],
)
@pytest.mark.parametrize("rule,config", FIT_RULES, ids=FIT_IDS)
def test_rules_never_price_what_the_budget_no_longer_covers(
    request, fixture, rule, config
):
    """The kernels only price; the rules keep projects that no longer fit
    the budget left out of the live set, so no kernel sees one."""
    election = request.getfixturevalue(fixture)
    with budget_watch(election) as seen:
        outcome = run_rule(rule, election, config)
    assert seen["dear"] == []
    assert seen["left"] == election.budget - election.spent(outcome)
    if rule == "bos":
        # Every fixture ends with projects that cost more than is left.
        chosen = set(outcome.selected)
        assert any(
            p.cost > seen["left"] for p in election.projects
            if p.id not in chosen
        )


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_random_approval_rules_never_price_what_no_longer_fits(rng):
    election = random_approval_election(rng)
    for rule, config in FIT_RULES:
        with budget_watch(election) as seen:
            outcome = run_rule(rule, election, config)
        assert seen["dear"] == [], rule
        assert seen["left"] == election.budget - election.spent(outcome)
