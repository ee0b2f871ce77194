"""Property-based checks of the rules against naive reference implementations."""

from __future__ import annotations

import functools
import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from eqshares import rules
from eqshares.model import (
    Election,
    Project,
    UtilityModel,
    UtilityProfile,
    is_feasible,
)
from eqshares.rules import (
    RuleConfig,
    TieBreaker,
    add1u,
    bos,
    bos_plus,
    bos_quote,
    fres,
    fres_utilitarian_completion,
    mes,
    utilitarian,
)
from eqshares.model import BudgetState
from eqshares.pabulib import load_election

ZERO = F(0)


@st.composite
def cardinal_elections(draw, max_voters=5, max_projects=4, max_budget=16):
    n = draw(st.integers(1, max_voters))
    m = draw(st.integers(1, max_projects))
    budget = draw(st.integers(2, max_budget))
    projects = tuple(
        Project(c, f"p{c}", F(draw(st.integers(1, budget)))) for c in range(m)
    )
    rows = []
    for _ in range(n):
        row = {}
        for c in range(m):
            value = draw(st.sampled_from(
                [0, 0, 1, 1, 2, 3, F(1, 2), F(3, 4), F(5, 2)]
            ))
            if value:
                row[c] = value
        rows.append(row)
    model = draw(st.sampled_from([UtilityModel.SCORE, UtilityModel.COST]))
    prof = UtilityProfile.from_rows(n, m, rows)
    return Election(projects, n, F(budget), prof, utility_model=model)


@st.composite
def approval_elections(draw, max_voters=5, max_projects=4, max_budget=14):
    n = draw(st.integers(1, max_voters))
    m = draw(st.integers(1, max_projects))
    budget = draw(st.integers(2, max_budget))
    projects = tuple(
        Project(c, f"p{c}", F(draw(st.integers(1, budget)))) for c in range(m)
    )
    rows = []
    for _ in range(n):
        approved = draw(st.sets(st.integers(0, m - 1)))
        rows.append({c: 1 for c in approved})
    prof = UtilityProfile.from_rows(n, m, rows)
    return Election(projects, n, F(budget), prof,
                    utility_model=UtilityModel.COST)


@st.composite
def add1u_cases(draw, max_voters=5, max_projects=4):
    """An election with a rational budget and costs, a tie order and an
    add1u step. Half the steps reach the budget exactly after 1-4 probes."""
    n = draw(st.integers(1, max_voters))
    m = draw(st.integers(1, max_projects))
    budget = F(draw(st.integers(2, 24)), draw(st.sampled_from([1, 2, 3, 7])))
    projects = tuple(
        Project(c, f"p{c}", budget * F(draw(st.integers(1, 12)), 12))
        for c in range(m)
    )
    rows = [
        {c: u for c in range(m) if (u := draw(st.sampled_from(
            [0, 0, 1, 2, F(1, 2), F(5, 3)]
        )))}
        for _ in range(n)
    ]
    model = draw(st.sampled_from([UtilityModel.SCORE, UtilityModel.COST]))
    prof = UtilityProfile.from_rows(n, m, rows)
    e = Election(projects, n, budget, prof, utility_model=model)
    base = budget / n
    if n > 1 and draw(st.booleans()):
        step = (budget - base) / draw(st.integers(1, 4))
    else:
        step = budget * F(draw(st.integers(1, 12)), draw(st.integers(8, 24)))
    order = tuple(draw(st.permutations(range(m)))[: draw(st.integers(0, m))])
    return e, order or None, step


@st.composite
def with_tie_order(draw, elections):
    """An election and a tie order: none, or a random prefix of a shuffle."""
    e = draw(elections)
    order = None
    if draw(st.booleans()):
        shuffled = draw(st.permutations(range(len(e.projects))))
        order = tuple(shuffled[: draw(st.integers(0, len(shuffled)))])
    return e, order


def round_log(rounds):
    return [
        (r.project, r.alpha, r.rho, dict(r.payments), r.overspent)
        for r in rounds
    ]


def replay(election, rounds, charge):
    """Yield (pre-round balances, record) pairs under a charging scheme."""
    balances = [election.budget / election.n_voters] * election.n_voters
    utilities = election.utilities
    for rec in rounds:
        yield list(balances), rec
        for i in range(election.n_voters):
            u = utilities.value(i, rec.project)
            if u > 0:
                balances[i] = charge(balances[i], u, rec.rho)


class TestOracleEquality:
    @given(cardinal_elections())
    @settings(max_examples=60, deadline=None)
    def test_utilitarian(self, e):
        assert sorted(utilitarian(e).selected) == oracles.naive_utilitarian(e)

    @given(cardinal_elections())
    @settings(max_examples=60, deadline=None)
    def test_mes_selection_and_trace(self, e):
        out = mes(e)
        expected_sorted, expected_trace = oracles.naive_mes(e)
        assert sorted(out.selected) == expected_sorted
        assert [(r.project, r.rho) for r in out.rounds] == expected_trace

    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_mes_with_prices_beyond_float_range(self, e):
        # Utilities of 10^-400 on the even projects price them above the
        # largest float, so the selector's float proposals read inf there
        # and stay finite on the odd projects.
        tiny = F(1, 10**400)
        rows = [
            {c: u * tiny if c % 2 == 0 else u for c, u in row.items()}
            for row in e.utilities.rows
        ]
        e = Election(
            e.projects, e.n_voters, e.budget,
            UtilityProfile.from_rows(e.n_voters, len(e.projects), rows),
        )
        out = mes(e)
        expected_sorted, expected_trace = oracles.naive_mes(e)
        assert sorted(out.selected) == expected_sorted
        assert [(r.project, r.rho) for r in out.rounds] == expected_trace

    @given(approval_elections())
    @settings(max_examples=40, deadline=None)
    def test_add1u(self, e):
        assert sorted(add1u(e).selected) == oracles.naive_add1u(e)[0]

    @given(add1u_cases())
    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_add1u_scan_with_rational_steps(self, caplog, case):
        e, order, step = case
        config = RuleConfig(TieBreaker(order), add1u_step=step)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="eqshares.rules"):
            out = add1u(e, config)
        expected, kept = oracles.naive_add1u(e, order, step)
        assert sorted(out.selected) == expected
        # The scan probes b/n and k steps up to the kept endowment. Then it
        # makes one more, infeasible probe, unless a step reached the budget.
        k = (kept - e.budget / e.n_voters) / step
        probes = k + 1 + (k == 0 or kept < e.budget)
        [line] = [r for r in caplog.records if r.getMessage().startswith("add1u")]
        assert line.args == (probes, kept)
        # The equal-shares part of the round log is the run at the kept
        # endowment, rho and payments included; the tail is central.
        ref = mes(e, config, b_ini=kept)
        assert out.rounds[: len(ref.rounds)] == ref.rounds
        assert all(r.rho is None for r in out.rounds[len(ref.rounds):])
        _, trace = oracles.naive_mes(e, order, b_ini=kept)
        assert [(r.project, r.rho) for r in ref.rounds] == trace

    def test_add1u_scan_records_only_the_kept_probe(
        self, monkeypatch, fixtures_dir
    ):
        e = load_election(str(fixtures_dir / "minority.pb"), UtilityModel.COST)
        built, probes = [], []
        real_record, real_loop = rules.PurchaseRecord, rules._equal_shares

        def counted_record(*args, **kwargs):
            built.append(args[0])
            return real_record(*args, **kwargs)

        def counted_loop(*args, **kwargs):
            probes.append(args[2:4])
            return real_loop(*args, **kwargs)

        monkeypatch.setattr(rules, "PurchaseRecord", counted_record)
        monkeypatch.setattr(rules, "_equal_shares", counted_loop)
        out = add1u(e)
        assert len(probes) > 2
        assert built == [r.project for r in out.rounds]

    @given(cardinal_elections(max_voters=1, max_projects=4))
    @settings(max_examples=40, deadline=None)
    def test_single_voter_fres_is_fractional_knapsack(self, e):
        items = [(p.cost, e.utilities.value(0, p.id)) for p in e.projects]
        expected = oracles.fractional_knapsack(e.budget, items)
        assert dict(fres(e).fractions) == expected

    @given(st.one_of(
        with_tie_order(cardinal_elections(max_voters=6, max_projects=6)),
        with_tie_order(approval_elections(max_voters=6, max_projects=6)),
        # Rational budgets and costs: a cost denominator that does not
        # divide the ledger scale makes each purchase rescale the balances.
        add1u_cases().map(lambda case: case[:2]),
    ))
    @settings(max_examples=80, deadline=None)
    def test_fres_round_log(self, case):
        e, order = case
        out = fres(e, RuleConfig(tie_breaker=TieBreaker(order)))
        fractions, log = oracles.naive_fres(e, order)
        assert dict(out.fractions) == fractions
        assert round_log(out.purchases) == log

    @given(
        st.one_of(
            with_tie_order(cardinal_elections(max_voters=6, max_projects=6)),
            with_tie_order(approval_elections(max_voters=6, max_projects=6)),
        ),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bos_round_log(self, case, redistribute):
        e, order = case
        config = RuleConfig(
            tie_breaker=TieBreaker(order),
            exhaustive_redistribution=redistribute,
        )
        assert round_log(bos(e, config).rounds) == oracles.naive_bos(
            e, order, redistribute
        )

    def test_bos_redistribution_requotes(self):
        # Voter 0 leaves once project 1 is funded; her leftover lets voter 1
        # cover all of project 0, which a stale quote would buy only 2/3 of.
        prof = UtilityProfile.from_rows(2, 2, [{1: 1}, {0: 2}])
        e = Election((Project(0, "p0", 3), Project(1, "p1", 1)), 2, F(4), prof,
                     utility_model=UtilityModel.SCORE)
        log = round_log(bos(e, RuleConfig(exhaustive_redistribution=True)).rounds)
        assert log == oracles.naive_bos(e, redistribute=True)
        assert [(c, alpha) for c, alpha, *_ in log] == [(1, 1), (0, 1)]

    @given(st.one_of(
        with_tie_order(cardinal_elections(max_voters=6, max_projects=6)),
        with_tie_order(approval_elections(max_voters=6, max_projects=6)),
    ))
    @settings(max_examples=80, deadline=None)
    def test_bos_plus_round_log(self, case):
        e, order = case
        out = bos_plus(e, RuleConfig(tie_breaker=TieBreaker(order)))
        assert round_log(out.rounds) == oracles.naive_bos_plus(e, order)

    def test_bos_plus_boost_counts_a_voter_exactly_at_the_price(self):
        # Every voter holds 9/5. The first buyout quote has alpha = 1/2 and
        # rho = 9/5: voters 0 and 3 (u = 4, 2) are capped, and voter 1
        # (u = 1) holds exactly u * rho. The boost is split among every
        # voter with b <= u * rho, so voter 1 counts too.
        prof = UtilityProfile.from_rows(5, 1, [{0: 4}, {0: 1}, {}, {0: 2}, {}])
        e = Election((Project(0, "p0", 9),), 5, F(9), prof,
                     utility_model=UtilityModel.SCORE)
        log = round_log(bos_plus(e).rounds)
        assert log == oracles.naive_bos_plus(e)
        assert log[0][4] == (0, 1, 3)


class TestFeasibilityAndShape:
    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_integral_rules(self, e):
        for rule in (utilitarian, mes, add1u, bos, bos_plus):
            out = rule(e)
            assert out.feasible and is_feasible(e, out)
            assert len(set(out.selected)) == len(out.selected)
            assert [r.project for r in out.rounds] == list(out.selected)

    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_fractional_rules(self, e):
        partial = fres(e)
        done = fres_utilitarian_completion(e, partial)
        for fo in (partial, done):
            assert all(ZERO <= w <= 1 for w in fo.fractions.values())
            spent = sum(
                (w * e.projects[c].cost for c, w in fo.fractions.items()), ZERO
            )
            assert spent <= e.budget
        assert all(
            done.fraction(c) >= partial.fraction(c) for c in range(len(e.projects))
        )

    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_completion_is_exhaustive_and_idempotent(self, e):
        done = fres_utilitarian_completion(e, fres(e))
        spent = sum(
            (w * e.projects[c].cost for c, w in done.fractions.items()), ZERO
        )
        fundable = {
            c for c in range(len(e.projects))
            if e.utilities.project_totals[c] >= 0
        }
        assert spent == e.budget or all(
            done.fraction(c) == 1 for c in fundable
        )
        again = fres_utilitarian_completion(e, done)
        assert again.fractions == done.fractions


class TestConservation:
    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_mes_rounds_charge_exactly_cost(self, e):
        for rec in mes(e).rounds:
            assert rec.alpha == 1
            assert sum(rec.payments.values(), ZERO) == e.projects[rec.project].cost

    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_bos_rounds_charge_exactly_cost(self, e):
        for rec in bos(e).rounds:
            assert sum(rec.payments.values(), ZERO) == e.projects[rec.project].cost

    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_fres_total_charge_matches_spend(self, e):
        out = fres(e)
        charged = sum(
            (sum(p.payments.values(), ZERO) for p in out.purchases), ZERO
        )
        spent = sum(
            (w * e.projects[c].cost for c, w in out.fractions.items()), ZERO
        )
        assert charged == spent
        for p in out.purchases:
            assert sum(p.payments.values(), ZERO) == p.alpha * e.projects[p.project].cost

    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_fres_balances_never_negative(self, e):
        balances = [e.budget / e.n_voters] * e.n_voters
        for p in fres(e).purchases:
            for voter, payment in p.payments.items():
                balances[voter] -= payment
                assert balances[voter] >= 0


class TestAffordabilityResidual:
    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_mes_quotes_settle_exactly(self, e):
        utilities = e.utilities
        for balances, rec in replay(
            e, mes(e).rounds, lambda b, u, rho: b - min(b, u * rho)
        ):
            cost = e.projects[rec.project].cost
            raised = sum(
                (min(balances[i], utilities.value(i, rec.project) * rec.rho)
                 for i in range(e.n_voters)),
                ZERO,
            )
            assert raised == cost

    @given(cardinal_elections())
    @settings(max_examples=40, deadline=None)
    def test_bos_quotes_settle_exactly(self, e):
        utilities = e.utilities
        for balances, rec in replay(
            e, bos(e).rounds, lambda b, u, rho: max(ZERO, b - u * rho)
        ):
            cost = e.projects[rec.project].cost
            raised = sum(
                (min(balances[i],
                     rec.alpha * utilities.value(i, rec.project) * rec.rho)
                 for i in range(e.n_voters)),
                ZERO,
            )
            assert raised == rec.alpha * cost


def scaled_utilities(e, k):
    return Election(e.projects, e.n_voters, e.budget, e.scores.scaled(k),
                    utility_model=e.utility_model)


def scaled_money(e, k):
    projects = tuple(
        Project(p.id, p.name, p.cost * k) for p in e.projects
    )
    return Election(projects, e.n_voters, e.budget * k, e.scores,
                    utility_model=e.utility_model)


class TestScaleInvariance:
    @given(cardinal_elections(), st.sampled_from([F(2), F(1, 3), F(7, 5)]))
    @settings(max_examples=30, deadline=None)
    def test_utility_scale(self, e, k):
        for rule in (mes, bos, bos_plus):
            base, scaled = rule(e), rule(scaled_utilities(e, k))
            assert base.selected == scaled.selected
            for lhs, rhs in zip(base.rounds, scaled.rounds):
                assert lhs.alpha == rhs.alpha
                assert lhs.rho == rhs.rho * k
                assert dict(lhs.payments) == dict(rhs.payments)
        base, scaled = fres(e), fres(scaled_utilities(e, k))
        assert base.fractions == scaled.fractions
        for lhs, rhs in zip(base.purchases, scaled.purchases):
            assert (lhs.project, lhs.alpha) == (rhs.project, rhs.alpha)
            assert lhs.rho == rhs.rho * k
            assert dict(lhs.payments) == dict(rhs.payments)

    @given(cardinal_elections(), st.sampled_from([F(2), F(3), F(1, 2)]))
    @settings(max_examples=30, deadline=None)
    def test_money_scale(self, e, k):
        for rule in (utilitarian, mes, bos, bos_plus):
            base, scaled = rule(e), rule(scaled_money(e, k))
            assert base.selected == scaled.selected
            for lhs, rhs in zip(base.rounds, scaled.rounds):
                assert lhs.alpha == rhs.alpha
                assert {v: p * k for v, p in lhs.payments.items()} == \
                       dict(rhs.payments)


class TestQuoteDominance:
    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(1, 9)),
            min_size=1, max_size=5,
        ),
        st.integers(1, 20),
        st.lists(st.fractions(min_value=F(1, 40), max_value=4), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampled_prices_never_beat_the_quote(self, pairs, cost, lams):
        cost = F(cost)
        prof = UtilityProfile.from_rows(
            len(pairs), 1, [{0: u} for u, _ in pairs]
        )
        budgets = BudgetState([F(b) for _, b in pairs])
        quote = bos_quote(Project(0, "p", cost), budgets, prof)
        assert quote is not None
        for lam in lams:
            raised = sum(
                (min(F(b), F(u) * lam) for u, b in pairs), ZERO
            )
            alpha = min(raised / cost, F(1))
            if alpha > 0:
                assert quote.ratio <= lam / (alpha * alpha)


class TestDeterminismAndTies:
    @given(cardinal_elections())
    @settings(max_examples=25, deadline=None)
    def test_repeat_runs_are_identical(self, e):
        for rule in (utilitarian, mes, add1u, bos, bos_plus):
            assert rule(e) == rule(e)
        assert fres(e) == fres(e)

    def test_tie_order_controls_selection(self):
        prof = UtilityProfile.from_rows(2, 2, [{0: 1, 1: 1}, {0: 1, 1: 1}])
        e = Election((Project(0, "p0", 2), Project(1, "p1", 2)), 2, F(2), prof)
        assert mes(e).selected == (0,)
        flipped = RuleConfig(tie_breaker=TieBreaker(order=(1, 0)))
        assert mes(e, flipped).selected == (1,)
        assert utilitarian(e).selected == (0,)
        assert utilitarian(e, flipped).selected == (1,)

    def test_tie_breaker_rejects_duplicates(self):
        import pytest

        with pytest.raises(ValueError):
            TieBreaker(order=(1, 1))


class TestInvariantChecks:
    """Load-bearing invariants raise a named error, not a bare assert, so
    they also fire under ``python -O``."""

    def test_fres_overdrawn_balance(self, monkeypatch):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        e = Election((Project(0, "a", 1),), 1, F(1), prof)

        def doubled(quote, budgets):
            # The lone voter's share takes her whole balance; twice it
            # overdraws her.
            amounts = [2 * n for n in quote._amounts()]
            return budgets.debit(quote.voters, amounts, 1, quote.den)

        monkeypatch.setattr(rules.AffordabilityQuote, "charge", doubled)
        with pytest.raises(rules.InvariantError, match="fres: voter 0 overdrawn"):
            fres(e)

    def test_add1u_infeasible_start(self, monkeypatch):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        e = Election((Project(0, "a", 1),), 1, F(1), prof)
        real_loop = rules._equal_shares

        def overspending_loop(*args, **kwargs):
            bought, _ = real_loop(*args, **kwargs)
            return bought, False

        monkeypatch.setattr(rules, "_equal_shares", overspending_loop)
        with pytest.raises(rules.InvariantError, match="add1u"):
            add1u(e)

    @pytest.mark.parametrize(
        "rule", [mes, bos, fres], ids=["mes", "bos", "fres"]
    )
    def test_payments_must_add_up_to_the_cost(self, monkeypatch, rule):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        e = Election((Project(0, "a", 1),), 1, F(1), prof)
        # With the column's weights said to sum to 2, not 1, the quote
        # prices the cost (for fres, the share's cost) over twice the
        # support, and its one payer's payment holds only half of it.
        monkeypatch.setitem(vars(prof), "column_sums", ((2, True),))
        with pytest.raises(
            rules.InvariantError, match="payments for project 0 do not add up"
        ):
            rule(e)

    @staticmethod
    def lopsided_election(monkeypatch):
        """Three voters holding 1/3 each and one project of cost 1, whose
        quotes charge voter 0 beyond her balance while the other two keep
        money."""
        prof = UtilityProfile.from_rows(3, 1, [{0: 1}] * 3)
        lopsided = {0: F(5, 9), 1: F(2, 9), 2: F(2, 9)}
        real_full_quote = rules._full_quote

        def ninths(*args):
            # The full quote's payments are 1/3 each, over den 3; the same
            # payments over 3 * den = 9 let owed write ninths.
            quote = real_full_quote(*args)
            quote.den, quote.rate, quote.cap = (
                3 * quote.den, 3 * quote.rate, 3 * quote.cap
            )
            return quote

        def owed(quote, budgets):
            # Debit integers over the quote's den, here 9, one per voter of
            # its voters (0, 1, 2).
            amounts = [int(p * quote.den) for p in lopsided.values()]
            return budgets.debit(quote.voters, amounts, 1, quote.den)

        monkeypatch.setattr(rules, "_full_quote", ninths)
        monkeypatch.setattr(rules.AffordabilityQuote, "charge", owed)
        return Election((Project(0, "a", 1),), 3, F(1), prof, UtilityModel.COST)

    def test_mes_charges_nobody_beyond_her_balance(self, monkeypatch):
        e = self.lopsided_election(monkeypatch)
        with pytest.raises(rules.InvariantError, match="mes: voter 0 overdrawn"):
            mes(e)

    def test_bos_overspending_round_drains_a_majority(self, monkeypatch):
        # One drained payer out of three.
        e = self.lopsided_election(monkeypatch)
        with pytest.raises(rules.InvariantError, match="strict majority"):
            bos(e)


class TestUtilityColumns:
    def test_one_add1u_run_derives_the_columns_once(
        self, monkeypatch, fixtures_dir
    ):
        election = load_election(
            str(fixtures_dir / "minority.pb"), UtilityModel.COST
        )
        derived, probes = [], []
        real_columns, real_loop = UtilityProfile.columns.func, rules._equal_shares

        def counted_columns(profile):
            derived.append(profile)
            return real_columns(profile)

        def counted_loop(*args, **kwargs):
            probes.append(args[2:4])
            return real_loop(*args, **kwargs)

        columns = functools.cached_property(counted_columns)
        columns.__set_name__(UtilityProfile, "columns")
        monkeypatch.setattr(UtilityProfile, "columns", columns)
        monkeypatch.setattr(rules, "_equal_shares", counted_loop)
        add1u(election)
        # Every mes probe of the scan priced from the one derivation.
        assert len(probes) > 2
        assert derived == [election.utilities]


# Amounts with mixed, sometimes large, denominators.
ledger_amounts = st.builds(
    F, st.integers(0, 40), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10**9 + 7])
)


class TestBoostedLedger:
    """bos-plus's boosted ledger, built on integers, against the same
    balances built from rationals."""

    @given(
        st.lists(ledger_amounts, min_size=1, max_size=6),
        st.integers(1, 20),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_formula(self, start, copies, data):
        # Up to 120 balances, so that some ledgers defer their reduction and
        # reach the boost with a working scale that is not minimal.
        start = start * copies
        n = len(start)
        state = BudgetState(start)
        voters = st.integers(0, n - 1)
        charges = data.draw(st.lists(st.tuples(voters, ledger_amounts), max_size=5))
        den = math.lcm(*(a.denominator for _, a in charges))
        state.debit(
            [i for i, _ in charges], [int(a * den) for _, a in charges], 1, den
        )
        balances = [F(u, state.work_scale) for u in state.work_units]
        boost = data.draw(ledger_amounts)
        used = data.draw(st.dictionaries(voters, ledger_amounts.filter(bool)))
        boosted = rules._boosted(state, boost, used)
        expected = BudgetState(
            [b + max(ZERO, boost - used.get(i, ZERO)) for i, b in enumerate(balances)]
        )
        # The same minimal ledger, and the same bound on its growth, before
        # a public view reduces it.
        assert (boosted.work_units, boosted.work_scale, boosted._limit) == (
            expected.work_units, expected.work_scale, expected._limit
        )
        assert boosted.balances == expected.balances
