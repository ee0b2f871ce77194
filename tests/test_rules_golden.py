"""Frozen end-to-end traces for every rule on the bundled fixtures.

Project ids in the reference instance: A=0, B=1, C=2, D=3, E=4, F=5.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as F
from itertools import accumulate

import pytest

import oracles
from eqshares import rules
from eqshares.model import BudgetState, UtilityModel, UtilityProfile, Project
from eqshares.rules import (
    RULE_NAMES,
    RuleConfig,
    TieBreaker,
    add1u,
    bos,
    bos_plus,
    bos_quote,
    fres,
    fres_utilitarian_completion,
    mes,
    min_rho,
    run_rule,
    utilitarian,
)

THOUSANDS = 1000


def replay_balances(n_voters, per_voter, rounds):
    """Balance vector after charging each round's payments in order."""
    balances = [per_voter] * n_voters
    vectors = []
    for rec in rounds:
        for voter, payment in rec.payments.items():
            balances[voter] = max(F(0), balances[voter] - payment)
        vectors.append(tuple(balances))
    return vectors


class TestUtilitarian:
    def test_reference(self, reference_election):
        out = utilitarian(reference_election)
        assert out.selected == (0, 1, 2)
        assert out.feasible

    def test_zero_projects(self):
        prof = UtilityProfile.from_rows(1, 0, [{}])
        from eqshares.model import Election
        empty = Election((), 1, F(5), prof)
        assert utilitarian(empty).selected == ()


class TestMinRho:
    def test_reference_first_round(self, reference_election):
        budgets = BudgetState.equal_endowment(F(100000), 10)
        quote = min_rho(reference_election.projects[0], budgets,
                        reference_election.cost_utilities)
        assert quote.rho == F(1, 6)
        assert quote.alpha == 1
        assert dict(quote.payments) == {i: F(50000) for i in range(6)}

    def test_reference_third_round(self, reference_election):
        balances = [F(50000)] * 6 + [F(40000)] * 4
        quote = min_rho(reference_election.projects[4], BudgetState(balances),
                        reference_election.cost_utilities)
        assert quote.rho == F(5, 17)
        assert dict(quote.payments) == {
            1: F(50000), 6: F(40000), 7: F(40000), 8: F(40000)
        }

    def test_insufficient_funds(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        state = BudgetState([F(1)])
        assert min_rho(Project(0, "x", 2), state, prof) is None


class TestMes:
    def test_reference_trace(self, reference_election):
        out = mes(reference_election)
        assert out.selected == (0, 3, 4)
        assert out.feasible
        assert [(r.project, r.alpha, r.rho) for r in out.rounds] == [
            (0, F(1), F(1, 6)),
            (3, F(1), F(1, 4)),
            (4, F(1), F(5, 17)),
        ]
        assert dict(out.rounds[2].payments) == {
            1: F(50000), 6: F(40000), 7: F(40000), 8: F(40000)
        }
        vectors = replay_balances(10, F(100000), out.rounds)
        assert vectors[0] == tuple(
            F(k * THOUSANDS) for k in (50, 50, 50, 50, 50, 50, 100, 100, 100, 100)
        )
        assert vectors[1] == tuple(
            F(k * THOUSANDS) for k in (50, 50, 50, 50, 50, 50, 40, 40, 40, 40)
        )
        assert vectors[2] == tuple(
            F(k * THOUSANDS) for k in (50, 0, 50, 50, 50, 50, 0, 0, 0, 40)
        )

    def test_minority(self, minority_election):
        assert mes(minority_election).selected == (1,)

    def test_tail(self, tail_election):
        out = mes(tail_election)
        assert out.selected == (1,)
        assert out.rounds[0].rho == F(1, 200)

    def test_blocks(self, blocks_election):
        assert sorted(mes(blocks_election).selected) == list(range(7))

    def test_single_project_equal_split(self):
        from eqshares.model import Election
        prof = UtilityProfile.from_rows(3, 1, [{0: 1}] * 3)
        e = Election((Project(0, "p", 1),), 3, F(3), prof)
        out = mes(e)
        assert out.selected == (0,)
        assert out.rounds[0].rho == F(1, 3)

    def test_endowment_must_be_positive(self, reference_election):
        with pytest.raises(ValueError, match="endowment must be positive"):
            mes(reference_election, b_ini=0)

    def test_oversized_endowment_flags_infeasible(self, reference_election):
        out = mes(reference_election, b_ini=F(1000000))
        assert not out.feasible

    def test_oversized_endowment_buys_past_the_budget(self, reference_election):
        """An over-endowed run does not end where its spend first passes
        the budget: it returns every purchase, as the full-rescan oracle
        makes them."""
        e = reference_election
        b_ini = 2 * e.budget / e.n_voters
        out = mes(e, b_ini=b_ini)
        assert not out.feasible
        # The fourth of six purchases takes the spend past the budget.
        spends = accumulate(e.projects[r.project].cost for r in out.rounds)
        assert [s > e.budget for s in spends] == [False] * 3 + [True] * 3
        _, trace = oracles.naive_mes(e, b_ini=b_ini)
        assert [(r.project, r.rho) for r in out.rounds] == trace


class TestAdd1u:
    def test_reference(self, reference_election):
        out = add1u(reference_election)
        assert sorted(out.selected) == [0, 2, 3, 5]
        assert out.feasible

    def test_minority(self, minority_election):
        assert add1u(minority_election).selected == (1,)

    def test_blocks(self, blocks_election):
        assert sorted(add1u(blocks_election).selected) == list(range(10))

    def test_overspending_probe_ends_at_its_overspending_purchase(
        self, blocks_election, monkeypatch
    ):
        """The scan's second probe, at endowment 101/100, would buy all 310
        projects; the 11th takes its spend past the budget of 10, and the
        probe ends there."""
        probes = []
        real_loop = rules._equal_shares

        def counted_loop(election, config, num, den, keep, *args, **kwargs):
            made = []

            def kept(quote):
                made.append(quote.project)
                return keep(quote)

            bought, feasible = real_loop(
                election, config, num, den, kept, *args, **kwargs
            )
            probes.append((F(num, den), len(made), feasible))
            return bought, feasible

        monkeypatch.setattr(rules, "_equal_shares", counted_loop)
        out = add1u(blocks_election)
        assert probes == [(F(1, 100), 7, True), (F(101, 100), 11, False)]
        assert sorted(out.selected) == list(range(10))

    def test_noop_when_mes_exhaustive(self):
        from eqshares.model import Election
        prof = UtilityProfile.from_rows(2, 1, [{0: 1}, {0: 1}])
        e = Election((Project(0, "p", 2),), 2, F(2), prof)
        assert add1u(e).selected == mes(e).selected == (0,)

    def test_reference_probe_trace(self, reference_election, monkeypatch):
        """Every purchase of every probe of the scan, not only the kept
        probe's: its project, exact rho and exact payments, in order."""
        digest = hashlib.sha256()
        probes = []
        real_loop = rules._equal_shares

        def traced_loop(election, config, num, den, keep, *args, **kwargs):
            def kept(quote):
                paid = " ".join(
                    f"{i}:{p}" for i, p in sorted(quote.payments.items())
                )
                digest.update(f"{quote.project} {quote.rho} {paid}\n".encode())
                return keep(quote)

            digest.update(f"probe {num}/{den}\n".encode())
            bought, feasible = real_loop(
                election, config, num, den, kept, *args, **kwargs
            )
            probes.append(feasible)
            digest.update(f"feasible {feasible}\n".encode())
            return bought, feasible

        monkeypatch.setattr(rules, "_equal_shares", traced_loop)
        add1u(reference_election)
        assert len(probes) == 16001
        assert probes.count(False) == 1
        assert digest.hexdigest() == REFERENCE_PROBE_TRACE


# sha256 of the add1u probe trace on reference.pb under the cost model.
REFERENCE_PROBE_TRACE = (
    "66ee397969fe031702ec1109ecbfc056fe9a7bbeb2b8fbdc56c5e0c225324a23"
)


FRES_REFERENCE_CONFIG = RuleConfig(tie_breaker=TieBreaker(order=(2, 5)))


class TestFres:
    def test_reference_trace(self, reference_election):
        out = fres(reference_election, FRES_REFERENCE_CONFIG)
        assert dict(out.fractions) == {
            0: F(1), 2: F(5, 6), 3: F(1), 4: F(11, 17), 5: F(1, 2)
        }
        assert out.fraction(1) == 0
        assert [(p.project, p.alpha, p.rho) for p in out.purchases] == [
            (0, F(1), F(1, 6)),
            (2, F(5, 6), F(1, 5)),
            (3, F(5, 6), F(1, 4)),
            (3, F(1, 6), F(1, 3)),
            (4, F(11, 17), F(1, 3)),
            (5, F(1, 2), F(1)),
        ]
        spent = sum(
            frac * reference_election.projects[c].cost
            for c, frac in out.fractions.items()
        )
        charged = sum(
            sum(p.payments.values(), F(0)) for p in out.purchases
        )
        assert spent == charged == 950000

    def test_single_voter_is_fractional_knapsack(self):
        from eqshares.model import Election
        prof = UtilityProfile.from_rows(1, 2, [{0: 6, 1: 5}])
        e = Election((Project(0, "p0", 6), Project(1, "p1", 10)), 1, F(10), prof)
        out = fres(e)
        assert dict(out.fractions) == {0: F(1), 1: F(2, 5)}

    def test_no_support_anywhere(self):
        from eqshares.model import Election
        prof = UtilityProfile.from_rows(2, 1, [{}, {}])
        e = Election((Project(0, "p", 1),), 2, F(2), prof)
        out = fres(e)
        assert not out.fractions
        assert not out.purchases


class TestFresCompletion:
    def test_reference_adds_top_ratio_project(self, reference_election):
        partial = fres(reference_election, FRES_REFERENCE_CONFIG)
        done = fres_utilitarian_completion(reference_election, partial)
        assert dict(done.fractions) == {
            0: F(1), 1: F(1, 8), 2: F(5, 6), 3: F(1), 4: F(11, 17), 5: F(1, 2)
        }
        last = done.purchases[-1]
        assert (last.project, last.alpha, last.rho) == (1, F(1, 8), None)
        assert not last.payments

    def test_rejects_an_overspending_partial_outcome(self, reference_election):
        from eqshares.model import FractionalOutcome
        e = reference_election
        every = FractionalOutcome({p.id: F(1) for p in e.projects}, ())
        assert e.spent(every) > e.budget
        with pytest.raises(ValueError, match="already exceeds the budget"):
            fres_utilitarian_completion(e, every)

    def test_noop_when_budget_spent(self):
        from eqshares.model import Election
        prof = UtilityProfile.from_rows(1, 2, [{0: 6, 1: 5}])
        e = Election((Project(0, "p0", 6), Project(1, "p1", 10)), 1, F(10), prof)
        partial = fres(e)
        assert fres_utilitarian_completion(e, partial).fractions == partial.fractions

    def test_noop_when_everything_funded(self):
        from eqshares.model import Election
        prof = UtilityProfile.from_rows(1, 1, [{0: 6}])
        e = Election((Project(0, "p0", 6),), 1, F(100), prof)
        partial = fres(e)
        assert partial.fractions == {0: F(1)}
        assert fres_utilitarian_completion(e, partial).fractions == partial.fractions


class TestBosQuote:
    def test_reference_second_round(self, reference_election):
        balances = [F(50000)] * 6 + [F(100000)] * 4
        quote = bos_quote(reference_election.projects[2], BudgetState(balances),
                          reference_election.cost_utilities)
        assert quote.alpha == F(5, 6)
        assert quote.rho == F(1, 5)
        assert quote.ratio == F(6, 25)
        assert dict(quote.payments) == {i: F(60000) for i in (1, 2, 3, 4, 9)}

    def test_minority_full_budget_project(self, minority_election):
        budgets = BudgetState.equal_endowment(F(310000, 414), 414)
        quote = bos_quote(minority_election.projects[0], budgets,
                          minority_election.cost_utilities)
        assert quote.alpha == F(403, 414)
        assert quote.rho == F(1, 403)
        assert quote.ratio == F(414, 403 * 403)

    def test_unconstrained_full_purchase(self):
        prof = UtilityProfile.from_rows(2, 1, [{0: 2}, {0: 3}])
        quote = bos_quote(Project(0, "p", 4),
                          BudgetState([F(10), F(10)]), prof)
        assert quote.alpha == 1
        assert quote.rho == F(4, 5)

    def test_no_supporter_money(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        assert bos_quote(Project(0, "p", 1), BudgetState([F(0)]), prof) is None


class TestBos:
    def test_reference_trace(self, reference_election):
        out = bos(reference_election)
        assert out.selected == (0, 2, 3, 5)
        assert [(r.project, r.alpha, r.rho, r.overspent) for r in out.rounds] == [
            (0, F(1), F(1, 6), ()),
            (2, F(5, 6), F(1, 5), (1, 2, 3, 4)),
            (3, F(1), F(5, 18), ()),
            (5, F(5, 6), F(3, 5), (5, 8)),
        ]
        assert dict(out.rounds[2].payments) == {
            6: F(200000, 3), 7: F(200000, 3), 8: F(200000, 3), 9: F(40000)
        }
        assert dict(out.rounds[3].payments) == {5: F(60000), 8: F(40000)}

    def test_minority(self, minority_election):
        out = bos(minority_election)
        assert out.selected == (0,)
        assert (out.rounds[0].alpha, out.rounds[0].rho) == (F(403, 414), F(1, 403))

    def test_tail(self, tail_election):
        out = bos(tail_election)
        assert out.selected == (0,)
        assert (out.rounds[0].alpha, out.rounds[0].rho) == (
            F(9901, 10000), F(1, 9901)
        )

    def test_blocks(self, blocks_election):
        out = bos(blocks_election)
        assert sorted(out.selected) == [0, 1, 2, 3, 4, 5, 6, 10, 11, 12]

    def test_reference_with_redistribution(self, reference_election):
        cfg = RuleConfig(exhaustive_redistribution=True)
        assert sorted(bos(reference_election, cfg).selected) == [0, 2, 3, 5]


class TestBosPlus:
    def test_reference(self, reference_election):
        assert sorted(bos_plus(reference_election).selected) == [0, 2, 3, 5]

    def test_minority(self, minority_election):
        out = bos_plus(minority_election)
        assert out.selected == (0,)
        assert (out.rounds[0].alpha, out.rounds[0].rho) == (F(1), F(1, 403))

    def test_blocks(self, blocks_election):
        assert sorted(bos_plus(blocks_election).selected) == list(range(10))

    def test_equals_bos_without_overspending(self):
        from eqshares.model import Election
        prof = UtilityProfile.from_rows(2, 2, [{0: 1, 1: 1}, {0: 1, 1: 1}])
        e = Election((Project(0, "p0", 1), Project(1, "p1", 1)), 2, F(2), prof,
                     utility_model=UtilityModel.COST)
        plain, plus = bos(e), bos_plus(e)
        assert plain.selected == plus.selected == (0, 1)
        assert [(r.alpha, r.rho, dict(r.payments)) for r in plain.rounds] == \
               [(r.alpha, r.rho, dict(r.payments)) for r in plus.rounds]


class TestThresholdPair:
    """Two projects: one costs the whole budget, one costs a single unit."""

    @staticmethod
    def build(n, x):
        from eqshares.model import Election
        projects = (Project(0, "A", F(n)), Project(1, "B", F(1)))
        rows = [{0: 1} if i < x else {1: 1} for i in range(n)]
        prof = UtilityProfile.from_rows(n, 2, rows)
        return Election(projects, n, F(n), prof, utility_model=UtilityModel.COST)

    def test_flip_point_at_n_100(self):
        below = bos(self.build(100, 61))
        above = bos(self.build(100, 62))
        assert below.selected == (1,)
        assert above.selected == (0,)


class TestRunRule:
    def test_names_cover_every_rule(self):
        assert RULE_NAMES == (
            "utilitarian", "mes", "mes-add1u", "fres", "fres-complete",
            "bos", "bos-plus",
        )

    def test_dispatch_matches_direct_calls(self, reference_election):
        assert run_rule("utilitarian", reference_election).selected == (0, 1, 2)
        assert run_rule("mes", reference_election).selected == (0, 3, 4)
        assert sorted(run_rule("bos", reference_election).selected) == [0, 2, 3, 5]

    def test_unknown_rule(self, reference_election):
        with pytest.raises(ValueError):
            run_rule("borda", reference_election)

    def test_add1u_step_must_be_positive(self):
        with pytest.raises(ValueError, match="add1u_step must be positive"):
            RuleConfig(add1u_step=0)
