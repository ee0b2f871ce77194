"""Audit-metric and representation-axiom tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eqshares.axioms import (
    audit,
    budget_spent_fraction,
    ejr_plus_violations,
    ejr_up_to_witnesses,
    exclusion_ratio,
    fractional_ejr_falsifier,
    is_exhaustive,
    overspend_rounds_exhaust_majority,
    relative_satisfaction,
    satisfaction,
)
from eqshares.cli import BENCH_RULES
from eqshares.model import (
    Election,
    FractionalOutcome,
    Outcome,
    Project,
    PurchaseRecord,
    UtilityModel,
    UtilityProfile,
    is_feasible,
    outcome_utility,
)
from eqshares.pabulib import load_election
from eqshares.rules import (
    RULE_NAMES,
    add1u,
    bos,
    fres,
    fres_utilitarian_completion,
    mes,
    run_rule,
)

UTILITARIAN_REF = Outcome((0, 1, 2), ())
MES_REF = Outcome((0, 3, 4), ())
BOS_REF = Outcome((0, 2, 3, 5), ())


@st.composite
def approval_elections(draw, max_voters=5, max_projects=4):
    n = draw(st.integers(1, max_voters))
    m = draw(st.integers(1, max_projects))
    budget = draw(st.integers(2, 14))
    projects = tuple(
        Project(c, f"p{c}", F(draw(st.integers(1, budget)))) for c in range(m)
    )
    rows = [
        {c: 1 for c in draw(st.sets(st.integers(0, m - 1)))} for _ in range(n)
    ]
    prof = UtilityProfile.from_rows(n, m, rows)
    return Election(projects, n, F(budget), prof,
                    utility_model=UtilityModel.COST)


@st.composite
def elections_with_outcomes(draw, max_voters=5, max_projects=4):
    """A cardinal election and a random integral or fractional outcome,
    which may overspend and may list zero shares."""
    n = draw(st.integers(1, max_voters))
    m = draw(st.integers(1, max_projects))
    budget = draw(st.integers(2, 14))
    projects = tuple(
        Project(c, f"p{c}", F(draw(st.integers(1, budget)))) for c in range(m)
    )
    values = st.sampled_from([0, 0, 1, 2, F(1, 2), F(7, 3)])
    rows = [{c: draw(values) for c in range(m)} for _ in range(n)]
    model = draw(st.sampled_from(list(UtilityModel)))
    e = Election(projects, n, F(budget), UtilityProfile.from_rows(n, m, rows),
                 utility_model=model)
    chosen = sorted(draw(st.sets(st.integers(0, m - 1))))
    if draw(st.booleans()):
        return e, Outcome(tuple(chosen), ())
    shares = st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(1)])
    return e, FractionalOutcome({c: draw(shares) for c in chosen}, ())


class TestOutcomeView:
    """Satisfaction, spending, feasibility and exclusion agree with sums
    written out here from the funded shares."""

    @given(elections_with_outcomes())
    @settings(max_examples=200, deadline=None)
    def test_metrics_match_funded_shares(self, case):
        e, out = case
        if isinstance(out, FractionalOutcome):
            shares = dict(out.fractions)
        else:
            shares = {c: F(1) for c in out.selected}
        for model in UtilityModel:
            per_voter = sum(
                (outcome_utility(e, i, out, model) for i in range(e.n_voters)),
                F(0),
            )
            assert per_voter == satisfaction(e, out, model)
        spent = sum((w * e.projects[c].cost for c, w in shares.items()), F(0))
        assert budget_spent_fraction(e, out) * e.budget == spent
        assert is_feasible(e, out) == (spent <= e.budget)
        unserved = [
            i for i in range(e.n_voters)
            if outcome_utility(e, i, out, UtilityModel.SCORE) == 0
        ]
        assert exclusion_ratio(e, out) == F(len(unserved), e.n_voters)


class TestExclusionRatio:
    def test_reference_utilitarian(self, reference_election):
        assert exclusion_ratio(reference_election, UTILITARIAN_REF) == F(3, 10)

    def test_reference_mes(self, reference_election):
        assert exclusion_ratio(reference_election, MES_REF) == 0

    def test_empty_outcome(self, reference_election):
        assert exclusion_ratio(reference_election, Outcome((), ())) == 1

    def test_fractional_counts_positive_funding_only(self, reference_election):
        # Project 3 keeps a positive share, so its approvers (voters 6..9)
        # count as served; the zero share for project 4 serves nobody.
        fo = FractionalOutcome({3: F(1, 2), 4: F(0)}, ())
        assert exclusion_ratio(reference_election, fo) == F(6, 10)

    @given(approval_elections())
    @settings(max_examples=30, deadline=None)
    def test_fres_excludes_nobody_with_support(self, e):
        if any(not e.scores.support_set(i) for i in range(e.n_voters)):
            return
        assert exclusion_ratio(e, fres(e)) == 0


class TestSatisfaction:
    def test_reference_bos_cost_model(self, reference_election):
        value = satisfaction(reference_election, BOS_REF, UtilityModel.COST)
        assert value == 4560000

    def test_empty_outcome(self, reference_election):
        assert satisfaction(reference_election, Outcome((), ()),
                            UtilityModel.COST) == 0

    def test_fractional_weighting(self, reference_election):
        fo = FractionalOutcome({0: F(1, 2)}, ())
        value = satisfaction(reference_election, fo, UtilityModel.COST)
        assert value == 6 * 300000 / 2

    @given(approval_elections())
    @settings(max_examples=30, deadline=None)
    def test_relative_satisfaction_of_utilitarian_is_one(self, e):
        from eqshares.rules import utilitarian

        out = utilitarian(e)
        for model in UtilityModel:
            assert relative_satisfaction(e, out, model) == 1

    def test_zero_over_zero_is_one(self):
        prof = UtilityProfile.from_rows(1, 1, [{}])
        e = Election((Project(0, "p", 1),), 1, F(2), prof)
        assert relative_satisfaction(e, Outcome((0,), ()),
                                     UtilityModel.COST) == 1


class TestExhaustiveness:
    def test_reference_mes_leaves_room(self, reference_election):
        assert not is_exhaustive(reference_election, MES_REF)

    def test_reference_bos_exhaustive(self, reference_election):
        assert is_exhaustive(reference_election, BOS_REF)

    def test_everything_selected(self):
        prof = UtilityProfile.from_rows(1, 2, [{0: 1, 1: 1}])
        e = Election((Project(0, "a", 5), Project(1, "b", 5)), 1, F(100), prof)
        assert is_exhaustive(e, Outcome((0, 1), ()))

    def test_fractional_variants(self, reference_election):
        partial = fres(reference_election)
        assert not is_exhaustive(reference_election, partial)
        done = fres_utilitarian_completion(reference_election, partial)
        assert is_exhaustive(reference_election, done)
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        tiny = Election((Project(0, "a", 1),), 1, F(5), prof)
        assert is_exhaustive(tiny, FractionalOutcome({0: F(1)}, ()))


class TestBudgetSpentFraction:
    def test_reference_mes(self, reference_election):
        assert budget_spent_fraction(reference_election, MES_REF) == F(71, 100)

    def test_empty(self, reference_election):
        assert budget_spent_fraction(reference_election, Outcome((), ())) == 0

    def test_exact_spend(self, reference_election):
        assert budget_spent_fraction(reference_election, UTILITARIAN_REF) == 1

    def test_fractional(self, reference_election):
        fo = fres(reference_election)
        assert budget_spent_fraction(reference_election, fo) == F(950000, 1000000)


class TestEjrPlusViolations:
    def test_reference_utilitarian_witnesses(self, reference_election):
        count, witnesses = ejr_plus_violations(reference_election,
                                               UTILITARIAN_REF)
        assert count == 3
        by_project = {w.project: w.group for w in witnesses}
        assert set(by_project) == {3, 4, 5}
        assert by_project[3] == (6, 7, 8)

    def test_reference_mes_clean(self, reference_election):
        assert ejr_plus_violations(reference_election, MES_REF)[0] == 0
        out = add1u(reference_election)
        assert ejr_plus_violations(reference_election, out)[0] == 0

    def test_all_selected_is_clean(self):
        prof = UtilityProfile.from_rows(2, 2, [{0: 1}, {1: 1}])
        e = Election((Project(0, "a", 1), Project(1, "b", 1)), 2, F(2), prof,
                     utility_model=UtilityModel.COST)
        assert ejr_plus_violations(e, Outcome((0, 1), ()))[0] == 0

    def test_rejects_cardinal_profiles(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 2}])
        e = Election((Project(0, "a", 1),), 1, F(2), prof)
        with pytest.raises(ValueError):
            ejr_plus_violations(e, Outcome((), ()))

    @given(approval_elections())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_subset_search(self, e):
        for outcome in (Outcome((), ()), mes(e), bos(e)):
            funded = {c: F(1) for c in outcome.selected}
            expected = oracles.brute_force_ejr_plus(e, funded)
            count, witnesses = ejr_plus_violations(e, outcome)
            assert {w.project for w in witnesses} == expected
            assert count == len(expected)


@st.composite
def ejr_plus_cases(draw, max_voters=7, max_projects=5):
    """Approval elections with fractional costs and a b/n with a large
    denominator, under integral, fractional (zero and full shares
    included) and over-budget outcomes."""
    n = draw(st.integers(1, max_voters))
    m = draw(st.integers(1, max_projects))
    costs = [
        F(draw(st.integers(1, 60)), draw(st.sampled_from([1, 2, 3, 7, 10, 11, 13])))
        for _ in range(m)
    ]
    big = draw(st.sampled_from([1, 999_983, 10**9 + 7]))
    budget = max(costs) + F(draw(st.integers(0, 200 * big)), big)
    projects = tuple(Project(c, f"p{c}", costs[c]) for c in range(m))
    rows = [
        {c: 1 for c in draw(st.sets(st.integers(0, m - 1)))} for _ in range(n)
    ]
    e = Election(projects, n, budget, UtilityProfile.from_rows(n, m, rows),
                 utility_model=UtilityModel.COST)
    if draw(st.booleans()):
        # Any subset of projects, so the selection may exceed the budget.
        selected = tuple(sorted(draw(st.sets(st.integers(0, m - 1)))))
        return e, Outcome(selected, ()), {c: F(1) for c in selected}
    fractions = {
        c: F(draw(st.integers(0, d)), d)
        for c, d in draw(
            st.dictionaries(st.integers(0, m - 1), st.integers(1, 12))
        ).items()
    }
    return e, FractionalOutcome(fractions, ()), fractions


class TestEjrPlusAgainstPrefixScan:
    """The integer audit against the rational prefix scan, witnesses included."""

    @staticmethod
    def _result(e, outcome):
        count, witnesses = ejr_plus_violations(e, outcome)
        return count, [(w.project, w.group) for w in witnesses]

    @given(ejr_plus_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, case):
        e, outcome, funded = case
        assert self._result(e, outcome) == oracles.naive_ejr_plus(e, funded)

    def test_voter_id_breaks_satisfaction_ties(self):
        # Voters 0 and 1 got project 1; voters 2 and 3 are tied at zero
        # satisfaction, so the lower id alone forms the witness for project 0.
        prof = UtilityProfile.from_rows(
            4, 2, [{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1}, {0: 1}]
        )
        e = Election((Project(0, "a", 1), Project(1, "b", 1)), 4, F(4), prof,
                     utility_model=UtilityModel.COST)
        outcome = Outcome((1,), ())
        assert self._result(e, outcome) == (1, [(0, (2,))])
        assert oracles.naive_ejr_plus(e, {1: F(1)}) == (1, [(0, (2,))])


def seeded_approval_election(seed, n_voters=300, n_projects=15):
    """A Pabulib-shaped approval election, deterministic in its seed:
    skewed project popularity, ballots of one to five projects, fractional
    costs and a b/n with a large denominator. Even seeds use the cost
    model, odd seeds the score model."""
    rng = random.Random(seed)
    popularity = [rng.lognormvariate(0, 1) for _ in range(n_projects)]
    costs = [
        F(rng.randint(5, 90) * 1000, rng.choice([1, 1, 3, 7]))
        for _ in range(n_projects)
    ]
    rows = []
    for _ in range(n_voters):
        # Weighted sampling without replacement (Efraimidis-Spirakis keys).
        keys = {c: rng.random() ** (1 / popularity[c]) for c in range(n_projects)}
        ranked = sorted(keys, key=keys.__getitem__, reverse=True)
        rows.append({c: 1 for c in ranked[: rng.randint(1, 5)]})
    budget = max(max(costs), sum(costs) * F(3, 10)) + F(
        rng.randint(1, 10**6), 999_983
    )
    projects = tuple(Project(c, f"p{c}", costs[c]) for c in range(n_projects))
    model = UtilityModel.SCORE if seed % 2 else UtilityModel.COST
    return Election(projects, n_voters, budget,
                    UtilityProfile.from_rows(n_voters, n_projects, rows),
                    utility_model=model)


def funded_shares(outcome):
    """The oracle's view of an outcome: every listed share, zeros kept."""
    if isinstance(outcome, FractionalOutcome):
        return dict(outcome.fractions)
    return dict.fromkeys(outcome.selected, F(1))


def halved(outcome):
    """The outcome with every share halved (fractional) or its later half
    of purchases dropped (integral), which leaves approvers underserved."""
    if isinstance(outcome, FractionalOutcome):
        return FractionalOutcome(
            {c: w / 2 for c, w in outcome.fractions.items()}, ()
        )
    return Outcome(outcome.selected[: len(outcome.selected) // 2], ())


class TestEjrPlusAtScale:
    """The column-wise audits against the oracles' row scans on elections
    of a few hundred voters, EJR+ witnesses included. The rules' own
    outcomes are mostly clean, so each is also checked halved, which has
    witnesses."""

    def test_matches_oracles_on_rule_outcomes(self):
        violations = 0
        for seed in range(6):
            e = seeded_approval_election(seed)
            for out in (mes(e), bos(e), fres(e)):
                for outcome in (out, halved(out)):
                    funded = funded_shares(outcome)
                    count, witnesses = ejr_plus_violations(e, outcome)
                    assert (
                        count, [(w.project, w.group) for w in witnesses]
                    ) == oracles.naive_ejr_plus(e, funded)
                    assert exclusion_ratio(e, outcome) == (
                        oracles.naive_exclusion_ratio(e, funded)
                    )
                    violations += count
        assert violations > 0


class TestExclusionAgainstRowScan:
    """The supporter-column union against one pass over the ballot rows."""

    @given(ejr_plus_cases())
    @settings(max_examples=200, deadline=None)
    def test_approval_outcomes(self, case):
        e, outcome, funded = case
        assert exclusion_ratio(e, outcome) == oracles.naive_exclusion_ratio(
            e, funded
        )

    @given(elections_with_outcomes())
    @settings(max_examples=100, deadline=None)
    def test_cardinal_outcomes(self, case):
        e, outcome = case
        assert exclusion_ratio(e, outcome) == oracles.naive_exclusion_ratio(
            e, funded_shares(outcome)
        )


class TestEjrUpToWitnesses:
    def test_rejects_oversized_instances(self):
        n = 13
        prof = UtilityProfile.from_rows(n, 1, [{0: 1}] * n)
        e = Election((Project(0, "a", 1),), n, F(n), prof,
                     utility_model=UtilityModel.COST)
        with pytest.raises(ValueError):
            ejr_up_to_witnesses(e, Outcome((), ()), 0)

    def test_rejects_cardinal_profiles(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 2}])
        e = Election((Project(0, "a", 1),), 1, F(2), prof)
        with pytest.raises(ValueError):
            ejr_up_to_witnesses(e, Outcome((), ()), 0)

    def test_funded_groups_never_witness(self):
        prof = UtilityProfile.from_rows(3, 2, [{0: 1, 1: 1}] * 3)
        e = Election((Project(0, "a", 1), Project(1, "b", 1)), 3, F(2), prof,
                     utility_model=UtilityModel.COST)
        assert ejr_up_to_witnesses(e, Outcome((0, 1), ()), 0) == []

    def test_unserved_cohesive_group_is_found(self):
        prof = UtilityProfile.from_rows(4, 2, [{0: 1, 1: 1}] * 4)
        e = Election((Project(0, "a", 1), Project(1, "b", 1)), 4, F(4), prof,
                     utility_model=UtilityModel.COST)
        witnesses = ejr_up_to_witnesses(e, Outcome((), ()), 0)
        assert witnesses
        assert all(w.violating_project in (0, 1) for w in witnesses)

    def test_limit_stops_the_search(self):
        prof = UtilityProfile.from_rows(4, 2, [{0: 1, 1: 1}] * 4)
        e = Election((Project(0, "a", 1), Project(1, "b", 1)), 4, F(4), prof,
                     utility_model=UtilityModel.COST)
        every = ejr_up_to_witnesses(e, Outcome((), ()), 0)
        assert len(every) > 1
        assert ejr_up_to_witnesses(e, Outcome((), ()), 0, limit=1) == every[:1]

    def test_minority_group_served_within_zero_slack(self, minority_election):
        # The 11-voter group behind the cheap project deserves it: the group
        # share exceeds the project cost. With a singleton project set the
        # satisfaction bound collapses to zero, so even the all-zero
        # satisfaction vector cannot fall below it.
        e = minority_election
        group_size = 11
        cheap = e.projects[1]
        share = group_size * e.budget / e.n_voters
        assert share >= cheap.cost
        bound = cheap.cost - 0 - cheap.cost
        group_satisfaction = F(0)
        assert not (group_satisfaction < bound)

    @given(approval_elections())
    @settings(max_examples=30, deadline=None)
    def test_unit_cost_budget_share_slack(self, e):
        if any(p.cost != 1 for p in e.projects):
            return
        k = e.budget

        def slack(size: int) -> F:
            ell = F(size * k, e.n_voters)
            return F(math.ceil((k - ell) / (2 * ell)))

        assert ejr_up_to_witnesses(e, bos(e), slack) == []


class TestFractionalEjrFalsifier:
    def test_full_funding_has_no_counterexample(self):
        prof = UtilityProfile.from_rows(2, 2, [{0: 1, 1: 2}, {0: 3}])
        e = Election((Project(0, "a", 1), Project(1, "b", 1)), 2, F(50), prof)
        out = fres(e)
        assert out.fractions == {0: F(1), 1: F(1)}
        report = fractional_ejr_falsifier(e, out, trials=500)
        assert report.counterexample is None
        assert report.trials == 500

    def test_no_support_means_no_counterexample(self):
        prof = UtilityProfile.from_rows(2, 1, [{}, {}])
        e = Election((Project(0, "a", 1),), 2, F(2), prof)
        report = fractional_ejr_falsifier(e, fres(e), trials=200)
        assert report.counterexample is None

    def test_detects_a_stiffed_cohesive_group(self):
        prof = UtilityProfile.from_rows(2, 1, [{0: 1}, {0: 1}])
        e = Election((Project(0, "a", 1),), 2, F(2), prof)
        report = fractional_ejr_falsifier(e, FractionalOutcome({}, ()),
                                          trials=1000)
        spec = report.counterexample
        assert spec is not None
        assert set(spec.projects) == {0}

    def test_deterministic_given_seed(self, reference_election):
        out = fres(reference_election)
        first = fractional_ejr_falsifier(reference_election, out, trials=50,
                                         seed=7)
        second = fractional_ejr_falsifier(reference_election, out, trials=50,
                                          seed=7)
        assert first == second


class TestOverspendMajority:
    def test_reference_bos(self, reference_election):
        out = bos(reference_election)
        assert overspend_rounds_exhaust_majority(reference_election, out)

    def test_rounds_without_overspending_pass(self, reference_election):
        out = mes(reference_election)
        assert overspend_rounds_exhaust_majority(reference_election, out)

    def test_tail_overspend_drains_majority(self, tail_election):
        out = bos(tail_election)
        assert out.rounds[0].overspent == tuple(range(99))
        assert overspend_rounds_exhaust_majority(tail_election, out)

    def test_fabricated_minority_drain_fails(self):
        prof = UtilityProfile.from_rows(3, 1, [{0: 1}] * 3)
        e = Election((Project(0, "a", 3),), 3, F(3), prof,
                     utility_model=UtilityModel.COST)
        fake = Outcome(
            (0,),
            (PurchaseRecord(0, F(1), F(2, 3),
                            {0: F(2), 1: F(1, 2), 2: F(1, 2)}),),
        )
        assert not overspend_rounds_exhaust_majority(e, fake)


class TestAudit:
    def test_reference_mes_report(self, reference_election):
        report = audit(reference_election, mes(reference_election))
        assert report.cost_satisfaction == satisfaction(
            reference_election, MES_REF, UtilityModel.COST
        )
        assert report.exclusion_ratio == 0
        assert report.budget_spent_fraction == F(71, 100)
        assert report.exhaustive is False
        assert report.ejr_plus_violations == 0
        assert report.relative_cost_satisfaction == (
            report.cost_satisfaction
            / satisfaction(reference_election, UTILITARIAN_REF,
                           UtilityModel.COST)
        )

    def test_cardinal_profiles_skip_ejr_plus(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 2}])
        e = Election((Project(0, "a", 1),), 1, F(2), prof)
        report = audit(e, Outcome((0,), ()))
        assert report.ejr_plus_violations is None

    def test_voter_permutation_invariance(self, reference_election):
        e = reference_election
        perm = [(i + 3) % e.n_voters for i in range(e.n_voters)]
        rows = [dict(e.scores.support_set(perm[i])) for i in range(e.n_voters)]
        shuffled = Election(
            e.projects, e.n_voters, e.budget,
            UtilityProfile.from_rows(e.n_voters, len(e.projects), rows),
            utility_model=e.utility_model,
        )
        base = audit(e, MES_REF)
        moved = audit(shuffled, MES_REF)
        assert base == moved


class TestSatisfactionFromScoreTotals:
    """Cost satisfaction is read from the score totals: it must equal the
    sum over the derived cost profile, and auditing a score-model election
    must not derive that profile."""

    @given(elections_with_outcomes())
    @settings(max_examples=300, deadline=None)
    def test_equals_sum_over_profile_rows(self, case):
        e, out = case
        shares = out.shares
        for model, profile in ((UtilityModel.COST, e.cost_utilities),
                               (UtilityModel.SCORE, e.scores)):
            expected = sum(
                (shares[c] * u for row in profile.rows
                 for c, u in row.items() if c in shares),
                F(0),
            )
            assert satisfaction(e, out, model) == expected

    @given(elections_with_outcomes())
    @settings(max_examples=100, deadline=None)
    def test_default_model_is_the_elections(self, case):
        e, out = case
        assert satisfaction(e, out, None) == satisfaction(
            e, out, e.utility_model
        )

    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_score_model_audit_derives_no_cost_profile(self, fixtures_dir,
                                                       rule):
        # Scoring ballots: no EJR+ count, which reads cost utilities.
        e = load_election(str(fixtures_dir / "tail.pb"), UtilityModel.SCORE)
        out = run_rule(rule, e)
        report = audit(e, out)
        assert "cost_utilities" not in e.__dict__
        assert report.cost_satisfaction == sum(
            (out.shares.get(c, 0) * u for row in e.cost_utilities.rows
             for c, u in row.items()),
            F(0),
        )


class TestAuditFromSupporterColumns:
    """EJR+ and exclusion read the score profile's supporter columns, so
    auditing an approval election under the score model must not derive
    the cost profile."""

    @pytest.mark.parametrize("rule", BENCH_RULES)
    @pytest.mark.parametrize("name", ["reference.pb", "minority.pb", "blocks.pb"])
    def test_score_model_audit_derives_no_cost_profile(self, fixtures_dir,
                                                       name, rule):
        e = load_election(str(fixtures_dir / name), UtilityModel.SCORE)
        assert e.scores.is_approval
        report = audit(e, run_rule(rule, e))
        assert "cost_utilities" not in e.__dict__
        assert report.ejr_plus_violations is not None
