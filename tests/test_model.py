"""Data-model unit tests: exact numbers, profiles, elections, outcomes."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqshares.model import (
    BudgetState,
    Election,
    FractionalOutcome,
    Outcome,
    Project,
    UtilityModel,
    UtilityProfile,
    as_num,
    derive_cost_utilities,
    is_feasible,
    outcome_utility,
    voter_utilities,
)


class TestAsNum:
    def test_int(self):
        assert as_num(3) == F(3)

    def test_decimal_string(self):
        assert as_num("0.1") == F(1, 10)

    def test_fraction_string(self):
        assert as_num("2/7") == F(2, 7)

    def test_fraction_passthrough(self):
        assert as_num(F(2, 4)) == F(1, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_num(0.5)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_num(True)

    @given(st.fractions())
    @settings(max_examples=50, deadline=None)
    def test_string_round_trip(self, q):
        assert as_num(str(q)) == q


class TestProject:
    def test_cost_coerced(self):
        assert Project(0, "x", "2.5").cost == F(5, 2)

    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError):
            Project(0, "x", 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Project(0, "x", F(-1, 2))


class TestUtilityProfile:
    def test_zero_entries_dropped(self):
        prof = UtilityProfile.from_rows(2, 2, [{0: 1, 1: 0}, {}])
        assert prof.value(0, 1) == 0
        assert set(prof.support_set(0)) == {0}
        assert not prof.support_set(1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UtilityProfile.from_rows(1, 1, [{0: -1}])

    def test_unknown_project_rejected(self):
        with pytest.raises(ValueError):
            UtilityProfile.from_rows(1, 1, [{3: 1}])

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError):
            UtilityProfile.from_rows(2, 1, [{0: 1}])

    def test_supporters_sorted(self):
        prof = UtilityProfile.from_rows(3, 1, [{0: 2}, {}, {0: 1}])
        assert prof.supporters[0] == (0, 2)

    def test_project_totals(self):
        prof = UtilityProfile.from_rows(2, 2, [{0: 2, 1: 1}, {0: F(1, 2)}])
        assert prof.project_totals[0] == F(5, 2)
        assert prof.project_totals[1] == 1

    def test_scaled_requires_positive(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        with pytest.raises(ValueError):
            prof.scaled(0)

    @given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2),
                    min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_support_indexes_are_inverse(self, entries):
        n, m = 4, 4
        rows = [dict() for _ in range(n)]
        for i, c in entries:
            rows[i][c] = 1
        prof = UtilityProfile.from_rows(n, m, rows)
        for i in range(n):
            for c in range(m):
                in_support = c in prof.support_set(i)
                in_supporters = i in prof.supporters[c]
                assert in_support == in_supporters == (prof.value(i, c) > 0)


class TestDeriveCostUtilities:
    def test_approval_times_cost(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        out = derive_cost_utilities(prof, (Project(0, "A", 300000),))
        assert out.value(0, 0) == 300000

    def test_zero_score(self):
        prof = UtilityProfile.from_rows(1, 1, [{}])
        out = derive_cost_utilities(prof, (Project(0, "A", 300000),))
        assert out.value(0, 0) == 0

    def test_general_score(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 2}])
        out = derive_cost_utilities(prof, (Project(0, "A", 7),))
        assert out.value(0, 0) == 14

    def test_division_recovers_scores(self):
        projects = (Project(0, "A", F(3, 2)), Project(1, "B", 5))
        prof = UtilityProfile.from_rows(2, 2, [{0: F(2, 3)}, {0: 1, 1: 4}])
        out = derive_cost_utilities(prof, projects)
        for i in range(2):
            for c in range(2):
                assert out.value(i, c) / projects[c].cost == prof.value(i, c)


def tiny_election(costs, rows, budget, model=UtilityModel.SCORE):
    projects = tuple(Project(c, f"p{c}", cost) for c, cost in enumerate(costs))
    prof = UtilityProfile.from_rows(len(rows), len(costs), rows)
    return Election(projects, len(rows), as_num(budget), prof,
                    utility_model=model)


class TestElection:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            tiny_election([1], [{0: 1}], 0)

    def test_cost_above_budget_rejected(self):
        with pytest.raises(ValueError):
            tiny_election([5], [{0: 1}], 4)

    def test_ids_must_be_dense(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        with pytest.raises(ValueError):
            Election((Project(1, "p", 1),), 1, F(2), prof)

    def test_profile_width_must_match(self):
        prof = UtilityProfile.from_rows(1, 2, [{0: 1}])
        with pytest.raises(ValueError):
            Election((Project(0, "p", 1),), 1, F(2), prof)

    def test_cost_utilities(self):
        e = tiny_election([4, 6], [{0: 2, 1: 1}], 10)
        assert e.cost_utilities.value(0, 0) == 8
        assert e.cost_utilities.value(0, 1) == 6

    def test_utilities_follow_model(self):
        e = tiny_election([4], [{0: 2}], 10)
        assert e.utilities.value(0, 0) == 2
        assert e.with_model(UtilityModel.COST).utilities.value(0, 0) == 8

    def test_same_instance_ignores_model_and_metadata(self):
        e = tiny_election([4], [{0: 2}], 10)
        other = e.with_model(UtilityModel.COST)
        assert e.same_instance(other)

    def test_project_by_name(self):
        e = tiny_election([4], [{0: 2}], 10)
        assert e.project_by_name("p0").id == 0
        with pytest.raises(KeyError):
            e.project_by_name("nope")


class TestOutcomeUtility:
    def test_integral_sum(self, reference_election):
        out = Outcome((0, 3, 4), ())
        assert outcome_utility(reference_election, 1, out) == 470000

    def test_empty_outcome(self, reference_election):
        assert outcome_utility(reference_election, 1, Outcome((), ())) == 0

    def test_fractional_weighted_sum(self, reference_election):
        fo = FractionalOutcome({0: F(1), 5: F(1, 2)}, ())
        assert outcome_utility(reference_election, 5, fo) == 350000

    def test_bad_voter_index(self, reference_election):
        with pytest.raises(IndexError):
            outcome_utility(reference_election, 99, Outcome((), ()))

    def test_model_override(self):
        e = tiny_election([4], [{0: 2}], 10)
        out = Outcome((0,), ())
        assert outcome_utility(e, 0, out) == 2
        assert outcome_utility(e, 0, out, UtilityModel.COST) == 8

    def test_additive_over_disjoint_parts(self, reference_election):
        whole = outcome_utility(reference_election, 1, Outcome((0, 3, 4), ()))
        parts = (outcome_utility(reference_election, 1, Outcome((0,), ()))
                 + outcome_utility(reference_election, 1, Outcome((3, 4), ())))
        assert whole == parts


    def test_voter_utilities_row_by_row(self, reference_election):
        fo = FractionalOutcome({0: F(1), 3: F(0), 5: F(1, 2)}, ())
        assert fo.shares == {0: 1, 5: F(1, 2)}
        for out in (fo, Outcome((0, 3, 4), ())):
            for model in (None, UtilityModel.SCORE):
                assert voter_utilities(reference_election, out, model) == [
                    outcome_utility(reference_election, i, out, model)
                    for i in range(reference_election.n_voters)
                ]


class TestIsFeasible:
    def test_exact_fit(self, reference_election):
        assert is_feasible(reference_election, Outcome((0, 1, 2), ()))

    def test_over_budget(self, reference_election):
        assert not is_feasible(reference_election, Outcome((0, 1, 2, 3), ()))

    def test_empty(self, reference_election):
        assert is_feasible(reference_election, Outcome((), ()))


class TestBudgetState:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BudgetState((F(-1),))

    def test_over_length_must_match(self):
        with pytest.raises(ValueError):
            BudgetState((F(1), F(2)), over=(F(0),))

    def test_equal_endowment(self):
        state = BudgetState.equal_endowment(F(5, 2), 3)
        assert state.balances == [F(5, 2)] * 3
        assert state.total() == F(15, 2)

    def test_copy_is_independent(self):
        state = BudgetState((F(1), F(2)))
        dup = state.copy()
        dup.balances[0] = F(0)
        assert state.balances[0] == F(1)
