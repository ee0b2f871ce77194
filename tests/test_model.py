"""Data-model unit tests: exact numbers, profiles, elections, outcomes."""

from __future__ import annotations

import dataclasses
import gc
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqshares.model import (
    ONE,
    BudgetState,
    Election,
    FractionalOutcome,
    Outcome,
    Payments,
    Project,
    PurchaseRecord,
    UtilityModel,
    UtilityProfile,
    as_num,
    derive_cost_utilities,
    is_feasible,
    outcome_utility,
    voter_utilities,
)
from eqshares.pabulib import load_election
from eqshares.rules import run_rule
from instances import pabulib_approval_election

ZERO = F(0)
# Rationals with mixed denominators, drawn as fresh objects per entry.
mixed = st.builds(F, st.integers(1, 30), st.sampled_from([1, 2, 3, 6, 7, 10, 999_983]))
# Entries shared between rows and columns, as parsed approval ballots share 1.
shared = st.sampled_from([F(1), F(2, 3), F(5)])


@st.composite
def mixed_profiles(draw, min_voters=0, max_voters=6, max_projects=4):
    n = draw(st.integers(min_voters, max_voters))
    m = draw(st.integers(1, max_projects))
    rows = [
        draw(st.dictionaries(st.integers(0, m - 1), st.one_of(mixed, shared)))
        for _ in range(n)
    ]
    return UtilityProfile.from_rows(n, m, rows)


@st.composite
def elections_with_outcomes(draw):
    """Cardinal elections with integral or fractional outcomes; fractional
    shares include 0 and 1."""
    scores = draw(mixed_profiles(min_voters=1))
    m = scores.n_projects
    projects = tuple(Project(c, f"p{c}", draw(mixed)) for c in range(m))
    budget = max(p.cost for p in projects) + draw(mixed)
    e = Election(projects, scores.n_voters, budget, scores)
    if draw(st.booleans()):
        return e, Outcome(tuple(sorted(draw(st.sets(st.integers(0, m - 1))))), ())
    fractions = {
        c: F(draw(st.integers(0, d)), d)
        for c, d in draw(
            st.dictionaries(st.integers(0, m - 1), st.integers(1, 9))
        ).items()
    }
    return e, FractionalOutcome(fractions, ())


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


def assert_profile_of_products(out, source, factors):
    """``out`` is ``source`` with column c's entries times ``factors[c]``:
    it matches, attribute by attribute, the profile built eagerly from
    those products. What needs no rows is read first, and must not build
    ``out``'s rows; ``out`` shares ``source``'s supporters."""
    eager = UtilityProfile(
        source.n_voters, source.n_projects,
        tuple({c: u * factors[c] for c, u in row.items()} for row in source.rows),
    )
    assert out.supporters is source.supporters
    assert out.columns == eager.columns
    assert out.column_sums == eager.column_sums
    assert out.project_totals == eager.project_totals
    for voters in (range(source.n_voters), range(0, source.n_voters, 2), ()):
        assert out.supported_by(voters) == eager.supported_by(voters)
    assert "rows" not in vars(out)
    assert out.rows == eager.rows
    for i in range(source.n_voters):
        assert out.support_set(i) == eager.support_set(i)
        for c in range(source.n_projects):
            assert out.value(i, c) == eager.value(i, c)
    assert out.is_approval == eager.is_approval
    assert out == eager and eager == out


class TestDerivationsAgainstNaiveSums:
    @given(mixed_profiles())
    @settings(max_examples=100, deadline=None)
    def test_project_totals(self, prof):
        expected = [ZERO] * prof.n_projects
        for row in prof.rows:
            for c, u in row.items():
                expected[c] += u
        assert prof.project_totals == tuple(expected)

    @given(mixed_profiles())
    @settings(max_examples=100, deadline=None)
    def test_cost_utilities_entry_by_entry(self, prof):
        costs = [F(7 * c + 3, c + 2) for c in range(prof.n_projects)]
        projects = tuple(Project(c, f"p{c}", costs[c]) for c in range(prof.n_projects))
        assert_profile_of_products(derive_cost_utilities(prof, projects), prof, costs)
        out = derive_cost_utilities(prof, projects)
        assert len(out.rows) == len(prof.rows)
        for row, derived in zip(prof.rows, out.rows):
            assert derived == {c: u * costs[c] for c, u in row.items()}

    @given(mixed_profiles(), mixed, mixed)
    @settings(max_examples=100, deadline=None)
    def test_scaled_profiles_entry_by_entry(self, prof, factor, again):
        m = prof.n_projects
        assert_profile_of_products(prof.scaled(factor), prof, [factor] * m)
        # A profile of products can itself be a source.
        costs = [F(c + 1, 3) for c in range(m)]
        projects = tuple(Project(c, f"p{c}", costs[c]) for c in range(m))
        twice = derive_cost_utilities(prof, projects).scaled(again)
        assert_profile_of_products(twice, prof, [u * again for u in costs])

    @given(elections_with_outcomes())
    @settings(max_examples=150, deadline=None)
    def test_voter_utilities(self, case):
        e, outcome = case
        shares = (
            dict.fromkeys(outcome.selected, F(1)) if isinstance(outcome, Outcome)
            else outcome.fractions
        )
        for model in (UtilityModel.SCORE, UtilityModel.COST):
            weight = (
                (lambda c: e.projects[c].cost) if model is UtilityModel.COST
                else (lambda c: 1)
            )
            naive = [
                sum((shares[c] * u * weight(c) for c, u in row.items()
                     if c in shares), ZERO)
                for row in e.scores.rows
            ]
            assert voter_utilities(e, outcome, model) == naive


def naive_columns(prof: UtilityProfile) -> list:
    """Each project's supporters, and their utilities as integers over the
    lcm of the column's denominators, entry by entry."""
    out = []
    for c in range(prof.n_projects):
        voters = [i for i, row in enumerate(prof.rows) if c in row]
        values = [prof.rows[i][c] for i in voters]
        scale = math.lcm(*(u.denominator for u in values))
        weights = [u.numerator * (scale // u.denominator) for u in values]
        out.append((voters, weights, scale))
    return out


def naive_totals(prof: UtilityProfile) -> tuple:
    """Each project's entries summed one rational at a time."""
    totals = [ZERO] * prof.n_projects
    for row in prof.rows:
        for c, u in row.items():
            totals[c] += u
    return tuple(totals)


class Unreadable(tuple):
    """Rows that fail when anything reads them."""

    def __getitem__(self, index):
        raise AssertionError("a row was read")

    def __iter__(self):
        raise AssertionError("the rows were read")


class TestColumnsAgainstNaiveEntries:
    """Columns of one shared object (as parsed approval columns are), of
    equal but distinct objects, and of mixed values; approval columns,
    which come from the supporter lists; and an empty one. Each profile is
    checked as it is, scaled, and cost-weighted, and its totals with
    them."""

    @staticmethod
    def check(prof):
        projects = tuple(
            Project(c, f"p{c}", F(5 * c + 1, 4)) for c in range(prof.n_projects)
        )
        for out in (prof, prof.scaled(F(6, 7)), derive_cost_utilities(prof, projects)):
            columns = [(list(v), w, scale) for v, w, scale in out.columns]
            totals = out.project_totals
            assert columns == naive_columns(out)
            assert all(type(w) is list for _, w, _ in out.columns)
            assert totals == naive_totals(out)

    @pytest.mark.parametrize("kind", ["shared", "equal", "mixed"])
    def test_columns(self, kind):
        n, two_thirds = 9, F(2, 3)
        entries = {
            "shared": [two_thirds] * n,
            "equal": [F(2, 3) for _ in range(n)],
            "mixed": [F(k + 1, k % 4 + 2) for k in range(n)],
        }[kind]
        rows = [{0: u, 1: F(1)} if i % 3 else {0: u} for i, u in enumerate(entries)]
        self.check(UtilityProfile.from_rows(n, 3, rows))

    @pytest.mark.parametrize("n", [9, 0])
    @pytest.mark.parametrize("kind", ["shared", "fresh", "three-thirds"])
    def test_approval_columns(self, kind, n):
        one = {
            "shared": lambda: ONE,
            "fresh": lambda: F(1),
            "three-thirds": lambda: F(3, 3),
        }[kind]
        # Nobody approves project 2.
        rows = [{0: one(), 1: one()} if i % 3 else {0: one()} for i in range(n)]
        prof = UtilityProfile.from_rows(n, 3, rows)
        assert prof.is_approval
        self.check(prof)
        assert prof.columns[2] == ((), [], 1)

    def test_cardinal_totals(self):
        # Decimal scores over 10^9, nearly all distinct, and integers.
        n = 40
        rows = [
            {0: F((k * 7919) % 10**9 + 1, 10**9), 1: k % 3 + 1} if k % 4
            else {0: F(k + 1, 10**9)}
            for k in range(n)
        ]
        prof = UtilityProfile.from_rows(n, 3, rows)
        assert not prof.is_approval
        self.check(prof)

    def test_approval_columns_read_no_row(self):
        rows = [{0: ONE, 1: ONE} if i % 3 else {0: ONE} for i in range(9)]
        twin = UtilityProfile.from_rows(9, 3, rows)
        projects = tuple(Project(c, f"p{c}", F(5 * c + 1, 4)) for c in range(3))
        wanted = [
            (p.columns, p.column_sums, p.project_totals)
            for p in (twin, twin.scaled(F(6, 7)), derive_cost_utilities(twin, projects))
        ]
        prof = UtilityProfile.from_rows(9, 3, rows)
        assert prof.is_approval and prof.supporters == twin.supporters
        object.__setattr__(prof, "rows", Unreadable(prof.rows))
        made = (prof, prof.scaled(F(6, 7)), derive_cost_utilities(prof, projects))
        for out, want in zip(made, wanted):
            assert (out.columns, out.column_sums, out.project_totals) == want
        assert all("rows" not in vars(out) for out in made[1:])


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

    def test_project_count_must_match(self):
        prof = UtilityProfile.from_rows(1, 2, [{0: 1}])
        with pytest.raises(ValueError, match="does not match profile width"):
            derive_cost_utilities(prof, (Project(0, "A", 3),))

    def test_division_recovers_scores(self):
        projects = (Project(0, "A", F(3, 2)), Project(1, "B", 5))
        prof = UtilityProfile.from_rows(2, 2, [{0: F(2, 3)}, {0: 1, 1: 4}])
        out = derive_cost_utilities(prof, projects)
        for i in range(2):
            for c in range(2):
                assert out.value(i, c) / projects[c].cost == prof.value(i, c)


class TestSharedSupporters:
    """A positive factor keeps every entry's sign, so a scaled or
    cost-weighted profile reuses its source's supporters tuple, which must
    still be what its own rows give."""

    @staticmethod
    def _from_own_rows(prof):
        return UtilityProfile(prof.n_voters, prof.n_projects, prof.rows).supporters

    def test_scaled_reuses_the_tuple(self):
        p = UtilityProfile.from_rows(3, 2, [{0: 2}, {}, {0: 1, 1: F(1, 2)}])
        out = p.scaled(F(7, 3))
        assert out.supporters is p.supporters
        assert out.rows == ({0: F(14, 3)}, {}, {0: F(7, 3), 1: F(7, 6)})

    @given(mixed_profiles(), mixed)
    @settings(max_examples=100, deadline=None)
    def test_scaled_supporters_match_rows(self, prof, factor):
        out = prof.scaled(factor)
        assert out.supporters is prof.supporters
        assert out.supporters == self._from_own_rows(out)

    @given(mixed_profiles())
    @settings(max_examples=100, deadline=None)
    def test_cost_utilities_supporters_match_rows(self, prof):
        projects = tuple(
            Project(c, f"p{c}", F(7 * c + 3, c + 2)) for c in range(prof.n_projects)
        )
        out = derive_cost_utilities(prof, projects)
        assert out.supporters is prof.supporters
        assert out.supporters == self._from_own_rows(out)

    @pytest.mark.parametrize(
        "name", ["reference.pb", "minority.pb", "tail.pb", "blocks.pb"]
    )
    def test_cost_model_election_derives_supporters_once(self, fixtures_dir,
                                                         name):
        e = load_election(str(fixtures_dir / name), UtilityModel.COST)
        assert e.cost_utilities.supporters is e.scores.supporters


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

    def test_needs_a_voter(self):
        prof = UtilityProfile.from_rows(0, 1, [])
        with pytest.raises(ValueError, match="at least one voter"):
            Election((Project(0, "p", 1),), 0, F(2), prof)

    def test_ids_must_be_dense(self):
        prof = UtilityProfile.from_rows(1, 1, [{0: 1}])
        with pytest.raises(ValueError):
            Election((Project(1, "p", 1),), 1, F(2), prof)

    def test_profile_width_must_match(self):
        prof = UtilityProfile.from_rows(1, 2, [{0: 1}])
        with pytest.raises(ValueError):
            Election((Project(0, "p", 1),), 1, F(2), prof)

    def test_profile_height_must_match(self):
        prof = UtilityProfile.from_rows(2, 1, [{0: 1}, {0: 1}])
        with pytest.raises(ValueError, match="height does not match"):
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

    def test_equal_endowment(self):
        state = BudgetState.equal_endowment(F(5, 2), 3)
        assert state.balances == [F(5, 2)] * 3
        assert state.total() == F(15, 2)

    @pytest.mark.parametrize("num,den", [(6, 4), (0, 5), (7, 1), (10**20, 10**18)])
    def test_equal_units_builds_the_minimal_ledger(self, num, den):
        state = BudgetState.equal_units(num, den, 3)
        expected = BudgetState([F(num, den)] * 3)
        assert (state.units, state.scale) == (expected.units, expected.scale)
        with pytest.raises(ValueError):
            BudgetState.equal_units(-num - 1, den, 3)

    @pytest.mark.parametrize("size", [1, 3, 100])
    def test_from_units_builds_the_minimal_ledger(self, size):
        units = [12, 0, 30] * size
        state = BudgetState.from_units(list(units), 36)
        expected = BudgetState([F(u, 36) for u in units])
        assert (state.work_units, state.work_scale, state._limit) == (
            expected.work_units, expected.work_scale, expected._limit
        )
        with pytest.raises(ValueError):
            BudgetState.from_units([1, -1], 2)


# Balances and amounts with mixed, sometimes large, denominators.
amounts = st.builds(
    F, st.integers(0, 40), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10**9 + 7])
)


class TestBudgetLedger:
    """The integer ledger against a plain list of rationals."""

    @staticmethod
    def assert_matches(state, balances):
        assert state.balances == balances
        assert state.total() == sum(balances, ZERO)
        assert state.scale == math.lcm(*(b.denominator for b in balances))
        assert min(state.units) >= 0

    @given(st.lists(amounts, min_size=1, max_size=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_fraction_list(self, start, data):
        state = BudgetState(start)
        balances, over = list(start), [ZERO] * len(start)
        self.assert_matches(state, balances)
        voters = st.integers(0, len(start) - 1)
        for _ in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(["charge", "share", "boost"]))
            if op == "charge":
                charges = data.draw(st.lists(st.tuples(voters, amounts), max_size=5))
                den = math.lcm(*(a.denominator for _, a in charges))
                short = state.debit([(i, int(a * den)) for i, a in charges], den)
                expected = []
                for i, a in charges:
                    balances[i] -= a
                    if balances[i] < 0:
                        expected.append((i, -balances[i]))
                        balances[i] = ZERO
                assert short == expected
                for i, gone in short:
                    over[i] += gone
            elif op == "share":
                leaving = data.draw(st.sets(voters))
                stayers = [i for i in range(len(start)) if i not in leaving]
                pot = sum((balances[i] for i in leaving), ZERO)
                for i in leaving:
                    balances[i] = ZERO
                moved = bool(stayers) and pot > 0
                if moved:
                    for i in stayers:
                        balances[i] += pot / len(stayers)
                assert state.redistribute(sorted(leaving), stayers) == moved
            else:
                # A boosted ledger, as bos-plus builds one: each balance
                # plus what is left of the boost after the overdraft.
                boost = data.draw(amounts)
                balances = [b + max(ZERO, boost - o) for b, o in zip(balances, over)]
                state = BudgetState(balances)
            self.assert_matches(state, balances)


# Denominators of long debit runs: large coprime primes mixed with small
# ones, so the working scale outgrows its bound and is reduced.
big_dens = st.sampled_from([2, 3, 5, 7, 10**9 + 7, 10**9 + 9, 998_244_353])


class TestDeferredReduction:
    """A ledger of any size is reduced only past its bound; the public
    views are minimal whenever they are read."""

    @staticmethod
    def within_bound(state, largest_minimal_bits):
        # The scale at any reduction is minimal, so at most the largest
        # minimal scale seen; between reductions the working scale stays
        # within twice its bit length plus the slack.
        bound = 2 * largest_minimal_bits + BudgetState.SLACK_BITS
        assert state.work_scale.bit_length() <= bound

    @given(st.lists(amounts, min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_long_sequences_match_a_fraction_list(self, start, data):
        state = BudgetState(start)
        balances = list(start)
        voters = st.integers(0, len(start) - 1)
        largest = state.work_scale.bit_length()
        for _ in range(data.draw(st.integers(20, 60))):
            if data.draw(st.integers(0, 4)):
                den = data.draw(big_dens)
                charges = data.draw(st.lists(
                    st.tuples(voters, st.integers(0, 3 * den)), max_size=4
                ))
                short = state.debit(charges, den)
                expected = []
                for i, amount in charges:
                    balances[i] -= F(amount, den)
                    if balances[i] < 0:
                        expected.append((i, -balances[i]))
                        balances[i] = ZERO
                assert short == expected
            else:
                leaving = data.draw(st.sets(voters))
                stayers = data.draw(st.sets(voters))
                stayers = sorted(stayers - leaving)
                pot = sum((balances[i] for i in leaving), ZERO)
                for i in leaving:
                    balances[i] = ZERO
                moved = bool(stayers) and pot > 0
                if moved:
                    for i in stayers:
                        balances[i] += pot / len(stayers)
                assert state.redistribute(sorted(leaving), stayers) == moved
            minimal = math.lcm(*(b.denominator for b in balances))
            largest = max(largest, minimal.bit_length())
            self.within_bound(state, largest)
            scale = state.work_scale
            assert [F(u, scale) for u in state.work_units] == balances
            assert state.total() == sum(balances, ZERO)
        TestBudgetLedger.assert_matches(state, balances)

    def test_reduction_is_deferred_until_the_bound(self):
        primes = [10**9 + 7, 10**9 + 9, 998_244_353, 10**9 + 21, 10**9 + 33]
        state = BudgetState([F(10), F(5), F(5)])
        scales = []
        for p in primes:
            # Voter 0 pays 1/p, then (p - 1)/p: her balance is whole again.
            state.debit([(0, 1)], p)
            state.debit([(0, p - 1)], p)
            scales.append(state.work_scale)
        # Every balance is whole after the first pair, yet the working scale
        # keeps p until the third prime pushes it past 2 * 1 + 64 bits.
        assert scales[:2] == [primes[0], primes[0] * primes[1]]
        assert scales[2] == primes[2]
        self.within_bound(state, primes[2].bit_length())
        assert state.balances == [F(5)] * 3
        assert state.scale == 1 and state.units[:2] == [5, 5]
        assert state.work_scale == 1


class TestPayments:
    """Integer payments against the dict of the same rationals."""

    def test_integer_backed_record_equals_dict_backed(self):
        numerators = {3: 10, 1: 4, 2: 4}
        payments = Payments(numerators, 12)
        same = {3: F(5, 6), 1: F(1, 3), 2: F(1, 3)}
        lazy = PurchaseRecord(0, F(1), F(1, 3), payments, (3,))
        plain = PurchaseRecord(0, F(1), F(1, 3), same, (3,))
        assert lazy == plain and plain == lazy
        assert repr(lazy) == repr(plain)
        assert list(payments) == [3, 1, 2] and len(payments) == 3
        assert 1 in payments and 4 not in payments
        assert dict(payments) == same and list(payments.items()) == list(same.items())
        # One rational per distinct numerator.
        assert payments[1] is payments[2]
        assert lazy != dataclasses.replace(plain, payments={3: F(5, 6)})

    def test_equal_across_denominators(self):
        assert Payments({1: 2, 4: 6}, 4) == Payments({1: 1, 4: 3}, 2)
        assert Payments({1: 2}, 4) != Payments({1: 2}, 5)
        assert Payments({}, 7) == {}
        assert Payments({1: 1}, 2) != [(1, F(1, 2))]

    def test_fres_outcome_holds_payer_ids_not_a_dict_per_round(self):
        """A fres-complete outcome's traced size stays under 32 bytes a
        payment, on a 2,000-voter Pabulib-shaped approval election (150,053
        payments in 1,740 rounds; about a second).

        Each round holds its payer list and a list of numerators aligned
        with it, in which a run of a shared weight holds one object (one
        per approval column): 24.1 bytes a payment on this election, the
        two lists' 16 bytes most of it. Held as a dict from voter to
        numerator per round, the same payments took 45.2 bytes each."""
        election = pabulib_approval_election(0, 2000, 50)
        run_rule("fres-complete", election)  # the election's first-use caches
        gc.collect()
        tracemalloc.start()
        try:
            outcome = run_rule("fres-complete", election)
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        payments = sum(len(p.payments) for p in outcome.purchases)
        assert payments > 100_000
        assert size < 32 * payments, (size, payments)
