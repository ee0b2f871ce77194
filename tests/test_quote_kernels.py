"""Differential tests of the quote kernels against the naive oracles.

``min_rho`` and ``bos_quote`` let floats decide only where a certificate
proves them right, and exact integers decide the rest. Correctly rounded
keys order the supporters by b/u and show whether anybody is capped at the
proportional price; keys equal to the price's are checked exactly. bos's
candidate scan compares logs, which decide only outside a margin above
their proven error. The instances here aim at the places where floats alone
would decide wrongly: exact b/u ties, near-ties far below float resolution,
numerators and denominators around 10^12, zero balances, and ratios that
overflow or underflow a float. ``TestCertificates`` puts near-ties 10^-30
apart at ledger scales below and above 2**1024. ``TestSortedBisection``
checks every field of min_rho's quotes, the voter order included, against
a plain stable sort and bisection, on ledgers drawn at and around the
price at which nobody is capped.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqshares
import oracles
from eqshares import rules
from eqshares.model import BudgetState, Election, Project, UtilityProfile
from eqshares.rules import (
    _floors, _ratio_order, add1u, bos_quote, mes, min_rho,
)
from instances import random_approval_election, random_cardinal_election

ZERO = F(0)
TINY = F(1, 10**30)

# Anchor ratios b/u: plain, 10^12-sized terms, float overflow, float underflow.
ANCHORS = [F(1), F(3, 7), F(10**12 + 39, 10**12 - 11), F(10**400, 3), F(7, 10**400)]

utilities = st.one_of(
    st.sampled_from([F(1), F(2), F(1, 3), F(5, 2), F(10**12)]),
    st.builds(
        F,
        st.integers(10**12 - 50, 10**12 + 50),
        st.integers(10**12 - 50, 10**12 + 50),
    ),
)


@st.composite
def supporter_lists(draw, max_size=12):
    """(cost, [(utility, balance)]) drawn around one anchor ratio."""
    anchor = draw(st.sampled_from(ANCHORS))
    pairs = []
    for _ in range(draw(st.integers(1, max_size))):
        u = draw(utilities)
        kind = draw(st.sampled_from(["tie", "near", "free", "zero"]))
        if kind == "tie":
            b = u * anchor
        elif kind == "near":
            delta = draw(st.sampled_from([TINY, -TINY, anchor * TINY, -anchor * TINY]))
            b = u * anchor + delta
            if b <= 0:
                b = u * anchor
        elif kind == "free":
            b = u * anchor * F(
                draw(st.integers(1, 10**12)), draw(st.integers(1, 10**12))
            )
        else:
            b = ZERO
        pairs.append((u, b))
    money = sum((b for _, b in pairs), ZERO)
    cost = money * F(draw(st.integers(1, 40)), 20) if money else F(1)
    return cost, pairs


@st.composite
def small_supporter_lists(draw):
    """Small-number instances, where exact key ties between quotes are common."""
    pairs = draw(st.lists(
        st.tuples(
            st.sampled_from([F(1), F(2), F(3)]),
            st.sampled_from([F(0), F(1, 2), F(1), F(3, 2), F(2), F(3), F(5)]),
        ),
        min_size=1, max_size=4,
    ))
    return F(draw(st.integers(1, 24)), 2), pairs


@st.composite
def uniform_supporter_lists(draw):
    """Approval-like instances: every supporter has the same utility."""
    u = draw(utilities)
    cost, pairs = draw(supporter_lists())
    return cost, [(u, b) for _, b in pairs]


def kernel_inputs(cost, pairs):
    n = len(pairs)
    profile = UtilityProfile.from_rows(n, 1, [{0: u} for u, _ in pairs])
    budgets = BudgetState([b for _, b in pairs])
    return Project(0, "p", cost), budgets, profile


def moneyed(pairs):
    return [(i, u, b) for i, (u, b) in enumerate(pairs) if b > 0]


class TestMinRho:
    @given(st.one_of(
        supporter_lists(), small_supporter_lists(), uniform_supporter_lists()
    ))
    @settings(max_examples=600, deadline=None)
    def test_matches_oracle(self, instance):
        cost, pairs = instance
        quote = min_rho(*kernel_inputs(cost, pairs))
        sup = moneyed(pairs)
        rho = oracles.naive_min_rho(cost, [(u, b) for _, u, b in sup])
        if rho is None:
            assert quote is None
            return
        assert quote.alpha == 1
        assert quote.rho == rho
        assert dict(quote.payments) == {i: min(b, u * rho) for i, u, b in sup}

    @given(supporter_lists(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_on_long_lists(self, instance):
        cost, pairs = instance
        quote = min_rho(*kernel_inputs(cost, pairs))
        sup = moneyed(pairs)
        rho = oracles.naive_min_rho(cost, [(u, b) for _, u, b in sup])
        assert (quote is None) == (rho is None)
        if rho is not None:
            assert quote.rho == rho


class TestBosQuote:
    @given(st.one_of(
        supporter_lists(), small_supporter_lists(), uniform_supporter_lists()
    ))
    @settings(max_examples=600, deadline=None)
    def test_matches_oracle(self, instance):
        cost, pairs = instance
        quote = bos_quote(*kernel_inputs(cost, pairs))
        sup = moneyed(pairs)
        expected = oracles.naive_bos_quote(cost, [(u, b) for _, u, b in sup])
        if expected is None:
            assert quote is None
            return
        alpha, rho, payments = expected
        assert (quote.alpha, quote.rho) == (alpha, rho)
        assert dict(quote.payments) == {
            i: pay for (i, _, _), pay in zip(sup, payments)
        }

    @pytest.mark.parametrize("cost, pairs", [
        # rho/alpha ties between two cap prices: the larger alpha wins.
        (F(2), [(F(1), F(1)), (F(2), F(1, 2))]),
        # A cap price ties the full-coverage price, which wins.
        (F(3, 2), [(F(1), F(1)), (F(2), F(1, 2))]),
        (F(3), [(F(1), F(3)), (F(2), F(1))]),
    ])
    def test_exact_key_ties(self, cost, pairs):
        quote = bos_quote(*kernel_inputs(cost, pairs))
        alpha, rho, payments = oracles.naive_bos_quote(cost, pairs)
        assert (quote.alpha, quote.rho) == (alpha, rho)
        assert dict(quote.payments) == dict(enumerate(payments))

    @given(supporter_lists(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_on_long_lists(self, instance):
        cost, pairs = instance
        quote = bos_quote(*kernel_inputs(cost, pairs))
        sup = moneyed(pairs)
        expected = oracles.naive_bos_quote(cost, [(u, b) for _, u, b in sup])
        assert (quote is None) == (expected is None)
        if expected is not None:
            assert (quote.alpha, quote.rho) == expected[:2]


class TestKernelsAgree:
    """bos_plus buys a full phase-1 quote without re-pricing: it rests on
    these two facts."""

    @given(st.one_of(
        supporter_lists(), small_supporter_lists(), uniform_supporter_lists()
    ))
    @settings(max_examples=600, deadline=None)
    def test_a_full_bos_quote_is_min_rhos_and_none_is_dearer(self, instance):
        cost, pairs = instance
        inputs = kernel_inputs(cost, pairs)
        full = min_rho(*inputs)
        quote = bos_quote(*inputs)
        if full is not None:
            assert quote.ratio <= full.rho
        if quote is not None and quote.alpha == 1:
            assert full is not None
            assert (quote.rho, quote.capped) == (full.rho, full.capped)
            assert dict(quote.payments) == dict(full.payments)


class TestProportionalFloor:
    """Every selector enters a project at its proportional price, so no
    quote may undercut it, whatever the balances."""

    @given(
        st.one_of(
            supporter_lists(), small_supporter_lists(),
            uniform_supporter_lists(),
        ),
        st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_quotes_never_undercut_it(self, instance, data):
        cost, pairs = instance
        project, budgets, profile = kernel_inputs(cost, pairs)
        n = len(pairs)
        leaving = data.draw(st.sets(st.sampled_from(range(n)), max_size=n - 1))
        if leaving:
            # Balances raised by redistribution, some of them from zero.
            budgets.redistribute(
                sorted(leaving), [i for i in range(n) if i not in leaving]
            )
        election = Election((project,), n, cost, profile)
        floor = _floors(election)[0].value()
        assert floor == cost / sum(u for u, _ in pairs)
        quote = min_rho(project, budgets, profile)
        if quote is not None:
            assert quote.rho >= floor
        quote = bos_quote(project, budgets, profile)
        if quote is not None:
            assert quote.ratio >= floor

    def test_equal_prices_share_one_object(self):
        profile = UtilityProfile.from_rows(
            3, 3, [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}, {2: 1}]
        )
        election = Election(
            (Project(0, "a", F(4)), Project(1, "b", F(2)),
             Project(2, "c", F(4))),
            3, F(10), profile,
        )
        a, b, c = _floors(election)
        assert (a.value(), b.value(), c.value()) == (2, 1, 2)
        assert a is c

    def test_equal_prices_of_different_pairs_share_one_object(self):
        # Cost 4 over two unit supporters is the pair (4, 2); cost 6 over
        # one supporter of utility 3 is (6, 3). Both prices are 2.
        profile = UtilityProfile.from_rows(3, 2, [{0: 1}, {0: 1}, {1: 3}])
        election = Election(
            (Project(0, "a", F(4)), Project(1, "b", F(6))), 3, F(10), profile,
        )
        a, b = _floors(election)
        assert a is b
        assert a.value() == 2


class TestReducedPayments:
    """A full quote's payments come over the least denominator they allow,
    so a ledger whose scale it divides debits them without rescaling."""

    @given(st.randoms(use_true_random=False), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_every_min_rho_quote_pays_the_naive_payments(self, rng, boost):
        make = rng.choice([random_approval_election, random_cardinal_election])
        election = make(rng)
        utilities = election.utilities
        checked = []

        def checked_min_rho(project, budgets, profile):
            quote = min_rho(project, budgets, profile)
            c, units = project.id, budgets.work_units
            sup = [
                (i, utilities.value(i, c), F(units[i], budgets.work_scale))
                for i in utilities.supporters[c] if units[i]
            ]
            rho = oracles.naive_min_rho(project.cost, [(u, b) for _, u, b in sup])
            assert (quote is None) == (rho is None)
            if quote is not None:
                paid = dict(quote.payments)
                assert paid == {i: min(b, u * rho) for i, u, b in sup}
                if not quote.capped:
                    assert quote.den == math.lcm(
                        *(pay.denominator for pay in paid.values())
                    )
            checked.append(quote)
            return quote

        endowment = election.budget / election.n_voters * boost
        with mock.patch.object(rules, "min_rho", checked_min_rho):
            mes(election, b_ini=endowment)
        assert checked

    def test_add1u_debits_rarely_rescale_the_ledger(
        self, reference_election, monkeypatch
    ):
        real_debit = BudgetState.debit
        debits = rescaled = 0

        def counted(budgets, amounts, den):
            nonlocal debits, rescaled
            debits += 1
            rescaled += budgets.work_scale % den != 0
            return real_debit(budgets, amounts, den)

        monkeypatch.setattr(BudgetState, "debit", counted)
        add1u(reference_election)
        # The scan's 16,001 probes make tens of thousands of purchases.
        assert debits > 50_000
        assert 8 * rescaled < debits


class TestRatioOrder:
    @given(supporter_lists(max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_is_the_exact_stable_sort(self, instance):
        _, pairs = instance
        pairs = [(u, b) for u, b in pairs if b > 0]
        m_scale = 1
        for _, b in pairs:
            m_scale = m_scale * b.denominator
        u_scale = 1
        for u, _ in pairs:
            u_scale = u_scale * u.denominator
        money = [int(b * m_scale) for _, b in pairs]
        weights = [int(u * u_scale) for u, _ in pairs]
        expected = sorted(range(len(pairs)), key=lambda j: pairs[j][1] / pairs[j][0])
        assert _ratio_order(money, weights) == expected

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([1, 7, 10**20]), st.integers(1, 10**30)
            ),
            max_size=30,
        ),
        st.sampled_from([F(1), F(2, 3), F(10**12 + 1, 7), F(10**400, 3)]),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_uniform_weights_are_the_exact_stable_sort(
        self, money, u, m_scale, extra
    ):
        # One utility u as the weight u * u_scale, over scales that differ.
        weights = [u.numerator * extra] * len(money)
        u_scale = u.denominator * extra
        expected = sorted(
            range(len(money)), key=lambda j: F(money[j], m_scale) / u
        )
        assert _ratio_order(money, weights) == expected

    @pytest.mark.parametrize("money, weights, m_scale, u_scale, expected", [
        ([], [], 1, 1, []),
        ([5], [3], 2, 7, [0]),
        ([4, 4, 4], [2, 2, 2], 3, 5, [0, 1, 2]),
        ([9, 3, 9, 3], [6, 6, 6, 6], 1, 4, [1, 3, 0, 2]),
    ], ids=["k=0", "k=1", "all-equal", "pairs"])
    def test_uniform_weights_edge_cases(
        self, money, weights, m_scale, u_scale, expected
    ):
        assert _ratio_order(money, weights) == expected


# ---------------------------------------------------------------------------
# The float certificates: near-ties far below float resolution, each at a
# ledger scale below 2**1024 and at one above it.

LEDGERS = pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])


def certificate_inputs(cost, pairs, wide):
    """``kernel_inputs`` plus a last voter who supports nothing. Her
    balance, 1/10**400 when ``wide``, puts the ledger's scale, and with it
    every integer the kernels compare, above 2**1024."""
    rows = [{0: u} for u, _ in pairs] + [{}]
    budgets = BudgetState(
        [b for _, b in pairs] + [F(1, 10**400) if wide else F(1)]
    )
    assert (budgets.scale > 2**1024) == wide
    profile = UtilityProfile.from_rows(len(rows), 1, rows)
    return Project(0, "p", cost), budgets, profile


class TestCertificates:
    """Floats decide only where a certificate proves them right."""

    @staticmethod
    def check_bos(cost, pairs, wide):
        quote = bos_quote(*certificate_inputs(cost, pairs, wide))
        alpha, rho, payments = oracles.naive_bos_quote(cost, pairs)
        assert (quote.alpha, quote.rho) == (alpha, rho)
        assert dict(quote.payments) == dict(enumerate(payments))
        return quote

    # Cap prices b/u = 1 (alpha = 7/24) and b/u = 25/4 (alpha = 35/48) tie
    # at rho/alpha = 24**2 / 49; the third voter is never capped. Unlike a
    # two-voter tie, the two candidates' integers differ, so their floats
    # round differently.
    TIE = (F(24), [(F(5), F(5)), (F(1), F(25, 4)), (F(1), F(100))])

    @LEDGERS
    @pytest.mark.parametrize("sign", [1, -1], ids=["later", "earlier"])
    def test_cap_price_candidates_a_relative_1e30_apart(self, wide, sign):
        # Raising the second balance by a relative 7/3 * 1e-30 lowers its
        # rho/alpha by a relative 1e-30 (to first order), so the later
        # candidate wins; lowering it makes the earlier one win.
        cost, pairs = self.TIE
        u, b = pairs[1]
        pairs = [pairs[0], (u, b * (1 + sign * F(7, 3) * TINY)), pairs[2]]
        quote = self.check_bos(cost, pairs, wide)
        assert quote.alpha == (
            (5 + 2 * pairs[1][1]) / cost if sign > 0 else F(7, 24)
        )

    @LEDGERS
    def test_exact_tie_of_cap_prices_with_different_alpha(self, wide):
        # The larger alpha wins.
        assert self.check_bos(*self.TIE, wide).alpha == F(35, 48)

    @LEDGERS
    @pytest.mark.parametrize("below", [ZERO, TINY], ids=["at", "below"])
    def test_poorest_b_over_u_at_the_proportional_price(self, wide, below):
        # cost / sum(u) = 6 / 6 = 1 is the poorest voter's b/u exactly (she
        # pays her whole balance and nobody is capped), or 1e-30 above it
        # (she alone is capped).
        cost = F(6)
        pairs = [(F(1), 1 - below), (F(2), F(5)), (F(3), F(7))]
        quote = min_rho(*certificate_inputs(cost, pairs, wide))
        rho = oracles.naive_min_rho(cost, pairs)
        assert quote.rho == rho
        assert quote.capped == (below > 0)
        assert dict(quote.payments) == {
            i: min(b, u * rho) for i, (u, b) in enumerate(pairs)
        }
        assert self.check_bos(cost, pairs, wide).alpha == 1


# ---------------------------------------------------------------------------
# min_rho's quotes, field by field, against a plain stable sort and
# bisection (oracles.sorted_bisection_quote).


def quote_fields(quote):
    """A quote's fields, named as ``oracles.sorted_bisection_quote`` names
    them."""
    return {
        "voters": list(quote.voters),
        "money": list(quote.money),
        "weights": list(quote.weights),
        "capped": quote.capped,
        "rho": quote.key.value(),
        "unit": quote.unit,
        "rate": quote.rate,
        "den": quote.den,
        "cap": quote.cap,
        "payments": list(quote.payments.items()),
    }


def oracle_checked_min_rho(project, budgets, utilities):
    """``min_rho``'s quote, once it has matched the oracle's."""
    quote = min_rho(project, budgets, utilities)
    c, scale = project.id, budgets.work_scale
    column = [(i, utilities.value(i, c)) for i in utilities.supporters[c]]
    # The working ledger as it stands: reading ``balances`` would reduce it.
    balances = [F(units, scale) for units in budgets.work_units]
    expected = oracles.sorted_bisection_quote(
        project.cost, column, balances, scale
    )
    assert (quote is None) == (expected is None)
    if quote is not None:
        assert quote_fields(quote) == expected
    return quote


@st.composite
def boundary_ledgers(draw):
    """(project, ledger, profile): a project of a random election with
    equal-weight (approval) or mixed (cardinal) columns, and balances at
    and around the price at which its purchase caps nobody.

    At that price, cost / sum(u), a supporter of utility u owes the share
    u * cost / sum(u). A "tight" supporter holds her share times the
    ledger scale, rounded down, plus -2 to 2 units: with equal weights the
    poorest such one puts min(money) * k at, just below or just above the
    cost, and with mixed weights her b/u ties the price exactly or, at the
    scale 10**30, lies below float resolution from it, so that the float
    keys tie while the exact ratios may not. The others hold more than
    their share, less, or nothing. The cost is sometimes divided by 3 or a
    large prime, so that the kernel's money scale must take in its
    denominator.
    """
    rng = draw(st.randoms(use_true_random=False))
    make = draw(st.sampled_from(
        [random_approval_election, random_cardinal_election]
    ))
    election = make(rng)
    utilities = election.utilities
    supported = [
        c for c in range(len(election.projects)) if utilities.supporters[c]
    ]
    if not supported:
        supported = [0]
    c = draw(st.sampled_from(supported))
    cost = election.projects[c].cost / draw(st.sampled_from([1, 3, 10**9 + 7]))
    column = [(i, utilities.value(i, c)) for i in utilities.supporters[c]]
    total = sum((u for _, u in column), ZERO)
    shares = {i: u * cost / total for i, u in column}
    scale = cost.denominator * draw(st.sampled_from([1, 2, 3])) * draw(
        st.sampled_from([1, 10**30])
    )
    if draw(st.booleans()):
        # Every share is a whole number of units: the boundary is reachable.
        scale = math.lcm(scale, *(u.denominator for u in shares.values()))
    units = []
    for i in range(election.n_voters):
        share = shares.get(i)
        kind = draw(st.sampled_from(
            ["tight"] * 3 + ["above"] * 3 + ["below", "none"]
            if share is not None else ["other"]
        ))
        if kind == "tight":
            held = math.floor(share * scale) + draw(st.integers(-2, 2))
        elif kind == "above":
            more = F(draw(st.integers(101, 400)), 100)
            held = math.ceil(share * scale * more)
        elif kind == "below":
            less = F(draw(st.integers(1, 99)), 100)
            held = math.floor(share * scale * less)
        elif kind == "other":
            held = draw(st.integers(0, 5 * scale))
        else:
            held = 0
        units.append(F(max(0, held), scale))
    return Project(c, "p", cost), BudgetState(units), utilities


class TestSortedBisection:
    """Every field of a min_rho quote, the voter order included, is the one
    a plain stable sort and bisection give."""

    @given(boundary_ledgers())
    @settings(max_examples=500, deadline=None)
    def test_quotes_at_and_around_the_proportional_price(self, drawn):
        oracle_checked_min_rho(*drawn)

    @given(st.randoms(use_true_random=False), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_every_quote_of_a_mes_run(self, rng, boost):
        make = rng.choice([random_approval_election, random_cardinal_election])
        election = make(rng)
        seen = []

        def watched(project, budgets, utilities):
            seen.append(project.id)
            return oracle_checked_min_rho(project, budgets, utilities)

        endowment = election.budget / election.n_voters * boost
        with mock.patch.object(rules, "min_rho", watched):
            mes(election, b_ini=endowment)
        assert seen

    def test_a_3000_supporter_equal_weight_column_half_capped(self):
        n = 3000
        profile = UtilityProfile.from_rows(
            n, 1, [{0: F(5, 2)} for _ in range(n)]
        )
        # Balances in thirds with many ties, in no order.
        balances = [F((i * 7919) % 2003 + 1, 3) for i in range(n)]
        # The cost that leaves voter 1,500 of the balance order just
        # uncapped: she owes exactly her balance.
        ranked = sorted(balances)
        cost = sum(ranked[:1500], ZERO) + ranked[1500] * (n - 1500)
        quote = oracle_checked_min_rho(
            Project(0, "p", cost), BudgetState(balances), profile
        )
        assert 1000 < quote.capped <= 1500


# ---------------------------------------------------------------------------
# Optimized mode: no kernel decision may depend on debug-only code.

FIXTURE_MODELS = {
    "reference": "cost", "minority": "cost", "tail": "score", "blocks": "cost",
}

ROUNDS_SCRIPT = """
import json, sys
from eqshares.model import UtilityModel
from eqshares.pabulib import load_election
from eqshares.rules import run_rule
from eqshares.stats import build_record

out = {}
for path, model in json.loads(sys.argv[1]):
    election = load_election(path, UtilityModel(model))
    for rule in ("mes", "bos", "bos-plus"):
        record = build_record(path, rule, election, run_rule(rule, election), 0.0)
        out[f"{path}|{rule}"] = [list(record.selected), list(record.rounds)]
print(json.dumps({"optimized": not __debug__, "runs": out}, sort_keys=True))
"""


def rounds_in_subprocess(fixtures_dir: Path, *flags: str) -> dict:
    jobs = [
        (str(fixtures_dir / f"{name}.pb"), model)
        for name, model in FIXTURE_MODELS.items()
    ]
    src = str(Path(eqshares.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, *flags, "-c", ROUNDS_SCRIPT, json.dumps(jobs)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def test_optimized_mode_gives_the_same_rounds(fixtures_dir):
    normal = rounds_in_subprocess(fixtures_dir)
    optimized = rounds_in_subprocess(fixtures_dir, "-O")
    assert normal["optimized"] is False and optimized["optimized"] is True
    assert len(normal["runs"]) == 12
    assert optimized["runs"] == normal["runs"]


# The completions run every purchase through the balance ledger as well:
# fres-complete by fractional debits, mes-add1u by one mes run per probe.
# The reference fixture is left out, since its add1u scan makes 16k probes.
COMPLETION_FIXTURES = ("minority", "tail", "blocks")
COMPLETION_RULES = ("fres-complete", "mes-add1u")

COMPLETIONS_SCRIPT = """
import json, sys
from eqshares.model import UtilityModel
from eqshares.pabulib import load_election
from eqshares.rules import run_rule
from eqshares.stats import build_record

jobs, rules = json.loads(sys.argv[1])
out = {}
for path, model in jobs:
    election = load_election(path, UtilityModel(model))
    for rule in rules:
        record = build_record(path, rule, election, run_rule(rule, election), 0.0)
        out[f"{path}|{rule}"] = [list(record.selected), list(record.rounds)]
print(json.dumps({"optimized": not __debug__, "runs": out}, sort_keys=True))
"""


def completions_in_subprocess(fixtures_dir: Path, *flags: str) -> dict:
    jobs = [
        (str(fixtures_dir / f"{name}.pb"), FIXTURE_MODELS[name])
        for name in COMPLETION_FIXTURES
    ]
    src = str(Path(eqshares.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, *flags, "-c", COMPLETIONS_SCRIPT,
         json.dumps([jobs, COMPLETION_RULES])],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def test_optimized_mode_gives_the_same_completions(fixtures_dir):
    normal = completions_in_subprocess(fixtures_dir)
    optimized = completions_in_subprocess(fixtures_dir, "-O")
    assert normal["optimized"] is False and optimized["optimized"] is True
    assert len(normal["runs"]) == 6
    assert optimized["runs"] == normal["runs"]
