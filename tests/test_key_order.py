"""The selectors' integer-pair keys order exactly as the rationals do.

A heap entry leads with the correctly rounded float of its key, then the
key, an unnormalised integer pair compared by cross-multiplication, then
the tie rank. The cases aim at the places a float alone would order wrongly:
distinct rationals about 10^-30 apart, whose floats are equal; keys too
large for a float, which all round to inf; and one rational written as
different unreduced pairs, such as 2/4 and 1/2.
"""
from __future__ import annotations

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from eqshares.rules import _Key, _proposal

BASES = [F(0), F(1), F(3, 7), F(10**12 + 39, 10**12 - 11), F(10**400, 3)]


@st.composite
def rationals(draw):
    """A rational near one of the bases: equal to it, or 10^-30 away in
    units of itself."""
    base = draw(st.sampled_from(BASES))
    offset = F(draw(st.integers(-3, 3)), 10**30) * max(base, F(1))
    value = base + offset
    return value if value >= 0 else base


@st.composite
def pairs(draw):
    """An unreduced (num, den) pair of a rational from :func:`rationals`."""
    value = draw(rationals())
    factor = draw(st.sampled_from([1, 2, 3, 10**20 + 1]))
    return value.numerator * factor, value.denominator * factor


ranks = st.tuples(st.integers(0, 1), st.integers(0, 3))


def entry(pair, rank):
    key = _Key(*pair)
    return (_proposal(key), key, rank)


class TestKeyOrder:
    @given(pairs(), pairs())
    @settings(max_examples=500, deadline=None)
    def test_keys_compare_as_the_rationals(self, a, b):
        ka, kb = _Key(*a), _Key(*b)
        fa, fb = F(*a), F(*b)
        assert (ka < kb) == (fa < fb)
        assert (kb < ka) == (fb < fa)
        assert (ka == kb) == (fa == fb)
        assert ka.value() == fa

    @given(pairs(), pairs(), ranks, ranks)
    @settings(max_examples=500, deadline=None)
    def test_entries_order_as_rational_and_rank(self, a, b, ra, rb):
        assert (entry(a, ra) < entry(b, rb)) == ((F(*a), ra) < (F(*b), rb))
        assert (entry(a, ra) == entry(b, rb)) == ((F(*a), ra) == (F(*b), rb))

    @given(st.lists(st.tuples(pairs(), ranks), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_sorting_entries_sorts_the_rationals(self, items):
        by_entry = sorted(range(len(items)), key=lambda j: entry(*items[j]))
        by_value = sorted(
            range(len(items)), key=lambda j: (F(*items[j][0]), items[j][1])
        )
        assert [
            (F(*items[j][0]), items[j][1]) for j in by_entry
        ] == [(F(*items[j][0]), items[j][1]) for j in by_value]

    def test_floats_tie_where_the_rationals_differ(self):
        low, high = F(1), F(1) + F(1, 10**30)
        assert _proposal(_Key(1, 1)) == _proposal(
            _Key(high.numerator, high.denominator)
        )
        assert entry((1, 1), (0, 1)) < entry(
            (high.numerator, high.denominator), (0, 0)
        )
        assert low < high

    def test_keys_beyond_a_float_propose_inf(self):
        big = _Key(10**400, 3)
        bigger = _Key(10**400 + 1, 3)
        assert _proposal(big) == _proposal(bigger) == math.inf
        assert big < bigger and not bigger < big
        # A large pair whose value fits a float is not inf.
        assert _proposal(_Key(10**400, 10**399)) == 10.0

    def test_unreduced_pairs_of_one_value_are_equal(self):
        half, also = _Key(1, 2), _Key(2, 4)
        assert half == also and not half < also and not also < half
        assert _proposal(half) == _proposal(also) == 0.5
        # Equal keys fall through to the tie rank.
        assert (0.5, half, (0, 1)) > (0.5, also, (0, 0))
