"""Binding, match selection, and the repeated-trend oracle."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

# tests/test_acceptance.py imports brute_force_match from here
from reference import brute_force_bind, brute_force_match, brute_force_trends
from tea import matching
from tea.encoding import Antigen, band
from tea.engine import ANTIGEN_A, ANTIGEN_A1, ANTIGEN_A2
from tea.matching import (
    MatchingError,
    count_occurrences,
    enumerate_trends,
    longest_match,
    trend_counts,
)
from tea.population import PoolConfig, random_values

T1 = (1.0, 2.0)
T2 = (1.0, 2.0, 1.0)
T3 = (2.0, 1.0)
T4 = (1.0, 2.0, -0.5)
T5 = (2.0, -0.5)
T6 = (2.0, 1.0, 2.0)
T7 = (2.0, 1.0, 2.0, -0.5)
T8 = (-0.5, 1.0)


class TestCountOccurrences:
    @pytest.mark.parametrize(
        "pattern,seq,expected",
        [
            ((1.0, 2.0), ANTIGEN_A.seq, 4),
            ((1.0, 1.0), (1.0, 1.0, 1.0, 1.0), 3),  # overlaps all count
            ((5.0,), ANTIGEN_A.seq, 0),
            (ANTIGEN_A.seq, ANTIGEN_A.seq, 1),
        ],
    )
    def test_counts(self, pattern, seq, expected):
        assert count_occurrences(pattern, seq) == expected

    def test_rejects_empty_pattern(self):
        with pytest.raises(MatchingError):
            count_occurrences((), (1.0, 2.0))


class TestLongestMatch:
    # Expected per-tracker results against the full worked antigen.
    @pytest.mark.parametrize(
        "tracker,ms,sf",
        [
            (T1, T1, 4),
            (T2, T2, 2),
            (T3, T3, 4),
            (T4, T4, 2),
            (T5, T5, 2),
            (T6, T6, 2),
            (T7, T7, 2),
            (T8, T8, 2),
        ],
    )
    def test_exact_trackers_match_whole(self, tracker, ms, sf):
        m = longest_match(tracker, ANTIGEN_A)
        assert m.ms == ms
        assert m.sf == sf
        assert m.ml == len(ms)
        assert m.redundancy == 0
        assert m.is_trend_match

    def test_partial_overlap(self):
        # only the [1,2] suffix/prefix pair lines up
        m = longest_match((1.0, 2.0, 1.0), (0.5, 1.0, 2.0))
        assert m.ms == (1.0, 2.0)
        assert m.ml == 2
        assert m.sf == 1
        assert m.redundancy == 1
        assert m.tracker_start == 0

    def test_redundant_values_counted(self):
        m = longest_match((9.0, 1.0, 2.0, 9.0, 9.0), ANTIGEN_A)
        assert m.ms == (1.0, 2.0)
        assert m.redundancy == 3
        assert m.tracker_span == (1, 3)

    def test_no_common_value(self):
        m = longest_match((9.0, 9.0), (1.0, 2.0))
        assert m.ms == ()
        assert m.sf == 0 and m.ml == 0
        assert m.redundancy == 2
        assert not m.is_trend_match

    def test_tie_breaks_on_occurrences(self):
        # [3,4] and [1,2] are both length-2 matches; [1,2] repeats
        m = longest_match((3.0, 4.0, 0.0, 1.0, 2.0), (1.0, 2.0, 3.0, 4.0, 1.0, 2.0))
        assert m.ms == (1.0, 2.0)
        assert m.sf == 2

    def test_tie_breaks_on_tracker_position(self):
        # both windows occur once; the earlier tracker window wins
        m = longest_match((3.0, 4.0, 0.0, 1.0, 2.0), (1.0, 2.0, 3.0, 4.0))
        assert m.ms == (3.0, 4.0)
        assert m.tracker_start == 0

    def test_threshold_binding_reports_antigen_side(self):
        m = longest_match((1.4, 2.4), (1.0, 2.0, 8.0), bind_threshold=0.5)
        assert m.ms == (1.0, 2.0)

    def test_rejects_empty_tracker(self):
        with pytest.raises(MatchingError):
            longest_match((), (1.0,))


class TestBruteForceEquivalence:
    def test_thousand_random_pairs(self):
        rng = random.Random(1234)
        alphabet = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        for _ in range(1000):
            tracker = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            antigen = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            got = longest_match(tracker, antigen)
            assert (got.ms, got.sf, got.ml, got.redundancy) == brute_force_match(
                tracker, antigen
            ), (tracker, antigen)

    @settings(max_examples=200)
    @given(
        tracker=st.lists(st.sampled_from([-0.5, 1.0, 2.0]), min_size=1, max_size=5),
        antigen=st.lists(st.sampled_from([-0.5, 1.0, 2.0]), min_size=1, max_size=10),
        threshold=st.sampled_from([0.0, 0.5]),
    )
    def test_property(self, tracker, antigen, threshold):
        got = longest_match(tracker, antigen, threshold)
        assert (got.ms, got.sf, got.ml, got.redundancy) == brute_force_match(
            tracker, antigen, threshold
        )


# 0.0/-0.0 and 1/1.0 are equal but print differently; nan and the
# infinities never bind, though tuple equality can match them
EXACT_ALPHABET = [0.0, -0.0, 1, 1.0, 2.0, -0.5, math.nan, math.inf, -math.inf]


def assert_same_match(got, ref):
    # repr also tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert got == ref and repr(got) == repr(ref)


class TestExactBinding:
    """Exact binding against the brute-force reference."""

    @settings(max_examples=500)
    @given(
        tracker=st.lists(st.sampled_from(EXACT_ALPHABET), min_size=1, max_size=8),
        antigen=st.lists(st.sampled_from(EXACT_ALPHABET), max_size=40),
    )
    def test_equals_reference(self, tracker, antigen):
        tracker, antigen = tuple(tracker), tuple(antigen)
        assert_same_match(longest_match(tracker, antigen), brute_force_bind(tracker, antigen))

    @settings(max_examples=200, deadline=None)
    @given(
        # three or four values, so many starts tie at the longest length
        alphabet=st.sampled_from(
            [(0.0, -0.0, 1), (-0.0, 1, 2.0, math.nan), (0.0, 1, 1.0, math.nan)]
        ),
        data=st.data(),
    )
    def test_equals_reference_on_long_inputs(self, alphabet, data):
        def values(min_size, max_size):
            # a size drawn first, so long lists come as often as short ones
            size = data.draw(st.integers(min_size, max_size))
            return tuple(data.draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size)))

        tracker, antigen = values(1, 30), values(0, 300)
        assert_same_match(longest_match(tracker, antigen), brute_force_bind(tracker, antigen))
        # one mask per tracker value, for this antigen object and threshold
        held, threshold, masks = matching._held
        assert held is antigen and threshold == 0 and masks.keys() >= set(tracker)
        for v in tracker:
            assert masks[v] == sum(1 << j for j, a in enumerate(antigen) if abs(v - a) <= 0)

    def test_equals_reference_on_banded_walk(self):
        # the benchmark's shape: random trackers and stretches of the
        # walk itself, some with one value changed, on 300 banded changes
        rng = random.Random(0)
        closes = [100.0]
        for _ in range(300):
            closes.append(closes[-1] + rng.gauss(0.0, 1.0))
        antigen = tuple(band(b - a, 0.5) for a, b in zip(closes, closes[1:]))
        config = PoolConfig(band_width=0.5)
        trackers = list(random_values(config, rng, 200))
        for _ in range(100):
            start = rng.randrange(len(antigen) - 8)
            stretch = list(antigen[start : start + rng.randint(1, 8)])
            stretch[rng.randrange(len(stretch))] += rng.choice([0.0, 0.5])
            trackers.append(tuple(stretch))
        for tracker in trackers:
            assert_same_match(longest_match(tracker, antigen), brute_force_bind(tracker, antigen))

    def test_list_tuple_and_antigen_agree(self):
        results = {
            repr(longest_match(tracker, antigen))
            for tracker in (list(T7), T7, Antigen(T7))
            for antigen in (list(ANTIGEN_A.seq), ANTIGEN_A.seq, ANTIGEN_A)
        }
        assert results == {repr(brute_force_bind(T7, ANTIGEN_A.seq))}

    def test_antigens_differing_in_one_value_keep_their_own_masks(self):
        a = (0.0, 2.0, 0.0, 2.0, 3.0)
        b = (0.0, 2.0, 0.0, 2.5, 3.0)
        # equal to a but another object, whose MS must show its -0.0
        negative = tuple([-0.0, 2.0, -0.0, 2.0, 3.0])
        assert negative == a and negative is not a
        for _ in range(2):  # the second pass comes back to antigens bound before
            assert longest_match((0.0, 2.0), a).sf == 2
            assert longest_match((0.0, 2.0), b).sf == 1
            assert longest_match((2.0, 3.0), a).ml == 2
            assert longest_match((2.0, 3.0), b).ml == 1
            for antigen in (a, b, a, negative, a, list(b), b):
                for tracker in (
                    (0.0, 2.0, 0.0, 2.0), (2.5, 3.0), (0.0, 2.0, 0.0, 2.5), (0.0, 2.0), (2.0, 3.0)
                ):
                    assert_same_match(
                        longest_match(tracker, antigen), brute_force_bind(tracker, antigen)
                    )

    def test_equal_antigens_keep_their_own_ms(self):
        # (0.0, 1.0) == (-0.0, 1.0); the MS still comes from the antigen
        # being bound, not from one whose masks were built before
        assert longest_match((0.0, 1.0), (0.0, 1.0)).ms[0] == 0.0
        assert math.copysign(1.0, longest_match((0.0, 1.0), (-0.0, 1.0)).ms[0]) == -1.0
        assert math.copysign(1.0, longest_match((0.0, 1.0), (0.0, 1.0)).ms[0]) == 1.0
        assert type(longest_match((1.0, 2.0), (1, 2.0)).ms[0]) is int

    def test_mask_cache_is_bounded(self):
        # only the antigen object bound last keeps its masks, one per tracker value
        for k in range(10):
            antigen = (k + 3.0, 1.0, 2.0)
            longest_match((1.0, 2.0), antigen)
            longest_match((1.0, 2.0, 1.0), antigen)
            held, threshold, masks = matching._held
            assert held is antigen and threshold == 0 and masks == {1.0: 0b010, 2.0: 0b100}
        copy = tuple(list(antigen))
        longest_match((1.0,), copy)
        held, _, masks = matching._held
        assert held is copy and masks == {1.0: 0b010}
        longest_match((1.0,), list(copy))  # a list binds as a new tuple
        assert matching._held[0] is not copy
        longest_match((1.0,), copy, 0.5)  # another threshold makes fresh masks
        assert matching._held[1:] == (0.5, {1.0: 0b010})

    @settings(max_examples=500)
    @given(
        tracker=st.lists(st.sampled_from(EXACT_ALPHABET), min_size=1, max_size=8),
        prefix=st.lists(st.sampled_from(EXACT_ALPHABET), max_size=30).map(tuple),
        new=st.sampled_from(EXACT_ALPHABET),
        threshold=st.sampled_from([0.0, 0.5]),
    )
    def test_a_value_out_of_reach_leaves_the_match(self, tracker, prefix, new, threshold):
        # the engine carries a bind to the next prefix on this lemma
        tracker = tuple(t for t in tracker if not abs(t - new) <= threshold)
        assume(tracker)
        assert repr(longest_match(tracker, prefix + (new,), threshold)) == repr(
            longest_match(tracker, prefix, threshold)
        )


class TestBindingAtEveryThreshold:
    """The whole MatchResult, by repr, against the brute-force reference at each threshold."""

    @settings(max_examples=500)
    @given(
        tracker=st.lists(st.sampled_from(EXACT_ALPHABET), min_size=1, max_size=8),
        antigen=st.lists(st.sampled_from(EXACT_ALPHABET), max_size=40).map(tuple),
        thresholds=st.lists(st.sampled_from([0, 0.25, 0.5, 1, 2]), min_size=1, max_size=2),
    )
    def test_equals_reference(self, tracker, antigen, thresholds):
        # one antigen object, bound at up to two thresholds in turn
        for threshold in thresholds:
            assert_same_match(
                longest_match(tracker, antigen, threshold),
                brute_force_bind(tracker, antigen, threshold),
            )

    def test_one_antigen_at_two_thresholds(self):
        # 1.5 binds only itself exactly, and 1.0, 1.5 and 2.0 within 0.5
        antigen = (1.0, 2.0, 1.5, 2.5, 1.0, 2.0)
        for threshold in (0.0, 0.5, 0.0, 0.5):
            got = longest_match((1.5, 2.5), antigen, threshold)
            assert_same_match(got, brute_force_bind((1.5, 2.5), antigen, threshold))
            assert (got.ms, got.sf) == (((1.5, 2.5), 1) if threshold == 0 else ((1.0, 2.0), 2))


class TestEnumerateTrends:
    def test_full_antigen(self):
        assert enumerate_trends(ANTIGEN_A) == frozenset({T1, T2, T3, T4, T5, T6, T7, T8})

    def test_first_half(self):
        assert enumerate_trends(ANTIGEN_A1) == frozenset({T1, T2, T3})

    def test_second_half(self):
        assert enumerate_trends(ANTIGEN_A2) == frozenset({T1, T3, T4, T5, T6, T7})

    def test_no_repeats_no_trends(self):
        assert enumerate_trends((1.0, 2.0, 3.0, 4.0)) == frozenset()

    @given(st.lists(st.sampled_from([1.0, 2.0]), min_size=2, max_size=12))
    def test_every_trend_verifies(self, seq):
        seq = tuple(seq)
        for trend in enumerate_trends(seq):
            assert len(trend) >= 2
            assert count_occurrences(trend, seq) >= 2

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.lists(st.sampled_from([1.0, 2.0]), max_size=16),
            st.lists(st.sampled_from([-0.5, 1.0, 2.0]), max_size=16),
        )
    )
    def test_equals_brute_force(self, seq):
        assert enumerate_trends(seq) == brute_force_trends(seq)
        assert enumerate_trends(Antigen(tuple(seq))) == brute_force_trends(seq)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from([-0.5, 0.0, -0.0, 1.0, 2.0]), max_size=16))
    def test_counts_each_trend_in_the_whole_sequence(self, seq):
        # a repeated window occurs only where its prefix repeats, at a kept start
        expected = {trend: count_occurrences(trend, seq) for trend in brute_force_trends(seq)}
        assert trend_counts(seq) == expected
