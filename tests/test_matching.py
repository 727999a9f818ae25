"""Binding, match selection, and the repeated-trend oracle."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tea.encoding import Antigen
from tea.engine import ANTIGEN_A, ANTIGEN_A1, ANTIGEN_A2
from tea.matching import (
    MatchingError,
    count_occurrences,
    enumerate_trends,
    longest_match,
)

T1 = (1.0, 2.0)
T2 = (1.0, 2.0, 1.0)
T3 = (2.0, 1.0)
T4 = (1.0, 2.0, -0.5)
T5 = (2.0, -0.5)
T6 = (2.0, 1.0, 2.0)
T7 = (2.0, 1.0, 2.0, -0.5)
T8 = (-0.5, 1.0)


def brute_force_match(tracker, antigen, threshold=0.0):
    """Independent reference: try every window pair, longest first.

    Returns (ms, sf, ml, redundancy) under the same tie rules: highest
    occurrence count, then leftmost tracker start, then leftmost
    antigen start, with the MS read from the antigen side.
    """
    tracker, antigen = tuple(tracker), tuple(antigen)
    for length in range(min(len(tracker), len(antigen)), 0, -1):
        hits = []
        for ts in range(len(tracker) - length + 1):
            for As in range(len(antigen) - length + 1):
                if all(
                    abs(tracker[ts + k] - antigen[As + k]) <= threshold
                    for k in range(length)
                ):
                    hits.append((ts, As))
        if hits:
            def rank(hit):
                ts, As = hit
                ms = antigen[As : As + length]
                return (-count_occurrences(ms, antigen), ts, As)

            ts, As = min(hits, key=rank)
            ms = antigen[As : As + length]
            return ms, count_occurrences(ms, antigen), length, len(tracker) - length
    return (), 0, 0, len(tracker)


def brute_force_trends(seq):
    """Independent reference: re-count every window of length >= 2."""
    seq = tuple(seq)
    n = len(seq)
    trends = set()
    for length in range(2, n):
        for start in range(n - length + 1):
            window = seq[start : start + length]
            if window not in trends and count_occurrences(window, seq) >= 2:
                trends.add(window)
    return frozenset(trends)


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
        assert m.affinity == 0.0
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
        assert math.isinf(m.affinity)
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
        assert m.affinity == pytest.approx(0.4)

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
