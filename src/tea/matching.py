"""Tracker-antigen binding and the exact repeated-trend oracle.

Binding finds the longest contiguous run of tracker values that also
appears contiguously in the antigen (elementwise within the bind
threshold; threshold 0 means exact equality).  The winning run is the
match sequence MS; its occurrence count in the antigen is the
stimulation factor SF and its length the match length ML.  Tracker
values outside the MS are redundancy.

Exact binding reads tables of the antigen's windows, one per window
length, each mapping a window to its count and first start.  A tracker
window can match only where its one-shorter prefix did, so the
tracker's matching starts grow one length at a time until none is left.
Only the antigen object bound last keeps its tables, so binding many
trackers to one antigen builds each table once and never hashes the
antigen; any other object, an equal tuple or a list included, starts
afresh.  A loose threshold (bind_threshold > 0) binds by an n x m
alignment DP.

The oracle lists every trend of an antigen: each contiguous window of
length >= 2 that occurs at least twice (overlapping occurrences count).
It counts windows one length at a time.  A window can repeat only where
its one-shorter prefix repeats, so each length looks only at the starts
the previous length kept, and the count stops at the first length with
no repeat.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .encoding import Antigen, CategorySeq


class MatchingError(ValueError):
    """Raised for empty patterns or trackers."""


# A NamedTuple: as immutable as a frozen dataclass, and far cheaper to make.
class MatchResult(NamedTuple):
    ms: CategorySeq
    sf: int
    ml: int
    redundancy: int
    tracker_start: int = 0  # where the winning window sits in the tracker

    @property
    def tracker_span(self) -> tuple[int, int]:
        """Half-open index range of the MS within the tracker."""
        return (self.tracker_start, self.tracker_start + self.ml)

    @property
    def is_trend_match(self) -> bool:
        """True when the MS qualifies as a repeating trend (ML and SF both > 1)."""
        return self.ml > 1 and self.sf > 1


def _values(antigen) -> CategorySeq:
    return antigen.seq if isinstance(antigen, Antigen) else tuple(antigen)


def count_occurrences(pattern: CategorySeq, antigen) -> int:
    """Start positions in the antigen where the pattern matches exactly.

    Overlapping occurrences all count.
    """
    pattern = tuple(pattern)
    if not pattern:
        raise MatchingError("pattern must be non-empty")
    seq = _values(antigen)
    m = len(pattern)
    return sum(1 for i in range(len(seq) - m + 1) if seq[i : i + m] == pattern)


# The antigen bound last and its window tables by length.  Holding the
# antigen itself keeps `is` from matching a new object at a reused id.
_held: tuple[CategorySeq | None, dict[int, dict]] = (None, {})


def longest_match(tracker, antigen, bind_threshold: float = 0.0) -> MatchResult:
    """Bind a tracker to an antigen and report the optimal match sequence.

    Among all maximal-length common contiguous runs the winner is the
    one with the highest SF; remaining ties go to the leftmost start in
    the tracker, then the leftmost start in the antigen.  With no
    common value at all the MS is empty and SF = ML = 0.
    """
    tvals = _values(tracker)
    avals = _values(antigen)
    if not tvals:
        raise MatchingError("tracker must be non-empty")
    if bind_threshold:
        return _longest_match_dp(tvals, avals, bind_threshold)

    global _held
    held, tables = _held
    if avals is not held:
        tables = {}
        _held = (avals, tables)
    length, table, starts = 0, None, range(len(tvals))
    while length < len(tvals):
        longer = tables.get(length + 1)
        if longer is None:
            longer = tables[length + 1] = _windows(avals, length + 1)
        kept = [i for i in starts if tvals[i : i + length + 1] in longer]
        if not kept:
            break
        length, table, starts = length + 1, longer, kept
    if not length:
        return MatchResult(ms=(), sf=0, ml=0, redundancy=len(tvals))
    ts = starts[0]
    if len(starts) > 1:
        ts = min(starts, key=lambda i: (-table[tvals[i : i + length]][0], i))
    sf, first = table[tvals[ts : ts + length]]
    # the MS is read from the antigen, so it keeps the antigen's -0.0 or int
    return MatchResult(
        ms=avals[first : first + length], sf=sf, ml=length,
        redundancy=len(tvals) - length, tracker_start=ts,
    )


def _windows(avals: CategorySeq, length: int) -> dict[CategorySeq, tuple[int, int]]:
    """The antigen's windows of one length, each mapped to (count, first start).

    Windows holding a non-finite value are left out: abs(t - a) <= 0
    never holds for nan or an infinity, but tuple equality can.
    """
    starts = range(len(avals) - length + 1)
    if not all(map(math.isfinite, avals)):
        starts = [j for j in starts if all(map(math.isfinite, avals[j : j + length]))]
    windows = [avals[j : j + length] for j in starts]
    first = dict(zip(reversed(windows), reversed(starts)))  # the leftmost start wins
    return {w: (n, first[w]) for w, n in Counter(windows).items()}


def _longest_match_dp(tvals: CategorySeq, avals: CategorySeq, bind_threshold: float) -> MatchResult:
    """longest_match by an n x m alignment DP, for any bind threshold."""
    # run[j] = length of the aligned run ending at (i, j)
    n, m = len(tvals), len(avals)
    best_len = 0
    candidates = []  # (tracker_start, antigen_start) of every run of best_len
    prev = [0] * m
    for i in range(n):
        cur = [0] * m
        ti = tvals[i]
        for j in range(m):
            if abs(ti - avals[j]) <= bind_threshold:
                cur[j] = (prev[j - 1] if j else 0) + 1
                if cur[j] > best_len:
                    best_len = cur[j]
                    candidates = [(i - best_len + 1, j - best_len + 1)]
                elif cur[j] == best_len:
                    candidates.append((i - best_len + 1, j - best_len + 1))
        prev = cur

    if best_len == 0:
        return MatchResult(ms=(), sf=0, ml=0, redundancy=len(tvals))

    # one table of the antigen's windows of length best_len ranks every
    # tied candidate and gives the winner's SF
    counts = Counter(avals[j : j + best_len] for j in range(m - best_len + 1))
    ts, as_ = min(candidates, key=lambda c: (-counts[avals[c[1] : c[1] + best_len]], *c))
    # the antigen-side window is the MS; identical to the tracker side
    # under exact binding, the observed pattern under a loose threshold
    ms = avals[as_ : as_ + best_len]
    return MatchResult(
        ms=ms, sf=counts[ms], ml=best_len, redundancy=len(tvals) - best_len, tracker_start=ts
    )


def enumerate_trends(antigen) -> frozenset[CategorySeq]:
    """Every contiguous window of length >= 2 occurring >= 2 times."""
    seq = _values(antigen)
    trends = set()
    starts = range(len(seq))
    for length in range(2, len(seq)):
        counts = Counter(seq[i : i + length] for i in starts if i + length <= len(seq))
        repeated = {window for window, count in counts.items() if count >= 2}
        if not repeated:
            break
        trends |= repeated
        starts = [i for i in starts if seq[i : i + length] in repeated]
    return frozenset(trends)
