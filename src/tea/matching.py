"""Tracker-antigen binding and the exact repeated-trend oracle.

Binding finds the longest contiguous run of tracker values that also
appears contiguously in the antigen (elementwise within the bind
threshold; threshold 0 means exact equality).  The winning run is the
match sequence MS; its occurrence count in the antigen is the
stimulation factor SF and its length the match length ML.  Tracker
values outside the MS are redundancy.

Binding is bit-parallel (Allison & Dix 1986; Hyyro 2004), the same at
every threshold.  For the antigen object bound last, each tracker value
keeps one mask: an int whose bit j is set when the value binds antigen
position j.  Each tracker start grows its run one value at a time by
bits = (bits << 1) & mask[next value] while any bit is left, so bit j
then marks an antigen window ending at j.  The starts that reach the
longest length ML tie.  Under exact binding every window a run binds
equals the run, so a tie's SF is its bit count and its lowest bit the
first occurrence; under a loose threshold the windows may differ, and
one count of the antigen's windows of length ML ranks each.  Any other
antigen object or threshold, an equal tuple included, starts a fresh
set of masks.  Each function reads tuple(x) of its sequence: a tuple as
it is, anything else (an Antigen, a list) as a new copy per call.

The oracle lists every trend of an antigen: each contiguous window of
length >= 2 that occurs at least twice (overlapping occurrences count),
with its count.  It counts windows one length at a time.  A window can
repeat only where its one-shorter prefix repeats, so each length looks
only at the starts the previous length kept, and the count stops at the
first length with no repeat.  A repeated window's count is exact: each
of its occurrences starts where its prefix repeats, at a kept start.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .encoding import CategorySeq


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


def count_occurrences(pattern: CategorySeq, antigen) -> int:
    """Start positions in the antigen where the pattern matches exactly.

    Overlapping occurrences all count.
    """
    pattern = tuple(pattern)
    if not pattern:
        raise MatchingError("pattern must be non-empty")
    seq = tuple(antigen)
    m = len(pattern)
    return sum(1 for i in range(len(seq) - m + 1) if seq[i : i + m] == pattern)


# The antigen bound last, its threshold and its masks by tracker value.
# Holding the antigen itself keeps `is` from matching a new object at a
# reused id.
_held: tuple[CategorySeq | None, float, dict] = (None, 0.0, {})


def longest_match(tracker, antigen, bind_threshold: float = 0.0) -> MatchResult:
    """Bind a tracker to an antigen and report the optimal match sequence.

    Among all maximal-length common contiguous runs the winner is the
    one with the highest SF; remaining ties go to the leftmost start in
    the tracker, then the leftmost start in the antigen.  With no
    common value at all the MS is empty and SF = ML = 0.
    """
    tvals = tuple(tracker)
    avals = tuple(antigen)
    if not tvals:
        raise MatchingError("tracker must be non-empty")
    global _held
    held, threshold, masks = _held
    if avals is not held or threshold != bind_threshold:
        masks = {}
        _held = (avals, bind_threshold, masks)
    row = []
    for v in tvals:
        mask = masks.get(v)
        if mask is None:
            mask = masks[v] = _mask(v, avals, bind_threshold)
        row.append(mask)

    # bit j of bits: the run from start s binds the antigen window ending at j
    n, ml, ties = len(tvals), 0, []
    for s in range(n):
        if n - s < ml:
            break
        bits, end = row[s], s + 1
        if not bits:
            continue
        while end < n:
            grown = (bits << 1) & row[end]
            if not grown:
                break
            bits, end = grown, end + 1
        if end - s > ml:
            ml, ties = end - s, [(s, bits)]
        elif end - s == ml:
            ties.append((s, bits))
    if not ml:
        return MatchResult(ms=(), sf=0, ml=0, redundancy=n)

    if bind_threshold:  # the windows a loose run binds may differ, so each is counted
        counts = Counter(avals[j : j + ml] for j in range(len(avals) - ml + 1))
    sf = 0
    for s, bits in ties:
        while bits:
            low = bits & -bits
            j = low.bit_length() - ml  # the leftmost antigen start left
            hit = counts[avals[j : j + ml]] if bind_threshold else bits.bit_count()
            if hit > sf:
                sf, ts, first = hit, s, j
            # an exact run binds only windows equal to its own, all with one count
            bits = bits ^ low if bind_threshold else 0
    # the MS is read from the antigen, so it keeps the antigen's -0.0 or int
    return MatchResult(avals[first : first + ml], sf, ml, n - ml, ts)


def _mask(v, avals: CategorySeq, bind_threshold: float) -> int:
    """The antigen positions that tracker value v binds, as the bits of an int."""
    mask = 0
    if bind_threshold:
        for j, a in enumerate(avals):
            if abs(v - a) <= bind_threshold:
                mask |= 1 << j
    elif v - v == 0:  # v is finite, so no nan or infinity equals it
        for j, a in enumerate(avals):
            if a == v:
                mask |= 1 << j
    return mask


def trend_counts(antigen) -> dict[CategorySeq, int]:
    """Every contiguous window of length >= 2 occurring >= 2 times, with its count."""
    seq = tuple(antigen)
    trends = {}
    starts = range(len(seq))
    for length in range(2, len(seq)):
        counts = Counter(seq[i : i + length] for i in starts if i + length <= len(seq))
        repeated = {window: count for window, count in counts.items() if count >= 2}
        if not repeated:
            break
        trends.update(repeated)
        starts = [i for i in starts if seq[i : i + length] in repeated]
    return trends


def enumerate_trends(antigen) -> frozenset[CategorySeq]:
    """Every contiguous window of length >= 2 occurring >= 2 times."""
    return frozenset(trend_counts(antigen))
