"""The simple implementations that the tests compare tea against, one per behaviour.

They are slow and plain on purpose and call no tea function: from tea they
import only data types and constants (test_reference_guard.py enforces
this), so a fault in tea cannot pass by being shared with its reference.
Every random draw comes from a random.Random, in the order tea documents.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys

from tea.engine import (
    POOL_ACTION_FEEDBACK,
    POOL_ACTION_RESET,
    GenRecord,
    MemoryEvent,
    PoolLimitError,
    RunStats,
)
from tea.matching import MatchResult
from tea.population import CLONE, MEMORY_CLONE, NAIVE


def reference_band(delta, width):
    """Round a price change outward onto a multiple of the width.

    Raises ValueError with band's message where band raises EncodingError.
    """
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"band width must be positive and finite, got {width}")
    for k in range(1, 64):  # a grid point rounded to 9 places must stay a multiple
        point = round(k * width, 9)
        if point <= sys.float_info.max and abs(point - k * width) > 1e-6 * k * width:
            raise ValueError(f"band width {width} is off the grid of 9 decimal places bands round to")
    if delta == 0:
        return 0.0
    try:
        steps = max(1, math.ceil(round(abs(delta) / width, 9)))
    except (OverflowError, ValueError):  # the quotient is infinite or nan
        raise ValueError(f"price change {shown(delta)} has no band at width {width}") from None
    point = round(steps * width, 9)
    if point > sys.float_info.max:  # the grid point passes the largest float
        raise ValueError(f"price change {shown(delta)} has no band at width {width}")
    return math.copysign(point, delta)


def shown(value) -> str:
    """str(value), or the bit count of an int too long for a decimal string."""
    try:
        return str(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


@dataclasses.dataclass
class MutableTracker:
    """A tracker whose record is updated in place: one object per pool position."""

    values: tuple
    origin: str = NAIVE
    best_sf: int = 0
    best_ml: int = 0
    last_improvement_gen: int = 0


def reference_values(config, rng):
    """One random naive tracker's values: randint for the length, then one banded gauss each."""
    length = rng.randint(config.init_len_min, config.init_len_max)
    return tuple(
        reference_band(rng.gauss(config.gaussian_mean, config.gaussian_std), config.band_width)
        for _ in range(length)
    )


def naive_pool(config, rng):
    return [MutableTracker(reference_values(config, rng)) for _ in range(config.init_size)]


def reference_mutate(parent, config, rng, current_gen, ms_span):
    """One clone: extend by a fresh banded draw, or drop one value.

    Shortening drops a value outside the half-open ms_span when there is
    one, else any value.  An extension keeps the parent's record; a
    shortened clone starts from a zeroed one.
    """
    extend = True
    if config.shortening_enabled and len(parent.values) > 1:
        extend = rng.random() < config.mutation_extend_prob
    if extend:
        draw = rng.gauss(config.gaussian_mean, config.gaussian_std)
        values = parent.values + (reference_band(draw, config.band_width),)
        best_sf, best_ml = parent.best_sf, parent.best_ml
    else:
        positions = range(len(parent.values))
        lo, hi = ms_span
        redundant = [i for i in positions if not lo <= i < hi]
        if redundant:
            positions = redundant
        drop = positions[rng.randrange(len(positions))]
        values = parent.values[:drop] + parent.values[drop + 1 :]
        best_sf = best_ml = 0
    return MutableTracker(values, CLONE, best_sf, best_ml, current_gen)


def reference_apoptose(pool, config, rng):
    doomed = math.floor(config.apoptosis_rate * len(pool))
    if doomed == 0:
        return list(pool)
    dead = set(rng.sample(range(len(pool)), doomed))
    return [t for i, t in enumerate(pool) if i not in dead]


def reference_cull(pool, config, current_gen):
    return [
        t
        for t in pool
        if t.origin != CLONE or current_gen - t.last_improvement_gen < config.clone_lifespan
    ]


def reference_homeostasis(pool, config, rng):
    """Copies of uniformly drawn members up to min_pool; a fresh naive pool if empty."""
    if not pool:
        return naive_pool(config, rng)
    pool = list(pool)
    while len(pool) < config.min_pool:
        pool.append(dataclasses.replace(pool[rng.randrange(len(pool))]))
    return pool


def occurrences(pattern, seq) -> int:
    """Starts in seq where the pattern matches exactly; overlapping ones all count."""
    m = len(pattern)
    return sum(seq[i : i + m] == pattern for i in range(len(seq) - m + 1))


def brute_force_bind(tracker, antigen, threshold=0.0) -> MatchResult:
    """Try every pair of windows, longest first.

    Two windows match when their values lie pairwise within the
    threshold.  Among the longest matching pairs the one whose antigen
    window occurs most often wins; remaining ties go to the leftmost
    tracker start, then the leftmost antigen start.  The MS is the
    antigen window.
    """
    tracker, antigen = tuple(tracker), tuple(antigen)
    n, m = len(tracker), len(antigen)
    close = [[abs(t - a) <= threshold for a in antigen] for t in tracker]
    for length in range(min(n, m), 0, -1):
        hits = [
            (ts, at)
            for ts in range(n - length + 1)
            for at in range(m - length + 1)
            if close[ts][at] and all(close[ts + k][at + k] for k in range(1, length))
        ]
        if hits:
            def rank(hit):  # the most occurrences first, then the leftmost starts
                return -occurrences(antigen[hit[1] : hit[1] + length], antigen), hit

            ts, at = min(hits, key=rank)
            ms = antigen[at : at + length]
            return MatchResult(ms, occurrences(ms, antigen), length, n - length, ts)
    return MatchResult((), 0, 0, n, 0)


def brute_force_match(tracker, antigen, threshold=0.0):
    """(ms, sf, ml, redundancy) of brute_force_bind."""
    return brute_force_bind(tracker, antigen, threshold)[:4]


def brute_force_trends(seq):
    """Every window of length >= 2 that occurs at least twice, each re-counted."""
    seq = tuple(seq)
    n = len(seq)
    trends = set()
    for length in range(2, n):
        for start in range(n - length + 1):
            window = seq[start : start + length]
            if window not in trends and occurrences(window, seq) >= 2:
                trends.add(window)
    return frozenset(trends)


class Memory(dict):
    """Long-term memory as a plain dict: MS -> (MS, tracker values, redundancy, gen)."""

    def admit(self, values, match, gen) -> str:
        """Keep the least redundant tracker per MS: "inserted", "replaced" or "rejected"."""
        held = self.get(match.ms)
        if held is not None and match.redundancy >= held[2]:
            return "rejected"
        self[match.ms] = (match.ms, tuple(values), match.redundancy, gen)
        return "inserted" if held is None else "replaced"

    def to_rows(self) -> list[str]:
        """One ms;values;redundancy;gen row per cell, values by repr, in first-admission order."""
        return [
            "%s;%s;%d;%d" % (",".join(map(repr, ms)), ",".join(map(repr, values)), redundancy, gen)
            for ms, values, redundancy, gen in self.values()
        ]

    def detected_trends(self):
        return frozenset(self)


def reference_search(antigen, population_size, config, rng) -> Memory:
    """random_search as a plain loop that binds and admits every draw."""
    memory, binds = Memory(), {}  # binds: value tuple -> its bind to the antigen
    for _ in range(population_size):
        values = reference_values(config, rng)
        if values not in binds:
            binds[values] = brute_force_bind(values, antigen.seq, config.bind_threshold)
        if binds[values].ml > 1 and binds[values].sf > 1:
            memory.admit(values, binds[values], 0)
    return memory


def reference_run(spec, config, seed, max_pool):
    """run_experiment as a per-position loop over MutableTrackers.

    Every clone, homeostasis copy, reset copy and feedback clone is a
    separate object, and an improving tracker updates its record in
    place.  Binds are brute force, memoized by (values, presented
    prefix); the true trends are brute_force_trends of each phase.
    Raises PoolLimitError when a proliferation event would take the pool
    past max_pool.  Returns the stats and the run's random stream.
    """
    rng = random.Random(seed)
    truth = frozenset().union(*(brute_force_trends(p.antigen.seq) for p in spec.phases))
    pool = naive_pool(config, rng)
    initial = [dataclasses.replace(t) for t in pool]
    memory = Memory()
    stats = RunStats(seed=seed, final_memory=memory, total_created=len(pool))
    binds = {}  # presented prefix -> value tuple -> its bind
    contains = {}  # value tuple -> the true trends it contains
    for gen in range(1, spec.total_generations + 1):
        presented = None
        for phase in spec.phases:
            count = gen - phase.start_gen + 1  # values presented: one more per generation
            if not 1 <= count <= len(phase.antigen.seq):
                continue
            presented = phase.antigen.seq[:count]
            if count == 1 and phase.pool_action_at_start == POOL_ACTION_RESET:
                pool = [dataclasses.replace(t) for t in initial]
            elif count == 1 and phase.pool_action_at_start == POOL_ACTION_FEEDBACK:
                if memory:
                    cells = [values for _, values, _, _ in memory.values()]
                    extra = range(config.min_pool - len(cells))
                    cells += [cells[rng.randrange(len(cells))] for _ in extra]
                    pool = [MutableTracker(values, MEMORY_CLONE) for values in cells]
                else:
                    pool = naive_pool(config, rng)
                stats.total_created += len(pool)
        if presented is not None:
            clones = []
            bound = binds.setdefault(presented, {})
            for tracker in pool:
                match = bound.get(tracker.values)
                if match is None:
                    match = brute_force_bind(tracker.values, presented, config.bind_threshold)
                    bound[tracker.values] = match
                if match.ml < 2 or match.sf < 2:
                    continue
                if match.sf <= tracker.best_sf and match.ml <= tracker.best_ml:
                    continue
                tracker.best_sf = max(tracker.best_sf, match.sf)
                tracker.best_ml = max(tracker.best_ml, match.ml)
                tracker.last_improvement_gen = gen
                n_clones = config.clone_factor * match.ml
                size = len(pool) + len(clones) + n_clones
                if size > max_pool:
                    raise PoolLimitError(
                        f"generation {gen}: the pool would grow to {size:,} trackers, "
                        f"past the limit of {max_pool:,}"
                    )
                span = (match.tracker_start, match.tracker_start + match.ml)
                for _ in range(n_clones):
                    clones.append(reference_mutate(tracker, config, rng, gen, span))
                action = memory.admit(tracker.values, match, gen)
                if action != "rejected":
                    stats.memory_events.append(MemoryEvent(gen, action, match.ms, match.redundancy))
            stats.total_created += len(clones)
            pool = pool + clones
        pool = reference_apoptose(pool, config, rng)
        culled = reference_cull(pool, config, gen)
        pool = reference_homeostasis(culled, config, rng)
        stats.total_created += len(pool) - len(culled)
        matching = dict.fromkeys(truth, 0)
        for tracker in pool:
            if tracker.values not in contains:
                contains[tracker.values] = [t for t in truth if occurrences(t, tracker.values)]
            for trend in contains[tracker.values]:
                matching[trend] += 1
        stats.records.append(GenRecord(gen, len(pool), matching))
    return stats, rng
