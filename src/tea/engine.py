"""Generation loop and declarative experiment schedules.

An experiment is a list of presentation phases over a fixed number of
generations.  During a phase the antigen is revealed incrementally: the
k-th generation of the phase presents its first k values, as if one new
price change arrived per generation, so a phase lasts one generation per
antigen value.  Outside phases no binding happens, but the regulation
phases (apoptosis, stale-clone culling, homeostasis) keep running, so the
population decays back to its floor.

Per generation the order is fixed: bind the trackers, proliferate and
mutate the improvers, submit each to long-term memory once (cells only
shrink, so a resubmission could only be rejected), then apoptose, cull
stale clones, and top back up.  All randomness comes from a single
per-run seeded stream consumed in that order, so a (spec, config, seed)
triple is fully reproducible.

Trackers are never changed once made, so pool positions with the same
state share one object: homeostasis copies are their donors, and a
generation hands out one object per state it creates (clones and
improved parents alike).  Most positions repeat a tracker already in
the pool.  A generation decides bind and proliferation once per
distinct tracker, then makes one proliferation event, with its draws,
per position whose tracker improved, in pool order.

Binding is a function of the value tuple and the presented prefix
alone, so the runs of a batch share it: each phase keeps one bind table
per prefix length, which maps a tuple to its immutable MatchResult, or
to False when the match is no trend match (such trackers skip the
proliferation check, which they could never pass).  A tuple absent
from its prefix's table takes its entry from the previous prefix's
table unless one of its values lies within the bind threshold of the
value the prefix just gained: every new window ends in that value, so
none can bind the tuple, tie with its match or add to its SF.  Only
then is it bound.  Observation counts the pool by tracker; the trends a
tuple contains are its windows of length two or more that are true
trends, found once per batch.  Neither binding nor observation draws
random numbers, so sharing their results leaves the draw order, and
every run, as it would be alone.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import is_not

from .encoding import Antigen, CategorySeq
# count_occurrences is no longer called here, but the benchmark's tracer
# (perfbench/spans.py) wraps engine.count_occurrences by name; it leaves
# with ROADMAP item 1's benchmark follow-up
from .matching import count_occurrences, enumerate_trends, longest_match  # noqa: F401
from .memory import MemoryPool
from .population import (
    PoolConfig,
    Tracker,
    apoptose,
    clone_count,
    cull_stale_clones,
    homeostasis,
    init_pool,
    intern,
    mutate,
    proliferation_check,
    record_improvement,
)

POOL_ACTION_NONE = "none"
POOL_ACTION_RESET = "reset-to-initial-pool"
POOL_ACTION_FEEDBACK = "feedback-from-memory"
_POOL_ACTIONS = (POOL_ACTION_NONE, POOL_ACTION_RESET, POOL_ACTION_FEEDBACK)

# The worked data set: a 20-value fictitious price-movement antigen and
# its two halves (training / testing).
ANTIGEN_A = Antigen(
    (1, 2, 1, -0.5, 1, 2, 1, 0.5, -0.5, 0.5, 2, 1, 2, -0.5, 2, 1, 2, -0.5, 1, 1.5),
    "A",
)
ANTIGEN_A1 = Antigen(ANTIGEN_A.seq[:10], "A1")
ANTIGEN_A2 = Antigen(ANTIGEN_A.seq[10:], "A2")
FIXTURES = {"A": ANTIGEN_A, "A1": ANTIGEN_A1, "A2": ANTIGEN_A2}


# Largest pool a generation may build.  Positions share tracker objects,
# so a position costs little more than its list slots: exp3 seed 0 at
# bind_threshold 0.5 reaches the limit at a peak RSS of about 90 MB, some
# 40 bytes per position.  Long price series can grow the pool without
# bound; the acceptance seeds peak below 400,000.
MAX_POOL = 2_000_000


class SpecError(ValueError):
    """Raised for malformed experiment specs."""


class PoolLimitError(ValueError):
    """Raised when proliferation would grow the pool past MAX_POOL."""


@dataclass
class PresentationPhase:
    start_gen: int
    antigen: Antigen
    pool_action_at_start: str = POOL_ACTION_NONE

    def __post_init__(self):
        if self.pool_action_at_start not in _POOL_ACTIONS:
            raise SpecError(f"unknown pool action {self.pool_action_at_start!r}")
        if not len(self.antigen):
            raise SpecError("a presentation phase needs a non-empty antigen")

    @property
    def end_gen(self) -> int:
        """Last generation of the phase: one per antigen value."""
        return self.start_gen + len(self.antigen) - 1

    def presented(self, gen: int) -> CategorySeq:
        """The antigen's values visible at generation gen: one more per generation."""
        return self.antigen.seq[: gen - self.start_gen + 1]


@dataclass
class ExperimentSpec:
    phases: list[PresentationPhase]
    total_generations: int = 50
    truth: frozenset[CategorySeq] = field(init=False)  # union of the phases' trends

    def __post_init__(self):
        if self.total_generations < 1:
            raise SpecError("total_generations must be >= 1")
        prev_end = 0
        for phase in self.phases:
            if phase.start_gen <= prev_end:
                raise SpecError("phases must be ordered and non-overlapping")
            prev_end = phase.end_gen
        if prev_end > self.total_generations:
            raise SpecError("phase extends past total_generations")
        self.truth = frozenset().union(*(enumerate_trends(p.antigen) for p in self.phases))

    def phase_at(self, gen: int) -> PresentationPhase | None:
        for phase in self.phases:
            if phase.start_gen <= gen <= phase.end_gen:
                return phase
        return None


@dataclass
class GenRecord:
    gen: int
    pool_size: int
    matching: dict[CategorySeq, int]


@dataclass
class MemoryEvent:
    gen: int
    action: str
    ms: CategorySeq
    redundancy: int


@dataclass
class RunStats:
    seed: int
    records: list[GenRecord] = field(default_factory=list)
    memory_events: list[MemoryEvent] = field(default_factory=list)
    final_memory: MemoryPool = field(default_factory=MemoryPool)
    total_created: int = 0


def _matching_counts(pool: list[Tracker], truth, contains: dict) -> dict[CategorySeq, int]:
    """Trackers containing each trend, counting the pool by tracker object.

    contains maps a value tuple to the positions, in truth's own order,
    of the trends it contains.  It is filled on a miss, and may be shared
    by every call with the same truth object, whose order never changes.
    """
    trends = tuple(truth)
    counts = [0] * len(trends)
    position = None  # trend -> its position in trends, made at the first miss
    for tracker, n in Counter(pool).items():
        values = tracker.values
        held = contains.get(values)
        if held is None:
            if position is None:
                position = {trend: i for i, trend in enumerate(trends)}
                longest = max(map(len, trends), default=0)
            # a trend the tuple contains is one of its windows of length 2 to longest
            size = len(values)
            windows = {
                values[i:j] for i in range(size - 1) for j in range(i + 2, min(size, i + longest) + 1)
            }
            held = contains[values] = tuple(position[t] for t in position.keys() & windows)
        for i in held:
            counts[i] += n
    return dict(zip(trends, counts))


def run_generation(
    pool: list[Tracker],
    memory: MemoryPool,
    presented: CategorySeq | None,
    tables: dict,
    config: PoolConfig,
    rng: random.Random,
    gen: int,
    stats: RunStats,
) -> list[Tracker]:
    """One generation: bind/proliferate (if presenting), then regulate.

    tables maps each prefix length of the current phase to its bind
    table: a value tuple to its bind against that prefix, or to False
    for a bind that is no trend match.  A presenting generation reads
    and fills the tables of its prefix and of the one before; any run
    of a batch may have written them, as binding is a function of the
    tuple and the prefix alone.  Given empty tables, it binds afresh.
    Raises PoolLimitError, before making its clones, as soon as a
    proliferation event would take the pool past MAX_POOL.  Every
    tracker born here (clones, homeostasis copies, a re-seed) is added
    to stats.total_created.
    """
    if presented is not None:
        clones = []
        # one bind per distinct value tuple, unless the tuple's bind to the
        # previous prefix carries over: none of its values lies within the
        # threshold of the new one
        matches = tables.setdefault(len(presented), {})
        carried = tables.get(len(presented) - 1, {})
        new, threshold = presented[-1], config.bind_threshold
        born = {}  # this generation's birth table (see population.intern)
        improved = {}  # tracker -> itself improved
        for tracker in dict.fromkeys(pool):
            values = tracker.values
            match = matches.get(values)
            if match is None:
                match = carried.get(values)
                if match is None or (
                    any(abs(v - new) <= threshold for v in values) if threshold else new in values
                ):
                    match = longest_match(values, presented, threshold)
                    match = match.is_trend_match and match
                matches[values] = match
            if match and proliferation_check(tracker, match):
                improved[tracker] = intern(record_improvement(tracker, match, gen), born)
        parents = list(map(improved.get, pool, pool))
        considered = set()  # cells only shrink, so memory would reject a parent's repeats
        # one proliferation event per position whose tracker improved, in pool order
        for parent in compress(parents, map(is_not, parents, pool)):
            match = matches[parent.values]
            n_clones = clone_count(match, config)
            size = len(pool) + len(clones) + n_clones
            if size > MAX_POOL:
                raise PoolLimitError(
                    f"generation {gen}: the pool would grow to {size:,} trackers, "
                    f"past the limit of {MAX_POOL:,}"
                )
            clones += mutate(parent, config, rng, gen, n_clones, match.tracker_span, born)
            if parent not in considered:
                considered.add(parent)
                action = memory.consider(parent.values, match, gen)
                if action != "rejected":
                    stats.memory_events.append(MemoryEvent(gen, action, match.ms, match.redundancy))
        stats.total_created += len(clones)
        pool = parents + clones
    pool = apoptose(pool, config, rng)
    culled = cull_stale_clones(pool, config, gen)
    pool = homeostasis(culled, config, rng)
    stats.total_created += len(pool) - len(culled)
    return pool


def run_experiment(
    spec: ExperimentSpec,
    config: PoolConfig,
    seed: int,
    binds: dict | None = None,
    contains: dict | None = None,
) -> RunStats:
    """A full seeded run of one experiment schedule.

    binds maps each phase's start generation to the phase's bind tables
    (see run_generation), and contains maps a value tuple to the true
    trends it contains (see _matching_counts).  run_batch hands the same
    two to all its runs; left out, they start empty and last for this
    run only.
    """
    binds = {} if binds is None else binds
    contains = {} if contains is None else contains
    rng = random.Random(seed)
    pool = init_pool(config, rng)
    initial_snapshot = list(pool)
    memory = MemoryPool()
    stats = RunStats(seed=seed, final_memory=memory, total_created=len(pool))
    tables = {}  # the bind tables of the current phase

    for gen in range(1, spec.total_generations + 1):
        phase = spec.phase_at(gen)
        presented = None
        if phase is not None:
            if gen == phase.start_gen:
                tables = binds.setdefault(gen, {})
                if phase.pool_action_at_start == POOL_ACTION_RESET:
                    pool = list(initial_snapshot)
                elif phase.pool_action_at_start == POOL_ACTION_FEEDBACK:
                    pool = memory.feedback_clones(config, rng)
                    stats.total_created += len(pool)
            presented = phase.presented(gen)
        pool = run_generation(pool, memory, presented, tables, config, rng, gen, stats)
        matching = _matching_counts(pool, spec.truth, contains)
        stats.records.append(GenRecord(gen, len(pool), matching))
    return stats


def run_batch(spec: ExperimentSpec, config: PoolConfig, n_runs: int, base_seed: int = 0) -> list[RunStats]:
    """Independent runs seeded base_seed .. base_seed + n_runs - 1.

    The runs share their bind tables and the true trends of each value
    tuple (see run_experiment): a tuple one run bound to a prefix is not
    bound again by the next.  Neither draws random numbers, so each run
    equals the same seed run alone.
    """
    if n_runs < 1:
        raise SpecError("n_runs must be >= 1")
    binds, contains = {}, {}
    return [run_experiment(spec, config, base_seed + i, binds, contains) for i in range(n_runs)]


def preset_config() -> PoolConfig:
    """Pool settings for the built-in experiments.

    The worked antigens band at half-unit width and are rise-heavy
    (mostly +1/+2 moves with an occasional -0.5), so the random draws
    are skewed to land on those categories: a mean-zero Gaussian would
    almost never produce a matching tracker.  Initial trackers start at
    length 2 because a single value can never form a repeating match.
    """
    return PoolConfig(
        band_width=0.5,
        gaussian_mean=1.3,
        gaussian_std=0.45,
        init_size=40,
        init_len_min=2,
        clone_factor=3,
        mutation_extend_prob=0.6,
    )


def preset_spec(name: str) -> ExperimentSpec:
    """Built-in schedules exp1, exp2, exp3 over the Table-style antigens.

    exp1: train on A1 (gens 1-10), reset to the initial random pool and
    test on A2 (gens 30-39). exp2: same, but the pool at generation 30
    is repopulated from long-term memory. exp3: the full antigen A over
    gens 1-20. All run 50 generations.
    """
    if name == "exp1":
        return ExperimentSpec(
            phases=[
                PresentationPhase(1, ANTIGEN_A1),
                PresentationPhase(30, ANTIGEN_A2, pool_action_at_start=POOL_ACTION_RESET),
            ]
        )
    if name == "exp2":
        return ExperimentSpec(
            phases=[
                PresentationPhase(1, ANTIGEN_A1),
                PresentationPhase(30, ANTIGEN_A2, pool_action_at_start=POOL_ACTION_FEEDBACK),
            ]
        )
    if name == "exp3":
        return ExperimentSpec(phases=[PresentationPhase(1, ANTIGEN_A)])
    raise SpecError(f"unknown preset {name!r} (expected exp1, exp2 or exp3)")
