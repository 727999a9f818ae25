"""Generation loop and declarative experiment schedules.

An experiment is a list of presentation phases over a fixed number of
generations.  During a phase the antigen is revealed incrementally: the
k-th generation of the phase presents its first k values, as if one new
price change arrived per generation.  Outside phases no binding
happens, but the regulation phases (apoptosis, stale-clone culling,
homeostasis) keep running, so the population decays back to its floor.

Per generation the order is fixed: bind every tracker, proliferate and
mutate the improvers, submit them to long-term memory, then apoptose,
cull stale clones, and top back up.  All randomness comes from a single
per-run seeded stream consumed in that order, so a (spec, config, seed)
triple is fully reproducible.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace

from .encoding import Antigen, CategorySeq
from .matching import count_occurrences, enumerate_trends, longest_match
from .memory import MemoryPool
from .population import (
    PoolConfig,
    Tracker,
    apoptose,
    clone_count,
    cull_stale_clones,
    homeostasis,
    init_pool,
    mutate,
    new_id_source,
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


class SpecError(ValueError):
    """Raised for malformed experiment specs."""


@dataclass
class PresentationPhase:
    start_gen: int
    end_gen: int
    antigen: Antigen
    pool_action_at_start: str = POOL_ACTION_NONE

    def __post_init__(self):
        if self.start_gen > self.end_gen:
            raise SpecError(f"phase window inverted: {self.start_gen}..{self.end_gen}")
        if self.pool_action_at_start not in _POOL_ACTIONS:
            raise SpecError(f"unknown pool action {self.pool_action_at_start!r}")
        window = self.end_gen - self.start_gen + 1
        if window < len(self.antigen):
            raise SpecError(
                f"incremental window of {window} generations is shorter "
                f"than antigen {self.antigen.label or '?'} ({len(self.antigen)})"
            )
        # normalise to exactly the antigen length; later generations
        # of an over-wide window would just re-present the full
        # antigen, so they are treated as quiescent instead
        self.end_gen = self.start_gen + len(self.antigen) - 1

    def presented(self, gen: int) -> Antigen:
        """Antigen visible at generation gen: its prefix of one value per generation."""
        return self.antigen.prefix(gen - self.start_gen + 1)


@dataclass
class ExperimentSpec:
    phases: list[PresentationPhase]
    total_generations: int = 50
    truth: frozenset[CategorySeq] = field(default_factory=frozenset)

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
        if not self.truth:
            truth = frozenset()
            for phase in self.phases:
                truth |= enumerate_trends(phase.antigen)
            self.truth = truth

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
    presented: CategorySeq


@dataclass
class RunStats:
    seed: int
    records: list[GenRecord] = field(default_factory=list)
    memory_events: list[MemoryEvent] = field(default_factory=list)
    final_memory: MemoryPool = field(default_factory=MemoryPool)
    total_created: int = 0


def _matching_counts(pool: list[Tracker], truth) -> dict[CategorySeq, int]:
    """Trackers containing each trend, counting each distinct value tuple once."""
    carriers = Counter(t.values for t in pool)
    return {
        trend: sum(n for values, n in carriers.items() if count_occurrences(trend, values))
        for trend in sorted(truth, key=lambda t: (len(t), t))
    }


def run_generation(
    pool: list[Tracker],
    memory: MemoryPool,
    presented: Antigen | None,
    config: PoolConfig,
    rng: random.Random,
    gen: int,
    ids,
    stats: RunStats,
    truth=(),
) -> list[Tracker]:
    """One generation: bind/proliferate (if presenting), then regulate."""
    if presented is not None:
        clones = []
        for tracker in pool:
            match = longest_match(tracker.values, presented, config.bind_threshold)
            if not proliferation_check(tracker, match):
                continue
            record_improvement(tracker, match, gen)
            for _ in range(clone_count(match, config)):
                clones.append(mutate(tracker, config, rng, gen, ids, match.tracker_span))
            action = memory.consider(tracker.values, match, gen)
            if action != "rejected":
                stats.memory_events.append(
                    MemoryEvent(gen, action, match.ms, match.redundancy, presented.seq)
                )
        pool = pool + clones
    pool = apoptose(pool, config, rng)
    pool = cull_stale_clones(pool, config, gen)
    pool = homeostasis(pool, config, rng, ids, gen)
    stats.records.append(GenRecord(gen, len(pool), _matching_counts(pool, truth)))
    return pool


def run_experiment(spec: ExperimentSpec, config: PoolConfig, seed: int) -> RunStats:
    """A full seeded run of one experiment schedule."""
    rng = random.Random(seed)
    ids = new_id_source()
    pool = init_pool(config, rng, ids)
    initial_snapshot = [replace(t) for t in pool]
    memory = MemoryPool()
    stats = RunStats(seed=seed, final_memory=memory)

    for gen in range(1, spec.total_generations + 1):
        phase = spec.phase_at(gen)
        presented = None
        if phase is not None:
            if gen == phase.start_gen:
                if phase.pool_action_at_start == POOL_ACTION_RESET:
                    pool = [replace(t) for t in initial_snapshot]
                elif phase.pool_action_at_start == POOL_ACTION_FEEDBACK:
                    pool = memory.feedback_clones(config, rng, gen, ids)
            presented = phase.presented(gen)
        pool = run_generation(pool, memory, presented, config, rng, gen, ids, stats, spec.truth)

    stats.total_created = next(ids)
    return stats


def run_batch(spec: ExperimentSpec, config: PoolConfig, n_runs: int, base_seed: int = 0) -> list[RunStats]:
    """Independent runs seeded base_seed .. base_seed + n_runs - 1."""
    if n_runs < 1:
        raise SpecError("n_runs must be >= 1")
    return [run_experiment(spec, config, base_seed + i) for i in range(n_runs)]


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
    split_truth = enumerate_trends(ANTIGEN_A1) | enumerate_trends(ANTIGEN_A2)
    if name == "exp1":
        return ExperimentSpec(
            phases=[
                PresentationPhase(1, 10, ANTIGEN_A1),
                PresentationPhase(30, 39, ANTIGEN_A2, pool_action_at_start=POOL_ACTION_RESET),
            ],
            truth=frozenset(split_truth),
        )
    if name == "exp2":
        return ExperimentSpec(
            phases=[
                PresentationPhase(1, 10, ANTIGEN_A1),
                PresentationPhase(30, 39, ANTIGEN_A2, pool_action_at_start=POOL_ACTION_FEEDBACK),
            ],
            truth=frozenset(split_truth),
        )
    if name == "exp3":
        return ExperimentSpec(phases=[PresentationPhase(1, 20, ANTIGEN_A)])
    raise SpecError(f"unknown preset {name!r} (expected exp1, exp2 or exp3)")
