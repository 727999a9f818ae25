"""Experiment schedules, the generation loop, and run reproducibility."""

import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tea import engine
from tea.encoding import Antigen, EncodingError, band
from tea.engine import (
    ANTIGEN_A,
    ANTIGEN_A1,
    ANTIGEN_A2,
    POOL_ACTION_FEEDBACK,
    POOL_ACTION_RESET,
    ExperimentSpec,
    GenRecord,
    MemoryEvent,
    PresentationPhase,
    RunStats,
    SpecError,
    _matching_counts,
    preset_config,
    preset_spec,
    run_batch,
    run_experiment,
    run_generation,
)
from tea.matching import count_occurrences, enumerate_trends, longest_match
from tea.memory import MemoryPool
from tea.population import (
    CLONE,
    MEMORY_CLONE,
    NAIVE,
    PoolConfig,
    Tracker,
    apoptose,
    clone_count,
    cull_stale_clones,
    init_pool,
    proliferation_check,
)

# Small and fast: enough signal for structural checks without the
# calibrated preset's population growth.
FAST = PoolConfig(
    band_width=0.5,
    gaussian_mean=1.2,
    gaussian_std=0.5,
    init_len_min=2,
    clone_factor=1,
)


class TestPresentationPhase:
    def test_incremental_prefix_per_generation(self):
        phase = PresentationPhase(1, ANTIGEN_A1)
        assert phase.presented(1) == ANTIGEN_A1.seq[:1]
        assert phase.presented(4) == ANTIGEN_A1.seq[:4]
        assert phase.presented(10) == ANTIGEN_A1.seq

    def test_unknown_pool_action_rejected(self):
        with pytest.raises(SpecError):
            PresentationPhase(1, ANTIGEN_A1, pool_action_at_start="explode")

    def test_empty_antigen_rejected(self):
        with pytest.raises(SpecError, match="empty"):
            PresentationPhase(1, Antigen(()))


class TestExperimentSpec:
    def test_truth_defaults_to_union_of_phase_trends(self):
        spec = ExperimentSpec(
            phases=[
                PresentationPhase(1, ANTIGEN_A1),
                PresentationPhase(30, ANTIGEN_A2),
            ]
        )
        assert spec.truth == enumerate_trends(ANTIGEN_A1) | enumerate_trends(ANTIGEN_A2)

    def test_overlapping_phases_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(
                phases=[
                    PresentationPhase(1, ANTIGEN_A1),
                    PresentationPhase(10, ANTIGEN_A2),
                ]
            )

    def test_phase_past_end_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(phases=[PresentationPhase(45, ANTIGEN_A1)], total_generations=50)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_antigen_rejected(self, bad):
        # such a trend, (1.0, inf) or (1.0, nan), could never be bound by a tracker
        with pytest.raises(EncodingError, match="non-finite"):
            ExperimentSpec(phases=[PresentationPhase(1, Antigen((1.0, bad, 1.0, bad)))])

    def test_phase_at(self):
        spec = ExperimentSpec(phases=[PresentationPhase(1, ANTIGEN_A1)])
        assert spec.phase_at(5) is spec.phases[0]
        assert spec.phase_at(11) is None


class TestPresets:
    @pytest.mark.parametrize("name", ["exp1", "exp2", "exp3"])
    def test_shapes(self, name):
        spec = preset_spec(name)
        assert spec.total_generations == 50
        if name == "exp3":
            assert [ (p.start_gen, p.end_gen) for p in spec.phases ] == [(1, 20)]
            assert spec.truth == enumerate_trends(ANTIGEN_A)
        else:
            assert [ (p.start_gen, p.end_gen) for p in spec.phases ] == [(1, 10), (30, 39)]
            assert spec.truth == enumerate_trends(ANTIGEN_A1) | enumerate_trends(ANTIGEN_A2)

    def test_pool_actions(self):
        assert preset_spec("exp1").phases[1].pool_action_at_start == POOL_ACTION_RESET
        assert preset_spec("exp2").phases[1].pool_action_at_start == POOL_ACTION_FEEDBACK

    def test_unknown_preset(self):
        with pytest.raises(SpecError):
            preset_spec("exp9")

    def test_preset_config_bands_at_half_unit(self):
        assert preset_config().band_width == 0.5


class TestRunExperiment:
    spec = ExperimentSpec(phases=[PresentationPhase(1, ANTIGEN_A1)])

    def test_records_every_generation(self):
        stats = run_experiment(self.spec, FAST, seed=0)
        assert [r.gen for r in stats.records] == list(range(1, 51))

    def test_pool_floor_after_every_generation(self):
        stats = run_experiment(self.spec, FAST, seed=1)
        assert all(r.pool_size >= FAST.min_pool for r in stats.records)

    def test_same_seed_same_run(self):
        a = run_experiment(self.spec, FAST, seed=5)
        b = run_experiment(self.spec, FAST, seed=5)
        assert [r.pool_size for r in a.records] == [r.pool_size for r in b.records]
        assert sorted(a.final_memory.to_rows()) == sorted(b.final_memory.to_rows())
        assert a.total_created == b.total_created

    def test_different_seeds_diverge(self):
        a = run_experiment(self.spec, FAST, seed=0)
        b = run_experiment(self.spec, FAST, seed=1)
        assert [r.pool_size for r in a.records] != [r.pool_size for r in b.records] or (
            sorted(a.final_memory.to_rows()) != sorted(b.final_memory.to_rows())
        )

    def test_memory_cells_are_genuine_trends(self):
        for seed in range(5):
            stats = run_experiment(self.spec, FAST, seed=seed)
            truth = enumerate_trends(ANTIGEN_A1)
            for cell in stats.final_memory:
                assert cell.ms in truth

    def test_memory_events_only_during_presentation(self):
        stats = run_experiment(self.spec, FAST, seed=3)
        assert all(1 <= e.gen <= 10 for e in stats.memory_events)

    def test_population_decays_after_presentation(self):
        # by generation 50 the burst has died back to (near) the floor
        stats = run_experiment(self.spec, FAST, seed=2)
        assert stats.records[-1].pool_size <= 2 * FAST.min_pool

    def test_only_trend_matches_reach_the_proliferation_check(self, monkeypatch):
        # a tuple whose bind is no trend match skips the check: it could not pass
        seen = []
        check = engine.proliferation_check

        def counted(tracker, match):
            seen.append(match.is_trend_match)
            return check(tracker, match)

        monkeypatch.setattr(engine, "proliferation_check", counted)
        run_experiment(preset_spec("exp3"), preset_config(), seed=0)
        assert seen and all(seen)

    def test_one_consider_per_improved_parent_per_generation(self, monkeypatch):
        # cells only ever shrink, so a parent's later events in a generation
        # would submit a redundancy its first event already left in the cell
        events, considered = [], []
        mutate, consider = engine.mutate, MemoryPool.consider

        def counted_mutate(parent, config, rng, gen, *args):
            events.append((gen, parent))
            return mutate(parent, config, rng, gen, *args)

        def counted_consider(memory, values, match, gen):
            considered.append(gen)
            return consider(memory, values, match, gen)

        monkeypatch.setattr(engine, "mutate", counted_mutate)
        monkeypatch.setattr(MemoryPool, "consider", counted_consider)
        run_experiment(preset_spec("exp3"), preset_config(), seed=40)
        assert len(set(events)) < len(events)
        assert sorted(considered) == sorted(gen for gen, _ in set(events))

    @pytest.mark.parametrize(
        "preset,seed,created",
        [
            ("exp1", 0, 172),
            ("exp2", 0, 293),
            ("exp3", 0, 1348),
            ("exp3", 40, 13862),
            ("exp3", 2, 63748),
        ],
    )
    def test_total_created_counts_every_birth(self, preset, seed, created):
        # initial, clone, homeostasis, feedback and re-seeded trackers: exp2
        # has a feedback pool, exp3 seed 40 peaks at 10,843 trackers and
        # exp3 seed 2 empties its pool and re-seeds it
        stats = run_experiment(preset_spec(preset), preset_config(), seed)
        assert stats.total_created == created


def run_binding_afresh(spec, config, seed):
    """run_experiment with an empty bind memo in every generation.

    Returns the stats and the run's random stream.
    """
    rng = random.Random(seed)
    pool = init_pool(config, rng)
    initial_snapshot = [dataclasses.replace(t) for t in pool]
    memory = MemoryPool()
    stats = RunStats(seed=seed, final_memory=memory, total_created=len(pool))
    contains = {}
    for gen in range(1, spec.total_generations + 1):
        phase = spec.phase_at(gen)
        presented = None
        if phase is not None:
            if gen == phase.start_gen:
                if phase.pool_action_at_start == POOL_ACTION_RESET:
                    pool = [dataclasses.replace(t) for t in initial_snapshot]
                elif phase.pool_action_at_start == POOL_ACTION_FEEDBACK:
                    pool = memory.feedback_clones(config, rng)
                    stats.total_created += len(pool)
            presented = phase.presented(gen)
        pool = run_generation(pool, memory, presented, {}, config, rng, gen, stats)
        stats.records.append(GenRecord(gen, len(pool), _matching_counts(pool, spec.truth, contains)))
    return stats, rng


# the second phase follows the first at once and opens on -0.5, a value no
# trend of A1 holds, so a bind carried over from the first phase would be wrong
BACK_TO_BACK = ExperimentSpec(
    phases=[PresentationPhase(1, ANTIGEN_A1), PresentationPhase(11, Antigen(ANTIGEN_A2.seq[3:]))]
)


class TestCarriedBinds:
    @pytest.mark.parametrize("preset", ["exp1", "exp2", "exp3", "back-to-back"])
    @pytest.mark.parametrize(
        "config",
        [
            preset_config(),
            # a loose threshold binds by the DP; one clone per event keeps the pool small
            dataclasses.replace(preset_config(), bind_threshold=0.5, clone_factor=1),
        ],
        ids=["exact", "threshold-0.5"],
    )
    def test_equal_to_binding_every_generation_afresh(self, monkeypatch, preset, config):
        rngs = []

        def init_and_keep_rng(config, rng):
            rngs.append(rng)
            return init_pool(config, rng)

        monkeypatch.setattr(engine, "init_pool", init_and_keep_rng)
        spec = BACK_TO_BACK if preset == "back-to-back" else preset_spec(preset)
        for seed in (0, 2):  # exp3 seed 2 empties its pool and re-seeds it
            got = run_experiment(spec, config, seed)
            expected, rng = run_binding_afresh(spec, config, seed)
            assert got.records == expected.records
            assert got.memory_events == expected.memory_events
            assert got.final_memory.to_rows() == expected.final_memory.to_rows()
            assert got.total_created == expected.total_created
            assert rngs.pop().getstate() == rng.getstate()


@dataclasses.dataclass
class MutableTracker:
    """A tracker whose record is updated in place: one object per pool position."""

    values: tuple
    origin: str = NAIVE
    best_sf: int = 0
    best_ml: int = 0
    last_improvement_gen: int = 0


def reference_mutate(parent, config, rng, gen, n, ms_span):
    """n clones, each its own object, drawn as population.mutate draws them."""
    values = parent.values
    positions = range(len(values))
    if ms_span is not None:
        redundant = [i for i in positions if not ms_span[0] <= i < ms_span[1]]
        positions = redundant or positions
    can_shorten = config.shortening_enabled and len(values) > 1
    clones = []
    for _ in range(n):
        if not can_shorten or rng.random() < config.mutation_extend_prob:
            value = band(rng.gauss(config.gaussian_mean, config.gaussian_std), config.band_width)
            child = MutableTracker(values + (value,), CLONE, parent.best_sf, parent.best_ml, gen)
        else:
            drop = positions[rng.randrange(len(positions))]
            child = MutableTracker(values[:drop] + values[drop + 1 :], CLONE, 0, 0, gen)
        clones.append(child)
    return clones


def reference_fresh_pool(config, rng):
    return [MutableTracker(t.values) for t in init_pool(config, rng)]


def reference_generation(pool, memory, presented, config, rng, gen, stats):
    """One generation, binding and proliferating position by position."""
    if presented is not None:
        clones = []
        matches = {}  # value tuple -> its bind in this generation
        for tracker in pool:
            match = matches.get(tracker.values)
            if match is None:
                match = longest_match(tracker.values, presented, config.bind_threshold)
                matches[tracker.values] = match
            if not proliferation_check(tracker, match):
                continue
            tracker.best_sf = max(tracker.best_sf, match.sf)
            tracker.best_ml = max(tracker.best_ml, match.ml)
            tracker.last_improvement_gen = gen
            n_clones = clone_count(match, config)
            clones += reference_mutate(tracker, config, rng, gen, n_clones, match.tracker_span)
            action = memory.consider(tracker.values, match, gen)
            if action != "rejected":
                stats.memory_events.append(MemoryEvent(gen, action, match.ms, match.redundancy))
        stats.total_created += len(clones)
        pool = pool + clones
    pool = apoptose(pool, config, rng)
    culled = cull_stale_clones(pool, config, gen)
    if culled:
        pool = list(culled)
        while len(pool) < config.min_pool:
            pool.append(dataclasses.replace(pool[rng.randrange(len(pool))]))
    else:
        pool = reference_fresh_pool(config, rng)
    stats.total_created += len(pool) - len(culled)
    return pool


def reference_run(spec, config, seed):
    """run_experiment as a per-position loop over mutable trackers.

    Every clone, homeostasis copy, reset copy and feedback clone is a
    separate object.  Returns the stats and the run's random stream.
    """
    rng = random.Random(seed)
    pool = reference_fresh_pool(config, rng)
    initial_snapshot = [dataclasses.replace(t) for t in pool]
    memory = MemoryPool()
    stats = RunStats(seed=seed, final_memory=memory, total_created=len(pool))
    contains = {}  # value tuple -> the trends of spec.truth it contains
    for gen in range(1, spec.total_generations + 1):
        phase = spec.phase_at(gen)
        presented = None
        if phase is not None:
            if gen == phase.start_gen:
                if phase.pool_action_at_start == POOL_ACTION_RESET:
                    pool = [dataclasses.replace(t) for t in initial_snapshot]
                elif phase.pool_action_at_start == POOL_ACTION_FEEDBACK:
                    if len(memory):
                        cells = [c.tracker_values for c in memory]
                        cells += [cells[rng.randrange(len(cells))] for _ in range(config.min_pool - len(cells))]
                        pool = [MutableTracker(values, MEMORY_CLONE) for values in cells]
                    else:
                        pool = reference_fresh_pool(config, rng)
                    stats.total_created += len(pool)
            presented = phase.presented(gen)
        pool = reference_generation(pool, memory, presented, config, rng, gen, stats)
        matching = dict.fromkeys(spec.truth, 0)
        for values, n in Counter(t.values for t in pool).items():
            if values not in contains:
                contains[values] = [t for t in spec.truth if count_occurrences(t, values)]
            for trend in contains[values]:
                matching[trend] += n
        stats.records.append(GenRecord(gen, len(pool), matching))
    return stats, rng


class TestAgainstPerPositionLoop:
    @pytest.mark.parametrize("preset", ["exp1", "exp2", "exp3", "back-to-back"])
    @pytest.mark.parametrize(
        "config",
        [preset_config(), dataclasses.replace(preset_config(), bind_threshold=0.5, clone_factor=1)],
        ids=["exact", "threshold-0.5"],
    )
    def test_equal_to_mutable_trackers_one_per_position(self, monkeypatch, preset, config):
        rngs = []

        def init_and_keep_rng(config, rng):
            rngs.append(rng)
            return init_pool(config, rng)

        monkeypatch.setattr(engine, "init_pool", init_and_keep_rng)
        spec = BACK_TO_BACK if preset == "back-to-back" else preset_spec(preset)
        for seed in (0, 2, 40):  # exp3 seed 2 re-seeds; seed 40 peaks at 10,843 trackers
            got = run_experiment(spec, config, seed)
            expected, rng = reference_run(spec, config, seed)
            assert got.records == expected.records
            assert got.memory_events == expected.memory_events
            assert got.final_memory.to_rows() == expected.final_memory.to_rows()
            assert got.total_created == expected.total_created
            assert rngs.pop().getstate() == rng.getstate()


def state(tracker):
    return (tracker.values, tracker.origin, tracker.best_sf, tracker.best_ml, tracker.last_improvement_gen)


def pool_after_each_generation(monkeypatch, spec, seed):
    pools = []
    generation = engine.run_generation

    def kept(pool, *args):
        pool = generation(pool, *args)
        pools.append(pool)
        return pool

    monkeypatch.setattr(engine, "run_generation", kept)
    run_experiment(spec, preset_config(), seed)
    return pools


class TestSharedTrackers:
    def test_run_generation_changes_no_tracker(self, monkeypatch):
        checked = []
        generation = engine.run_generation

        def checking(pool, memory, presented, *args):
            before = [state(t) for t in pool]
            grown = generation(pool, memory, presented, *args)
            assert [state(t) for t in pool] == before
            checked.append(presented is not None and len(grown) > len(pool))
            return grown

        monkeypatch.setattr(engine, "run_generation", checking)
        run_experiment(preset_spec("exp3"), preset_config(), 40)
        assert any(checked)  # some presenting generation proliferated

    @pytest.mark.parametrize("seed", [0, 40, 51])
    def test_one_object_per_state_among_improved_trackers(self, monkeypatch, seed):
        # trackers of the initial draw (improved at generation 0) may repeat a state
        for pool in pool_after_each_generation(monkeypatch, preset_spec("exp3"), seed):
            improved = [t for t in pool if t.last_improvement_gen >= 1]
            assert len({id(t) for t in improved}) == len({state(t) for t in improved})

    def test_exp3_seed_51_shares_its_largest_pool(self, monkeypatch):
        pool = pool_after_each_generation(monkeypatch, preset_spec("exp3"), 51)[19]
        assert len(pool) == 18_670
        assert len({id(t) for t in pool}) == len({state(t) for t in pool}) == 289


value_tuples = st.lists(st.sampled_from([-0.5, 1.0, 2.0]), min_size=1, max_size=6).map(tuple)


class TestMatchingCounts:
    @given(st.lists(value_tuples, max_size=30), st.lists(value_tuples, max_size=30))
    def test_memo_equals_testing_every_tracker(self, first, second):
        # the memo is filled by the first pool and read by the second
        truth = enumerate_trends(ANTIGEN_A)
        contains = {}
        for pool_values in (first, second):
            pool = [Tracker(v) for v in pool_values]
            expected = {
                trend: sum(1 for t in pool if count_occurrences(trend, t.values))
                for trend in sorted(truth, key=lambda t: (len(t), t))
            }
            assert _matching_counts(pool, truth, contains) == expected


class TestPoolActions:
    def test_memory_persists_across_phases(self):
        spec = ExperimentSpec(
            phases=[
                PresentationPhase(1, ANTIGEN_A1),
                PresentationPhase(30, ANTIGEN_A2, pool_action_at_start=POOL_ACTION_FEEDBACK),
            ]
        )
        # a seed whose first phase produced memory cells
        for seed in range(10):
            stats = run_experiment(spec, FAST, seed=seed)
            first_phase = [e for e in stats.memory_events if e.gen <= 10]
            if first_phase:
                break
        assert first_phase, "no seed in 0..9 formed memory in the first phase"
        # every sequence memorised in phase one is still a cell at the end
        for event in first_phase:
            assert event.ms in stats.final_memory

    def test_reset_restores_initial_pool(self):
        spec_reset = ExperimentSpec(
            phases=[
                PresentationPhase(1, ANTIGEN_A1),
                PresentationPhase(30, ANTIGEN_A2, pool_action_at_start=POOL_ACTION_RESET),
            ]
        )
        stats = run_experiment(spec_reset, FAST, seed=4)
        # generation 30 presents a single value, so nothing proliferates:
        # the freshly reset pool ends the generation at exactly the floor
        gen30 = next(r for r in stats.records if r.gen == 30)
        assert gen30.pool_size == FAST.min_pool


class TestRunBatch:
    def test_consecutive_seeds(self):
        runs = run_batch(self.spec(), FAST, 3, base_seed=7)
        assert [r.seed for r in runs] == [7, 8, 9]

    def test_rejects_empty_batch(self):
        with pytest.raises(SpecError):
            run_batch(self.spec(), FAST, 0)

    @staticmethod
    def spec():
        return ExperimentSpec(phases=[PresentationPhase(1, ANTIGEN_A1)])


class TestFixtures:
    def test_halves_partition_the_antigen(self):
        assert ANTIGEN_A1.seq + ANTIGEN_A2.seq == ANTIGEN_A.seq
        assert len(ANTIGEN_A1) == len(ANTIGEN_A2) == 10
