"""Experiment schedules, the generation loop, and run reproducibility."""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from reference import reference_run
from tea import engine
from tea.encoding import Antigen, EncodingError
from tea.engine import (
    ANTIGEN_A,
    ANTIGEN_A1,
    ANTIGEN_A2,
    POOL_ACTION_FEEDBACK,
    POOL_ACTION_RESET,
    ExperimentSpec,
    PoolLimitError,
    PresentationPhase,
    SpecError,
    _matching_counts,
    preset_config,
    preset_spec,
    run_batch,
    run_experiment,
)
from tea.matching import count_occurrences, enumerate_trends
from tea.memory import MemoryPool
from tea.population import PoolConfig, Tracker, init_pool

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


# the second phase follows the first at once and opens on -0.5, a value no
# trend of A1 holds, so a bind carried over from the first phase would be wrong
BACK_TO_BACK = ExperimentSpec(
    phases=[PresentationPhase(1, ANTIGEN_A1), PresentationPhase(11, Antigen(ANTIGEN_A2.seq[3:]))]
)


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
            expected, rng = reference_run(spec, config, seed, engine.MAX_POOL)
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


@st.composite
def small_specs(draw):
    """1-3 phases over 2-10 value antigens from a 3-4 value alphabet.

    A later phase may present the very antigen object of an earlier one.
    """
    values = st.sampled_from([-0.5, 0.5, 1.0, 1.5, 2.0])
    alphabet = draw(st.lists(values, min_size=3, max_size=4, unique=True))
    antigens, phases, gen = [], [], 1
    for _ in range(draw(st.integers(1, 3))):
        if antigens and draw(st.booleans()):
            antigen = draw(st.sampled_from(antigens))
        else:
            row = draw(st.lists(st.sampled_from(alphabet), min_size=2, max_size=10))
            antigen = Antigen(tuple(row))
            antigens.append(antigen)
        action = draw(st.sampled_from(engine._POOL_ACTIONS))
        phases.append(PresentationPhase(gen, antigen, pool_action_at_start=action))
        gen = phases[-1].end_gen + 1 + draw(st.integers(0, 3))
    return ExperimentSpec(phases, total_generations=gen + draw(st.integers(0, 3)))


def run_outputs(stats):
    return stats.records, stats.memory_events, stats.final_memory.to_rows(), stats.total_created


class TestAgainstReferenceRun:
    @settings(max_examples=60, deadline=None)
    @given(
        small_specs(),
        st.sampled_from([0.0, 0.5]),
        st.booleans(),
        st.integers(1, 3),
        st.integers(0, 1000),
    )
    @example(preset_spec("exp3"), 0.0, True, 3, 0)  # passes 3,000 trackers at generation 15
    def test_equals_the_reference_run(self, spec, threshold, shortening, clone_factor, seed):
        # a pool bounded at 3,000 keeps every example small; a run that would
        # pass it must stop where the reference stops, with the same message
        config = dataclasses.replace(
            FAST, init_size=8, min_pool=6, clone_lifespan=3, clone_factor=clone_factor,
            bind_threshold=threshold, shortening_enabled=shortening,
        )
        rngs = []

        def init_and_keep_rng(config, rng):
            rngs.append(rng)
            return init_pool(config, rng)

        with mock.patch.object(engine, "MAX_POOL", 3000), mock.patch.object(
            engine, "init_pool", init_and_keep_rng
        ):
            try:
                got = run_experiment(spec, config, seed)
            except PoolLimitError as exc:
                with pytest.raises(PoolLimitError) as raised:
                    reference_run(spec, config, seed, 3000)
                assert str(raised.value) == str(exc)
                return
        expected, rng = reference_run(spec, config, seed, 3000)
        assert run_outputs(got) == run_outputs(expected)
        assert rngs.pop().getstate() == rng.getstate()


class TestRunBatch:
    def test_consecutive_seeds(self):
        runs = run_batch(self.spec(), FAST, 3, base_seed=7)
        assert [r.seed for r in runs] == [7, 8, 9]

    def test_rejects_empty_batch(self):
        with pytest.raises(SpecError):
            run_batch(self.spec(), FAST, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        small_specs(),
        st.sampled_from([0.0, 0.5]),
        st.booleans(),
        st.integers(1, 4),
        st.integers(0, 1000),
    )
    def test_each_run_equals_the_run_alone(self, spec, threshold, shortening, n_runs, seed):
        # the runs of a batch share their binds and trend sets; none may move
        config = dataclasses.replace(
            FAST, init_size=8, min_pool=6, clone_lifespan=3,
            bind_threshold=threshold, shortening_enabled=shortening,
        )
        runs = run_batch(spec, config, n_runs, seed)
        for i, got in enumerate(runs):
            assert run_outputs(got) == run_outputs(run_experiment(spec, config, seed + i))

    @pytest.mark.parametrize("run", [
        lambda: run_experiment(preset_spec("exp2"), preset_config(), 3),
        lambda: run_batch(preset_spec("exp2"), preset_config(), 3, 3),
    ], ids=["run_experiment", "run_batch"])
    def test_no_bind_outlives_its_call(self, monkeypatch, run):
        # a second call binds as much as the first: it starts with empty tables
        calls = []
        bind = engine.longest_match

        def counted(*args):
            calls.append(1)
            return bind(*args)

        monkeypatch.setattr(engine, "longest_match", counted)
        run()
        first = len(calls)
        run()
        assert 0 < first == len(calls) - first

    @staticmethod
    def spec():
        return ExperimentSpec(phases=[PresentationPhase(1, ANTIGEN_A1)])


class TestFixtures:
    def test_halves_partition_the_antigen(self):
        assert ANTIGEN_A1.seq + ANTIGEN_A2.seq == ANTIGEN_A.seq
        assert len(ANTIGEN_A1) == len(ANTIGEN_A2) == 10
