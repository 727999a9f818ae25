"""Experiment schedules, the generation loop, and run reproducibility."""

import dataclasses

import pytest

from tea.engine import (
    ANTIGEN_A,
    ANTIGEN_A1,
    ANTIGEN_A2,
    POOL_ACTION_FEEDBACK,
    POOL_ACTION_RESET,
    ExperimentSpec,
    PresentationPhase,
    SpecError,
    preset_config,
    preset_spec,
    run_batch,
    run_experiment,
)
from tea.matching import enumerate_trends
from tea.population import MEMORY_CLONE, PoolConfig

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
        phase = PresentationPhase(1, 10, ANTIGEN_A1)
        assert phase.presented(1).seq == ANTIGEN_A1.seq[:1]
        assert phase.presented(4).seq == ANTIGEN_A1.seq[:4]
        assert phase.presented(10).seq == ANTIGEN_A1.seq

    def test_window_normalised_to_antigen_length(self):
        phase = PresentationPhase(5, 40, ANTIGEN_A1)
        assert phase.end_gen == 14

    def test_window_too_short_rejected(self):
        with pytest.raises(SpecError):
            PresentationPhase(1, 5, ANTIGEN_A1)

    def test_inverted_window_rejected(self):
        with pytest.raises(SpecError):
            PresentationPhase(5, 4, ANTIGEN_A1)

    def test_unknown_pool_action_rejected(self):
        with pytest.raises(SpecError):
            PresentationPhase(1, 10, ANTIGEN_A1, pool_action_at_start="explode")


class TestExperimentSpec:
    def test_truth_defaults_to_union_of_phase_trends(self):
        spec = ExperimentSpec(
            phases=[
                PresentationPhase(1, 10, ANTIGEN_A1),
                PresentationPhase(30, 39, ANTIGEN_A2),
            ]
        )
        assert spec.truth == enumerate_trends(ANTIGEN_A1) | enumerate_trends(ANTIGEN_A2)

    def test_overlapping_phases_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(
                phases=[
                    PresentationPhase(1, 10, ANTIGEN_A1),
                    PresentationPhase(10, 19, ANTIGEN_A2),
                ]
            )

    def test_phase_past_end_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(phases=[PresentationPhase(45, 54, ANTIGEN_A1)], total_generations=50)

    def test_phase_at(self):
        spec = ExperimentSpec(phases=[PresentationPhase(1, 10, ANTIGEN_A1)])
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
    spec = ExperimentSpec(phases=[PresentationPhase(1, 10, ANTIGEN_A1)])

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

    def test_total_created_counts_every_id(self):
        stats = run_experiment(self.spec, FAST, seed=0)
        assert stats.total_created >= FAST.init_size
        assert stats.total_created >= max(r.pool_size for r in stats.records)


class TestPoolActions:
    def test_memory_persists_across_phases(self):
        spec = ExperimentSpec(
            phases=[
                PresentationPhase(1, 10, ANTIGEN_A1),
                PresentationPhase(30, 39, ANTIGEN_A2, pool_action_at_start=POOL_ACTION_FEEDBACK),
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
                PresentationPhase(1, 10, ANTIGEN_A1),
                PresentationPhase(30, 39, ANTIGEN_A2, pool_action_at_start=POOL_ACTION_RESET),
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
        return ExperimentSpec(phases=[PresentationPhase(1, 10, ANTIGEN_A1)])


class TestFixtures:
    def test_halves_partition_the_antigen(self):
        assert ANTIGEN_A1.seq + ANTIGEN_A2.seq == ANTIGEN_A.seq
        assert len(ANTIGEN_A1) == len(ANTIGEN_A2) == 10
