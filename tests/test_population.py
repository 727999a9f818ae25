"""Tracker pool dynamics: mutation, apoptosis, culling, homeostasis."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tea.matching import MatchResult, longest_match
from tea.population import (
    CLONE,
    MEMORY_CLONE,
    NAIVE,
    ConfigError,
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
    random_estimate,
    record_improvement,
)


def make_tracker(values, origin=NAIVE, best_sf=0, best_ml=0, tid=0, gen=0):
    return Tracker(
        id=tid,
        values=tuple(values),
        origin=origin,
        birth_gen=gen,
        best_sf=best_sf,
        best_ml=best_ml,
        last_improvement_gen=gen,
    )


class TestPoolConfig:
    def test_std_defaults_to_two_band_widths(self):
        assert PoolConfig(band_width=0.5).gaussian_std == 1.0
        assert PoolConfig().gaussian_std == 2.0

    def test_explicit_std_kept(self):
        assert PoolConfig(band_width=0.5, gaussian_std=0.3).gaussian_std == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"init_size": 0},
            {"min_pool": 0},
            {"clone_factor": 0},
            {"init_len_min": 0},
            {"init_len_min": 3, "init_len_max": 2},
            {"band_width": 0.0},
            {"mutation_extend_prob": 1.5},
            {"apoptosis_rate": 1.0},
            {"clone_lifespan": 0},
            {"bind_threshold": -0.1},
            {"band_width": math.nan},
            {"band_width": math.inf},
            {"gaussian_std": -0.1},
            {"gaussian_std": math.nan},
            {"gaussian_std": math.inf},
            {"bind_threshold": math.nan},
            {"gaussian_mean": math.nan},
            {"gaussian_mean": -math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            PoolConfig(**kwargs)


class TestInitPool:
    def test_sizes_and_lengths(self):
        config = PoolConfig(init_size=30, init_len_min=2, init_len_max=4)
        pool = init_pool(config, random.Random(0), new_id_source())
        assert len(pool) == 30
        assert all(2 <= len(t.values) <= 4 for t in pool)
        assert all(t.origin == NAIVE for t in pool)
        assert [t.id for t in pool] == list(range(30))

    def test_values_on_band_grid(self):
        config = PoolConfig(band_width=0.5)
        pool = init_pool(config, random.Random(1), new_id_source())
        for t in pool:
            for v in t.values:
                assert v == 0.0 or abs(v) / 0.5 == pytest.approx(round(abs(v) / 0.5))

    def test_deterministic_per_seed(self):
        config = PoolConfig()
        a = init_pool(config, random.Random(7), new_id_source())
        b = init_pool(config, random.Random(7), new_id_source())
        assert [t.values for t in a] == [t.values for t in b]


class TestProliferation:
    def match(self, sf, ml):
        return MatchResult(ms=(1.0,) * ml, sf=sf, ml=ml, redundancy=0, affinity=0.0)

    def test_requires_repeating_trend(self):
        t = make_tracker((1.0, 2.0))
        assert not proliferation_check(t, self.match(sf=1, ml=2))
        assert not proliferation_check(t, self.match(sf=2, ml=1))
        assert proliferation_check(t, self.match(sf=2, ml=2))

    def test_requires_improvement_over_record(self):
        t = make_tracker((1.0, 2.0), best_sf=2, best_ml=2)
        assert not proliferation_check(t, self.match(sf=2, ml=2))
        assert proliferation_check(t, self.match(sf=3, ml=2))
        assert proliferation_check(t, self.match(sf=2, ml=3))

    def test_record_improvement_is_monotone(self):
        t = make_tracker((1.0, 2.0), best_sf=5, best_ml=2)
        record_improvement(t, self.match(sf=2, ml=3), gen=4)
        assert t.best_sf == 5 and t.best_ml == 3
        assert t.last_improvement_gen == 4

    def test_clone_count_proportional_to_ml(self):
        config = PoolConfig(clone_factor=3)
        assert clone_count(self.match(sf=2, ml=4), config) == 12
        assert clone_count(self.match(sf=2, ml=2), PoolConfig()) == 2


class TestMutate:
    config = PoolConfig(band_width=0.5, mutation_extend_prob=0.5)

    def test_extension_appends_banded_value_and_inherits_record(self):
        parent = make_tracker((1.0, 2.0), best_sf=2, best_ml=2)
        config = PoolConfig(band_width=0.5, mutation_extend_prob=1.0)
        child = mutate(parent, config, random.Random(0), 3, new_id_source())
        assert child.values[:2] == parent.values
        assert len(child.values) == 3
        assert child.origin == CLONE
        assert child.best_sf == 2 and child.best_ml == 2
        assert child.birth_gen == 3

    def test_shortening_resets_record(self):
        parent = make_tracker((1.0, 2.0, -0.5), best_sf=2, best_ml=2)
        config = PoolConfig(band_width=0.5, mutation_extend_prob=0.0)
        child = mutate(parent, config, random.Random(0), 3, new_id_source())
        assert len(child.values) == 2
        assert child.best_sf == 0 and child.best_ml == 0

    def test_shortening_prefers_positions_outside_match(self):
        parent = make_tracker((9.0, 1.0, 2.0, 9.0), best_sf=2, best_ml=2)
        config = PoolConfig(mutation_extend_prob=0.0)
        for seed in range(20):
            child = mutate(parent, config, random.Random(seed), 1, new_id_source(), ms_span=(1, 3))
            # the matched window [1,2] always survives
            assert child.values in {(1.0, 2.0, 9.0), (9.0, 1.0, 2.0)}

    def test_shortening_uniform_when_no_redundancy(self):
        parent = make_tracker((1.0, 2.0), best_sf=2, best_ml=2)
        config = PoolConfig(mutation_extend_prob=0.0)
        seen = {
            mutate(parent, config, random.Random(s), 1, new_id_source(), ms_span=(0, 2)).values
            for s in range(30)
        }
        assert seen == {(1.0,), (2.0,)}

    def test_length_one_parent_always_extends(self):
        parent = make_tracker((1.0,))
        config = PoolConfig(mutation_extend_prob=0.0)
        child = mutate(parent, config, random.Random(0), 1, new_id_source())
        assert len(child.values) == 2

    def test_shortening_disabled_always_extends(self):
        parent = make_tracker((1.0, 2.0, 3.0))
        config = PoolConfig(mutation_extend_prob=0.0, shortening_enabled=False)
        for seed in range(10):
            child = mutate(parent, config, random.Random(seed), 1, new_id_source())
            assert len(child.values) == 4

    @given(
        length=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        extend_prob=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    @settings(max_examples=150)
    def test_never_empty_and_length_changes_by_one(self, length, seed, extend_prob):
        parent = make_tracker(tuple(float(i) for i in range(length)))
        config = PoolConfig(mutation_extend_prob=extend_prob)
        child = mutate(parent, config, random.Random(seed), 1, new_id_source())
        assert len(child.values) >= 1
        assert abs(len(child.values) - length) == 1


class TestRegulation:
    def pool_of(self, n, origin=NAIVE):
        return [make_tracker((1.0, 2.0), origin=origin, tid=i) for i in range(n)]

    def test_apoptosis_removes_floor_fraction(self):
        config = PoolConfig(apoptosis_rate=0.10)
        assert len(apoptose(self.pool_of(20), config, random.Random(0))) == 18
        assert len(apoptose(self.pool_of(25), config, random.Random(0))) == 23

    def test_apoptosis_floor_can_be_zero(self):
        # e.g. 5 trackers at rate 0.10: floor(0.5) = 0 removed
        config = PoolConfig(apoptosis_rate=0.10)
        assert len(apoptose(self.pool_of(5), config, random.Random(0))) == 5

    def test_cull_only_hits_stale_clones(self):
        config = PoolConfig(clone_lifespan=5)
        fresh = make_tracker((1.0,), origin=CLONE, gen=8)
        stale = make_tracker((1.0,), origin=CLONE, gen=3)
        naive = make_tracker((1.0,), origin=NAIVE, gen=0)
        memory = make_tracker((1.0,), origin=MEMORY_CLONE, gen=0)
        kept = cull_stale_clones([fresh, stale, naive, memory], config, current_gen=8)
        assert kept == [fresh, naive, memory]

    def test_homeostasis_tops_up_with_copies(self):
        config = PoolConfig(min_pool=20)
        ids = new_id_source()
        pool = [make_tracker((1.0, 2.0), tid=next(ids)) for _ in range(3)]
        topped = homeostasis(pool, config, random.Random(0), ids, 4)
        assert len(topped) == 20
        assert {t.values for t in topped} == {(1.0, 2.0)}
        assert len({t.id for t in topped}) == 20  # copies get fresh ids

    def test_homeostasis_reseeds_empty_pool(self, caplog):
        config = PoolConfig(init_size=20)
        with caplog.at_level("WARNING", logger="tea.population"):
            pool = homeostasis([], config, random.Random(0), new_id_source(), 7)
        assert len(pool) == 20
        assert all(t.birth_gen == 7 and t.origin == NAIVE for t in pool)
        assert "re-seeding" in caplog.text

    def test_homeostasis_leaves_large_pool_alone(self):
        config = PoolConfig(min_pool=20)
        pool = self.pool_of(25)
        assert homeostasis(pool, config, random.Random(0), new_id_source(), 4) == pool


class TestRandomEstimate:
    def test_on_grid_and_deterministic(self):
        config = PoolConfig(band_width=0.5, gaussian_mean=1.0, gaussian_std=0.5)
        first = random.Random(42)
        second = random.Random(42)
        draws = [random_estimate(config, first) for _ in range(200)]
        assert draws == [random_estimate(config, second) for _ in range(200)]
        for v in draws:
            assert v == 0.0 or (abs(v) / 0.5) == pytest.approx(round(abs(v) / 0.5))

    def test_matches_exactly_after_banding(self):
        # a banded draw binds exactly against a banded antigen value
        config = PoolConfig(band_width=0.5, gaussian_mean=1.0, gaussian_std=0.1)
        rng = random.Random(0)
        draws = {random_estimate(config, rng) for _ in range(100)}
        assert draws <= {0.5, 1.0, 1.5}
        for v in draws:
            assert longest_match((v,), (v,)).affinity == 0.0
