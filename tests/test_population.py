"""Tracker pool dynamics: mutation, apoptosis, culling, homeostasis."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tea.encoding import band
from tea.matching import MatchResult, longest_match
from tea.population import (
    CLONE,
    MEMORY_CLONE,
    MAX_INIT_VALUES,
    MAX_POOL_SETTING,
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
    proliferation_check,
    random_values,
    record_improvement,
)


def make_tracker(values, origin=NAIVE, best_sf=0, best_ml=0, gen=0):
    return Tracker(
        values=tuple(values),
        origin=origin,
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
            {"init_size": MAX_POOL_SETTING + 1},
            {"min_pool": MAX_POOL_SETTING + 1},
            {"init_size": 1_000_000_000},
            {"clone_factor": MAX_POOL_SETTING + 1},
            {"init_len_max": MAX_POOL_SETTING + 1},
            {"bind_threshold": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            PoolConfig(**kwargs)

    def test_initial_draw_is_bounded(self):
        # each setting is within MAX_POOL_SETTING; their product is 10**10 values
        with pytest.raises(ConfigError) as raised:
            PoolConfig(init_size=100_000, init_len_min=100_000, init_len_max=100_000)
        assert str(raised.value) == (
            "init_size * init_len_max must be <= 2000000, got 100000 * 100000"
        )
        PoolConfig(init_size=MAX_INIT_VALUES // 100, init_len_max=100)  # at the bound
        with pytest.raises(ConfigError):
            PoolConfig(init_size=MAX_INIT_VALUES // 100 + 1, init_len_max=100)

    def test_int_band_width_past_the_float_range_is_named(self):
        with pytest.raises(ConfigError) as raised:
            PoolConfig(band_width=10**400)
        assert str(raised.value) == f"band_width must be positive and finite, got {10**400}"

    def test_huge_band_width_is_named_when_std_is_defaulted(self):
        # the default gaussian_std, 2 band widths, overflows to inf
        with pytest.raises(ConfigError, match="^band_width 1e\\+308 is too large"):
            PoolConfig(band_width=1e308)
        with pytest.raises(ConfigError, match="^gaussian_std must be"):
            PoolConfig(band_width=1.0, gaussian_std=math.inf)
        assert PoolConfig(band_width=1e308, gaussian_std=1.0).gaussian_std == 1.0


class TestInitPool:
    def test_sizes_and_lengths(self):
        config = PoolConfig(init_size=30, init_len_min=2, init_len_max=4)
        pool = init_pool(config, random.Random(0))
        assert len(pool) == 30
        assert all(2 <= len(t.values) <= 4 for t in pool)
        assert all(t.origin == NAIVE for t in pool)

    def test_values_on_band_grid(self):
        config = PoolConfig(band_width=0.5)
        pool = init_pool(config, random.Random(1))
        for t in pool:
            for v in t.values:
                assert v == 0.0 or abs(v) / 0.5 == pytest.approx(round(abs(v) / 0.5))

    def test_deterministic_per_seed(self):
        config = PoolConfig()
        a = init_pool(config, random.Random(7))
        b = init_pool(config, random.Random(7))
        assert [t.values for t in a] == [t.values for t in b]


class TestProliferation:
    def match(self, sf, ml):
        return MatchResult(ms=(1.0,) * ml, sf=sf, ml=ml, redundancy=0)

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
        t = make_tracker((1.0, 2.0), origin=CLONE, best_sf=5, best_ml=2, gen=1)
        improved = record_improvement(t, self.match(sf=2, ml=3), gen=4)
        assert state(improved) == ((1.0, 2.0), CLONE, 5, 3, 4)
        # the argument keeps its record: other pool positions may share it
        assert state(t) == ((1.0, 2.0), CLONE, 5, 2, 1)

    def test_clone_count_proportional_to_ml(self):
        config = PoolConfig(clone_factor=3)
        assert clone_count(self.match(sf=2, ml=4), config) == 12
        assert clone_count(self.match(sf=2, ml=2), PoolConfig()) == 2


def reference_mutate(parent, config, rng, current_gen, ms_span):
    """The one-clone-per-call mutate that mutate(..., n) replaces."""
    extend = True
    if config.shortening_enabled and len(parent.values) > 1:
        extend = rng.random() < config.mutation_extend_prob
    if extend:
        value = band(rng.gauss(config.gaussian_mean, config.gaussian_std), config.band_width)
        values = parent.values + (value,)
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
    return Tracker(values, CLONE, best_sf, best_ml, current_gen)


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


def state(t):
    return (t.values, t.origin, t.best_sf, t.best_ml, t.last_improvement_gen)


class TestMutate:
    config = PoolConfig(band_width=0.5, mutation_extend_prob=0.5)

    def test_extension_appends_banded_value_and_inherits_record(self):
        parent = make_tracker((1.0, 2.0), best_sf=2, best_ml=2)
        config = PoolConfig(band_width=0.5, mutation_extend_prob=1.0)
        children = mutate(parent, config, random.Random(0), 3, 4, (0, 0), {})
        assert len(children) == 4
        for child in children:
            assert child.values[:2] == parent.values
            assert len(child.values) == 3
            assert child.origin == CLONE
            assert child.best_sf == 2 and child.best_ml == 2
            assert child.last_improvement_gen == 3

    def test_shortening_resets_record(self):
        parent = make_tracker((1.0, 2.0, -0.5), best_sf=2, best_ml=2)
        config = PoolConfig(band_width=0.5, mutation_extend_prob=0.0)
        children = mutate(parent, config, random.Random(0), 3, 3, (0, 0), {})
        assert len(children) == 3
        for child in children:
            assert len(child.values) == 2
            assert child.best_sf == 0 and child.best_ml == 0

    def test_shortening_prefers_positions_outside_match(self):
        parent = make_tracker((9.0, 1.0, 2.0, 9.0), best_sf=2, best_ml=2)
        config = PoolConfig(mutation_extend_prob=0.0)
        for seed in range(20):
            for child in mutate(parent, config, random.Random(seed), 1, 3, (1, 3), {}):
                # the matched window [1,2] always survives
                assert child.values in {(1.0, 2.0, 9.0), (9.0, 1.0, 2.0)}

    def test_shortening_uniform_when_no_redundancy(self):
        parent = make_tracker((1.0, 2.0), best_sf=2, best_ml=2)
        config = PoolConfig(mutation_extend_prob=0.0)
        seen = {
            child.values
            for s in range(30)
            for child in mutate(parent, config, random.Random(s), 1, 2, (0, 2), {})
        }
        assert seen == {(1.0,), (2.0,)}

    def test_length_one_parent_always_extends(self):
        parent = make_tracker((1.0,))
        config = PoolConfig(mutation_extend_prob=0.0)
        children = mutate(parent, config, random.Random(0), 1, 3, (0, 0), {})
        assert [len(child.values) for child in children] == [2, 2, 2]

    def test_shortening_disabled_always_extends(self):
        parent = make_tracker((1.0, 2.0, 3.0))
        config = PoolConfig(mutation_extend_prob=0.0, shortening_enabled=False)
        for seed in range(10):
            for child in mutate(parent, config, random.Random(seed), 1, 3, (0, 0), {}):
                assert len(child.values) == 4

    @given(
        length=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        extend_prob=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        n=st.integers(1, 5),
    )
    @settings(max_examples=150)
    def test_never_empty_and_length_changes_by_one(self, length, seed, extend_prob, n):
        parent = make_tracker(tuple(float(i) for i in range(length)))
        config = PoolConfig(mutation_extend_prob=extend_prob)
        children = mutate(parent, config, random.Random(seed), 1, n, (0, 0), {})
        assert len(children) == n
        for child in children:
            assert len(child.values) >= 1
            assert abs(len(child.values) - length) == 1

    @given(
        values=st.lists(st.sampled_from([-0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=7),
        span=st.tuples(st.integers(0, 7), st.integers(0, 7)).map(sorted).map(tuple),
        record=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        n=st.integers(1, 12),
        seed=st.integers(0, 10_000),
        extend_prob=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        shortening=st.booleans(),
        width=st.sampled_from([0.1, 0.5, 1.0]),
    )
    @settings(max_examples=300)
    def test_equals_one_reference_call_per_clone(
        self, values, span, record, n, seed, extend_prob, shortening, width
    ):
        parent = make_tracker(values, best_sf=record[0], best_ml=record[1], gen=1)
        config = PoolConfig(
            band_width=width,
            gaussian_mean=1.0,
            mutation_extend_prob=extend_prob,
            shortening_enabled=shortening,
        )
        rng, twin = random.Random(seed), random.Random(seed)
        children = mutate(parent, config, rng, 4, n, span, {})
        expected = [reference_mutate(parent, config, twin, 4, span) for _ in range(n)]
        assert [state(c) for c in children] == [state(e) for e in expected]
        assert rng.getstate() == twin.getstate()
        # siblings extended by equal values share one tuple, and so do
        # siblings shortened at one position
        extended = {}
        for child in children:
            if len(child.values) > len(values):
                assert extended.setdefault(child.values, child.values) is child.values
        assert len({id(c.values) for c in children if len(c.values) < len(values)}) <= len(values)

    @given(
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        n=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150)
    def test_a_shared_birth_table_moves_no_draw(self, picks, n, seed):
        # equal children of different parents, or of one parent called
        # again, are one object; every state and draw is as without the table
        parents = [
            (make_tracker((1.0, 2.0, 1.0), best_sf=2, best_ml=2, gen=4), (0, 2)),
            (make_tracker((1.0, 2.0, 1.0), origin=CLONE, best_sf=2, best_ml=2, gen=4), (0, 2)),
            (make_tracker((1.0, 2.0, 1.0), best_sf=3, best_ml=2, gen=4), (0, 2)),
            (make_tracker((2.0, 1.0, 2.0), best_sf=2, best_ml=2, gen=4), (0, 0)),
        ]
        config = PoolConfig(band_width=0.5, gaussian_mean=1.0, mutation_extend_prob=0.5)
        rng, twin = random.Random(seed), random.Random(seed)
        born = {}
        shared, alone = [], []
        for parent, span in (parents[i] for i in picks):
            shared += mutate(parent, config, rng, 4, n, span, born)
            alone += mutate(parent, config, twin, 4, n, span, {})
        assert [state(c) for c in shared] == [state(c) for c in alone]
        assert rng.getstate() == twin.getstate()
        assert len({id(c) for c in shared}) == len({state(c) for c in shared})


class TestRegulation:
    def pool_of(self, n, origin=NAIVE):
        return [make_tracker((1.0, 2.0), origin=origin) for _ in range(n)]

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

    @given(
        n=st.integers(0, 80),
        rate=st.sampled_from([0.0, 0.05, 0.1, 0.5, 0.9]),
        seed=st.integers(0, 10_000),
    )
    def test_apoptose_equals_reference(self, n, rate, seed):
        pool = self.pool_of(n)
        config = PoolConfig(apoptosis_rate=rate)
        rng, twin = random.Random(seed), random.Random(seed)
        survivors = apoptose(pool, config, rng)
        expected = reference_apoptose(pool, config, twin)
        assert [id(t) for t in survivors] == [id(t) for t in expected]
        assert rng.getstate() == twin.getstate()

    @given(
        trackers=st.lists(
            st.tuples(st.sampled_from([NAIVE, CLONE, MEMORY_CLONE]), st.integers(0, 30)),
            max_size=40,
        ),
        current_gen=st.integers(0, 40),
        lifespan=st.integers(1, 8),
    )
    def test_cull_equals_reference(self, trackers, current_gen, lifespan):
        pool = [make_tracker((1.0,), origin=o, gen=g) for o, g in trackers]
        config = PoolConfig(clone_lifespan=lifespan)
        survivors = cull_stale_clones(pool, config, current_gen)
        expected = reference_cull(pool, config, current_gen)
        assert [id(t) for t in survivors] == [id(t) for t in expected]

    def test_homeostasis_tops_up_with_copies(self):
        config = PoolConfig(min_pool=20)
        pool = [make_tracker((1.0, 2.0)) for _ in range(3)]
        topped = homeostasis(pool, config, random.Random(0))
        assert len(topped) == 20
        assert topped[:3] == pool
        # a copy is its donor: trackers are never changed, so they can be shared
        assert {id(t) for t in topped} == {id(t) for t in pool}

    def test_homeostasis_reseeds_empty_pool(self, caplog):
        config = PoolConfig(init_size=20)
        with caplog.at_level("WARNING", logger="tea.population"):
            pool = homeostasis([], config, random.Random(0))
        assert len(pool) == 20
        assert all(t.origin == NAIVE for t in pool)
        assert "re-seeding" in caplog.text

    def test_homeostasis_leaves_large_pool_alone(self):
        config = PoolConfig(min_pool=20)
        pool = self.pool_of(25)
        assert homeostasis(pool, config, random.Random(0)) == pool


class TestRandomTracker:
    def test_on_grid_and_deterministic(self):
        config = PoolConfig(band_width=0.5, gaussian_mean=1.0, gaussian_std=0.5)
        first = random.Random(42)
        second = random.Random(42)
        draws = list(random_values(config, first, 200))
        assert draws == list(random_values(config, second, 200))
        for v in sum(draws, ()):
            assert v == 0.0 or (abs(v) / 0.5) == pytest.approx(round(abs(v) / 0.5))

    def test_matches_exactly_after_banding(self):
        # a banded draw binds exactly against a banded antigen value
        config = PoolConfig(band_width=0.5, gaussian_mean=1.0, gaussian_std=0.1)
        rng = random.Random(0)
        draws = {v for values in random_values(config, rng, 100) for v in values}
        assert draws <= {0.5, 1.0, 1.5}
        for v in draws:
            assert longest_match((v,), (v,)).ms == (v,)
