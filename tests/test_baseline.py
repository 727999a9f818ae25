"""Random-search comparator."""

import random
import tracemalloc
from dataclasses import replace

import pytest

from reference import reference_search, reference_values
from tea import matching
from tea.baseline import random_search
from tea.encoding import Antigen, PricePoint, encode
from tea.engine import ANTIGEN_A, preset_config
from tea.matching import enumerate_trends
from tea.memory import MemoryPool
from tea.population import PoolConfig, init_pool, random_values

CONFIG = PoolConfig(band_width=0.5, gaussian_mean=1.2, gaussian_std=0.5, init_len_min=2)


def banded_walk(changes=300, seed=0):
    """A Gaussian random walk of unit steps, banded at 0.5."""
    rng = random.Random(seed)
    closes = [100.0]
    for _ in range(changes):
        closes.append(closes[-1] + rng.gauss(0.0, 1.0))
    return encode([PricePoint(float(t), c) for t, c in enumerate(closes)], 0.5, label="walk")


WALK = banded_walk()
REFERENCE_CONFIGS = {
    "preset": preset_config(),
    "half-width": PoolConfig(band_width=0.5),
    "loose-threshold": replace(preset_config(), bind_threshold=0.5),
    "length-3-tenth": PoolConfig(band_width=0.1, init_len_min=3, init_len_max=3),
    "zero-std": replace(preset_config(), gaussian_std=0.0),
}


@pytest.mark.parametrize("antigen,size", [(ANTIGEN_A, 3000), (WALK, 800)], ids=["A", "walk"])
@pytest.mark.parametrize("name", list(REFERENCE_CONFIGS))
class TestAgainstReferenceDraws:
    """Every random tracker draws as reference_values does, at any config."""

    def test_random_search(self, name, antigen, size):
        config = REFERENCE_CONFIGS[name]
        rng, ref_rng = random.Random(5), random.Random(5)
        result = random_search(antigen, size, config, rng)
        expected = reference_search(antigen, size, config, ref_rng)
        assert result.memory.to_rows() == expected.to_rows()
        assert result.detected == expected.detected_trends()
        assert rng.getstate() == ref_rng.getstate()

    def test_init_pool_and_random_tracker(self, name, antigen, size):
        config = REFERENCE_CONFIGS[name]
        rng, ref_rng = random.Random(9), random.Random(9)
        pool = init_pool(config, rng)
        singles = list(random_values(config, rng, size // 10))
        expected = [reference_values(config, ref_rng) for _ in range(config.init_size + size // 10)]
        assert [t.values for t in pool] + singles == expected
        assert rng.getstate() == ref_rng.getstate()


class TestRandomSearch:
    def test_detections_are_genuine_trends(self):
        truth = enumerate_trends(ANTIGEN_A)
        result = random_search(ANTIGEN_A, 2000, CONFIG, random.Random(0))
        assert result.detected <= truth
        assert result.population_size == 2000

    def test_deterministic_per_seed(self):
        a = random_search(ANTIGEN_A, 1000, CONFIG, random.Random(3))
        b = random_search(ANTIGEN_A, 1000, CONFIG, random.Random(3))
        assert a.detected == b.detected
        assert sorted(a.memory.to_rows()) == sorted(b.memory.to_rows())

    def test_bigger_population_never_detects_less_often(self):
        # not monotone per seed (different draw streams), but a 20x
        # budget difference dominates across a handful of seeds
        small = [
            len(random_search(ANTIGEN_A, 100, CONFIG, random.Random(s)).detected)
            for s in range(5)
        ]
        large = [
            len(random_search(ANTIGEN_A, 2000, CONFIG, random.Random(s)).detected)
            for s in range(5)
        ]
        assert sum(large) > sum(small)

    def test_memory_keeps_least_redundant_tracker(self):
        result = random_search(ANTIGEN_A, 5000, CONFIG, random.Random(1))
        for cell in result.memory:
            assert cell.redundancy == len(cell.tracker_values) - len(cell.ms)

    def test_zero_population_detects_nothing(self):
        assert random_search(ANTIGEN_A, 0, CONFIG, random.Random(0)).detected == frozenset()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_memory_equals_binding_every_draw(self, seed):
        result = random_search(ANTIGEN_A, 3000, CONFIG, random.Random(seed))
        expected = reference_search(ANTIGEN_A, 3000, CONFIG, random.Random(seed))
        assert result.memory.to_rows() == expected.to_rows()

    def test_admits_each_distinct_tuple_once(self, monkeypatch):
        # a repeated tuple repeats its match, which memory could only reject
        submitted = []
        consider = MemoryPool.consider

        def counted(memory, values, match, gen):
            submitted.append(values)
            return consider(memory, values, match, gen)

        monkeypatch.setattr(MemoryPool, "consider", counted)
        random_search(ANTIGEN_A, 3000, CONFIG, random.Random(0))
        assert submitted and len(submitted) == len(set(submitted))

    def test_binds_one_antigen_tuple(self):
        # an Antigen passed on to each bind would be copied by tuple() every
        # time, and every bind would build its masks afresh
        antigen = Antigen(list(ANTIGEN_A.seq))
        random_search(antigen, 100, CONFIG, random.Random(0))
        assert matching._held[0] is antigen.seq

    def test_streams_its_draws(self):
        # a list of the 50,000 draws alone would pass the bound
        tracemalloc.start()
        try:
            random_search(ANTIGEN_A, 50_000, preset_config(), random.Random(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="population size"):
            random_search(ANTIGEN_A, -5, CONFIG, random.Random(0))
