"""Random-search comparator."""

import random

import pytest

from tea.baseline import random_search
from tea.engine import ANTIGEN_A
from tea.matching import enumerate_trends, longest_match
from tea.memory import MemoryPool
from tea.population import PoolConfig, random_tracker

CONFIG = PoolConfig(band_width=0.5, gaussian_mean=1.2, gaussian_std=0.5, init_len_min=2)


def reference_search(antigen, population_size, config, rng) -> MemoryPool:
    """random_search as a plain loop that binds every draw afresh."""
    memory = MemoryPool()
    for _ in range(population_size):
        tracker = random_tracker(config, rng)
        match = longest_match(tracker.values, antigen, config.bind_threshold)
        if match.is_trend_match:
            memory.consider(tracker.values, match, gen=0)
    return memory


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

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="population size"):
            random_search(ANTIGEN_A, -5, CONFIG, random.Random(0))
