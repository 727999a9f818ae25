"""Long-term memory pool admission and feedback."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tea.matching import MatchResult
from tea.memory import MemoryAdmissionError, MemoryPool
from tea.population import MEMORY_CLONE, PoolConfig


def match_for(ms, redundancy, sf=2):
    return MatchResult(ms=tuple(ms), sf=sf, ml=len(ms), redundancy=redundancy)


class TestConsider:
    def test_insert_new_key(self):
        pool = MemoryPool()
        action = pool.consider((1.0, 2.0, 9.0), match_for((1.0, 2.0), 1), gen=3)
        assert action == "inserted"
        cell = pool.cell((1.0, 2.0))
        assert cell.tracker_values == (1.0, 2.0, 9.0)
        assert cell.redundancy == 1
        assert cell.created_gen == 3

    def test_replace_only_on_lower_redundancy(self):
        pool = MemoryPool()
        pool.consider((1.0, 2.0, 9.0), match_for((1.0, 2.0), 1), gen=1)
        assert pool.consider((9.0, 1.0, 2.0), match_for((1.0, 2.0), 1), gen=2) == "rejected"
        assert pool.consider((1.0, 2.0, 9.0, 9.0), match_for((1.0, 2.0), 2), gen=2) == "rejected"
        assert pool.consider((1.0, 2.0), match_for((1.0, 2.0), 0), gen=4) == "replaced"
        cell = pool.cell((1.0, 2.0))
        assert cell.redundancy == 0
        assert cell.created_gen == 4

    def test_distinct_keys_coexist(self):
        pool = MemoryPool()
        pool.consider((1.0, 2.0), match_for((1.0, 2.0), 0), gen=1)
        pool.consider((2.0, 1.0), match_for((2.0, 1.0), 0), gen=1)
        assert len(pool) == 2
        assert (1.0, 2.0) in pool and (2.0, 1.0) in pool

    @pytest.mark.parametrize("sf,ml", [(1, 2), (2, 1), (0, 0)])
    def test_rejects_non_trend_candidates(self, sf, ml):
        pool = MemoryPool()
        bad = MatchResult(ms=(1.0,) * ml, sf=sf, ml=ml, redundancy=0)
        with pytest.raises(MemoryAdmissionError):
            pool.consider((1.0, 2.0), bad, gen=1)

    def test_detected_trends_is_exact_key_set(self):
        pool = MemoryPool()
        pool.consider((1.0, 2.0, 9.0), match_for((1.0, 2.0), 1), gen=1)
        assert pool.detected_trends() == frozenset({(1.0, 2.0)})
        # the stored tracker's extra values do not count as detections
        assert (1.0, 2.0, 9.0) not in pool.detected_trends()


class TestFeedbackClones:
    def seeded_pool(self, n):
        pool = MemoryPool()
        for i in range(n):
            ms = (1.0 + i, 2.0)
            pool.consider(ms, match_for(ms, 0), gen=1)
        return pool

    def test_one_clone_per_cell_with_reset_records(self):
        memory = self.seeded_pool(3)
        config = PoolConfig(min_pool=20)
        clones = memory.feedback_clones(config, random.Random(0))
        assert len(clones) == 20
        assert {c.values for c in clones[:3]} == {c.ms for c in memory}
        for c in clones:
            assert c.origin == MEMORY_CLONE
            assert c.best_sf == 0 and c.best_ml == 0

    def test_topped_up_from_cells_only(self):
        memory = self.seeded_pool(2)
        config = PoolConfig(min_pool=10)
        clones = memory.feedback_clones(config, random.Random(0))
        assert len(clones) == 10
        assert {c.values for c in clones} == {c.ms for c in memory}

    def test_extra_copies_are_the_cell_trackers(self):
        memory = self.seeded_pool(2)
        clones = memory.feedback_clones(PoolConfig(min_pool=10), random.Random(0))
        assert {id(c) for c in clones} == {id(c) for c in clones[:2]}

    def test_empty_memory_falls_back_to_random_pool(self):
        memory = MemoryPool()
        config = PoolConfig(init_size=20)
        pool = memory.feedback_clones(config, random.Random(0))
        assert len(pool) == 20
        assert all(t.origin != MEMORY_CLONE for t in pool)


class TestRedundancyMonotonicity:
    @settings(max_examples=100)
    @given(
        redundancies=st.lists(st.integers(0, 5), min_size=1, max_size=20),
    )
    def test_stored_redundancy_never_increases(self, redundancies):
        pool = MemoryPool()
        ms = (1.0, 2.0)
        best = None
        for gen, red in enumerate(redundancies, 1):
            tracker = ms + (9.0,) * red
            pool.consider(tracker, match_for(ms, red), gen=gen)
            current = pool.cell(ms).redundancy
            if best is not None:
                assert current <= best
            best = current
            assert best == min(redundancies[:gen])
