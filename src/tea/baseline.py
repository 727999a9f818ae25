"""Random-search comparator.

Generates one big random tracker population (same distribution as the
evolving pool's initialisation), binds every tracker to the antigen
once, and keeps the least redundant tracker per repeating match
sequence.  No proliferation, mutation, or memory feedback: this is the
budget-for-budget baseline the evolving search has to beat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .encoding import Antigen, CategorySeq
from .matching import longest_match
from .memory import MemoryPool
from .population import PoolConfig, random_tracker, new_id_source


@dataclass
class RandomSearchResult:
    population_size: int
    detected: frozenset[CategorySeq]
    memory: MemoryPool


def random_search(
    antigen: Antigen, population_size: int, config: PoolConfig, rng: random.Random
) -> RandomSearchResult:
    """One-shot random population bound against the full antigen."""
    memory = MemoryPool()
    ids = new_id_source()
    for _ in range(population_size):
        tracker = random_tracker(config, rng, ids, gen=0)
        match = longest_match(tracker.values, antigen, config.bind_threshold)
        if match.is_trend_match:
            memory.consider(tracker.values, match, gen=0)
    return RandomSearchResult(
        population_size=population_size,
        detected=memory.detected_trends(),
        memory=memory,
    )
