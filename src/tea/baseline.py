"""Random-search comparator.

Streams the value tuples of one big random tracker population (same
distribution and draws as the evolving pool's initialisation), binds
and admits each distinct tuple once, and keeps the least redundant
tracker per repeating match sequence.  No proliferation, mutation, or
memory feedback: this is the budget-for-budget baseline the evolving
search has to beat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .encoding import Antigen, CategorySeq
from .matching import longest_match
from .memory import MemoryPool
from .population import PoolConfig, random_values


@dataclass
class RandomSearchResult:
    population_size: int
    detected: frozenset[CategorySeq]
    memory: MemoryPool


def random_search(
    antigen: Antigen, population_size: int, config: PoolConfig, rng: random.Random
) -> RandomSearchResult:
    """One-shot random population bound against the full antigen."""
    if population_size < 0:
        raise ValueError(f"population size must be >= 0, got {population_size}")
    seq, memory = antigen.seq, MemoryPool()
    # the antigen is fixed, so a repeated value tuple repeats its match, and
    # memory could only reject it again: bind each tuple once, in draw order
    for values in dict.fromkeys(random_values(config, rng, population_size)):
        match = longest_match(values, seq, config.bind_threshold)
        if match.is_trend_match:
            memory.consider(values, match, gen=0)
    return RandomSearchResult(population_size, memory.detected_trends(), memory)
