"""Short-term tracker pool dynamics.

The pool starts as a small set of random trackers.  Trackers whose
match improves proliferate into mutated clones (extension or
shortening); the pool is regulated each generation by random apoptosis,
culling of clones that stopped improving, and homeostatic cloning back
up to the floor.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from dataclasses import dataclass, replace

from .encoding import band
from .matching import MatchResult

log = logging.getLogger(__name__)

NAIVE = "naive"
CLONE = "clone"
MEMORY_CLONE = "memory-clone"


class ConfigError(ValueError):
    """Raised for invalid pool configuration."""


@dataclass
class PoolConfig:
    init_size: int = 20
    init_len_min: int = 1
    init_len_max: int = 4
    gaussian_mean: float = 0.0
    gaussian_std: float | None = None  # None -> 2 band widths
    band_width: float = 1.0
    clone_factor: int = 1
    mutation_extend_prob: float = 0.5
    apoptosis_rate: float = 0.10
    min_pool: int = 20
    clone_lifespan: int = 5
    bind_threshold: float = 0.0
    shortening_enabled: bool = True

    def __post_init__(self):
        if self.gaussian_std is None:
            self.gaussian_std = 2.0 * self.band_width
        if self.init_size < 1 or self.min_pool < 1 or self.clone_factor < 1:
            raise ConfigError("sizes and clone_factor must be >= 1")
        if not 1 <= self.init_len_min <= self.init_len_max:
            raise ConfigError("bad initial length range")
        if not (math.isfinite(self.band_width) and self.band_width > 0):
            raise ConfigError("band_width must be positive and finite")
        if not (math.isfinite(self.gaussian_std) and self.gaussian_std >= 0):
            raise ConfigError("gaussian_std must be non-negative and finite")
        if not math.isfinite(self.gaussian_mean):
            raise ConfigError("gaussian_mean must be finite")
        if not 0.0 <= self.mutation_extend_prob <= 1.0:
            raise ConfigError("mutation_extend_prob must be in [0,1]")
        if not 0.0 <= self.apoptosis_rate < 1.0:
            raise ConfigError("apoptosis_rate must be in [0,1)")
        if self.clone_lifespan < 1:
            raise ConfigError("clone_lifespan must be >= 1")
        if not self.bind_threshold >= 0:
            raise ConfigError("bind_threshold must be >= 0")


@dataclass
class Tracker:
    id: int
    values: tuple[float, ...]
    origin: str
    birth_gen: int
    best_sf: int = 0
    best_ml: int = 0
    last_improvement_gen: int = 0

    def copy_with_id(self, new_id: int) -> "Tracker":
        return replace(self, id=new_id)


def new_id_source():
    """Monotone tracker id allocator; draw order follows id order."""
    return itertools.count()


def random_estimate(config: PoolConfig, rng: random.Random) -> float:
    """One Gaussian price-change draw, banded onto the category grid."""
    return band(rng.gauss(config.gaussian_mean, config.gaussian_std), config.band_width)


def random_tracker(config, rng, ids, gen, origin=NAIVE) -> Tracker:
    length = rng.randint(config.init_len_min, config.init_len_max)
    values = tuple(random_estimate(config, rng) for _ in range(length))
    return Tracker(
        id=next(ids),
        values=values,
        origin=origin,
        birth_gen=gen,
        last_improvement_gen=gen,
    )


def init_pool(config: PoolConfig, rng: random.Random, ids, gen: int = 0) -> list[Tracker]:
    """Fresh naive pool of init_size random trackers."""
    return [random_tracker(config, rng, ids, gen) for _ in range(config.init_size)]


def proliferation_check(tracker: Tracker, match: MatchResult) -> bool:
    """Gate for cloning: a repeating trend that beats the tracker's record.

    SF and ML must both exceed 1, and at least one of them must exceed
    the best the tracker has attained so far.  The caller records the
    improvement (see record_improvement) when this returns True.
    """
    return (
        match.sf > 1
        and match.ml > 1
        and (match.sf > tracker.best_sf or match.ml > tracker.best_ml)
    )


def record_improvement(tracker: Tracker, match: MatchResult, gen: int) -> None:
    tracker.best_sf = max(tracker.best_sf, match.sf)
    tracker.best_ml = max(tracker.best_ml, match.ml)
    tracker.last_improvement_gen = gen


def clone_count(match: MatchResult, config: PoolConfig) -> int:
    """Clones per proliferation event, proportional to match length."""
    return config.clone_factor * match.ml


def mutate(
    parent: Tracker,
    config: PoolConfig,
    rng: random.Random,
    current_gen: int,
    ids,
    ms_span: tuple[int, int] | None = None,
) -> Tracker:
    """One mutated clone: extend with a fresh estimate, or drop one value.

    Extension is chosen with mutation_extend_prob (always, when
    shortening is disabled).  Shortening preferentially removes a value
    outside the parent's current match window (ms_span, half-open);
    with no redundancy left the removed position is uniform over the
    whole tracker.  A length-1 parent picked for shortening is extended
    instead; clones are never empty.

    An extension clone inherits the parent's best SF/ML: its match
    window is carried over unchanged, so re-matching it is not an
    improvement.  A shortened clone is a new entity and starts from a
    zeroed record, which is what lets a leaner tracker re-submit the
    same match sequence to long-term memory.
    """
    extend = True
    if config.shortening_enabled and len(parent.values) > 1:
        extend = rng.random() < config.mutation_extend_prob
    if extend:
        values = parent.values + (random_estimate(config, rng),)
        best_sf, best_ml = parent.best_sf, parent.best_ml
    else:
        positions = range(len(parent.values))
        if ms_span is not None:
            lo, hi = ms_span
            redundant = [i for i in positions if not lo <= i < hi]
            if redundant:
                positions = redundant
        drop = positions[rng.randrange(len(positions))]
        values = parent.values[:drop] + parent.values[drop + 1 :]
        best_sf = best_ml = 0
    return Tracker(
        id=next(ids),
        values=values,
        origin=CLONE,
        birth_gen=current_gen,
        best_sf=best_sf,
        best_ml=best_ml,
        last_improvement_gen=current_gen,
    )


def apoptose(pool: list[Tracker], config: PoolConfig, rng: random.Random) -> list[Tracker]:
    """Remove floor(rate * n) trackers uniformly, regardless of fitness."""
    doomed = math.floor(config.apoptosis_rate * len(pool))
    if doomed == 0:
        return list(pool)
    dead = set(rng.sample(range(len(pool)), doomed))
    return [t for i, t in enumerate(pool) if i not in dead]


def cull_stale_clones(pool: list[Tracker], config: PoolConfig, current_gen: int) -> list[Tracker]:
    """Drop clones that have not improved within clone_lifespan generations.

    Naive and memory-clone trackers are exempt; they only die by
    apoptosis.
    """
    return [
        t
        for t in pool
        if t.origin != CLONE or current_gen - t.last_improvement_gen < config.clone_lifespan
    ]


def homeostasis(pool: list[Tracker], config: PoolConfig, rng: random.Random, ids, gen: int) -> list[Tracker]:
    """Clone uniformly chosen members until the pool is back at min_pool.

    Copies are unmutated (fresh id only).  An empty pool is re-seeded
    from scratch, born at gen; nature never actually reaches zero.
    """
    if not pool:
        log.warning("tracker pool emptied; re-seeding %d random trackers", config.init_size)
        return init_pool(config, rng, ids, gen)
    pool = list(pool)
    while len(pool) < config.min_pool:
        donor = pool[rng.randrange(len(pool))]
        pool.append(donor.copy_with_id(next(ids)))
    return pool
