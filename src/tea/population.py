"""Short-term tracker pool dynamics.

The pool starts as a small set of random trackers.  Trackers whose
match improves proliferate into mutated clones (extension or
shortening); the pool is regulated each generation by random apoptosis,
culling of clones that stopped improving, and homeostatic cloning back
up to the floor.

A tracker is its values, its origin and its fitness record, and is
never changed once made: record_improvement returns an improved tracker
in place of its argument.  Pool positions with the same state can
therefore share one object.  Homeostatic copies are the donor itself,
and mutate hands out one object per child state in a generation.

Every fresh value comes from gauss_bands, an endless stream of Gaussian
draws banded with the band function of the config's width
(encoding.banding).  The stream runs random.Random.gauss's own
Box-Muller code inline, keeping the spare value in rng.gauss_next as
gauss does, so each value equals band_at(rng.gauss(mean, std)) and
leaves the rng in the same state; only the call overhead is saved.
random_values streams the value tuples of random naive trackers in
draw order; init_pool, re-seeds and the random-search baseline take
theirs from it.  mutate takes the next value of a generation's stream.
"""

from __future__ import annotations

import logging
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress, islice

from .encoding import EncodingError, banding, finite, shown
from .matching import MatchResult

log = logging.getLogger(__name__)

NAIVE = "naive"
CLONE = "clone"
MEMORY_CLONE = "memory-clone"


# Upper bound on init_size, min_pool, init_len_max and clone_factor.
# Each sizes something built at once (the initial pool, the floor, a
# tracker's values, one proliferation event's clones), so a huge value
# would exhaust memory or stall a run before it starts.  The presets use
# 1-40.
MAX_POOL_SETTING = 100_000

# Upper bound on init_size * init_len_max, the values the initial pool
# (or a re-seed) may draw at once: the two settings are each bounded
# above, but not their product.  Two million values is a small share of
# what engine.MAX_POOL trackers take.
MAX_INIT_VALUES = 2_000_000


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
        if self.init_size < 1 or self.min_pool < 1 or self.clone_factor < 1:
            raise ConfigError("sizes and clone_factor must be >= 1")
        sizes = (self.init_size, self.min_pool, self.init_len_max, self.clone_factor)
        if max(sizes) > MAX_POOL_SETTING:
            raise ConfigError(
                f"init_size, min_pool, init_len_max and clone_factor must be <= {MAX_POOL_SETTING}"
            )
        if not 1 <= self.init_len_min <= self.init_len_max:
            raise ConfigError("bad initial length range")
        if self.init_size * self.init_len_max > MAX_INIT_VALUES:
            raise ConfigError(
                f"init_size * init_len_max must be <= {MAX_INIT_VALUES}, got "
                f"{self.init_size} * {self.init_len_max}"
            )
        if not (finite(self.band_width) and self.band_width > 0):
            raise ConfigError(
                f"band_width must be positive and finite, got {shown(self.band_width)}"
            )
        if self.gaussian_std is None:
            self.gaussian_std = 2.0 * self.band_width
            if math.isinf(self.gaussian_std):  # only band_width was set
                raise ConfigError(
                    f"band_width {self.band_width:g} is too large for the default gaussian_std"
                )
        if not (finite(self.gaussian_std) and self.gaussian_std >= 0):
            raise ConfigError("gaussian_std must be non-negative and finite")
        if not finite(self.gaussian_mean):
            raise ConfigError("gaussian_mean must be finite")
        if not 0.0 <= self.mutation_extend_prob <= 1.0:
            raise ConfigError("mutation_extend_prob must be in [0,1]")
        if not 0.0 <= self.apoptosis_rate < 1.0:
            raise ConfigError("apoptosis_rate must be in [0,1)")
        if self.clone_lifespan < 1:
            raise ConfigError("clone_lifespan must be >= 1")
        if not (finite(self.bind_threshold) and self.bind_threshold >= 0):
            raise ConfigError("bind_threshold must be non-negative and finite")
        try:
            band_at = banding(self.band_width)
        except EncodingError as exc:  # a width off the grid its bands are rounded to
            raise ConfigError(f"bad band_width: {exc}") from None
        # every tracker value is a banded gauss draw, so a draw far out in
        # the tails must band too, or a run fails midway on its first such draw
        reach = 6 * self.gaussian_std
        try:
            band_at(self.gaussian_mean + reach), band_at(self.gaussian_mean - reach)
        except EncodingError:
            raise ConfigError(
                f"gaussian_mean {self.gaussian_mean:g} +/- 6 gaussian_std {self.gaussian_std:g} "
                f"has no band at band_width {self.band_width:g}"
            ) from None


# Compared and hashed by identity; no field is assigned after __init__.
# Not frozen: a frozen __init__ costs about four times as much.
@dataclass(slots=True, eq=False)
class Tracker:
    values: tuple[float, ...]
    origin: str = NAIVE
    best_sf: int = 0
    best_ml: int = 0
    last_improvement_gen: int = 0  # read only for CLONE trackers


def gauss_bands(config: PoolConfig, rng: random.Random):
    """Endless banded gauss draws: each value is band_at(rng.gauss(mean, std)).

    The body of random.Random.gauss (the same on Python 3.10 to 3.13) runs
    inline.  Each draw reads and writes rng.gauss_next, as gauss does, so
    the stream keeps in step with any other call on rng and getstate().
    """
    band_at, mean, std = banding(config.band_width), config.gaussian_mean, config.gaussian_std
    random, log, sqrt, cos, sin, tau = rng.random, math.log, math.sqrt, math.cos, math.sin, math.tau
    while True:
        z = rng.gauss_next
        rng.gauss_next = None
        if z is None:
            x2pi = random() * tau
            g2rad = sqrt(-2.0 * log(1.0 - random()))
            z = cos(x2pi) * g2rad
            rng.gauss_next = sin(x2pi) * g2rad
        yield band_at(mean + z * std)


def random_values(config: PoolConfig, rng: random.Random, n: int):
    """The values of n random naive trackers: each a randint length of gauss_bands draws."""
    randint, draws = rng.randint, gauss_bands(config, rng)
    lo, hi = config.init_len_min, config.init_len_max
    for _ in range(n):
        yield tuple(islice(draws, randint(lo, hi)))


def init_pool(config: PoolConfig, rng: random.Random) -> list[Tracker]:
    """Fresh naive pool of init_size random trackers."""
    return list(map(Tracker, random_values(config, rng, config.init_size)))


def proliferation_check(tracker: Tracker, match: MatchResult) -> bool:
    """Gate for cloning: a repeating trend that beats the tracker's record.

    SF and ML must both exceed 1, and at least one of them must exceed
    the best the tracker has attained so far.  The caller records the
    improvement (see record_improvement) when this returns True.
    """
    return match.is_trend_match and (match.sf > tracker.best_sf or match.ml > tracker.best_ml)


def record_improvement(tracker: Tracker, match: MatchResult, gen: int) -> Tracker:
    """The tracker with match recorded as its improvement at gen."""
    best_sf, best_ml = max(tracker.best_sf, match.sf), max(tracker.best_ml, match.ml)
    return Tracker(tracker.values, tracker.origin, best_sf, best_ml, gen)


def clone_count(match: MatchResult, config: PoolConfig) -> int:
    """Clones per proliferation event, proportional to match length."""
    return config.clone_factor * match.ml


def intern(tracker: Tracker, born: dict) -> Tracker:
    """The tracker in born with tracker's state, added if there is none.

    born is one generation's birth table.  It maps the state (values,
    origin, best_sf, best_ml) of each tracker made in that generation,
    all of which improved at it, to that tracker; mutate also keeps each
    parent's children there, keyed by the parent.
    """
    return born.setdefault((tracker.values, tracker.origin, tracker.best_sf, tracker.best_ml), tracker)


def mutate(
    parent: Tracker,
    config: PoolConfig,
    rng: random.Random,
    current_gen: int,
    n: int,
    ms_span: tuple[int, int],
    born: dict,
    draw: Callable[[], float],
) -> list[Tracker]:
    """The n mutated clones of one proliferation event, in draw order.

    Each clone either extends the parent with a fresh estimate or drops
    one value.  Extension is chosen with mutation_extend_prob (always,
    when shortening is disabled).  Shortening preferentially removes a
    value outside the parent's current match window (ms_span,
    half-open); with no redundancy left the removed position is uniform
    over the whole tracker.  A length-1 parent picked for shortening is
    extended instead; clones are never empty.

    An extension clone inherits the parent's best SF/ML: its match
    window is carried over unchanged, so re-matching it is not an
    improvement.  A shortened clone is a new entity and starts from a
    zeroed record, which is what lets a leaner tracker re-submit the
    same match sequence to long-term memory.

    Every clone draws as if made alone: rng.random(), then draw() (the
    next value of a gauss_bands stream on rng) or randrange.  Clones in
    the same state are one object: within the call, and across the calls
    of one generation, which share the born table (see intern).  Such
    calls reuse the children a parent already had, so within a table a
    parent must keep its ms_span, as it does in a generation, where the
    span follows from its values.
    """
    values = parent.values
    can_shorten = config.shortening_enabled and len(values) > 1
    extend_prob = config.mutation_extend_prob
    best_sf, best_ml = parent.best_sf, parent.best_ml
    children = born.get(parent)
    if children is None:
        positions = range(len(values))  # the redundant ones, if any
        positions = [i for i in positions if not ms_span[0] <= i < ms_span[1]] or positions
        # appended value -> child, dropped position -> child, droppable positions
        children = born[parent] = ({}, {}, positions)
    extended, shortened, positions = children
    clones = []
    for _ in range(n):
        if not can_shorten or rng.random() < extend_prob:
            value = draw()
            child = extended.get(value)
            if child is None:
                child = Tracker(values + (value,), CLONE, best_sf, best_ml, current_gen)
                child = extended[value] = intern(child, born)
        else:
            drop = positions[rng.randrange(len(positions))]
            child = shortened.get(drop)
            if child is None:
                child = Tracker(values[:drop] + values[drop + 1 :], CLONE, 0, 0, current_gen)
                child = shortened[drop] = intern(child, born)
        clones.append(child)
    return clones


def apoptose(pool: list[Tracker], config: PoolConfig, rng: random.Random) -> list[Tracker]:
    """Remove floor(rate * n) trackers uniformly, regardless of fitness."""
    n = len(pool)
    doomed = math.floor(config.apoptosis_rate * n)
    if doomed == 0:
        return list(pool)
    keep = [True] * n
    for i in rng.sample(range(n), doomed):
        keep[i] = False
    return list(compress(pool, keep))


def cull_stale_clones(pool: list[Tracker], config: PoolConfig, current_gen: int) -> list[Tracker]:
    """Drop clones that have not improved within clone_lifespan generations.

    Naive and memory-clone trackers are exempt; they only die by
    apoptosis.
    """
    stale = current_gen - config.clone_lifespan  # improved at or before this: stale
    return [t for t in pool if t.origin != CLONE or t.last_improvement_gen > stale]


def homeostasis(pool: list[Tracker], config: PoolConfig, rng: random.Random) -> list[Tracker]:
    """Clone uniformly chosen members until the pool is back at min_pool.

    A copy is the donor itself: an unmutated clone with the donor's
    record.  An empty pool is re-seeded from scratch; nature never
    actually reaches zero.
    """
    if not pool:
        log.warning("tracker pool emptied; re-seeding %d random trackers", config.init_size)
        return init_pool(config, rng)
    pool = list(pool)
    while len(pool) < config.min_pool:
        pool.append(pool[rng.randrange(len(pool))])
    return pool
