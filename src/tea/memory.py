"""Long-term memory pool.

One cell per distinct match sequence, holding the least redundant
tracker seen for it.  A candidate with a new MS is always admitted; one
with a known MS replaces the cell only if it carries less redundancy.
The pool persists for the whole run and can be cloned back into the
tracker population when a new antigen arrives, as one Tracker with a
zeroed record per cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .encoding import CategorySeq
from .matching import MatchResult
from .population import (
    MEMORY_CLONE,
    PoolConfig,
    Tracker,
    init_pool,
)


class MemoryAdmissionError(ValueError):
    """Raised when a non-trend candidate reaches the memory pool."""


@dataclass
class MemoryCell:
    ms: CategorySeq
    tracker_values: CategorySeq
    redundancy: int
    created_gen: int


class MemoryPool:
    """Keyed by MS; redundancy per key only ever decreases."""

    def __init__(self):
        self._cells: dict[CategorySeq, MemoryCell] = {}

    def __len__(self):
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells.values())

    def __contains__(self, ms):
        return tuple(ms) in self._cells

    def cell(self, ms) -> MemoryCell | None:
        return self._cells.get(tuple(ms))

    def consider(self, tracker_values, match: MatchResult, gen: int) -> str:
        """Admit, replace, or reject a proliferating tracker.

        Returns one of "inserted", "replaced", "rejected".
        """
        if not match.is_trend_match:
            raise MemoryAdmissionError(
                f"memory candidate must be a repeating trend (ml={match.ml}, sf={match.sf})"
            )
        existing = self._cells.get(match.ms)
        if existing is not None and match.redundancy >= existing.redundancy:
            return "rejected"
        self._cells[match.ms] = MemoryCell(
            ms=match.ms,
            tracker_values=tuple(tracker_values),
            redundancy=match.redundancy,
            created_gen=gen,
        )
        return "inserted" if existing is None else "replaced"

    def feedback_clones(self, config: PoolConfig, rng: random.Random) -> list[Tracker]:
        """One tracker per cell, topped up to min_pool with extra copies.

        Feedback clones start with zeroed SF/ML records so they can
        immediately re-proliferate against a new antigen.  An empty
        memory pool falls back to a fresh random pool.
        """
        if not self._cells:
            return init_pool(config, rng)
        cells = [Tracker(c.tracker_values, MEMORY_CLONE) for c in self._cells.values()]
        extra = [cells[rng.randrange(len(cells))] for _ in range(config.min_pool - len(cells))]
        return cells + extra

    def detected_trends(self) -> frozenset[CategorySeq]:
        """A trend counts as detected only when some cell's MS equals it."""
        return frozenset(self._cells)

    # -- snapshot format: ms;tracker_values;redundancy;created_gen ------

    def to_rows(self) -> list[str]:
        rows = []
        for c in self._cells.values():
            ms, values = ",".join(map(repr, c.ms)), ",".join(map(repr, c.tracker_values))
            rows.append("%s;%s;%d;%d" % (ms, values, c.redundancy, c.created_gen))
        return rows
