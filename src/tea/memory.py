"""Long-term memory pool.

One cell per distinct match sequence, holding the least redundant
tracker seen for it.  A candidate with a new MS is always admitted; one
with a known MS replaces the cell only if it carries less redundancy.
The pool persists for the whole run and can be cloned back into the
tracker population when a new antigen arrives.
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
        if match.ml < 2 or match.sf < 2:
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

    def feedback_clones(self, config: PoolConfig, rng: random.Random, current_gen: int, ids) -> list[Tracker]:
        """One tracker per cell, topped up to min_pool with extra copies.

        Feedback clones start with zeroed SF/ML records so they can
        immediately re-proliferate against a new antigen.  An empty
        memory pool falls back to a fresh random pool.
        """
        if not self._cells:
            return init_pool(config, rng, ids, gen=current_gen)

        def clone_of(cell: MemoryCell) -> Tracker:
            return Tracker(
                id=next(ids),
                values=cell.tracker_values,
                origin=MEMORY_CLONE,
                birth_gen=current_gen,
                last_improvement_gen=current_gen,
            )

        cells = list(self._cells.values())
        pool = [clone_of(c) for c in cells]
        while len(pool) < config.min_pool:
            pool.append(clone_of(cells[rng.randrange(len(cells))]))
        return pool

    def detected_trends(self) -> frozenset[CategorySeq]:
        """A trend counts as detected only when some cell's MS equals it."""
        return frozenset(self._cells)

    # -- snapshot format: ms;tracker_values;redundancy;created_gen ------

    def to_rows(self) -> list[str]:
        return [
            "%s;%s;%d;%d"
            % (
                ",".join(repr(v) for v in c.ms),
                ",".join(repr(v) for v in c.tracker_values),
                c.redundancy,
                c.created_gen,
            )
            for c in self._cells.values()
        ]

    @classmethod
    def from_rows(cls, rows) -> "MemoryPool":
        pool = cls()
        for row in rows:
            row = row.strip()
            if not row:
                continue
            ms_s, tv_s, red_s, gen_s = row.split(";")
            cell = MemoryCell(
                ms=tuple(float(v) for v in ms_s.split(",")),
                tracker_values=tuple(float(v) for v in tv_s.split(",")),
                redundancy=int(red_s),
                created_gen=int(gen_s),
            )
            pool._cells[cell.ms] = cell
        return pool
