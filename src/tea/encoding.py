"""Price series ingestion: deltas, banding, antigen construction.

A raw price series becomes a sequence of banded price changes.  Banding
rounds every change outward to the nearest multiple of the configured
band width, so a rise of $0.40 with width $1 counts as a $1 rise.  The
banded sequence is the antigen the tracker population binds against.
banding(width) checks a width once and returns its band function, which
bands the antigen and every random draw of the trackers alike.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

# A category sequence is a plain tuple of banded price changes.  Tuples
# keep them hashable, which matching and the memory pool rely on.
CategorySeq = tuple[float, ...]


class EncodingError(ValueError):
    """Raised for malformed price series or banding configuration."""


@dataclass(frozen=True)
class PricePoint:
    timestamp: float
    close: float


@dataclass(frozen=True)
class Antigen:
    seq: CategorySeq
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(self.seq))
        bad = [v for v in self.seq if not math.isfinite(v)]
        if bad:  # no tracker could ever bind a trend holding such a value
            raise EncodingError(f"antigen {self.label!r} has a non-finite value {bad[0]}")

    def __len__(self):
        return len(self.seq)


def finite(value: float) -> bool:
    """math.isfinite, but False for an int past the largest float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def price_changes(series: list[PricePoint]) -> list[float]:
    """Close-to-close deltas in chronological order.

    Requires at least two points and strictly increasing timestamps.
    """
    if len(series) < 2:
        raise EncodingError("need at least 2 price points, got %d" % len(series))
    for prev, cur in zip(series, series[1:]):
        if cur.timestamp <= prev.timestamp:
            raise EncodingError(
                "timestamps must be strictly increasing "
                f"({prev.timestamp} followed by {cur.timestamp})"
            )
    return [cur.close - prev.close for prev, cur in zip(series, series[1:])]


def band(delta: float, width: float) -> float:
    """Round a price change outward onto a multiple of the band width.

    Zero stays zero; positive deltas go up to the next multiple,
    negative deltas down to the previous one, so the magnitude never
    shrinks: a $0.40 rise bands to $1, a -$0.30 move with width $0.5
    bands to -$0.5.  A non-finite change, or one whose band would pass
    the largest float, raises EncodingError.
    """
    return banding(width)(delta)


def _far_point(steps: int, width: float) -> float:
    """Grid point steps of width, past the kept ones; OverflowError past the largest float."""
    point = round(steps * width, 9)  # an int at an int width, so compared exactly
    if point > sys.float_info.max:
        raise OverflowError
    return point


@lru_cache(maxsize=16, typed=True)  # typed: an int width prints as an int
def banding(width: float):
    """band at one width, checked once, as a function of the delta (first 64 grid points kept)."""
    if not (finite(width) and width > 0):
        raise EncodingError(f"band width must be positive and finite, got {width}")
    # a grid point past the largest float is left out, so indexing it fails
    points = [p for p in (round(k * width, 9) for k in range(64)) if p <= sys.float_info.max]

    def band_at(delta: float) -> float:
        if delta == 0:
            return 0.0
        q = abs(delta) / width
        try:
            steps = math.ceil(q)
            # round() absorbs float noise in the quotient so banding is
            # idempotent on its own outputs (e.g. widths like 0.1).  Rounding
            # q to 9 places moves its ceiling only when q lies just above an
            # integer, and max(1, ...) matters only when q underflows to 0,
            # so only those quotients take the rounded path.
            if steps == 0 or q - (steps - 1) < 1e-6:
                steps = max(1, math.ceil(round(q, 9)))
            return math.copysign(points[steps] if steps < 64 else _far_point(steps, width), delta)
        except (OverflowError, ValueError, IndexError):  # q is infinite or nan, or no grid point
            raise EncodingError(f"price change {delta} has no band at width {width}") from None

    return band_at


def encode(series: list[PricePoint], width: float = 1.0, label: str = "") -> Antigen:
    """Band the deltas of a price series into an antigen."""
    deltas = price_changes(series)
    return Antigen(tuple(map(banding(width), deltas)), label)
