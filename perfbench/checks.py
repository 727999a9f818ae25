"""Independent checks on the outputs of every benchmark operation.

Nothing here calls `tea.matching` or `tea.report`, and nothing compares
against stored copies of earlier output: every expected value is
recomputed from the inputs with code of this file's own.  Each check
raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path


class CheckFailed(AssertionError):
    """An operation's output disagrees with an independent recomputation."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ------------------------------------------------------------ window counter


def window_counts(seq) -> Counter:
    """Occurrences of every window of length >= 2 that occurs at least twice.

    A window can repeat only if its prefix one shorter repeats, so the
    scan stops at the first length with no repeat.
    """
    seq = tuple(seq)
    repeated = Counter()
    for length in range(2, len(seq)):
        counts = Counter(seq[i : i + length] for i in range(len(seq) - length + 1))
        found = {w: c for w, c in counts.items() if c >= 2}
        if not found:
            break
        repeated.update(found)
    return repeated


def truth_of(*seqs) -> frozenset:
    """Union of the repeated trends of each sequence."""
    out = set()
    for seq in seqs:
        out |= set(window_counts(seq))
    return frozenset(out)


def check_truth(seq, oracle_truth) -> frozenset:
    """The oracle's trend set must equal the window counter's."""
    mine = truth_of(seq)
    require(
        mine == frozenset(oracle_truth),
        f"oracle disagrees with window counter: {len(oracle_truth)} vs {len(mine)} trends",
    )
    return mine


def occurrences(pattern, seq) -> int:
    pattern, seq = tuple(pattern), tuple(seq)
    m = len(pattern)
    return sum(1 for i in range(len(seq) - m + 1) if seq[i : i + m] == pattern)


# ------------------------------------------------------------------- banding


def check_banding(deltas, banded, width: float) -> None:
    """Banded values keep each raw delta's sign and never shrink it.

    They also sit on the band grid and overshoot by less than one band.
    """
    require(len(deltas) == len(banded), "banded series has the wrong length")
    tol = 1e-6 * width
    for i, (d, b) in enumerate(zip(deltas, banded)):
        if d == 0:
            require(b == 0, f"zero delta {i} banded to {b}")
            continue
        require(math.copysign(1.0, b) == math.copysign(1.0, d) and b != 0,
                f"delta {i} changed sign: {d} -> {b}")
        require(abs(b) >= abs(d) - tol, f"delta {i} shrank: {d} -> {b}")
        require(abs(b) < abs(d) + width + tol, f"delta {i} overshot a band: {d} -> {b}")
        steps = abs(b) / width
        require(abs(steps - round(steps)) < 1e-6, f"delta {i} banded off the grid: {b}")


# -------------------------------------------------------------------- memory


def check_cell(ms, tracker, redundancy: int, antigens) -> None:
    """A memory cell's MS repeats in one of its antigens and sits in its tracker."""
    ms, tracker = tuple(ms), tuple(tracker)
    require(len(ms) >= 2, f"memory MS {ms} is shorter than 2")
    require(
        any(occurrences(ms, a) >= 2 for a in antigens),
        f"memory MS {ms} does not occur twice in its antigen",
    )
    require(occurrences(ms, tracker) >= 1, f"tracker {tracker} does not contain MS {ms}")
    require(
        redundancy == len(tracker) - len(ms),
        f"cell {ms} redundancy {redundancy} != {len(tracker)} - {len(ms)}",
    )


def check_memory_pool(pool, antigens) -> None:
    for cell in pool:
        check_cell(cell.ms, cell.tracker_values, cell.redundancy, antigens)


def check_memory_events(events, final_pool) -> None:
    """Per MS: one insert, then replacements whose redundancy only falls."""
    last = {}
    for ev in events:
        if ev.ms not in last:
            require(ev.action == "inserted", f"first event for {ev.ms} is {ev.action}")
        else:
            require(ev.action == "replaced", f"second admission of {ev.ms} is {ev.action}")
            require(ev.redundancy < last[ev.ms],
                    f"memory redundancy for {ev.ms} rose {last[ev.ms]} -> {ev.redundancy}")
        last[ev.ms] = ev.redundancy
    final = {cell.ms: cell.redundancy for cell in final_pool}
    require(final == last, "final memory does not match its event log")


def check_run(stats, antigens, truth, min_pool: int, generations: int) -> None:
    """One RunStats: pool floor, memory cells, memory monotonicity."""
    require(len(stats.records) == generations,
            f"{len(stats.records)} generation records, expected {generations}")
    for rec in stats.records:
        require(rec.pool_size >= min_pool, f"gen {rec.gen}: pool {rec.pool_size} < {min_pool}")
    check_memory_pool(stats.final_memory, antigens)
    check_memory_events(stats.memory_events, stats.final_memory)
    require(stats.final_memory.detected_trends() <= truth, "memory holds a non-trend MS")


# ------------------------------------------------------------- --out files


def _parse_values(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _parse_trend(text: str) -> tuple:
    require(text.startswith("[") and text.endswith("]"), f"bad trend cell {text!r}")
    return _parse_values(text[1:-1])


def read_memory_files(out: Path) -> dict:
    """{seed: [(ms, tracker, redundancy), ...]} from memory_seed<N>.txt."""
    runs = {}
    for path in out.glob("memory_seed*.txt"):
        cells = []
        for row in path.read_text().splitlines():
            if row.strip():
                ms, tracker, red, _gen = row.split(";")
                cells.append((_parse_values(ms), _parse_values(tracker), int(red)))
        runs[int(path.stem[len("memory_seed"):])] = cells
    return runs


def check_out_dir(out: Path, seeds, antigens, truth, min_pool: int, generations: int) -> dict:
    """Check one `tea run --out` directory against its memory snapshots.

    Returns the work it read: memory cells, peak pool, bytes written and
    true trends held in final memory, summed over the runs.
    """
    runs = read_memory_files(out)
    require(sorted(runs) == list(seeds), f"memory snapshots for seeds {sorted(runs)}")
    trends = sorted(truth, key=lambda t: (len(t), t))
    detections = {t: 0 for t in trends}
    redundant = {t: 0 for t in trends}
    red_total = stored_total = 0
    for cells in runs.values():
        for ms, tracker, red in cells:
            check_cell(ms, tracker, red, antigens)
            require(ms in truth, f"memory MS {ms} is not a true trend")
            detections[ms] += 1
            redundant[ms] += red
            red_total += red
            stored_total += len(tracker)
    n = len(runs)
    expected = [(t, detections[t], n, redundant[t]) for t in trends]
    total_det = sum(detections.values())
    expected.append(("TOTAL", total_det, len(trends) * n, sum(redundant.values())))

    def as_rows(rows):
        return [
            ("TOTAL" if r["trend"] == "TOTAL" else _parse_trend(r["trend"]),
             int(r["detections"]), int(r["runs"]), int(r["redundant_values"]))
            for r in rows
        ]

    with open(out / "detection.csv", newline="") as fh:
        require(as_rows(csv.DictReader(fh)) == expected, "detection.csv disagrees with memory")
    doc = json.loads((out / "detection.json").read_text())
    require(doc["n_runs"] == n, "detection.json n_runs is wrong")
    require(as_rows(doc["rows"]) == expected, "detection.json rows disagree with memory")
    require(math.isclose(doc["detection_rate"], total_det / (len(trends) * n), rel_tol=1e-12),
            "detection.json detection_rate is wrong")
    ineff = red_total / stored_total if stored_total else 0.0
    require(math.isclose(doc["inefficiency_rate"], ineff, rel_tol=1e-12, abs_tol=1e-15),
            "detection.json inefficiency_rate is wrong")

    with open(out / "population.csv", newline="") as fh:
        pop = list(csv.DictReader(fh))
    require(len(pop) == generations, f"population.csv has {len(pop)} generations")
    for row in pop:
        require(float(row["pool_min"]) >= min_pool,
                f"gen {row['generation']}: pool_min {row['pool_min']} < {min_pool}")
    return {
        "memory_cells": sum(len(c) for c in runs.values()),
        "peak_pool": max(int(float(row["pool_max"])) for row in pop),
        "bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        "trends_detected": total_det,
    }


def snapshot_files(out: Path) -> dict:
    """{file name: bytes} for a byte-identity comparison between reruns."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def check_identical(first: dict, again: dict, what: str) -> None:
    require(sorted(first) == sorted(again), f"{what}: rerun wrote other files")
    for name in first:
        require(first[name] == again[name], f"{what}: rerun changed {name}")
