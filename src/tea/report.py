"""Run aggregation: detection tables, memory inefficiency, population series.

Detection counts how many runs ended with a memory cell whose match
sequence equals each true trend exactly.  Inefficiency is the pooled
fraction of redundant values among all values stored in the memory
cells that map to true trends: a cell holding [2.0, 2.5, 3.0] for the
trend [2.0, 2.5] carries one redundant value out of three, i.e. 33%.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import CategorySeq
from .engine import RunStats
from .memory import MemoryPool


@dataclass
class DetectionTable:
    trends: list[CategorySeq]
    n_runs: int
    detections: dict[CategorySeq, int]
    redundant: dict[CategorySeq, int]
    total_detected: int
    detection_rate: float
    total_redundant: int
    inefficiency_rate: float


def trend_order(truth) -> list[CategorySeq]:
    """Canonical display/reporting order: shortest first, then by value."""
    return sorted(truth, key=lambda t: (len(t), t))


def inefficiency(pools: list[MemoryPool], truth) -> float:
    """Redundant values / total stored values, over cells mapping to truth."""
    truth = set(truth)
    redundant = 0
    stored = 0
    for pool in pools:
        for cell in pool:
            if cell.ms in truth:
                redundant += cell.redundancy
                stored += len(cell.tracker_values)
    return redundant / stored if stored else 0.0


def detection_table(runs: list[RunStats], truth) -> DetectionTable:
    if not runs:
        raise ValueError("need at least one run")
    trends = trend_order(truth)
    detections = {t: 0 for t in trends}
    redundant = {t: 0 for t in trends}
    for run in runs:
        for trend in trends:
            cell = run.final_memory.cell(trend)
            if cell is not None:
                detections[trend] += 1
                redundant[trend] += cell.redundancy
    total = sum(detections.values())
    pools = [run.final_memory for run in runs]
    return DetectionTable(
        trends=trends,
        n_runs=len(runs),
        detections=detections,
        redundant=redundant,
        total_detected=total,
        detection_rate=total / (len(trends) * len(runs)) if trends else 0.0,
        total_redundant=sum(redundant.values()),
        inefficiency_rate=inefficiency(pools, truth),
    )


def population_series(runs: list[RunStats]) -> list[dict]:
    """Per-generation pool-size stats and mean matching-tracker counts."""
    if not runs:
        return []
    n_gens = len(runs[0].records)
    trends = trend_order(runs[0].records[0].matching) if runs[0].records else []
    columns = [(f"match {format_seq(trend)}", trend) for trend in trends]
    rows = []
    for g in range(n_gens):
        recs = [run.records[g] for run in runs]
        sizes = [r.pool_size for r in recs]
        row = {
            "generation": recs[0].gen,
            "pool_mean": sum(sizes) / len(sizes),
            "pool_min": min(sizes),
            "pool_max": max(sizes),
        }
        for column, trend in columns:
            row[column] = sum(r.matching[trend] for r in recs) / len(recs)
        rows.append(row)
    return rows


# ---------------------------------------------------------------- rendering


def format_value(v: float) -> str:
    """An integral value as an int while it is exact (below 2**53), else the float."""
    v = float(v)
    return str(int(v)) if v.is_integer() and abs(v) < 2**53 else str(v)


def format_seq(seq) -> str:
    return "[" + ",".join(format_value(v) for v in seq) + "]"


def render_detection_table(table: DetectionTable) -> str:
    """The rows of detection_table_rows as text, the totals row labelled `total`."""
    rows = detection_table_rows(table)
    rows[-1]["trend"] = "total"
    lines = [f"{'trend':<22}{'detected':>10}{'redundant':>11}"]
    for row in rows:
        lines.append(
            f"{row['trend']:<22}{row['detections']:>7}/{row['runs']:<3}"
            f"{row['redundant_values']:>10}"
        )
    lines.append(f"detection rate:    {100 * table.detection_rate:.1f}%")
    lines.append(f"inefficiency rate: {100 * table.inefficiency_rate:.1f}%")
    return "\n".join(lines)


def detection_table_rows(table: DetectionTable) -> list[dict]:
    """CSV/JSON-friendly rows, one per trend plus a totals row."""
    rows = [
        {
            "trend": format_seq(trend),
            "detections": table.detections[trend],
            "runs": table.n_runs,
            "redundant_values": table.redundant[trend],
        }
        for trend in table.trends
    ]
    rows.append(
        {
            "trend": "TOTAL",
            "detections": table.total_detected,
            "runs": len(table.trends) * table.n_runs,
            "redundant_values": table.total_redundant,
        }
    )
    return rows
