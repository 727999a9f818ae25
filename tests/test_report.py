"""Detection tables, inefficiency, and rendering."""

import pytest

from tea.matching import MatchResult
from tea import report
from tea.memory import MemoryPool
from tea.report import (
    detection_table,
    detection_table_rows,
    format_seq,
    format_value,
    inefficiency,
    population_series,
    render_detection_table,
    trend_order,
)
from tea.engine import GenRecord, RunStats


def pool_with(*entries):
    """entries: (ms, redundancy) pairs; tracker is ms padded with 9s."""
    pool = MemoryPool()
    for ms, red in entries:
        tracker = tuple(ms) + (9.0,) * red
        match = MatchResult(ms=tuple(ms), sf=2, ml=len(ms), redundancy=red)
        pool.consider(tracker, match, gen=1)
    return pool


class TestInefficiency:
    def test_worked_example(self):
        # one redundant value out of three stored is 33.3%
        pool = pool_with(((2.0, 2.5), 1))
        assert inefficiency([pool], {(2.0, 2.5)}) * 100 == pytest.approx(33.3, abs=0.1)

    def test_pooled_over_runs(self):
        a = pool_with(((1.0, 2.0), 0))
        b = pool_with(((1.0, 2.0), 2))
        # 2 redundant out of (2 + 4) stored values
        assert inefficiency([a, b], {(1.0, 2.0)}) == pytest.approx(2 / 6)

    def test_ignores_cells_outside_truth(self):
        pool = pool_with(((1.0, 2.0), 0), ((3.0, 4.0), 5))
        assert inefficiency([pool], {(1.0, 2.0)}) == 0.0

    def test_empty_is_zero(self):
        assert inefficiency([], {(1.0, 2.0)}) == 0.0
        assert inefficiency([MemoryPool()], {(1.0, 2.0)}) == 0.0


class TestDetectionTable:
    def runs(self):
        return [
            RunStats(seed=0, final_memory=pool_with(((1.0, 2.0), 0), ((2.0, 1.0), 1))),
            RunStats(seed=1, final_memory=pool_with(((1.0, 2.0), 2))),
        ]

    def test_counts_and_rates(self):
        truth = {(1.0, 2.0), (2.0, 1.0), (1.0, 2.0, 1.0)}
        table = detection_table(self.runs(), truth)
        assert table.n_runs == 2
        assert table.detections[(1.0, 2.0)] == 2
        assert table.detections[(2.0, 1.0)] == 1
        assert table.detections[(1.0, 2.0, 1.0)] == 0
        assert table.total_detected == 3
        assert table.detection_rate == pytest.approx(3 / 6)
        assert table.redundant[(1.0, 2.0)] == 2
        assert table.total_redundant == 3
        # 3 redundant out of 9 stored values across the three cells
        assert table.inefficiency_rate == pytest.approx(3 / 9)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            detection_table([], {(1.0, 2.0)})

    def test_rows_include_total(self):
        table = detection_table(self.runs(), {(1.0, 2.0)})
        rows = detection_table_rows(table)
        assert rows[-1]["trend"] == "TOTAL"
        assert rows[0] == {
            "trend": "[1,2]",
            "detections": 2,
            "runs": 2,
            "redundant_values": 2,
        }

    def test_render_mentions_rates(self):
        text = render_detection_table(detection_table(self.runs(), {(1.0, 2.0)}))
        assert "detection rate:    100.0%" in text
        assert "inefficiency rate:" in text
        assert "[1,2]" in text


class TestFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1.0, "1"),
            (-0.5, "-0.5"),
            (2.5, "2.5"),
            (0.0, "0"),
            (-2.0, "-2"),
            (2.0**53 - 1, "9007199254740991"),
            (-(2.0**53), "-9007199254740992.0"),
            (1e308, "1e+308"),
        ],
    )
    def test_format_value(self, value, expected):
        assert format_value(value) == expected

    def test_format_seq(self):
        assert format_seq((1.0, 2.0, -0.5)) == "[1,2,-0.5]"

    def test_trend_order_shortest_first(self):
        trends = [(1.0, 2.0, 1.0), (2.0, 1.0), (1.0, 2.0)]
        assert trend_order(trends) == [(1.0, 2.0), (2.0, 1.0), (1.0, 2.0, 1.0)]


class TestPopulationSeries:
    def test_means_over_runs_with_one_label_per_trend(self, monkeypatch):
        # each trend's column label is built once per call, not once per generation
        labels = []
        label = report.format_seq

        def counted(seq):
            labels.append(seq)
            return label(seq)

        monkeypatch.setattr(report, "format_seq", counted)
        a, ab = (1.0,), (1.0, 2.0)
        runs = [
            RunStats(seed=s, records=[GenRecord(g, size + g, {ab: g, a: s}) for g in range(3)])
            for s, size in ((0, 10), (1, 20))
        ]
        rows = population_series(runs)
        assert labels == [a, ab]
        assert rows == [
            {
                "generation": g, "pool_mean": 15.0 + g, "pool_min": 10 + g, "pool_max": 20 + g,
                "match [1]": 0.5, "match [1,2]": float(g),
            }
            for g in range(3)
        ]
        assert [list(row) for row in rows] == [
            ["generation", "pool_mean", "pool_min", "pool_max", "match [1]", "match [1,2]"]
        ] * 3
