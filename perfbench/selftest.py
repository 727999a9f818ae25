"""Quick tests for the benchmark's independent checks.

    python3 perfbench/selftest.py

Each check first passes on a real output of `tea`, then fails on a copy
of that output with one thing corrupted.  Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import random
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tea import cli, engine  # noqa: E402
from tea.baseline import random_search  # noqa: E402
from tea.encoding import PricePoint, encode  # noqa: E402
from tea.matching import enumerate_trends  # noqa: E402
from tea.memory import MemoryCell  # noqa: E402
from tea.population import PoolConfig  # noqa: E402

A = engine.ANTIGEN_A.seq


class TruthAndBanding(unittest.TestCase):
    def test_window_counter_matches_oracle(self):
        for seq in (A, engine.ANTIGEN_A1.seq, (1, 1, 1, 1), (1, 2, 3)):
            checks.check_truth(seq, enumerate_trends(seq))

    def test_truth_with_a_trend_missing_or_added_fails(self):
        truth = enumerate_trends(A)
        with self.assertRaises(CheckFailed):
            checks.check_truth(A, set(truth) - {min(truth)})
        with self.assertRaises(CheckFailed):
            checks.check_truth(A, set(truth) | {(9.0, 9.0)})

    def setUp(self):
        closes = workloads.random_walk(3, 80, 1.0)
        self.deltas = [b - a for a, b in zip(closes, closes[1:])]
        points = [PricePoint(float(t), c) for t, c in enumerate(closes)]
        self.banded = list(encode(points, 0.5).seq)

    def test_banding_passes(self):
        checks.check_banding(self.deltas, self.banded, 0.5)

    def test_banding_corruptions_fail(self):
        i = next(k for k, b in enumerate(self.banded) if abs(b) >= 1.0)
        for bad in (-self.banded[i], self.banded[i] - 0.5 * (1 if self.banded[i] > 0 else -1),
                    self.banded[i] + 0.25, self.banded[i] * 3):
            corrupt = list(self.banded)
            corrupt[i] = bad
            with self.assertRaises(CheckFailed, msg=f"{self.banded[i]} -> {bad}"):
                checks.check_banding(self.deltas, corrupt, 0.5)


class RunChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = engine.preset_spec("exp3")
        cls.config = engine.preset_config()
        cls.stats = engine.run_experiment(cls.spec, cls.config, 0)
        cls.truth = checks.truth_of(A)

    def check(self, stats):
        checks.check_run(stats, [A], self.truth, self.config.min_pool, 50)

    def test_real_run_passes(self):
        self.check(self.stats)

    def corrupted(self):
        return copy.deepcopy(self.stats)

    def test_pool_below_floor_fails(self):
        stats = self.corrupted()
        stats.records[7].pool_size = self.config.min_pool - 1
        with self.assertRaises(CheckFailed):
            self.check(stats)

    def test_missing_generation_fails(self):
        stats = self.corrupted()
        del stats.records[-1]
        with self.assertRaises(CheckFailed):
            self.check(stats)

    def test_redundancy_rising_fails(self):
        stats = self.corrupted()
        replaced = next(e for e in stats.memory_events if e.action == "replaced")
        first = next(e for e in stats.memory_events if e.ms == replaced.ms)
        replaced.redundancy = first.redundancy + 1
        with self.assertRaises(CheckFailed):
            self.check(stats)

    def test_memory_not_matching_events_fails(self):
        stats = self.corrupted()
        del stats.memory_events[-1]
        with self.assertRaises(CheckFailed):
            self.check(stats)

    def _corrupt_cell(self, **changes):
        stats = self.corrupted()
        cell = next(iter(stats.final_memory))
        fields = dict(ms=cell.ms, tracker_values=cell.tracker_values,
                      redundancy=cell.redundancy, created_gen=cell.created_gen)
        fields.update(changes)
        stats.final_memory._cells[cell.ms] = MemoryCell(**fields)
        with self.assertRaises(CheckFailed):
            checks.check_memory_pool(stats.final_memory, [A])

    def test_cell_with_wrong_redundancy_fails(self):
        cell = next(iter(self.stats.final_memory))
        self._corrupt_cell(redundancy=cell.redundancy + 1)

    def test_cell_whose_tracker_lacks_the_ms_fails(self):
        cell = next(iter(self.stats.final_memory))
        self._corrupt_cell(tracker_values=tuple(reversed(cell.ms)) + (-9.0,) * len(cell.ms))

    def test_cell_whose_ms_does_not_repeat_fails(self):
        self._corrupt_cell(ms=(2, -0.5, 2, 1, 2, -0.5), tracker_values=(2, -0.5, 2, 1, 2, -0.5),
                           redundancy=0)

    def test_random_search_memory_passes(self):
        closes = workloads.random_walk(3, 60, 1.0)
        antigen = encode([PricePoint(float(t), c) for t, c in enumerate(closes)], 0.5)
        result = random_search(antigen, 300, PoolConfig(band_width=0.5), random.Random(1))
        checks.check_memory_pool(result.memory, [antigen.seq])
        self.assertTrue(result.detected <= checks.truth_of(antigen.seq))


class OutDirChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (HERE / "out").mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=HERE / "out"))
        cls.good = cls.tmp / "good"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", "--preset", "exp2", "--runs", "2", "--seed", "3", "--out", str(cls.good)])
        cls.antigens = [engine.ANTIGEN_A1.seq, engine.ANTIGEN_A2.seq]
        cls.truth = checks.truth_of(*cls.antigens)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def check(self, out):
        return checks.check_out_dir(out, range(3, 5), self.antigens, self.truth, 20, 50)

    def test_real_output_passes(self):
        work = self.check(self.good)
        self.assertGreater(work["trends_detected"], 0)

    def copy(self, name):
        out = self.tmp / name
        shutil.copytree(self.good, out)
        return out

    def edit_csv(self, path, change):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        change(rows)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    def test_detection_csv_count_changed_fails(self):
        out = self.copy("csv")

        def bump(rows):
            rows[0]["detections"] = str(int(rows[0]["detections"]) + 1)
        self.edit_csv(out / "detection.csv", bump)
        with self.assertRaises(CheckFailed):
            self.check(out)

    def test_detection_json_rate_changed_fails(self):
        out = self.copy("json")
        doc = json.loads((out / "detection.json").read_text())
        doc["detection_rate"] += 0.01
        (out / "detection.json").write_text(json.dumps(doc))
        with self.assertRaises(CheckFailed):
            self.check(out)

    def test_memory_row_dropped_fails(self):
        out = self.copy("memory")
        path = out / "memory_seed3.txt"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        with self.assertRaises(CheckFailed):
            self.check(out)

    def test_pool_below_floor_fails(self):
        out = self.copy("population")

        def shrink(rows):
            rows[12]["pool_min"] = "19"
        self.edit_csv(out / "population.csv", shrink)
        with self.assertRaises(CheckFailed):
            self.check(out)

    def test_rerun_with_other_bytes_fails(self):
        out = self.copy("rerun")
        first = checks.snapshot_files(self.good)
        checks.check_identical(first, checks.snapshot_files(out), "copy")
        with open(out / "population.csv", "a") as fh:
            fh.write("\n")
        with self.assertRaises(CheckFailed):
            checks.check_identical(first, checks.snapshot_files(out), "rerun")


if __name__ == "__main__":
    unittest.main()
