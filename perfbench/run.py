"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exp3-full --seed 1 --seconds 40 --trace 0

Run it from the root of the repository.  It calls `tea` in-process from
one process and one thread.  The operations run in whole rounds until
`--seconds` is used up, always at least two rounds; each round starts
with timed set-ups from a fresh import of `tea`.  Every operation's
output is checked independently (see checks.py), and every round must do
exactly the work of the first.

`--trace 0` prints the end-to-end metrics.  `--trace 1` traces set-up
once, then alternates untraced and traced rounds and prints the
per-layer metrics, including the tracing overhead; its spans go to
perfbench/results/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
starts with `work ` and gives the work one round did.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402  (the script's own directory is on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402


def import_tea(names):
    """Import tea afresh: drop every loaded tea module first."""
    for mod in [m for m in sys.modules if m == "tea" or m.startswith("tea.")]:
        del sys.modules[mod]
    for name in names:
        importlib.import_module(name)
    return sys.modules["tea"]


class Runner:
    """Runs whole rounds of a workload's operations and checks each output."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_work = None
        self.setup_times = []

    def problem(self, text):
        self.correct = False
        print(f"check failed: {text}", file=sys.stderr)

    def set_up(self):
        """One timed set-up from a fresh import of tea, checked afterwards."""
        gc.collect()
        start = time.perf_counter()
        self.wl.setup(import_tea(self.wl.modules))
        self.setup_times.append(time.perf_counter() - start)
        self.wl.check_setup()

    def round(self, round_no, tracer=None):
        """One round in a seeded rotation; returns {op key: seconds}.

        Untraced rounds start with `setup_repeats` timed set-ups, so that
        set-up is sampled across the whole run.
        """
        wl = self.wl
        if tracer is None:
            for _ in range(wl.setup_repeats):
                self.set_up()
        wl.start_round(round_no)
        shift = self.rng.randrange(len(wl.ops))
        times, work = {}, {}
        for key, op in wl.ops[shift:] + wl.ops[:shift]:
            gc.collect()
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op()
                else:
                    tracer.enter("bench.op", time.perf_counter())
                    try:
                        result = op()
                    finally:
                        tracer.exit()
                        tracer.end_op()
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            finally:
                times[key] = time.perf_counter() - start
            try:
                work[key] = wl.finish(key, result)
            except checks.CheckFailed as exc:
                self.problem(f"{wl.name} {key} round {round_no}: {exc}")
        if self.first_work is None:
            self.first_work = work
        elif work != self.first_work:
            self.problem(f"{wl.name} round {round_no} did other work than round 0")
        return times

    def rounds(self, seconds, min_rounds, step=None):
        """Yield whole rounds until the next one would end after `seconds`.

        `step(n)` runs round n and returns {op key: seconds}; by default
        it is one untraced round.
        """
        step = step or self.round
        begin = time.perf_counter()
        longest = 0.0
        for n in itertools.count(1):
            times = step(n - 1)
            longest = max(longest, sum(times.values()))
            yield times
            if n >= min_rounds and time.perf_counter() - begin + longest > seconds:
                return


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, runner):
    rounds = list(runner.rounds(args.seconds, min_rounds=2))
    per_op = [statistics.median(r[key] for r in rounds) for key in rounds[0]]
    return {
        "wall_s": metric(sum(per_op), "s"),
        "op_p50_ms": metric(1000 * statistics.median(per_op), "ms"),
        "setup_s": metric(statistics.median(runner.setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "trends_detected": metric(
            sum(w["trends_detected"] for w in (runner.first_work or {}).values()), "count"),
    }


def per_layer(args, wl, runner):
    """Trace set-up once, then alternate untraced and traced rounds.

    Untraced and traced rounds take turns, so that a slow phase of the
    machine falls on both; the overhead is the difference of their
    medians, and the layers are those of the median traced round.
    """
    runner.set_up()  # imports tea
    tea = sys.modules["tea"]
    tracer = spans.Tracer()
    undo = spans.install(tea, tracer)
    tracer.enter("bench.setup", time.perf_counter())
    wl.setup(tea)
    tracer.exit()
    setup_agg = tracer.take()
    spans.uninstall(undo)
    wl.check_setup()

    untraced, traced = [], []

    def pair(n):
        # the untraced round's set-ups import tea afresh; trace that one
        times = runner.round(2 * n)
        untraced.append(sum(times.values()))
        undo = spans.install(sys.modules["tea"], tracer)
        try:
            traced_times = runner.round(2 * n + 1, tracer)
        finally:
            spans.uninstall(undo)
        traced.append((sum(traced_times.values()), tracer.take()))
        return {"untraced": untraced[-1], "traced": traced[-1][0]}

    for _ in runner.rounds(args.seconds, min_rounds=2, step=pair):
        pass

    wall, agg = sorted(traced, key=lambda x: x[0])[(len(traced) - 1) // 2]
    base = statistics.median(untraced)
    layers = spans.layer_metrics(spans.merge(setup_agg, agg))
    covered = sum(s for name, s in agg["self"].items()
                  if not name.startswith(("bench.", "trace.")))
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    metrics["cli.bytes_written"] = metric(
        sum(w.get("bytes_written", 0) for w in runner.first_work.values()), "count")
    metrics["trace.wall_s"] = metric(wall, "s")
    metrics["trace.untraced_wall_s"] = metric(base, "s")
    metrics["trace.overhead_s"] = metric(wall - base, "s")
    metrics["trace.overhead_share"] = metric((wall - base) / base, "ratio")
    metrics["trace.covered_share"] = metric(covered / base, "ratio")

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{wl.name}-seed{args.seed}.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "spans": tracer.spans,
                   "layers": {k: v["value"] for k, v in metrics.items()}}, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tea" / "__init__.py").is_file():
        print(f"error: no tea package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workloads.WORKLOADS[args.workload](ROOT)
    runner = Runner(wl, args.seed)
    try:
        try:
            metrics = (per_layer if args.trace else end_to_end)(args, wl, runner)
        except checks.CheckFailed as exc:
            print(f"error: set-up check failed: {exc}", file=sys.stderr)
            return 1
    finally:
        wl.close()
    print("work " + json.dumps({"rounds_work": runner.first_work}, sort_keys=True))
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
