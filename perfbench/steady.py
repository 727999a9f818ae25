"""Steadiness check: repeat each workload and report the spread of its metrics.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --save perfbench/results/set-a.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --compare perfbench/results/set-a.json

Runs `run.py --trace 0` once per seed, one run at a time, and prints for
every end-to-end metric of every workload the median, the quartiles
(`statistics.quantiles(values, n=4)`), the spread (quartile distance
over the median) and the bound from BENCHMARK.json.  It also checks that
every run was correct, that no operation failed and that every run did
exactly the same work.  With --compare it also prints how far each
median moved from a saved set.  Exits non-zero if a check or a bound
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["work"] = json.loads(lines[-2][len("work "):])
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write every run's result to this JSON file")
    parser.add_argument("--compare", help="a file written by --save to compare medians with")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    before = json.loads(Path(args.compare).read_text()) if args.compare else {}

    ok = True
    saved = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        saved[workload] = runs
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run was not correct")
            ok = False
        shares = {(r["failed"], r["attempted"]) for r in runs}
        if len({f / a for f, a in shares}) != 1:
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
            ok = False
        if len({json.dumps(r["work"], sort_keys=True) for r in runs}) != 1:
            print(f"{workload}: runs did different work")
            ok = False
        print(f"{workload}: {len(runs)} runs, attempted "
              f"{sorted({r['attempted'] for r in runs})}, failed {runs[0]['failed']}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}"
              + (f"{'moved':>9}" if before else ""))
        for name, spec in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            line = (f"  {name:<16}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}"
                    f"{100 * s['spread']:>8.2f}%{100 * spec['bound']:>7.1f}%")
            if s["spread"] > spec["bound"]:
                line += "  SPREAD OVER BOUND"
                ok = False
            if before.get(workload):
                old = statistics.median(r["metrics"][name]["value"] for r in before[workload])
                moved = (s["median"] - old) / old
                worse = -moved if spec["better"] == "higher" else moved
                line += f"{100 * moved:>+8.2f}%"
                if worse > spec["bound"]:
                    line += "  WORSE BY MORE THAN BOUND"
                    ok = False
            print(line, flush=True)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
