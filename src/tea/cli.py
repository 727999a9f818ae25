"""Command line surface.

Subcommands:
  oracle         exact repeated-trend enumeration for an antigen
  run            seeded batch of a built-in experiment preset
  random-search  one-shot random population baseline
  detect         encode a price CSV and run a single presentation phase

`tea --show-config` prints every pool default in config-file syntax.
Human-readable tables go to stdout; with --out DIR machine-readable
CSV/JSON copies are written alongside.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

from .baseline import random_search
from .config_io import config_lines, load_config
from .encoding import Antigen, PricePoint, encode
from .engine import (
    FIXTURES,
    ExperimentSpec,
    PresentationPhase,
    preset_config,
    preset_spec,
    run_batch,
)
from .matching import count_occurrences, enumerate_trends
from .population import PoolConfig
from .report import (
    detection_table,
    detection_table_rows,
    format_seq,
    population_series,
    render_detection_table,
    trend_order,
)


def parse_antigen(text: str) -> Antigen:
    """A fixture name (A, A1, A2) or a comma-separated pre-banded row."""
    if text in FIXTURES:
        return FIXTURES[text]
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise SystemExit(
            f"error: {text!r} is neither a named antigen ({', '.join(FIXTURES)}) "
            "nor a comma-separated value row"
        )
    return Antigen(values, "custom")


def read_prices(path) -> list[PricePoint]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"timestamp", "close"} - set(reader.fieldnames):
            raise SystemExit("error: price CSV needs a 'timestamp,close' header")
        try:
            return [PricePoint(float(r["timestamp"]), float(r["close"])) for r in reader]
        except (TypeError, ValueError) as exc:  # a short row's missing field is None
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None


def _write_csv(path: Path, rows: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _emit_batch(runs, truth, out_dir):
    table = detection_table(runs, truth)
    print(render_detection_table(table))
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "detection.csv", detection_table_rows(table))
    with open(out / "detection.json", "w") as fh:
        json.dump(
            {
                "n_runs": table.n_runs,
                "detection_rate": table.detection_rate,
                "inefficiency_rate": table.inefficiency_rate,
                "rows": detection_table_rows(table),
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    series = population_series(runs)
    if series:
        _write_csv(out / "population.csv", series)
    for run in runs:
        lines = run.final_memory.to_rows()
        (out / f"memory_seed{run.seed}.txt").write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )
    print(f"wrote machine-readable output to {out}/")


def _config_from_args(args, base: PoolConfig) -> PoolConfig:
    if getattr(args, "config", None):
        return load_config(args.config, base=base)
    return base


def cmd_oracle(args):
    antigen = parse_antigen(args.antigen)
    for trend in trend_order(enumerate_trends(antigen)):
        print(f"{format_seq(trend)}  x{count_occurrences(trend, antigen)}")


def cmd_run(args):
    spec = preset_spec(args.preset)
    config = _config_from_args(args, preset_config())
    runs = run_batch(spec, config, args.runs, args.seed)
    print(f"preset {args.preset}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
    _emit_batch(runs, spec.truth, args.out)


def cmd_random_search(args):
    antigen = parse_antigen(args.antigen)
    config = _config_from_args(args, preset_config())
    truth = trend_order(enumerate_trends(antigen))
    header = f"{'pop size':>10}  " + "  ".join(f"{format_seq(t):^12}" for t in truth) + "  total"
    print(header)
    rows = []
    for size in args.population_size:
        result = random_search(antigen, size, config, random.Random(args.seed))
        marks = ["x" if t in result.detected else "." for t in truth]
        print(
            f"{size:>10}  "
            + "  ".join(f"{m:^12}" for m in marks)
            + f"  {len(result.detected & frozenset(truth))}"
        )
        rows.append(
            {
                "population_size": size,
                **{format_seq(t): int(t in result.detected) for t in truth},
                "total": len(result.detected & frozenset(truth)),
            }
        )
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "random_search.csv", rows)
        print(f"wrote machine-readable output to {out}/")


def cmd_detect(args):
    antigen = encode(read_prices(args.input), args.band_width, label=Path(args.input).stem)
    if len(antigen) < 2:
        raise SystemExit("error: need at least 3 price rows to look for trends")
    base = PoolConfig(band_width=args.band_width)
    config = _config_from_args(args, base)
    total = max(args.generations, len(antigen))
    spec = ExperimentSpec(
        phases=[PresentationPhase(1, len(antigen), antigen)],
        total_generations=total,
    )
    runs = run_batch(spec, config, args.runs, args.seed)
    print(f"antigen ({len(antigen)} banded changes): {format_seq(antigen.seq)}")
    _emit_batch(runs, spec.truth, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tea", description="Immune-memory-inspired price trend detection"
    )
    parser.add_argument(
        "--show-config", action="store_true", help="print every pool default and exit"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("oracle", help="enumerate the exact repeated trends of an antigen")
    p.add_argument("antigen", help="A, A1, A2 or a comma-separated banded row")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("run", help="run a built-in experiment preset")
    p.add_argument("--preset", required=True, choices=["exp1", "exp2", "exp3"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="flat key=value pool config overrides")
    p.add_argument("--out", help="directory for CSV/JSON output")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("random-search", help="random population baseline")
    p.add_argument(
        "--population-size", type=int, action="append", required=True, metavar="K",
        help="repeatable; one result row per size",
    )
    p.add_argument("--antigen", default="A")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_random_search)

    p = sub.add_parser("detect", help="encode a price CSV and detect its trends")
    p.add_argument("--input", required=True, help="CSV with a timestamp,close header")
    p.add_argument("--band-width", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generations", type=int, default=50)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.show_config:
        print("\n".join(config_lines(PoolConfig())))
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
