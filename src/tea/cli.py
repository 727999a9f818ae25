"""Command line surface.

Subcommands:
  oracle         every repeated trend of an antigen, with its exact count
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
import math
import os
import random
import sys
from pathlib import Path

from .baseline import random_search
from .config_io import config_lines, load_config
from .encoding import Antigen, PricePoint, encode
from .engine import (
    FIXTURES,
    PRESETS,
    ExperimentSpec,
    PresentationPhase,
    preset_config,
    preset_spec,
    run_batch,
)
from .matching import enumerate_trends, trend_counts
from .population import PoolConfig
from .report import (
    detection_table,
    detection_table_rows,
    format_seq,
    population_series,
    render_detection_table,
    trend_order,
)


def _row(text: str) -> tuple[float, ...]:
    """The values of a comma-separated row; ValueError if it is none."""
    return tuple(float(v) for v in text.split(","))


def parse_antigen(text: str) -> Antigen:
    """A fixture name (A, A1, A2) or a comma-separated pre-banded row."""
    if text in FIXTURES:
        return FIXTURES[text]
    try:
        values = _row(text)
    except ValueError:
        raise ValueError(
            f"{text!r} is neither a named antigen ({', '.join(FIXTURES)}) "
            "nor a comma-separated value row"
        ) from None
    return Antigen(values, "custom")


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_prices(path) -> list[PricePoint]:
    with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel's BOM is not a column
        reader = csv.DictReader(fh)
        # a short row's missing field is None, and csv.Error is a field
        # longer than csv.field_size_limit()
        try:
            if reader.fieldnames is not None and {"timestamp", "close"} <= set(reader.fieldnames):
                return [PricePoint(_finite(r["timestamp"]), _finite(r["close"])) for r in reader]
        except (csv.Error, TypeError, ValueError) as exc:
            # the csv reader's own count: the DictReader's lags a line that fails to parse
            raise ValueError(f"{path} line {reader.reader.line_num}: {exc}") from None
    raise ValueError(f"{path}: price CSV needs a 'timestamp,close' header")


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
    rows = detection_table_rows(table)
    _write_csv(out / "detection.csv", rows)
    with open(out / "detection.json", "w") as fh:
        json.dump(
            {
                "n_runs": table.n_runs,
                "detection_rate": table.detection_rate,
                "inefficiency_rate": table.inefficiency_rate,
                "rows": rows,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    _write_csv(out / "population.csv", population_series(runs))
    for run in runs:
        lines = run.final_memory.to_rows()
        (out / f"memory_seed{run.seed}.txt").write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )
    print(f"wrote machine-readable output to {out}/")


def _config_from_args(args, base: PoolConfig) -> PoolConfig:
    return load_config(args.config, base) if args.config else base


def cmd_oracle(args):
    counts = trend_counts(parse_antigen(args.antigen))
    for trend in trend_order(counts):
        print(f"{format_seq(trend)}  x{counts[trend]}")


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
    names = [format_seq(t) for t in truth]
    print(f"{'pop size':>10}  " + "  ".join(f"{n:^12}" for n in names) + "  total")
    rows = []
    for size in args.population_size:
        result = random_search(antigen, size, config, random.Random(args.seed))
        marks = [int(t in result.detected) for t in truth]
        print(f"{size:>10}  " + "  ".join(f"{'.x'[m]:^12}" for m in marks) + f"  {sum(marks)}")
        rows.append({"population_size": size, **dict(zip(names, marks)), "total": sum(marks)})
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "random_search.csv", rows)
        print(f"wrote machine-readable output to {out}/")


def cmd_detect(args):
    if args.generations < 1:
        raise ValueError(f"--generations must be >= 1, got {args.generations}")
    antigen = encode(read_prices(args.input), args.band_width, label=Path(args.input).stem)
    if len(antigen) < 2:
        raise ValueError("need at least 3 price rows to look for trends")
    config = _config_from_args(args, PoolConfig(band_width=args.band_width))
    if config.band_width != args.band_width:
        # the antigen is banded at --band-width; trackers must band on the same grid
        raise ValueError(
            f"config band_width {config.band_width:g} differs from --band-width {args.band_width:g}"
        )
    total = max(args.generations, len(antigen))
    spec = ExperimentSpec(
        phases=[PresentationPhase(1, antigen)],
        total_generations=total,
    )
    runs = run_batch(spec, config, args.runs, args.seed)
    print(f"antigen ({len(antigen)} banded changes): {format_seq(antigen.seq)}")
    _emit_batch(runs, spec.truth, args.out)


class _Parser(argparse.ArgumentParser):
    """argparse, but a value row such as -1,2,-1,2 is an argument, not an option.

    argparse reads only a single negative number as an argument; a row
    that starts with a minus sign would otherwise need `--` or `--antigen=`.
    """

    def _parse_optional(self, arg_string):
        try:
            _row(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tea", description="Immune-memory-inspired price trend detection"
    )
    parser.add_argument(
        "--show-config", action="store_true", help="print every pool default and exit"
    )
    sub = parser.add_subparsers(dest="command")
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--config", help="flat key=value pool config overrides")
    batch.add_argument("--out", help="directory for CSV/JSON output")

    p = sub.add_parser("oracle", help="enumerate the exact repeated trends of an antigen")
    p.add_argument("antigen", help="A, A1, A2 or a comma-separated banded row")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("run", parents=[batch], help="run a built-in experiment preset")
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("random-search", parents=[batch], help="random population baseline")
    p.add_argument(
        "--population-size", type=int, action="append", required=True, metavar="K",
        help="repeatable; one result row per size",
    )
    p.add_argument("--antigen", default="A")
    p.set_defaults(func=cmd_random_search)

    p = sub.add_parser("detect", parents=[batch], help="encode a price CSV and detect its trends")
    p.add_argument("--input", required=True, help="CSV with a timestamp,close header")
    p.add_argument("--band-width", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--generations", type=int, default=50)
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.show_config:
        parser.print_help()
        return 2
    try:
        if args.show_config:
            print("\n".join(config_lines(PoolConfig())))
        else:
            args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`tea ... | head`): send what is left to
        # devnull, so the flush at exit cannot fail again, and exit 1 as
        # Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
