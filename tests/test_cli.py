"""Command line interface, including byte-identical reruns."""

import contextlib
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tea.cli
import tea.engine
from tea.cli import main, parse_antigen, read_prices
from tea.matching import count_occurrences, enumerate_trends
from tea.report import format_seq, trend_order

# keeps CLI runs fast: tiny bursts, short schedule is still the preset's
FAST_CFG = """
band_width = 0.5
gaussian_mean = 1.2
gaussian_std = 0.5
init_len_min = 2
clone_factor = 1
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


class TestParseAntigen:
    def test_fixture_names(self):
        assert parse_antigen("A").label == "A"
        assert len(parse_antigen("A1")) == 10

    def test_custom_row(self):
        antigen = parse_antigen("1,2,-0.5")
        assert antigen.seq == (1.0, 2.0, -0.5)
        assert antigen.label == "custom"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_antigen("hello world")


class TestOracle:
    def test_bad_antigen_is_an_error_line(self, capsys):
        for row, message in [
            ("hello", "neither a named antigen"),
            ("inf,inf,inf,1", "non-finite"),
            ("nan,1,nan,1", "non-finite"),
        ]:
            assert main(["oracle", row]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and message in captured.err
            assert len(captured.err.splitlines()) == 1

    def test_full_antigen(self, capsys):
        assert main(["oracle", "A"]) == 0
        out = capsys.readouterr().out
        assert "[1,2]  x4" in out
        assert "[2,1,2,-0.5]  x2" in out
        assert len(out.strip().splitlines()) == 8

    def test_custom_antigen(self, capsys):
        main(["oracle", "1,2,1,2"])
        out = capsys.readouterr().out
        assert "[1,2]  x2" in out

    def test_row_with_a_leading_minus_is_the_antigen(self, capsys):
        # argparse alone reads -1,2,-1,2 as an unknown option
        for argv in (["oracle", "-1,2,-1,2"], ["oracle", "--", "-1,2,-1,2"]):
            assert main(argv) == 0
            assert capsys.readouterr() == ("[-1,2]  x2\n", "")

    def test_huge_values_print_as_floats(self, capsys):
        assert main(["oracle", "1e308,-1e308,1e308,-1e308"]) == 0
        out = capsys.readouterr().out
        assert "[1e+308,-1e+308]  x2" in out
        assert max(len(line) for line in out.splitlines()) < 80

    @given(
        row=st.lists(st.sampled_from(["-0", "0", "0.0", "1", "-1", "2.5"]), min_size=1, max_size=60)
    )
    @settings(max_examples=200)
    def test_counts_equal_a_scan_per_trend(self, row):
        # -0 and 0 are one value, so each trend's count is count_occurrences'
        seq = tuple(map(float, row))
        expected = "".join(
            f"{format_seq(t)}  x{count_occurrences(t, seq)}\n"
            for t in trend_order(enumerate_trends(seq))
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["oracle", "--", ",".join(row)]) == 0
        assert out.getvalue() == expected


class TestShowConfig:
    def test_prints_every_field(self, capsys):
        assert main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert "band_width = 1.0" in out
        assert "shortening_enabled = true" in out


class TestRun:
    def test_offers_the_engine_presets(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "exp9"])
        # newer argparse versions print the choices without quotes
        choices = re.search(r"\(choose from (.*)\)", capsys.readouterr().err).group(1)
        assert choices.replace("'", "").split(", ") == list(tea.engine.PRESETS)

    def test_writes_machine_readable_output(self, tmp_path, fast_config, capsys):
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "run",
                    "--preset",
                    "exp1",
                    "--runs",
                    "2",
                    "--seed",
                    "0",
                    "--config",
                    fast_config,
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        assert (out_dir / "detection.csv").exists()
        assert (out_dir / "population.csv").exists()
        assert (out_dir / "memory_seed0.txt").exists()
        assert (out_dir / "memory_seed1.txt").exists()
        payload = json.loads((out_dir / "detection.json").read_text())
        assert payload["n_runs"] == 2
        assert "detection rate" in capsys.readouterr().out

    def test_stdout_table_is_pinned(self, fast_config, capsys):
        argv = ["run", "--preset", "exp1", "--runs", "2", "--seed", "0", "--config", fast_config]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "preset exp1: 2 runs, seeds 0..1\n"
            "trend                   detected  redundant\n"
            "[1,2]                       2/2           0\n"
            "[2,-0.5]                    0/2           0\n"
            "[2,1]                       2/2           0\n"
            "[1,2,-0.5]                  0/2           0\n"
            "[1,2,1]                     2/2           0\n"
            "[2,1,2]                     2/2           1\n"
            "[2,1,2,-0.5]                0/2           0\n"
            "total                       8/14          1\n"
            "detection rate:    57.1%\n"
            "inefficiency rate: 4.8%\n"
        )

    def test_pool_limit_under_a_loose_threshold(self, tmp_path, capsys, monkeypatch):
        # exp3's preset config with bind_threshold = 0.5 grows its pool without
        # bound; with the limit patched down it stops in generation 13
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("bind_threshold = 0.5\n")
        monkeypatch.setattr(tea.engine, "MAX_POOL", 150_000)
        argv = ["run", "--preset", "exp3", "--runs", "1", "--config", str(cfg)]
        assert main(argv) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: generation 13: the pool would grow to ")
        assert "past the limit of 150,000" in last

    def test_gaussian_with_no_band_is_one_error_line(self, tmp_path, capsys):
        # a finite mean whose draws have no band at the preset's width 0.5 is
        # named by its config keys before the run starts, not by a draw midway
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("gaussian_mean = 1e308\n")
        assert main(["run", "--preset", "exp1", "--runs", "1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: gaussian_mean 1e+308 +/- 6 gaussian_std 0.45 has no band at band_width 0.5\n"
        )
        assert captured.out == ""

    def test_reruns_are_byte_identical(self, tmp_path, fast_config):
        dirs = [tmp_path / "first", tmp_path / "second"]
        for d in dirs:
            main(
                [
                    "run",
                    "--preset",
                    "exp3",
                    "--runs",
                    "2",
                    "--seed",
                    "3",
                    "--config",
                    fast_config,
                    "--out",
                    str(d),
                ]
            )
        for name in ("detection.csv", "detection.json", "population.csv", "memory_seed3.txt"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestRandomSearch:
    def test_table_and_csv(self, tmp_path, fast_config, capsys):
        out_dir = tmp_path / "rs"
        assert (
            main(
                [
                    "random-search",
                    "--population-size",
                    "50",
                    "--population-size",
                    "500",
                    "--antigen",
                    "A",
                    "--seed",
                    "0",
                    "--config",
                    fast_config,
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pop size" in out
        assert (out_dir / "random_search.csv").read_text().count("\n") == 3  # header + 2 rows

    def test_stdout_and_csv_are_pinned(self, tmp_path, fast_config, capsys):
        out_dir = tmp_path / "rs"
        argv = ["random-search", "--population-size", "50", "--population-size", "500",
                "--seed", "0", "--config", fast_config, "--out", str(out_dir)]
        assert main(argv) == 0
        header = "  pop size  " + "  ".join(
            f"{t:^12}"
            for t in ["[-0.5,1]", "[1,2]", "[2,-0.5]", "[2,1]",
                      "[1,2,-0.5]", "[1,2,1]", "[2,1,2]", "[2,1,2,-0.5]"]
        )
        assert capsys.readouterr().out == (
            f"{header}  total\n"
            "        50       .             x             .             x      "
            "       .             x             .             .        3\n"
            "       500       x             x             .             x      "
            "       .             x             x             .        5\n"
            f"wrote machine-readable output to {out_dir}/\n"
        )
        assert (out_dir / "random_search.csv").read_bytes() == (
            b'population_size,"[-0.5,1]","[1,2]","[2,-0.5]","[2,1]",'
            b'"[1,2,-0.5]","[1,2,1]","[2,1,2]","[2,1,2,-0.5]",total\r\n'
            b"50,0,1,0,1,0,1,0,0,3\r\n"
            b"500,1,1,0,1,0,1,1,0,5\r\n"
        )

    def test_preset_stdout_and_csv_at_4k_and_20k_are_pinned(self, tmp_path, capsys):
        out_dir = tmp_path / "rs"
        argv = ["random-search", "--population-size", "4000", "--population-size", "20000",
                "--antigen", "A", "--seed", "0", "--out", str(out_dir)]
        assert main(argv) == 0
        header = "  pop size  " + "  ".join(
            f"{t:^12}"
            for t in ["[-0.5,1]", "[1,2]", "[2,-0.5]", "[2,1]",
                      "[1,2,-0.5]", "[1,2,1]", "[2,1,2]", "[2,1,2,-0.5]"]
        )
        assert capsys.readouterr().out == (
            f"{header}  total\n"
            "      4000       .             x             x             x      "
            "       .             x             x             .        5\n"
            "     20000       x             x             x             x      "
            "       .             x             x             .        6\n"
            f"wrote machine-readable output to {out_dir}/\n"
        )
        assert (out_dir / "random_search.csv").read_bytes() == (
            b'population_size,"[-0.5,1]","[1,2]","[2,-0.5]","[2,1]",'
            b'"[1,2,-0.5]","[1,2,1]","[2,1,2]","[2,1,2,-0.5]",total\r\n'
            b"4000,0,1,1,1,0,1,1,0,5\r\n"
            b"20000,1,1,1,1,0,1,1,0,6\r\n"
        )

    def test_antigen_row_with_a_leading_minus(self, capsys):
        for antigen in (["--antigen", "-0.5,1,-0.5,1"], ["--antigen=-0.5,1,-0.5,1"]):
            assert main(["random-search", "--population-size", "200", "--seed", "1", *antigen]) == 0
            assert capsys.readouterr() == (
                "  pop size    [-0.5,1]    total\n"
                "       200       x        1\n",
                "",
            )

    def test_negative_size_is_an_error_line(self, capsys):
        assert main(["random-search", "--population-size", "-5"]) == 2
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1  # the header, no result row
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_non_finite_antigen_is_an_error_line(self, capsys):
        assert main(["random-search", "--population-size", "100", "--antigen", "nan,nan,nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "non-finite" in captured.err
        assert len(captured.err.splitlines()) == 1


class TestDetect:
    def write_prices(self, path):
        rows = ["timestamp,close"]
        closes = [10.0, 11.0, 13.0, 14.0, 13.5, 14.5, 16.5, 17.5]
        rows += [f"{i},{c}" for i, c in enumerate(closes)]
        path.write_text("\n".join(rows) + "\n")

    def test_runs_on_csv(self, tmp_path, fast_config, capsys):
        csv_path = tmp_path / "prices.csv"
        self.write_prices(csv_path)
        assert (
            main(
                [
                    "detect",
                    "--input",
                    str(csv_path),
                    "--band-width",
                    "0.5",
                    "--runs",
                    "2",
                    "--config",
                    fast_config,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "banded changes" in out
        assert "detection rate" in out

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_band_width_is_an_error_line(self, tmp_path, capsys, width):
        csv_path = tmp_path / "prices.csv"
        self.write_prices(csv_path)
        assert main(["detect", "--input", str(csv_path), "--band-width", width]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive and finite" in err
        assert len(err.splitlines()) == 1

    def test_huge_band_width_is_an_error_line(self, tmp_path, capsys):
        # only --band-width was given; the default gaussian_std of 2 band widths overflows
        csv_path = tmp_path / "prices.csv"
        self.write_prices(csv_path)
        argv = ["detect", "--input", str(csv_path), "--runs", "1", "--band-width", "1e308"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: band_width 1e+308 ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_pool_limit_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # a 100-change walk whose pool passes 5,000 trackers in generation 90,
        # after a re-seed whose warning may also reach stderr
        rng = random.Random(3)
        closes = [100.0]
        for _ in range(100):
            closes.append(closes[-1] + rng.gauss(0.0, 1.0))
        path = tmp_path / "walk.csv"
        path.write_text("timestamp,close\n" + "".join(f"{t},{c}\n" for t, c in enumerate(closes)))
        monkeypatch.setattr(tea.engine, "MAX_POOL", 5000)
        argv = ["detect", "--input", str(path), "--band-width", "1", "--runs", "1", "--seed", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1
        assert "generation 90: the pool would grow to 5,002 trackers" in errors[0]
        assert "past the limit of 5,000" in errors[0]

    @pytest.mark.parametrize("generations", ["0", "-3"])
    def test_generations_below_one_is_an_error_line(self, tmp_path, capsys, generations):
        csv_path = tmp_path / "prices.csv"
        self.write_prices(csv_path)
        argv = ["detect", "--input", str(csv_path), "--runs", "1", "--generations", generations]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --generations must be >= 1, got {generations}\n"
        assert captured.out == ""

    def test_config_band_width_must_match_the_flag(self, tmp_path, capsys):
        # the antigen is banded at --band-width, so trackers may not band on another grid
        csv_path = tmp_path / "prices.csv"
        self.write_prices(csv_path)
        cfg = tmp_path / "quarter.cfg"
        cfg.write_text("band_width = 0.25\n")
        argv = ["detect", "--input", str(csv_path), "--band-width", "1", "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert "band_width 0.25" in captured.err and "--band-width 1" in captured.err
        assert captured.out == ""

    def test_reads_a_csv_with_a_byte_order_mark(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        self.write_prices(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_prices(marked) == read_prices(plain)
        outs = []
        for path in (plain, marked):
            assert main(["detect", "--input", str(path), "--runs", "1"]) == 0
            outs.append(capsys.readouterr().out.split("\n", 1)[1])  # after the label line
        assert outs[0] == outs[1]

    def test_rejects_missing_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,price\n0,10\n1,11\n")
        with pytest.raises(ValueError):
            read_prices(bad)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("timestamp,close\n0,10\n1,ten\n", "line 3"),
            ("timestamp,close\n0,10\n1\n", "line 3"),
            (None, "No such file"),
            ("time,price\n0,10\n1,11\n2,12\n", "'timestamp,close' header"),
            ("timestamp,close\n0,10\n1,11\n", "at least 3 price rows"),
            ("timestamp,close\n0,10\n1,inf\n2,12\n", "line 3: non-finite value 'inf'"),
            ("timestamp,close\n0,10\n1,nan\n2,12\n", "line 3: non-finite value 'nan'"),
            ("timestamp,close\n0,10\nnan,11\n2,12\n", "line 3: non-finite value 'nan'"),
            ("timestamp,close\n0,1e308\n1,-1e308\n2,1e308\n", "price change -inf has no band"),
        ],
    )
    def test_bad_csv_is_an_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "prices.csv"
        if text is not None:
            path.write_text(text)
        assert main(["detect", "--input", str(path), "--runs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_past_the_csv_size_limit_is_an_error_line(self, tmp_path, capsys, line):
        # a 200,000-digit close (or column name) passes csv.field_size_limit()
        rows = ["timestamp,close", "0,10", "1,11", "2,12"]
        rows[line - 1] = rows[line - 1].split(",")[0] + "," + "1" * 200_000
        path = tmp_path / "prices.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["detect", "--input", str(path), "--runs", "1"]) == 2
        err = capsys.readouterr().err
        limit = csv.field_size_limit()
        assert err == f"error: {path} line {line}: field larger than field limit ({limit})\n"

    def test_band_width_off_the_nine_place_grid_is_one_error_line(self, tmp_path, capsys):
        # closes that only rise; banded at 1e-10 on a 9-place grid they read
        # as the flat antigen [0,0,0,0,0]
        path = tmp_path / "rise.csv"
        path.write_text("timestamp,close\n" + "".join(f"{t},10.000000000{t}\n" for t in range(6)))
        assert main(["detect", "--input", str(path), "--band-width", "1e-10"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: band width 1e-10 is off the grid of 9 decimal places bands round to\n"
        )
        assert captured.out == ""


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_closed_stdout_exits_quietly(self):
        # like `tea oracle ... | head -1`: the reader closes the pipe after one
        # line, while about 600 kB of trends, far more than a pipe holds, wait
        row = ",".join(str(i % 7 + 1) for i in range(300))
        src = Path(tea.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "tea.cli", "oracle", row],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"[1,2]  x43\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    @pytest.mark.parametrize(
        "text,command",
        [
            # a run case is named by its config text alone
            pytest.param(text, command, id=text if command == "run" else f"{text}-{command}")
            for command in ["run", "random-search", "detect"]
            for text in [
                "init_size = 1.5\n",
                "band_width = nan\n",
                "init_size = 1000000000\n",
                "clone_factor = 1000000000\n",
                "bind_threshold = inf\n",
                # each setting is within its bound; together they ask for 10**10 values
                "init_size = 100000\ninit_len_min = 100000\ninit_len_max = 100000\n",
            ]
        ],
    )
    def test_bad_config_is_an_error_line(self, tmp_path, capsys, command, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        prices = tmp_path / "prices.csv"
        prices.write_text("timestamp,close\n0,10\n1,11\n2,10\n3,11\n")
        argv = {
            "run": ["run", "--preset", "exp1", "--runs", "1"],
            "random-search": ["random-search", "--population-size", "50"],
            "detect": ["detect", "--input", str(prices), "--runs", "1"],
        }[command]
        assert main(argv + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
