"""Command line interface, including byte-identical reruns."""

import json

import pytest

from tea.cli import main, parse_antigen, read_prices

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
        with pytest.raises(SystemExit):
            parse_antigen("hello world")


class TestOracle:
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


class TestShowConfig:
    def test_prints_every_field(self, capsys):
        assert main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert "band_width = 1.0" in out
        assert "shortening_enabled = true" in out


class TestRun:
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

    def test_rejects_missing_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,price\n0,10\n1,11\n")
        with pytest.raises(SystemExit):
            read_prices(bad)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("timestamp,close\n0,10\n1,ten\n", "line 3"),
            ("timestamp,close\n0,10\n1\n", "line 3"),
            (None, "No such file"),
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


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["init_size = 1.5\n", "band_width = nan\n"])
    def test_bad_config_is_an_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["run", "--preset", "exp1", "--runs", "1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
