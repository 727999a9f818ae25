"""Golden output: `tea run --out` files pinned byte for byte.

The files under tests/golden/ are the output of

    tea run --preset exp1 --runs 3 --seed 0 --out tests/golden/exp1
    tea run --preset exp2 --runs 3 --seed 0 --out tests/golden/exp2
    tea run --preset exp3 --runs 1 --seed 40 --out tests/golden/exp3
    tea run --preset exp1 --runs 3 --seed 0 --config LOOSE --out tests/golden/exp1-loose
    tea run --preset exp2 --runs 3 --seed 0 --config LOOSE --out tests/golden/exp2-loose

where the file LOOSE holds the one line `bind_threshold = 0.5`.

exp3 at seed 40 grows its pool to over 10,000 trackers, most of them
sharing their values with others, so it pins the binding of repeated
trackers as well as the run-wide observation counts.  The two loose sets
pin binding within a threshold, where the windows a run binds may differ
from each other, and the carry of a bind past a new value out of reach.

Any change to binding, the draw order of the random stream, pool
dynamics, memory admission or report formatting shows up here.  A
change that means to alter these bytes regenerates the files with the
commands above and says why.
"""

from pathlib import Path

import pytest

from tea.cli import main

GOLDEN = Path(__file__).parent / "golden"
# golden directory -> (preset, runs, seed, config file text or None)
RUNS = {
    "exp1": ("exp1", "3", "0", None),
    "exp2": ("exp2", "3", "0", None),
    "exp3": ("exp3", "1", "40", None),
    "exp1-loose": ("exp1", "3", "0", "bind_threshold = 0.5\n"),
    "exp2-loose": ("exp2", "3", "0", "bind_threshold = 0.5\n"),
}


@pytest.mark.parametrize("golden", sorted(RUNS))
def test_run_output_matches_golden(golden, tmp_path):
    preset, runs, seed, config = RUNS[golden]
    out = tmp_path / "out"
    argv = ["run", "--preset", preset, "--runs", runs, "--seed", seed, "--out", str(out)]
    if config is not None:
        (tmp_path / "loose.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "loose.cfg")]
    assert main(argv) == 0
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / golden).iterdir())}
    got = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{golden}/{name} differs from the golden copy"
