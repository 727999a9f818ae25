"""Golden output: `tea run --out` files pinned byte for byte.

The files under tests/golden/ are the output of

    tea run --preset exp1 --runs 3 --seed 0 --out tests/golden/exp1
    tea run --preset exp2 --runs 3 --seed 0 --out tests/golden/exp2
    tea run --preset exp3 --runs 1 --seed 40 --out tests/golden/exp3

exp3 at seed 40 grows its pool to over 10,000 trackers, most of them
sharing their values with others, so it pins the binding of repeated
trackers as well as the run-wide observation counts.

Any change to binding, the draw order of the random stream, pool
dynamics, memory admission or report formatting shows up here.  A
change that means to alter these bytes regenerates the files with the
commands above and says why.
"""

from pathlib import Path

import pytest

from tea.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUNS_AND_SEED = {"exp1": ("3", "0"), "exp2": ("3", "0"), "exp3": ("1", "40")}


@pytest.mark.parametrize("preset", sorted(RUNS_AND_SEED))
def test_run_output_matches_golden(preset, tmp_path):
    runs, seed = RUNS_AND_SEED[preset]
    argv = ["run", "--preset", preset, "--runs", runs, "--seed", seed, "--out", str(tmp_path)]
    assert main(argv) == 0
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / preset).iterdir())}
    got = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{preset}/{name} differs from the golden copy"
