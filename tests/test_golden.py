"""Golden output: `tea --out` files pinned byte for byte.

The files under tests/golden/ are the output of

    tea run --preset exp1 --runs 3 --seed 0 --out tests/golden/exp1
    tea run --preset exp2 --runs 3 --seed 0 --out tests/golden/exp2
    tea run --preset exp3 --runs 1 --seed 40 --out tests/golden/exp3
    tea run --preset exp1 --runs 3 --seed 0 --config tests/golden/loose.cfg --out tests/golden/exp1-loose
    tea run --preset exp2 --runs 3 --seed 0 --config tests/golden/loose.cfg --out tests/golden/exp2-loose
    tea random-search --antigen A --population-size 50 --population-size 500 \
        --population-size 4000 --seed 1 --out tests/golden/random-search
    tea detect --input tests/golden/walk60.csv --band-width 0.5 --runs 3 --seed 0 \
        --out tests/golden/detect-walk60

run from the repository root, where loose.cfg holds the one line
`bind_threshold = 0.5` and walk60.csv is a 60-change Gaussian random
walk from 100 (step std 1, random.Random(2)).

exp3 at seed 40 grows its pool to over 10,000 trackers, most of them
sharing their values with others, so it pins the binding of repeated
trackers as well as the run-wide observation counts.  The two loose sets
pin binding within a threshold, where the windows a run binds may differ
from each other, and the carry of a bind past a new value out of reach.
random-search pins 4,550 naive trackers' draws; detect-walk60 pins the
draws of mutation on a long antigen and of a re-seed after its pool
empties.

Any change to binding, the draw order of the random stream, pool
dynamics, memory admission or report formatting shows up here.  A
change that means to alter these bytes regenerates the files with the
commands above and says why.
"""

from pathlib import Path

import pytest

from tea.cli import main

GOLDEN = Path(__file__).parent / "golden"
LOOSE = ["--config", str(GOLDEN / "loose.cfg")]
# golden directory -> the tea arguments that write it, less --out
RUNS = {
    "exp1": ["run", "--preset", "exp1", "--runs", "3", "--seed", "0"],
    "exp2": ["run", "--preset", "exp2", "--runs", "3", "--seed", "0"],
    "exp3": ["run", "--preset", "exp3", "--runs", "1", "--seed", "40"],
    "exp1-loose": ["run", "--preset", "exp1", "--runs", "3", "--seed", "0", *LOOSE],
    "exp2-loose": ["run", "--preset", "exp2", "--runs", "3", "--seed", "0", *LOOSE],
    "random-search": [
        "random-search", "--antigen", "A", "--population-size", "50",
        "--population-size", "500", "--population-size", "4000", "--seed", "1",
    ],
    "detect-walk60": [
        "detect", "--input", str(GOLDEN / "walk60.csv"), "--band-width", "0.5",
        "--runs", "3", "--seed", "0",
    ],
}


@pytest.mark.parametrize("golden", sorted(RUNS))
def test_run_output_matches_golden(golden, tmp_path):
    out = tmp_path / "out"
    assert main(RUNS[golden] + ["--out", str(out)]) == 0
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / golden).iterdir())}
    got = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{golden}/{name} differs from the golden copy"
