"""Golden output: `tea run --out` files pinned byte for byte.

The files under tests/golden/ are the output of

    tea run --preset exp1 --runs 3 --seed 0 --out tests/golden/exp1
    tea run --preset exp2 --runs 3 --seed 0 --out tests/golden/exp2

Any change to binding, the draw order of the random stream, pool
dynamics, memory admission or report formatting shows up here.  A
change that means to alter these bytes regenerates the files with the
commands above and says why.
"""

from pathlib import Path

import pytest

from tea.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("preset", ["exp1", "exp2"])
def test_run_output_matches_golden(preset, tmp_path):
    assert main(["run", "--preset", preset, "--runs", "3", "--seed", "0", "--out", str(tmp_path)]) == 0
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / preset).iterdir())}
    got = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{preset}/{name} differs from the golden copy"
