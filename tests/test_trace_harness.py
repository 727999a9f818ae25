"""The benchmark's span tracer (perfbench/spans.py) still fits the program.

The tracer wraps `tea` functions at the names their callers look them up
by.  A refactor that renames or removes one of those names breaks the
benchmark's `--trace 1` mode; these tests catch that in the fast suite.
The benchmark's self-test (perfbench/selftest.py) builds memory cells and
reads run statistics directly, so it runs here too.
"""

import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tea
import tea.cli
from tea.baseline import random_search
from tea.engine import ANTIGEN_A, preset_config, preset_spec, run_experiment

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(spans):
    """A tracer installed on tea, removed again after the test."""
    t = spans.Tracer()
    undo = spans.install(tea, t)
    yield t
    spans.uninstall(undo)


def test_install_wraps_and_uninstall_restores_every_name(spans):
    undo = spans.install(tea, spans.Tracer())
    try:
        assert undo
        for owner, attr, original in undo:
            assert owner.__dict__[attr] is not original, attr
    finally:
        spans.uninstall(undo)
    for owner, attr, original in undo:
        assert owner.__dict__[attr] is original, attr


def test_run_binds_each_value_tuple_once_per_prefix(tracer):
    run_experiment(preset_spec("exp1"), preset_config(), 0)
    binds = tracer.agg["calls"]["matching.bind"]
    assert binds > 0
    # exp1 never presents the same prefix twice, so no bind key repeats
    assert binds == len(tracer.bind_keys)


def test_random_search_binds_each_value_tuple_once(tracer):
    result = random_search(ANTIGEN_A, 2000, preset_config(), random.Random(0))
    binds = tracer.agg["calls"]["matching.bind"]
    assert 0 < binds == len(tracer.bind_keys) < result.population_size


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
