"""The references the tests compare tea against live in one module and call no tea code.

tests/reference.py may import tea's data types and constants, and nothing
else from tea: a reference that called a tea function would pass every
fault it shares with that function.  No other test module may define a
reference of its own.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent

ALLOWED = {
    "Antigen",
    "PoolConfig",
    "ExperimentSpec",
    "PresentationPhase",
    "GenRecord",
    "MemoryEvent",
    "RunStats",
    "Tracker",
    "MatchResult",
    "PoolLimitError",
    # origins
    "NAIVE",
    "CLONE",
    "MEMORY_CLONE",
    # pool actions
    "POOL_ACTION_NONE",
    "POOL_ACTION_RESET",
    "POOL_ACTION_FEEDBACK",
}


def tea_imports(tree):
    """Every name imported from tea; a plain `import tea...` counts by its module name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "tea")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tea":
            yield from (a.name for a in node.names)


def references_defined(source):
    """Top-level reference_* and brute_force_* functions of a module's source."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith(("reference_", "brute_force_"))
    ]


def test_reference_imports_only_data_types_and_constants_from_tea():
    tree = ast.parse((TESTS / "reference.py").read_text())
    assert sorted(set(tea_imports(tree)) - ALLOWED) == []


def test_no_other_test_module_defines_a_reference():
    defined = [
        f"{path.name}:{name}"
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "reference.py"
        for name in references_defined(path.read_text())
    ]
    assert defined == []


def test_guard_sees_every_form_of_tea_import():
    source = (
        "import math\n"
        "import tea.engine\n"
        "from tea import Tracker\n"
        "from tea.matching import MatchResult, longest_match\n"
        "def f():\n"
        "    from tea.population import init_pool as fresh\n"
        "from teapot import band\n"
    )
    imported = set(tea_imports(ast.parse(source)))
    assert imported == {"tea.engine", "Tracker", "MatchResult", "longest_match", "init_pool"}
    assert sorted(imported - ALLOWED) == ["init_pool", "longest_match", "tea.engine"]


def test_guard_sees_only_top_level_references():
    source = (
        "def reference_band(delta, width): ...\n"
        "async def brute_force_match(tracker, seq): ...\n"
        "def banded_reference(delta): ...\n"
        "class TestBand:\n"
        "    def reference_helper(self): ...\n"
    )
    assert references_defined(source) == ["reference_band", "brute_force_match"]
