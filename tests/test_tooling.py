"""The benchmark tracer's bindings: every quditc import kept only for
benchmark/tracing.py names one of its bindings, and every binding resolves,
so that the list of tracer-only imports stays exact.  Importing the package
starts no process pool.  The README names every compile and bench flag.
The A/B timing harness runs a tree against itself."""
import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quditc.cli import build_parser
from test_adaptive import _benchmark_tracing

MARK = "a binding benchmark/tracing.py wraps"
SRC = Path(__file__).resolve().parents[1] / "src" / "quditc"
README = SRC.parents[1] / "README.md"


def marked_imports():
    """(module, name, line) of every imported name on a marked line, and
    the (module, line) of every marked line."""
    names, lines = [], []
    for path in sorted(SRC.glob("*.py")):
        module = f"quditc.{path.stem}"
        text = path.read_text()
        lines += [(module, n) for n, line in enumerate(text.splitlines(), 1) if MARK in line]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [(module, alias.asname or alias.name, alias.lineno)
                          for alias in node.names]
    marked = set(lines)
    return [(m, name, n) for m, name, n in names if (m, n) in marked], lines


def test_every_marked_import_is_a_binding():
    bindings = {(module, attr) for module, attr, _, _ in _benchmark_tracing().BINDINGS}
    imports, lines = marked_imports()
    assert sorted({(m, n) for m, _, n in imports}) == sorted(lines)  # each mark is an import
    assert imports
    for module, name, line in imports:
        assert (module, name) in bindings, f"{module}:{line} imports {name}, not a binding"


def test_every_binding_resolves():
    for module, attr, _, _ in _benchmark_tracing().BINDINGS:
        assert callable(getattr(importlib.import_module(module), attr))


def test_package_imports_no_pool():
    # The benchmark runner times its setup, quditc.bench's import included.
    code = ("import sys, quditc, quditc.bench; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["compile", "bench"])
def test_readme_names_every_flag(command):
    text = README.read_text()
    start = text.index("## Command line")
    section = text[start:text.index("\n## ", start)]
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    flags = [flag for action in parser._actions for flag in action.option_strings
             if flag not in ("-h", "--help")]
    assert flags
    # a flag that is a prefix of another (--cost-limit) is not named by it
    missing = [flag for flag in flags if not re.search(re.escape(flag) + r"(?![\w-])", section)]
    assert missing == [], f"README's Command line section does not name {missing}"


def test_ab_harness_runs_a_tree_against_itself():
    # two copies of one tree, loaded under distinct names, give the same
    # results on every instance
    root = SRC.parents[1]
    out = subprocess.run([sys.executable, str(root / "tools" / "ab.py"), "--a", str(root),
                          "--b", str(root), "--workload", "haar3-exhaust", "--seed", "1",
                          "--instances", "2", "--rounds", "2"],
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["records_identical"] is True
    assert sorted(report["architectures"]) == ["bridge-3", "path-3", "star-3"]
    for arch in report["architectures"].values():
        low, high = arch["interval_95"]
        assert 0 < low <= high and math.isfinite(high)
        assert arch["ratio"] > 0 and arch["a_min_ms"] > 0 and arch["b_min_ms"] > 0
