"""Package-wide checks: no assert in the library, only standard-library
imports, a lean import of the CLI, every binding the benchmark traces
exists, the docstring examples hold, and the demos run."""

import ast
import doctest
import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "nilrep").glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert; invariants must raise NilrepError instead
    found = ["%s:%d" % (path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_library_imports_only_the_standard_library():
    # relative imports stay inside the package; every absolute one must
    # name a standard-library module
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert SOURCES and found == []


def test_cli_import_loads_no_code_generation_or_referee_modules():
    # every CLI call is a fresh interpreter that pays for what importing
    # nilrep.cli loads: not dataclasses (and with it inspect), not the
    # rationals that only the oracle uses, not the selftest checks; -S
    # keeps site hooks from loading any of them first
    code = ("import sys; sys.path.insert(0, %r); import nilrep.cli; "
            "print(*sorted(sys.modules))" % str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "nilrep.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "fractions", "decimal",
                     "nilrep.selftest"} == set()


def test_every_traced_binding_resolves():
    # perfbench/spans.py skips a binding that is gone, and the per-layer
    # metric it feeds then silently reads 0
    bindings = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))["BINDINGS"]
    missing = ["%s.%s" % (module, attr) for module, attr, _, _ in bindings
               if not hasattr(importlib.import_module(module), attr)]
    assert bindings and missing == []


def test_docstring_examples_hold():
    results = [doctest.testmod(importlib.import_module(
        "nilrep" if path.stem == "__init__" else "nilrep." + path.stem))
        for path in SOURCES]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 1


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
