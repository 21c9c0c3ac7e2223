"""Package-wide checks: no assert in the library, and the demos run."""

import ast
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert; invariants must raise NilrepError instead
    sources = sorted((ROOT / "src" / "nilrep").glob("*.py"))
    found = ["%s:%d" % (path.name, node.lineno) for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert sources and found == []


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
