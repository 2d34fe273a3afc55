"""Every name that a module of src/ziphasse imports is read in that module,
and the CLI module starts without the stdlib's heavy introspection modules.

The first is a linter's unused-import rule (F401) written with the stdlib
ast, so tier-1 needs no linter.  __init__.py is skipped, because it imports
to re-export, and so is an import on a line marked ``# noqa: F401``: a name
that other code looks up in that module.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
SOURCES = sorted((SRC / "ziphasse").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every name that source imports and never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


def test_the_check_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import (\n"
        "    gcd,\n"
        "    lcm,  # noqa: F401  re-exported\n"
        "    prod,\n"
        ")\n"
        "from fractions import Fraction\n"
        "def f(x: Fraction):\n"
        "    return os.path.join(str(gcd(x, 2)))\n")
    assert unused_imports(source) == [(3, "j"), (7, "prod")]


def test_the_package_has_modules_to_check():
    assert {"root_datum.py", "zip_core.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def loaded_modules(code: str) -> set:
    """The names in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # against a bare interpreter, which may itself load inspect at start-up
    added = loaded_modules("import ziphasse.cli_report") - loaded_modules("pass")
    assert "ziphasse.cli_report" in added
    assert not {"dataclasses", "inspect"} & added
