"""Every name that a module of src/ziphasse imports is read in that module,
every private name that one defines is read in one of them, the CLI module
starts without the stdlib's heavy introspection modules, and every name and
result attribute that the benchmark's tracer looks up exists.  No module
asserts or reads __debug__, so every self-check still raises under
python -O, and no module imports the Weyl-group oracle, weyl, but for one
re-export that the tracer rebinds, nor the Bareiss determinant, which
only exact_linear and __init__ name.  No module builds a record around its
checked constructor.  IntMatrix is a record whose one piece of algebra is
its product, and positivity builds no dense matrix.

The first is a linter's unused-import rule (F401) written with the stdlib
ast, so tier-1 needs no linter.  __init__.py is skipped, because it imports
to re-export, and so is an import on a line marked ``# noqa: F401``: a name
that other code looks up in that module.  The second keeps helpers that only
the tests call out of the package.  The tracer, perfbench/tracer.py, is read
and run here as source and never written to.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ziphasse.exact_linear import IntMatrix, smith_normal_form
from ziphasse.root_datum import gsp, positive_roots
from ziphasse.weyl import enumerate_weyl
from ziphasse.zip_core import build_zip_datum, orbit_census, zeta_matrix

SRC = Path(__file__).parents[1] / "src"
TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"
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


def private_definitions(source: str) -> set:
    """The private names, a leading _ and not a dunder, that source defines
    at module level: its functions, classes and assigned names."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names
            if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def read_names(source: str) -> set:
    """Every name that source reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_the_check_flags_an_unread_private_name():
    source = (
        "import json\n"
        "__all__ = ['f']\n"
        "_KEPT: int = 2\n"
        "_used, (_pair, _LEFT) = 1, (2, 3)\n"
        "class _Record:\n"
        "    _field = 1\n"
        "def _helper():\n"
        "    return _used + json._default_decoder.x + _pair\n"
        "def f():\n"
        "    return _helper() + _Record._field\n")
    assert private_definitions(source) == {"_KEPT", "_used", "_pair", "_LEFT",
                                           "_Record", "_helper"}
    assert private_definitions(source) - read_names(source) == {"_KEPT", "_LEFT"}


def test_every_private_name_is_read_in_the_package():
    read = set().union(*(read_names(p.read_text()) for p in SOURCES))
    unread = {p.name: sorted(private_definitions(p.read_text()) - read)
              for p in SOURCES}
    assert {name: names for name, names in unread.items() if names} == {}


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


@pytest.fixture(scope="module")
def tracer():
    """The tracer module's namespace, run from its source."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves_in_its_home_module(tracer):
    for module, names in tracer["TRACED"].items():
        home = importlib.import_module("%s.%s" % (tracer["PACKAGE"], module))
        assert [n for n in names if not callable(getattr(home, n, None))] == [], module


def test_every_observer_reads_a_real_result(tracer):
    rd, frob = gsp(4, 3)
    zd = build_zip_datum(rd, frob, parabolic=[0])
    results = {
        "weyl.enumerate_weyl": enumerate_weyl(rd),
        "zip_core.orbit_census": orbit_census(zd),
        "root_datum.positive_roots": positive_roots(rd),
        "zip_core.zeta_matrix": zeta_matrix(zd),
        "exact_linear.smith_normal_form": smith_normal_form(IntMatrix(2, 2, [2, 4, 6, 9])),
    }
    traced = {"%s.%s" % (m, n) for m, names in tracer["TRACED"].items() for n in names}
    assert set(tracer["_OBSERVERS"]) == set(results) and set(results) <= traced
    for name, (counter, update) in tracer["_OBSERVERS"].items():
        assert counter in tracer["COUNTERS"]
        assert update(0, results[name]) > 0, name


def optimized_away(source: str) -> list:
    """(line, what) of every assert statement and every read of __debug__
    in source: python -O drops both."""
    return [(node.lineno, "assert" if isinstance(node, ast.Assert) else node.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Name) and node.id == "__debug__"]


def test_the_check_flags_what_python_o_drops():
    source = (
        "def f(x):\n"
        "    assert x, 'no x'\n"
        "    if __debug__:\n"
        "        x += 1\n"
        "    return x, 'assert __debug__'\n")
    assert optimized_away(source) == [(2, "assert"), (3, "__debug__")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_self_check_is_dropped_by_python_o(path):
    assert optimized_away(path.read_text()) == []


def weyl_imports(source: str) -> list:
    """(name, marked) of every name bound by an import of the weyl module or
    from it, relative or absolute, with whether its line is marked
    ``# noqa: F401`` as a re-export."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("weyl", "ziphasse.weyl"):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "ziphasse"):
            names = [alias.name for alias in node.names if alias.name == "weyl"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name == "ziphasse.weyl"]
        else:
            continue
        for name in names:
            found.append((name, "# noqa: F401" in lines[node.lineno - 1]))
    return found


def test_the_check_flags_every_import_of_weyl():
    source = (
        "from . import positivity, weyl\n"
        "from .weyl import classical_order\n"
        "from .weyl import min_coset_reps  # noqa: F401  re-exported\n"
        "from ziphasse.weyl import WeylGroup\n"
        "import ziphasse.weyl\n"
        "from .root_datum import weyl_cap\n")
    assert weyl_imports(source) == [
        ("weyl", False), ("classical_order", False), ("min_coset_reps", True),
        ("WeylGroup", False), ("ziphasse.weyl", False)]


def test_no_pipeline_module_imports_weyl():
    # zip_core's min_coset_reps is the tracer's alias, a marked re-export
    found = {p.name: weyl_imports(p.read_text()) for p in SOURCES}
    assert {name: imports for name, imports in found.items() if imports} == \
        {"zip_core.py": [("min_coset_reps", True)]}


def determinant_reads(source: str) -> list:
    """(line, how) of every import of the Bareiss determinant, by name from
    any module, and of every attribute read of it, as in
    exact_linear.determinant."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, "import") for alias in node.names
                         if alias.name == "determinant")
        elif isinstance(node, ast.Attribute) and node.attr == "determinant":
            found.append((node.lineno, "attribute"))
    return found


def test_the_check_flags_every_read_of_determinant():
    source = (
        "from .exact_linear import (IntMatrix,\n"
        "                           determinant)\n"
        "from ziphasse.exact_linear import determinant as det\n"
        "from . import exact_linear\n"
        "def f(m):\n"
        "    return exact_linear.determinant(m), det(m), m.determinant_sign\n")
    assert determinant_reads(source) == [(1, "import"), (3, "import"), (6, "attribute")]


def test_no_pipeline_module_reads_determinant():
    # det zeta is read off tau's cycles; Bareiss is a library function and
    # the tests' oracle, defined in exact_linear and exported by __init__
    found = {p.name: determinant_reads(p.read_text()) for p in SOURCES
             if p.name not in ("exact_linear.py", "__init__.py")}
    assert {name: reads for name, reads in found.items() if reads} == {}


def record_bypasses(source: str) -> list:
    """(line, call) of every call that builds a record without its checked
    constructor: object.__new__, tuple.__new__ and any _make."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr == "_make":
            found.append((node.lineno, "_make"))
        elif (func.attr == "__new__" and isinstance(func.value, ast.Name)
              and func.value.id in ("object", "tuple")):
            found.append((node.lineno, func.value.id + ".__new__"))
    return found


def test_the_check_flags_every_bypass_of_a_constructor():
    source = (
        "class M:\n"
        "    @classmethod\n"
        "    def _make(cls, it):\n"
        "        return cls(*it)\n"
        "    def __new__(cls, x):\n"
        "        return super().__new__(cls, x)\n"
        "m = object.__new__(M)\n"
        "t = tuple.__new__(M, (1,))\n"
        "r = M._make((1,)), m._replace(x=2)\n")
    assert record_bypasses(source) == [
        (7, "object.__new__"), (8, "tuple.__new__"), (9, "_make")]


def test_every_record_is_built_through_its_constructor():
    # IntMatrix.__init__ and RootDatum.__new__ check every entry; RootDatum's
    # _make and _replace go through __new__
    found = {p.name: record_bypasses(p.read_text()) for p in SOURCES}
    assert {name: calls for name, calls in found.items() if calls} == {}


ARITHMETIC = {"__%s%s__" % (side, op) for side in ("", "r", "i")
              for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv",
                         "mod", "divmod", "pow", "and", "or", "xor", "lshift",
                         "rshift")} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def test_intmatrix_is_a_record_with_one_product():
    # the oracle functions enumerate_weyl, positive_roots and
    # rational_inverse multiply; the tests keep every other piece of algebra
    names = set(vars(IntMatrix))
    assert {n for n in names if not n.startswith("_")} == {
        "rows", "cols", "entries", "from_rows", "identity", "row", "to_rows"}
    assert names & ARITHMETIC == {"__mul__"}
    # no second, unchecked way in beside __init__
    assert {n for n in names if n.startswith("_")
            and not (n.startswith("__") and n.endswith("__"))} == {"_hash"}


def test_positivity_imports_no_dense_matrix():
    source = (SRC / "ziphasse" / "positivity.py").read_text()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not {"IntMatrix", "_dense"} & imported
