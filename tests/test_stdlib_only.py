"""The package runs on the standard library alone, as ``pyproject.toml``'s
empty ``dependencies`` says: every import under ``src/hopfchar`` names a
standard-library module or ``hopfchar`` itself.  A CLI start also leaves out
the standard-library machinery no CLI path runs, and no module reads or sets
an environment variable: the package has no global switch.  Every name that
``__all__`` exports is bound, and listed once, and every export and public
module-level function is run by the package, the benchmark or a demo, not
only by tests.  ``cli.py`` restates no rule of the library."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import hopfchar

PACKAGE = Path(hopfchar.__file__).parent
ROOT = PACKAGE.parents[1]


def _imported(path: Path):
    """The top-level package of each import in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "hopfchar" if node.level else node.module.split(".")[0]


def test_every_import_is_standard_library_or_hopfchar():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    outside = [(path.name, name) for path in modules for name in _imported(path)
               if name != "hopfchar" and name not in sys.stdlib_module_names]
    assert outside == []


ENVIRONMENT_ACCESS = {"environ", "getenv", "putenv"}


def test_no_module_reads_the_environment():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_ACCESS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append((path.name, node.lineno, f"os.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(path.name, node.lineno, f"from os import {alias.name}")
                          for alias in node.names if alias.name in ENVIRONMENT_ACCESS]
    assert found == []


def test_cli_start_imports_no_heavy_stdlib_machinery():
    # -S keeps site's .pth files from importing these first
    code = ("import sys, hopfchar.cli; print(sorted({'dataclasses', 'inspect', "
            "'importlib.resources'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_restates_no_rule_of_the_library():
    """cli.py defines no exception class of its own and imports no private
    name from another hopfchar module: a rule refuses where it is read, with
    ``core.Refused``, and the CLI does not wrap or repeat it."""
    path = PACKAGE / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ClassDef):
            found.append(f"class {node.name}")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "hopfchar"
                                                   or node.module.startswith("hopfchar.")):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []


def test_star_import_binds_every_export_once():
    namespace = {}
    exec("from hopfchar import *", namespace)
    assert [name for name in hopfchar.__all__ if name not in namespace] == []
    assert len(set(hopfchar.__all__)) == len(hopfchar.__all__)


# names with no caller in the package, the benchmark or a demo, and why each stays
UNREFERENCED = {
    "load_schema": "README's file-format section gives it as the way to read "
                   "the shipped schemas",
}


def _referenced(tree) -> set:
    """The names an AST refers to: Names, Attribute names and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(part for alias in node.names for part in alias.name.split("."))
    return out


def test_every_export_has_a_caller_outside_tests():
    """An AST scan: each export and public module-level function is named in
    the package (outside ``__init__.py`` and outside its own definition), in
    ``perfbench/`` (a span-target string counts) or in a demo's Python."""
    public, elsewhere = set(hopfchar.__all__), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            own = getattr(node, "name", None)
            if isinstance(node, ast.FunctionDef) and not own.startswith("_"):
                public.add(own)
            elsewhere |= _referenced(node) - {own}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        elsewhere |= _referenced(tree)
        elsewhere.update(part for node in ast.walk(tree)
                         if isinstance(node, ast.Constant) and isinstance(node.value, str)
                         for part in node.value.split("."))
    for path in sorted((ROOT / "demos").glob("*.sh")):
        for code in re.findall(r'python3 -c "(.*?)"\n', path.read_text(encoding="utf-8"),
                               re.S):
            elsewhere |= _referenced(ast.parse(code))
    assert sorted(public - elsewhere) == sorted(UNREFERENCED)
