"""The package runs on the standard library alone, as ``pyproject.toml``'s
empty ``dependencies`` says: every import under ``src/hopfchar`` names a
standard-library module or ``hopfchar`` itself.  A CLI start also leaves out
the standard-library machinery no CLI path runs, and no module reads or sets
an environment variable: the package has no global switch.  Every name that
``__all__`` exports is bound, and listed once."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hopfchar

PACKAGE = Path(hopfchar.__file__).parent


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


def test_star_import_binds_every_export_once():
    namespace = {}
    exec("from hopfchar import *", namespace)
    assert [name for name in hopfchar.__all__ if name not in namespace] == []
    assert len(set(hopfchar.__all__)) == len(hopfchar.__all__)
