"""The package runs on the standard library alone, as ``pyproject.toml``'s
empty ``dependencies`` says: every import under ``src/hopfchar`` names a
standard-library module or ``hopfchar`` itself."""

import ast
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
