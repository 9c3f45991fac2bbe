"""Mutation survey: which changes to a module does a test subset miss?

Each mutant changes one AST site of one module under ``src/hopfchar``:

* ``+`` and ``-`` swapped, ``*`` and ``//`` swapped (also in ``+=`` and the like);
* a comparison flipped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``is``/``is not``, ``in``/``not in``;
* an int constant 0, 1 or 2 raised by one.

The repository is copied once to a temporary directory, and each mutant is
written there and tested with one ``pytest -x`` process at a time; ``src/``
itself is never edited.  The tests are first timed on the unmutated module,
and a mutant that runs ``TIMEOUT_FACTOR`` times as long counts as killed.
A mutant survives when the tests pass.  The survivors are written as JSON,
sorted by line, with the file, line, operator and source line of each.  An
equivalent mutant, one with the behaviour of the original, survives too; a
survivor keeps the ``reason`` that the report already at ``--out`` gave it,
so a baseline can say why a survivor is equivalent and a rerun does not lose
it.

This measures the tests and changes none; it is not part of the test suite.

    python tools/mutate.py characters tests/test_characters.py \\
        tests/test_rational_kernels.py tests/test_evolution.py \\
        --out tools/mutants/characters.json
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
BUMPED = (0, 1, 2)
TIMEOUT_FACTOR = 10


def sites(tree: ast.AST):
    """(walk index, slot, operator text) for every mutable site, in walk
    order; slot is the index of a comparison's operator, else None."""
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield i, None, f"{type(node.op).__name__}->{SWAPS[type(node.op)].__name__}"
        elif isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield i, j, f"{type(op).__name__}->{SWAPS[type(op)].__name__}"
        elif isinstance(node, ast.Constant) and type(node.value) is int \
                and node.value in BUMPED:
            yield i, None, f"{node.value}->{node.value + 1}"


def mutant(source: str, index: int, slot: int | None) -> tuple[str, int]:
    """The module source with the site at walk index changed, and its line."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), node.lineno


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> str:
    """'pass', 'fail' or 'timeout' for one pytest process in the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def survey(module: str, tests: list[str]) -> dict:
    rel = Path("src", "hopfchar", f"{module}.py")
    source = (ROOT / rel).read_text(encoding="utf-8")
    lines = source.splitlines()
    todo = list(sites(ast.parse(source)))
    survivors, counts = [], {"fail": 0, "pass": 0, "timeout": 0}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-*"))
        target = copy / rel
        # the unparsed module must pass, or every survivor is meaningless
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        start = time.monotonic()
        if run_tests(copy, tests, None) != "pass":
            raise SystemExit(f"the tests fail on the unmutated {rel}")
        timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        start = time.monotonic()
        for n, (index, slot, op) in enumerate(todo, 1):
            text, line = mutant(source, index, slot)
            target.write_text(text, encoding="utf-8")
            outcome = run_tests(copy, tests, timeout)
            counts[outcome] += 1
            if outcome == "pass":
                survivors.append({"file": rel.as_posix(), "line": line, "operator": op,
                                  "source": lines[line - 1].strip()})
            print(f"[{n}/{len(todo)} {time.monotonic() - start:.0f}s] "
                  f"{rel}:{line} {op}: {outcome}", file=sys.stderr)
    survivors.sort(key=lambda s: (s["line"], s["operator"], s["source"]))
    return {"module": rel.as_posix(), "tests": tests, "mutants": len(todo),
            "killed": counts["fail"], "timeouts": counts["timeout"],
            "survivors": survivors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/hopfchar, e.g. characters")
    parser.add_argument("tests", nargs="+", help="test files or node ids, from the repo root")
    parser.add_argument("--out", help="JSON file for the report; stdout if absent")
    args = parser.parse_args(argv)
    report = survey(args.module, args.tests)
    if args.out and Path(args.out).exists():
        old = json.loads(Path(args.out).read_text(encoding="utf-8"))["survivors"]
        reasons = {(s["operator"], s["source"]): s["reason"] for s in old if "reason" in s}
        for s in report["survivors"]:
            if (s["operator"], s["source"]) in reasons:
                s["reason"] = reasons[s["operator"], s["source"]]
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"{report['mutants']} mutants, {len(report['survivors'])} survived, "
          f"{report['timeouts']} timed out", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
