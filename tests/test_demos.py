"""Golden corpus: the four demo scripts reproduce demos/out/ byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SCRIPTS = ("01_axioms_and_growth.sh", "02_control.sh",
           "03_characters_and_evolution.sh", "04_series.sh")


def _tree(base: Path) -> dict[str, bytes]:
    return {p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def test_demo_outputs_are_byte_identical(tmp_path):
    work = tmp_path / "demos"
    shutil.copytree(DEMOS, work)
    shutil.rmtree(work / "out")
    # a `hopfchar` command on PATH that runs this checkout's sources
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "hopfchar"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m hopfchar.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for script in SCRIPTS:
        proc = subprocess.run(["bash", str(work / script)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{script}:\n{proc.stdout}\n{proc.stderr}"
    expected = _tree(DEMOS / "out")
    produced = _tree(work / "out")
    assert len(expected) == 41
    assert sorted(produced) == sorted(expected)
    changed = [name for name in expected if produced[name] != expected[name]]
    assert not changed, f"demo outputs differ: {changed}"
