"""The library-calculus workload's exact identities hold in the test suite.

``perfbench/calculus.py`` runs exp, log, evolve, inverse, convolution,
bracket, norms and ratios on five instances and checks each call against an
exact identity; ``perfbench/run.py`` runs it on seed 0 by default, and this
test on seed 1.
"""

import importlib.util
import json
from pathlib import Path

CALCULUS = Path(__file__).resolve().parents[1] / "perfbench" / "calculus.py"


def _load_calculus():
    spec = importlib.util.spec_from_file_location("perfbench_calculus", CALCULUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_identity_holds_on_seed_1(capsys):
    assert _load_calculus().main(["calculus.py", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["attempted"], result["failures"]) == (752, [])
