"""The benchmark's CLI reports must keep the digests in perfbench/digests.json.

Runs every cli-verify and series-flows job once, as the benchmark does, and
checks each with the benchmark's own checker: exit code, report status,
sha256 digest and, for the series jobs, the exact flow oracle.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run(monkeypatch):
    # run.py imports its sibling modules by name; write no bytecode beside them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_reports_match_their_recorded_digests(tmp_path, monkeypatch):
    run = _load_run(monkeypatch)
    files, series_jobs, oracles = run.series_inputs(run.DEFAULT_SEED)
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    env = run.child_env(str(tmp_path))
    failures = []
    for workload, jobs in (("cli-verify", run.CLI_VERIFY_JOBS),
                           ("series-flows", series_jobs)):
        digests = run.recorded_digests(workload, run.DEFAULT_SEED)
        # a job without a recorded digest would pass on any report bytes
        assert sorted(digests) == sorted(name for name, _, code in jobs if code == 0)
        _, _, results = run.cli_cycle(jobs, str(tmp_path), env)
        failures += run.CliChecker(digests, oracles).failures(results)
    assert failures == []
