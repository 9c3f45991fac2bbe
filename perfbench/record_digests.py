"""Record the sha256 of every CLI report the benchmark checks, for the default seed.

Usage (from the root of a checkout): python3 perfbench/record_digests.py

Runs each cli-verify and series-flows job once and rewrites
perfbench/digests.json.  Run it only when a change is meant to alter report
bytes.  Exit codes, report status and the exact flow oracle are checked
first, and nothing is written if any of them fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        env = run.child_env(tmp)
        files, series_jobs, oracles = run.series_inputs(run.DEFAULT_SEED)
        for fname, doc in files.items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        checker = run.CliChecker({}, oracles)
        digests = {}
        for workload, jobs in (("cli-verify", run.CLI_VERIFY_JOBS),
                               ("series-flows", series_jobs)):
            _, _, results = run.cli_cycle(jobs, tmp, env)
            failures = checker.failures(results)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            digests[workload] = {r.name: hashlib.sha256(r.data).hexdigest()
                                 for r in results if r.expected == 0}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
