"""Benchmark for hopfchar: cold CLI sweeps, warm character calculus, series.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads:
  cli-verify        verification subcommands, one fresh CLI process per job
  library-calculus  exp/log/evolve/convolution on warm instances, in-process
  series-flows      tree, partitioned and word series against exact flows

One closed-loop client: a single job runs at a time, with no threads.  A
run repeats its workload's cycle (a fixed list of ops) until --seconds have
passed and reports the median cycle.  Every op is checked: CLI jobs by exit
code, report status and sha256 digest (perfbench/digests.json) or the exact
flow oracle, library calls by exact identities.  Job outputs go to a
temporary directory inside the checkout, removed at exit.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced cycle and prints the per-layer metrics from perfbench/spans.py.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("cli-verify", "library-calculus", "series-flows")
DEFAULT_SEED = 0
JOB_TIMEOUT_S = 150

# (job name, CLI arguments, expected exit code).  The last two are configs
# the CLI must refuse before enumerating anything.
CLI_VERIFY_JOBS = (
    ("axioms-ck-9", ["axioms", "--hopf", "ck", "--max-degree", "9"], 0),
    ("axioms-ck2-6", ["axioms", "--hopf", "ck2", "--max-degree", "6"], 0),
    ("axioms-shuffle-ab-9", ["axioms", "--hopf", "shuffle:ab", "--max-degree", "9"], 0),
    ("axioms-fdb-a-12", ["axioms", "--hopf", "fdb-a", "--max-degree", "12"], 0),
    ("axioms-fdb-x-12", ["axioms", "--hopf", "fdb-x", "--max-degree", "12"], 0),
    ("enumerate-ck-11", ["enumerate", "--hopf", "ck", "--max-degree", "11"], 0),
    ("control-check-ck-9", ["control-check", "--hopf", "ck", "--family", "pow",
                            "--k1", "1", "--k2", "2", "--max-degree", "9"], 0),
    ("control-check-fdb-a-antipode-12",
     ["control-check", "--hopf", "fdb-a", "--map", "antipode", "--family", "pow",
      "--k1", "1", "--k2", "32", "--max-degree", "12"], 0),
    ("rlb-check-ck-9", ["rlb-check", "--hopf", "ck", "--max-degree", "9"], 0),
    ("right-handed-ck-8", ["right-handed", "--hopf", "ck", "--max-degree", "8"], 0),
    ("refused-axioms-ck-13", ["axioms", "--hopf", "ck", "--max-degree", "13"], 2),
    ("refused-enumerate-shuffle-ab-11",
     ["enumerate", "--hopf", "shuffle:ab", "--max-degree", "11"], 2),
)

CLI_SUBCOMMANDS = ("axioms", "enumerate", "control-check", "rlb-check",
                   "right-handed", "bseries", "pseries", "wordseries")

PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "hit_ratio": "ratio",
                   "wall_s": "s", "startup_s": "s", "overhead_ratio": "ratio"}


# ------------------------------------------------------------------ inputs


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational of height at most 3."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))


def _terms(pairs) -> list:
    return [{"monomial": list(exps), "coeff": str(c)} for exps, c in pairs]


def _point(values) -> str:
    """Comma-separated rationals, passed as --opt=VALUE since they may start with '-'."""
    return ",".join(str(v) for v in values)


def _lyndon_words(letters: str, max_len: int) -> list[str]:
    """Duval's algorithm: Lyndon words up to max_len in lexicographic order."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        out.append("".join(letters[i] for i in w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == len(letters) - 1:
            w.pop()
    return out


def series_inputs(seed: int) -> tuple[dict, list, dict]:
    """Input files, CLI jobs and flow oracles of series-flows, all from seed.

    The shapes are fixed, so every seed does the same amount of work; the
    seed draws the coefficients and start points.
    """
    rng = random.Random(f"series-flows:{seed}")

    def r() -> Fraction:
        return _rational(rng)

    # 2-d nonlinear field y1' = c1 y2 + c2 y1^2, y2' = c3 y1 + c4 y1 y2
    field = [[((0, 1), r()), ((2, 0), r())], [((1, 0), r()), ((1, 1), r())]]
    y0, h_b = (r(), r()), Fraction(1, 2)
    # pendulum-type partitioned system p' = a1 q + a3 q^3, q' = b p
    f_p = [[((0, 1), r()), ((0, 3), r())]]
    g_q = [[((1, 0), r())]]
    p0, q0, h_p = (r(),), (r(),), Fraction(1, 3)
    # two letter fields on R^2 and the character exp(alpha a + beta b)
    field_a = [[((0, 1), r())], [((2, 0), r())]]
    field_b = [[((1, 1), r())], [((1, 0), r())]]
    x0 = (r(), r())
    alpha, beta = r(), r()
    max_len = 9
    delta = [{"generator": w,
              "value": str(alpha ** w.count("a") * beta ** w.count("b")
                           / factorial(len(w)))}
             for w in _lyndon_words("ab", max_len)]

    files = {
        "field.json": {"dim": 2, "components": [_terms(c) for c in field]},
        "pendulum.json": {"dim": 1, "f": [_terms(c) for c in f_p],
                          "g": [_terms(c) for c in g_q]},
        "letters.json": {"dim": 2, "letters": {"a": [_terms(c) for c in field_a],
                                               "b": [_terms(c) for c in field_b]}},
        "delta.json": {"hopf": "shuffle:ab", "N": max_len, "B": "rational",
                       "kind": "char", "values": delta},
    }
    jobs = [
        ("bseries", ["bseries", "--field", "field.json", "--coeffs", "exact-flow",
                     "--y=" + _point(y0), "--h", str(h_b), "--max-order", "11"], 0),
        ("pseries", ["pseries", "--system", "pendulum.json", "--coeffs", "exact-flow",
                     "--p=" + _point(p0), "--q=" + _point(q0), "--h", str(h_p),
                     "--max-order", "8"], 0),
        ("wordseries", ["wordseries", "--system", "letters.json", "--coeffs",
                        "delta.json", "--x=" + _point(x0), "--max-length", str(max_len)], 0),
    ]

    def polys(comps, nvars):
        return [oracle.poly_from_json(_terms(c), nvars) for c in comps]

    mixed = [{e: alpha * c for e, c in pa.items()} for pa in polys(field_a, 2)]
    for comp, pb in zip(mixed, polys(field_b, 2)):
        for e, c in pb.items():
            comp[e] = comp.get(e, 0) + beta * c
    oracles = {
        "bseries": (polys(field, 2), y0, h_b, 11),
        "pseries": (polys(f_p + g_q, 2), p0 + q0, h_p, 8),
        "wordseries": (mixed, x0, Fraction(1), max_len),
    }
    return files, jobs, oracles


def series_report_matches(report: dict, spec) -> bool:
    """Every partial sum in the report equals the exact flow's Taylor sum."""
    field, y0, h, order = spec
    sums = oracle.flow_partial_sums(field, tuple(Fraction(v) for v in y0), h, order)
    rows = report["rows"]
    if len(rows) != order:
        return False
    for row, exact in zip(rows, sums):
        if row["partial"] != [float(v) for v in exact]:
            return False
    final = report.get("final", report.get("final_p", []) + report.get("final_q", []))
    return final == [float(v) for v in sums[-1]]


# ------------------------------------------------------------------ processes


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    env.pop("HOPFCHAR_MAX_DEGREE", None)
    return env


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def peak_rss_mb() -> float:
    """Highest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024


def startup_times(env: dict, cwd: str, n: int = 5) -> list[float]:
    """n timings of interpreter start plus `import hopfchar.cli`.

    A first, untimed start compiles the package's bytecode, so no timed
    process pays for it.
    """
    cmd = [sys.executable, "-c", "import hopfchar.cli"]
    subprocess.run(cmd, cwd=cwd, env=env, check=True, timeout=JOB_TIMEOUT_S)
    times = []
    for _ in range(n):
        t = time.monotonic()
        subprocess.run(cmd, cwd=cwd, env=env, check=True, timeout=JOB_TIMEOUT_S)
        times.append(time.monotonic() - t)
    return times


@dataclass
class JobResult:
    name: str
    subcommand: str
    expected: int
    wall: float
    code: int | None  # None when the job timed out
    data: bytes | None  # the report, when the job wrote one
    stderr: str


def cli_cycle(jobs, tmp: str, env: dict, trace_dir: str | None = None):
    """Run every job once in a fresh process; (wall, cpu, results)."""
    results = []
    cpu0 = _children_cpu()
    start = time.monotonic()
    for name, argv, expected in jobs:
        out = os.path.join(tmp, f"{name}.json")
        if os.path.exists(out):
            os.remove(out)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "hopfchar.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "bootstrap.py"),
                   os.path.join(trace_dir, name)]
        t = time.monotonic()
        try:
            proc = subprocess.run(cmd + argv + ["--out", f"{name}.json"], cwd=tmp,
                                  env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=JOB_TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, b"timed out"
        wall = time.monotonic() - t
        data = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        results.append(JobResult(name, argv[0], expected, wall, code, data,
                                 stderr.decode("utf-8", "replace")))
    return time.monotonic() - start, _children_cpu() - cpu0, results


def calculus_cycle(seed: int, tmp: str, env: dict, trace_path: str | None = None):
    """One library-calculus process; (setup, wall, cpu, attempted, failures)."""
    cmd = [sys.executable, os.path.join(HERE, "calculus.py"), str(seed)]
    if trace_path is not None:
        cmd.append(trace_path)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit {proc.returncode}")
        doc = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        return None
    return (doc["timed_start"] - spawned, doc["wall_s"], doc["cpu_s"],
            doc["attempted"], doc["failures"])


# ------------------------------------------------------------------ checks


def recorded_digests(workload: str, seed: int) -> dict:
    """The report digests that apply to this workload and seed."""
    # cli-verify inputs do not depend on the seed, so its digests always apply
    if workload != "cli-verify" and seed != DEFAULT_SEED:
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


class CliChecker:
    """Decides whether each CLI job's exit code and report are correct."""

    def __init__(self, digests: dict, oracles: dict | None = None):
        self.digests = digests
        self.oracles = oracles or {}
        self._verdicts: dict[tuple[str, str], bool] = {}

    def report_ok(self, name: str, data: bytes) -> bool:
        sha = hashlib.sha256(data).hexdigest()
        key = (name, sha)
        if key not in self._verdicts:
            try:
                doc = json.loads(data)
                ok = doc["status"] == "pass" and self.digests.get(name, sha) == sha
                if ok and name in self.oracles:
                    ok = series_report_matches(doc["report"], self.oracles[name])
            except (ValueError, KeyError, TypeError):
                ok = False
            self._verdicts[key] = ok
        return self._verdicts[key]

    def failures(self, results) -> list[str]:
        bad = []
        for r in results:
            if r.code != r.expected:
                tail = r.stderr.strip().splitlines()[-1:] or [""]
                bad.append(f"{r.name}: exit {r.code}, expected {r.expected} {tail[0]}")
            elif r.expected == 0 and (r.data is None or not self.report_ok(r.name, r.data)):
                bad.append(f"{r.name}: report does not match")
            elif r.expected != 0 and r.data is not None:
                bad.append(f"{r.name}: wrote a report for a refused config")
        return bad


# ------------------------------------------------------------------ runs


def _repeat(cycle, seconds: float) -> list:
    """Run cycle() until `seconds` have passed; at least once."""
    out = []
    start = time.monotonic()
    while not out or time.monotonic() - start < seconds:
        out.append(cycle())
    return out


def run_cli(workload: str, seed: int, seconds: float, trace: bool, tmp: str):
    env = child_env(tmp)
    gen_start = time.monotonic()
    if workload == "cli-verify":
        jobs = list(CLI_VERIFY_JOBS)
        random.Random(f"cli-verify:{seed}").shuffle(jobs)
        oracles = None
    else:
        files, jobs, oracles = series_inputs(seed)
        for fname, doc in files.items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
    gen_s = time.monotonic() - gen_start
    starts = startup_times(env, tmp)
    checker = CliChecker(recorded_digests(workload, seed), oracles)

    if not trace:
        cycles = _repeat(lambda: cli_cycle(jobs, tmp, env), seconds)
        failures = [f for _, _, results in cycles for f in checker.failures(results)]
        metrics = {
            "wall_s": (statistics.median(c[0] for c in cycles), "s"),
            "cpu_s": (statistics.median(c[1] for c in cycles), "s"),
            "setup_s": (gen_s + statistics.median(starts), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return metrics, len(cycles) * len(jobs), failures, len(cycles)

    plain_wall, _, plain = cli_cycle(jobs, tmp, env)
    trace_dir = os.path.join(tmp, "spans")
    os.mkdir(trace_dir)
    traced_wall, _, traced = cli_cycle(jobs, tmp, env, trace_dir)
    failures = checker.failures(plain) + checker.failures(traced)
    dumps = [os.path.join(trace_dir, r.name) for r in traced
             if os.path.exists(os.path.join(trace_dir, r.name) + ".json")]
    layers = spans.summarize(dumps)
    layers["cli.startup_s"] = statistics.median(starts)
    for sub in CLI_SUBCOMMANDS:
        layers[f"cli.{sub}.wall_s"] = sum((r.wall for r in plain if r.subcommand == sub), 0.0)
    layers["trace.overhead_ratio"] = traced_wall / plain_wall
    return layers, 2 * len(jobs), failures, 2


def run_calculus(seed: int, seconds: float, trace: bool, tmp: str):
    env = child_env(tmp)
    starts = startup_times(env, tmp, n=5 if trace else 0)
    crashed = "library-calculus: cycle process failed"
    if not trace:
        cycles = _repeat(lambda: calculus_cycle(seed, tmp, env), seconds)
        done = [c for c in cycles if c is not None]
        attempted = sum(c[3] for c in done) + len(cycles) - len(done)
        failures = [f for c in done for f in c[4]] + [crashed] * (len(cycles) - len(done))
        if not done:
            return {}, attempted, failures, len(cycles)
        metrics = {
            "wall_s": (statistics.median(c[1] for c in done), "s"),
            "cpu_s": (statistics.median(c[2] for c in done), "s"),
            "setup_s": (statistics.median(c[0] for c in done), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return metrics, attempted, failures, len(cycles)

    dump = os.path.join(tmp, "calculus-spans")
    plain = calculus_cycle(seed, tmp, env)
    traced = calculus_cycle(seed, tmp, env, dump)
    if plain is None or traced is None:
        return {}, 2, [crashed], 2
    layers = spans.summarize([dump])
    layers["cli.startup_s"] = statistics.median(starts)
    for sub in CLI_SUBCOMMANDS:
        layers[f"cli.{sub}.wall_s"] = 0.0
    layers["trace.overhead_ratio"] = traced[1] / plain[1]
    return layers, plain[3] + traced[3], plain[4] + traced[4], 2


def _commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hopfchar", "cli.py")):
        print(f"error: hopfchar sources not found under {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills and reaps the running job,
    # and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.workload == "library-calculus":
            metrics, attempted, failures, cycles = run_calculus(
                args.seed, args.seconds, bool(args.trace), tmp)
        else:
            metrics, attempted, failures, cycles = run_cli(
                args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        missing = [m for m in spans.metric_names() if m not in metrics]
        metrics = {name: (value, PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
                   for name, value in metrics.items()}
    failed = len(failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {cycles}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<44} {failed / max(attempted, 1):>14.6g} ratio "
          f"({failed} failed of {attempted} ops)")
    if args.trace and missing:
        print("  missing (target no longer exists): " + ", ".join(missing))
    for f in failures[:20]:
        print(f"  FAILED {f}")
    record = {"commit": _commit(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
              "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "cycles": cycles, "ops": attempted, "failed_ops": failed}
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": failed == 0 and bool(metrics), "attempted": max(attempted, 1),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
