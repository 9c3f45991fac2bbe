"""One cycle of the library-calculus workload, run in its own process.

Usage: python perfbench/calculus.py SEED [TRACE_PATH]   (hopfchar on the path)

Set-up builds the instances, warms their bases and coproducts, and draws
the infinitesimal characters from SEED.  The timed phase then runs the
character calculus on the warm caches, checking every call against an exact
identity.  The last stdout line is a JSON object with the monotonic time the
timed phase started, its wall and CPU seconds, and the ops attempted and
failed.  With TRACE_PATH the span wrappers are installed before set-up and
dumped there at exit.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from fractions import Fraction

# (instance, truncation degree); sized so the timed phase is a few seconds
INSTANCES = (("ck", 7), ("fdb-a", 10), ("shuffle:ab", 7), ("binomial", 12),
             ("ck2", 5))
ETAS_PER_INSTANCE = 3
RATIO_K1 = (1, 2, 3)


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def seeded_values(H, N: int, rng: random.Random) -> dict:
    """Nonzero rationals of bounded height on every generator up to degree N."""
    values = {}
    for g in H.generators_upto(N):
        den = rng.randint(1, 6)
        num = rng.choice((-1, 1)) * rng.randint(1, 3 * den)
        values[g] = Fraction(num, den)
    return values


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def timed_phase(setups, ops: Ops) -> None:
    from hopfchar.characters import (RATIONAL, TruncatedInfChar, bracket,
                                     convolve, exp_infchar, inverse,
                                     linf_norm, log_character)
    from hopfchar.control import antipode_ratio, coproduct_ratio
    from hopfchar.evolution import TimePolynomialCurve, evolve
    from hopfchar.growth import builtin

    pow_family = builtin("pow")
    for H, N, value_sets in setups:
        name = H.name
        for n in range(1, N + 1):
            for x in H.axiom_domain(n):
                closed = H.antipode_monomial(x)
                ops.check(H.antipode_recursive(x, variant=1) == closed
                          and H.antipode_recursive(x, variant=2) == closed,
                          f"{name} antipode recursions at {H.monomial_text(x)}")
        gens = H.generators_upto(N)
        etas = [TruncatedInfChar(H, N, RATIONAL, vals) for vals in value_sets]
        for j, (eta, vals) in enumerate(zip(etas, value_sets)):
            label = f"{name} eta{j}"
            phi = exp_infchar(eta)
            back = log_character(phi)
            ops.check(all(back.evaluate(g) == vals[g] for g in gens),
                      f"{label} log(exp(eta)) = eta")
            flow = evolve(H, TimePolynomialCurve.constant(H, N, vals), N).at(1)
            ops.check(all(flow.evaluate(g) == phi.evaluate(g) for g in gens),
                      f"{label} evolve(const eta)(1) = exp(eta)")
            unit = convolve(phi, inverse(phi))
            ops.check(all(unit.evaluate(g) == 0 for g in gens),
                      f"{label} phi * phi^-1 = counit")
            other = etas[(j + 1) % len(etas)]
            lie, eil = bracket(eta, other), bracket(other, eta)
            ops.check(all(lie.evaluate(g) == -eil.evaluate(g) for g in gens),
                      f"{label} [eta, eta'] = -[eta', eta]")
            norm = linf_norm(phi, pow_family, 2)
            expected = max(abs(phi.values[g]) / 2 ** g.degree for g in gens)
            ops.check(norm == expected, f"{label} sup norm")
        for k1 in RATIO_K1:
            rep = coproduct_ratio(H, pow_family, k1, 2 * k1, N)
            ops.check(rep.verdict == "bounded" and rep.c_hat <= 1,
                      f"{name} coproduct ratio k1={k1}")
            rep = antipode_ratio(H, pow_family, k1, 32 * k1, N)
            ops.check(rep.verdict == "bounded", f"{name} antipode ratio k1={k1}")


def main(argv: list[str]) -> int:
    seed = int(argv[1])
    tracer = None
    if len(argv) > 2:
        from spans import Tracer
        tracer = Tracer().install()
    from hopfchar.instances import instance_by_name

    setups = []
    for label, N in INSTANCES:
        H = instance_by_name(label)
        for m in H.basis_upto(N):
            H.coproduct_monomial(m)
        value_sets = [seeded_values(H, N, random.Random(f"{seed}:{label}:{j}"))
                      for j in range(ETAS_PER_INSTANCE)]
        setups.append((H, N, value_sets))

    ops = Ops()
    cpu0 = _cpu()
    start = time.monotonic()
    timed_phase(setups, ops)
    wall = time.monotonic() - start
    cpu = _cpu() - cpu0
    if tracer is not None:
        tracer.dump(argv[2])
    print(json.dumps({"timed_start": start, "wall_s": wall, "cpu_s": cpu,
                      "attempted": ops.attempted, "failures": ops.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
