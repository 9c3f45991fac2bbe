"""Weight families omega_k(n) and finite-grid verification of their axioms.

Axioms checked (on explicit finite grids; the reports say so):

* W1: omega_k(0) = 1 and omega_k(n) <= omega_{k+1}(n).
* W2: omega_k(n) * omega_k(m) <= omega_k(n+m).
* W3: for each k1 there is k2 with omega_{k2}(n) >= 2^n * omega_{k1}(n).
* cW: for k1 < k2 < k3 there is alpha in (0,1) with
  omega_{k1}^alpha * omega_{k3}^(1-alpha) <= omega_{k2} pointwise.

The five genuine built-ins are exact (integer-valued); comparisons clear
denominators and exponents so every verdict on them is an exact integer
comparison.  The deliberate non-family exp(-n/k) exposes its exact log
exponent -n/k, so only W3 (which mixes in log 2) needs floats.  A family
and each check result are immutable records (``NamedTuple``s), built once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple, Optional

from .core import Refused

LOG2 = math.log(2.0)
_W3_FLOAT_GUARD = 1e-12


class GrowthFamily(NamedTuple):
    name: str
    description: str
    omega: Callable[[int, int], object]
    is_exact: bool = True
    # natural-log exponent as an exact rational, for exp-type families
    log_omega: Optional[Callable[[int, int], Fraction]] = None

    def eval(self, k: int, n: int):
        if k < 1:
            raise Refused(f"family index must be >= 1, got {k}")
        if n < 0:
            raise Refused(f"degree must be >= 0, got {n}")
        return self.omega(k, n)

    def log_eval(self, k: int, n: int) -> Fraction:
        if self.log_omega is None:
            raise ValueError(f"{self.name} has no exact log form")
        return self.log_omega(k, n)


BUILTIN_FAMILIES: dict[str, GrowthFamily] = {
    "pow": GrowthFamily("pow", "k^n", lambda k, n: k**n),
    "pow2": GrowthFamily("pow2", "2^(k*n)", lambda k, n: 2 ** (k * n)),
    "pow-fact": GrowthFamily("pow-fact", "k^n * n!", lambda k, n: k**n * math.factorial(n)),
    "pow-nsq": GrowthFamily("pow-nsq", "k^(n^2)", lambda k, n: k ** (n * n)),
    "pow-factk": GrowthFamily(
        "pow-factk", "k^n * (n!)^k", lambda k, n: k**n * math.factorial(n) ** k
    ),
    "anti": GrowthFamily(
        "anti",
        "exp(-n/k), fails W3",
        lambda k, n: math.exp(-n / k),
        is_exact=False,
        log_omega=lambda k, n: Fraction(-n, k),
    ),
}


def builtin(name: str) -> GrowthFamily:
    try:
        return BUILTIN_FAMILIES[name]
    except KeyError:
        raise Refused(
            f"unknown growth family {name!r}; available: {', '.join(sorted(BUILTIN_FAMILIES))}"
        ) from None


class AxiomCheck(NamedTuple):
    """Outcome of one axiom on one finite grid."""

    family: str
    axiom: str
    grid: dict
    ok: bool
    witness: dict

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "axiom": self.axiom,
            "grid": self.grid,
            "status": "pass" if self.ok else "fail",
            "witness": self.witness,
        }


def check_W1(family: GrowthFamily, k_max: int, n_max: int) -> AxiomCheck:
    grid = {"k_max": k_max, "n_max": n_max}
    for k in range(1, k_max + 1):
        if family.eval(k, 0) != 1:
            return AxiomCheck(family.name, "W1", grid, False, {"k": k, "n": 0})
    for k in range(1, k_max):
        for n in range(n_max + 1):
            if _exceeds(family, ((k, n, 1),), ((k + 1, n, 1),)):
                return AxiomCheck(family.name, "W1", grid, False, {"k": k, "n": n})
    return AxiomCheck(family.name, "W1", grid, True, {})


def check_W2(family: GrowthFamily, k_max: int, n_max: int) -> AxiomCheck:
    grid = {"k_max": k_max, "n_max": n_max, "pairs": "n+m<=n_max"}
    for k in range(1, k_max + 1):
        for n in range(n_max + 1):
            for m in range(n, n_max + 1 - n):
                if _exceeds(family, ((k, n, 1), (k, m, 1)), ((k, n + m, 1),)):
                    return AxiomCheck(family.name, "W2", grid, False, {"k": k, "n": n, "m": m})
    return AxiomCheck(family.name, "W2", grid, True, {})


def _exceeds(family: GrowthFamily, lhs, rhs) -> bool:
    """Whether the product of omega_k(n)^p over the (k, n, p) triples of lhs
    exceeds that over rhs: compared as integers for an exact family, and by
    exact log exponents, sums of p * log omega_k(n), for an inexact one."""
    if family.is_exact:
        return (math.prod(family.eval(k, n) ** p for k, n, p in lhs)
                > math.prod(family.eval(k, n) ** p for k, n, p in rhs))
    return (sum(p * family.log_eval(k, n) for k, n, p in lhs)
            > sum(p * family.log_eval(k, n) for k, n, p in rhs))


def w3_holds_at(family: GrowthFamily, k1: int, k2: int, n_max: int) -> bool:
    """omega_{k2}(n) >= 2^n * omega_{k1}(n) for all n <= n_max."""
    if family.is_exact:
        return all(
            family.eval(k2, n) >= 2**n * family.eval(k1, n) for n in range(n_max + 1)
        )
    for n in range(n_max + 1):
        lhs = float(family.log_eval(k2, n))
        rhs = n * LOG2 + float(family.log_eval(k1, n))
        if lhs < rhs - _W3_FLOAT_GUARD * max(1.0, abs(rhs)):
            return False
    return True


def check_W3(family: GrowthFamily, k1: int, n_max: int, k2_max: int = 64) -> AxiomCheck:
    """Search k2 = k1, k1 + 1, ... up to k2_max for the least k2 at which W3
    holds on the grid; the witness is that least k2, or only k1 if none does."""
    grid = {"k1": k1, "n_max": n_max, "k2_max": k2_max}
    for k2 in range(k1, k2_max + 1):
        if w3_holds_at(family, k1, k2, n_max):
            return AxiomCheck(family.name, "W3", grid, True, {"k1": k1, "least_k2": k2})
    return AxiomCheck(family.name, "W3", grid, False, {"k1": k1})


def suggest_alpha(k1: int, k2: int, k3: int) -> Fraction:
    """The index-interpolation weight with alpha*k1 + (1-alpha)*k3 = k2.

    By the arithmetic-geometric mean inequality this alpha also satisfies
    k1^alpha * k3^(1-alpha) <= k2, so it works for every built-in family.
    """
    if not k1 < k2 < k3:
        raise Refused(f"need k1 < k2 < k3, got {(k1, k2, k3)}")
    return Fraction(k3 - k2, k3 - k1)


def check_cW(
    family: GrowthFamily,
    k1: int,
    k2: int,
    k3: int,
    alpha: Fraction,
    n_max: int,
) -> AxiomCheck:
    grid = {"k1": k1, "k2": k2, "k3": k3, "alpha": str(alpha), "n_max": n_max}
    if not (0 < alpha < 1):
        raise Refused(f"alpha must lie in (0,1), got {alpha}")
    p, q = alpha.numerator, alpha.denominator
    for n in range(n_max + 1):
        if _exceeds(family, ((k1, n, p), (k3, n, q - p)), ((k2, n, q),)):
            return AxiomCheck(family.name, "cW", grid, False, {"n": n})
    return AxiomCheck(family.name, "cW", grid, True, {"alpha": str(alpha)})


def check_all_axioms(family: GrowthFamily, k_max: int, n_max: int, k2_max: int = 64) -> list[AxiomCheck]:
    """W1, W2, W3 for every k1 <= k_max, and cW for every triple in range.

    Each summary stops at its first failing k1 or triple and reports it."""
    out = [check_W1(family, k_max, n_max), check_W2(family, k_max, n_max)]
    grid = {"k1_max": k_max, "n_max": n_max, "k2_max": k2_max}
    least = {}
    for k1 in range(1, k_max + 1):
        res = check_W3(family, k1, n_max, k2_max)
        if not res.ok:
            out.append(AxiomCheck(family.name, "W3", grid, False, res.witness))
            break
        least[str(k1)] = res.witness["least_k2"]
    else:
        out.append(AxiomCheck(family.name, "W3", grid, True, {"least_k2_by_k1": least}))
    grid = {"k_max": k_max, "n_max": n_max}
    alphas = {}
    for k1, k2, k3 in combinations(range(1, k_max + 1), 3):
        alpha = suggest_alpha(k1, k2, k3)
        res = check_cW(family, k1, k2, k3, alpha, n_max)
        if not res.ok:
            out.append(AxiomCheck(family.name, "cW", grid, False,
                                  {"k1": k1, "k2": k2, "k3": k3, **res.witness}))
            break
        alphas[f"{k1},{k2},{k3}"] = str(alpha)
    else:
        out.append(AxiomCheck(family.name, "cW", grid, True, {"alpha_by_triple": alphas}))
    return out
