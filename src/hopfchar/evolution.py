"""Exact degree-by-degree solution of gamma' = gamma * eta, gamma(0) = counit.

The driving curve eta assigns each generator a polynomial in t with rational
coefficients, read as an infinitesimal-character-valued curve.  Because the
reduced coproduct strictly lowers degree on the gamma slot, the solution's
value on a degree-n generator is an exact rational polynomial in t obtained
by integrating already-known lower-degree data; no ODE stepping is involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp
from typing import Mapping

from .characters import (
    FLOAT,
    RATIONAL,
    RATIONAL_POLY,
    TruncatedCharacter,
    TruncatedInfChar,
    _flow_target,
    _solve_flow,
)
from .core import Coeff, Monomial, normalize_coeff
from .growth import GrowthFamily
from .hopf import HopfAlgebra


class TimePoly:
    """Dense univariate polynomial in t over exact rationals: a curve's value
    on one generator.

    ``coeffs`` is a tuple of normalised rationals (integral ones as ints),
    t^0 first, without trailing zeros.  A TimePoly is evaluated and compared;
    polynomial arithmetic is the flow solver's ``characters.RATIONAL_POLY``
    (integer numerators over one denominator), which ``evolve`` runs on the
    coefficient tuples.  ``*`` lifts to it, multiplies there and lowers the
    product; ``perfbench/spans.py`` counts its calls.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [normalize_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other: "TimePoly") -> "TimePoly":
        P = RATIONAL_POLY
        return TimePoly(P.lower(P.mul(P.lift(self.coeffs), P.lift(other.coeffs))))

    def eval(self, t):
        total = 0
        for c in reversed(self.coeffs):
            total = total * t + c
        return total

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*t^{i}" if i else f"{c}"
                          for i, c in enumerate(self.coeffs) if c)


class TimePolynomialCurve:
    """A curve of (infinitesimal) characters given per generator as a TimePoly."""

    def __init__(self, hopf: HopfAlgebra, N: int,
                 polys: Mapping[Monomial, TimePoly], kind: str):
        if kind not in ("inf", "char"):
            raise ValueError("kind must be 'inf' or 'char'")
        self.hopf = hopf
        self.N = N
        self.polys = dict(polys)
        self.kind = kind

    @classmethod
    def constant(cls, hopf: HopfAlgebra, N: int,
                 values: Mapping[Monomial, Coeff]) -> "TimePolynomialCurve":
        """A t-independent infinitesimal-character curve."""
        return cls(hopf, N, {g: TimePoly((v,)) for g, v in values.items()}, "inf")

    def poly(self, g: Monomial) -> TimePoly:
        return self.polys.get(g, TimePoly())

    def at(self, t):
        """The (inf) character at time t; exact when t is rational."""
        exact = isinstance(t, (int, Fraction))
        target = RATIONAL if exact else FLOAT
        values = {g: p.eval(t if exact else float(t)) for g, p in self.polys.items()}
        cls = TruncatedInfChar if self.kind == "inf" else TruncatedCharacter
        return cls(self.hopf, self.N, target, values)


def evolve(H: HopfAlgebra, eta: TimePolynomialCurve, N: int) -> TimePolynomialCurve:
    """Solve gamma'(t) = gamma(t) * eta(t) with gamma(0) = counit, exactly.

    Degree by degree: the derivative of gamma on a generator is eta's value
    there plus the reduced-coproduct sum c * gamma(alpha) * eta(beta), where
    gamma and eta are a character and an infinitesimal character with values
    in rational t-polynomials, evaluated on the lower-degree alpha and beta
    through the instance's ``character_value`` hook from generator
    polynomials already computed.  Each step integrates a rational
    polynomial, which is exact.  This is the solver behind ``exp_infchar``
    and ``log_character`` too, run here on the curve's coefficient tuples.
    """
    if N > eta.N:
        raise ValueError(f"truncation {N} exceeds the curve's degree bound {eta.N}")
    gamma, _ = _solve_flow(H, N, RATIONAL, {g: p.coeffs for g, p in eta.polys.items()})
    P = _flow_target(RATIONAL)
    return TimePolynomialCurve(H, N, {g: TimePoly(P.lower(p)) for g, p in gamma.items()},
                               "char")


def gronwall_bound(A, B, t) -> float:
    """The closed-form majorant A e^{tB} for h <= A + B * integral of h."""
    if A < 0 or B < 0:
        raise ValueError("need A, B >= 0")
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    return float(A) * exp(float(t) * float(B))


def semiregularity_check(H: HopfAlgebra, eta: TimePolynomialCurve,
                         family: GrowthFamily, k: int, ab, N: int,
                         t_samples) -> dict:
    """Check h_n(t) = sup_{|tau| <= n} |gamma(t)(tau)| / omega_k(|tau|)
    against the bound e^{(a n + b) t}, with a 2^-40 relative guard.

    Also reports whether the driving curve satisfies the norm precondition
    ||eta(t)|_Sigma|| <= 1 at each sample.
    """
    a, b = ab
    guard = 2.0 ** -40
    gamma = evolve(H, eta, N)
    gens = [(g, float(family.eval(k, g.degree))) for g in H.generators_upto(N)]

    precondition = []
    table = []
    violations = []
    for t in t_samples:
        tf = float(t)
        eta_norm = 0.0
        for g, w in gens:
            v = abs(float(eta.poly(g).eval(tf)))
            if v / w > eta_norm:
                eta_norm = v / w
        precondition.append({
            "t": tf,
            "eta_sup_norm": eta_norm,
            "ok": eta_norm <= 1.0 + guard,
        })
        running = 0.0
        best_gen = ""
        by_degree: dict[int, float] = {}
        witness: dict[int, str] = {}
        for g, w in gens:
            v = abs(float(gamma.polys[g].eval(tf))) / w
            if v > running:
                running, best_gen = v, H.monomial_text(g)
            d = g.degree
            if running >= by_degree.get(d, -1.0):
                by_degree[d] = running
                witness[d] = best_gen
        h = 0.0
        for n in range(1, N + 1):
            h = max(h, by_degree.get(n, 0.0))
            bound = exp((float(a) * n + float(b)) * tf)
            ok = h <= bound * (1.0 + guard)
            table.append({"t": tf, "n": n, "h_n": h, "bound": bound, "ok": ok})
            if not ok:
                violations.append({"t": tf, "n": n, "h_n": h, "bound": bound,
                                   "witness": witness.get(n, "")})
    status = "pass" if (not violations and all(p["ok"] for p in precondition)) else "fail"
    return {
        "instance": H.name,
        "family": family.name,
        "k": k,
        "a": float(a),
        "b": float(b),
        "max_degree": N,
        "precondition": precondition,
        "table": table,
        "violations": violations,
        "status": status,
    }
