"""Exact degree-by-degree solution of gamma' = gamma * eta, gamma(0) = counit.

The driving curve eta assigns each generator a polynomial in t with rational
coefficients, read as an infinitesimal-character-valued curve.  Because the
reduced coproduct strictly lowers degree on the gamma slot, the solution's
value on a degree-n generator is an exact rational polynomial in t obtained
by integrating already-known lower-degree data; no ODE stepping is involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .characters import (
    FLOAT,
    RATIONAL,
    RATIONAL_POLY,
    TruncatedCharacter,
    TruncatedInfChar,
    _clean_generator_values,
    _flow_target,
    _solve_flow,
)
from .core import Coeff, Monomial, Refused, normalize_coeff
from .hopf import HopfAlgebra


class TimePoly:
    """Dense univariate polynomial in t over exact rationals: a curve's value
    on one generator.

    ``coeffs`` is a tuple of normalised rationals (integral ones as ints),
    t^0 first, without trailing zeros.  A TimePoly is evaluated and compared;
    polynomial arithmetic is the flow solver's ``characters.RATIONAL_POLY``
    (integer numerators over one denominator), which ``evolve`` runs on the
    coefficient tuples.  ``*`` lifts to it, multiplies there and lowers the
    product; ``perfbench/spans.py`` counts its calls.  ``evolve``'s TimePolys
    keep the solver's form for ``eval``, lowered only when coeffs are read.
    """

    __slots__ = ("_coeffs", "_ints")

    def __init__(self, coeffs=()):
        cs = [normalize_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)
        self._ints = None

    @classmethod
    def _solved(cls, p) -> "TimePoly":
        """The TimePoly of a ``RATIONAL_POLY`` polynomial, () if it is zero."""
        out = cls.__new__(cls)
        out._coeffs, out._ints = None, p if any(p[1]) else ()
        return out

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = TimePoly(RATIONAL_POLY.lower(self._ints))._coeffs
        return self._coeffs

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
        """The value at t.  At an int or Fraction t it is summed on integer
        numerators over one denominator and has Horner's type: a Fraction
        when t or a coefficient is one, else an int.  At a float t, Horner."""
        if not isinstance(t, (int, Fraction)):
            total = 0
            for c in reversed(self.coeffs):
                total = total * t + c
            return total
        if self._ints is None:
            self._ints = RATIONAL_POLY.lift(self._coeffs)
        if not self._ints:
            return 0
        den, nums = self._ints
        p, q = t.numerator, t.denominator
        num, q_power = 0, 1
        for c in reversed(nums):
            num = num * p + c * q_power
            q_power *= q
        if den == 1 and not isinstance(t, Fraction):
            return num
        return Fraction(num, den * q_power // q)

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
            raise Refused("kind must be 'inf' or 'char'")
        self.hopf = hopf
        self.N = N
        self.polys = _clean_generator_values(hopf, N, polys)
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
    if eta.kind != "inf":
        raise Refused("evolve takes an infinitesimal curve (kind inf-curve)")
    if N > eta.N:
        raise Refused(f"truncation {N} exceeds the curve's degree bound {eta.N}")
    gamma, _ = _solve_flow(H, N, RATIONAL, {g: p.coeffs for g, p in eta.polys.items()})
    P = _flow_target(RATIONAL)  # RATIONAL_POLY, unless a reference target stands in
    poly = TimePoly._solved if P is RATIONAL_POLY else lambda p: TimePoly(P.lower(p))
    return TimePolynomialCurve(H, N, {g: poly(p) for g, p in gamma.items()}, "char")

