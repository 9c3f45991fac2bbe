"""Truncated characters and infinitesimal characters into a target algebra.

These are the only truncated maps.  Each is stored by its values on
generators only, every key a generator of degree at most N; evaluation
extends multiplicatively (or as a derivation) through the instance's
``character_value`` hook (a triangular solve where the basis is not the
generator monoid).  Characters form a group and infinitesimal characters
its Lie algebra: ``convolve``, ``inverse`` and ``log_character`` take
characters, ``exp_infchar`` and ``bracket`` infinitesimal ones, and each
refuses another kind with ``core.Refused``.  Convolution is the group law
and needs only generator coproducts.  exp, log and the evolution equation
share one exact solver of gamma' = gamma * eta that works degree by degree
on generators, exp(eta) being the time-1 value: gamma and eta are a
character and an infinitesimal character over B[t], the polynomials in t
over the target B, and evaluate through the same hook.  No full monomial
table is built.

Over RATIONAL the inner loops run on Python ints: the solver's polynomials
are integer numerators over one denominator (``RationalPolyTarget``), slot
for slot the tuples of ``PolyTarget(RATIONAL)``, and convolution, inverse
and bracket go through ``sum_products``, which sums integer numerators per
denominator; the solver's step is one multiply-add per coproduct term and
slot.  A Fraction is built only where a value leaves a pass, with the type
(int or Fraction) the Fraction-by-Fraction fold gives; the solver's
polynomials carry it in their length.  The float and dual targets keep that
fold and its order of operations.  A rational q enters a target as
``scale(q, one)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .core import Coeff, GradedVector, Monomial, Refused, normalize_coeff
from .growth import GrowthFamily, builtin
from .hopf import HopfAlgebra


# --------------------------------------------------------------------------
# target algebras


class TargetAlgebra(ABC):
    """Commutative unital algebra with a submultiplicative norm, ||1|| = 1.

    add, mul and norm default to the arithmetic of Python numbers, which the
    scalar targets RATIONAL and FLOAT use as it is.
    """

    name: str

    @property
    @abstractmethod
    def one(self): ...

    @property
    @abstractmethod
    def zero(self): ...

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    @abstractmethod
    def scale(self, q: Coeff, a): ...

    def norm(self, a):
        return abs(a)

    def sum_products(self, terms):
        """The sum of c x y over terms (c, x, y), with c a rational; a term
        (c, x) stands for c x.

        This default is a left fold through add, mul and scale, in that
        order of operations, so float results keep their last bits.
        """
        total = self.zero
        for c, x, *y in terms:
            if y:
                x = self.mul(x, y[0])
            total = self.add(total, self.scale(c, x))
        return total

    def __repr__(self) -> str:
        return f"<target {self.name}>"


class RationalTarget(TargetAlgebra):
    """Exact rationals: ints and Fractions."""

    name = "rational"
    one = 1
    zero = 0

    def scale(self, q, a):
        return q * a

    def sum_products(self, terms):
        """The exact sum on integers: each product's numerator is added to the
        sum kept for its denominator, a product with a zero factor adds
        nothing, and one Fraction is built at the end.  The result is an int
        exactly when every factor of every term is an int, as the left fold
        gives it."""
        sums: dict[int, int] = {}
        fraction = False
        for product in terms:
            num = den = 1
            for x in product:
                if type(x) is int:
                    num *= x
                else:
                    fraction = True
                    if num:
                        num *= x.numerator
                        den *= x.denominator
            if num:
                sums[den] = sums.get(den, 0) + num
        if not fraction:
            return sums.get(1, 0)
        den = lcm(*sums)
        return Fraction(sum(n * (den // d) for d, n in sums.items()), den)


class FloatTarget(TargetAlgebra):
    name = "float"
    one = 1.0
    zero = 0.0

    def scale(self, q, a):
        return float(q) * a


class DualTarget(TargetAlgebra):
    """Dual numbers a + eps a' with eps^2 = 0; norm |a| + |a'|."""

    name = "dual"
    one = (1, 0)
    zero = (0, 0)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])

    def scale(self, q, a):
        return (q * a[0], q * a[1])

    def norm(self, a):
        return abs(a[0]) + abs(a[1])


class PolyTarget(TargetAlgebra):
    """Polynomials in t over a target B: tuples of B-values, t^0 first, with
    () as zero; the norm is the sum of the coefficient norms.

    A slot still holding the B.zero object itself is overwritten rather than
    added to.  Zero slots stay in place, and ``integrate(())`` is the
    constant (B.zero,).  ``lift`` and ``lower`` take a tuple of B-values to
    an element and back, here as it is.  Over RATIONAL the flow solver uses
    ``RationalPolyTarget``, the same tuples on integer numerators.
    """

    zero = ()

    def __init__(self, base: TargetAlgebra):
        self.base = base
        self.name = f"{base.name}[t]"

    @property
    def one(self):
        return (self.base.one,)

    def add(self, p, q):
        if len(p) < len(q):
            p, q = q, p
        B, zero = self.base, self.base.zero
        out = list(p)
        for i, b in enumerate(q):
            a = out[i]
            out[i] = b if a is zero else B.add(a, b)
        return tuple(out)

    def mul(self, p, q):
        if not p or not q:
            return ()
        B, zero = self.base, self.base.zero
        out = [zero] * (len(p) + len(q) - 1)
        q = [(j, b) for j, b in enumerate(q) if b != zero]
        for i, a in enumerate(p):
            if a == zero:  # gamma vanishes at t = 0, so products lead with zeros
                continue
            for j, b in q:
                x = out[i + j]
                out[i + j] = B.mul(a, b) if x is zero else B.add(x, B.mul(a, b))
        return tuple(out)

    def scale(self, q, p):
        if q == 1:
            return p
        return tuple(self.base.scale(q, a) for a in p)

    def norm(self, p):
        return sum(self.base.norm(a) for a in p)

    def at_one(self, p):
        """The value p(1), the sum of the coefficients."""
        B = self.base
        total = B.zero
        for a in p:
            total = B.add(total, a)
        return total

    def integrate(self, p):
        """The antiderivative vanishing at t = 0."""
        B = self.base
        return (B.zero,) + tuple(B.scale(Fraction(1, i + 1), a) for i, a in enumerate(p))

    def lift(self, coeffs):
        return coeffs

    def lower(self, p):
        return p

    def _flow_integral(self, lead, terms, gamma, eta):
        """The flow solver's step: the antiderivative of lead + sum c
        gamma(alpha) eta(beta) over terms ((alpha, beta), c), a term whose
        eta(beta) is zero left out.  Here the fold of ``sum_products``."""
        return self.integrate(self.sum_products(
            [(1, lead)] + [(c, gamma.evaluate(alpha), e) for (alpha, beta), c in terms
                           if (e := eta.evaluate(beta))]))

    def _plus_t(self, p, x):
        """log's step: e = x - p(1), the constant e, and p + e t, x at t = 1."""
        B = self.base
        e = B.add(x, B.scale(-1, self.at_one(p)))
        return e, self.lift((e,)), self.add(p, self.lift((B.zero, e)))


def _reduced(den: int, nums: list):
    """The polynomial nums / den in lowest terms, every slot kept."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [n // g for n in nums]
    return den, tuple(nums)


def _times(a, b) -> list:
    """The product of two numerator tuples, skipping zero numerators."""
    out = [0] * (len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:  # gamma vanishes at t = 0, so products lead with zeros
            for j, y in b:
                out[i + j] += x * y
    return out


class RationalPolyTarget(PolyTarget):
    """Polynomials in t over RATIONAL, computed on Python ints.

    It encodes ``PolyTarget(RATIONAL)`` slot for slot.  An element is ()
    exactly where the generic target gives ().  Otherwise it is a pair
    (den, nums): den > 0 and one integer numerator for each slot of the
    generic tuple, t^0 first, zeros kept, with gcd(den, *nums) = 1.  So
    ``lift((0,))`` is not zero and ``integrate(())`` is the constant 0, and
    the length of a polynomial is the length of the generic one.  Every
    operation reduces with one gcd.  Values enter through ``lift`` and leave
    through ``lower`` or ``at_one``; no Fraction is built in between.  The
    int/Fraction type of a slot is not kept, so ``at_one`` gives the generic
    type only on polynomials that ``integrate`` returned.
    """

    def __init__(self):
        super().__init__(RATIONAL)

    @property
    def one(self):
        return (1, (1,))

    def lift(self, coeffs):
        """A tuple of rationals as (den, nums)."""
        if not coeffs:
            return ()
        den = lcm(*(c.denominator for c in coeffs))
        return _reduced(den, [c.numerator * (den // c.denominator) for c in coeffs])

    def lower(self, p):
        """The tuple of coefficients, integral ones as ints."""
        if not p:
            return ()
        den, nums = p
        return tuple(n if den == 1 else normalize_coeff(Fraction(n, den)) for n in nums)

    def add(self, p, q):
        if not p:
            return q
        if not q:
            return p
        (dp, a), (dq, b) = p, q
        if len(a) < len(b):
            dp, a, dq, b = dq, b, dp, a
        den = lcm(dp, dq)
        fp, fq = den // dp, den // dq
        out = [x * fp for x in a]
        for i, y in enumerate(b):
            out[i] += y * fq
        return _reduced(den, out)

    def mul(self, p, q):
        if not p or not q:
            return ()
        (dp, a), (dq, b) = p, q
        return _reduced(dp * dq, _times(a, b))

    def scale(self, q, p):
        if q == 1 or not p:
            return p
        den, nums = p
        return _reduced(den * q.denominator, [q.numerator * n for n in nums])

    def norm(self, p):
        if not p:
            return 0
        den, nums = p
        return normalize_coeff(Fraction(sum(map(abs, nums)), den))

    def at_one(self, p):
        """p(1); of the generic type only on polynomials from ``integrate``
        (a Fraction over two or more slots, else the int 0).  Elsewhere only
        the value is the generic one: (1, 2) gives Fraction(3), not 3."""
        if not p:
            return 0
        den, nums = p
        if len(nums) == 1 and den == 1:
            return nums[0]
        return Fraction(sum(nums), den)

    def integrate(self, p):
        """The antiderivative vanishing at t = 0, over den * lcm(1..k) for k
        slots; as in the generic target, integrate(()) is the constant 0."""
        if not p:
            return (1, (0,))
        den, nums = p
        m = lcm(*range(1, len(nums) + 1))
        return _reduced(den * m, [0] + [n * (m // (i + 1)) for i, n in enumerate(nums)])

    def sum_products(self, terms):
        """The exact sum on integers: each product's numerators are added to
        the sums kept for its denominator and the result is reduced once at
        the end.  A product with a () factor is () and adds nothing; any
        other product, a zero one too, keeps its slots, so the sum is () only
        when every product is ()."""
        sums: dict[int, list] = {}
        for c, *polys in terms:
            if not all(polys):
                continue
            den, nums = polys[0]
            if len(polys) == 2:
                dq, b = polys[1]
                den *= dq
                nums = _times(nums, b)
            den *= c.denominator
            c = c.numerator
            acc = sums.get(den)
            if acc is None:
                sums[den] = [c * n for n in nums]
                continue
            if len(acc) < len(nums):
                acc.extend([0] * (len(nums) - len(acc)))
            for i, n in enumerate(nums):
                acc[i] += c * n
        if not sums:
            return ()
        den = lcm(*sums)
        out = [0] * max(map(len, sums.values()))
        for d, acc in sums.items():
            f = den // d
            for i, n in enumerate(acc):
                out[i] += n * f
        return _reduced(den, out)

    def _flow_integral(self, lead, terms, gamma, eta):
        """The generic step as one loop on integer numerators over a running
        denominator, read off both maps' caches; a constant eta(beta), as in
        exp and log, scales gamma(alpha), which is never (), by a number."""
        den, acc = (lead[0], list(lead[1])) if lead else (1, [])
        gamma_cache, eta_cache = gamma._cache, eta._cache
        for (alpha, beta), c in terms:
            e = eta_cache.get(beta)
            if e is None:
                e = eta.evaluate(beta)
            if not e:
                continue
            (d, nums), (de, b) = gamma_cache.get(alpha) or gamma.evaluate(alpha), e
            d *= de * c.denominator
            c = c.numerator
            if len(b) == 1:  # eta(beta) is constant in t
                c *= b[0]
            else:
                nums = _times(nums, b)
            if den % d:  # raise den to lcm(den, d)
                f = d // gcd(den, d)
                acc = [n * f for n in acc]
                den *= f
            c *= den // d
            acc.extend([0] * (len(nums) - len(acc)))
            for i, n in enumerate(nums):
                acc[i] += c * n
        return self.integrate((den, acc))

    def _plus_t(self, p, x):
        """The generic step; p = integrate(()) is 0, and there e is x itself."""
        den, nums = p
        e = x if len(nums) == 1 else Fraction(x.numerator * den - x.denominator * sum(nums),
                                              x.denominator * den)
        n, d = e.numerator, e.denominator
        return e, (d, (n,)), self.add(p, (d, (0, n)))


RATIONAL = RationalTarget()
FLOAT = FloatTarget()
DUAL = DualTarget()

TARGETS = {"rational": RATIONAL, "float": FLOAT, "dual": DUAL}
RATIONAL_POLY = RationalPolyTarget()


# --------------------------------------------------------------------------
# the two map containers


def _clean_generator_values(hopf: HopfAlgebra, N: int,
                            values: Mapping[Monomial, object]) -> dict[Monomial, object]:
    out: dict[Monomial, object] = {}
    for m, v in values.items():
        if not hopf.is_generator(m):
            raise Refused(f"{hopf.monomial_text(m)} is not a generator of {hopf.name}")
        if m.degree > N:
            raise Refused(f"generator {hopf.monomial_text(m)} exceeds N={N}")
        out[m] = v
    return out


class _GeneratorMap:
    """A map stored by its values on generators; absent means zero."""

    kind: str
    infinitesimal: bool

    def __init__(self, hopf: HopfAlgebra, N: int, target: TargetAlgebra,
                 values: Mapping[Monomial, object]):
        self.hopf = hopf
        self.N = N
        self.target = target
        self.values = _clean_generator_values(hopf, N, values)
        self._cache: dict[Monomial, object] = {}

    def _value(self, g: Monomial):
        return self.values.get(g, self.target.zero)

    def evaluate(self, m: Monomial):
        cached = self._cache.get(m)  # holds only nonempty m within the truncation
        if cached is not None:
            return cached
        if m.degree > self.N:
            raise Refused(
                f"degree {m.degree} exceeds truncation N={self.N} for {self.kind}")
        if m.is_empty():
            return self.target.zero if self.infinitesimal else self.target.one
        total = self.hopf.character_value(m, self._value, self.evaluate, self.target,
                                          self.infinitesimal)
        self._cache[m] = total
        return total

    def on_vector(self, v: GradedVector):
        """Linear extension to a vector of monomials."""
        return self.target.sum_products((c, self.evaluate(m)) for m, c in v.terms.items())


class TruncatedCharacter(_GeneratorMap):
    """Multiplicative unital map, determined by generator values."""

    kind = "character"
    infinitesimal = False


class TruncatedInfChar(_GeneratorMap):
    """Derivation past the counit: zero on 1 and on multi-factor monomials."""

    kind = "infinitesimal character"
    infinitesimal = True


# --------------------------------------------------------------------------
# convolution and the group operations


def _check_maps(op: str, cls, *maps) -> None:
    """Refuse maps not all of class cls, and two that differ in instance,
    truncation or target algebra."""
    if not all(isinstance(m, cls) for m in maps):
        what = (f"two {cls.kind}s" if len(maps) == 2
                else f"{'an' if cls.infinitesimal else 'a'} {cls.kind}")
        raise Refused(f"{op} takes {what}")
    phi, *others = maps
    for psi in others:
        if phi.hopf.name != psi.hopf.name:
            raise Refused(f"instances differ: {phi.hopf.name} vs {psi.hopf.name}")
        if phi.N != psi.N:
            raise Refused(f"truncations differ: {phi.N} vs {psi.N}")
        if phi.target is not psi.target:
            raise Refused("target algebras differ")


def _convolve_on(phi, psi, m: Monomial):
    return phi.target.sum_products(
        (c, phi.evaluate(mu), psi.evaluate(sigma))
        for (mu, sigma), c in phi.hopf.coproduct_monomial(m).terms.items())


def convolve(phi: TruncatedCharacter, psi: TruncatedCharacter) -> TruncatedCharacter:
    """phi * psi through the coproduct, the group law on characters."""
    _check_maps("convolve", TruncatedCharacter, phi, psi)
    H, N, B = phi.hopf, phi.N, phi.target
    values = {g: _convolve_on(phi, psi, g) for g in H.generators_upto(N)}
    return TruncatedCharacter(H, N, B, values)


def inverse(phi: TruncatedCharacter) -> TruncatedCharacter:
    """Convolution inverse: composition with the antipode."""
    _check_maps("inverse", TruncatedCharacter, phi)
    H = phi.hopf
    values = {g: phi.on_vector(H.antipode_monomial(g)) for g in H.generators_upto(phi.N)}
    return TruncatedCharacter(H, phi.N, phi.target, values)


def linf_norm(phi, family: GrowthFamily, k: int, over: str = "generators"):
    """Sup of ||phi(m)|| / omega_k(|m|) up to phi's degree N, an exact rational
    when both the norm and the weight are, so it depends only on the values.

    A truncation cannot certify the supremum over all degrees; treat the
    result as a finite-degree proxy.
    """
    if over == "generators":
        domain = phi.hopf.generators_upto(phi.N)
    elif over == "monomials":
        domain = phi.hopf.basis_upto(phi.N)
    else:
        raise Refused("over must be 'generators' or 'monomials'")
    best = None
    for m in domain:
        weight = family.eval(k, m.degree)  # refuses a bad k before phi computes
        norm = phi.target.norm(phi.evaluate(m))
        if isinstance(norm, (int, Fraction)) and isinstance(weight, (int, Fraction)):
            ratio = Fraction(norm, weight)
        else:
            ratio = norm / weight
        if best is None or ratio > best:
            best = ratio
    return 0 if best is None else best


# --------------------------------------------------------------------------
# exp / log / bracket through one flow solver


def _flow_target(B: TargetAlgebra) -> PolyTarget:
    """B[t], where the flow solver's gamma and eta live: ``RATIONAL_POLY`` on
    integer numerators when B is RATIONAL, else ``PolyTarget(B)``."""
    return RATIONAL_POLY if B is RATIONAL else PolyTarget(B)


def _solve_flow(H: HopfAlgebra, N: int, B: TargetAlgebra, eta: dict,
                phi: TruncatedCharacter | None = None):
    """gamma' = gamma * eta, gamma(0) = counit, on the generators up to degree N.

    eta maps generators to t-polynomials over B, tuples of B-values (absent
    means zero; those past degree N are ignored).  Returns (gamma, solved):
    gamma maps every generator of degree <= N to its polynomial in
    ``_flow_target(B)``, and solved holds log's eta (below).  Degree by
    degree, gamma(g) = integral_0^t (eta(g) + sum c gamma(alpha) eta(beta))
    over the reduced coproduct of g: the primitive terms give gamma(1)
    eta(g) = eta(g) and gamma(g) eta(1) = 0.  alpha and beta have lower
    degree, so both evaluate, through the instance's ``character_value``
    hook, from generator values already solved.  Integration is exact over
    an exact B.  The step is the target's ``_flow_integral``, one integer
    loop in ``RationalPolyTarget``.

    With phi, eta is the unknown instead: a constant infinitesimal character
    with gamma(1) = phi, solved generator by generator.  Since gamma(alpha)
    vanishes at t = 0, eta(g) enters gamma(g) only as the t^1 term eta(g) t,
    and the higher coefficients do not depend on it, so solved maps g to
    the B-value eta(g) = phi(g) - sum_{k >= 2} gamma(g)_k (``_plus_t``).
    """
    P = _flow_target(B)
    gamma = TruncatedCharacter(H, N, P, {})
    inf = TruncatedInfChar(H, N, P, {g: P.lift(p) for g, p in eta.items() if g.degree <= N})
    solved = {}
    for n in range(1, N + 1):
        for g in H.generators(n):
            p = P._flow_integral(inf._value(g), H.reduced_coproduct_monomial(g).terms.items(),
                                 gamma, inf)
            if phi is not None:
                solved[g], inf.values[g], p = P._plus_t(p, phi.evaluate(g))
            gamma.values[g] = p
    return gamma.values, solved


def exp_infchar(eta: TruncatedInfChar) -> TruncatedCharacter:
    """exp(eta), the time-1 value of gamma' = gamma * eta, gamma(0) = counit.

    Solved exactly on the generators up to eta's N, degree by degree (see
    ``_solve_flow``); exp(eta)(g) is the sum of gamma_t(g)'s coefficients.
    """
    _check_maps("exp", TruncatedInfChar, eta)
    H, N, B = eta.hopf, eta.N, eta.target
    gamma, _ = _solve_flow(H, N, B, {g: (v,) for g, v in eta.values.items()})
    P = _flow_target(B)
    return TruncatedCharacter(H, N, B, {g: P.at_one(p) for g, p in gamma.items()})


def log_character(phi: TruncatedCharacter) -> TruncatedInfChar:
    """The infinitesimal character eta with exp(eta) = phi, up to phi's N.

    Runs the exp recursion while solving for eta degree by degree: the t^1
    coefficient of gamma_t(g) is eta(g) and the higher ones depend only on
    lower degrees, so eta(g) = phi(g) - sum_{k >= 2} gamma_t(g)_k.
    """
    _check_maps("log", TruncatedCharacter, phi)
    H, N, B = phi.hopf, phi.N, phi.target
    _, eta = _solve_flow(H, N, B, {}, phi)
    return TruncatedInfChar(H, N, B, eta)


def bracket(eta1: TruncatedInfChar, eta2: TruncatedInfChar) -> TruncatedInfChar:
    """Convolution commutator eta1 * eta2 - eta2 * eta1 on generators.

    One pass over the reduced coproduct: the primitive terms vanish because
    eta(1) = 0.
    """
    _check_maps("bracket", TruncatedInfChar, eta1, eta2)
    H, N, B = eta1.hopf, eta1.N, eta1.target

    def terms(g):
        for (mu, sigma), c in H.reduced_coproduct_monomial(g).terms.items():
            yield c, eta1.evaluate(mu), eta2.evaluate(sigma)
            yield -c, eta2.evaluate(mu), eta1.evaluate(sigma)

    values = {g: B.sum_products(terms(g)) for g in H.generators_upto(N)}
    return TruncatedInfChar(H, N, B, values)


# --------------------------------------------------------------------------
# the non-group counterexample


def counterexample_demo() -> dict:
    """The controlled-character set can fail to be a group.

    On the one-primitive-generator instance, characters correspond to their
    value at X and convolution adds values.  Under the decaying pseudo
    family exp(-n/k), the value 0.9 is controlled (witness k = 10) but the
    convolution square's value 1.8 exceeds every weight exp(-1/k) < 1, so
    no k controls it.
    """
    from .instances import Binomial

    H = Binomial()
    anti = builtin("anti")
    N = 2
    X = H.generators(1)[0]
    phi = TruncatedCharacter(H, N, FLOAT, {X: 0.9})

    w10 = anti.eval(10, 1)
    controlled = 0.9 <= w10 + 1e-12
    square = convolve(phi, phi)
    val = square.evaluate(X)

    # exp(-1/k) increases in k, so the largest weight is at the largest k
    k_big = 10**6
    max_weight = anti.eval(k_big, 1)
    escapes_all = val > max_weight
    sampled_ok = all(val > anti.eval(k, 1) for k in range(1, 10001))

    steps = [
        {"step": "construct", "detail": "character value at X", "value": 0.9, "ok": True},
        {"step": "control-witness", "detail": "0.9 <= exp(-1/10)",
         "value": w10, "ok": bool(controlled)},
        {"step": "convolve", "detail": "(phi * phi)(X) adds values",
         "value": val, "ok": abs(val - 1.8) < 1e-12},
        {"step": "escape", "detail": f"1.8 > exp(-1/k) for all k <= {k_big}",
         "value": max_weight, "ok": bool(escapes_all and sampled_ok)},
    ]
    return {
        "instance": H.name,
        "family": anti.name,
        "phi_at_X": 0.9,
        "witness_k": 10,
        "controlled": bool(controlled),
        "square_at_X": val,
        "max_weight_at_degree_1": max_weight,
        "uncontrolled_square": bool(escapes_all and sampled_ok),
        "status": "pass" if (controlled and escapes_all and sampled_ok
                             and abs(val - 1.8) < 1e-12) else "fail",
        "trace": steps,
    }
