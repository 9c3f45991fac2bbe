"""The combinatorial Hopf algebra interface and instance-independent machinery.

An instance provides its graded alphabet of basis symbols, the coproduct
on a single symbol, and optionally an explicit antipode on one.  Everything
else -- multiplicative extension, counit, reduced coproduct, the two
recursive antipode formulas, and the exact Hopf-axiom checker -- is
generic.  Every basis element is a :class:`~hopfchar.core.Monomial` of the
one commutative monoid.  Most instances take the Hopf generators as the
symbols.  The shuffle algebra takes every nonempty word as one symbol and
supplies its own product, so its coproduct and antipode are given on each
word directly, and a symbol is a generator only when
:meth:`HopfAlgebra.is_generator` says so (a Lyndon word).

Conventions: the basis of degree 0 is the empty monomial alone (connected),
generators have degree >= 1, and the coproduct of a basis element x always
contains x (x) 1 and 1 (x) x once.

Sums of products, coproducts and antipodes accumulate in place into one dict
through :meth:`HopfAlgebra.add_product` and :func:`~hopfchar.core.add_scaled`
and are normalised once at the end; no returned vector stores a zero
coefficient.  Axiom-check results are immutable ``NamedTuple``s, built once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

from .core import (
    Coeff,
    GradedVector,
    Monomial,
    TensorVector,
    empty_monomial,
    monomial_product,
    multisets,
    tensor_product,
)


class HopfAlgebra(ABC):
    """Graded connected Hopf algebra presented on a generator alphabet."""

    name: str

    def __init__(self):
        self._coproduct_cache: dict[Monomial, TensorVector] = {}
        self._reduced_cache: dict[Monomial, TensorVector] = {}
        self._antipode_cache: dict[Monomial, GradedVector] = {}
        self._rec_cache: dict[tuple[int, Monomial], GradedVector] = {}
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}

    # ------------------------------------------------------------------ alphabet

    @abstractmethod
    def generators(self, n: int) -> tuple[Monomial, ...]:
        """The degree-n polynomial generators, as single-factor monomials."""

    def generators_upto(self, n: int) -> list[Monomial]:
        out: list[Monomial] = []
        for d in range(1, n + 1):
            out.extend(self.generators(d))
        return out

    @abstractmethod
    def generator_from_text(self, text: str) -> Monomial:
        """Decode one generator from its canonical text key."""

    def is_generator(self, m: Monomial) -> bool:
        """Whether m is a Hopf generator: any single symbol by default."""
        return m.is_single()

    def empty(self) -> Monomial:
        return empty_monomial()

    def basis(self, n: int) -> tuple[Monomial, ...]:
        """The degree-n vector space basis: the monomials over the generators,
        in the walk order of :func:`~hopfchar.core.multisets`."""
        out = self._basis_cache.get(n)
        if out is None:
            gens = [m.factors[0] for m in self.generators_upto(n)]
            out = self._basis_cache[n] = tuple(
                Monomial(factors)
                for factors in multisets(gens, [g.degree for g in gens], n))
        return out

    def basis_upto(self, n: int) -> list[Monomial]:
        out = [self.empty()]
        for d in range(1, n + 1):
            out.extend(self.basis(d))
        return out

    def axiom_domain(self, n: int) -> tuple[Monomial, ...]:
        """Elements the axiom checker visits; generators unless overridden."""
        return self.generators(n)

    # ------------------------------------------------------------------ product

    def add_product(self, acc: dict, a: Monomial, b: Monomial, c: Coeff) -> None:
        """acc += c * (a . b) in place; the monoid product by default."""
        m = monomial_product(a, b)
        acc[m] = acc.get(m, 0) + c

    def product_monomials(self, a: Monomial, b: Monomial) -> GradedVector:
        """Algebra product of two basis elements."""
        acc: dict[Monomial, Coeff] = {}
        self.add_product(acc, a, b, 1)
        return GradedVector(acc)

    def product(self, u: GradedVector, v: GradedVector) -> GradedVector:
        acc: dict[Monomial, Coeff] = {}
        for ma, ca in u.terms.items():
            for mb, cb in v.terms.items():
                self.add_product(acc, ma, mb, ca * cb)
        return GradedVector(acc)

    def character_value(self, m: Monomial, gen_value, value_of, B, infinitesimal: bool):
        """The value at a nonempty basis element m of a character (or, with
        infinitesimal, of an infinitesimal character) stored on generators.

        gen_value(g) reads the stored value of a generator g, and value_of(u)
        the map's own value at another basis element u of the same degree.
        Here m is the product of its factors: a character multiplies their
        values, and an infinitesimal character, zero on products, gives the
        value of a single generator and zero otherwise.

        This is the one evaluation path for characters: the exp/log/evolve
        solver's gamma and eta come here too, with B the polynomials in t
        over the solver's target.
        """
        gens = [Monomial.trusted((g,), g.degree) for g in m.factors]
        if infinitesimal:
            return gen_value(gens[0]) if len(gens) == 1 else B.zero
        value = gen_value(gens[0])
        for g in gens[1:]:
            value = B.mul(value, gen_value(g))
        return value

    # ------------------------------------------------------------------ coproduct

    @abstractmethod
    def coproduct_generator(self, g: Monomial) -> TensorVector: ...

    def coproduct_monomial(self, m: Monomial) -> TensorVector:
        cached = self._coproduct_cache.get(m)
        if cached is not None:
            return cached
        if m.is_empty():
            out = TensorVector.of((m, m))
        elif m.is_single():
            out = self.coproduct_generator(m)
        else:
            g = m.factors[0]
            head = Monomial.trusted((g,), g.degree)
            tail = Monomial.trusted(m.factors[1:], m.degree - g.degree)
            out = tensor_product(self.coproduct_monomial(head), self.coproduct_monomial(tail))
        self._coproduct_cache[m] = out
        return out

    def reduced_coproduct_monomial(self, m: Monomial) -> TensorVector:
        """Coproduct minus the two primitive terms m (x) 1 and 1 (x) m."""
        cached = self._reduced_cache.get(m)
        if cached is not None:
            return cached
        out = TensorVector.trusted(
            {p: c for p, c in self.coproduct_monomial(m).terms.items()
             if p[0].factors and p[1].factors})
        self._reduced_cache[m] = out
        return out

    def counit(self, v: GradedVector) -> Coeff:
        return v.counit()

    # ------------------------------------------------------------------ antipode

    def antipode_generator_explicit(self, g: Monomial) -> GradedVector | None:
        """Closed-form antipode on a generator, when the instance has one."""
        return None

    def antipode_monomial(self, m: Monomial) -> GradedVector:
        cached = self._antipode_cache.get(m)
        if cached is not None:
            return cached
        if m.is_empty():
            out = GradedVector.of(m)
        elif m.is_single():
            explicit = self.antipode_generator_explicit(m)
            out = explicit if explicit is not None else self.antipode_recursive(m, variant=1)
        else:
            # S is multiplicative
            out = GradedVector.of(self.empty())
            for g in m.factors:
                out = self.product(out, self.antipode_monomial(Monomial.trusted((g,), g.degree)))
        self._antipode_cache[m] = out
        return out

    def antipode_recursive(self, m: Monomial, variant: int = 1) -> GradedVector:
        """S from the connected-grading recursion.

        variant 1: S(x) = -x - sum S(x') x'';  variant 2: S(x) = -x - sum x' S(x'').
        Both recurse on strictly smaller degree, with no reference to an
        explicit formula.
        """
        if variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        if m.is_empty():
            return GradedVector.of(m)
        key = (variant, m)
        cached = self._rec_cache.get(key)
        if cached is not None:
            return cached
        acc: dict[Monomial, Coeff] = {m: -1}
        for (mu, sigma), c in self.reduced_coproduct_monomial(m).terms.items():
            if variant == 1:
                for a, ca in self.antipode_recursive(mu, 1).terms.items():
                    self.add_product(acc, a, sigma, -c * ca)
            else:
                for b, cb in self.antipode_recursive(sigma, 2).terms.items():
                    self.add_product(acc, mu, b, -c * cb)
        out = GradedVector(acc)
        self._rec_cache[key] = out
        return out

    # ------------------------------------------------------------------ misc

    def monomial_text(self, m: Monomial) -> str:
        if m.is_empty():
            return "1"
        return "*".join(g.key for g in m.factors)

    def monomial_from_text(self, text: str) -> Monomial:
        """Inverse of monomial_text: '*'-separated generator keys, or '1'."""
        if text in ("1", ""):
            return self.empty()
        factors = []
        for part in text.split("*"):
            factors.extend(self.generator_from_text(part).factors)
        return Monomial(tuple(factors))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class AxiomViolation(NamedTuple):
    instance: str
    degree: int
    element: str
    check: str
    witness: str

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "degree": self.degree,
            "generator": self.element,
            "check": self.check,
            "status": "fail",
            "witness": self.witness,
        }


class AxiomsReport(NamedTuple):
    instance: str
    max_degree: int
    elements_checked: int
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "max_degree": self.max_degree,
            "elements_checked": self.elements_checked,
            "status": "pass" if self.ok else "fail",
            "violations": [v.to_dict() for v in self.violations],
        }


def check_hopf_axioms(H: HopfAlgebra, max_degree: int, fail_fast: bool = True) -> AxiomsReport:
    """Exact verification of counit, coassociativity, antipode and grading.

    Runs over H.axiom_domain(n) for n <= max_degree.  All comparisons are
    exact rational identities; the report carries the first violation per
    element if any.
    """
    checked = 0
    violations: list[AxiomViolation] = []
    for n in range(1, max_degree + 1):
        for x in H.axiom_domain(n):
            checked += 1
            bad = _check_element(H, x, n)
            if bad is not None:
                violations.append(bad)
                if fail_fast:
                    return AxiomsReport(H.name, max_degree, checked, (bad,))
    return AxiomsReport(H.name, max_degree, checked, tuple(violations))


def _check_element(H: HopfAlgebra, x: Monomial, n: int) -> AxiomViolation | None:
    label = H.monomial_text(x)
    one = H.empty()
    cop = H.coproduct_monomial(x)

    # grading and the two primitive terms
    for (mu, sigma), c in cop.terms.items():
        if mu.degree + sigma.degree != n:
            return AxiomViolation(H.name, n, label, "degree-preservation",
                                  f"{H.monomial_text(mu)} (x) {H.monomial_text(sigma)}")
    if cop.coefficient((x, one)) != 1 or cop.coefficient((one, x)) != 1:
        return AxiomViolation(H.name, n, label, "connected-primitive-terms", repr(cop))

    # counit: (eps (x) id) Delta = id = (id (x) eps) Delta
    left = GradedVector({sigma: c for (mu, sigma), c in cop.terms.items() if mu.is_empty()})
    right = GradedVector({mu: c for (mu, sigma), c in cop.terms.items() if sigma.is_empty()})
    if left != GradedVector.of(x) or right != GradedVector.of(x):
        return AxiomViolation(H.name, n, label, "counit", f"left={left!r} right={right!r}")

    # coassociativity, accumulated as (Delta (x) id - id (x) Delta) Delta(x)
    acc: dict[tuple[Monomial, Monomial, Monomial], Coeff] = {}
    for (mu, sigma), c in cop.terms.items():
        for (a, b), d in H.coproduct_monomial(mu).terms.items():
            key = (a, b, sigma)
            v = acc.get(key, 0) + c * d
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
        for (b, cc), d in H.coproduct_monomial(sigma).terms.items():
            key = (mu, b, cc)
            v = acc.get(key, 0) - c * d
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    if acc:
        some = next(iter(acc))
        return AxiomViolation(
            H.name, n, label, "coassociativity",
            f"{len(acc)} unbalanced terms, e.g. {tuple(H.monomial_text(m) for m in some)}",
        )

    # antipode axiom: m(S (x) id) Delta = u eps = m(id (x) S) Delta
    lhs_acc: dict[Monomial, Coeff] = {}
    rhs_acc: dict[Monomial, Coeff] = {}
    for (mu, sigma), c in cop.terms.items():
        for a, ca in H.antipode_monomial(mu).terms.items():
            H.add_product(lhs_acc, a, sigma, c * ca)
        for b, cb in H.antipode_monomial(sigma).terms.items():
            H.add_product(rhs_acc, mu, b, c * cb)
    lhs, rhs = GradedVector(lhs_acc), GradedVector(rhs_acc)
    if not lhs.is_zero() or not rhs.is_zero():
        return AxiomViolation(H.name, n, label, "antipode", f"S*id={lhs!r} id*S={rhs!r}")
    return None
