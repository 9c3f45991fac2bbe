"""Graded alphabets, the free commutative monoid on them, and sparse
exact-rational vectors.

Everything downstream is built from three value types:

* :class:`Generator` -- a basis symbol of a graded alphabet (a tree, a
  shuffle word, a series coefficient), identified by a canonical text key.
* :class:`Monomial` -- a product of generators, as a sorted multiset: there
  is one monoid, the free commutative one.  The empty monomial is the unit
  and the only degree-0 element.  A shuffle word is one basis symbol, so a
  single-factor monomial (``is_single()``) need not be a Hopf generator;
  that is the instance's ``is_generator`` decision.
* :class:`GradedVector` -- finitely supported map ``key -> coefficient``
  on H (keys: monomials) or on H (x) H (keys: pairs of monomials, the
  output type of coproducts); ``TensorVector`` is an alias kept for the
  second use.

Coefficients are exact rationals stored as ``int`` where possible and
``fractions.Fraction`` otherwise.

Accumulation invariant: sums are built in place in a plain dict (see
:func:`add_scaled`), which may pass through zero coefficients, and are
normalised once when wrapped in a vector; no zero coefficient is stored in a
vector once it is returned.

Construction: monomials are hash-consed in one process-wide table, one
object per sorted factor tuple.  ``Monomial(factors)`` validates -- it sorts
the factors and rejects mixed alphabets -- and then returns the object the
table holds.  ``Monomial.trusted`` does neither and trusts its caller to
pass factors that are already sorted, from one alphabet, with their degree
sum; only products and slices of validated monomials are built that way.
Equal monomials are therefore the same object, and equality and hashing are
the default identity ones, so monomials, H (x) H pairs and other tuples of
them compare and hash in C.  :func:`monomial_product` keeps a process-wide
memo ``(a, b) -> a.b`` of the pairs that passed its alphabet check.
Neither table is ever cleared: it holds the monomials and products the
process has built so far.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Mapping, Sequence, Union

Coeff = Union[int, Fraction]


def normalize_coeff(c: Coeff) -> Coeff:
    """Collapse integral Fractions to plain ints (exactness is unaffected)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def json_number(x):
    """A report value: integral Fractions as int, other Fractions as float."""
    if isinstance(x, Fraction):
        return float(x) if x.denominator != 1 else int(x)
    return x


class Refused(ValueError):
    """An argument that breaks a rule of the operation reading it, raised
    where it is read, before anything is computed; the CLI exits 2 on it."""


class Generator:
    """A graded alphabet element with a canonical text key.

    Two generators are equal iff alphabet and key agree; the degree is
    carried along and must be >= 1 (pure alphabet, no degree-0 generators).
    """

    __slots__ = ("alphabet", "key", "degree", "order", "_hash")

    def __init__(self, alphabet: str, key: str, degree: int):
        if degree < 1:
            raise ValueError(f"generator degree must be >= 1, got {degree}")
        self.alphabet = alphabet
        self.key = key
        self.degree = degree
        self.order = (degree, key)
        self._hash = hash((alphabet, key))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Generator):
            return NotImplemented
        return self.key == other.key and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Generator({self.alphabet!r}, {self.key!r}, deg={self.degree})"


_ORDER = attrgetter("order")


class Monomial:
    """A product of generators from one alphabet, as a sorted multiset.

    Interned: the constructor and :meth:`trusted` both return the one object
    held for the sorted factors, so ``==`` is ``is`` and the hash is the
    object's identity.  The constructor validates its input; :meth:`trusted`
    does not.  A monomial is shared by every holder and is never mutated.
    """

    __slots__ = ("factors", "degree")

    def __new__(cls, factors: tuple[Generator, ...]):
        factors = tuple(sorted(factors, key=_ORDER))
        m = _INTERNED.get(factors)
        if m is not None:
            return m
        alphabets = {g.alphabet for g in factors}
        if len(alphabets) > 1:
            raise ValueError(f"mixed alphabets in one monomial: {sorted(alphabets)}")
        return cls.trusted(factors, sum(g.degree for g in factors))

    def __init__(self, factors: tuple[Generator, ...]):
        """Nothing to do: ``__new__`` returned the interned, complete object."""

    @classmethod
    def trusted(cls, factors: tuple[Generator, ...], degree: int) -> "Monomial":
        """The interned monomial, built without sorting or checks if new:
        factors sorted, degree their sum."""
        m = _INTERNED.get(factors)
        if m is None:
            m = object.__new__(cls)
            m.factors = factors
            m.degree = degree
            _INTERNED[factors] = m
        return m

    def __reduce__(self):
        # copies and unpickled monomials go through the table too
        return (Monomial, (self.factors,))

    def is_empty(self) -> bool:
        return not self.factors

    def is_single(self) -> bool:
        return len(self.factors) == 1

    def sort_key(self) -> tuple:
        return (self.degree, tuple(g.key for g in self.factors))

    def __repr__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(g.key for g in self.factors)


Key = Union[Monomial, tuple[Monomial, ...]]

# sorted factors -> the one monomial, filled by Monomial.trusted
_INTERNED: dict[tuple[Generator, ...], Monomial] = {}
# (a, b) -> a.b, only for pairs that passed monomial_product's check
_PRODUCTS: dict[tuple[Monomial, Monomial], Monomial] = {}


def empty_monomial() -> Monomial:
    return Monomial(())


def monomial_of(g: Generator) -> Monomial:
    return Monomial((g,))


def monomial_product(a: Monomial, b: Monomial) -> Monomial:
    """Monoid product: multiset union.

    Memoised per pair.  Both factor tuples are already sorted, so a new
    product is a merge, and the sort runs only when the two tuples
    interleave.  A pair of mixed alphabets raises on every call and is never
    stored.
    """
    key = (a, b)
    p = _PRODUCTS.get(key)
    if p is not None:
        return p
    fa, fb = a.factors, b.factors
    if not fa:
        p = b
    elif not fb:
        p = a
    else:
        if fa[0].alphabet != fb[0].alphabet:
            raise ValueError("cannot multiply monomials over different alphabets")
        factors = fa + fb
        if fb[0].order < fa[-1].order:
            factors = tuple(sorted(factors, key=_ORDER))
        p = Monomial.trusted(factors, a.degree + b.degree)
    _PRODUCTS[key] = p
    return p


def multisets(pool: Sequence, sizes: Sequence[int], n: int,
              max_size: int | None = None) -> list[tuple]:
    """The multisets of pool items with sizes (each >= 1) summing to n and at
    most max_size members (any number when None), as tuples in pool order,
    in lexicographic order of their pool indices."""
    # fits[r]: the ascending pool indices of the items of size at most r
    fits: list[list[int]] = [[] for _ in range(n + 1)]
    for i, s in enumerate(sizes):
        for r in range(s, n + 1):
            fits[r].append(i)
    out: list[tuple] = []

    def extend(prefix: list, start: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_size:
            return
        candidates = fits[remaining]
        for k in range(bisect_left(candidates, start), len(candidates)):
            i = candidates[k]
            prefix.append(pool[i])
            extend(prefix, i, remaining - sizes[i])
            prefix.pop()

    extend([], 0, n)
    return out


def add_scaled(acc: dict, terms: Mapping, c: Coeff) -> None:
    """acc += c * terms, in place; zeros are dropped when acc is wrapped."""
    for key, k in terms.items():
        acc[key] = acc.get(key, 0) + c * k


def _parts(key) -> tuple:
    """The monomials of a key: the tuple itself for H (x) H, a 1-tuple for H."""
    return key if isinstance(key, tuple) else (key,)


def _degree(key) -> int:
    # a plain loop: about twice as fast as sum() over a generator
    total = 0
    for m in _parts(key):
        total += m.degree
    return total


class GradedVector:
    """Sparse linear combination of basis elements with exact coefficients.

    A key is a :class:`Monomial` (a basis element of H) or a tuple of
    monomials (a basis element of H (x) H, of degree the sum of its parts).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Coeff] | None = None):
        clean: dict[Key, Coeff] = {}
        if terms:
            for key, c in terms.items():
                c = normalize_coeff(c)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def trusted(cls, terms: dict[Key, Coeff]) -> "GradedVector":
        """Wrap ``terms`` as is, without normalising: no coefficient may be zero."""
        v = cls.__new__(cls)
        v.terms = terms
        return v

    @classmethod
    def unit(cls) -> "GradedVector":
        return cls({empty_monomial(): 1})

    @classmethod
    def of(cls, key: Key, c: Coeff = 1) -> "GradedVector":
        return cls({key: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedVector):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("GradedVector is not hashable")

    def __iter__(self) -> Iterator[tuple[Key, Coeff]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "GradedVector") -> "GradedVector":
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key, 0) + c
            if acc:
                out[key] = normalize_coeff(acc)
            else:
                out.pop(key, None)
        return GradedVector.trusted(out)

    def __neg__(self) -> "GradedVector":
        return GradedVector.trusted({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + (-other)

    def scale(self, c: Coeff) -> "GradedVector":
        c = normalize_coeff(c)
        if not c:
            return GradedVector()
        return GradedVector.trusted({key: normalize_coeff(k * c) for key, k in self.terms.items()})

    def __rmul__(self, c: Coeff) -> "GradedVector":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, GradedVector):
            return vector_product(self, other)
        return NotImplemented

    def coefficient(self, key: Key) -> Coeff:
        return self.terms.get(key, 0)

    def counit(self) -> Coeff:
        return self.terms.get(empty_monomial(), 0)

    def max_degree(self) -> int:
        return max((_degree(key) for key in self.terms), default=0)

    def l1_norm(self, family, k: int):
        """Sum of |coefficient| * omega_k(degree) over all terms."""
        total = 0
        for key, c in self.terms.items():
            total += abs(c) * family.eval(k, _degree(key))
        return normalize_coeff(total) if isinstance(total, Fraction) else total

    def l1_count(self) -> Coeff:
        """Unweighted coefficient mass, sum of |c|."""
        total = sum(abs(c) for c in self.terms.values())
        return normalize_coeff(total) if isinstance(total, Fraction) else total

    def sorted_terms(self) -> list[tuple[Key, Coeff]]:
        return sorted(self.terms.items(),
                      key=lambda kc: tuple(map(Monomial.sort_key, _parts(kc[0]))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for key, c in self.sorted_terms():
            parts = _parts(key)
            text = " (x) ".join(repr(m) for m in parts)
            out.append(f"{c}*{text}" if len(parts) == 1 else f"{c}*({text})")
        return " + ".join(out)


TensorVector = GradedVector


def vector_product(u: GradedVector, v: GradedVector) -> GradedVector:
    """Bilinear extension of the monoid product."""
    out: dict[Monomial, Coeff] = {}
    for ma, ca in u.terms.items():
        for mb, cb in v.terms.items():
            m = monomial_product(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return GradedVector(out)


def tensor_product(s: TensorVector, t: TensorVector) -> TensorVector:
    """Componentwise product, (a (x) b)(c (x) d) = ac (x) bd."""
    out: dict[tuple[Monomial, Monomial], Coeff] = {}
    for (la, ra), ca in s.terms.items():
        for (lb, rb), cb in t.terms.items():
            p = (monomial_product(la, lb), monomial_product(ra, rb))
            out[p] = out.get(p, 0) + ca * cb
    return TensorVector(out)
