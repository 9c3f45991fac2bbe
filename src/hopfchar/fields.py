"""Sparse multivariate polynomials and polynomial maps with exact derivatives.

Everything here is exact over the rationals: evaluation, arbitrary partial
derivatives, Jacobian-vector products, and multilinear derivative
applications never see roundoff, which is what makes the series identity
checks meaningful.  Floats flow through evaluation unchanged when a caller
passes float points.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .core import Coeff, normalize_coeff


class Poly:
    """Sparse polynomial in nvars variables: exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Coeff] | None = None):
        self.nvars = nvars
        clean: dict[tuple, Coeff] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong arity for {nvars} vars")
                c = normalize_coeff(c)
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: Coeff) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Poly is not hashable")

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e, 0) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        p = Poly.__new__(Poly)
        p.nvars = self.nvars
        p.terms = out
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e, 0) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        p = Poly.__new__(Poly)
        p.nvars = self.nvars
        p.terms = {e: normalize_coeff(c) for e, c in out.items()}
        return p

    def scale(self, c: Coeff) -> "Poly":
        c = normalize_coeff(c)
        if not c:
            return Poly(self.nvars)
        p = Poly.__new__(Poly)
        p.nvars = self.nvars
        p.terms = {e: normalize_coeff(k * c) for e, k in self.terms.items()}
        return p

    def diff(self, i: int) -> "Poly":
        out: dict[tuple, Coeff] = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[e2] = out.get(e2, 0) + c * e[i]
        return Poly(self.nvars, out)

    def eval(self, point: Sequence):
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = 0
        for e, c in self.terms.items():
            v = c
            for p, k in zip(point, e):
                for _ in range(k):
                    v = v * p
            total = total + v
        return total

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            vars_part = "*".join(f"y{i}^{k}" if k > 1 else f"y{i}"
                                 for i, k in enumerate(e) if k)
            bits.append(f"{c}*{vars_part}" if vars_part else f"{c}")
        return " + ".join(bits)


class PolyMap:
    """Polynomial map R^nvars -> R^len(comps) with cached partials."""

    def __init__(self, nvars: int, comps: Iterable[Poly]):
        self.nvars = nvars
        self.comps = tuple(comps)
        for p in self.comps:
            if p.nvars != nvars:
                raise ValueError("component arity mismatch")
        self._partials: dict[tuple, Poly] = {}

    @property
    def dim(self) -> int:
        return len(self.comps)

    def evaluate(self, y: Sequence) -> tuple:
        return tuple(p.eval(y) for p in self.comps)

    def degree(self) -> int:
        """The largest total degree of a component: every derivative of a
        higher order is the zero map."""
        return max((p.degree() for p in self.comps), default=0)

    def partial(self, i: int, js: tuple) -> Poly:
        """d^m comps[i] / d y_{j1} .. d y_{jm}; order of js is immaterial."""
        key = (i,) + tuple(sorted(js))
        p = self._partials.get(key)
        if p is None:
            p = self.comps[i]
            for j in sorted(js):
                p = p.diff(j)
            self._partials[key] = p
        return p

    def deriv_apply(self, y: Sequence, vectors: Sequence[Sequence],
                    slots: Sequence[Sequence[int]] | None = None) -> tuple:
        """The m-linear derivative at y applied to the given vectors.

        slots[k] lists the variable indices the k-th derivative ranges over
        (all variables when omitted); vectors[k] is indexed alongside
        slots[k].  This covers both plain Frechet derivatives and the
        block-structured derivatives of partitioned systems.
        """
        m = len(vectors)
        if slots is None:
            slots = [range(self.nvars)] * m
        out = []
        for i in range(self.dim):
            total = 0
            for choice in itertools.product(*(range(len(s)) for s in slots)):
                js = tuple(slots[k][c] for k, c in enumerate(choice))
                p = self.partial(i, js)
                if p.is_zero():
                    continue
                v = p.eval(y)
                for k, c in enumerate(choice):
                    v = v * vectors[k][c]
                total = total + v
            out.append(total)
        return tuple(out)

    def jacobian_times(self, other: "PolyMap") -> "PolyMap":
        """Symbolic Jacobian-vector product x -> Df(x)[g(x)]."""
        if other.dim != self.nvars or other.nvars != self.nvars:
            raise ValueError("dimension mismatch in Jacobian product")
        comps = []
        for i in range(self.dim):
            acc = Poly.zero(self.nvars)
            for j in range(self.nvars):
                acc = acc + self.partial(i, (j,)) * other.comps[j]
            comps.append(acc)
        return PolyMap(self.nvars, comps)

    def __repr__(self) -> str:
        return f"<PolyMap R^{self.nvars} -> R^{self.dim}>"


class PolyVectorField(PolyMap):
    """A polynomial map from R^d to itself."""

    def __init__(self, comps: Iterable[Poly]):
        comps = tuple(comps)
        super().__init__(len(comps), comps)


class ColouredPolySystem:
    """Partitioned system p' = f(p, q), q' = g(p, q) with polynomial f, g.

    Both maps take the concatenated point (p, q) in R^{2d} and return a
    d-vector.  p-variables are indices 0..d-1, q-variables d..2d-1.
    """

    def __init__(self, f: PolyMap, g: PolyMap):
        if f.dim != g.dim:
            raise ValueError("f and g must have the same output dimension")
        d = f.dim
        if f.nvars != 2 * d or g.nvars != 2 * d:
            raise ValueError("f and g must be maps on R^{2d}")
        self.f = f
        self.g = g
        self.dim = d

    @property
    def p_slot(self) -> tuple:
        return tuple(range(self.dim))

    @property
    def q_slot(self) -> tuple:
        return tuple(range(self.dim, 2 * self.dim))


class WordSystem:
    """One polynomial field per letter, all on the same R^d."""

    def __init__(self, fields: Mapping[str, PolyVectorField]):
        if not fields:
            raise ValueError("need at least one letter")
        dims = {f.dim for f in fields.values()}
        if len(dims) != 1:
            raise ValueError("all letter fields must share a dimension")
        self.fields = dict(fields)
        self.alphabet = "".join(sorted(self.fields))
        self.dim = dims.pop()

    def field(self, letter: str) -> PolyVectorField:
        try:
            return self.fields[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} not in alphabet {self.alphabet!r}")
