"""B-series, P-series, and word-series evaluation over polynomial fields.

A coefficient is a function of the tree or word (its text) it weighs, and
each pass returns one flat vector of exact increments per order, so identity
checks downstream can demand rational equality rather than tolerances.

A B-series is the one-colour P-series: one tree pass serves both, with a
map and a variable block per colour.  One partial-sum table turns the
increments of any of the three series into the exact partial sums and the
rows the CLI reports.  Those rows, and the CLI's final points, are the one
place an exact value becomes a float: one past the float range becomes
+-inf, which a report refuses to render.

The tree pass builds only the live trees, those whose elementary
differential F(t) at the point is not the zero vector; every other tree adds
nothing to any order.  A tree of order n with root colour c is built from a
multiset of live trees with n - 1 nodes in total, so F(t) is one derivative
of the colour-c map applied to vectors already computed.  Two rules skip a
tree without building it, and both are exact:

- more children than the degree of the root's map: every derivative of that
  order is the zero map;
- a child whose F is the zero vector: F(t) is linear in each child's vector.

A built tree whose F comes out as the zero vector is dropped: it is neither
summed nor used as a child.  The coefficient a(t) is read for live trees
only, and each order is summed in the canonical tree order.

Each partial of a root map is evaluated at the point once per pass, when a
tree with that many children first needs it.  At a rational point with
rational fields the partials of one order are integer numerators over one
denominator, and F(t) is the pair (den, numerators): the partials
contracted with the children's numerator vectors, over the product of the
denominators, reduced by one gcd.  An order's sum of a(t)/sigma(t) F(t)
keeps one numerator vector per denominator, and a Fraction is built per
component as the term leaves the pass.  A float point or field coefficient
keeps den = 1 and Poly.eval's values, so F(t) is PolyMap.deriv_apply's
float arithmetic in the same order of operations.  A float a(t), or any
term of a float pass, continues its order's sum as the left fold
u + (a(t)/sigma(t)) v from the exact sum before it.

The word pass never builds a word's map f_w as a polynomial.  It expands
each letter field once about the point x (an exact binomial shift) and
keeps every map as its Taylor jet at x, truncated in total degree.  The
word c s has f_{c s} = Df_s . f_c, and a word of length at most L
differentiates f_s at most L - |s| times, so f_s is needed only through
degree L - |s|: the jet of c s is D(jet of f_s) . (jet of f_c) truncated at
L - |s| - 1, with no error.  f_w(x) is the constant term of w's jet.  Jets
are built on demand from their suffix's jet and memoised for one call; delta
is still read for every word, by length and then in ``all_words`` order.  A
jet that comes out zero is dropped, and every word ending in that suffix
adds nothing.  At a rational point with rational fields a jet is integer
numerators over one denominator, and a length's sum of delta(w) f_w(x) is
kept per denominator like a tree order's, so a Fraction is built only per
component of a length's sum; a float point, coefficient or delta(w) keeps
the float arithmetic.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Callable, Sequence

from .core import Coeff, multisets, normalize_coeff
from .fields import ColouredPolySystem, Poly, PolyMap, PolyVectorField, WordSystem
from .trees import RootedTree, _sort_key, trees_of_order
from .words import all_words


def partial_sums(terms: Sequence[Sequence], start: Sequence, h: Coeff = 1) -> tuple:
    """The partial sums start + sum over k <= n of h^k T_k, exactly, order by order.

    Returns (table, final): table[n - 1] pairs the largest component of the
    increment h^n T_n with the partial sum through order n, and final is
    the last partial sum (start itself when there are no terms).
    """
    table = []
    partial = tuple(start)
    hp = 1
    for term in terms:
        hp = hp * h
        step = [hp * v for v in term]
        partial = tuple(u + v for u, v in zip(partial, step))
        table.append((max((abs(v) for v in step), default=0), partial))
    return table, partial


def as_float(v) -> float:
    """v as a float for a report, +-inf when it is past the float range."""
    try:
        return float(v)
    except OverflowError:
        return float("inf") if v > 0 else float("-inf")


def series_rows(table: Sequence) -> list:
    """A partial-sum table as report rows, in floats."""
    return [{"order": n, "increment": as_float(inc),
             "partial": [as_float(v) for v in partial]}
            for n, (inc, partial) in enumerate(table, start=1)]


def _is_rational(point: Sequence, polys) -> bool:
    """Whether the point and every coefficient of the polys are exact rationals."""
    return all(isinstance(v, (int, Fraction)) for v in point) and all(
        isinstance(a, (int, Fraction)) for p in polys for a in p.terms.values())


class _Derivatives:
    """The partials of one polynomial map at a point, each evaluated once, and
    the multilinear derivatives they make.

    The partials of order m are evaluated when a derivative of order m is
    first applied: one row of (component, value) pairs per sorted m-tuple of
    variables whose partial is not the zero polynomial, the map itself at
    m = 0.  Over an exact pass the values of one order are integer numerators
    over one denominator; otherwise den = 1 and they are ``Poly.eval``'s, as
    ``PolyMap.deriv_apply`` reads them.
    """

    def __init__(self, fmap: PolyMap, point: Sequence, exact: bool):
        self.fmap = fmap
        self.point = point
        self.exact = exact
        # m -> (den, rows by sorted variable tuple)
        self._orders: dict[int, tuple] = {}

    def _order(self, m: int) -> tuple:
        """(den, rows) for the partials of order m."""
        fmap = self.fmap
        rows = {}
        for js in itertools.combinations_with_replacement(range(fmap.nvars), m):
            row = [(i, p.eval(self.point)) for i in range(fmap.dim)
                   if not (p := fmap.partial(i, js)).is_zero()]
            if row:
                rows[js] = row
        den = 1
        if self.exact:
            den = lcm(*(v.denominator for row in rows.values() for _, v in row))
            rows = {js: [(i, v.numerator * (den // v.denominator)) for i, v in row]
                    for js, row in rows.items()}
        return den, rows

    def apply(self, slots: Sequence[Sequence[int]], vectors: Sequence[tuple]) -> tuple | None:
        """The m-linear derivative at the point applied to m vectors, each a
        pair (den, values) indexed alongside its slot, the variable indices it
        ranges over; the result is a pair (den, values), None when it is zero.

        Each component sums partial * v_1[j_1] * ... * v_m[j_m] over the
        index tuples in ``itertools.product`` order, as ``deriv_apply`` does,
        and an exact result is reduced by one gcd.
        """
        m = len(vectors)
        got = self._orders.get(m)
        if got is None:
            got = self._orders[m] = self._order(m)
        den, rows = got
        out = [0] * self.fmap.dim
        for js, xs in zip(itertools.product(*slots),
                          itertools.product(*(values for _, values in vectors))):
            for i, v in rows.get(tuple(sorted(js)), ()):
                for x in xs:
                    v = v * x
                out[i] = out[i] + v
        if not any(out):
            return None
        for d, _ in vectors:
            den *= d
        if self.exact:
            g = gcd(den, *out)
            if g != 1:
                den //= g
                out = [v // g for v in out]
        return den, tuple(out)


def _sum_order(terms: Sequence[tuple], dim: int, exact: bool) -> tuple:
    """The sum of c / s * values / den over the terms (c, s, den, values).

    Over an exact pass, rational terms are summed on integers, one list of
    numerators per denominator, and one Fraction per component is built at
    the end.  A float term, or any term of a float pass, continues the sum as
    the fold u + (c / s) * v from the exact sum so far, so float results keep
    their last bits.  Each component is an int exactly when it is integral.
    """
    sums: dict[int, list] = {}
    acc = None
    for c, s, den, values in terms:
        if acc is None:
            if exact and isinstance(c, (int, Fraction)):
                d = c.denominator * s * den
                n = c.numerator
                sums[d] = [u + n * v for u, v in zip(sums.get(d, (0,) * dim), values)]
                continue
            acc = _over_one_denominator(sums, dim)
        c = Fraction(c, s) if isinstance(c, int) else c / s
        if den != 1:
            values = [Fraction(v, den) for v in values]
        acc = [u + c * v for u, v in zip(acc, values)]
    if acc is None:
        return _over_one_denominator(sums, dim)
    return tuple(normalize_coeff(v) for v in acc)


def _over_one_denominator(sums: dict, dim: int) -> tuple:
    """The components of sum over d of sums[d] / d."""
    den = lcm(*sums)
    nums = [sum(ns[i] * (den // d) for d, ns in sums.items()) for i in range(dim)]
    if den == 1:
        return tuple(nums)
    return tuple(normalize_coeff(Fraction(n, den)) for n in nums)


def _tree_terms(a, maps: Sequence[PolyMap], slots: Sequence[Sequence[int]],
                point: Sequence, max_order: int) -> list:
    """Per order n, one flat vector whose colour-c block sums a(t)/sigma(t) *
    F(t)(point) over the live trees t with n nodes and root colour c."""
    dim = maps[0].dim
    degrees = [fmap.degree() for fmap in maps]
    exact = _is_rational(point, [p for fmap in maps for p in fmap.comps])
    derivatives = [_Derivatives(fmap, point, exact) for fmap in maps]
    # live[t] = ((den, F(t)(point) numerators), sigma(t)); pool lists the
    # live trees of the orders below n in _sort_key order, as multisets needs
    live: dict[RootedTree, tuple] = {}
    pool: list[RootedTree] = []
    terms = []
    for n in range(1, max_order + 1):
        sizes = [t.order for t in pool]
        born = []
        for colour, derivative in enumerate(derivatives):
            for kids in multisets(pool, sizes, n - 1, degrees[colour]):
                vec = derivative.apply([slots[k.colour] for k in kids],
                                       [live[k][0] for k in kids])
                if vec is not None:
                    # sigma(t): the product over child multiplicities m of
                    # m! sigma(child)^m
                    s = 1
                    for kid, mult in Counter(kids).items():
                        s *= factorial(mult) * live[kid][1] ** mult
                    t = RootedTree.trusted(kids, colour)
                    live[t] = (vec, s)
                    born.append(t)
        born.sort(key=_sort_key)
        blocks = [[] for _ in maps]
        for t in born:
            c = a(t)
            if c:
                (den, vec), s = live[t]
                blocks[t.colour].append((c, s, den, vec))
        terms.append(tuple(v for block in blocks for v in _sum_order(block, dim, exact)))
        pool = sorted(pool + born, key=_sort_key)
    return terms


def bseries_order_terms(a, f: PolyVectorField, y: Sequence, max_order: int) -> list:
    """Per-order vectors T_n = sum over |t|=n of a(t)/sigma(t) * F(t)(y).

    The series partial sum is then y + sum h^n T_n; keeping the h-free terms
    lets callers probe several step sizes from one symbolic pass.
    """
    return _tree_terms(a, (f,), (range(f.nvars),), y, max_order)


def exact_flow_coefficient(t: RootedTree) -> Fraction:
    """1/gamma(t), the tree coefficient of the exact flow.

    gamma is the tree factorial, gamma(t) = |t| * product of gamma over
    children, so a(leaf) = 1 and a(t) = (1/|t|) * product of a over
    children; validated against the symbolic flow Taylor oracle rather than
    trusted on its own.
    """
    return Fraction(1, _tree_factorial(t))


def _tree_factorial(t: RootedTree) -> int:
    out = t.order
    for c in t.children:
        out *= _tree_factorial(c)
    return out


def exact_flow_character(max_order: int, colours: int = 1) -> dict:
    """:func:`exact_flow_coefficient` on every tree up to max_order nodes."""
    return {t: exact_flow_coefficient(t)
            for n in range(1, max_order + 1) for t in trees_of_order(n, colours)}


def pseries_order_terms(a, system: ColouredPolySystem, p: Sequence, q: Sequence,
                        max_order: int) -> list:
    """Per-order vectors P_n + Q_n over two-coloured trees, one flat vector each.

    Trees rooted at colour 0 contribute to the first dim components, colour 1
    to the last dim, each weighted a(t)/sigma(t).
    """
    return _tree_terms(a, (system.f, system.g), (system.p_slot, system.q_slot),
                       tuple(p) + tuple(q), max_order)


class _WordJets:
    """Truncated Taylor jets at x of the word maps f_w, for words of length at
    most max_length, each built once from its suffix's jet.

    A jet is a pair (den, comps): one dict per component from a packed
    exponent code to the numerator of a Taylor coefficient in z = y - x over
    the common denominator den.  The code of z^e is sum e_i base^i plus |e|
    base^nvars, so multiplying monomials adds codes and a code below
    (k + 1) base^nvars has total degree at most k.  A zero jet is None.

    When the point and every field coefficient are rational, each letter's
    jet is scaled once by the lcm of its denominators, so an extension
    multiplies Python ints and then reduces by one gcd per jet, and ``value``
    reads f_w(x) as numerators over den.  A float point or coefficient keeps
    den = 1 and the float arithmetic as it is, in the same order of
    operations.
    """

    def __init__(self, sys: WordSystem, x: Sequence, max_length: int):
        if len(x) != sys.dim:
            raise ValueError("point arity mismatch")
        self.sys = sys
        self.x = tuple(x)
        self.max_length = max_length
        self.base = max_length + 1
        self.units = [self.base ** i for i in range(sys.dim)]
        self.top = self.base ** sys.dim
        self.exact = _is_rational(self.x, [p for field in sys.fields.values()
                                           for p in field.comps])
        self._letters: dict[str, tuple] = {}
        self._jets: dict[str, tuple | None] = {}

    def value(self, w: str) -> tuple | None:
        """f_w(x) as (den, numerators), the constant term of w's jet, or None
        when the jet of f_w is zero."""
        jet = self.jet(w)
        if jet is None:
            return None
        den, comps = jet
        return den, tuple(comp.get(0, 0) for comp in comps)

    def jet(self, w: str) -> tuple | None:
        """The jet of f_w truncated at total degree max_length - |w|; the
        jets of words shorter than max_length are memoised."""
        if w in self._jets:
            return self._jets[w]
        if len(w) == 1:
            den, letter = self._letter(w)
            comps = tuple(dict(factor) for factor in letter)
            out = (den, comps) if any(comps) else None
        else:
            suffix = self.jet(w[1:])
            out = None if suffix is None else self._extend(suffix, w[0],
                                                           self.max_length - len(w))
        if len(w) < self.max_length:
            self._jets[w] = out
        return out

    def _letter(self, c: str) -> tuple:
        """The jet of f_c truncated at max_length - 1 as (den, per component
        its (code, numerator) pairs in increasing code order)."""
        got = self._letters.get(c)
        if got is None:
            comps = [self._shift(p, self.max_length - 1) for p in self.sys.field(c).comps]
            if self.exact:
                den = lcm(*(a.denominator for comp in comps for a in comp.values()))
                comps = [{code: a.numerator * (den // a.denominator)
                          for code, a in comp.items()} for comp in comps]
            else:
                den = 1
            got = self._letters[c] = (den, [sorted(comp.items()) for comp in comps])
        return got

    def _shift(self, p: Poly, order: int) -> dict:
        """p(x + z) as a polynomial in z, truncated at total degree order."""
        out: dict[int, Coeff] = {}
        for e, a in p.terms.items():
            for ks in itertools.product(*(range(k + 1) for k in e)):
                if sum(ks) > order:
                    continue
                v = a
                code = sum(ks) * self.top
                for xi, ei, ki, unit in zip(self.x, e, ks, self.units):
                    v = v * comb(ei, ki) * xi ** (ei - ki)
                    code += ki * unit
                out[code] = out.get(code, 0) + v
        return {code: v for code, v in out.items() if v}

    def _extend(self, suffix: tuple, c: str, order: int) -> tuple | None:
        """The jet of D f_s . f_c truncated at total degree order, from the jet
        of f_s truncated at order + 1."""
        limit = (order + 1) * self.top
        den, comps = suffix
        letter_den, letter = self._letter(c)
        out = []
        for comp in comps:
            acc: dict[int, Coeff] = {}
            for code, a in comp.items():
                for unit, factor in zip(self.units, letter):
                    ej = code // unit % self.base
                    if not ej:
                        continue
                    dcode = code - unit - self.top
                    da = a * ej
                    for gcode, b in factor:
                        k = dcode + gcode
                        if k >= limit:
                            break
                        acc[k] = acc.get(k, 0) + da * b
            out.append({k: v for k, v in acc.items() if v})
        if not any(out):
            return None
        den *= letter_den
        if self.exact:
            g = gcd(den, *(v for comp in out for v in comp.values()))
            if g != 1:
                den //= g
                out = [{k: v // g for k, v in comp.items()} for comp in out]
        return den, tuple(out)


def wordseries_order_terms(delta: Callable, sys: WordSystem, x: Sequence,
                           max_length: int) -> list:
    """Per-length vectors: sum of delta(w) f_w(x) over words of each length."""
    jets = _WordJets(sys, x, max_length)
    terms = []
    for n in range(1, max_length + 1):
        block = []
        for w in all_words(sys.alphabet, n):
            c = delta(w)
            if not c:
                continue
            value = jets.value(w)
            if value is not None:
                block.append((c, 1, *value))
        terms.append(_sum_order(block, sys.dim, jets.exact))
    return terms
