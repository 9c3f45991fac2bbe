"""B-series, P-series, and word-series evaluation over polynomial fields.

Coefficients are supplied per tree (or per word) and the evaluators build
exact order-by-order increments, so identity checks downstream can demand
rational equality rather than tolerances.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Callable, Mapping, Sequence

from .core import Coeff
from .fields import ColouredPolySystem, PolyMap, PolyVectorField, WordSystem
from .trees import RootedTree, trees_of_order
from .words import all_words

_SIGMA_CACHE: dict[RootedTree, int] = {}


def sigma(t: RootedTree) -> int:
    """Symmetry coefficient: product over child multiplicities m of m!*sigma^m."""
    got = _SIGMA_CACHE.get(t)
    if got is not None:
        return got
    out = 1
    for child, mult in Counter(t.children).items():
        out *= factorial(mult) * sigma(child) ** mult
    _SIGMA_CACHE[t] = out
    return out


def elementary_differential(f: PolyVectorField, t: RootedTree, y: Sequence) -> tuple:
    """F(t)(y): the m-linear derivative of f at y fed the child values."""
    return _elementary(f, t, y, {}, t.order)


def coloured_elementary_differential(system: ColouredPolySystem, t: RootedTree,
                                     point: Sequence) -> tuple:
    """Partitioned-system variant: root colour picks the map (0 -> f, 1 -> g),
    each child's colour picks which variable block its derivative ranges over."""
    return _coloured_elementary(system, t, point, {}, t.order)


# Within one series pass, F(t) is computed once per distinct tree: memo maps
# a tree to its value and keeps only trees of order below top, as a tree of
# the top order is never the child of another tree in the pass.


def _elementary(f: PolyVectorField, t: RootedTree, y: Sequence, memo: dict,
                top: int) -> tuple:
    vec = memo.get(t)
    if vec is None:
        if t.children:
            vec = f.deriv_apply(y, [_elementary(f, c, y, memo, top) for c in t.children])
        else:
            vec = f.evaluate(y)
        if t.order < top:
            memo[t] = vec
    return vec


def _coloured_elementary(system: ColouredPolySystem, t: RootedTree, point: Sequence,
                         memo: dict, top: int) -> tuple:
    vec = memo.get(t)
    if vec is None:
        fmap = system.f if t.colour == 0 else system.g
        if t.children:
            vectors = [_coloured_elementary(system, c, point, memo, top)
                       for c in t.children]
            slots = [system.p_slot if c.colour == 0 else system.q_slot
                     for c in t.children]
            vec = fmap.deriv_apply(point, vectors, slots)
        else:
            vec = fmap.evaluate(point)
        if t.order < top:
            memo[t] = vec
    return vec


def _value_of(a, t: RootedTree):
    if callable(a):
        return a(t)
    return a.get(t, 0)


def bseries_order_terms(a, f: PolyVectorField, y: Sequence, max_order: int) -> list:
    """Per-order vectors T_n = sum over |t|=n of a(t)/sigma(t) * F(t)(y).

    The series partial sum is then y + sum h^n T_n; keeping the h-free terms
    lets callers probe several step sizes from one symbolic pass.
    """
    memo: dict[RootedTree, tuple] = {}
    terms = []
    for n in range(1, max_order + 1):
        acc = [0] * f.dim
        for t in trees_of_order(n):
            c = _value_of(a, t)
            if not c:
                continue
            c = Fraction(c, sigma(t)) if isinstance(c, int) else c / sigma(t)
            vec = _elementary(f, t, y, memo, max_order)
            acc = [u + c * v for u, v in zip(acc, vec)]
        terms.append(tuple(acc))
    return terms


def bseries_partial(a, f: PolyVectorField, y: Sequence, h: Coeff,
                    max_order: int) -> tuple:
    out = list(y)
    hp = 1
    for term in bseries_order_terms(a, f, y, max_order):
        hp = hp * h
        out = [u + hp * v for u, v in zip(out, term)]
    return tuple(out)


def exact_flow_character(max_order: int, colours: int = 1) -> dict:
    """Tree coefficients whose series is the Taylor sum of the exact flow.

    a(leaf) = 1 and a(t) = (1/|t|) * product of a over children; validated
    against the symbolic flow Taylor oracle rather than trusted on its own.
    """
    table: dict[RootedTree, Fraction] = {}

    def rec(t: RootedTree) -> Fraction:
        got = table.get(t)
        if got is not None:
            return got
        val = Fraction(1, t.order)
        for c in t.children:
            val *= rec(c)
        table[t] = val
        return val

    for n in range(1, max_order + 1):
        for t in trees_of_order(n, colours=colours):
            rec(t)
    return table


def flow_taylor_coefficients(f: PolyVectorField, y0: Sequence, max_order: int) -> list:
    """Taylor coefficients of the flow of y' = f(y): entry j is y^(j)(0)/j!.

    Independent of any tree machinery: g_1 = f and g_{j+1} = Dg_j . f,
    assembled symbolically, then evaluated at y0.
    """
    coeffs = [tuple(y0)]
    g = f
    for j in range(1, max_order + 1):
        coeffs.append(tuple(Fraction(v, factorial(j)) if isinstance(v, int)
                            else v / factorial(j) for v in g.evaluate(y0)))
        if j < max_order:
            g = g.jacobian_times(f)
    return coeffs


def pseries_order_terms(a, system: ColouredPolySystem, p: Sequence, q: Sequence,
                        max_order: int) -> list:
    """Per-order pairs (P_n, Q_n) over two-coloured trees.

    Trees rooted at colour 0 contribute to the first block, colour 1 to the
    second, each weighted a(t)/sigma(t).
    """
    point = tuple(p) + tuple(q)
    d = system.dim
    memo: dict[RootedTree, tuple] = {}
    terms = []
    for n in range(1, max_order + 1):
        accp = [0] * d
        accq = [0] * d
        for t in trees_of_order(n, colours=2):
            c = _value_of(a, t)
            if not c:
                continue
            c = Fraction(c, sigma(t)) if isinstance(c, int) else c / sigma(t)
            vec = _coloured_elementary(system, t, point, memo, max_order)
            if t.colour == 0:
                accp = [u + c * v for u, v in zip(accp, vec)]
            else:
                accq = [u + c * v for u, v in zip(accq, vec)]
        terms.append((tuple(accp), tuple(accq)))
    return terms


def pseries_partial(a, system: ColouredPolySystem, p: Sequence, q: Sequence,
                    h: Coeff, max_order: int) -> tuple:
    outp = list(p)
    outq = list(q)
    hp = 1
    for termp, termq in pseries_order_terms(a, system, p, q, max_order):
        hp = hp * h
        outp = [u + hp * v for u, v in zip(outp, termp)]
        outq = [u + hp * v for u, v in zip(outq, termq)]
    return tuple(outp), tuple(outq)


def word_basis_map(sys: WordSystem, w: Sequence[str]) -> PolyMap:
    """Symbolic basis map for a nonempty word, cached on the system.

    Base case is the last letter's field; each earlier letter c turns
    f_rest into x -> Df_rest(x)[f_c(x)].
    """
    w = tuple(w)
    if not w:
        raise ValueError("word must be nonempty")
    got = sys._basis_maps.get(w)
    if got is not None:
        return got
    if len(w) == 1:
        out = sys.field(w[0])
    else:
        out = word_basis_map(sys, w[1:]).jacobian_times(sys.field(w[0]))
    sys._basis_maps[w] = out
    return out


def word_basis_function(sys: WordSystem, w: Sequence[str], x: Sequence) -> tuple:
    return word_basis_map(sys, w).evaluate(x)


def _delta_value(delta, w):
    if callable(delta):
        return delta(w)
    return delta.get(w, 0)


def wordseries_order_terms(delta: Callable | Mapping, sys: WordSystem, x: Sequence,
                           max_length: int) -> list:
    """Per-length vectors: sum of delta(w) f_w(x) over words of each length."""
    terms = []
    for n in range(1, max_length + 1):
        acc = [0] * sys.dim
        for w in all_words(sys.alphabet, n):
            c = _delta_value(delta, w)
            if not c:
                continue
            vec = word_basis_function(sys, w, x)
            acc = [u + c * v for u, v in zip(acc, vec)]
        terms.append(tuple(acc))
    return terms


def wordseries_partial(delta: Callable | Mapping, sys: WordSystem, x: Sequence,
                       max_length: int) -> tuple:
    """delta(empty) * x plus sum of delta(w) f_w(x) over 1 <= |w| <= max_length."""
    c0 = _delta_value(delta, ())
    out = [c0 * v for v in x]
    for term in wordseries_order_terms(delta, sys, x, max_length):
        out = [u + v for u, v in zip(out, term)]
    return tuple(out)


def convergence_probe(a, f: PolyVectorField, y: Sequence, h_list: Sequence,
                      max_order: int) -> dict:
    """Order-by-order increment magnitudes of the series at each step size.

    Verdict per h is "contracting" when the increments decay over the last
    four orders (all consecutive ratios < 1, zeros allowed), else
    "not-contracting".
    """
    terms = bseries_order_terms(a, f, y, max_order)
    results = []
    for h in h_list:
        partial = list(y)
        hp = 1
        rows = []
        incs = []
        for n, term in enumerate(terms, start=1):
            hp = hp * h
            inc_vec = [hp * v for v in term]
            partial = [u + v for u, v in zip(partial, inc_vec)]
            inc = max((abs(v) for v in inc_vec), default=0)
            incs.append(inc)
            rows.append({"order": n, "increment": float(inc),
                         "partial": [float(v) for v in partial]})
        tail = incs[-4:]
        ok = all(b < a_ for a_, b in zip(tail, tail[1:]) if a_ or b) \
            if len(tail) >= 2 else False
        if tail and all(v == 0 for v in tail):
            ok = True
        results.append({"h": float(h), "rows": rows,
                        "verdict": "contracting" if ok else "not-contracting"})
    return {"max_order": max_order, "tables": results}
