"""Concrete Hopf algebras: rooted trees, shuffle, substitution, binomial.

Five instances share the interface in :mod:`hopfchar.hopf`:

``ck`` / ``ck2``
    Polynomial algebra on rooted trees (one or two node colours).  The
    coproduct sums over rooted subtree cuts, forest on the left and kept
    root part on the right, computed through the B⁺ cocycle; the antipode
    sums signed edge-subset cuts, collapsed into a dynamic programme.
``shuffle:<letters>``
    Words under the shuffle product with deconcatenation coproduct, each
    word one basis symbol.  The polynomial generators are the Lyndon
    words.
``fdb-a`` / ``fdb-x``
    One generator per positive degree, with the composition-of-series
    coproduct in two normalisations; closed antipode via lattice-path
    coefficients.
``binomial``
    One primitive generator; the smallest instance and the standard
    source of counterexamples.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterator

from .core import (
    Coeff,
    Generator,
    GradedVector,
    Monomial,
    TensorVector,
    add_scaled,
    monomial_of,
    monomial_product,
    multisets,
)
from .hopf import HopfAlgebra
from .trees import RootedTree, iter_nodes, parse_tree, tree_text
from .words import (
    Word,
    all_words,
    chen_fox_lyndon,
    deconcatenations,
    is_lyndon,
    lyndon_words,
    rearrangements,
)

# --------------------------------------------------------------------------
# small combinatorial helpers


def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of `parts` positive integers summing to n."""
    if parts < 1 or n < parts:
        return
    for cuts in itertools.combinations(range(1, n), parts - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Nonincreasing positive parts summing to n, each at most max_part, in
    lexicographic order from the largest first part; () is the partition of 0."""
    parts = range(n if max_part is None else min(max_part, n), 0, -1)
    return multisets(parts, parts, n)


@lru_cache(maxsize=None)
def admissible_tuples(r: int) -> tuple[tuple[int, ...], ...]:
    """Tuples (m_1..m_r) of nonnegative integers with sum r and every
    proper prefix sum m_1+..+m_h >= h.  There are Catalan(r) of them."""
    if r == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], total: int) -> None:
        h = len(prefix)
        if h == r - 1:
            last = r - total
            if last >= 0:
                out.append(tuple(prefix) + (last,))
            return
        for m in range(r - total + 1):
            if total + m >= h + 1:
                prefix.append(m)
                rec(prefix, total + m)
                prefix.pop()

    rec([], 0)
    return tuple(out)


@lru_cache(maxsize=None)
def lambda_coefficient(parts: tuple[int, ...]) -> int:
    """Lattice-path weight used by the closed substitution antipodes.

    The sum over admissible_tuples(r) of prod C(n_i + 1, m_i), by dynamic
    programming over (prefix length h, prefix sum s) in O(r^3): ways[s] is
    the weighted count of admissible prefixes of length h summing to s.
    """
    r = len(parts)
    ways = [1] + [0] * r
    for h, n_i in enumerate(parts, start=1):
        # a prefix of length h sums to at least h (and to at most r, as m_i >= 0)
        binom = [comb(n_i + 1, m) for m in range(r + 1)]
        ways = [
            sum(ways[s - m] * binom[m] for m in range(s + 1)) if s >= h else 0
            for s in range(r + 1)
        ]
    return ways[r]


def bell_partial(n: int, k: int, args):
    """Partial Bell polynomial B_{n,k} at args = (x_1, ..., x_{n-k+1}).

    Works on numbers and on GradedVectors alike; with vector arguments the
    caller supplies the unit vector for any argument equal to 1.
    """
    vector_mode = any(isinstance(a, GradedVector) for a in args)
    total_vec: dict[Monomial, Coeff] = {}
    total_num: Coeff = 0
    for part in partitions(n, n - k + 1):
        if len(part) != k:
            continue
        mult = Counter(part)
        den = 1
        for j, m in mult.items():
            den *= factorial(m) * factorial(j) ** m
        coeff = factorial(n) // den
        if vector_mode:
            term = None
            for j, m in mult.items():
                for _ in range(m):
                    term = args[j - 1] if term is None else term * args[j - 1]
            add_scaled(total_vec, term.terms, coeff)
        else:
            prod: Coeff = coeff
            for j, m in mult.items():
                prod *= args[j - 1] ** m
            total_num += prod
    return GradedVector(total_vec) if vector_mode else total_num


# --------------------------------------------------------------------------
# rooted trees


class ConnesKreimer(HopfAlgebra):
    """Polynomial Hopf algebra on rooted trees (1 or more node colours).

    Trees are hash-consed per instance: a tree is B⁺_c(F), a root of colour c
    grafted onto a forest monomial F of child generators, and :meth:`graft`
    returns the one tree monomial for each (c, F), so a coproduct or antipode
    never builds a :class:`RootedTree`; the trees with n nodes are B⁺_c over
    the forests of ``basis(n - 1)``.  The coproduct follows the B⁺
    Hochschild 1-cocycle of Connes and Kreimer,
    Δ B⁺(F) = B⁺(F) ⊗ 1 + (id ⊗ B⁺) Δ(F), with Δ(F) the cached product of the
    child coproducts.  The closed antipode is the signed sum over edge
    subsets p of (-1)^{#trees} (t minus p), collapsed into a dynamic
    programme over (root component, loose forest) states that never reads
    the coproduct, so it stays an independent check on both recursions.
    """

    def __init__(self, colours: int = 1):
        super().__init__()
        if colours < 1:
            raise ValueError("colours must be >= 1")
        self.colours = colours
        self.name = "ck" if colours == 1 else f"ck{colours}"
        self._coloured = colours > 1
        # the hash-consing: (root colour, children forest) <-> the one tree monomial
        self._grafts: dict[tuple[int, Monomial], Monomial] = {}
        self._shapes: dict[Generator, tuple[int, Monomial]] = {}
        self._generators: dict[int, tuple[Monomial, ...]] = {}
        self._cut_states: dict[Generator, dict[tuple[Monomial, Monomial], int]] = {}

    def graft(self, colour: int, forest: Monomial) -> Monomial:
        """B⁺: the tree monomial with a root of `colour` over the trees of `forest`.

        The key is the tree's canonical text: the child keys sorted on
        (colour, key), which is the order of ``trees._sort_key`` (with one
        colour the key omits every ``:0``, and each token keeps its first
        character, so the order is unchanged).
        """
        m = self._grafts.get((colour, forest))
        if m is None:
            kids = sorted(forest.factors, key=self._order)
            g = Generator(self.name, tree_text(colour, [k.key for k in kids], self._coloured),
                          forest.degree + 1)
            m = Monomial.trusted((g,), g.degree)
            self._grafts[(colour, forest)] = m
            self._shapes[g] = (colour, forest)
        return m

    def _order(self, g: Generator) -> tuple[int, str]:
        """(root colour, key): the order of trees among siblings and in a degree."""
        return (self._shapes[g][0], g.key)

    def _shape(self, g: Generator) -> tuple[int, Monomial]:
        """(root colour, children forest) of g, grafting it first if g was
        made elsewhere (an equal generator from another instance)."""
        shape = self._shapes.get(g)
        if shape is None:
            self.tree_monomial(self.tree_of(g))
            shape = self._shapes[g]
        return shape

    def tree_monomial(self, t: RootedTree) -> Monomial:
        forest = Monomial(tuple(self.tree_monomial(c).factors[0] for c in t.children))
        return self.graft(t.colour, forest)

    def tree_of(self, g: Generator) -> RootedTree:
        return parse_tree(g.key, self._coloured)

    def generators(self, n: int) -> tuple[Monomial, ...]:
        """B⁺ of a root of each colour over every forest of n - 1 nodes, in
        (root colour, key) order, memoised per degree."""
        if n < 1:
            return ()
        gens = self._generators.get(n)
        if gens is None:
            trees = [self.graft(colour, forest)
                     for colour in range(self.colours) for forest in self.basis(n - 1)]
            gens = self._generators[n] = tuple(
                sorted(trees, key=lambda m: self._order(m.factors[0])))
        return gens

    def generator_from_text(self, text: str) -> Monomial:
        t = parse_tree(text, self._coloured)
        if any(node.colour >= self.colours for node in iter_nodes(t)):
            raise ValueError(f"tree {text!r} uses colours beyond {self.name}")
        return self.tree_monomial(t)

    def coproduct_generator(self, g: Monomial) -> TensorVector:
        """Δ B⁺(F) = B⁺(F) ⊗ 1 + Σ a ⊗ B⁺(b) over the terms a ⊗ b of Δ(F)."""
        colour, forest = self._shape(g.factors[0])
        terms = {(g, self.empty()): 1}
        for (a, b), c in self.coproduct_monomial(forest).terms.items():
            terms[(a, self.graft(colour, b))] = c
        return TensorVector.trusted(terms)

    def antipode_generator_explicit(self, g: Monomial) -> GradedVector:
        """S(t) = Σ over edge subsets p of (-1)^{1 + #loose} root·loose, where
        t minus p is the root component and the loose forest."""
        terms: dict[Monomial, Coeff] = {}
        for (root, loose), n in self._fold_cut_states(g.factors[0]).items():
            m = monomial_product(root, loose)
            terms[m] = terms.get(m, 0) + (n if len(loose.factors) % 2 else -n)
        return GradedVector(terms)

    def _edge_cut_states(self, g: Generator) -> dict[tuple[Monomial, Monomial], int]:
        """The cut states of g as a child of a larger tree, memoised.

        Only child trees are stored: the tree whose antipode is asked for is
        folded by :meth:`antipode_generator_explicit` without storing its
        states, which no larger tree of the sweep may ever read, and its
        antipode is cached, so no tree is folded twice as the top tree.
        """
        states = self._cut_states.get(g)
        if states is None:
            states = self._cut_states[g] = self._fold_cut_states(g)
        return states

    def _fold_cut_states(self, g: Generator) -> dict[tuple[Monomial, Monomial], int]:
        """{(root component, loose forest): number of edge subsets giving it}.

        Folded child by child: the edge into a child is kept (its root
        component joins the root's children) or cut (it joins the loose
        forest), and equal states merge before the next child.
        """
        colour, forest = self._shape(g)
        empty = self.empty()
        acc: dict[tuple[Monomial, Monomial], int] = {(empty, empty): 1}
        for child in forest.factors:
            child_states = self._edge_cut_states(child).items()
            folded: dict[tuple[Monomial, Monomial], int] = {}
            for (kept, loose), n in acc.items():
                for (r, l), k in child_states:
                    rest = monomial_product(loose, l)
                    for key in ((monomial_product(kept, r), rest),
                                (kept, monomial_product(rest, r))):
                        folded[key] = folded.get(key, 0) + n * k
            acc = folded
        return {(self.graft(colour, kept), loose): n for (kept, loose), n in acc.items()}


# --------------------------------------------------------------------------
# shuffle algebra on words


class Shuffle(HopfAlgebra):
    """Words over a finite alphabet with the shuffle product.

    The vector-space basis in each degree is the full set of words; the
    polynomial generators are the Lyndon words, via the factorisation of
    every word as a shuffle polynomial in Lyndon words (Radford).  Each
    nonempty word is one basis symbol: a single-factor monomial whose
    generator key is the word's text and whose degree is its length, and
    the empty word is the empty monomial.  The instance supplies the
    shuffle product, so words are never multiplied as monomials, and the
    generic coproduct, antipode and text paths run on a word as on any
    single symbol: :meth:`coproduct_generator` deconcatenates it and
    :meth:`antipode_generator_explicit` reverses it with the sign of its
    length, both cached by :class:`~hopfchar.hopf.HopfAlgebra`.

    A word is coded as an int in base B = |A| + 1 with no zero digit: the
    i-th letter of the alphabet is the digit i + 1, the first letter of the
    word the most significant digit and the empty word 0, so a code fixes
    both the word and its length, and a letter a goes in front of a word w
    of length L as a·B^L + w.  Products and the triangular solve of
    :meth:`character_value` go through one per-instance table
    (u code, v code) -> {w code: count}, filled by the front recursion
    au ш bv = a(u ш bv) + b(au ш v) in the insertion order of
    :func:`~hopfchar.words.shuffle_words`, so every sum accumulates in the
    same order.  The table keeps only the sub-pairs the recursion reaches:
    the pair a caller asks for is built from its two stored sub-pairs and
    not kept, as the axiom sweep asks for each such pair at most twice while
    the larger degrees read the sub-pairs again.
    """

    def __init__(self, letters: str):
        super().__init__()
        if not letters:
            raise ValueError("shuffle alphabet must be nonempty")
        if len(set(letters)) != len(letters):
            raise ValueError(f"repeated letters in alphabet {letters!r}")
        self.letters = "".join(sorted(letters))
        self.name = f"shuffle:{self.letters}"
        self._base = len(self.letters) + 1
        self._digits = {ch: i + 1 for i, ch in enumerate(self.letters)}
        self._powers = [1]  # B^L at index L, extended by _shuffle_top
        # word code <-> the one word monomial
        self._monomials: dict[int, Monomial] = {}
        self._codes: dict[Monomial, int] = {}
        self._shuffles: dict[tuple[int, int], dict[int, int]] = {}
        self._solve_rows: dict[Monomial, tuple] = {}
        self._word_classes: dict[Word, tuple[Monomial, ...]] = {}

    def word_monomial(self, w: Word) -> Monomial:
        code = 0
        for ch in w:
            code = code * self._base + self._digits[ch]
        m = self._monomials.get(code)
        if m is None:
            m = monomial_of(Generator(self.name, "".join(w), len(w))) if w else self.empty()
            self._monomials[code] = m
            self._codes[m] = code
        return m

    def word_of(self, m: Monomial) -> Word:
        return tuple(m.factors[0].key) if m.factors else ()

    def _code_monomial(self, code: int) -> Monomial:
        m = self._monomials.get(code)
        if m is None:
            digits = []
            while code:
                code, d = divmod(code, self._base)
                digits.append(self.letters[d - 1])
            m = self.word_monomial(tuple(reversed(digits)))
        return m

    def _code(self, m: Monomial) -> int:
        code = self._codes.get(m)
        if code is None:
            code = self._codes[self.word_monomial(self.word_of(m))]
        return code

    def _shuffle_top(self, a: Monomial, b: Monomial) -> dict[int, int]:
        """a ш b as {w code: count}, in the order of words.shuffle_words."""
        powers = self._powers
        while len(powers) <= a.degree + b.degree:
            powers.append(powers[-1] * self._base)
        return self._shuffle(self._code(a), a.degree, self._code(b), b.degree, False)

    def _shuffle(self, u: int, lu: int, v: int, lv: int, keep: bool) -> dict[int, int]:
        """The words coded u and v, of lengths lu and lv, shuffled; stored in
        the table only when `keep` (a sub-pair of the recursion)."""
        if not lu:
            return {v: 1}
        if not lv:
            return {u: 1}
        out = self._shuffles.get((u, v))
        if out is not None:
            return out
        powers = self._powers
        shift = powers[lu + lv - 1]
        head, tail = divmod(u, powers[lu - 1])
        head *= shift
        out = {head + w: c for w, c in self._shuffle(tail, lu - 1, v, lv, True).items()}
        head, tail = divmod(v, powers[lv - 1])
        head *= shift
        for w, c in self._shuffle(u, lu, tail, lv - 1, True).items():
            w += head
            out[w] = out.get(w, 0) + c
        if keep:
            self._shuffles[(u, v)] = out
        return out

    def generators(self, n: int) -> tuple[Monomial, ...]:
        return tuple(
            self.word_monomial(w) for w in lyndon_words(self.letters, n) if len(w) == n
        )

    def basis(self, n: int) -> tuple[Monomial, ...]:
        if n not in self._basis_cache:
            self._basis_cache[n] = tuple(
                self.word_monomial(w) for w in all_words(self.letters, n)
            )
        return self._basis_cache[n]

    def axiom_domain(self, n: int) -> tuple[Monomial, ...]:
        return self.basis(n)

    def is_generator(self, m: Monomial) -> bool:
        return bool(m.factors) and is_lyndon(self.word_of(m))

    def generator_from_text(self, text: str) -> Monomial:
        w = tuple(text)
        for ch in w:
            if ch not in self._digits:
                raise ValueError(f"letter {ch!r} not in alphabet {self.letters!r}")
        if not is_lyndon(w):
            raise ValueError(f"word {text!r} is not a Lyndon word")
        return self.word_monomial(w)

    def monomial_from_text(self, text: str) -> Monomial:
        if text in ("1", ""):
            return self.empty()
        w = tuple(text)
        for ch in w:
            if ch not in self._digits:
                raise ValueError(f"letter {ch!r} not in alphabet {self.letters!r}")
        return self.word_monomial(w)

    def add_product(self, acc: dict, a: Monomial, b: Monomial, c: Coeff) -> None:
        """acc += c * (a shuffle b) in place."""
        monomials = self._monomials
        for w, k in self._shuffle_top(a, b).items():
            m = monomials.get(w)
            if m is None:
                m = self._code_monomial(w)
            acc[m] = acc.get(m, 0) + c * k

    def coproduct_generator(self, g: Monomial) -> TensorVector:
        """Deconcatenation: the sum of u (x) v over the splits w = uv."""
        return TensorVector.trusted(
            {(self.word_monomial(u), self.word_monomial(v)): 1
             for u, v in deconcatenations(self.word_of(g))})

    def antipode_generator_explicit(self, g: Monomial) -> GradedVector:
        """S(w) = (-1)^|w| times w reversed."""
        return GradedVector.of(self.word_monomial(tuple(reversed(self.word_of(g)))),
                               -1 if g.degree % 2 else 1)

    def character_value(self, m: Monomial, gen_value, value_of, B, infinitesimal: bool):
        """A triangular solve on the Chen-Fox-Lyndon factors of the word w.

        A Lyndon word is a generator.  Otherwise its factors l_1 >= ... >= l_k
        shuffle to lead * w + sum c_u u, every u a lexicographically smaller
        word with the same letters, so
        phi(w) = (phi(l_1) ... phi(l_k) - sum c_u phi(u)) / lead, the product
        being 0 for an infinitesimal character (k >= 2).  The smaller words
        with the same letters are valued first, in increasing order, so each
        value_of(u) finds the words below u already valued and never
        recurses further.
        """
        row = self._solve_rows.get(m)
        if row is None:
            row = self._solve_rows[m] = self._solve_row(m)
        if not row:
            return gen_value(m)
        inv, factors, words, coeffs, same_letters, index = row
        for i in range(index):
            value_of(same_letters[i])
        if infinitesimal:
            total = B.zero
        else:
            total = gen_value(factors[0])
            for f in factors[1:]:
                total = B.mul(total, gen_value(f))
        for u, c in zip(words, coeffs):
            total = B.add(total, B.scale(-c, value_of(u)))
        return B.scale(inv, total)

    def _solve_row(self, m: Monomial) -> tuple:
        """() for a Lyndon word; else (1/lead, factor generators, the words u
        and their coefficients c_u, the words with the same letters in
        lexicographic order, and the position of m among them).  The factors
        are shuffled together left to right through :meth:`add_product`."""
        w = self.word_of(m)
        if is_lyndon(w):
            return ()
        factors = tuple(self.word_monomial(f) for f in chen_fox_lyndon(w))
        expansion = {self.empty(): 1}
        for f in factors:
            acc: dict[Monomial, int] = {}
            for prev, c in expansion.items():
                self.add_product(acc, prev, f, c)
            expansion = acc
        lead = expansion.pop(m)
        key = tuple(sorted(w))
        same_letters = self._word_classes.get(key)
        if same_letters is None:
            same_letters = self._word_classes[key] = tuple(
                self.word_monomial(u) for u in rearrangements(w))
        return (Fraction(1, lead), factors, tuple(expansion), tuple(expansion.values()),
                same_letters, same_letters.index(m))


# --------------------------------------------------------------------------
# substitution (composition-of-series) algebras


class _FaaDiBrunoBase(HopfAlgebra):
    prefix: str

    def __init__(self):
        super().__init__()
        self._gens: dict[int, Generator] = {}

    def gen(self, n: int) -> Generator:
        g = self._gens.get(n)
        if g is None:
            g = Generator(self.name, f"{self.prefix}{n}", n)
            self._gens[n] = g
        return g

    def gen_monomial(self, n: int) -> Monomial:
        return monomial_of(self.gen(n))

    def generators(self, n: int) -> tuple[Monomial, ...]:
        return (self.gen_monomial(n),) if n >= 1 else ()

    def generator_from_text(self, text: str) -> Monomial:
        if not text.startswith(self.prefix):
            raise ValueError(f"expected generator like {self.prefix}3, got {text!r}")
        n = int(text[len(self.prefix):])
        if n < 1:
            raise ValueError(f"generator index must be >= 1, got {text!r}")
        return self.gen_monomial(n)

    def _composition_monomial(self, comp: tuple[int, ...]) -> Monomial:
        return Monomial(tuple(self.gen(i) for i in comp))

    def _antipode_weight(self, n: int, comp: tuple[int, ...]) -> Coeff:
        """Basis factor of the closed antipode's term for `comp`; 1 for a_n."""
        return 1

    def antipode_generator_explicit(self, g: Monomial) -> GradedVector:
        """Sum over compositions of n, weighted by lattice paths and the basis."""
        n = g.degree
        terms: dict[Monomial, Coeff] = {self.gen_monomial(n): -1}
        for r in range(1, n):
            sign = 1 if r % 2 else -1  # -(-1)^r
            for comp in compositions(n, r + 1):
                lam = lambda_coefficient(comp[:r])
                if not lam:
                    continue
                m = self._composition_monomial(comp)
                terms[m] = terms.get(m, 0) + sign * lam * self._antipode_weight(n, comp)
        return GradedVector(terms)


class FaaDiBrunoA(_FaaDiBrunoBase):
    """Coefficient normalisation f(x) = x + sum a_n x^{n+1}."""

    name = "fdb-a"
    prefix = "a"

    def coproduct_generator(self, g: Monomial) -> TensorVector:
        n = g.degree
        terms: dict[tuple[Monomial, Monomial], Coeff] = {}
        empty = self.empty()
        for r in range(n + 1):
            left = empty if r == 0 else self.gen_monomial(r)
            for part in partitions(n - r):
                used = len(part)
                b0 = r + 1 - used
                if b0 < 0:
                    continue
                den = factorial(b0)
                for m in Counter(part).values():
                    den *= factorial(m)
                coeff = factorial(r + 1) // den
                right = self._composition_monomial(part)
                key = (left, right)
                terms[key] = terms.get(key, 0) + coeff
        return TensorVector(terms)


class FaaDiBrunoX(_FaaDiBrunoBase):
    """Coefficient normalisation with X_n = (n+1)! a_n; Bell-polynomial coproduct."""

    name = "fdb-x"
    prefix = "X"

    def coproduct_generator(self, g: Monomial) -> TensorVector:
        n = g.degree
        terms: dict[tuple[Monomial, Monomial], Coeff] = {}
        empty = self.empty()
        unit = GradedVector.unit()
        # argument x_j of the Bell polynomial is X_{j-1}, with X_0 = 1
        args = [unit] + [GradedVector.of(self.gen_monomial(j)) for j in range(1, n + 1)]
        for k in range(n + 1):
            left = empty if k == 0 else self.gen_monomial(k)
            right = bell_partial(n + 1, k + 1, args[: n - k + 1])
            for m, c in right.terms.items():
                terms[(left, m)] = c
        return TensorVector(terms)

    def _antipode_weight(self, n: int, comp: tuple[int, ...]) -> Coeff:
        """(n+1)! / prod (i+1)!, from X_i = (i+1)! a_i."""
        den = 1
        for i in comp:
            den *= factorial(i + 1)
        return Fraction(factorial(n + 1), den)


def fdb_a_coproduct_via_bell(H: FaaDiBrunoA, n: int) -> TensorVector:
    """The a-basis coproduct assembled from partial Bell polynomials.

    Independent of :meth:`FaaDiBrunoA.coproduct_generator`; the two must
    agree, which the tests assert.
    """
    terms: dict[tuple[Monomial, Monomial], Coeff] = {}
    empty = H.empty()
    unit = GradedVector.unit()
    # x_j = j! a_{j-1} with a_0 = 1
    args = [unit] + [
        GradedVector.of(H.gen_monomial(j - 1), factorial(j)) for j in range(2, n + 2)
    ]
    for r in range(n + 1):
        left = empty if r == 0 else H.gen_monomial(r)
        vec = bell_partial(n + 1, r + 1, args[: n - r + 1])
        scale = Fraction(factorial(r + 1), factorial(n + 1))
        for m, c in vec.scale(scale).terms.items():
            terms[(left, m)] = c
    return TensorVector(terms)


# --------------------------------------------------------------------------
# binomial (one primitive generator)


class Binomial(HopfAlgebra):
    """Polynomial algebra on one primitive generator X."""

    name = "binomial"

    def __init__(self):
        super().__init__()
        self._X = Generator(self.name, "X", 1)

    def generators(self, n: int) -> tuple[Monomial, ...]:
        return (monomial_of(self._X),) if n == 1 else ()

    def generator_from_text(self, text: str) -> Monomial:
        if text != "X":
            raise ValueError(f"the only generator is 'X', got {text!r}")
        return monomial_of(self._X)

    def axiom_domain(self, n: int) -> tuple[Monomial, ...]:
        return self.basis(n)

    def coproduct_generator(self, g: Monomial) -> TensorVector:
        empty = self.empty()
        return TensorVector({(g, empty): 1, (empty, g): 1})

    def antipode_generator_explicit(self, g: Monomial) -> GradedVector:
        return GradedVector.of(g, -1)


# --------------------------------------------------------------------------
# registry

INSTANCE_NAMES = ("ck", "ck2", "fdb-a", "fdb-x", "binomial", "shuffle:<letters>")


def instance_by_name(label: str) -> HopfAlgebra:
    """Build an instance from its command-line label."""
    if label == "ck":
        return ConnesKreimer(1)
    if label == "ck2":
        return ConnesKreimer(2)
    if label == "fdb-a":
        return FaaDiBrunoA()
    if label == "fdb-x":
        return FaaDiBrunoX()
    if label == "binomial":
        return Binomial()
    if label.startswith("shuffle:"):
        return Shuffle(label.split(":", 1)[1])
    raise ValueError(f"unknown instance {label!r}; known: {', '.join(INSTANCE_NAMES)}")
