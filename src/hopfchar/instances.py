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
    coproduct in two normalisations; closed antipode by Lagrange inversion,
    one term per partition of the degree.
``binomial``
    One primitive generator; the smallest instance and the standard
    source of counterexamples.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial

from .core import (
    Coeff,
    Generator,
    GradedVector,
    Monomial,
    Refused,
    TensorVector,
    add_scaled,
    monomial_of,
    monomial_product,
    multisets,
)
from .hopf import HopfAlgebra
from .trees import RootedTree, iter_nodes, parse_tree, tree_text
from .words import (
    all_words,
    chen_fox_lyndon,
    deconcatenations,
    is_lyndon,
    lyndon_words,
    rearrangements,
)

# --------------------------------------------------------------------------
# small combinatorial helpers


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Nonincreasing positive parts summing to n, each at most max_part, in
    lexicographic order from the largest first part; () is the partition of 0."""
    parts = range(n if max_part is None else min(max_part, n), 0, -1)
    return multisets(parts, parts, n)


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


def _text(m: Monomial) -> str:
    """The text of a word monomial: its generator key, "" for the empty word."""
    return m.factors[0].key if m.factors else ""


class Shuffle(HopfAlgebra):
    """Words over a finite alphabet with the shuffle product.

    The vector-space basis in each degree is the full set of words; the
    polynomial generators are the Lyndon words, via the factorisation of
    every word as a shuffle polynomial in Lyndon words (Radford).  A word is
    its text: each nonempty word is one basis symbol, a single-factor
    monomial whose generator key is the word's text and whose degree is its
    length, and the empty word "" is the empty monomial.  The instance
    supplies the shuffle product, so words are never multiplied as
    monomials, and the generic coproduct, antipode and text paths run on a
    word as on any single symbol: :meth:`coproduct_generator` deconcatenates
    it and :meth:`antipode_generator_explicit` reverses it with the sign of
    its length, both cached by :class:`~hopfchar.hopf.HopfAlgebra`.

    Products and the triangular solve of :meth:`character_value` go through
    one per-instance table (u text, v text) -> {w text: count}, filled by
    the front recursion au ш bv = a(u ш bv) + b(au ш v) in the insertion
    order of :func:`~hopfchar.words.shuffle_words`, so every sum accumulates
    in the same order.  The table keeps only the sub-pairs the recursion
    reaches: the pair a caller asks for is built from its two stored
    sub-pairs and not kept, as the axiom sweep asks for each such pair at
    most twice while the larger degrees read the sub-pairs again.  The solve
    row of a word w is one such pair, its first Lyndon factor shuffled with
    the rest of w, and not the shuffle of all its factors.
    """

    def __init__(self, letters: str):
        super().__init__()
        if not letters:
            raise Refused("shuffle alphabet must be nonempty")
        if len(set(letters)) != len(letters):
            raise Refused(f"repeated letters in alphabet {letters!r}")
        if "1" in letters:
            raise Refused("'1' is the empty word's text and cannot be a letter")
        self.letters = "".join(sorted(letters))
        self.name = f"shuffle:{self.letters}"
        # word text -> the one word monomial
        self._monomials: dict[str, Monomial] = {"": self.empty()}
        self._shuffles: dict[tuple[str, str], dict[str, int]] = {}
        self._solve_rows: dict[Monomial, tuple] = {}
        self._word_classes: dict[str, tuple[Monomial, ...]] = {}

    def word_monomial(self, w: str) -> Monomial:
        m = self._monomials.get(w)
        if m is None:
            m = self._monomials[w] = monomial_of(Generator(self.name, w, len(w)))
        return m

    def _shuffle(self, u: str, v: str, keep: bool) -> dict[str, int]:
        """u ш v as {w: count}, in the order of words.shuffle_words; stored
        in the table only when `keep` (a sub-pair of the recursion)."""
        if not u:
            return {v: 1}
        if not v:
            return {u: 1}
        out = self._shuffles.get((u, v))
        if out is not None:
            return out
        head = u[0]
        out = {head + w: c for w, c in self._shuffle(u[1:], v, True).items()}
        head = v[0]
        for w, c in self._shuffle(u, v[1:], True).items():
            w = head + w
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
        return super().is_generator(m) and is_lyndon(_text(m))

    def generator_from_text(self, text: str) -> Monomial:
        for ch in text:
            if ch not in self.letters:
                raise ValueError(f"letter {ch!r} not in alphabet {self.letters!r}")
        if not is_lyndon(text):
            raise ValueError(f"word {text!r} is not a Lyndon word")
        return self.word_monomial(text)

    def add_product(self, acc: dict, a: Monomial, b: Monomial, c: Coeff) -> None:
        """acc += c * (a shuffle b) in place."""
        monomials = self._monomials
        for w, k in self._shuffle(_text(a), _text(b), False).items():
            m = monomials.get(w)
            if m is None:
                m = self.word_monomial(w)
            acc[m] = acc.get(m, 0) + c * k

    def coproduct_generator(self, g: Monomial) -> TensorVector:
        """Deconcatenation: the sum of u (x) v over the splits w = uv."""
        return TensorVector.trusted(
            {(self.word_monomial(u), self.word_monomial(v)): 1
             for u, v in deconcatenations(_text(g))})

    def antipode_generator_explicit(self, g: Monomial) -> GradedVector:
        """S(w) = (-1)^|w| times w reversed."""
        return GradedVector.of(self.word_monomial(_text(g)[::-1]),
                               -1 if g.degree % 2 else 1)

    def character_value(self, phi, m: Monomial):
        """A triangular solve on the first Chen-Fox-Lyndon factor of the word w.

        A Lyndon word is a generator.  Otherwise w has factors
        l_1 >= ... >= l_k, i_1 of them equal to l_1, and the tail
        t = l_2 ... l_k.  The shuffle l_1 ш t is i_1 w + sum c_u u, every u
        a lexicographically smaller word with the same letters, so
        phi(w) = (phi(l_1) phi(t) - sum c_u phi(u)) / i_1, the product being 0
        for an infinitesimal character (both factors are nonempty); the sum
        goes through ``B.sum_products``, the generic fold over the solver's
        ``RATIONAL_POLY``, and is then scaled by 1 / i_1.

        First the smaller non-Lyndon words with the same letters are valued,
        in increasing order, and then a character's tails l_k,
        l_{k-1} l_k, ..., t, shortest first, so each phi.evaluate finds the
        words below it already valued and the recursion depth does not grow
        with the word's length.  A non-Lyndon word enters phi's cache only
        after this fill has run for it, so a cached one certifies every
        non-Lyndon word below it: the fill starts after the nearest cached
        word below w and each word is filled once per map.
        """
        row = self._solve_rows.get(m)
        if row is None:
            row = self._solve_rows[m] = self._solve_row(m)
        B, values = phi.target, phi.values
        if not row:
            return values.get(m, B.zero)
        inv, head, tails, words, coeffs, same_letters, index = row
        cache, evaluate = phi._cache, phi.evaluate
        start = index
        while start and same_letters[start - 1] not in cache:
            start -= 1
        for i in range(start, index):
            evaluate(same_letters[i])
        terms = []
        if not phi.infinitesimal:
            tail = [evaluate(t) for t in tails][-1]
            terms.append((1, values.get(head, B.zero), tail))
        terms += [(c, evaluate(u)) for u, c in zip(words, coeffs)]
        return B.scale(inv, B.sum_products(terms))

    def _solve_row(self, m: Monomial) -> tuple:
        """() for a Lyndon word; else (1/i_1, the generator l_1, the tails of
        w shortest first, the words u and their coefficients -c_u, the
        non-Lyndon words with the same letters in lexicographic order, and
        the position of m among them).  l_1 ш t is one :meth:`_shuffle`."""
        w = _text(m)
        if is_lyndon(w):
            return ()
        factors = chen_fox_lyndon(w)
        head = factors[0]
        expansion = dict(self._shuffle(head, w[len(head):], False))
        lead = expansion.pop(w)
        tails = []
        start = len(w)
        for f in reversed(factors[1:]):
            start -= len(f)
            tails.append(self.word_monomial(w[start:]))
        key = "".join(sorted(w))
        same_letters = self._word_classes.get(key)
        if same_letters is None:
            same_letters = self._word_classes[key] = tuple(
                self.word_monomial(u) for u in rearrangements(w) if not is_lyndon(u))
        return (Fraction(1, lead), self.word_monomial(head), tuple(tails),
                tuple(map(self.word_monomial, expansion)),
                tuple(-c for c in expansion.values()),
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

    def _antipode_weight(self, n: int, part: tuple[int, ...]) -> Coeff:
        """Basis factor of the closed antipode's term for the partition `part`
        of n: 1 in the a-basis of f(x) = x + sum a_n x^{n+1}."""
        return 1

    def antipode_generator_explicit(self, g: Monomial) -> GradedVector:
        """S(a_n) by Lagrange inversion, one term per partition lambda of n:

            S(a_n) = sum (-1)^l (n+l)! / ((n+1)! prod_j m_j!) w(lambda) a^lambda

        with l the number of parts, m_j the multiplicity of part j and w the
        basis factor ``_antipode_weight``; the quotient of factorials is an
        integer.  The terms come in order of their number of parts, then
        lexicographically on the ascending parts."""
        n = g.degree
        top = factorial(n + 1)
        terms: dict[Monomial, Coeff] = {}
        for part in sorted(partitions(n), key=lambda p: (len(p), p[::-1])):
            den = top
            for m in Counter(part).values():
                den *= factorial(m)
            c = factorial(n + len(part)) // den
            terms[self._composition_monomial(part)] = (
                (-c if len(part) % 2 else c) * self._antipode_weight(n, part))
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

    def _antipode_weight(self, n: int, part: tuple[int, ...]) -> Coeff:
        """(n+1)! / prod (i+1)! over the parts i of the partition `part` of n,
        from X_i = (i+1)! a_i."""
        den = 1
        for i in part:
            den *= factorial(i + 1)
        return Fraction(factorial(n + 1), den)


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
    raise Refused(f"unknown instance {label!r}; known: {', '.join(INSTANCE_NAMES)}")
