"""Words, shuffles and Lyndon machinery.

A word is a tuple of single-character letters.  Lyndon words are generated by
Duval's algorithm, factorizations by Duval's Chen-Fox-Lyndon algorithm, and
``lyndon_rewrite_word`` expresses any word as a polynomial (under the shuffle
product) in Lyndon words by triangular elimination: the shuffle of the CFL
factors of w equals (product of multiplicities factorial) * w plus lexicographically
smaller words of the same length.

The library does not multiply words here.  Products go through the
``Shuffle`` instance's table of shuffles on integer word codes, and so do
the characters, the exp/log/evolve solver's included: the instance solves
the same triangular system numerically, word by word, with its own products
(see ``Shuffle.character_value``).  ``shuffle_words``, ``shuffle_many`` and
``lyndon_rewrite_word`` are the oracle the tests compare against.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterator

Word = tuple[str, ...]


def is_lyndon(w: Word) -> bool:
    """Nonempty and strictly smaller than each of its proper suffixes."""
    if not w:
        return False
    return all(w < w[i:] for i in range(1, len(w)))


def lyndon_words(alphabet: str, maxlen: int) -> list[Word]:
    """All Lyndon words of length <= maxlen, in lexicographic order (Duval)."""
    letters = sorted(alphabet)
    if not letters:
        raise ValueError("alphabet must be nonempty")
    if len(set(letters)) != len(letters):
        raise ValueError(f"alphabet {alphabet!r} has repeated letters")
    if maxlen < 1:
        return []
    k = len(letters)
    out: list[Word] = []
    w = [0]
    while w:
        out.append(tuple(letters[i] for i in w))
        m = len(w)
        w = [w[i % m] for i in range(maxlen)]
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def chen_fox_lyndon(w: Word) -> list[Word]:
    """The unique factorization into a nonincreasing product of Lyndon words."""
    out: list[Word] = []
    i, n = 0, len(w)
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        while i <= k:
            out.append(w[i : i + j - k])
            i += j - k
    return out


@lru_cache(maxsize=None)
def shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    """Interleaving counts of u and v; total mass binom(|u|+|v|, |u|)."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[Word, int] = {}
    for w, c in shuffle_words(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in shuffle_words(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    return out


def shuffle_many(ws: list[Word]) -> dict[Word, int]:
    acc: dict[Word, int] = {(): 1}
    for w in ws:
        nxt: dict[Word, int] = {}
        for prev, c in acc.items():
            for mixed, k in shuffle_words(prev, w).items():
                nxt[mixed] = nxt.get(mixed, 0) + c * k
        acc = nxt
    return acc


def deconcatenations(w: Word) -> list[tuple[Word, Word]]:
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]


@lru_cache(maxsize=None)
def lyndon_rewrite_word(w: Word) -> tuple[tuple[tuple[Word, ...], Fraction], ...]:
    """Express the word w as a shuffle polynomial in Lyndon words.

    Returns ((lyndon multiset, coefficient), ...) with each multiset given as
    a sorted tuple of Lyndon words; shuffling each multiset out and summing
    with the coefficients reproduces w exactly.
    """
    if is_lyndon(w):
        return (((w,), Fraction(1)),)
    factors = chen_fox_lyndon(w)
    lead = 1
    for mult in Counter(factors).values():
        lead *= factorial(mult)
    expansion = shuffle_many(factors)
    if expansion.get(w) != lead:
        raise AssertionError(f"triangularity failed for {w!r}")
    acc: dict[tuple[Word, ...], Fraction] = {tuple(sorted(factors)): Fraction(1, lead)}
    for u, c in expansion.items():
        if u == w:
            continue
        # u is lexicographically smaller than w, so the recursion terminates
        for ms, k in lyndon_rewrite_word(u):
            coeff = acc.get(ms, Fraction(0)) - Fraction(c, lead) * k
            if coeff:
                acc[ms] = coeff
            else:
                acc.pop(ms, None)
    return tuple(sorted(acc.items()))


def rearrangements(w: Word) -> tuple[Word, ...]:
    """The distinct words with the letters of w, in lexicographic order."""
    a = sorted(w)
    out = [tuple(a)]
    while True:
        # next permutation: the longest nonincreasing tail, then the pivot before it
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])
        out.append(tuple(a))


def all_words(alphabet: str, n: int) -> Iterator[Word]:
    """The words of length n, in lexicographic order."""
    return product(sorted(alphabet), repeat=n)
