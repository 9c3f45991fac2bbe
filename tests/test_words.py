"""Lyndon words, shuffles, and the generator rewrite."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar.words import (all_words, chen_fox_lyndon, deconcatenations,
                            is_lyndon, lyndon_rewrite_word, lyndon_words,
                            rearrangements, shuffle_many, shuffle_words)
from oracles import brute_shuffle, necklace_lyndon_count

words_ab = st.lists(st.sampled_from("ab"), min_size=0, max_size=6).map("".join)


def test_is_lyndon_examples():
    assert is_lyndon("a")
    assert is_lyndon("ab")
    assert is_lyndon("aab")
    assert not is_lyndon("ba")
    assert not is_lyndon("aa")
    assert not is_lyndon("abab")
    assert not is_lyndon("")


def test_lyndon_counts_match_necklace_oracle():
    for alphabet in ("ab", "abc"):
        per_len = {}
        for w in lyndon_words(alphabet, 8):
            per_len[len(w)] = per_len.get(len(w), 0) + 1
        for n in range(1, 9):
            assert per_len.get(n, 0) == necklace_lyndon_count(len(alphabet), n), (
                alphabet, n)


def test_chen_fox_lyndon_factorization():
    assert chen_fox_lyndon("bab") == ["b", "ab"]
    assert chen_fox_lyndon("abab") == ["ab", "ab"]
    assert chen_fox_lyndon("baab") == ["b", "aab"]
    assert chen_fox_lyndon("aabab") == ["aabab"]


@given(words_ab)
def test_cfl_round_trip_and_ordering(w):
    factors = chen_fox_lyndon(w)
    assert "".join(factors) == w
    assert all(is_lyndon(f) for f in factors)
    assert all(factors[i] >= factors[i + 1] for i in range(len(factors) - 1))


def test_shuffle_examples():
    assert shuffle_words("a", "b") == {"ab": 1, "ba": 1}
    got = shuffle_words("ab", "ab")
    assert got == {"abab": 2, "aabb": 4}


@given(st.lists(st.sampled_from("ab"), max_size=4).map("".join),
       st.lists(st.sampled_from("ab"), max_size=4).map("".join))
def test_shuffle_matches_interleaving_oracle(u, v):
    assert shuffle_words(u, v) == brute_shuffle(u, v)


@given(st.lists(st.sampled_from("ab"), max_size=3).map("".join),
       st.lists(st.sampled_from("ab"), max_size=3).map("".join))
def test_shuffle_is_commutative(u, v):
    assert shuffle_words(u, v) == shuffle_words(v, u)


def test_shuffle_many_is_order_independent():
    ws = ["a", "b", "ab"]
    assert shuffle_many(ws) == shuffle_many(list(reversed(ws)))


def test_deconcatenations():
    assert deconcatenations("ab") == [("", "ab"), ("a", "b"), ("ab", "")]


def test_rewrite_of_lyndon_word_is_itself():
    for w in lyndon_words("ab", 5):
        assert lyndon_rewrite_word(w) == (((w,), Fraction(1)),)


def test_rewrite_example():
    got = dict(lyndon_rewrite_word("ba"))
    assert got == {("a", "b"): Fraction(1), ("ab",): Fraction(-1)}


def _expand(combo):
    """Multiset of Lyndon words -> word expansion through shuffle products."""
    return shuffle_many(list(combo))


def test_rewrite_round_trips_for_short_words():
    for alphabet, maxlen in (("ab", 5), ("abc", 4)):
        for n in range(1, maxlen + 1):
            for w in all_words(alphabet, n):
                acc: dict = {}
                for combo, coeff in lyndon_rewrite_word(w):
                    for word, mult in _expand(combo).items():
                        acc[word] = acc.get(word, 0) + coeff * mult
                acc = {k: v for k, v in acc.items() if v}
                assert acc == {w: 1}, (w, acc)


@given(st.lists(st.sampled_from("abc"), max_size=6).map("".join))
def test_rearrangements_are_the_sorted_distinct_permutations(w):
    assert rearrangements(w) == tuple(sorted(set(map("".join, permutations(w)))))


def test_all_words_count():
    assert len(list(all_words("ab", 5))) == 32
    assert len(list(all_words("abc", 3))) == 27


def test_lyndon_words_rejects_repeated_letters():
    with pytest.raises(ValueError):
        lyndon_words("aab", 3)


def test_lyndon_words_of_no_length_are_none():
    assert lyndon_words("ab", 0) == []
    assert lyndon_words("ab", -1) == []


def test_lyndon_words_rejects_an_empty_alphabet():
    with pytest.raises(ValueError):
        lyndon_words("", 2)


@pytest.mark.parametrize("alphabet, maxlen", [("ab", 10), ("abc", 7), ("abcd", 5)])
def test_first_factor_shuffled_with_the_tail_leads_with_the_word(alphabet, maxlen):
    # the two-factor solve of Shuffle.character_value rests on this: for a
    # word w with Chen-Fox-Lyndon factors l_1 >= ... >= l_k, the largest word
    # of l_1 ш l_2...l_k is w, with the number of factors equal to l_1
    try:
        for n in range(2, maxlen + 1):
            for w in all_words(alphabet, n):
                factors = chen_fox_lyndon(w)
                if len(factors) == 1:
                    continue
                head = factors[0]
                expansion = shuffle_words(head, w[len(head):])
                assert max(expansion) == w, w
                assert expansion[w] == factors.count(head), w
    finally:
        shuffle_words.cache_clear()
