"""What the structure memos hold: shuffles on word texts, and CK cut states.

The shuffle table of a ``Shuffle`` instance must reproduce the oracle
``words.shuffle_words`` dict for dict and in insertion order, and keep only
the sub-pairs its recursion reaches; ``ConnesKreimer`` keeps edge-cut states
only for trees that a larger tree reads.
"""

import tracemalloc
from fractions import Fraction

import pytest

from hopfchar.core import GradedVector
from hopfchar.hopf import check_hopf_axioms
from hopfchar.instances import ConnesKreimer, Shuffle
from hopfchar.words import all_words, chen_fox_lyndon, is_lyndon, shuffle_words

CODE_CASES = [("ab", 7), ("abc", 5)]


def _words_upto(letters, n):
    return [w for d in range(n + 1) for w in all_words(letters, d)]


@pytest.mark.parametrize("letters, total", CODE_CASES)
def test_code_shuffle_matches_the_oracle_in_order(letters, total):
    H = Shuffle(letters)
    words = _words_upto(letters, total)
    for u in words:
        for v in words:
            if len(u) + len(v) > total:
                continue
            a, b = H.word_monomial(u), H.word_monomial(v)
            want = list(shuffle_words(u, v).items())
            got = list(H._shuffle(u, v, False).items())
            assert got == want, (u, v)
            prod = H.product(GradedVector.of(a), GradedVector.of(b))
            assert list(prod.terms.items()) == [
                (H.word_monomial(w), k) for w, k in want], (u, v)


@pytest.mark.parametrize("letters, total", CODE_CASES)
def test_solve_rows_match_rows_built_from_the_oracle(letters, total):
    H = Shuffle(letters)
    for w in _words_upto(letters, total):
        if not w or is_lyndon(w):
            continue
        head = chen_fox_lyndon(w)[0]
        expansion = dict(shuffle_words(head, w[len(head):]))
        lead = expansion.pop(w)
        want = (Fraction(1, lead), H.word_monomial(head),
                tuple(H.word_monomial(u) for u in expansion),
                tuple(-c for c in expansion.values()))
        row = H._solve_row(H.word_monomial(w))
        assert (row[0], row[1], row[3], row[4]) == want, w


def test_shuffle_table_keeps_only_sub_pairs_and_leaves_the_oracle_cold():
    shuffle_words.cache_clear()
    H = Shuffle("ab")
    assert check_hopf_axioms(H, 7).ok
    totals = {len(u) + len(v) for u, v in H._shuffles}
    assert max(totals) == 6
    assert shuffle_words.cache_info().currsize == 0


@pytest.mark.parametrize("colours, degree", [(1, 7), (2, 5)])
def test_cut_states_are_kept_for_child_trees_only(colours, degree):
    H = ConnesKreimer(colours)
    assert check_hopf_axioms(H, degree).ok
    assert max(g.degree for g in H._cut_states) == degree - 1
    top = H.generators(degree)
    before = [H.antipode_monomial(g) for g in top]
    size = len(H._cut_states)
    H._antipode_cache.clear()
    assert [H.antipode_monomial(g) for g in top] == before
    assert len(H._cut_states) == size


def test_shuffle_sweep_peak_memory():
    # traced peak of this sweep: 6.50 MB when every sub-pair lived in the
    # process-wide cache of words.shuffle_words, 1.85 MB with the table
    shuffle_words.cache_clear()
    H = Shuffle("ab")
    tracemalloc.start()
    try:
        ok = check_hopf_axioms(H, 8).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 3_250_000, peak
