"""Graded vector and tensor container behaviour."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar.core import (Generator, GradedVector, Monomial, TensorVector,
                           empty_monomial, monomial_of, monomial_product,
                           tensor_product, vector_product)
from hopfchar.growth import builtin
from hopfchar.instances import Shuffle

A = Generator("demo", "a", 1)
B = Generator("demo", "b", 2)
C = Generator("demo", "c", 1)


def mono(*gens):
    return Monomial(gens)


D = Generator("demo", "d", 3)
E = Generator("demo", "ab", 1)
OTHER = Generator("other", "a", 1)

rationals = st.fractions(max_denominator=40)
factor_lists = st.lists(st.sampled_from([A, B, C, D, E]), max_size=5)
monomials = st.lists(st.sampled_from([A, B, C]), max_size=4).map(
    lambda gs: Monomial(tuple(gs)))
vectors = st.dictionaries(monomials, rationals, max_size=5).map(GradedVector)
tensors = st.dictionaries(st.tuples(monomials, monomials), rationals,
                          max_size=5).map(GradedVector)
# (product, u, v, w): three elements of H, or of H (x) H, with its product
spaces = st.one_of(
    st.tuples(st.just(vector_product), vectors, vectors, vectors),
    st.tuples(st.just(tensor_product), tensors, tensors, tensors),
)


def test_commutative_monomials_sort_factors():
    assert mono(B, A) == mono(A, B)
    assert hash(mono(B, A)) == hash(mono(A, B))
    assert mono(B, A).factors == (A, B)


def test_monomial_degree_and_predicates():
    assert empty_monomial().is_empty()
    assert mono(A).is_single()
    assert not mono(A, B).is_single()
    assert mono(A, B, C).degree == 4


def test_monomial_product_concatenates_degrees():
    m = monomial_product(mono(A, B), mono(C))
    assert m.degree == 4
    assert m == mono(A, B, C)


@given(factor_lists, factor_lists)
def test_fast_monomial_product_matches_validating_constructor(fa, fb):
    a, b = Monomial(tuple(fa)), Monomial(tuple(fb))
    fast = monomial_product(a, b)
    assert fast is Monomial(a.factors + b.factors)
    assert fast is monomial_product(a, b)
    assert fast.degree == sum(g.degree for g in fa + fb)


@given(factor_lists)
def test_monomial_product_rejects_mixed_alphabets(fa):
    a = Monomial(tuple(fa) + (A,))
    # a rejected pair is never memoised, so it raises again
    for _ in range(2):
        with pytest.raises(ValueError):
            monomial_product(a, Monomial((OTHER,)))
        with pytest.raises(ValueError):
            monomial_product(Monomial((OTHER,)), a)


def test_equal_monomials_are_one_object():
    m = Monomial((A, B))
    assert Monomial((A, B)) is m
    assert Monomial.trusted((A, B), 3) is m
    assert monomial_product(Monomial((A,)), Monomial((B,))) is m
    # a content-equal generator made elsewhere finds the same monomial
    assert Monomial((Generator("demo", "a", 1), B)) is m
    assert mono(B, A) is mono(A, B)
    assert monomial_product(mono(B), mono(A)) is mono(A, B)


def test_copies_and_pickles_return_the_interned_monomial():
    for m in (mono(A, B, C), Shuffle("ab").word_monomial("abb")):
        assert copy.copy(m) is m
        assert copy.deepcopy(m) is m
        assert pickle.loads(pickle.dumps(m)) is m


def test_vector_drops_zero_terms():
    v = GradedVector({mono(A): Fraction(0), mono(B): 2})
    assert mono(A) not in v.terms
    assert v.coefficient(mono(B)) == 2
    assert v.coefficient(mono(A)) == 0


def test_vector_sum_stores_integral_coefficients_as_int():
    half = GradedVector.of(mono(A), Fraction(1, 2))
    total = half + half
    assert total.terms == {mono(A): 1}
    assert type(total.coefficient(mono(A))) is int
    assert type((half + half + half).coefficient(mono(A))) is Fraction


def test_vector_arithmetic_and_scaling():
    v = GradedVector.of(mono(A), 2) + GradedVector.of(mono(B), 3)
    w = v - GradedVector.of(mono(A), 2)
    assert w.terms == {mono(B): 3}
    assert v.scale(Fraction(1, 2)).coefficient(mono(A)) == 1
    assert (v * 0).terms == {}


def test_vector_product_is_bilinear_on_samples():
    u = GradedVector({mono(A): 1, mono(B): 2})
    v = GradedVector({mono(C): 3})
    p = vector_product(u, v)
    assert p.coefficient(mono(A, C)) == 3
    assert p.coefficient(mono(B, C)) == 6


def test_unit_and_counit():
    one = GradedVector.unit()
    assert one.counit() == 1
    assert GradedVector.of(mono(A)).counit() == 0


def test_l1_norm_uses_family_weights():
    fam = builtin("pow")
    v = GradedVector({mono(A): 2, mono(A, B): -1})   # degrees 1 and 3
    assert v.l1_norm(fam, 2) == 2 * 2 + 1 * 8
    assert GradedVector().l1_norm(fam, 3) == 0


def test_max_degree():
    v = GradedVector({mono(A): 1, mono(A, B): 1})
    assert v.max_degree() == 3
    assert GradedVector().max_degree() == 0


def test_tensor_vector_basics():
    t = TensorVector.of((mono(A), mono(B)), 2) + TensorVector.of((mono(A), mono(B)), 1)
    assert t.coefficient((mono(A), mono(B))) == 3
    assert t.l1_count() == 3
    fam = builtin("pow")
    assert t.l1_norm(fam, 1) == 3


def test_tensor_product_multiplies_componentwise():
    t1 = TensorVector.of((mono(A), empty_monomial()))
    t2 = TensorVector.of((mono(B), mono(C)))
    p = tensor_product(t1, t2)
    assert p.coefficient((mono(A, B), mono(C))) == 1


def test_tensor_repr_and_sorted_terms():
    one = empty_monomial()
    t = TensorVector({(mono(A, B), mono(C)): 1, (mono(A), mono(C)): 2,
                      (mono(A), one): Fraction(-1, 2)})
    assert TensorVector is GradedVector
    assert repr(t) == "-1/2*(a (x) 1) + 2*(a (x) c) + 1*(a*b (x) c)"
    assert t.sorted_terms() == [((mono(A), one), Fraction(-1, 2)), ((mono(A), mono(C)), 2),
                                ((mono(A, B), mono(C)), 1)]


def test_vectors_are_not_hashable():
    with pytest.raises(TypeError):
        hash(GradedVector())


@given(spaces)
def test_addition_commutes(space):
    _, u, v, _ = space
    assert (u + v).terms == (v + u).terms


@given(spaces)
def test_product_distributes_over_addition(space):
    product, u, v, w = space
    left = product(u, v + w)
    right = product(u, v) + product(u, w)
    assert left.terms == right.terms


@given(spaces, rationals)
def test_norm_scales_absolutely(space, q):
    _, v, _, _ = space
    fam = builtin("pow")
    assert v.scale(q).l1_norm(fam, 2) == abs(q) * v.l1_norm(fam, 2)


@given(spaces)
def test_norm_triangle_inequality(space):
    _, u, v, _ = space
    fam = builtin("pow")
    assert (u + v).l1_norm(fam, 2) <= u.l1_norm(fam, 2) + v.l1_norm(fam, 2)
