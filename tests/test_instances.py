"""Bell-polynomial machinery and the two substitution normalisations."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar.characters import RATIONAL, TruncatedCharacter, inverse
from hopfchar.core import GradedVector, Monomial, Refused, TensorVector
from hopfchar.instances import bell_partial, instance_by_name, partitions
from oracles import (admissible_tuples, bell_partial_recurrence, catalan,
                     compositions, fdb_a_coproduct_via_bell,
                     fdb_antipode_by_lattice_paths, lambda_by_enumeration,
                     lambda_coefficient, seeded_rational_values)


def test_bell_partial_matches_recurrence_oracle():
    rng = random.Random(11)
    for n in range(1, 11):
        for k in range(1, n + 1):
            xs = [rng.randint(-4, 4) for _ in range(n - k + 1)]
            assert bell_partial(n, k, xs) == bell_partial_recurrence(n, k, xs)


def test_bell_partial_factorial_identity():
    # B_{n+1,r+1}(1!,2!,3!,...) = C(n,r) (n+1)!/(r+1)!
    for n in range(0, 10):
        xs = [factorial(j) for j in range(1, n + 2)]
        for r in range(0, n + 1):
            expected = comb(n, r) * factorial(n + 1) // factorial(r + 1)
            assert bell_partial(n + 1, r + 1, xs[: n - r + 1]) == expected


def test_bell_partial_extreme_indices():
    xs = [5, 7, 11, 13, 17, 19]
    for n in range(1, 7):
        assert bell_partial(n, n, xs[:1]) == xs[0] ** n
        assert bell_partial(n, 1, xs[:n]) == xs[n - 1]


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=2, max_value=5))
def test_bell_partial_homogeneity(n, c):
    # B_{n,k}(c x_1, c^2 x_2, ...) = c^n B_{n,k}(x)
    xs = list(range(1, n + 1))
    for k in range(1, n + 1):
        scaled = [c ** j * x for j, x in enumerate(xs[: n - k + 1], start=1)]
        assert bell_partial(n, k, scaled) == c ** n * bell_partial(n, k, xs[: n - k + 1])


def test_admissible_tuple_counts_are_catalan():
    for r in range(0, 7):
        tuples = admissible_tuples(r)
        assert len(tuples) == catalan(r)
        assert len(set(tuples)) == len(tuples)
        for ms in tuples:
            assert len(ms) == r
            assert sum(ms) == r
            running = 0
            for h, m in enumerate(ms[:-1], start=1):
                running += m
                assert running >= h


def test_lambda_coefficient_single_part():
    # one part: the only constraint is m_1 = 1, weight C(n+1, 1)
    for n in range(1, 8):
        assert lambda_coefficient((n,)) == n + 1


def test_lambda_coefficient_matches_admissible_tuple_sum():
    # every prefix comp[:r] the lattice-path oracle looks up through degree 12
    expected: dict[tuple[int, ...], int] = {}
    checked = 0
    for n in range(1, 13):
        for r in range(1, n):
            for comp in compositions(n, r + 1):
                parts = comp[:r]
                if parts not in expected:
                    expected[parts] = lambda_by_enumeration(parts, admissible_tuples(r))
                assert lambda_coefficient(parts) == expected[parts], parts
                checked += 1
    assert checked == 4083


def test_partition_and_composition_counts():
    assert sum(1 for _ in partitions(8)) == 22
    assert list(partitions(0)) == [()]
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert sum(1 for _ in compositions(n, k)) == comb(n - 1, k - 1)
    assert list(compositions(3, 5)) == []


def test_fdb_a_coproduct_matches_bell_assembly(fdb_a):
    for n in range(1, 9):
        g = fdb_a.gen_monomial(n)
        assert fdb_a.coproduct_monomial(g) == fdb_a_coproduct_via_bell(fdb_a, n)


def _a_to_x(fdb_x, vec: GradedVector) -> GradedVector:
    # a_n -> X_n / (n+1)!
    out = GradedVector()
    for m, c in vec.terms.items():
        scale = Fraction(c)
        for g in m.factors:
            scale /= factorial(g.degree + 1)
        xm = Monomial(tuple(fdb_x.gen(g.degree) for g in m.factors))
        out = out + GradedVector.of(xm, scale)
    return out


def test_substitution_transfers_antipode(fdb_a, fdb_x):
    # X_n = (n+1)! a_n, so S_X(X_n) = (n+1)! S_a(a_n) rewritten in X
    for n in range(1, 9):
        lhs = fdb_x.antipode_monomial(fdb_x.gen_monomial(n))
        rhs = _a_to_x(fdb_x, fdb_a.antipode_monomial(fdb_a.gen_monomial(n))).scale(
            factorial(n + 1)
        )
        assert lhs == rhs


def test_substitution_transfers_coproduct(fdb_a, fdb_x):
    for n in range(1, 9):
        lhs = fdb_x.coproduct_monomial(fdb_x.gen_monomial(n))
        terms = {}
        for (l, r), c in fdb_a.coproduct_monomial(fdb_a.gen_monomial(n)).terms.items():
            lv = _a_to_x(fdb_x, GradedVector.of(l, c * factorial(n + 1)))
            rv = _a_to_x(fdb_x, GradedVector.of(r))
            for lm, lc in lv.terms.items():
                for rm, rc in rv.terms.items():
                    key = (lm, rm)
                    acc = terms.get(key, 0) + lc * rc
                    if acc:
                        terms[key] = acc
                    else:
                        terms.pop(key, None)
        assert lhs == TensorVector(terms)


def test_explicit_antipodes_first_values(fdb_a, fdb_x):
    a1, a2 = fdb_a.gen_monomial(1), fdb_a.gen_monomial(2)
    s2 = fdb_a.antipode_monomial(a2)
    assert s2.terms == {a2: -1, Monomial(a1.factors + a1.factors): 2}
    x1, x2 = fdb_x.gen_monomial(1), fdb_x.gen_monomial(2)
    t2 = fdb_x.antipode_monomial(x2)
    assert t2.terms == {x2: -1, Monomial(x1.factors + x1.factors): 3}


def test_closed_antipodes_match_lattice_path_oracle(fdb_a, fdb_x):
    # same keys in the same order (inverse over FLOAT folds S(a_n) in it)
    # and the same int/Fraction coefficient types
    for H in (fdb_a, fdb_x):
        for n in range(1, 13):
            got = H.antipode_generator_explicit(H.gen_monomial(n)).terms
            want = fdb_antipode_by_lattice_paths(H, n).terms
            assert list(got.items()) == list(want.items()), (H.name, n)
            assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_closed_antipodes_have_one_term_per_partition(fdb_a, fdb_x):
    # p(n) for n = 0..14, through the safety limit of 14
    p = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135)
    for H in (fdb_a, fdb_x):
        for n in range(1, 15):
            terms = H.antipode_generator_explicit(H.gen_monomial(n)).terms
            assert len(terms) == p[n], (H.name, n)
            assert all(m.degree == n and c for m, c in terms.items())


def _compose(f: list, g: list) -> list:
    """f(g(x)) truncated to len(f) coefficients, x^0 first, for f(0) = g(0) = 0."""
    out = [Fraction(0)] * len(f)
    power = [Fraction(0)] * len(f)
    power[0] = Fraction(1)
    for k in range(1, len(f)):
        power = [sum(power[i] * g[d - i] for i in range(d + 1)) for d in range(len(f))]
        for d in range(len(f)):
            out[d] += f[k] * power[d]
    return out


def test_inverse_is_compositional_inverse(fdb_a, fdb_x):
    # f(x) = x + sum phi(a_n) x^{n+1} and g from inverse(phi): f(g(x)) = g(f(x)) = x
    # mod x^12; in the X-basis a_n = X_n / (n+1)!
    N = 10
    identity = [Fraction(0), Fraction(1)] + [Fraction(0)] * N
    for H, seed in ((fdb_a, 21), (fdb_x, 22)):
        phi = TruncatedCharacter(H, N, RATIONAL,
                                 seeded_rational_values(H, N, random.Random(seed)))
        psi = inverse(phi)
        f, g = identity[:], identity[:]
        for n in range(1, N + 1):
            scale = factorial(n + 1) if H is fdb_x else 1
            f[n + 1] = Fraction(phi.evaluate(H.gen_monomial(n))) / scale
            g[n + 1] = Fraction(psi.evaluate(H.gen_monomial(n))) / scale
        assert _compose(f, g) == identity
        assert _compose(g, f) == identity
        assert _compose(f, f) != identity


def test_registry_builds_every_label():
    for label in ("ck", "ck2", "fdb-a", "fdb-x", "binomial", "shuffle:ab", "shuffle:xyz"):
        H = instance_by_name(label)
        assert H.name == label if not label.startswith("shuffle") else True
    assert instance_by_name("shuffle:ba").name == "shuffle:ab"
    # the alphabet is all of the label past "shuffle:", a ':' included
    assert instance_by_name("shuffle:a:b").name == "shuffle::ab"
    assert instance_by_name("shuffle::ab").name == "shuffle::ab"
    with pytest.raises(Refused, match="unknown instance 'nope'"):
        instance_by_name("nope")
    with pytest.raises(Refused, match="alphabet must be nonempty"):
        instance_by_name("shuffle:")
    with pytest.raises(Refused, match="repeated letters"):
        instance_by_name("shuffle:aa")
