"""The integer kernels of RATIONAL against Fraction-by-Fraction references.

The character calculus over RATIONAL runs on integer numerators: the flow
solver's step on ``RATIONAL_POLY`` and the sums of products on
``RationalTarget.sum_products``.  Each result is compared with the same call
over ``oracles.FOLD``, which computes through the generic left fold and the
generic ``PolyTarget`` (for ``evolve``, ``oracles.evolve_by_fold``): values
must be equal and of the same Python type.  Every RATIONAL value is an int
exactly when it is integral.  Besides the library's instances, fdb-a in the
basis a_n / n! (``oracles``) gives the solver coproduct coefficients that
are Fractions.  ``RATIONAL_POLY`` is also checked operation by operation
against ``PolyTarget(RATIONAL)``, its ``sum_products`` being the inherited
fold through its own ``add``, ``mul`` and ``scale``: it returns its
canonical form, () for zero or integer numerators in lowest terms with a
nonzero last one, and the generic result's value without its trailing zero
slots.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfchar.characters import (RATIONAL, RATIONAL_POLY, PolyTarget,
                                 TruncatedCharacter, TruncatedInfChar, bracket,
                                 convolve, exp_infchar, inverse, log_character)
from hopfchar.evolution import TimePoly, TimePolynomialCurve, evolve
from hopfchar.hopf import check_hopf_axioms
from hopfchar.instances import instance_by_name
from hopfchar.reports import character_to_json, curve_to_json, render_report
from oracles import FOLD, FaaDiBrunoFactorial, evolve_by_fold

# (instance, truncation), sized to keep the Fraction-by-Fraction side quick
CASES = [("ck", 6), ("ck2", 4), ("fdb-a", 8), ("fdb-x", 8), ("shuffle:ab", 6),
         ("binomial", 8)]
# and fdb-a in the basis a_n / n!, whose coproduct has Fraction coefficients
CALCULUS_CASES = CASES + [(FaaDiBrunoFactorial.name, 7)]


def _instance(name):
    return FaaDiBrunoFactorial() if name == FaaDiBrunoFactorial.name else instance_by_name(name)


def test_the_factorial_basis_instance_is_a_hopf_algebra_with_fraction_coefficients():
    H = FaaDiBrunoFactorial()
    assert check_hopf_axioms(H, 8).ok
    for g in H.generators_upto(8):
        assert (H.antipode_generator_explicit(g) == H.antipode_recursive(g, 1)
                == H.antipode_recursive(g, 2))
    fractions = [c for g in H.generators_upto(7)
                 for c in H.reduced_coproduct_monomial(g).terms.values()
                 if type(c) is Fraction]
    assert len(fractions) == 45


def _value(rng):
    """A zero, an int or a Fraction, some integral, some negative."""
    roll = rng.random()
    if roll < 0.15:
        return 0
    if roll < 0.2:
        return Fraction(0)
    if roll < 0.4:
        return rng.randint(-4, 4)
    den = rng.randint(1, 6)
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def _values(H, N, rng, sparse):
    """Values on the generators up to degree N; sparse leaves about a third
    of them out, which a stored zero is not."""
    return {g: _value(rng) for g in H.generators_upto(N)
            if not sparse or rng.random() < 0.65}


def _int_when_integral(x) -> bool:
    return type(x) is (int if x.denominator == 1 else Fraction)


def _assert_same(got: dict, want: dict):
    assert list(got) == list(want)
    for g, v in want.items():
        assert got[g] == v and type(got[g]) is type(v), (g, got[g], v)


def _as_rational(phi):
    """phi's values over RATIONAL, so the report encoders accept them."""
    return type(phi)(phi.hopf, phi.N, RATIONAL, phi.values)


def _same_report(phi, ref):
    assert (render_report(character_to_json(phi))
            == render_report(character_to_json(_as_rational(ref))))


@pytest.mark.parametrize("name,N", CALCULUS_CASES, ids=[c[0] for c in CALCULUS_CASES])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_character_calculus_matches_fraction_fold(name, N, sparse):
    H = _instance(name)
    rng = random.Random(f"kernels:{name}:{sparse}")
    v1, v2, chi = (_values(H, N, rng, sparse) for _ in range(3))
    eta1, eta2 = (TruncatedInfChar(H, N, RATIONAL, v) for v in (v1, v2))
    ref1, ref2 = (TruncatedInfChar(H, N, FOLD, v) for v in (v1, v2))

    phi, ref_phi = exp_infchar(eta1), exp_infchar(ref1)
    _assert_same(phi.values, ref_phi.values)
    _same_report(phi, ref_phi)

    # log of exp(eta) and of a character with int and zero values
    char = TruncatedCharacter(H, N, RATIONAL, chi)
    ref_char = TruncatedCharacter(H, N, FOLD, chi)
    for psi, ref_psi in ((phi, ref_phi), (char, ref_char)):
        back, ref_back = log_character(psi), log_character(ref_psi)
        _assert_same(back.values, ref_back.values)
        _same_report(back, ref_back)

    _assert_same(inverse(phi).values, inverse(ref_phi).values)
    _assert_same(inverse(char).values, inverse(ref_char).values)
    _assert_same(convolve(phi, char).values, convolve(ref_phi, ref_char).values)
    _assert_same(bracket(eta1, eta2).values, bracket(ref1, ref2).values)

    curve = TimePolynomialCurve(H, N, {g: TimePoly((0, v, w))
                                       for (g, v), w in zip(v1.items(), v2.values())},
                                "inf")
    gamma, ref_gamma = evolve(H, curve, N), evolve_by_fold(H, curve, N)
    assert gamma.polys.keys() == ref_gamma.polys.keys()
    for g, p in ref_gamma.polys.items():
        assert [type(c) for c in gamma.polys[g].coeffs] == [type(c) for c in p.coeffs]
    assert render_report(curve_to_json(gamma)) == render_report(curve_to_json(ref_gamma))


@pytest.mark.parametrize("name,N", CASES, ids=[c[0] for c in CASES])
def test_evolve_of_a_constant_curve_matches_fraction_fold(name, N):
    # a constant eta takes the solver's scalar path, as exp and log do
    H = instance_by_name(name)
    values = _values(H, N, random.Random(f"constant:{name}"), True)
    curve = TimePolynomialCurve.constant(H, N, values)
    gamma, ref = evolve(H, curve, N), evolve_by_fold(H, curve, N)
    for t in (1, Fraction(1, 3), 0.5):
        _assert_same(gamma.at(t).values, ref.at(t).values)
    assert gamma.polys.keys() == ref.polys.keys()
    for g, p in ref.polys.items():
        assert [type(c) for c in gamma.polys[g].coeffs] == [type(c) for c in p.coeffs]
    assert render_report(curve_to_json(gamma)) == render_report(curve_to_json(ref))


def test_an_evolved_time_poly_equals_one_built_from_its_coeffs(ck):
    eta = TimePolynomialCurve(ck, 4, {g: TimePoly((Fraction(1, g.degree + 1), 0, -1))
                                      for g in ck.generators_upto(4)}, "inf")
    gamma, again = evolve(ck, eta, 4).polys, evolve(ck, eta, 4).polys
    for g, p in gamma.items():
        assert p == again[g]  # before either's coeffs were read
        rebuilt = TimePoly(p.coeffs)
        assert p == rebuilt and hash(p) == hash(rebuilt) and p.coeffs
    # the zero curve's solution is zero: equal to TimePoly(), the int 0 at any t
    for p in evolve(ck, TimePolynomialCurve(ck, 4, {}, "inf"), 4).polys.values():
        assert p.eval(Fraction(1, 3)) == 0 and type(p.eval(Fraction(1, 3))) is int
        assert p == TimePoly() and hash(p) == hash(TimePoly())


def test_zero_results_keep_the_folds_types(ck):
    # exp of the zero map and log of the counit are zero on every generator,
    # the int 0 whatever the degree, over RATIONAL and over the fold alike
    exp0 = exp_infchar(TruncatedInfChar(ck, 4, RATIONAL, {})).values
    assert set(exp0.values()) == {0} and set(map(type, exp0.values())) == {int}
    _assert_same(exp0, exp_infchar(TruncatedInfChar(ck, 4, FOLD, {})).values)
    log0 = log_character(TruncatedCharacter(ck, 4, RATIONAL, {})).values
    assert set(log0.values()) == {0} and set(map(type, log0.values())) == {int}
    _assert_same(log0, log_character(TruncatedCharacter(ck, 4, FOLD, {})).values)


def _canonical(p):
    """p is in RATIONAL_POLY's canonical form: () or (den, nums), ints in
    lowest terms with den > 0 and a nonzero last numerator."""
    if p == ():
        return True
    den, nums = p
    return (type(nums) is tuple and all(type(n) is int for n in (den, *nums))
            and den > 0 and gcd(den, *nums) == 1 and nums and nums[-1] != 0)


POLY_OPS = ("lift", "add", "mul", "scale", "integrate", "sum_products", "_flow_integral")


def _watch_poly_ops(monkeypatch, ops=POLY_OPS + ("_plus_t",)) -> list:
    """Wrap RATIONAL_POLY's operations so each result is recorded."""
    seen = []
    for name in ops:
        def watched(*args, _op=getattr(RATIONAL_POLY, name), _name=name):
            out = _op(*args)
            seen.append((_name, out))
            return out
        monkeypatch.setattr(RATIONAL_POLY, name, watched)
    return seen


@pytest.mark.parametrize("name,N", CASES, ids=[c[0] for c in CASES])
def test_every_rational_value_is_an_int_exactly_when_integral(name, N, monkeypatch):
    H = instance_by_name(name)
    rng = random.Random(f"int-rule:{name}")
    v1, v2, chi = (_values(H, N, rng, True) for _ in range(3))
    eta1, eta2 = (TruncatedInfChar(H, N, RATIONAL, v) for v in (v1, v2))
    char = TruncatedCharacter(H, N, RATIONAL, chi)
    seen = _watch_poly_ops(monkeypatch)
    phi = exp_infchar(eta1)
    computed = [phi, log_character(phi), log_character(char), inverse(phi),
                inverse(char), convolve(phi, char), bracket(eta1, eta2)]
    curve = TimePolynomialCurve(H, N, {g: TimePoly((v, 0, w))
                                       for (g, v), w in zip(v1.items(), v2.values())},
                                "inf")
    gamma = evolve(H, curve, N)
    values = [v for psi in computed for v in psi.values.values()]
    values += [psi.evaluate(m) for psi in computed + [eta1, char]
               for m in H.basis_upto(N) if not H.is_generator(m)]
    values += [c for p in gamma.polys.values() for c in p.coeffs]
    values += [v for t in (1, -2, Fraction(1, 3)) for v in gamma.at(t).values.values()]
    values += [out[0] for op, out in seen if op == "_plus_t"]
    bad = [v for v in values if not _int_when_integral(v)]
    assert not bad, bad[:5]
    polys = [out for op, out in seen if op != "_plus_t"]
    polys += [p for op, out in seen if op == "_plus_t" for p in out[1:]]
    polys += [p._p for p in gamma.polys.values()]
    assert {op for op, _ in seen} >= {"integrate", "_flow_integral", "_plus_t"}
    assert all(map(_canonical, polys)), [p for p in polys if not _canonical(p)][:5]


@pytest.mark.parametrize("name,N", CASES, ids=[c[0] for c in CASES])
def test_evolve_hands_the_solver_the_curves_own_polynomials(name, N, monkeypatch):
    # no polynomial is lowered to rationals and lifted back on the way
    H = instance_by_name(name)
    values = _values(H, N, random.Random(f"no-round-trip:{name}"), True)
    curve = TimePolynomialCurve(H, N, {g: TimePoly((v, 0, -v)) for g, v in values.items()},
                                "inf")
    want = evolve(H, curve, N).polys
    seen = _watch_poly_ops(monkeypatch, ("lift", "lower"))
    assert evolve(H, curve, N).polys == want
    assert seen == []


def test_exp_of_an_integral_value_is_an_int(binomial):
    X = binomial.generators(1)[0]
    got = exp_infchar(TruncatedInfChar(binomial, 2, RATIONAL, {X: 2})).values[X]
    assert got == 2 and type(got) is int


# ---------------------------------------------------------------- the poly target

GENERIC = PolyTarget(RATIONAL)
rationals = st.one_of(st.integers(-20, 20),
                      st.fractions(min_value=-20, max_value=20, max_denominator=12))
polys = st.lists(rationals, max_size=5).map(tuple)
R = RATIONAL_POLY


def _check(p, want):
    """p is canonical, and its coefficients are the generic result want's
    without trailing zero slots, each an int exactly when integral."""
    assert _canonical(p), p
    want = list(want)
    while want and not want[-1]:
        want.pop()
    got = R.lower(p)
    assert got == tuple(want) and all(map(_int_when_integral, got))


@given(polys)
def test_norm_is_the_generic_norm_of_the_lowered_coefficients(p):
    x = R.lift(p)
    got, want = R.norm(x), GENERIC.norm(R.lower(x))
    assert got == want and _int_when_integral(got)


@given(polys, polys)
def test_add_and_mul_agree_with_the_fraction_target(p, q):
    _check(R.add(R.lift(p), R.lift(q)), GENERIC.add(p, q))
    _check(R.mul(R.lift(p), R.lift(q)), GENERIC.mul(p, q))


@given(polys, rationals)
def test_scale_integrate_and_at_one_agree_with_the_fraction_target(p, q):
    x = R.lift(p)
    _check(x, p)
    _check(R.scale(q, x), GENERIC.scale(q, p))
    _check(R.integrate(x), GENERIC.integrate(p))
    for got, want in ((R.at_one(x), GENERIC.at_one(p)),
                      (R.at_one(R.integrate(x)), GENERIC.at_one(GENERIC.integrate(p)))):
        assert got == want and _int_when_integral(got)


@given(polys, st.integers(1, 40), st.integers(-40, 40))
def test_shuffle_row_scalings_stay_exact(p, lead, c):
    # Shuffle.character_value scales by -c and by the Fraction 1/lead
    x = R.lift(p)
    _check(R.scale(-c, x), GENERIC.scale(-c, p))
    _check(R.scale(Fraction(1, lead), x), GENERIC.scale(Fraction(1, lead), p))
    _check(R.scale(Fraction(1, lead), R.scale(lead, x)), p)


@given(polys, polys)
def test_a_sum_that_cancels_is_zero(p, q):
    x, y = R.lift(p), R.lift(q)
    _check(R.add(x, R.scale(-1, x)), GENERIC.add(p, GENERIC.scale(-1, p)))
    _check(R.sum_products([(1, x), (-1, x)]), GENERIC.sum_products([(1, p), (-1, p)]))
    _check(R.sum_products([(1, x, y), (-1, y, x)]),
           GENERIC.sum_products([(1, p, q), (-1, q, p)]))
    _check(R.sum_products([(0, x, y)]), GENERIC.sum_products([(0, p, q)]))


@given(st.lists(st.tuples(rationals, polys, polys), max_size=5))
def test_poly_sum_of_products_agrees_with_the_fold(terms):
    lifted = [(c, R.lift(p), R.lift(q)) for c, p, q in terms]
    _check(R.sum_products(lifted), GENERIC.sum_products(terms))
    _check(R.sum_products((c, x) for c, x, _ in lifted),
           GENERIC.sum_products((c, p) for c, p, _ in terms))


@given(st.lists(st.tuples(*[rationals] * 3), max_size=6))
def test_scalar_sum_of_products_agrees_with_the_fold(terms):
    for width in (2, 3):
        cut = [t[:width] for t in terms]
        got, want = RATIONAL.sum_products(cut), FOLD.sum_products(cut)
        assert got == want and type(got) is type(want)


def _horner(coeffs, t):
    total = 0
    for c in reversed(coeffs):
        total = total * t + c
    return total


@given(polys, st.integers(-9, 9),
       st.fractions(min_value=-9, max_value=9, max_denominator=12),
       st.floats(min_value=-9, max_value=9))
def test_at_has_horners_value_and_type(p, n, q, x):
    # at an exact t, Horner's value, an int exactly when integral; at a
    # float t, Horner's float over the lowered coefficients
    for t in (n, q):
        got = R.at(R.lift(p), t)
        assert got == _horner(p, t) and _int_when_integral(got)
    got, want = R.at(R.lift(p), x), _horner(R.lower(R.lift(p)), x)
    assert got == want and type(got) is type(want)


@given(polys)
def test_the_poly_one_is_the_unit(ck, p):
    # evaluate returns one for the empty monomial of a character
    assert TruncatedCharacter(ck, 2, R, {}).evaluate(ck.empty()) == R.one
    assert R.at_one(R.one) == 1 and type(R.at_one(R.one)) is int
    assert R.mul(R.one, R.lift(p)) == R.lift(p) == R.mul(R.lift(p), R.one)


def test_a_time_poly_holds_one_rational_poly():
    assert TimePoly.__slots__ == ("_p",)
