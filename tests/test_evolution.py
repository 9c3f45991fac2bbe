"""Exact evolution of character curves and the exponential-majorant check."""

import random
from fractions import Fraction

import pytest

from hopfchar.characters import (RATIONAL, PolyTarget, TruncatedInfChar, convolve,
                                 exp_infchar)
from hopfchar.core import Refused
from hopfchar.evolution import TimePoly, TimePolynomialCurve, evolve
from hopfchar.growth import builtin
from hopfchar.instances import instance_by_name
from oracles import magnus_logarithm, seeded_rational_values, semiregularity_check


def _unit_ball_values(H, N, seed):
    rng = random.Random(seed)
    out = {}
    for g in H.generators_upto(N):
        den = rng.randint(1, 12)
        out[g] = Fraction(rng.randint(-den, den), den)
    return out


def test_timepoly_arithmetic():
    p = TimePoly((1, 2, 3))
    q = TimePoly((0, 1))
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert TimePoly((1, 0, 0)).coeffs == (1,)
    assert TimePoly((0, 0)) == TimePoly()


def test_timepoly_eval_horner_matches_monomial_sum():
    p = TimePoly((Fraction(3, 7), -2, Fraction(5, 3)))
    t = Fraction(4, 9)
    assert p.eval(t) == Fraction(3, 7) - 2 * t + Fraction(5, 3) * t * t


def _horner(coeffs, t):
    total = 0
    for c in reversed(coeffs):
        total = total * t + c
    return total


@pytest.mark.parametrize("t", [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7)])
@pytest.mark.parametrize("coeffs", [
    (), (5,), (1, -2, 3), (0, 0, 4), (Fraction(3, 7),), (Fraction(1, 2), 2),
    (1, Fraction(-5, 6), 0, Fraction(2, 9)), (Fraction(1, 2), Fraction(1, 2)),
])
def test_timepoly_eval_has_horners_value_and_type(coeffs, t):
    p = TimePoly(coeffs)
    got, want = p.eval(t), _horner(p.coeffs, t)
    assert got == want and type(got) is type(want)


def test_timepoly_eval_at_a_float_is_horner():
    p = TimePoly((Fraction(1, 3), -2, Fraction(5, 7)))
    assert p.eval(0.3) == _horner(p.coeffs, 0.3)
    assert type(p.eval(0.3)) is float


def test_timepoly_refuses_a_float_coefficient():
    # a float would fail only later, when the curve is evaluated or evolved
    with pytest.raises(Refused, match="ints or Fractions"):
        TimePoly((0.5, 1))


def test_curve_at_picks_target(binomial):
    X = binomial.generators(1)[0]
    curve = TimePolynomialCurve(binomial, 3, {X: TimePoly((0, 1))}, "inf")
    exact = curve.at(Fraction(1, 3))
    assert exact.target is RATIONAL
    assert exact.evaluate(X) == Fraction(1, 3)
    approx = curve.at(0.5)
    assert approx.evaluate(X) == 0.5


def test_evolve_binomial_constant_seed(binomial):
    X = binomial.generators(1)[0]
    eta = TimePolynomialCurve.constant(binomial, 6, {X: 1})
    gamma = evolve(binomial, eta, 6)
    assert gamma.kind == "char"
    assert gamma.polys[X] == TimePoly((0, 1))
    # multiplicative at each time: value t on X, t^k on X^k
    phi = gamma.at(Fraction(2, 3))
    Xk = binomial.basis(4)[0]
    assert phi.evaluate(Xk) == Fraction(2, 3) ** 4


def test_evolve_time_dependent_seed(binomial):
    X = binomial.generators(1)[0]
    eta = TimePolynomialCurve(binomial, 4, {X: TimePoly((0, 1))}, "inf")
    gamma = evolve(binomial, eta, 4)
    assert gamma.polys[X] == TimePoly((0, 0, Fraction(1, 2)))


def test_evolve_constant_curve_equals_exponential(ck, fdb_a, ck2, shuffle_ab):
    for H, seed in ((ck, 21), (fdb_a, 22), (ck2, 24), (shuffle_ab, 25)):
        vals = seeded_rational_values(H, 6, random.Random(seed))
        eta_curve = TimePolynomialCurve.constant(H, 6, vals)
        gamma = evolve(H, eta_curve, 6)
        for t in (1, Fraction(1, 2)):
            scaled = TruncatedInfChar(
                H, 6, RATIONAL, {g: t * v for g, v in vals.items()}
            )
            expected = exp_infchar(scaled)
            got = gamma.at(t)
            assert all(
                got.evaluate(m) == expected.evaluate(m) for m in H.basis_upto(6)
            )


@pytest.mark.parametrize("label,N",
                         [("ck", 5), ("ck2", 4), ("fdb-a", 6), ("shuffle:ab", 5)])
def test_evolve_matches_the_magnus_expansion(label, N):
    # an affine curve eta0 + t eta1; a constant one would make every bracket
    # vanish, and the flipped expansion would pass too
    H = instance_by_name(label)
    rng = random.Random(f"magnus:{label}")
    eta0, eta1 = (seeded_rational_values(H, N, rng) for _ in range(2))
    gamma = evolve(H, TimePolynomialCurve(H, N, {g: TimePoly((v, eta1[g]))
                                                 for g, v in eta0.items()}, "inf"), N)
    eta = TruncatedInfChar(H, N, PolyTarget(RATIONAL),
                           {g: (v, eta1[g]) for g, v in eta0.items()})
    for sign, agrees in ((1, True), (-1, False)):
        omega = magnus_logarithm(eta, sign)
        same = True
        for t in (1, Fraction(1, 2)):
            want = gamma.at(t)
            got = exp_infchar(TruncatedInfChar(
                H, N, RATIONAL, {g: _horner(p, t) for g, p in omega.values.items()}))
            same &= all(got.evaluate(g) == want.evaluate(g) for g in H.generators_upto(N))
        assert same is agrees


def test_cocycle_property_at_rational_samples(ck):
    vals = seeded_rational_values(ck, 5, random.Random(23))
    gamma = evolve(ck, TimePolynomialCurve.constant(ck, 5, vals), 5)
    for s, t in ((Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2))):
        lhs = gamma.at(s + t)
        rhs = convolve(gamma.at(s), gamma.at(t))
        assert all(lhs.evaluate(m) == rhs.evaluate(m) for m in ck.basis_upto(5))


def test_evolve_rejects_overdeep_truncation(binomial):
    X = binomial.generators(1)[0]
    eta = TimePolynomialCurve.constant(binomial, 3, {X: 1})
    with pytest.raises(Refused, match="truncation 4 exceeds the curve's degree bound 3"):
        evolve(binomial, eta, 4)


def test_evolve_refuses_a_character_curve(binomial):
    # evolution is driven by a Lie-algebra-valued curve, not a group-valued one
    X = binomial.generators(1)[0]
    gamma = TimePolynomialCurve(binomial, 3, {X: TimePoly((1, 1))}, "char")
    with pytest.raises(Refused, match="kind inf-curve"):
        evolve(binomial, gamma, 3)


def test_evolve_refuses_a_curve_of_another_instance(ck, binomial):
    X = binomial.generators(1)[0]
    eta = TimePolynomialCurve.constant(binomial, 4, {X: 1})
    with pytest.raises(ValueError, match="not a generator of ck"):
        evolve(ck, eta, 4)


def test_curve_kind_validation(binomial):
    with pytest.raises(Refused, match="^kind must be 'inf' or 'char'$"):
        TimePolynomialCurve(binomial, 2, {}, "group")


def test_semiregularity_passes_for_unit_ball_curves(ck):
    fam = builtin("pow")
    for seed in (31, 32):
        eta = TimePolynomialCurve.constant(ck, 6, _unit_ball_values(ck, 6, seed))
        rep = semiregularity_check(
            ck, eta, fam, 1, (1, 0), 6, [Fraction(1, 4), Fraction(1, 2), 1]
        )
        assert rep["status"] == "pass"
        assert rep["violations"] == []
        assert all(p["ok"] for p in rep["precondition"])
        assert all(row["h_n"] <= row["bound"] * (1 + 2.0 ** -40) for row in rep["table"])


def test_semiregularity_h_is_monotone_in_degree(ck):
    eta = TimePolynomialCurve.constant(ck, 5, _unit_ball_values(ck, 5, 33))
    rep = semiregularity_check(ck, eta, builtin("pow"), 1, (1, 0), 5, [1])
    hs = [row["h_n"] for row in rep["table"]]
    assert hs == sorted(hs)


def test_semiregularity_flags_oversized_curve(binomial):
    X = binomial.generators(1)[0]
    eta = TimePolynomialCurve.constant(binomial, 4, {X: 5})
    rep = semiregularity_check(binomial, eta, builtin("pow"), 1, (1, 0), 4, [1])
    assert rep["status"] == "fail"
    assert any(not p["ok"] for p in rep["precondition"])
    assert rep["violations"]
    assert rep["violations"][0]["witness"] == "X"
