"""Acceptance gate: thirteen end-to-end guarantees, one test per criterion.

Each test prints a single CRITERION NN PASS/FAIL line with its measured
numbers; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import random
import time
from fractions import Fraction
from math import comb, e, exp, factorial, log2

from hopfchar.characters import (RATIONAL, TruncatedCharacter,
                                 TruncatedInfChar, convolve,
                                 counterexample_demo, exp_infchar, inverse,
                                 linf_norm, log_character)
from hopfchar.control import (antipode_ratio, coproduct_ratio,
                              elementary_coproduct, rlb_check)
from hopfchar.evolution import TimePolynomialCurve, evolve
from hopfchar.fields import (ColouredPolySystem, Poly, PolyMap,
                             PolyVectorField, WordSystem)
from hopfchar.growth import builtin, check_all_axioms, w3_holds_at
from hopfchar.hopf import check_hopf_axioms
from hopfchar.instances import bell_partial, instance_by_name
from hopfchar.series import (bseries_order_terms, exact_flow_coefficient,
                             partial_sums, pseries_order_terms,
                             wordseries_order_terms)
from hopfchar.trees import edge_cuts, root_cuts, trees_of_order
from hopfchar.words import (all_words, lyndon_rewrite_word, lyndon_words,
                            shuffle_many)
from oracles import (admissible_tuples, brute_force_tree_count,
                     flow_taylor_coefficients, necklace_lyndon_count,
                     seeded_rational_values, semiregularity_check)

AXIOM_RANGES = (("ck", 8), ("ck2", 7), ("shuffle:ab", 7),
                ("fdb-a", 8), ("fdb-x", 8), ("binomial", 12))


def _gate(num, body):
    try:
        detail = body()
    except BaseException as exc:
        print(f"\nCRITERION {num:02d} FAIL: {exc}")
        raise
    print(f"\nCRITERION {num:02d} PASS: {detail}")


def _unit_ball_values(H, N, seed):
    rng = random.Random(seed)
    out = {}
    for g in H.generators_upto(N):
        den = rng.randint(1, 12)
        out[g] = Fraction(rng.randint(-den, den), den)
    return out


def test_criterion_01_hopf_axioms_exact():
    def body():
        t0 = time.perf_counter()
        checked = []
        for label, N in AXIOM_RANGES:
            rep = check_hopf_axioms(instance_by_name(label), N, fail_fast=False)
            assert not rep.violations, f"{label}: {rep.violations[:1]}"
            checked.append(f"{label}@{N}({rep.elements_checked})")
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0, f"axiom suite took {elapsed:.1f}s > 60s"
        return f"coassociativity+counit+antipode exact on {' '.join(checked)} in {elapsed:.1f}s <= 60s"

    _gate(1, body)


def test_criterion_02_antipode_recursions_agree():
    def body():
        total = 0
        for label, N in AXIOM_RANGES:
            H = instance_by_name(label)
            for n in range(1, N + 1):
                for x in H.axiom_domain(n):
                    s = H.antipode_monomial(x)
                    assert H.antipode_recursive(x, variant=1) == s, H.monomial_text(x)
                    assert H.antipode_recursive(x, variant=2) == s, H.monomial_text(x)
                    total += 1
        return f"both recursions equal the closed antipode on {total} elements across {len(AXIOM_RANGES)} instances"

    _gate(2, body)


def test_criterion_03_tree_cut_cardinalities():
    def body():
        counts = tuple(len(trees_of_order(n)) for n in range(1, 9))
        assert counts == (1, 1, 2, 4, 9, 20, 48, 115), counts
        for n, c in enumerate(counts, start=1):
            assert brute_force_tree_count(n) == c, n
        for n in range(1, 9):
            cap = 2 ** n
            for t in trees_of_order(n):
                assert len(root_cuts(t)) <= cap, t
                assert len(edge_cuts(t)) <= cap, t
        return ("root-cut and edge-cut counts <= 2^n for every tree of order <= 8; "
                f"tree counts {counts} match the brute-force oracle")

    _gate(3, body)


def test_criterion_04_coproduct_mass_and_bell_identities():
    def body():
        H = instance_by_name("fdb-a")
        fam = builtin("pow")
        for k in range(1, 5):
            for n in range(1, 9):
                x = H.gen_monomial(n)
                assert H.coproduct_monomial(x).l1_norm(fam, k) <= 2 ** n * fam.eval(k, n)
        for n in range(1, 11):
            got = elementary_coproduct(H, H.gen_monomial(n)).l1_count()
            assert got == n * (n + 1) // 2 - 1, n
        for n in range(0, 10):
            xs = [factorial(j) for j in range(1, n + 2)]
            for r in range(0, n + 1):
                want = comb(n, r) * factorial(n + 1) // factorial(r + 1)
                assert bell_partial(n + 1, r + 1, xs[: n - r + 1]) == want
        cats = [len(admissible_tuples(r)) for r in range(7)]
        assert cats == [1, 1, 2, 5, 14, 42, 132], cats
        return ("||Delta(a_n)||_k <= 2^n k^n for k<=4 n<=8; elementary count = n(n+1)/2-1 "
                f"for n<=10; factorial Bell identity n<=10; admissible counts {cats} are Catalan")

    _gate(4, body)


def test_criterion_05_elementary_growth_fits():
    def body():
        ck = rlb_check(instance_by_name("ck"), 8)
        assert ck.counts == {n: n - 1 for n in range(1, 9)}, ck.counts
        assert (ck.a_hat, ck.b_hat, ck.verdict) == (1, 0, "linear")
        fdb = rlb_check(instance_by_name("fdb-a"), 8)
        assert fdb.verdict == "superlinear", fdb.verdict
        return (f"ck: e(n)=n-1 with fit ({ck.a_hat},{ck.b_hat}) linear; "
                f"fdb-a: e(8)={fdb.counts[8]} superlinear")

    _gate(5, body)


def test_criterion_06_control_pair_certificates():
    def body():
        fam = builtin("pow")
        hats = []
        for label in ("ck", "fdb-a"):
            H = instance_by_name(label)
            for k1 in (1, 2, 3):
                rep = coproduct_ratio(H, fam, k1, 2 * k1, 8)
                assert rep.verdict == "bounded", (label, k1)
                assert rep.c_hat <= 1, (label, k1, rep.c_hat)
                hats.append(float(rep.c_hat))
        anti32 = antipode_ratio(instance_by_name("fdb-a"), fam, 1, 32, 8)
        assert anti32.verdict == "bounded"
        assert float(anti32.c_hat) == 0.03125, anti32.c_hat
        return (f"coproduct C_hat <= 1 at k2=2k1 (max observed {max(hats)}); "
                f"fdb-a antipode C_hat={float(anti32.c_hat)} at k2=32k1, all bounded")

    _gate(6, body)


def test_criterion_07_character_group_laws():
    def body():
        fam = builtin("pow")
        for label in ("ck", "fdb-a"):
            H = instance_by_name(label)
            basis = H.basis_upto(6)
            eps = TruncatedCharacter(H, 6, RATIONAL, {})
            chars = [
                TruncatedCharacter(H, 6, RATIONAL,
                                   seeded_rational_values(H, 6, random.Random(7000 + i)))
                for i in range(20)
            ]
            c_hat = coproduct_ratio(H, fam, 1, 2, 6).c_hat
            for i, phi in enumerate(chars):
                psi = chars[(i + 1) % 20]
                chi = chars[(i + 2) % 20]
                lhs = convolve(convolve(phi, psi), chi)
                rhs = convolve(phi, convolve(psi, chi))
                assert all(lhs.evaluate(m) == rhs.evaluate(m) for m in basis), (label, i)
                unit = convolve(eps, phi)
                assert all(unit.evaluate(m) == phi.evaluate(m) for m in basis), (label, i)
                inv = inverse(phi)
                product = convolve(phi, inv)
                assert all(product.evaluate(m) == eps.evaluate(m) for m in basis), (label, i)
                got = linf_norm(convolve(phi, psi), fam, 2)
                cap = (linf_norm(phi, fam, 1, over="monomials")
                       * linf_norm(psi, fam, 1, over="monomials") * c_hat)
                assert got <= cap, (label, i)
        return ("associativity, unit, inverse, and the convolution norm bound hold "
                "exactly for 20 seeded rational characters on ck and fdb-a to degree 6")

    _gate(7, body)


def test_criterion_08_square_escapes_weights():
    def body():
        d = counterexample_demo()
        assert d["status"] == "pass"
        assert d["controlled"] is True
        assert 0.9 <= exp(-1 / 10)
        assert d["square_at_X"] == 1.8
        assert d["uncontrolled_square"] is True
        assert d["max_weight_at_degree_1"] == 1
        escape = d["trace"][-1]
        assert escape["step"] == "escape"
        assert escape["detail"] == "1.8 >= 1 > exp(-1/k) for every k >= 1"
        assert escape["value"] == 1 and escape["ok"] is True
        return ("value 0.9 controlled at k=10 (0.9 <= e^{-1/10} = "
                f"{exp(-0.1):.4f}); square 1.8 >= 1 > e^(-1/k) for every k >= 1")

    _gate(8, body)


def test_criterion_09_exp_log_inverses():
    def body():
        for label, seed in (("ck", 61), ("fdb-a", 62), ("binomial", 63)):
            H = instance_by_name(label)
            eta = TruncatedInfChar(H, 6, RATIONAL,
                                   seeded_rational_values(H, 6, random.Random(seed)))
            phi = exp_infchar(eta)
            back = log_character(phi)
            assert all(back.evaluate(g) == eta.evaluate(g)
                       for g in H.generators_upto(6)), label
            again = exp_infchar(back)
            assert all(again.evaluate(m) == phi.evaluate(m)
                       for m in H.basis_upto(6)), label
        B = instance_by_name("binomial")
        X = B.generators(1)[0]
        for c in (Fraction(5, 7), Fraction(-3, 2)):
            phi = exp_infchar(TruncatedInfChar(B, 6, RATIONAL, {X: c}))
            assert phi.evaluate(X) == c
            assert all(phi.evaluate(B.basis(k)[0]) == c ** k for k in range(1, 7))
        return ("log(exp(eta)) = eta and exp(log(phi)) = phi exactly to degree 6 on "
                "ck, fdb-a, binomial; exp of the one-generator seed c gives X -> c")

    _gate(9, body)


def test_criterion_10_evolution_and_majorant():
    def body():
        ck = instance_by_name("ck")
        vals = seeded_rational_values(ck, 6, random.Random(71))
        gamma = evolve(ck, TimePolynomialCurve.constant(ck, 6, vals), 6)
        expected = exp_infchar(TruncatedInfChar(ck, 6, RATIONAL, vals))
        got = gamma.at(1)
        assert all(got.evaluate(m) == expected.evaluate(m) for m in ck.basis_upto(6))
        for s, t in ((Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2))):
            lhs = gamma.at(s + t)
            rhs = convolve(gamma.at(s), gamma.at(t))
            assert all(lhs.evaluate(m) == rhs.evaluate(m) for m in ck.basis_upto(6))
        fam = builtin("pow")
        worst = 0.0
        for seed in range(10):
            eta = TimePolynomialCurve.constant(ck, 8, _unit_ball_values(ck, 8, 1000 + seed))
            rep = semiregularity_check(ck, eta, fam, 1, (1, 0), 8,
                                       [Fraction(1, 4), Fraction(1, 2), 1])
            assert rep["status"] == "pass", seed
            worst = max(worst, max(r["h_n"] / r["bound"] for r in rep["table"]))
        return ("evolve(const eta) at t=1 equals exp(eta) exactly to degree 6; cocycle "
                "gamma(s+t)=gamma(s)*gamma(t) exact; h_n(t) <= e^{nt} on ck for 10 seeded "
                f"unit-ball curves, n<=8, t in {{1/4,1/2,1}} (worst ratio {worst:.4f})")

    _gate(10, body)


def test_criterion_11_weight_family_axioms():
    def body():
        for name in ("pow", "pow2", "pow-fact", "pow-nsq", "pow-factk"):
            fam = builtin(name)
            checks = {c.axiom: c for c in check_all_axioms(fam, 6, 40)}
            assert all(c.ok for c in checks.values()), name
            for k1 in range(1, 7):
                assert w3_holds_at(fam, k1, 2 * k1, 40), (name, k1)
        pow_w3 = check_all_axioms(builtin("pow"), 6, 40)[2].witness
        assert pow_w3["least_k2_by_k1"] == {str(k): 2 * k for k in range(1, 7)}
        anti = {c.axiom: c.ok for c in check_all_axioms(builtin("anti"), 6, 40)}
        assert anti == {"W1": True, "W2": True, "W3": False, "cW": True}, anti
        return ("five power-type families pass W1/W2/W3/cW on k<=6, n<=40 with their "
                "stated k2 witnesses; the decaying family fails exactly and only W3")

    _gate(11, body)


def _seeded_field(dim, seed, max_deg=2):
    rng = random.Random(seed)
    exps = []

    def rec(prefix, left):
        if len(prefix) == dim:
            exps.append(tuple(prefix))
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k)

    for total in range(max_deg + 1):
        rec([], total)
    comps = []
    for _ in range(dim):
        terms = {}
        for ex in exps:
            c = rng.randint(-2, 2)
            if c:
                terms[ex] = Fraction(c, rng.randint(1, 3))
        comps.append(Poly(dim, terms))
    return PolyVectorField(comps)


def test_criterion_12_series_evaluators():
    def body():
        lin = PolyVectorField([Poly.variable(1, 0)])
        val = partial_sums(bseries_order_terms(exact_flow_coefficient, lin, (1,), 8),
                           (1,), Fraction(1, 2))[1]
        err_e = abs(float(val[0]) - exp(0.5))
        assert err_e < 1e-6, err_e

        cases = [(_seeded_field(1, 41), (Fraction(1, 2),)),
                 (_seeded_field(2, 42), (Fraction(1, 2), Fraction(-1, 3))),
                 (_seeded_field(2, 43), (1, 1)),
                 (_seeded_field(2, 44), (Fraction(2, 5), 0)),
                 (_seeded_field(2, 45), (0, Fraction(-3, 4)))]
        for f, y0 in cases:
            taylor = flow_taylor_coefficients(f, y0, 6)
            terms = bseries_order_terms(exact_flow_coefficient, f, y0, 6)
            for n in range(1, 7):
                assert tuple(terms[n - 1]) == taylor[n], (y0, n)

        N = 4
        sq = PolyVectorField([Poly(1, {(2,): 1})])
        sq_terms = bseries_order_terms(exact_flow_coefficient, sq, (1,), N)
        errs = [abs(float(1 / (1 - h) - partial_sums(sq_terms, (1,), h)[1][0]))
                for h in (Fraction(1, 2 ** j) for j in range(3, 8))]
        slopes = [log2(errs[i]) - log2(errs[i + 1]) for i in range(len(errs) - 1)]
        slope = sum(slopes) / len(slopes)
        assert abs(slope - (N + 1)) <= 0.1 * (N + 1), slope

        ws = WordSystem({"a": lin})
        delta = lambda w: Fraction(1, factorial(len(w)))
        wv = partial_sums(wordseries_order_terms(delta, ws, (1,), 8),
                          [delta("") * v for v in (1,)])[1]
        err_w = abs(float(wv[0]) - e)
        assert err_w < 1e-4, err_w

        rot = ColouredPolySystem(PolyMap(2, [Poly.variable(2, 1)]),
                                 PolyMap(2, [Poly.variable(2, 0).scale(-1)]))
        h = Fraction(1, 3)
        p, q = partial_sums(pseries_order_terms(exact_flow_coefficient, rot, (1,), (0,), 8),
                            (1, 0), h)[1]
        taylor = flow_taylor_coefficients(PolyVectorField(rot.f.comps + rot.g.comps),
                                          (1, 0), 8)
        assert p == sum(c[0] * h ** j for j, c in enumerate(taylor))
        assert q == sum(c[1] * h ** j for j, c in enumerate(taylor))
        assert p == sum((-1) ** (j // 2) * h ** j / factorial(j) for j in range(0, 9, 2))
        assert q == -sum((-1) ** ((j - 1) // 2) * h ** j / factorial(j)
                         for j in range(1, 9, 2))
        return (f"flow series: |partial - e^(1/2)| = {err_e:.2e} < 1e-6; Taylor oracle exact to "
                f"order 6 on 5 seeded fields; measured order {slope:.2f} within 10% of {N + 1}; "
                f"word exponential error {err_w:.2e} < 1e-4; rotation series exact to order 8")

    _gate(12, body)


def test_criterion_13_lyndon_machinery():
    def body():
        for letters in ("ab", "abc"):
            per_length = {}
            for w in lyndon_words(letters, 8):
                per_length[len(w)] = per_length.get(len(w), 0) + 1
            for n in range(1, 9):
                assert per_length[n] == necklace_lyndon_count(len(letters), n), (letters, n)
        checked = 0
        for letters in ("ab", "abc"):
            for n in range(1, 6):
                for w in all_words(letters, n):
                    acc = {}
                    for combo, coeff in lyndon_rewrite_word(w):
                        for word, mult in shuffle_many(list(combo)).items():
                            acc[word] = acc.get(word, 0) + coeff * mult
                    acc = {k: v for k, v in acc.items() if v}
                    assert acc == {w: 1}, (w, acc)
                    checked += 1
        return (f"Lyndon counts match the necklace oracle for lengths <= 8 over 2 and 3 "
                f"letters; rewrite round-trips exactly on {checked} words of length <= 5")

    _gate(13, body)
