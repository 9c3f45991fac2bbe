"""Independent reference computations used to validate library results.

Everything here is deliberately written from first principles, without
importing the library's combinatorial machinery, so agreement between the
two is meaningful evidence rather than a tautology.  The exp/log series use
an instance's coproduct and basis, but none of the library's solvers; the
Connes-Kreimer cut sums use the cut enumerators of ``hopfchar.trees``, which
the instance itself no longer calls, and the shuffle character values use the
symbolic Lyndon rewrite of ``hopfchar.words``, which characters no longer call.
The Bell oracle assembles the fdb-a coproduct from the library's
``bell_partial`` (which ``FaaDiBrunoX`` runs), not from the a-basis
coproduct it is compared with.  The lattice-path fdb antipode sums over
compositions, not over the partitions of the library's Lagrange-inversion
closed form.  The flow-Taylor oracle differentiates the field symbolically,
with no trees, and ``field_to_json`` writes the field files the CLI only
reads.  ``sigma`` is the tree symmetry coefficient by its recursion over
children, which the library's tree pass folds into its own loop.
``semiregularity_check`` is the paper's regularity estimate for the exact
``evolve``, in floats with a relative guard, which no CLI report runs.
``magnus_logarithm`` solves for the logarithm of an evolved curve through
the library's ``bracket`` and polynomial target only, not its flow solver.
``FaaDiBrunoFactorial`` is fdb-a carried to the basis a_n / n!, an instance
whose structure maps have Fraction coefficients.  ``evolve_by_fold`` is not
independent of the flow solver: it runs it over ``PolyTarget(FOLD)``, one
Fraction operation at a time, as the reference for its integer loop.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, factorial, prod
from typing import Iterator, Sequence

from hopfchar.characters import (FLOAT, PolyTarget, RationalTarget, TargetAlgebra,
                                 TruncatedCharacter, TruncatedInfChar, _solve_flow,
                                 bracket, linf_norm)
from hopfchar.core import Coeff, GradedVector, Monomial, TensorVector, json_number
from hopfchar.evolution import TimePoly, TimePolynomialCurve, evolve
from hopfchar.fields import Poly, PolyVectorField
from hopfchar.growth import GrowthFamily
from hopfchar.instances import FaaDiBrunoA, Shuffle, bell_partial
from hopfchar.reports import encode_rational
from hopfchar.trees import edge_cuts, root_cuts
from hopfchar.words import lyndon_rewrite_word


def mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def necklace_lyndon_count(q: int, n: int) -> int:
    """Number of Lyndon words of length n over q letters (Moebius/necklace formula)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * q ** (n // d)
    return total // n


def _parent_arrays(n: int):
    """All parent assignments p[i] in {0..i-1} for nodes 1..n-1 (node 0 is the root)."""
    return itertools.product(*(range(i) for i in range(1, n)))


def _canonical_form(children, colours, v):
    return (colours[v], tuple(sorted(_canonical_form(children, colours, c)
                                     for c in children[v])))


def brute_force_tree_forms(n: int, colours: int = 1) -> set:
    """Canonical forms of all rooted trees on n nodes, by exhaustive generation."""
    forms = set()
    for parents in _parent_arrays(n):
        children = [[] for _ in range(n)]
        for i, p in enumerate(parents, start=1):
            children[p].append(i)
        for paint in itertools.product(range(colours), repeat=n):
            forms.add(_canonical_form(children, paint, 0))
    return forms


def brute_force_tree_count(n: int, colours: int = 1) -> int:
    return len(brute_force_tree_forms(n, colours))


def automorphism_count(tree) -> int:
    """|Aut| of a rooted tree by brute force over node permutations.

    Takes the library's tree object but only walks its children structure,
    flattening to a parent/colour table first.
    """
    parent = {0: None}
    colour = {}
    nodes = []
    stack = [(tree, None)]
    while stack:
        node, par = stack.pop()
        i = len(nodes)
        nodes.append(node)
        parent[i] = par
        colour[i] = node.colour
        for ch in node.children:
            stack.append((ch, i))
    n = len(nodes)
    count = 0
    for perm in itertools.permutations(range(1, n)):
        sigma = (0,) + perm
        ok = True
        for v in range(1, n):
            if colour[sigma[v]] != colour[v] or sigma[parent[v]] != parent[sigma[v]]:
                ok = False
                break
        count += ok
    return count


def sigma(tree) -> int:
    """The symmetry coefficient: the product over the distinct children c,
    each appearing m times, of m! sigma(c)^m."""
    out = 1
    for child in set(tree.children):
        m = tree.children.count(child)
        out *= factorial(m) * sigma(child) ** m
    return out


def tree_text_by_recursion(tree, coloured: bool) -> str:
    """A tree's canonical text rebuilt from the codec's rules at every node:
    a leaf is ``B``, children are sorted on (colour, coloured text) and
    bracketed, and a coloured text puts ``:<colour>`` after every node."""
    kids = []
    for c in tree.children:
        full = tree_text_by_recursion(c, True)
        kids.append((c.colour, full, full if coloured else tree_text_by_recursion(c, False)))
    kids.sort()
    body = "[" + ",".join(text for _, _, text in kids) + "]" if kids else "B"
    return f"{body}:{tree.colour}" if coloured else body


def catalan(r: int) -> int:
    return comb(2 * r, r) // (r + 1)


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


def bell_partial_recurrence(n: int, k: int, xs):
    """Partial Bell polynomial B_{n,k}(x_1,...) via the standard recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    total = 0
    for i in range(1, n - k + 2):
        if i <= len(xs):
            total += comb(n - 1, i - 1) * xs[i - 1] * bell_partial_recurrence(n - i, k - 1, xs)
    return total


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


class FaaDiBrunoFactorial(FaaDiBrunoA):
    """fdb-a in the basis a_n / n!: its generator of degree n stands for
    fdb-a's a_n / n!, so each a_m in an image becomes m! times a generator.
    Both structure maps are fdb-a's carried over this way, and both have
    Fraction coefficients, which no instance of the library has.
    """

    name = "fdb-a/n!"

    def coproduct_generator(self, g: Monomial) -> TensorVector:
        def weight(m):
            return prod(factorial(h.degree) for h in m.factors)

        return TensorVector({
            (left, right): Fraction(c * weight(left) * weight(right), factorial(g.degree))
            for (left, right), c in super().coproduct_generator(g).terms.items()})

    def _antipode_weight(self, n: int, part: tuple[int, ...]) -> Coeff:
        """prod i! / n! over the parts i of the partition `part` of n."""
        return Fraction(prod(map(factorial, part)), factorial(n))


def brute_shuffle(u: str, v: str) -> dict:
    """All interleavings of u and v with multiplicity, by position choice."""
    out: dict[str, int] = {}
    n, m = len(u), len(v)
    for positions in itertools.combinations(range(n + m), n):
        word = [None] * (n + m)
        for letter, pos in zip(u, positions):
            word[pos] = letter
        rest = iter(v)
        for i in range(n + m):
            if word[i] is None:
                word[i] = next(rest)
        w = "".join(word)
        out[w] = out.get(w, 0) + 1
    return out


def seeded_rational_values(H, N: int, rng, den_max: int = 12) -> dict:
    """Random rational generator values, reproducible from the given rng."""
    vals = {}
    for n in range(1, N + 1):
        for g in H.generators(n):
            den = rng.randint(1, den_max)
            num = rng.randint(-3 * den, 3 * den)
            vals[g] = Fraction(num, den)
    return vals


class FoldRational(RationalTarget):
    """Exact rationals computed one Fraction operation at a time.

    ``sum_products`` is the generic left fold of ``TargetAlgebra`` through
    the inherited ``add``, ``mul`` and ``scale``, each an int exactly when
    integral, and as this target is not ``RATIONAL`` itself, the flow solver
    runs it over the generic ``PolyTarget`` of rational tuples.  Results
    over it are the reference for the integer kernels of ``RATIONAL``: equal
    values of the same Python types.
    """

    sum_products = TargetAlgebra.sum_products


FOLD = FoldRational()


def evolve_by_fold(H, eta: TimePolynomialCurve, N: int) -> TimePolynomialCurve:
    """``evolve`` with the flow solver run over ``PolyTarget(FOLD)`` on eta's
    coefficient tuples, each result built back into a TimePoly."""
    eta = {g: p.coeffs for g, p in eta.polys.items()}
    gamma, _ = _solve_flow(H, N, PolyTarget(FOLD), eta)
    return TimePolynomialCurve(H, N, {g: TimePoly(p) for g, p in gamma.items()}, "char")


def lambda_by_enumeration(parts: tuple, tuples) -> int:
    """Lattice-path weight by its definition: the sum over the admissible
    tuples (m_1..m_r) of prod C(n_i + 1, m_i)."""
    total = 0
    for ms in tuples:
        p = 1
        for n_i, m_i in zip(parts, ms):
            p *= comb(n_i + 1, m_i)
        total += p
    return total


def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of `parts` positive integers summing to n."""
    if parts < 1 or n < parts:
        return
    for cuts in itertools.combinations(range(1, n), parts - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


@lru_cache(maxsize=None)
def lambda_coefficient(parts: tuple[int, ...]) -> int:
    """Lattice-path weight used by the closed substitution antipodes.

    The sum of prod C(n_i + 1, m_i) over the Catalan(r) admissible tuples
    (m_1..m_r) of integers m_i >= 0 with sum r and every proper prefix sum
    m_1+..+m_h >= h, by dynamic programming over (prefix length h, prefix
    sum s) in O(r^3): ways[s] weights the admissible h-prefixes summing to s.
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


def fdb_antipode_by_lattice_paths(H, n: int) -> GradedVector:
    """S(a_n) of ``fdb-a`` or S(X_n) of ``fdb-x`` as a sum over the
    compositions of n, each weighted by the lattice-path coefficient of all
    its parts but the last, folded onto the monomials in first-seen order.
    In the X-basis a composition also carries (n+1)! / prod (i+1)!."""
    terms: dict[Monomial, Coeff] = {H.gen_monomial(n): -1}
    for r in range(1, n):
        sign = 1 if r % 2 else -1  # -(-1)^r
        for comp in compositions(n, r + 1):
            lam = lambda_coefficient(comp[:r])
            if not lam:
                continue
            weight: Coeff = 1
            if H.name == "fdb-x":
                den = 1
                for i in comp:
                    den *= factorial(i + 1)
                weight = Fraction(factorial(n + 1), den)
            m = Monomial(tuple(H.gen(i) for i in comp))
            terms[m] = terms.get(m, 0) + sign * lam * weight
    return GradedVector(terms)


def _table_convolve(H, B, t1: dict, t2: dict) -> dict:
    out = {}
    for m in t1:  # both tables share the basis key set
        total = B.zero
        for (mu, sigma), c in H.coproduct_monomial(m).terms.items():
            total = B.add(total, B.scale(c, B.mul(t1[mu], t2[sigma])))
        out[m] = total
    return out


def exp_by_series(eta, N: int) -> dict:
    """exp(eta) = sum eta^{*j}/j! on every basis element of degree <= N.

    The power series over full-basis tables, through the instance's
    coproduct only: independent of the library's degree-by-degree solver.
    """
    H, B = eta.hopf, eta.target
    basis = H.basis_upto(N)
    eta_table = {m: eta.evaluate(m) for m in basis}
    acc = {m: (B.one if m.is_empty() else B.zero) for m in basis}
    power = dict(acc)
    for j in range(1, N + 1):
        power = _table_convolve(H, B, power, eta_table)
        inv = Fraction(1, factorial(j))
        for m in basis:
            acc[m] = B.add(acc[m], B.scale(inv, power[m]))
    return acc


def log_by_series(phi, N: int) -> dict:
    """log(phi) = sum (-1)^{j+1} (phi - counit)^{*j}/j on every basis element
    of degree <= N, by the power series over full-basis tables."""
    H, B = phi.hopf, phi.target
    basis = H.basis_upto(N)
    psi = {m: (B.zero if m.is_empty() else phi.evaluate(m)) for m in basis}
    acc = {m: B.zero for m in basis}
    power = psi
    for j in range(1, N + 1):
        if j > 1:
            power = _table_convolve(H, B, power, psi)
        c = Fraction(1 if j % 2 else -1, j)
        for m in basis:
            acc[m] = B.add(acc[m], B.scale(c, power[m]))
    return acc


def bernoulli_numbers(n: int) -> list:
    """B_0 .. B_{n-1} by the recurrence sum_j C(m+1, j) B_j = 0, so B_1 = -1/2."""
    out: list = []
    for m in range(n):
        out.append(Fraction(1) if m == 0 else
                   -sum(comb(m + 1, j) * b for j, b in enumerate(out)) / (m + 1))
    return out


def magnus_logarithm(eta: TruncatedInfChar, odd_sign: int = 1) -> TruncatedInfChar:
    """Omega(t) with exp(Omega(t)) = gamma(t), gamma' = gamma * eta, gamma(0)
    the counit, for eta over a polynomial target such as
    ``PolyTarget(RATIONAL)``: N Picard sweeps of the Magnus equation
    Omega' = sum_{k<N} (-1)^k B_k / k! ad_Omega^k(eta), from Omega = 0.  A
    bracket of length above N vanishes, and sweep n fixes degree n, so the
    result is exact.  odd_sign = -1 flips the odd terms, as a control."""
    H, N, P = eta.hopf, eta.N, eta.target
    coeffs = [(-odd_sign) ** k * b / factorial(k)
              for k, b in enumerate(bernoulli_numbers(N))]
    omega = TruncatedInfChar(H, N, P, {})
    for _ in range(N):
        ad = [eta]
        for _ in range(1, N):
            ad.append(bracket(omega, ad[-1]))
        omega = TruncatedInfChar(H, N, P, {
            g: P.integrate(P.sum_products((c, x.evaluate(g)) for c, x in zip(coeffs, ad)))
            for g in H.generators_upto(N)})
    return omega


class TableMap:
    """A linear map given by its table on monomials, absent meaning zero; it
    obeys no algebraic law, so the law checkers below can be seen to fail."""

    def __init__(self, hopf, target: TargetAlgebra, table: dict):
        self.hopf, self.target, self.table = hopf, target, table

    def evaluate(self, m: Monomial):
        return self.table.get(m, self.target.zero)

    def on_vector(self, v: GradedVector):
        return self.target.sum_products((c, self.evaluate(m)) for m, c in v.terms.items())


def check_multiplicative(phi: TruncatedCharacter,
                         pairs) -> tuple[bool, str | None]:
    """phi(m1 . m2) == phi(m1) phi(m2) under the instance product."""
    H, B = phi.hopf, phi.target
    for m1, m2 in pairs:
        lhs = phi.on_vector(H.product(GradedVector.of(m1), GradedVector.of(m2)))
        rhs = B.mul(phi.evaluate(m1), phi.evaluate(m2))
        if lhs != rhs:
            return False, f"{H.monomial_text(m1)} . {H.monomial_text(m2)}"
    return True, None


def check_derivation(eta: TruncatedInfChar, pairs) -> tuple[bool, str | None]:
    """eta(m1 . m2) == eps(m1) eta(m2) + eta(m1) eps(m2) for nonempty mi."""
    H, B = eta.hopf, eta.target
    for m1, m2 in pairs:
        lhs = eta.on_vector(H.product(GradedVector.of(m1), GradedVector.of(m2)))
        e1 = B.one if m1.is_empty() else B.zero
        e2 = B.one if m2.is_empty() else B.zero
        rhs = B.add(B.mul(e1, eta.evaluate(m2)), B.mul(eta.evaluate(m1), e2))
        if lhs != rhs:
            return False, f"{H.monomial_text(m1)} . {H.monomial_text(m2)}"
    return True, None


def controlled_witness(phi, family: GrowthFamily) -> dict:
    """Least k <= 64 with generator norm <= 1 (see linf_norm); a truncation proxy."""
    guard = 1e-12 if not family.is_exact or phi.target is FLOAT else 0
    for k in range(1, 65):
        norm = linf_norm(phi, family, k)
        if norm <= 1 + guard:
            return {"witness_k": k, "norm": json_number(norm),
                    "note": "finite-degree proxy"}
    return {"witness_k": None, "norm": None, "note": "finite-degree proxy"}


def semiregularity_check(H, eta: TimePolynomialCurve,
                         family: GrowthFamily, k: int, ab, N: int,
                         t_samples) -> dict:
    """Check h_n(t) = sup_{|tau| <= n} |gamma(t)(tau)| / omega_k(|tau|)
    against the bound e^{(a n + b) t}, with a 2^-40 relative guard.

    Also reports whether the driving curve satisfies the norm precondition
    ||eta(t)|_Sigma|| <= 1 at each sample.
    """
    a, b = ab
    guard = 2.0 ** -40
    gamma = evolve(H, eta, N)
    gens = [(g, float(family.eval(k, g.degree))) for g in H.generators_upto(N)]

    precondition = []
    table = []
    violations = []
    for t in t_samples:
        tf = float(t)
        eta_norm = 0.0
        for g, w in gens:
            v = abs(float(eta.poly(g).eval(tf)))
            if v / w > eta_norm:
                eta_norm = v / w
        precondition.append({
            "t": tf,
            "eta_sup_norm": eta_norm,
            "ok": eta_norm <= 1.0 + guard,
        })
        running = 0.0
        best_gen = ""
        by_degree: dict[int, float] = {}
        witness: dict[int, str] = {}
        for g, w in gens:
            v = abs(float(gamma.polys[g].eval(tf))) / w
            if v > running:
                running, best_gen = v, H.monomial_text(g)
            d = g.degree
            if running >= by_degree.get(d, -1.0):
                by_degree[d] = running
                witness[d] = best_gen
        h = 0.0
        for n in range(1, N + 1):
            h = max(h, by_degree.get(n, 0.0))
            bound = exp((float(a) * n + float(b)) * tf)
            ok = h <= bound * (1.0 + guard)
            table.append({"t": tf, "n": n, "h_n": h, "bound": bound, "ok": ok})
            if not ok:
                violations.append({"t": tf, "n": n, "h_n": h, "bound": bound,
                                   "witness": witness.get(n, "")})
    status = "pass" if (not violations and all(p["ok"] for p in precondition)) else "fail"
    return {
        "instance": H.name,
        "family": family.name,
        "k": k,
        "a": float(a),
        "b": float(b),
        "max_degree": N,
        "precondition": precondition,
        "table": table,
        "violations": violations,
        "status": status,
    }


def forests_by_scan(pool: list, n: int) -> tuple:
    """Multisets of trees with n nodes in total, as tuples in pool order.

    pool holds every tree with at most n nodes, in the library's canonical
    order.  Each step scans the whole pool from the last index taken and
    skips the trees that do not fit: the enumeration, and its order, as it
    was before the library indexed the pool by size.
    """
    out = []

    def extend(prefix: list, start: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.order > remaining:
                continue
            prefix.append(t)
            extend(prefix, i, remaining - t.order)
            prefix.pop()

    extend([], 0, n)
    return tuple(out)


def flow_taylor_coefficients(f: PolyVectorField, y0: Sequence, max_order: int) -> list:
    """Taylor coefficients of the flow of y' = f(y): entry j is y^(j)(0)/j!.

    Independent of any tree machinery: g_1 = f and g_{j+1} = Dg_j . f,
    assembled symbolically, then evaluated at y0.
    """
    coeffs = [tuple(y0)]
    g = f
    for j in range(1, max_order + 1):
        coeffs.append(tuple(Fraction(v, factorial(j)) if isinstance(v, int)
                            else v / factorial(j) for v in g.evaluate(y0)))
        if j < max_order:
            g = g.jacobian_times(f)
    return coeffs


def plain_differential(f, t, y) -> tuple:
    """F(t)(y) recomputed at every node: no memo."""
    if not t.children:
        return f.evaluate(y)
    return f.deriv_apply(y, [plain_differential(f, c, y) for c in t.children])


def plain_coloured_differential(system, t, point) -> tuple:
    fmap = system.f if t.colour == 0 else system.g
    if not t.children:
        return fmap.evaluate(point)
    vectors = [plain_coloured_differential(system, c, point) for c in t.children]
    slots = [system.p_slot if c.colour == 0 else system.q_slot for c in t.children]
    return fmap.deriv_apply(point, vectors, slots)


def bseries_terms_by_recursion(a, f, y, trees_by_order) -> list:
    """Per-order sums of a(t)/|Aut t| * F(t)(y), with F(t) recomputed per node.

    trees_by_order[n - 1] lists the trees with n nodes; the symmetry weight
    is the brute-force automorphism count, not the library's sigma.
    """
    terms = []
    for trees in trees_by_order:
        acc = [0] * f.dim
        for t in trees:
            c = Fraction(a(t), automorphism_count(t))
            vec = plain_differential(f, t, y)
            acc = [u + c * v for u, v in zip(acc, vec)]
        terms.append(tuple(acc))
    return terms


def pseries_terms_by_recursion(a, system, p, q, trees_by_order) -> list:
    """Per-order vectors P_n + Q_n of the partitioned series, as above: trees
    rooted at colour 0 feed P_n and colour 1 feed Q_n."""
    point = tuple(p) + tuple(q)
    terms = []
    for trees in trees_by_order:
        acc = ([0] * system.dim, [0] * system.dim)
        for t in trees:
            c = Fraction(a(t), automorphism_count(t))
            vec = plain_coloured_differential(system, t, point)
            acc[t.colour][:] = [u + c * v for u, v in zip(acc[t.colour], vec)]
        terms.append(tuple(acc[0] + acc[1]))
    return terms


def word_series_by_jacobian(delta, sys, x, max_length: int) -> list:
    """Per-length sums of delta(w) f_w(x), with each word map built as a
    symbolic polynomial map, f_c for a letter c and Df_s . f_c for w = c s by
    ``PolyMap.jacobian_times``, then evaluated at x.

    Words of each length are visited in lexicographic order.  With a float
    point the sums may round differently from the library's, which expands
    the fields about x first, so float results agree only to a tolerance.
    """
    maps = {}

    def word_map(w):
        if w not in maps:
            f_c = sys.field(w[0])
            maps[w] = f_c if len(w) == 1 else word_map(w[1:]).jacobian_times(f_c)
        return maps[w]

    terms = []
    for n in range(1, max_length + 1):
        acc = [0] * sys.dim
        for w in map("".join, itertools.product(sorted(sys.alphabet), repeat=n)):
            c = delta(w)
            if c:
                acc = [u + c * v for u, v in zip(acc, word_map(w).evaluate(x))]
        terms.append(tuple(acc))
    return terms


def _components_to_json(comps: Sequence[Poly]) -> list:
    out = []
    for p in comps:
        rows = [{"monomial": list(e), "coeff": encode_rational(c)}
                for e, c in sorted(p.terms.items())]
        out.append(rows)
    return out


def field_to_json(f: PolyVectorField) -> dict:
    return {"dim": f.dim, "components": _components_to_json(f.comps)}


def word_of(m: Monomial) -> str:
    """The text of a shuffle word monomial: its generator key, "" for the empty word."""
    return m.factors[0].key if m.factors else ""


def generator_factorizations(H, m):
    """m as a combination of algebra products of generators: the Lyndon
    polynomial of the word on a shuffle instance, the literal factors
    otherwise."""
    if isinstance(H, Shuffle):
        return [(coeff, tuple(H.word_monomial(w) for w in multiset))
                for multiset, coeff in lyndon_rewrite_word(word_of(m))]
    return [(1, tuple(Monomial.trusted((g,), g.degree) for g in m.factors))]


def character_by_rewrite(phi, m):
    """phi(m) from the generator factorizations of m: the sum over them of
    coeff * the product of generator values for a character, and of
    coeff * the value of a lone generator for an infinitesimal one."""
    B = phi.target
    infinitesimal = phi.kind == "infinitesimal character"
    total = B.zero
    for coeff, gens in generator_factorizations(phi.hopf, m):
        if infinitesimal:
            if len(gens) != 1:
                continue
            value = phi.values.get(gens[0], B.zero)
        else:
            value = B.one
            for g in gens:
                value = B.mul(value, phi.values.get(g, B.zero))
        total = B.add(total, B.scale(coeff, value))
    return total


def basis_by_scan(H, n: int) -> tuple:
    """The degree-n monomial basis as it was enumerated before the scan
    stopped at the first generator too large: every later generator of the
    pool is visited and skipped."""
    if n == 0:
        return (H.empty(),)
    pool = H.generators_upto(n)
    out = []

    def extend(prefix: list, start: int, remaining: int) -> None:
        if remaining == 0:
            out.append(Monomial(tuple(g for m in prefix for g in m.factors)))
            return
        for i in range(start, len(pool)):
            g = pool[i]
            if g.degree > remaining:
                continue
            prefix.append(g)
            extend(prefix, i, remaining - g.degree)
            prefix.pop()

    extend([], 0, n)
    return tuple(out)


def _forest_monomial(H, forest) -> Monomial:
    return Monomial(tuple(H.tree_monomial(t).factors[0] for t in forest))


def ck_coproduct_by_root_cuts(H, g) -> TensorVector:
    """The Connes-Kreimer coproduct of a tree generator as the sum over its
    root cuts: the cut forest on the left, the kept root part on the right."""
    terms: dict = {}
    for kept, forest in root_cuts(H.tree_of(g.factors[0])):
        left = _forest_monomial(H, forest)
        right = H.empty() if kept is None else H.tree_monomial(kept)
        terms[(left, right)] = terms.get((left, right), 0) + 1
    return TensorVector(terms)


def ck_antipode_by_edge_cuts(H, g) -> GradedVector:
    """The closed Connes-Kreimer antipode as the signed sum over every edge
    subset p of the forest t minus p, sign (-1)^{#trees}."""
    terms: dict = {}
    for forest in edge_cuts(H.tree_of(g.factors[0])):
        m = _forest_monomial(H, forest)
        terms[m] = terms.get(m, 0) + (-1 if len(forest) % 2 else 1)
    return GradedVector(terms)
