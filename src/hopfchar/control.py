"""Finite-degree verification of weighted-norm control estimates.

Ratio reports measure sup ||T(x)||_{l1,k1} / omega_{k2}(n) over the checked
elements of each degree; a finite truncation cannot certify asymptotics, so
verdicts distinguish "bounded" (max attained early) from "inconclusive".
The elementary coproduct, its per-degree l1 mass, and the affine-majorant
fit quantify how far an instance is from a linearly bounded coproduct.
Reports and their rows are immutable ``NamedTuple``s, built once.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Coeff, Monomial, TensorVector, json_number
from .growth import GrowthFamily
from .hopf import HopfAlgebra


class RatioRow(NamedTuple):
    degree: int
    element: str
    norm: object
    weight: object
    ratio: object

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "max_element": self.element,
            "l1_norm": json_number(self.norm),
            "weight": json_number(self.weight),
            "ratio": json_number(self.ratio),
        }


class RatioReport(NamedTuple):
    instance: str
    map_name: str
    family: str
    k1: int
    k2: int
    max_degree: int
    rows: tuple[RatioRow, ...]

    @property
    def c_hat(self):
        return max((r.ratio for r in self.rows), default=0)

    @property
    def attained_degree(self) -> int:
        best = None
        for r in self.rows:
            if best is None or r.ratio > best.ratio:
                best = r
        return best.degree if best else 0

    @property
    def verdict(self) -> str:
        # finite data cannot certify asymptotics: require the max early
        if not self.rows:
            return "bounded"
        return "bounded" if 2 * self.attained_degree <= self.max_degree else "inconclusive"

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "map": self.map_name,
            "family": self.family,
            "k1": self.k1,
            "k2": self.k2,
            "max_degree": self.max_degree,
            "c_hat": json_number(self.c_hat),
            "attained_degree": self.attained_degree,
            "verdict": self.verdict,
            "table": [r.to_dict() for r in self.rows],
        }


def _ratio_report(H: HopfAlgebra, family: GrowthFamily, k1: int, k2: int,
                  N: int, map_name: str) -> RatioReport:
    if k2 < k1:
        raise ValueError(f"need k2 >= k1, got k1={k1}, k2={k2}")
    rows = []
    for n in range(1, N + 1):
        weight = family.eval(k2, n)
        best: RatioRow | None = None
        for x in H.axiom_domain(n):
            if map_name == "coproduct":
                norm = H.coproduct_monomial(x).l1_norm(family, k1)
            else:
                norm = H.antipode_monomial(x).l1_norm(family, k1)
            ratio = norm / weight
            if best is None or ratio > best.ratio:
                best = RatioRow(n, H.monomial_text(x), norm, weight, ratio)
        if best is not None:
            rows.append(best)
    return RatioReport(H.name, map_name, family.name, k1, k2, N, tuple(rows))


def coproduct_ratio(H: HopfAlgebra, family: GrowthFamily, k1: int, k2: int,
                    N: int) -> RatioReport:
    """Per-degree maxima of ||Delta(x)||_{l1,k1} / omega_{k2}(n)."""
    return _ratio_report(H, family, k1, k2, N, "coproduct")


def antipode_ratio(H: HopfAlgebra, family: GrowthFamily, k1: int, k2: int,
                   N: int) -> RatioReport:
    """Per-degree maxima of ||S(x)||_{l1,k1} / omega_{k2}(n)."""
    return _ratio_report(H, family, k1, k2, N, "antipode")


def elementary_coproduct(H: HopfAlgebra, m: Monomial) -> TensorVector:
    """The reduced coproduct restricted to generator (x) generator terms."""
    reduced = H.reduced_coproduct_monomial(m)
    return TensorVector.trusted({
        pair: c
        for pair, c in reduced.terms.items()
        if H.is_generator(pair[0]) and H.is_generator(pair[1])
    })


class RlbReport(NamedTuple):
    instance: str
    max_degree: int
    counts: dict[int, Coeff]
    witnesses: dict[int, str]
    a_hat: Coeff
    b_hat: Coeff
    verdict: str

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "max_degree": self.max_degree,
            "table": [
                {"degree": n, "elementary_l1_count": json_number(self.counts[n]),
                 "max_element": self.witnesses.get(n, "")}
                for n in sorted(self.counts)
            ],
            "a_hat": json_number(self.a_hat),
            "b_hat": json_number(self.b_hat),
            "verdict": self.verdict,
        }


def rlb_check(H: HopfAlgebra, N: int) -> RlbReport:
    """Affine-majorant fit of the elementary-coproduct l1 mass per degree.

    e(n) is the max l1 mass over degree-n generators; the fit takes the
    minimal slope a_hat = max consecutive increment and the smallest
    nonnegative intercept majorising all points.  The linear/superlinear
    verdict comes from the second differences of e.
    """
    if N < 2:
        raise ValueError("rlb_check needs N >= 2")
    counts: dict[int, Coeff] = {}
    witnesses: dict[int, str] = {}
    for n in range(1, N + 1):
        best: Coeff = 0
        arg = ""
        for g in H.generators(n):
            c = elementary_coproduct(H, g).l1_count()
            if c > best:
                best, arg = c, H.monomial_text(g)
        counts[n] = best
        witnesses[n] = arg
    a_hat = max(counts[n + 1] - counts[n] for n in range(1, N))
    b_hat = max(counts[n] - a_hat * n for n in range(1, N + 1))
    if b_hat < 0:
        b_hat = 0
    second = [counts[n + 2] - 2 * counts[n + 1] + counts[n] for n in range(1, N - 1)]
    verdict = "superlinear" if any(d > 0 for d in second) else "linear"
    return RlbReport(H.name, N, counts, witnesses, a_hat, b_hat, verdict)


class HandednessReport(NamedTuple):
    instance: str
    max_degree: int
    left_factors_in_span: bool
    right_factors_in_span: bool
    left_witness: str | None
    right_witness: str | None

    @property
    def generator_slot(self) -> str:
        if self.left_factors_in_span and self.right_factors_in_span:
            return "both"
        if self.left_factors_in_span:
            return "left"
        if self.right_factors_in_span:
            return "right"
        return "neither"

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "max_degree": self.max_degree,
            "left_factors_in_span": self.left_factors_in_span,
            "right_factors_in_span": self.right_factors_in_span,
            "generator_slot": self.generator_slot,
            "left_witness": self.left_witness,
            "right_witness": self.right_witness,
        }


def right_handed_check(H: HopfAlgebra, N: int) -> HandednessReport:
    """Which tensor slot of the reduced coproduct stays in the generator span.

    Tested over all generators of degree <= N, for both slots; the witness
    records the first offending generator and term.
    """
    left_ok = right_ok = True
    left_witness = right_witness = None
    for n in range(1, N + 1):
        for g in H.generators(n):
            for (mu, sigma) in H.reduced_coproduct_monomial(g).terms:
                if left_ok and not H.is_generator(mu):
                    left_ok = False
                    left_witness = (f"{H.monomial_text(g)}: term "
                                    f"{H.monomial_text(mu)} (x) {H.monomial_text(sigma)}")
                if right_ok and not H.is_generator(sigma):
                    right_ok = False
                    right_witness = (f"{H.monomial_text(g)}: term "
                                     f"{H.monomial_text(mu)} (x) {H.monomial_text(sigma)}")
            if not (left_ok or right_ok):
                return HandednessReport(H.name, N, left_ok, right_ok,
                                        left_witness, right_witness)
    return HandednessReport(H.name, N, left_ok, right_ok, left_witness, right_witness)
