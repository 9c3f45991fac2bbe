"""Taylor sums of exact flows, computed without hopfchar.

Polynomials are dicts {exponent tuple: Fraction}.  The flow of y' = F(y)
has Taylor terms g_n(y0) / n! with g_1 = F and g_{n+1} = Dg_n . F, so the
order-n partial sum of y(h) is y0 + sum_{n<=N} h^n g_n(y0) / n!.  Every
series subcommand the benchmark runs must reproduce these sums exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def poly_from_json(terms: list, nvars: int) -> dict:
    out: dict = {}
    for term in terms:
        exps = tuple(term["monomial"])
        if len(exps) != nvars:
            raise ValueError(f"monomial {exps} is not in {nvars} variables")
        out[exps] = out.get(exps, 0) + Fraction(term["coeff"])
    return {e: c for e, c in out.items() if c}


def _add_into(acc: dict, exps: tuple, c) -> None:
    v = acc.get(exps, 0) + c
    if v:
        acc[exps] = v
    else:
        acc.pop(exps, None)


def _derivative_along(p: dict, field: list[dict]) -> dict:
    """sum_i (d p / d y_i) * F_i."""
    out: dict = {}
    for exps, c in p.items():
        for i, e in enumerate(exps):
            if not e:
                continue
            lowered = exps[:i] + (e - 1,) + exps[i + 1:]
            for fexps, fc in field[i].items():
                _add_into(out, tuple(a + b for a, b in zip(lowered, fexps)), c * e * fc)
    return out


def _evaluate(p: dict, point: tuple) -> Fraction:
    total = Fraction(0)
    for exps, c in p.items():
        term = c
        for x, e in zip(point, exps):
            if e:
                term *= x ** e
        total += term
    return total


def flow_partial_sums(field: list[dict], y0: tuple, h: Fraction,
                      max_order: int) -> list[tuple]:
    """Exact partial sums for orders 1..max_order of the flow of y' = F(y)."""
    g = field
    partial = list(y0)
    sums = []
    for n in range(1, max_order + 1):
        scale = h ** n / factorial(n)
        partial = [u + scale * _evaluate(comp, y0) for u, comp in zip(partial, g)]
        sums.append(tuple(partial))
        if n < max_order:
            g = [_derivative_along(comp, field) for comp in g]
    return sums
