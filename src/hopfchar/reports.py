"""File formats and canonical report emission.

All artifacts are UTF-8 JSON with sorted keys and fixed layout, so a rerun
with the same configuration and seed produces byte-identical output.  Exact
rationals travel as strings ("3/4", "-5"), floats as JSON numbers, dual
numbers as two-element arrays.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from typing import Mapping, Sequence

from .characters import (DUAL, FLOAT, RATIONAL, TARGETS, TruncatedCharacter,
                         TruncatedInfChar)
from .core import Coeff
from .evolution import TimePoly, TimePolynomialCurve
from .fields import ColouredPolySystem, Poly, PolyMap, PolyVectorField, WordSystem
from .hopf import HopfAlgebra
from .instances import instance_by_name

# ---------------------------------------------------------------- scalars


def encode_rational(x: Coeff) -> str:
    return str(Fraction(x))


# the file schemas' pattern for a rational string, with a nonzero denominator
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def decode_rational(v) -> Fraction:
    if (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, str) and _RATIONAL_TEXT.fullmatch(v)):
        return Fraction(v)
    raise ValueError(f"expected exact rational encoding, got {v!r}")


def _decode_integer(v, what: str, minimum: int | None = None) -> int:
    """A JSON integer (not a boolean, float or string), at least minimum."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {v!r}")
    return v


def _key(doc: Mapping, key: str):
    """doc[key], the only way a decoder reads a key: one the document lacks
    is a ValueError that says so."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None


def _decode_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be an array, got {v!r}")
    return v


def encode_scalar(target, x):
    if target is RATIONAL:
        return encode_rational(x)
    if target is FLOAT:
        return float(x)
    if target is DUAL:
        a, b = x
        return [encode_rational(a) if isinstance(a, (int, Fraction)) else float(a),
                encode_rational(b) if isinstance(b, (int, Fraction)) else float(b)]
    raise ValueError(f"unknown target {target!r}")


def decode_scalar(target, v):
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    if target is RATIONAL:
        return decode_rational(v)
    if target is FLOAT:
        return float(v)
    if target is DUAL:
        if not isinstance(v, list) or len(v) != 2:
            raise ValueError(f"a dual value must be a two-element array, got {v!r}")
        a, b = v

        def part(u):
            return decode_rational(u) if isinstance(u, (str, int)) else float(u)

        return (part(a), part(b))
    raise ValueError(f"unknown target {target!r}")


# ---------------------------------------------------------------- characters


def character_to_json(phi) -> dict:
    kind = "inf" if isinstance(phi, TruncatedInfChar) else "char"
    values = []
    for g in sorted(phi.values, key=phi.hopf.monomial_text):
        values.append({"generator": phi.hopf.monomial_text(g),
                       "value": encode_scalar(phi.target, phi.values[g])})
    return {"hopf": phi.hopf.name, "N": phi.N, "B": phi.target.name,
            "kind": kind, "values": values}


def character_from_json(doc: Mapping, hopf: HopfAlgebra | None = None):
    name = _key(doc, "hopf")
    H = hopf if hopf is not None else instance_by_name(name)
    if H.name != name:
        raise ValueError(f"character file is for {name!r}, not {H.name!r}")
    B = _key(doc, "B")
    target = TARGETS.get(B)
    if target is None:
        raise ValueError(f"unknown target algebra {B!r}")
    values = {}
    for row in _decode_list(_key(doc, "values"), "values"):
        g = H.generator_from_text(_key(row, "generator"))
        values[g] = decode_scalar(target, _key(row, "value"))
    kind = doc.get("kind", "char")
    if kind not in ("char", "inf"):
        raise ValueError(f"not a character file: kind={kind!r}")
    cls = TruncatedInfChar if kind == "inf" else TruncatedCharacter
    return cls(H, _decode_integer(_key(doc, "N"), "N"), target, values)


def curve_to_json(curve: TimePolynomialCurve) -> dict:
    values = []
    for g in sorted(curve.polys, key=curve.hopf.monomial_text):
        coeffs = [encode_rational(c) for c in curve.polys[g].coeffs]
        values.append({"generator": curve.hopf.monomial_text(g), "coeffs": coeffs})
    return {"hopf": curve.hopf.name, "N": curve.N, "kind": curve.kind + "-curve",
            "values": values}


def curve_from_json(doc: Mapping, hopf: HopfAlgebra | None = None) -> TimePolynomialCurve:
    name = _key(doc, "hopf")
    H = hopf if hopf is not None else instance_by_name(name)
    if H.name != name:
        raise ValueError(f"curve file is for {name!r}, not {H.name!r}")
    kind = _key(doc, "kind")
    if kind not in ("inf-curve", "char-curve"):
        raise ValueError(f"not a curve file: kind={kind!r}")
    polys = {}
    for row in _decode_list(_key(doc, "values"), "values"):
        g = H.generator_from_text(_key(row, "generator"))
        polys[g] = TimePoly(tuple(decode_rational(c)
                                  for c in _decode_list(_key(row, "coeffs"), "coeffs")))
    return TimePolynomialCurve(H, _decode_integer(_key(doc, "N"), "N"), polys,
                               kind=kind[:-len("-curve")])


# ---------------------------------------------------------------- vector fields


def _components_to_json(comps: Sequence[Poly]) -> list:
    out = []
    for p in comps:
        rows = [{"monomial": list(e), "coeff": encode_rational(c)}
                for e, c in sorted(p.terms.items())]
        out.append(rows)
    return out


def _components_from_json(rows: Sequence, nvars: int) -> list:
    comps = []
    for comp in _decode_list(rows, "components"):
        terms = {}
        for cell in _decode_list(comp, "a component"):
            e = tuple(_decode_integer(k, "exponent", 0)
                      for k in _key(cell, "monomial"))
            if len(e) != nvars:
                raise ValueError(f"monomial {e} should have {nvars} exponents")
            terms[e] = terms.get(e, 0) + decode_rational(_key(cell, "coeff"))
        comps.append(Poly(nvars, terms))
    return comps


def field_to_json(f: PolyVectorField) -> dict:
    return {"dim": f.dim, "components": _components_to_json(f.comps)}


def field_from_json(doc: Mapping) -> PolyVectorField:
    dim = _decode_integer(_key(doc, "dim"), "dim")
    comps = _components_from_json(_key(doc, "components"), dim)
    if len(comps) != dim:
        raise ValueError("component count must equal dim")
    return PolyVectorField(comps)


def coloured_system_from_json(doc: Mapping) -> ColouredPolySystem:
    dim = _decode_integer(_key(doc, "dim"), "dim")
    f = PolyMap(2 * dim, _components_from_json(_key(doc, "f"), 2 * dim))
    g = PolyMap(2 * dim, _components_from_json(_key(doc, "g"), 2 * dim))
    if f.dim != dim or g.dim != dim:
        raise ValueError("each block must have dim components")
    return ColouredPolySystem(f, g)


def word_system_from_json(doc: Mapping) -> WordSystem:
    dim = _decode_integer(_key(doc, "dim"), "dim")
    fields = {}
    for letter, rows in _key(doc, "letters").items():
        if len(letter) != 1:
            raise ValueError(f"letters must be single characters, got {letter!r}")
        comps = _components_from_json(rows, dim)
        if len(comps) != dim:
            raise ValueError("each letter field must have dim components")
        fields[letter] = PolyVectorField(comps)
    return WordSystem(fields)


# ---------------------------------------------------------------- reports


def render_report(doc: Mapping) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue().encode("utf-8")


def series_csv(orders: Sequence[int], increments: Sequence[float],
               partials: Sequence[Sequence[float]]) -> bytes:
    rows = []
    for n, inc, part in zip(orders, increments, partials):
        rows.append([n, repr(float(inc)), ";".join(repr(float(v)) for v in part)])
    return render_csv(["order", "increment", "partial_value"], rows)


def load_schema(name: str) -> dict:
    # imported here: no CLI path reads a schema, and the import is costly
    from importlib import resources

    path = resources.files("hopfchar").joinpath("schemas", f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))
