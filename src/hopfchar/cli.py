"""Command-line front end.

Every subcommand emits one JSON report (stdout or --out).  Exit status is 0
when all checks in the run pass, 1 when a check fails (the report carries a
witness), and 2 for a `Refused` input, which includes a result that has no
JSON text (a float past the float range, or an exact number past Python's
int-to-text digit limit).  Reports depend only on the configuration and
seed, never on wall-clock or filesystem state, so reruns are byte-identical.

A workflow returns its report and writes nothing.  An --emit or --csv file
is a projection of that report, and `main` renders the report and the side
file before it writes either, so a run that cannot finish leaves no file.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import reports
from .characters import (convolve, counterexample_demo, exp_infchar, inverse,
                         linf_norm, log_character)
from .control import (antipode_ratio, coproduct_ratio, rlb_check,
                      right_handed_check)
from .core import Refused
from .evolution import evolve
from .growth import BUILTIN_FAMILIES, builtin, check_all_axioms
from .hopf import check_hopf_axioms
from .instances import (INSTANCE_NAMES, Binomial, ConnesKreimer, FaaDiBrunoA,
                        FaaDiBrunoX, Shuffle, instance_by_name)
from .series import (as_float, bseries_order_terms, exact_flow_coefficient,
                     partial_sums, pseries_order_terms, series_rows,
                     wordseries_order_terms)

SAFETY_LIMITS = {ConnesKreimer: 12, FaaDiBrunoA: 14, FaaDiBrunoX: 14, Shuffle: 10,
                 Binomial: 64}

# growth-check's grid limits, fixed; pow-nsq, the slowest built-in family,
# takes about 4.5 s with all three at their limits (2 vCPUs, Python 3.11)
GROWTH_GRID_LIMITS = {"k max": 12, "n max": 64, "k2 max": 4096}

# control-check's limits, fixed: a family index, and the bits of the exact
# weight omega_k at the max degree, for k = k1 and k = k2; char norm's too,
# for its k at the file's degree N.  A report prints weights, l1 sums and
# ratios as decimal integers, which Python refuses past 4300 digits (14,284
# bits); the margin is over four times the largest l1 mass measured near the
# safety limits, 65 bits (binomial@64 coproduct).  --csv writes the same
# numbers as floats, which end below 2^1024, so with --csv a weight may have
# the same 284-bit margin less than 1,024 bits
CONTROL_K_LIMIT = 4096
CONTROL_WEIGHT_BITS = 14_000
CONTROL_CSV_WEIGHT_BITS = 1024 - 284

# char's norm options and the defaults norm applies; the other ops refuse them
CHAR_NORM_DEFAULTS = {"family": "pow", "k": 1, "over": "generators"}


def _check_range(what: str, value: int, cls, name: str) -> None:
    """Refuse a degree, order or length above the safety limit of instance
    class cls, or below zero.  The limits are fixed, like growth-check's
    grids: no option or setting lifts them."""
    limit = SAFETY_LIMITS[cls]
    if value > limit:
        raise Refused(f"{what} {value} exceeds the safety limit {limit} for {name}")
    _check_least(what, value)


def _check_least(what: str, value: int, least: int = 0) -> None:
    """Refuse an integer option below its least value: 0 for a degree, order,
    length or count, 1 for a family index."""
    if value < least:
        raise Refused(f"{what} must be nonnegative" if least == 0
                      else f"{what} must be at least {least}")


def _load_instance(name: str, max_degree: int):
    H = instance_by_name(name)
    _check_range("max degree", max_degree, type(H), H.name)
    return H


def _check_weight(fam, what: str, k: int, degree: int, csv: bool = False) -> None:
    """Refuse, before anything is computed, a family index k above
    CONTROL_K_LIMIT, or one whose exact weight at this degree has more bits
    than a report (or, with csv, a CSV float) can hold."""
    if k > CONTROL_K_LIMIT:
        raise Refused(f"{what} {k} exceeds the limit {CONTROL_K_LIMIT}")
    bits_limit = CONTROL_CSV_WEIGHT_BITS if csv else CONTROL_WEIGHT_BITS
    bits = fam.eval(k, degree).bit_length() if fam.is_exact else 0
    if bits > bits_limit:
        raise Refused(f"{fam.name} weight at {what} {k} and degree {degree} has "
                      f"{bits} bits, over the limit {bits_limit}"
                      f"{' for --csv' if csv else ''}")


def _load(path: str, decode, *args):
    """The one way an input file comes in: read its JSON and decode it with
    one `reports` decoder.  A file that cannot be read or decoded is bad
    input (exit 2); errors raised later, while computing, are not caught."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise Refused(f"cannot read {path}: {exc}")
    try:
        return decode(doc, *args)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise Refused(f"bad input file {path}: {exc}")


def _load_character(path: str, instance: str | None = None, what: str = "",
                    order: int = 0):
    """A character file within its safety limit.  A series also passes the
    instance it needs and the order or length it sums to, at most N; its
    coefficients are rational or float, as a series sums plain numbers."""
    phi = _load(path, reports.character_from_json)
    _check_range("truncation N", phi.N, type(phi.hopf), phi.hopf.name)
    if order > phi.N:
        raise Refused(f"{what} {order} exceeds the coefficient file's "
                      f"truncation N={phi.N}")
    if instance is not None and phi.hopf.name != instance:
        raise Refused(f"coefficient file must be a {instance} character")
    if instance is not None and phi.target.name not in ("rational", "float"):
        raise Refused(f"coefficient file must be rational or float, "
                      f"not {phi.target.name}")
    return phi


def _write(path: str, data: bytes) -> None:
    """The one way an output file goes out (--out, --emit, --csv), from main."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise Refused(f"cannot write {path}: {exc}")


def _parse_rational(text: str) -> Fraction:
    """An option's rational, by the file rule: p or p/q."""
    try:
        return reports.decode_rational(text)
    except ValueError:
        raise Refused(f"not a rational number: {text!r}")


def _parse_point(text: str) -> tuple:
    return tuple(_parse_rational(p) for p in text.split(","))


# ---------------------------------------------------------------- workflows


def run_enumerate(args) -> tuple[bool, dict]:
    H = _load_instance(args.hopf, args.max_degree)
    rows = []
    for n in range(1, args.max_degree + 1):
        rows.append({"degree": n,
                     "generators": len(H.generators(n)),
                     "basis": len(H.basis(n))})
    return True, {"instance": H.name, "max_degree": args.max_degree, "table": rows}


def run_axioms(args) -> tuple[bool, dict]:
    H = _load_instance(args.hopf, args.max_degree)
    rep = check_hopf_axioms(H, args.max_degree, fail_fast=args.fail_fast)
    return rep.ok, rep.to_dict()


def run_control_check(args) -> tuple[bool, dict]:
    H = _load_instance(args.hopf, args.max_degree)
    fam = builtin(args.family)
    _check_least("k1", args.k1, 1)
    for what, k in (("k1", args.k1), ("k2", args.k2)):
        _check_weight(fam, what, k, args.max_degree, bool(args.csv))
    op = coproduct_ratio if args.map == "coproduct" else antipode_ratio
    rep = op(H, fam, args.k1, args.k2, args.max_degree)
    return rep.verdict == "bounded", rep.to_dict()


def run_rlb_check(args) -> tuple[bool, dict]:
    H = _load_instance(args.hopf, args.max_degree)
    rep = rlb_check(H, args.max_degree)
    return True, rep.to_dict()


def run_right_handed(args) -> tuple[bool, dict]:
    H = _load_instance(args.hopf, args.max_degree)
    rep = right_handed_check(H, args.max_degree)
    return True, rep.to_dict()


def run_evolve(args) -> tuple[bool, dict]:
    H = _load_instance(args.hopf, args.max_degree)
    eta = _load(args.eta, reports.curve_from_json, H)
    gamma = evolve(H, eta, args.max_degree)
    payload = {"instance": H.name, "max_degree": args.max_degree,
               "gamma": reports.curve_to_json(gamma)}
    if args.at is not None:
        t = _parse_rational(args.at)
        payload["at"] = {"t": reports.encode_rational(t),
                         "character": reports.character_to_json(gamma.at(t))}
    return True, payload


def run_char(args) -> tuple[bool, dict]:
    if args.b and args.op != "conv":
        raise Refused(f"--b is the second character of conv; {args.op} takes one")
    if args.op == "conv" and not args.b:
        raise Refused("conv needs --b")
    if args.emit and args.op == "norm":
        raise Refused("norm gives a number, not a character: it has no --emit file")
    if args.op == "norm":  # norm applies the defaults, and the config records them
        vars(args).update((option, default) for option, default in CHAR_NORM_DEFAULTS.items()
                          if getattr(args, option) is None)
        _check_least("k", args.k, 1)
    elif given := [option for option in CHAR_NORM_DEFAULTS if getattr(args, option) is not None]:
        raise Refused(f"--{given[0]} is an option of norm; {args.op} does not read it")
    phi = _load_character(args.a)
    payload: dict = {"op": args.op, "instance": phi.hopf.name, "N": phi.N}
    result = None
    if args.op == "conv":
        result = convolve(phi, _load_character(args.b))
    elif args.op == "inv":
        result = inverse(phi)
    elif args.op == "exp":
        result = exp_infchar(phi)
    elif args.op == "log":
        result = log_character(phi)
    else:  # norm
        fam = builtin(args.family)
        _check_weight(fam, "k", args.k, phi.N)
        val = linf_norm(phi, fam, args.k, over=args.over)
        enc = reports.encode_rational(val) if isinstance(val, (int, Fraction)) else float(val)
        payload.update({"family": fam.name, "k": args.k, "over": args.over,
                        "value": enc})
    if result is not None:
        payload["character"] = reports.character_to_json(result)
    return True, payload


def _tree_series(args, colours: int, dim: int, start, terms_of) -> tuple[dict, tuple]:
    """What bseries (one colour, ck) and pseries (two, ck2) share: the order
    limit, the step size, the coefficient function (the exact flow, or a
    character file's character at each tree) and the rows.  terms_of(a)
    gives the per-order terms for coefficients a."""
    expected = "ck" if colours == 1 else "ck2"
    _check_range("max order", args.max_order, ConnesKreimer, expected)
    h = _parse_rational(args.h)
    if args.coeffs == "exact-flow":
        a = exact_flow_coefficient
    else:
        phi = _load_character(args.coeffs, expected, "max order", args.max_order)

        def a(t):
            return phi.evaluate(phi.hopf.tree_monomial(t))

    table, final = partial_sums(terms_of(a), start, h)
    payload = {"series": args.subcommand, "dim": dim, "h": reports.encode_rational(h),
               "max_order": args.max_order, "coefficients": args.coeffs,
               "rows": series_rows(table)}
    return payload, final


def run_bseries(args) -> tuple[bool, dict]:
    f = _load(args.field, reports.field_from_json)
    y0 = _parse_point(args.y)
    if len(y0) != f.dim:
        raise Refused(f"initial point has {len(y0)} components, field has {f.dim}")
    payload, final = _tree_series(
        args, 1, f.dim, y0, lambda a: bseries_order_terms(a, f, y0, args.max_order))
    payload["final"] = [as_float(v) for v in final]
    return True, payload


def run_pseries(args) -> tuple[bool, dict]:
    system = _load(args.system, reports.coloured_system_from_json)
    p0 = _parse_point(args.p)
    q0 = _parse_point(args.q)
    if len(p0) != system.dim or len(q0) != system.dim:
        raise Refused("p and q must each have dim components")
    payload, final = _tree_series(
        args, 2, system.dim, p0 + q0,
        lambda a: pseries_order_terms(a, system, p0, q0, args.max_order))
    payload["final_p"] = [as_float(v) for v in final[:system.dim]]
    payload["final_q"] = [as_float(v) for v in final[system.dim:]]
    return True, payload


def run_wordseries(args) -> tuple[bool, dict]:
    system = _load(args.system, reports.word_system_from_json)
    expected = f"shuffle:{system.alphabet}"
    _check_range("max length", args.max_length, Shuffle, expected)
    x0 = _parse_point(args.x)
    if len(x0) != system.dim:
        raise Refused(f"point has {len(x0)} components, fields have {system.dim}")
    if args.coeffs == "exp-single":
        if len(system.alphabet) != 1:
            raise Refused("exp-single coefficients need a one-letter alphabet")
        from math import factorial

        def delta(w):
            return Fraction(1, factorial(len(w)))
    else:
        phi = _load_character(args.coeffs, expected, "max length", args.max_length)

        def delta(w):
            return phi.evaluate(phi.hopf.word_monomial(w))

    terms = wordseries_order_terms(delta, system, x0, args.max_length)
    table, final = partial_sums(terms, [delta("") * v for v in x0])
    payload = {"series": "wordseries", "dim": system.dim,
               "max_length": args.max_length, "coefficients": args.coeffs,
               "rows": series_rows(table), "final": [as_float(v) for v in final]}
    return True, payload


def run_counterexample(args) -> tuple[bool, dict]:
    payload = counterexample_demo()
    return payload["status"] == "pass", payload


def run_growth_check(args) -> tuple[bool, dict]:
    fam = builtin(args.family)
    for what, value, least in (("k max", args.k_max, 1), ("n max", args.n_max, 0),
                               ("k2 max", args.k2_max, 1)):
        _check_least(what, value, least)
        if value > GROWTH_GRID_LIMITS[what]:
            raise Refused(f"{what} {value} exceeds the limit {GROWTH_GRID_LIMITS[what]}")
    checks = check_all_axioms(fam, args.k_max, args.n_max, args.k2_max)
    ok = all(c.ok for c in checks)
    return ok, {"family": fam.name, "k_max": args.k_max, "n_max": args.n_max,
                "axioms": [c.to_dict() for c in checks]}


WORKFLOWS = {
    "enumerate": run_enumerate,
    "axioms": run_axioms,
    "control-check": run_control_check,
    "rlb-check": run_rlb_check,
    "right-handed": run_right_handed,
    "evolve": run_evolve,
    "char": run_char,
    "bseries": run_bseries,
    "pseries": run_pseries,
    "wordseries": run_wordseries,
    "counterexample": run_counterexample,
    "growth-check": run_growth_check,
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hopfchar",
        description="Verification and series-evaluation workflows for graded "
                    "Hopf algebra character groups.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in the report for reproducibility")

    def hopf_args(p, default_degree):
        p.add_argument("--hopf", required=True,
                       help="instance: " + "|".join(INSTANCE_NAMES))
        p.add_argument("--max-degree", type=int, default=default_degree)

    p = sub.add_parser("enumerate", help="generator and basis counts per degree")
    hopf_args(p, 6)
    common(p)

    p = sub.add_parser("axioms", help="exact Hopf axiom verification")
    hopf_args(p, 6)
    p.add_argument("--fail-fast", action="store_true")
    common(p)

    p = sub.add_parser("control-check", help="weighted l1 ratio table for a map")
    hopf_args(p, 8)
    p.add_argument("--family", required=True,
                   help="growth family: " + "|".join(sorted(BUILTIN_FAMILIES)))
    p.add_argument("--k1", type=int, required=True, help="norm index")
    p.add_argument("--k2", type=int, required=True, help="weight index")
    p.add_argument("--map", choices=["coproduct", "antipode"], default="coproduct")
    p.add_argument("--csv", help="per-degree table as CSV")
    common(p)

    p = sub.add_parser("rlb-check", help="elementary-coproduct linear-bound fit")
    hopf_args(p, 8)
    common(p)

    p = sub.add_parser("right-handed", help="which reduced-coproduct slot stays in the generator span")
    hopf_args(p, 6)
    common(p)

    p = sub.add_parser("evolve", help="solve gamma' = gamma * eta degree by degree")
    hopf_args(p, 6)
    p.add_argument("--eta", required=True, help="eta curve JSON (per-generator t-polynomials)")
    p.add_argument("--emit", help="write the solution curve JSON here")
    p.add_argument("--at", help="also evaluate the solution at this rational time")
    common(p)

    p = sub.add_parser("char", help="character-group operations on files")
    p.add_argument("op", choices=["conv", "inv", "exp", "log", "norm"])
    p.add_argument("--a", required=True, help="first character file")
    p.add_argument("--b", help="second character file (conv)")
    p.add_argument("--family", help="growth family (norm, default pow)")
    p.add_argument("--k", type=int, help="weight index (norm, default 1)")
    p.add_argument("--over", choices=["generators", "monomials"],
                   help="norm domain (default generators)")
    p.add_argument("--emit", help="write the resulting character file here")
    common(p)

    p = sub.add_parser("bseries", help="tree-indexed series for y' = f(y)")
    p.add_argument("--field", required=True, help="vector field JSON")
    p.add_argument("--coeffs", default="exact-flow",
                   help="'exact-flow' or a ck character file")
    p.add_argument("--y", required=True, help="initial point, comma-separated rationals")
    p.add_argument("--h", default="1/2", help="step size (rational)")
    p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--csv", help="order/increment/partial table as CSV")
    common(p)

    p = sub.add_parser("pseries", help="bicoloured series for p' = f(p,q), q' = g(p,q)")
    p.add_argument("--system", required=True, help="partitioned system JSON")
    p.add_argument("--coeffs", default="exact-flow",
                   help="'exact-flow' or a ck2 character file")
    p.add_argument("--p", required=True, help="initial p, comma-separated rationals")
    p.add_argument("--q", required=True, help="initial q, comma-separated rationals")
    p.add_argument("--h", default="1/2", help="step size (rational)")
    p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--csv", help="order/increment/partial table as CSV")
    common(p)

    p = sub.add_parser("wordseries", help="word-indexed series for letter fields")
    p.add_argument("--system", required=True, help="word system JSON")
    p.add_argument("--coeffs", default="exp-single",
                   help="'exp-single' or a shuffle character file")
    p.add_argument("--x", required=True, help="initial point, comma-separated rationals")
    p.add_argument("--max-length", type=int, default=8)
    p.add_argument("--csv", help="length/increment/partial table as CSV")
    common(p)

    p = sub.add_parser("counterexample",
                       help="controlled character whose square escapes every weight")
    common(p)

    p = sub.add_parser("growth-check", help="weight-family axiom verification")
    p.add_argument("--family", required=True,
                   help="family: " + "|".join(sorted(BUILTIN_FAMILIES)))
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--k2-max", type=int, default=64)
    common(p)

    return top


def _side_file(args, payload: dict) -> tuple[str, bytes] | None:
    """The --emit or --csv file, a projection of the payload: its character or
    gamma curve, or as CSV its control-check table or series rows."""
    if getattr(args, "emit", None):
        doc = payload.get("character", payload.get("gamma"))
        return None if doc is None else (args.emit, reports.render_report(doc))
    if not getattr(args, "csv", None):
        return None
    if "table" in payload:
        return args.csv, reports.render_csv(
            ["degree", "element", "norm", "weight", "ratio"],
            [[r["degree"], r["max_element"]]
             + [repr(float(r[k])) for k in ("l1_norm", "weight", "ratio")]
             for r in payload["table"]])
    return args.csv, reports.render_csv(
        ["order", "increment", "partial_value"],
        [[r["order"], repr(r["increment"]), ";".join(map(repr, r["partial"]))]
         for r in payload["rows"]])


def _config_dict(args) -> dict:
    skip = {"subcommand", "out", "seed"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    workflow = WORKFLOWS[args.subcommand]
    try:
        ok, payload = workflow(args)
        data = reports.render_report({
            "tool": "hopfchar",
            "subcommand": args.subcommand,
            "seed": args.seed,
            "config": _config_dict(args),
            "status": "pass" if ok else "fail",
            "report": payload,
        })
        if side := _side_file(args, payload):
            _write(*side)
        if args.out:
            _write(args.out, data)
        else:
            sys.stdout.write(data.decode("utf-8"))
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
