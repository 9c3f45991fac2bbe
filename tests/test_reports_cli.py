"""File formats, report rendering, and the command-line workflows."""

import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import cos, e, exp
from pathlib import Path

import jsonschema
import pytest

from hopfchar import cli, reports
from hopfchar.characters import (DUAL, FLOAT, RATIONAL, TruncatedCharacter,
                                 TruncatedInfChar)
from hopfchar.core import Refused
from hopfchar.evolution import TimePoly, TimePolynomialCurve
from hopfchar.fields import Poly, PolyVectorField
from hopfchar.series import exact_flow_character
from oracles import field_to_json, seeded_rational_values


def _run(*argv):
    return cli.main(list(argv))


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def _loads(text):
    """A report parsed strictly: the NaN and Infinity that JSON lacks fail."""
    return json.loads(text, parse_constant=_not_json)


def _read(path):
    return _loads(path.read_text())


def _validated(path_or_doc, schema_name):
    doc = _read(path_or_doc) if not isinstance(path_or_doc, dict) else path_or_doc
    jsonschema.validate(doc, reports.load_schema(schema_name))
    return doc


FIELD_LINEAR = {"dim": 1, "components": [[{"monomial": [1], "coeff": "1"}]]}
FIELD_SQUARE = {"dim": 1, "components": [[{"monomial": [2], "coeff": "1"}]]}


def test_rational_encoding_round_trip():
    for q in (Fraction(3, 7), Fraction(-5, 1), 4, Fraction(0)):
        assert reports.decode_rational(reports.encode_rational(q)) == q
    assert reports.decode_rational(7) == 7
    for bad in ("x", "1.5", "1e3", "1/0"):
        with pytest.raises(ValueError):
            reports.decode_rational(bad)


def test_character_json_round_trip(fdb_a):
    vals = seeded_rational_values(fdb_a, 4, random.Random(51))
    phi = TruncatedCharacter(fdb_a, 4, RATIONAL, vals)
    doc = _validated(reports.character_to_json(phi), "file-character")
    back = reports.character_from_json(doc)
    assert isinstance(back, TruncatedCharacter)
    assert back.hopf.name == "fdb-a" and back.N == 4
    assert all(back.evaluate(g) == phi.evaluate(g) for g in fdb_a.generators_upto(4))


def test_inf_character_json_round_trip(ck):
    vals = seeded_rational_values(ck, 3, random.Random(52))
    eta = TruncatedInfChar(ck, 3, RATIONAL, vals)
    doc = reports.character_to_json(eta)
    assert doc["kind"] == "inf"
    back = reports.character_from_json(doc)
    assert isinstance(back, TruncatedInfChar)


def test_dual_character_json_round_trip(binomial):
    X = binomial.generators(1)[0]
    phi = TruncatedCharacter(binomial, 3, DUAL, {X: (Fraction(1, 2), Fraction(-2, 3))})
    doc = reports.character_to_json(phi)
    assert doc["B"] == "dual"
    back = reports.character_from_json(doc)
    assert back.evaluate(X) == (Fraction(1, 2), Fraction(-2, 3))


def test_curve_json_instance_guard(ck, fdb_a):
    doc = reports.curve_to_json(
        TimePolynomialCurve(fdb_a, 2, {fdb_a.gen_monomial(1): TimePoly((1,))}, "inf")
    )
    with pytest.raises(ValueError):
        reports.curve_from_json(doc, hopf=ck)


def test_curve_json_round_trip(binomial):
    X = binomial.generators(1)[0]
    curve = TimePolynomialCurve(
        binomial, 3, {X: TimePoly((0, Fraction(1, 2)))}, "inf"
    )
    doc = _validated(reports.curve_to_json(curve), "file-curve")
    assert doc["kind"] == "inf-curve"
    back = reports.curve_from_json(doc, binomial)
    assert back.poly(X) == TimePoly((0, Fraction(1, 2)))
    assert back.kind == "inf" and back.N == 3


def test_field_json_round_trip():
    f = PolyVectorField([
        Poly(2, {(1, 0): Fraction(2, 3), (0, 2): -1}),
        Poly(2, {(1, 1): 1, (0, 0): Fraction(1, 7)}),
    ])
    doc = _validated(field_to_json(f), "file-field")
    back = reports.field_from_json(doc)
    pt = (Fraction(1, 2), Fraction(3))
    for a, b in zip(back.comps, f.comps):
        assert a.eval(pt) == b.eval(pt)


def test_word_and_coloured_system_loading():
    sysdoc = {"dim": 1, "letters": {"a": [[{"monomial": [1], "coeff": "1"}]]}}
    ws = reports.word_system_from_json(sysdoc)
    assert ws.alphabet == "a" and ws.dim == 1
    with pytest.raises(ValueError):
        reports.word_system_from_json(
            {"dim": 1, "letters": {"ab": [[{"monomial": [1], "coeff": "1"}]]}}
        )
    coldoc = {
        "dim": 1,
        "f": [[{"monomial": [0, 1], "coeff": "1"}]],
        "g": [[{"monomial": [1, 0], "coeff": "-1"}]],
    }
    cs = reports.coloured_system_from_json(coldoc)
    assert cs.dim == 1
    assert cs.f.evaluate((2, 5)) == (5,)
    assert cs.g.evaluate((2, 5)) == (-2,)


def test_render_report_is_canonical():
    a = reports.render_report({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = reports.render_report({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith(b"\n")
    assert b'"a": [' in a


def test_series_csv_layout():
    rows = [{"order": 1, "increment": 0.5, "partial": [1.5]},
            {"order": 2, "increment": 0.25, "partial": [1.75, 2.0]}]
    args = cli.build_parser().parse_args(["wordseries", "--system", "s.json", "--x", "1",
                                          "--csv", "rows.csv"])
    path, data = cli._side_file(args, {"rows": rows})
    assert path == "rows.csv"
    lines = data.decode().splitlines()
    assert lines[0] == "order,increment,partial_value"
    assert lines[1] == "1,0.5,1.5"
    assert lines[2] == "2,0.25,1.75;2.0"


def test_load_schema_known_and_unknown():
    doc = reports.load_schema("report-enumerate")
    assert doc["properties"]["subcommand"]["const"] == "enumerate"
    with pytest.raises(FileNotFoundError):
        reports.load_schema("report-nope")


def _schemas(prefix):
    folder = Path(reports.__file__).parent / "schemas"
    names = [p.name[:-len(".schema.json")] for p in folder.glob(f"{prefix}*.schema.json")]
    return {name: reports.load_schema(name) for name in sorted(names)}


def _titled(node):
    """Every schema object with a title, at any depth."""
    if isinstance(node, dict):
        if isinstance(node.get("title"), str):
            yield node
        for v in node.values():
            yield from _titled(v)
    elif isinstance(node, list):
        for v in node:
            yield from _titled(v)


def test_embedded_file_schemas_equal_their_files():
    files = {doc["title"]: doc for doc in _schemas("file-").values()}
    embedded = []
    for name, doc in _schemas("report-").items():
        for node in _titled(doc):
            if node["title"] in files:
                assert node == files[node["title"]], (name, node["title"])
                embedded.append((name, node["title"]))
    assert sorted(embedded) == [("report-char", "Character file"),
                                ("report-evolve", "Character file"),
                                ("report-evolve", "Time-polynomial curve file")]


def test_cli_enumerate_stdout(capsys, ck):
    assert _run("enumerate", "--hopf", "ck", "--max-degree", "5") == 0
    env = _loads(capsys.readouterr().out)
    _validated(env, "report-enumerate")
    assert env["tool"] == "hopfchar" and env["status"] == "pass"
    basis = [row["basis"] for row in env["report"]["table"]]
    assert basis == [len(ck.basis(n)) for n in range(1, 6)]


def test_cli_axioms_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    for out in (out1, out2):
        assert _run("axioms", "--hopf", "fdb-x", "--max-degree", "5",
                    "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    env = _validated(out1, "report-axioms")
    assert env["status"] == "pass"
    assert env["report"]["violations"] == []


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # monomials hash by identity and strings by a seeded hash, so a report
    # that followed hash order would differ between these processes
    jobs = {"axioms": ["axioms", "--hopf", "ck2", "--max-degree", "4"],
            "control": ["control-check", "--hopf", "ck", "--family", "pow",
                        "--k1", "1", "--k2", "2", "--max-degree", "6"]}
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports_by_seed = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = {}
        for name, argv in jobs.items():
            path = tmp_path / f"{name}-{seed}.json"
            proc = subprocess.run([sys.executable, "-m", "hopfchar.cli", *argv,
                                   "--out", str(path)], env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            out[name] = path.read_bytes()
        reports_by_seed.append(out)
    assert reports_by_seed[0] == reports_by_seed[1]


def test_cli_safety_limit_and_env_override(tmp_path, monkeypatch, capsys):
    assert _run("axioms", "--hopf", "ck", "--max-degree", "13") == 2
    assert "safety limit" in capsys.readouterr().err
    # the limit is fixed: the variable that once replaced it changes nothing
    monkeypatch.setenv("HOPFCHAR_MAX_DEGREE", "20")
    out = tmp_path / "deep.json"
    assert _run("axioms", "--hopf", "ck", "--max-degree", "13",
                "--out", str(out)) == 2
    assert "safety limit 12" in capsys.readouterr().err
    assert not out.exists()


def test_cli_control_check_with_csv(tmp_path):
    out, csv_path = tmp_path / "cc.json", tmp_path / "cc.csv"
    code = _run("control-check", "--hopf", "fdb-a", "--family", "pow",
                "--k1", "1", "--k2", "2", "--max-degree", "6",
                "--csv", str(csv_path), "--out", str(out))
    assert code == 0
    env = _validated(out, "report-control-check")
    assert env["report"]["verdict"] == "bounded"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "degree,element,norm,weight,ratio"
    assert len(lines) == 7


def test_cli_control_check_exit_codes(capsys):
    assert _run("control-check", "--hopf", "fdb-a", "--family", "pow",
                "--k1", "3", "--k2", "2", "--max-degree", "4") == 2
    assert "k2" in capsys.readouterr().err
    # late maximum: only an inconclusive verdict is honest
    assert _run("control-check", "--hopf", "fdb-a", "--family", "pow",
                "--k1", "1", "--k2", "2", "--map", "antipode",
                "--max-degree", "4") == 1


def test_cli_rlb_and_right_handed(tmp_path):
    out = tmp_path / "rlb.json"
    assert _run("rlb-check", "--hopf", "ck", "--max-degree", "8",
                "--out", str(out)) == 0
    env = _validated(out, "report-rlb-check")
    assert env["report"]["a_hat"] == 1 and env["report"]["verdict"] == "linear"
    out2 = tmp_path / "rh.json"
    assert _run("right-handed", "--hopf", "shuffle:ab", "--max-degree", "5",
                "--out", str(out2)) == 0
    env2 = _validated(out2, "report-right-handed")
    assert env2["report"]["generator_slot"] == "neither"


def test_cli_evolve_emit_and_at(tmp_path, binomial):
    eta_path = tmp_path / "eta.json"
    eta_path.write_text(json.dumps({
        "hopf": "binomial", "N": 4, "kind": "inf-curve",
        "values": [{"generator": "X", "coeffs": ["1"]}],
    }))
    out, emitted = tmp_path / "ev.json", tmp_path / "gamma.json"
    code = _run("evolve", "--hopf", "binomial", "--max-degree", "4",
                "--eta", str(eta_path), "--emit", str(emitted),
                "--at", "1/2", "--out", str(out))
    assert code == 0
    env = _validated(out, "report-evolve")
    at = env["report"]["at"]
    assert at["character"]["values"][0] == {"generator": "X", "value": "1/2"}
    curve = reports.curve_from_json(_validated(emitted, "file-curve"), binomial)
    assert curve.kind == "char"
    X = curve.hopf.generators(1)[0]
    assert curve.poly(X) == TimePoly((0, 1))
    # the curve file caps the solvable degree
    assert _run("evolve", "--hopf", "binomial", "--max-degree", "6",
                "--eta", str(eta_path)) == 2


def test_cli_char_pipeline(tmp_path, ck):
    vals = seeded_rational_values(ck, 3, random.Random(53))
    eta_doc = reports.character_to_json(TruncatedInfChar(ck, 3, RATIONAL, vals))
    eta_path = tmp_path / "eta.json"
    eta_path.write_text(json.dumps(eta_doc))

    phi_path = tmp_path / "phi.json"
    assert _run("char", "exp", "--a", str(eta_path), "--emit", str(phi_path),
                "--out", str(tmp_path / "exp.json")) == 0
    _validated(tmp_path / "exp.json", "report-char")
    _validated(phi_path, "file-character")

    back_path = tmp_path / "back.json"
    assert _run("char", "log", "--a", str(phi_path), "--emit", str(back_path)) == 0
    back = reports.character_from_json(_read(back_path))
    assert all(back.evaluate(g) == Fraction(v) for g, v in vals.items())

    inv_path = tmp_path / "inv.json"
    assert _run("char", "inv", "--a", str(phi_path), "--emit", str(inv_path)) == 0
    conv_path = tmp_path / "conv.json"
    assert _run("char", "conv", "--a", str(phi_path), "--b", str(inv_path),
                "--emit", str(conv_path)) == 0
    unit = reports.character_from_json(_read(conv_path))
    assert all(unit.evaluate(g) == 0 for g in ck.generators_upto(3))

    assert _run("char", "norm", "--a", str(conv_path), "--family", "pow",
                "--k", "1", "--out", str(tmp_path / "n.json")) == 0
    assert _read(tmp_path / "n.json")["report"]["value"] == "0"


# a character file value that is not a finite float, as raw JSON text
NON_FINITE_VALUES = {"float NaN": ("float", "NaN"),
                     "float 1e400": ("float", "1e400"),
                     "float string inf": ("float", '"inf"'),
                     "dual part NaN": ("dual", '["1", NaN]'),
                     "dual part 1e400": ("dual", '[1e400, "0"]')}


@pytest.mark.parametrize("case", sorted(NON_FINITE_VALUES))
def test_cli_char_refuses_a_non_finite_value(tmp_path, capsys, case):
    B, value = NON_FINITE_VALUES[case]
    path, out = tmp_path / "eta.json", tmp_path / "exp.json"
    path.write_text('{"hopf": "binomial", "N": 2, "B": "%s", "kind": "inf", '
                    '"values": [{"generator": "X", "value": %s}]}' % (B, value))
    assert _run("char", "exp", "--a", str(path), "--out", str(out)) == 2
    assert f"bad input file {path}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_cli_char_refuses_a_result_that_overflows(tmp_path, capsys):
    # exp of 1e200 on the node is 1e400 / 2 on the ladder, which no float holds
    path, out, emit = tmp_path / "eta.json", tmp_path / "exp.json", tmp_path / "phi.json"
    path.write_text(json.dumps({"hopf": "ck", "N": 2, "B": "float", "kind": "inf",
                                "values": [{"generator": "B", "value": 1e200}]}))
    assert _run("char", "exp", "--a", str(path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write the result as JSON")
    assert captured.out == "" and not out.exists()
    assert _run("char", "exp", "--a", str(path), "--emit", str(emit)) == 2
    assert "cannot write the result as JSON" in capsys.readouterr().err
    assert not emit.exists()


def test_cli_char_lets_an_error_while_computing_through(tmp_path, monkeypatch):
    # only reading inputs is exit 2; a fault in the calculus is not bad input
    def broken(eta):
        raise ValueError("fault inside exp")

    monkeypatch.setattr(cli, "exp_infchar", broken)
    paths = _inputs(tmp_path, None)
    with pytest.raises(ValueError, match="fault inside exp"):
        _run("char", "exp", "--a", paths["inf"])


# a second conv input that does not match the first -> the error it must print
CONV_MISMATCHES = {
    "instance": ({"hopf": "ck2"}, "instances differ: ck vs ck2"),
    "truncation": ({"N": 2}, "truncations differ: 3 vs 2"),
    "target": ({"B": "float"}, "target algebras differ"),
}


@pytest.mark.parametrize("case", sorted(CONV_MISMATCHES))
def test_cli_conv_refuses_mismatched_characters(tmp_path, capsys, case):
    change, message = CONV_MISMATCHES[case]
    paths = _inputs(tmp_path, dict(GOOD_INPUTS["ck"], **change))
    out = tmp_path / "conv.json"
    assert _run("char", "conv", "--a", paths["ck"], "--b", paths["bad"],
                "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_char_norm_depends_only_on_the_values(tmp_path):
    # an absent generator value and one stored as "0" are the same character
    values = {"absent": [],
              "stored": [{"generator": "B", "value": "0"}, {"generator": "[B]", "value": "0"}]}
    got = {}
    for name, vals in values.items():
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-norm.json"
        path.write_text(json.dumps({"hopf": "ck", "N": 2, "B": "rational", "kind": "char",
                                    "values": vals}))
        assert _run("char", "norm", "--a", str(path), "--out", str(out)) == 0
        got[name] = _read(out)["report"]["value"]
    assert got["absent"] == got["stored"] == "0"


def test_cli_char_config_records_norm_options_for_norm_only(tmp_path):
    # norm applies and records its defaults; the other ops read no norm option
    paths = _inputs(tmp_path, None)
    out = tmp_path / "out.json"
    assert _run("char", "norm", "--a", paths["ck"], "--out", str(out)) == 0
    config = _read(out)["config"]
    assert {option: config[option] for option in ("family", "k", "over")} == {
        "family": "pow", "k": 1, "over": "generators"}
    assert _run("char", "inv", "--a", paths["ck"], "--out", str(out)) == 0
    assert _read(out)["config"] == {"a": paths["ck"], "op": "inv"}


def test_cli_char_kind_mismatch(tmp_path, ck, capsys):
    phi_doc = reports.character_to_json(
        TruncatedCharacter(ck, 2, RATIONAL, {ck.generator_from_text("B"): 1})
    )
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(phi_doc))
    assert _run("char", "exp", "--a", str(p)) == 2
    assert "inf" in capsys.readouterr().err


def test_cli_char_refuses_file_past_safety_limit(tmp_path, monkeypatch, capsys):
    deep = {"hopf": "binomial", "N": 65, "B": "rational", "kind": "inf",
            "values": [{"generator": "X", "value": "1"}]}
    shallow = dict(deep, N=2, kind="char")
    a, b = tmp_path / "deep.json", tmp_path / "shallow.json"
    a.write_text(json.dumps(deep))
    b.write_text(json.dumps(shallow))
    assert _run("char", "exp", "--a", str(a)) == 2
    assert "safety limit 64" in capsys.readouterr().err
    assert _run("char", "conv", "--a", str(b), "--b", str(a)) == 2
    assert "safety limit 64" in capsys.readouterr().err
    monkeypatch.setenv("HOPFCHAR_MAX_DEGREE", "65")
    assert _run("char", "exp", "--a", str(a), "--out", str(tmp_path / "e.json")) == 2
    assert "safety limit 64" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


def test_cli_bseries_exponential(tmp_path):
    field_path = tmp_path / "f.json"
    field_path.write_text(json.dumps(FIELD_LINEAR))
    out, csv_path = tmp_path / "bs.json", tmp_path / "bs.csv"
    assert _run("bseries", "--field", str(field_path), "--coeffs", "exact-flow",
                "--y", "1", "--h", "1/2", "--max-order", "8",
                "--csv", str(csv_path), "--out", str(out)) == 0
    env = _validated(out, "report-bseries")
    assert abs(env["report"]["final"][0] - exp(0.5)) < 1e-6
    assert len(env["report"]["rows"]) == 8
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "order,increment,partial_value"
    assert len(lines) == 9


def test_cli_bseries_character_coefficients(tmp_path, ck):
    field_path = tmp_path / "f.json"
    field_path.write_text(json.dumps(FIELD_SQUARE))
    # the counit gives zero tree coefficients: the series stays at y0
    eps_doc = reports.character_to_json(
        TruncatedCharacter(ck, 4, RATIONAL, {})
    )
    eps_path = tmp_path / "eps.json"
    eps_path.write_text(json.dumps(eps_doc))
    out = tmp_path / "bs.json"
    assert _run("bseries", "--field", str(field_path), "--coeffs", str(eps_path),
                "--y", "2/3", "--h", "1", "--max-order", "4",
                "--out", str(out)) == 0
    env = _read(out)
    assert env["report"]["final"] == [pytest.approx(2 / 3)]
    assert all(r["increment"] == 0 for r in env["report"]["rows"])


PENDULUM = {"dim": 1,
            "f": [[{"monomial": [0, 1], "coeff": "1"}, {"monomial": [0, 3], "coeff": "-1/6"}]],
            "g": [[{"monomial": [1, 0], "coeff": "-1"}]]}


@pytest.mark.parametrize("colours", [1, 2])
def test_cli_tree_series_coefficient_file_matches_exact_flow(tmp_path, ck, ck2, colours):
    # the exact-flow coefficients written as a ck (ck2) character file give
    # the same rows and finals as --coeffs exact-flow
    H, N = (ck, ck2)[colours - 1], 6
    values = {H.tree_monomial(t): v for t, v in exact_flow_character(N, colours).items()}
    coeffs = tmp_path / "a.json"
    coeffs.write_text(json.dumps(reports.character_to_json(
        TruncatedCharacter(H, N, RATIONAL, values))))
    inputs = tmp_path / "inputs.json"
    if colours == 1:
        inputs.write_text(json.dumps(FIELD_SQUARE))
        argv = ["bseries", "--field", str(inputs), "--y", "2/3"]
        finals = ["final"]
    else:
        inputs.write_text(json.dumps(PENDULUM))
        argv = ["pseries", "--system", str(inputs), "--p", "1", "--q", "1/2"]
        finals = ["final_p", "final_q"]
    got = []
    for i, source in enumerate(("exact-flow", str(coeffs))):
        out = tmp_path / f"{i}.json"
        assert _run(*argv, "--coeffs", source, "--h", "1/3", "--max-order", str(N),
                    "--out", str(out)) == 0
        got.append(_validated(out, f"report-{argv[0]}")["report"])
    flow, filed = got
    assert all(r["increment"] for r in filed["rows"])
    assert filed["rows"] == flow["rows"]
    assert [filed[k] for k in finals] == [flow[k] for k in finals]


def test_cli_pseries_rotation(tmp_path):
    sys_path = tmp_path / "rot.json"
    sys_path.write_text(json.dumps({
        "dim": 1,
        "f": [[{"monomial": [0, 1], "coeff": "1"}]],
        "g": [[{"monomial": [1, 0], "coeff": "-1"}]],
    }))
    out = tmp_path / "ps.json"
    assert _run("pseries", "--system", str(sys_path), "--coeffs", "exact-flow",
                "--p", "1", "--q", "0", "--h", "1/3", "--max-order", "8",
                "--out", str(out)) == 0
    env = _validated(out, "report-pseries")
    assert abs(env["report"]["final_p"][0] - cos(1 / 3)) < 1e-8


def test_cli_wordseries_exponential_two_ways(tmp_path):
    sys_path = tmp_path / "ws.json"
    sys_path.write_text(json.dumps(
        {"dim": 1, "letters": {"a": [[{"monomial": [1], "coeff": "1"}]]}}
    ))
    out1 = tmp_path / "w1.json"
    assert _run("wordseries", "--system", str(sys_path), "--coeffs", "exp-single",
                "--x", "1", "--max-length", "8", "--out", str(out1)) == 0
    env1 = _validated(out1, "report-wordseries")
    assert abs(env1["report"]["final"][0] - e) < 1e-4

    phi_doc = {"hopf": "shuffle:a", "N": 8, "B": "rational", "kind": "char",
               "values": [{"generator": "a", "value": "1"}]}
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(phi_doc))
    out2 = tmp_path / "w2.json"
    assert _run("wordseries", "--system", str(sys_path), "--coeffs", str(phi_path),
                "--x", "1", "--max-length", "8", "--out", str(out2)) == 0
    assert _read(out2)["report"]["final"] == env1["report"]["final"]


def test_cli_wordseries_alphabet_guard(tmp_path, capsys):
    sys_path = tmp_path / "ws2.json"
    sys_path.write_text(json.dumps({"dim": 1, "letters": {
        "a": [[{"monomial": [1], "coeff": "1"}]],
        "b": [[{"monomial": [1], "coeff": "2"}]],
    }}))
    assert _run("wordseries", "--system", str(sys_path), "--coeffs", "exp-single",
                "--x", "1") == 2
    assert "one-letter" in capsys.readouterr().err


def test_cli_counterexample(tmp_path):
    out = tmp_path / "cx.json"
    assert _run("counterexample", "--out", str(out)) == 0
    env = _validated(out, "report-counterexample")
    assert env["report"]["square_at_X"] == pytest.approx(1.8)


def test_cli_growth_check_exit_codes(tmp_path):
    out = tmp_path / "g.json"
    assert _run("growth-check", "--family", "pow", "--out", str(out)) == 0
    env = _validated(out, "report-growth-check")
    assert env["status"] == "pass"
    out2 = tmp_path / "g2.json"
    assert _run("growth-check", "--family", "anti", "--out", str(out2)) == 1
    env2 = _validated(out2, "report-growth-check")
    assert env2["status"] == "fail"
    w3 = next(a for a in env2["report"]["axioms"] if a["axiom"] == "W3")
    assert w3["status"] == "fail"


def test_cli_bad_inputs(tmp_path, capsys):
    assert _run("enumerate", "--hopf", "nope") == 2
    assert "unknown instance" in capsys.readouterr().err
    assert _run("enumerate", "--hopf", "shuffle:1a") == 2
    captured = capsys.readouterr()
    assert "'1' is the empty word's text and cannot be a letter" in captured.err
    assert captured.out == ""
    field_path = tmp_path / "f.json"
    field_path.write_text(json.dumps(FIELD_LINEAR))
    assert _run("bseries", "--field", str(field_path), "--coeffs", "exact-flow",
                "--y", "x") == 2
    assert _run("bseries", "--field", str(tmp_path / "missing.json"),
                "--coeffs", "exact-flow", "--y", "1") == 2


def test_cli_bseries_refuses_negative_order(tmp_path, capsys):
    field_path = tmp_path / "f.json"
    field_path.write_text(json.dumps(FIELD_LINEAR))
    out = tmp_path / "bs.json"
    assert _run("bseries", "--field", str(field_path), "--y", "1",
                "--max-order", "-3", "--out", str(out)) == 2
    assert "max order must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_pseries_refuses_negative_order(tmp_path, capsys):
    sys_path = tmp_path / "rot.json"
    sys_path.write_text(json.dumps({
        "dim": 1,
        "f": [[{"monomial": [0, 1], "coeff": "1"}]],
        "g": [[{"monomial": [1, 0], "coeff": "-1"}]],
    }))
    out = tmp_path / "ps.json"
    assert _run("pseries", "--system", str(sys_path), "--p", "1", "--q", "0",
                "--max-order", "-3", "--out", str(out)) == 2
    assert "max order must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_wordseries_refuses_negative_length(tmp_path, capsys):
    sys_path = tmp_path / "ws.json"
    sys_path.write_text(json.dumps(
        {"dim": 1, "letters": {"a": [[{"monomial": [1], "coeff": "1"}]]}}
    ))
    out = tmp_path / "w.json"
    assert _run("wordseries", "--system", str(sys_path), "--x", "1",
                "--max-length", "-2", "--out", str(out)) == 2
    assert "max length must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_wordseries_refuses_length_above_coefficient_truncation(tmp_path, capsys,
                                                                    monkeypatch):
    sys_path = tmp_path / "ws.json"
    sys_path.write_text(json.dumps(
        {"dim": 1, "letters": {"a": [[{"monomial": [1], "coeff": "1"}]]}}
    ))
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps({"hopf": "shuffle:a", "N": 4, "B": "rational",
                                    "kind": "char",
                                    "values": [{"generator": "a", "value": "1"}]}))

    def no_pass(*args):
        raise AssertionError("the word pass ran")

    monkeypatch.setattr(cli, "wordseries_order_terms", no_pass)
    out = tmp_path / "w.json"
    assert _run("wordseries", "--system", str(sys_path), "--coeffs", str(phi_path),
                "--x", "1", "--max-length", "5", "--out", str(out)) == 2
    assert "max length 5 exceeds the coefficient file's truncation N=4" \
        in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- input files

GOOD_INPUTS = {
    "inf": {"hopf": "ck", "N": 3, "B": "rational", "kind": "inf",
            "values": [{"generator": "B", "value": "1"}]},
    "ck": {"hopf": "ck", "N": 3, "B": "rational", "kind": "char", "values": []},
    "ck2": {"hopf": "ck2", "N": 3, "B": "rational", "kind": "char", "values": []},
    "ck6": {"hopf": "ck", "N": 6, "B": "rational", "kind": "char",
            "values": [{"generator": "[[[[[B]]]]]", "value": "1"}]},
    "shuffle": {"hopf": "shuffle:a", "N": 3, "B": "rational", "kind": "char",
                "values": [{"generator": "a", "value": "1"}]},
    "curve": {"hopf": "binomial", "N": 3, "kind": "inf-curve",
              "values": [{"generator": "X", "coeffs": ["1"]}]},
    "field": FIELD_LINEAR,
    "system": PENDULUM,
    "letters": {"dim": 1, "letters": {"a": [[{"monomial": [1], "coeff": "1"}]]}},
}

# file option -> (the good input it reads, that input's payload key, argv)
FILE_OPTIONS = {
    "char --a": ("inf", "values", ["char", "exp", "--a", "{bad}"]),
    "char --b": ("ck", "values", ["char", "conv", "--a", "{ck}", "--b", "{bad}"]),
    "bseries --coeffs": ("ck", "values", ["bseries", "--field", "{field}", "--y", "1",
                                          "--max-order", "3", "--coeffs", "{bad}"]),
    "pseries --coeffs": ("ck2", "values", ["pseries", "--system", "{system}", "--p", "1",
                                           "--q", "0", "--max-order", "3",
                                           "--coeffs", "{bad}"]),
    "wordseries --coeffs": ("shuffle", "values", ["wordseries", "--system", "{letters}",
                                                  "--x", "1", "--max-length", "3",
                                                  "--coeffs", "{bad}"]),
    "evolve --eta": ("curve", "values", ["evolve", "--hopf", "binomial",
                                         "--max-degree", "2", "--eta", "{bad}"]),
    "bseries --field": ("field", "components", ["bseries", "--field", "{bad}",
                                                "--y", "1", "--max-order", "3"]),
    "pseries --system": ("system", "f", ["pseries", "--system", "{bad}", "--p", "1",
                                         "--q", "0", "--max-order", "3"]),
    "wordseries --system": ("letters", "letters", ["wordseries", "--system", "{bad}",
                                                   "--x", "1", "--max-length", "3"]),
}


def _inputs(tmp_path, bad_doc):
    paths = {}
    for name, doc in dict(GOOD_INPUTS, bad=bad_doc).items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return {name: str(p) for name, p in paths.items()}


# series -> (a coefficient file truncated below the order, argv, the message)
TRUNCATED_COEFFS = {
    "bseries": (dict(GOOD_INPUTS["ck"], N=2),
                ["bseries", "--field", "{field}", "--y", "1", "--max-order", "5"],
                "max order 5 exceeds the coefficient file's truncation N=2"),
    "pseries": (dict(GOOD_INPUTS["ck2"], N=1),
                ["pseries", "--system", "{system}", "--p", "1", "--q", "0",
                 "--max-order", "4"],
                "max order 4 exceeds the coefficient file's truncation N=1"),
}


@pytest.mark.parametrize("series", sorted(TRUNCATED_COEFFS))
def test_cli_tree_series_refuse_order_above_coefficient_truncation(tmp_path, capsys,
                                                                   monkeypatch, series):
    # the trees past N have no coefficient in the file; read as 0 they would pass
    doc, argv, message = TRUNCATED_COEFFS[series]

    def no_pass(*args):
        raise AssertionError("the tree pass ran")

    monkeypatch.setattr(cli, "bseries_order_terms", no_pass)
    monkeypatch.setattr(cli, "pseries_order_terms", no_pass)
    paths = _inputs(tmp_path, doc)
    assert _run(*[a.format(**paths) for a in argv], "--coeffs", paths["bad"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# series option -> (a coefficient file of another instance, the instance it needs)
WRONG_INSTANCE_COEFFS = {"bseries --coeffs": ("ck2", "ck"),
                         "pseries --coeffs": ("ck", "ck2"),
                         "wordseries --coeffs": ("ck", "shuffle:a")}


@pytest.mark.parametrize("option", sorted(WRONG_INSTANCE_COEFFS))
def test_cli_series_refuse_a_coefficient_file_of_another_instance(tmp_path, capsys, option):
    wrong, expected = WRONG_INSTANCE_COEFFS[option]
    paths = _inputs(tmp_path, GOOD_INPUTS[wrong])
    assert _run(*[a.format(**paths) for a in FILE_OPTIONS[option][2]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: coefficient file must be a {expected} character\n"
    assert captured.out == ""


# series option -> a dual coefficient file of the instance it needs; a series
# sums plain numbers, so its coefficients are rational or float
DUAL_COEFFS = {"bseries --coeffs": ("ck", "B"), "pseries --coeffs": ("ck2", "B:0"),
               "wordseries --coeffs": ("shuffle", "a")}


@pytest.mark.parametrize("option", sorted(DUAL_COEFFS))
def test_cli_series_refuse_dual_coefficients(tmp_path, capsys, monkeypatch, option):
    good, generator = DUAL_COEFFS[option]
    doc = dict(GOOD_INPUTS[good], B="dual",
               values=[{"generator": generator, "value": ["1", "2"]}])
    for name in ("bseries_order_terms", "pseries_order_terms", "wordseries_order_terms"):
        monkeypatch.setattr(cli, name, _computes_nothing)
    paths = _inputs(tmp_path, doc)
    assert _run(*[a.format(**paths) for a in FILE_OPTIONS[option][2]]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: coefficient file must be rational or float, not dual\n"
    assert captured.out == ""


@pytest.mark.parametrize("defect", ["none", "top-level list", "no payload", "payload 5"])
@pytest.mark.parametrize("option", sorted(FILE_OPTIONS))
def test_cli_malformed_input_files_exit_2(tmp_path, capsys, option, defect):
    good, key, argv = FILE_OPTIONS[option]
    doc = GOOD_INPUTS[good]
    bad = {"none": doc,
           "top-level list": [doc],
           "no payload": {k: v for k, v in doc.items() if k != key},
           "payload 5": dict(doc, **{key: 5})}[defect]
    paths = _inputs(tmp_path, bad)
    out = tmp_path / "out.json"
    code = _run(*[a.format(**paths) for a in argv], "--out", str(out))
    err = capsys.readouterr().err
    if defect == "none":
        assert code == 0, err
        return
    assert code == 2
    assert f"bad input file {paths['bad']}" in err
    assert not out.exists()


def _field(monomial=(1,), coeff="1", dim=1):
    return {"dim": dim, "components": [[{"monomial": list(monomial), "coeff": coeff}]]}


def _char(**changes):
    return dict({"hopf": "binomial", "N": 3, "B": "rational", "kind": "char",
                 "values": [{"generator": "X", "value": "1/2"}]}, **changes)


def _curve(**changes):
    return dict({"hopf": "binomial", "N": 3, "kind": "inf-curve",
                 "values": [{"generator": "X", "coeffs": ["0", "1"]}]}, **changes)


SCHEMA_ARGV = {
    "file-field": ["bseries", "--y", "1", "--max-order", "3", "--field"],
    "file-character": ["char", "norm", "--a"],
    "file-curve": ["evolve", "--hopf", "binomial", "--max-degree", "2", "--eta"],
}

SCHEMA_REJECTED = {
    "negative exponent": ("file-field", _field(monomial=(-1,))),
    "fractional exponent": ("file-field", _field(monomial=(1.5,))),
    "boolean exponent": ("file-field", _field(monomial=(True,))),
    "boolean coefficient": ("file-field", _field(coeff=True)),
    "decimal coefficient": ("file-field", _field(coeff="1.5")),
    "component as an object": ("file-field", {"dim": 1, "components": [{}]}),
    "string dim": ("file-field", _field(dim="1")),
    "boolean value": ("file-character",
                      _char(values=[{"generator": "X", "value": True}])),
    "dual value as a string": ("file-character",
                               _char(B="dual", values=[{"generator": "X", "value": "12"}])),
    "dual value of three parts": ("file-character",
                                  _char(B="dual", values=[{"generator": "X",
                                                           "value": ["1", "2", "3"]}])),
    "unknown character kind": ("file-character", _char(kind="bogus")),
    "string N": ("file-character", _char(N="3")),
    "values as an object": ("file-character", _char(values={})),
    "character without B": ("file-character",
                            {k: v for k, v in _char().items() if k != "B"}),
    "curve without kind": ("file-curve",
                           {k: v for k, v in _curve().items() if k != "kind"}),
    "unknown curve kind": ("file-curve", _curve(kind="bogus-curve")),
    "boolean curve coefficient": ("file-curve",
                                  _curve(values=[{"generator": "X", "coeffs": [True]}])),
    "fractional curve N": ("file-curve", _curve(N=3.5)),
    "exponent-notation curve coefficient": (
        "file-curve", _curve(values=[{"generator": "X", "coeffs": ["0", "1e3"]}])),
    "curve coefficients as a string": (
        "file-curve", _curve(values=[{"generator": "X", "coeffs": "12"}])),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_REJECTED))
def test_decoders_reject_what_the_schemas_reject(tmp_path, capsys, case):
    schema, doc = SCHEMA_REJECTED[case]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, reports.load_schema(schema))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert _run(*SCHEMA_ARGV[schema], str(path)) == 2
    assert f"bad input file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,doc,key", [
    (["char", "norm", "--a"], {k: v for k, v in _char().items() if k != "B"}, "B"),
    (["char", "norm", "--a"], {k: v for k, v in _curve().items() if k != "kind"}, "B"),
    (SCHEMA_ARGV["file-curve"], {k: v for k, v in _curve().items() if k != "kind"}, "kind"),
], ids=["character without B", "curve without kind as a character",
        "curve without kind"])
def test_a_missing_key_is_named(tmp_path, capsys, argv, doc, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert _run(*argv, str(path)) == 2
    assert f"bad input file {path}: missing key {key!r}" in capsys.readouterr().err


# a generator table that breaks the one rule for characters and curves (each
# key a generator of the instance, of degree at most N, listed once) -> the
# file, argv and the error after "bad input file PATH: "
GENERATOR_RULE = {
    "char exp --a, B twice": (
        dict(GOOD_INPUTS["inf"], values=[{"generator": "B", "value": "1"},
                                         {"generator": "B", "value": "2"}]),
        ["char", "exp", "--a", "{bad}"], "generator B is listed twice"),
    "evolve --eta, B twice": (
        {"hopf": "ck", "N": 2, "kind": "inf-curve",
         "values": [{"generator": "B", "coeffs": ["1"]},
                    {"generator": "B", "coeffs": ["2"]}]},
        ["evolve", "--hopf", "ck", "--max-degree", "2", "--eta", "{bad}"],
        "generator B is listed twice"),
    "evolve --eta, [B] past N": (
        {"hopf": "ck", "N": 1, "kind": "inf-curve",
         "values": [{"generator": "[B]", "coeffs": ["1"]}]},
        ["evolve", "--hopf", "ck", "--max-degree", "1", "--eta", "{bad}"],
        "generator [B] exceeds N=1"),
    "wordseries --coeffs, a twice": (
        dict(GOOD_INPUTS["shuffle"], values=[{"generator": "a", "value": "1"},
                                             {"generator": "a", "value": "2"}]),
        FILE_OPTIONS["wordseries --coeffs"][2], "generator a is listed twice"),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_RULE))
def test_cli_one_generator_rule_for_characters_and_curves(tmp_path, capsys, case):
    doc, argv, message = GENERATOR_RULE[case]
    paths = _inputs(tmp_path, doc)
    out = tmp_path / "out.json"
    assert _run(*[a.format(**paths) for a in argv], "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: bad input file {paths['bad']}: {message}\n")
    assert not out.exists()


def test_written_files_pass_schema_and_decoder(tmp_path, binomial):
    X = binomial.generators(1)[0]
    half = Fraction(1, 2)

    def curve_from_json(doc):
        return reports.curve_from_json(doc, binomial)

    written = [
        ("file-character", reports.character_from_json, reports.character_to_json(
            TruncatedCharacter(binomial, 3, RATIONAL, {X: half}))),
        ("file-character", reports.character_from_json, reports.character_to_json(
            TruncatedInfChar(binomial, 3, FLOAT, {X: 0.25}))),
        ("file-character", reports.character_from_json, reports.character_to_json(
            TruncatedCharacter(binomial, 3, DUAL, {X: (half, -3)}))),
        ("file-curve", curve_from_json, reports.curve_to_json(
            TimePolynomialCurve(binomial, 3, {X: TimePoly((0, half))}, "inf"))),
        ("file-curve", curve_from_json, reports.curve_to_json(
            TimePolynomialCurve(binomial, 3, {X: TimePoly((1, half))}, "char"))),
        ("file-field", reports.field_from_json, field_to_json(PolyVectorField([
            Poly(2, {(0, 0): 1, (2, 1): Fraction(-2, 3)}), Poly(2, {(1, 0): 3})]))),
    ]
    for i, (schema, decode, doc) in enumerate(written):
        jsonschema.validate(doc, reports.load_schema(schema))
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc))
        assert cli._load(str(path), decode) is not None
    for i, argv in ((0, SCHEMA_ARGV["file-character"]), (2, SCHEMA_ARGV["file-character"]),
                    (3, SCHEMA_ARGV["file-curve"])):
        assert _run(*argv, str(tmp_path / f"{i}.json"),
                    "--out", str(tmp_path / "out.json")) == 0


def test_cli_evolve_refuses_character_curve(tmp_path, capsys):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(_curve(kind="char-curve")))
    out = tmp_path / "ev.json"
    assert _run(*SCHEMA_ARGV["file-curve"], str(path), "--out", str(out)) == 2
    assert "kind inf-curve" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["enumerate", "--hopf", "ck", "--max-degree", "2", "--out"],
    ["bseries", "--field", "{field}", "--y", "1", "--max-order", "2", "--csv"],
    ["char", "exp", "--a", "{inf}", "--emit"],
    ["control-check", "--hopf", "fdb-a", "--family", "pow", "--k1", "1", "--k2", "2",
     "--max-degree", "2", "--csv"],
    ["evolve", "--hopf", "binomial", "--max-degree", "2", "--eta", "{curve}", "--emit"],
])
def test_cli_unwritable_output_exits_2(tmp_path, capsys, argv):
    paths = _inputs(tmp_path, None)
    target = tmp_path / "no-such-dir" / "out"
    assert _run(*[a.format(**paths) for a in argv], str(target)) == 2
    assert f"cannot write {target}" in capsys.readouterr().err


def test_only_main_writes_a_file():
    # a workflow returns its report; main renders every output, then writes
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    callers = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, set()).add(top.name)
    assert callers["_write"] == {"main"}
    assert callers["open"] == {"_load", "_write"}


def test_main_maps_only_refused_to_exit_2():
    # a rule refuses where it is read; any other error is not bad input
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == ["Refused"]
    assert issubclass(reports.UnwritableError, Refused)
    assert issubclass(Refused, ValueError)


# a series that leaves the float range, from a float coefficient file or from
# exact values past it: series -> (the coefficient file or None, argv)
OVERFLOWING_SERIES = {
    "bseries": ({"hopf": "ck", "N": 3, "B": "float", "kind": "char",
                 "values": [{"generator": g, "value": 1e308}
                            for g in ("B", "[B]", "[B,B]", "[[B]]")]},
                ["bseries", "--field", "{square}", "--y", "1000", "--h", "1",
                 "--max-order", "3", "--coeffs", "{bad}"]),
    "wordseries": ({"hopf": "shuffle:a", "N": 3, "B": "float", "kind": "char",
                    "values": [{"generator": "a", "value": 1e308}]},
                   ["wordseries", "--system", "{letters}", "--x", "1",
                    "--max-length", "3", "--coeffs", "{bad}"]),
    "bseries-exact": (None, ["bseries", "--field", "{unit_square}", "--y", str(10 ** 30),
                             "--h", "1", "--max-order", "11"]),
    "pseries-exact": (None, ["pseries", "--system", "{squares}", "--p", str(10 ** 30),
                             "--q", str(10 ** 30), "--h", "1", "--max-order", "11"]),
    "wordseries-exact": (None, ["wordseries", "--system", "{square_letter}",
                                "--x", str(10 ** 39), "--max-length", "8"]),
}

# y' = 1000 y^2; y' = y^2; p' = q^2 and q' = p^2; the letter a -> x^2
OVERFLOW_INPUTS = {
    "square": {"dim": 1, "components": [[{"monomial": [2], "coeff": "1000"}]]},
    "unit_square": FIELD_SQUARE,
    "squares": {"dim": 1, "f": [[{"monomial": [0, 2], "coeff": "1"}]],
                "g": [[{"monomial": [2, 0], "coeff": "1"}]]},
    "square_letter": {"dim": 1, "letters": {"a": FIELD_SQUARE["components"]}},
}


@pytest.mark.parametrize("series", sorted(OVERFLOWING_SERIES))
def test_cli_series_that_overflows_writes_nothing(tmp_path, capsys, series):
    doc, argv = OVERFLOWING_SERIES[series]
    paths = _inputs(tmp_path, doc)
    for name, input_doc in OVERFLOW_INPUTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(input_doc))
    csv = tmp_path / "rows.csv"
    assert _run(*[a.format(**paths) for a in argv], "--csv", str(csv)) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write the result as JSON")
    assert out == "" and not csv.exists()


@pytest.mark.parametrize("argv, message", [
    (["bseries", "--field", "{field}", "--y", "1", "--max-order", "13"],
     "max order 13 exceeds the safety limit 12 for ck\n"),
    (["pseries", "--system", "{system}", "--p", "1", "--q", "0", "--max-order", "13"],
     "max order 13 exceeds the safety limit 12 for ck2\n"),
    (["wordseries", "--system", "{letters}", "--x", "1", "--max-length", "11"],
     "max length 11 exceeds the safety limit 10 for shuffle:a\n"),
    (["enumerate", "--hopf", "fdb-x", "--max-degree", "15"],
     "max degree 15 exceeds the safety limit 14 for fdb-x\n"),
    (["enumerate", "--hopf", "shuffle:ab", "--max-degree", "-1"],
     "max degree must be nonnegative"),
])
def test_cli_one_range_rule(tmp_path, capsys, argv, message):
    paths = _inputs(tmp_path, None)
    assert _run(*[a.format(**paths) for a in argv]) == 2
    assert message in capsys.readouterr().err


def _computes_nothing(*args, **kwargs):
    raise AssertionError("computed before refusing an option")


# an integer option out of its range -> argv and the error it must print;
# a new integer option's range check gets a row here
OUT_OF_RANGE = {
    "control-check --k1 0": (["control-check", "--hopf", "fdb-a", "--family", "pow",
                              "--k1", "0", "--k2", "2", "--max-degree", "2"],
                             "k1 must be at least 1"),
    "char norm --k 0": (["char", "norm", "--a", "{ck}", "--k", "0"],
                        "k must be at least 1"),
    "growth-check --k-max 0": (["growth-check", "--family", "pow", "--k-max", "0"],
                               "k max must be at least 1"),
    "growth-check --n-max -1": (["growth-check", "--family", "pow", "--n-max", "-1"],
                                "n max must be nonnegative"),
    "growth-check --k2-max 0": (["growth-check", "--family", "pow", "--k2-max", "0"],
                                "k2 max must be at least 1"),
    "growth-check --k-max 13": (["growth-check", "--family", "pow", "--k-max", "13"],
                                "k max 13 exceeds the limit 12"),
    "growth-check --n-max 65": (["growth-check", "--family", "pow", "--n-max", "65"],
                                "n max 65 exceeds the limit 64"),
    "growth-check --k2-max 4097": (["growth-check", "--family", "pow", "--k2-max", "4097"],
                                   "k2 max 4097 exceeds the limit 4096"),
    "control-check --k2 4097": (["control-check", "--hopf", "fdb-a", "--family", "pow",
                                 "--k1", "1", "--k2", "4097", "--max-degree", "2"],
                                "k2 4097 exceeds the limit 4096"),
    # weights of 4,421 and 11,150 digits, past what Python prints as an int
    "control-check pow-nsq --k2 12": (["control-check", "--hopf", "binomial",
                                       "--family", "pow-nsq", "--k1", "1", "--k2", "12",
                                       "--max-degree", "64"],
                                      "pow-nsq weight at k2 12 and degree 64 has 14685 "
                                      "bits, over the limit 14000"),
    "control-check pow-factk --k1 2000": (["control-check", "--hopf", "ck",
                                           "--family", "pow-factk", "--k1", "2000",
                                           "--k2", "2000", "--max-degree", "9"],
                                          "pow-factk weight at k1 2000 and degree 9 has "
                                          "37037 bits, over the limit 14000"),
    # a weight of 2^1200, past what a float holds, so --csv could not print it
    "control-check pow2 --k2 200 --csv": (["control-check", "--hopf", "ck",
                                           "--family", "pow2", "--k1", "1", "--k2", "200",
                                           "--max-degree", "6", "--csv", "{csv}"],
                                          "pow2 weight at k2 200 and degree 6 has 1201 "
                                          "bits, over the limit 740 for --csv"),
    # char norm takes control-check's limits, at the file's degree N = 6
    "char norm pow-factk --k 2000": (["char", "norm", "--a", "{ck6}", "--family",
                                      "pow-factk", "--k", "2000"],
                                     "pow-factk weight at k 2000 and degree 6 has 19050 "
                                     "bits, over the limit 14000"),
    "char norm --k 100000000": (["char", "norm", "--a", "{ck6}", "--k", "100000000"],
                                "k 100000000 exceeds the limit 4096"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_cli_integer_options_below_range_exit_2(tmp_path, capsys, monkeypatch, case):
    argv, message = OUT_OF_RANGE[case]
    for name in ("coproduct_ratio", "antipode_ratio", "linf_norm", "check_all_axioms"):
        monkeypatch.setattr(cli, name, _computes_nothing)
    csv = tmp_path / "out.csv"
    paths = dict(_inputs(tmp_path, None), csv=str(csv))
    assert _run(*[a.format(**paths) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not csv.exists()


# a rational option that is not p or p/q, the rule of the input files -> argv;
# 1e5000 has no decimal text a report can print
NOT_RATIONAL = {
    "bseries --h 1e5000": ["bseries", "--field", "{field}", "--y", "1", "--h", "1e5000"],
    "bseries --y 0.5": ["bseries", "--field", "{field}", "--y", "0.5"],
    "evolve --at 1e5000": ["evolve", "--hopf", "binomial", "--max-degree", "3",
                           "--eta", "{curve}", "--at", "1e5000"],
}


@pytest.mark.parametrize("case", sorted(NOT_RATIONAL))
def test_cli_rational_options_take_p_or_p_over_q(tmp_path, capsys, case):
    out = tmp_path / "report.json"
    paths = _inputs(tmp_path, None)
    assert _run(*[a.format(**paths) for a in NOT_RATIONAL[case]], "--out", str(out)) == 2
    text = case.split()[-1]
    assert capsys.readouterr() == ("", f"error: not a rational number: {text!r}\n")
    assert not out.exists()


# a result with more digits than Python writes as text (4,300) -> argv; each
# file value has 3000 digits, so a product of two has about 6000
LONG = "7" * 3000
TOO_LONG_RESULTS = {
    "char conv": ["char", "conv", "--a", "{long_ck}", "--b", "{long_ck}",
                  "--emit", "{emit}"],
    "char norm --over monomials": ["char", "norm", "--a", "{long_binomial}",
                                   "--over", "monomials"],
    "evolve": ["evolve", "--hopf", "ck", "--max-degree", "2", "--eta", "{long_curve}",
               "--emit", "{emit}"],
    "evolve --at": ["evolve", "--hopf", "ck", "--max-degree", "3", "--eta", "{unit_curve}",
                    "--at", LONG, "--emit", "{emit}"],
}
TOO_LONG_INPUTS = {
    "long_ck": {"hopf": "ck", "N": 2, "B": "rational", "kind": "char",
                "values": [{"generator": "B", "value": LONG}]},
    "long_binomial": {"hopf": "binomial", "N": 2, "B": "rational", "kind": "char",
                      "values": [{"generator": "X", "value": LONG}]},
    "long_curve": {"hopf": "ck", "N": 2, "kind": "inf-curve",
                   "values": [{"generator": "B", "coeffs": [LONG]}]},
    "unit_curve": {"hopf": "ck", "N": 3, "kind": "inf-curve",
                   "values": [{"generator": "B", "coeffs": ["1"]}]},
}


@pytest.mark.parametrize("case", sorted(TOO_LONG_RESULTS))
def test_cli_result_too_long_to_write_exits_2(tmp_path, capsys, case):
    out, emit = tmp_path / "report.json", tmp_path / "emit.json"
    paths = {"emit": str(emit)}
    for name, doc in TOO_LONG_INPUTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    assert _run(*[a.format(**paths) for a in TOO_LONG_RESULTS[case]], "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write the result as JSON")
    assert captured.out == "" and not out.exists() and not emit.exists()


# a char option that its op does not read -> argv and the error; refused before
# any file is read, so --a and --b name a file that does not exist
CHAR_UNREAD_OPTIONS = {
    **{f"{op} --b": (["char", op, "--a", "{missing}", "--b", "{missing}"],
                     f"--b is the second character of conv; {op} takes one")
       for op in ("inv", "exp", "log", "norm")},
    "norm --emit": (["char", "norm", "--a", "{missing}", "--emit", "{emit}"],
                    "norm gives a number, not a character: it has no --emit file"),
    "exp --k": (["char", "exp", "--a", "{missing}", "--k", "2"],
                "--k is an option of norm; exp does not read it"),
    "inv --family": (["char", "inv", "--a", "{missing}", "--family", "pow2"],
                     "--family is an option of norm; inv does not read it"),
    "inv --family pow": (["char", "inv", "--a", "{missing}", "--family", "pow"],
                         "--family is an option of norm; inv does not read it"),
    "conv --over": (["char", "conv", "--a", "{missing}", "--b", "{missing}",
                     "--over", "monomials"],
                    "--over is an option of norm; conv does not read it"),
}


@pytest.mark.parametrize("case", sorted(CHAR_UNREAD_OPTIONS))
def test_cli_char_refuses_an_option_its_op_does_not_read(tmp_path, capsys, case):
    argv, message = CHAR_UNREAD_OPTIONS[case]
    emit = tmp_path / "emit.json"
    paths = {"missing": str(tmp_path / "missing.json"), "emit": str(emit)}
    assert _run(*[a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not emit.exists()


# an input whose parts disagree -> (the bad input file, argv, the message);
# each is refused with exit 2 before the report or its side file is written
ORDER_CSV = ["--max-order", "3", "--csv", "{side}"]
LENGTH_CSV = ["--max-length", "3", "--csv", "{side}"]
INCONSISTENT_INPUTS = {
    "conv without --b": ({}, ["char", "conv", "--a", "{ck}", "--emit", "{side}"],
                         "conv needs --b"),
    "bseries point": ({}, ["bseries", "--field", "{field}", "--y", "1,2", *ORDER_CSV],
                      "initial point has 2 components, field has 1"),
    "pseries point": ({}, ["pseries", "--system", "{system}", "--p", "1", "--q", "0,1",
                           *ORDER_CSV],
                      "p and q must each have dim components"),
    "wordseries point": ({}, ["wordseries", "--system", "{letters}", "--x", "1,2", *LENGTH_CSV],
                         "point has 2 components, fields have 1"),
    "field monomial": (_field(monomial=(1, 0)),
                       ["bseries", "--field", "{bad}", "--y", "1", *ORDER_CSV],
                       "monomial (1, 0) should have 1 exponents"),
    "field components": (_field(monomial=(1, 0), dim=2),
                         ["bseries", "--field", "{bad}", "--y", "1,0", *ORDER_CSV],
                         "component count must equal dim"),
    "coloured blocks": (dict(PENDULUM, f=PENDULUM["f"] * 2),
                        ["pseries", "--system", "{bad}", "--p", "1", "--q", "0", *ORDER_CSV],
                        "each block must have dim components"),
    "letter field": ({"dim": 1, "letters": {"a": GOOD_INPUTS["letters"]["letters"]["a"] * 2}},
                     ["wordseries", "--system", "{bad}", "--x", "1", *LENGTH_CSV],
                     "each letter field must have dim components"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_INPUTS))
def test_cli_refuses_inconsistent_inputs_and_writes_nothing(tmp_path, capsys, case):
    bad_doc, argv, message = INCONSISTENT_INPUTS[case]
    paths = _inputs(tmp_path, bad_doc)
    out, side = tmp_path / "out.json", tmp_path / "side"
    assert _run(*[a.format(**paths, side=side) for a in argv], "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out.exists() and not side.exists()
