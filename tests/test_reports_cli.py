"""File formats, report rendering, and the command-line workflows."""

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
from hopfchar.evolution import TimePoly, TimePolynomialCurve
from hopfchar.fields import Poly, PolyVectorField
from hopfchar.series import exact_flow_character
from oracles import seeded_rational_values


def _run(*argv):
    return cli.main(list(argv))


def _read(path):
    return json.loads(path.read_text())


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


def test_character_json_instance_guard(ck, fdb_a):
    doc = reports.character_to_json(
        TruncatedCharacter(fdb_a, 2, RATIONAL, {fdb_a.gen_monomial(1): 1})
    )
    with pytest.raises(ValueError):
        reports.character_from_json(doc, hopf=ck)


def test_curve_json_round_trip(binomial):
    X = binomial.generators(1)[0]
    curve = TimePolynomialCurve(
        binomial, 3, {X: TimePoly((0, Fraction(1, 2)))}, "inf"
    )
    doc = _validated(reports.curve_to_json(curve), "file-curve")
    assert doc["kind"] == "inf-curve"
    back = reports.curve_from_json(doc)
    assert back.poly(X) == TimePoly((0, Fraction(1, 2)))
    assert back.kind == "inf" and back.N == 3


def test_field_json_round_trip():
    f = PolyVectorField([
        Poly(2, {(1, 0): Fraction(2, 3), (0, 2): -1}),
        Poly(2, {(1, 1): 1, (0, 0): Fraction(1, 7)}),
    ])
    doc = _validated(reports.field_to_json(f), "file-field")
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
    data = reports.series_csv([1, 2], [0.5, 0.25], [[1.5], [1.75, 2.0]])
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
    env = json.loads(capsys.readouterr().out)
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


def test_cli_evolve_emit_and_at(tmp_path):
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
    curve = reports.curve_from_json(_validated(emitted, "file-curve"))
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


def test_written_files_pass_schema_and_decoder(tmp_path, binomial):
    X = binomial.generators(1)[0]
    half = Fraction(1, 2)
    written = [
        ("file-character", reports.character_from_json, reports.character_to_json(
            TruncatedCharacter(binomial, 3, RATIONAL, {X: half}))),
        ("file-character", reports.character_from_json, reports.character_to_json(
            TruncatedInfChar(binomial, 3, FLOAT, {X: 0.25}))),
        ("file-character", reports.character_from_json, reports.character_to_json(
            TruncatedCharacter(binomial, 3, DUAL, {X: (half, -3)}))),
        ("file-curve", reports.curve_from_json, reports.curve_to_json(
            TimePolynomialCurve(binomial, 3, {X: TimePoly((0, half))}, "inf"))),
        ("file-curve", reports.curve_from_json, reports.curve_to_json(
            TimePolynomialCurve(binomial, 3, {X: TimePoly((1, half))}, "char"))),
        ("file-field", reports.field_from_json, reports.field_to_json(PolyVectorField([
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
