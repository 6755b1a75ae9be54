import copy
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlie import checks, cli
from poissonlie.catalog import get_entry
from poissonlie.config import DEFAULT_TOL

RUN = [sys.executable, "-m", "poissonlie.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, cwd=cwd)


def test_catalog_list():
    out = run_cli("catalog", "list")
    assert out.returncode == 0
    assert out.stdout.split() == ["su11", "su21", "su31", "su41"]


def test_verify_pass_exit_zero(tmp_path):
    rep = tmp_path / "report.json"
    out = run_cli("verify", "su11", "--checks", "cocycle,jacobi",
                  "--samples", "50", "--seed", "42", "--out", str(rep))
    assert out.returncode == 0
    doc = json.loads(rep.read_text())
    assert doc["pair"] == "su11"
    assert all(r["pass"] for r in doc["results"])
    assert {r["check"] for r in doc["results"]} == {"cocycle", "jacobi"}
    meta = doc["meta"]
    assert meta["prng"] == "numpy PCG64; per call: all v, all word lengths, all factors"
    assert "expm" in meta["exp_method"]
    assert meta["seed"] == 42
    assert meta["tolerances"]["algebraic"] == 1e-9
    assert any(c["table"] == "r-matrix" for c in doc["conventions"])


def test_verify_corrupt_exit_one(tmp_path):
    rep = tmp_path / "report.json"
    out = run_cli("verify", "su11", "--checks", "cocycle", "--samples", "10",
                  "--corrupt", "eta_b_sign", "--out", str(rep))
    assert out.returncode == 1
    doc = json.loads(rep.read_text())
    assert not doc["results"][0]["pass"]
    assert doc["results"][0]["max_residual"] > 1e-3


def _report_without_timestamp(path: Path) -> str:
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if '"timestamp":' not in line)


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41"])
def test_knobs_leave_no_trace_on_the_cached_entry(name, tmp_path, monkeypatch, capsys):
    # one process: verify clean, under every applicable knob, clean again,
    # then clean on an entry built after the memo is cleared; the clean
    # reports agree byte for byte apart from the timestamp
    from poissonlie import catalog

    path = tmp_path / "r.json"

    def verify(*extra) -> int:
        return cli.main(["verify", name, "--samples", "16", "--out", str(path), *extra])

    assert verify() == 0
    clean = _report_without_timestamp(path)
    entry = get_entry(name)
    for check in checks.REGISTRY.values():
        if check.applies(entry):
            assert verify("--corrupt", check.knob) == 1, check.knob
    assert verify() == 0 and _report_without_timestamp(path) == clean
    monkeypatch.setattr(catalog, "_ENTRIES", {})
    assert verify() == 0 and _report_without_timestamp(path) == clean
    assert get_entry(name) is not entry


def test_text_summary_names_the_failing_sub_criterion(tmp_path, capsys):
    code = cli.main(["verify", "su21", "--checks", "twist", "--corrupt", "twist_scale_2",
                     "--out", str(tmp_path / "r.json")])
    out = capsys.readouterr().out
    assert code == 1
    fail, = [line for line in out.splitlines() if "[FAIL]" in line]
    assert fail.endswith("  at twist_relation")
    code = cli.main(["verify", "su21", "--checks", "twist", "--out", str(tmp_path / "r.json")])
    line, = [line for line in capsys.readouterr().out.splitlines() if "] twist" in line]
    assert line.startswith("  [PASS]") and " at " not in line


def test_unknown_check_exit_64():
    out = run_cli("verify", "su11", "--checks", "bogus")
    assert out.returncode == 64
    assert "unknown check" in out.stderr


def test_unknown_knob_exit_64():
    out = run_cli("verify", "su11", "--checks", "cocycle", "--corrupt", "bogus")
    assert out.returncode == 64


def test_inapplicable_check_exit_64():
    out = run_cli("verify", "su21", "--checks", "semiclassical")
    assert out.returncode == 64
    assert "not applicable" in out.stderr


def test_unknown_pair_exit_64():
    out = run_cli("verify", "nonexistent-pair", "--checks", "jacobi")
    assert out.returncode == 64


def test_import_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("verify", str(bad), "--checks", "jacobi")
    assert out.returncode == 2


def test_export_then_verify_roundtrip(tmp_path):
    exported = tmp_path / "su11.json"
    out = run_cli("catalog", "export", "su11", "--out", str(exported))
    assert out.returncode == 0
    doc = json.loads(exported.read_text())
    assert set(doc) == {"name", "algebra", "b", "c"}
    out = run_cli("verify", str(exported), "--checks", "cocycle,invariance",
                  "--samples", "25", "--out", str(tmp_path / "rep.json"))
    assert out.returncode == 0


def test_entry_checks_rejected_for_imported_pair(tmp_path):
    exported = tmp_path / "su11.json"
    run_cli("catalog", "export", "su11", "--out", str(exported))
    out = run_cli("verify", str(exported), "--checks", "coboundary")
    assert out.returncode == 64


def test_pair_without_realization_restricts_checks(tmp_path):
    exported = tmp_path / "su11.json"
    run_cli("catalog", "export", "su11", "--out", str(exported))
    doc = json.loads(exported.read_text())
    del doc["algebra"]["realization"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    # group-level checks need the realization; structural ones still run
    out = run_cli("verify", str(bare), "--checks", "cocycle")
    assert out.returncode == 64
    out = run_cli("verify", str(bare), "--checks", "jacobi,bialgebra_axioms",
                  "--out", str(tmp_path / "r.json"))
    assert out.returncode == 0
    # default check set is the applicable subset
    out = run_cli("verify", str(bare), "--out", str(tmp_path / "r2.json"))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "r2.json").read_text())
    assert {r["check"] for r in doc["results"]} == {"jacobi", "bialgebra_axioms"}


def test_out_dash_writes_json_to_stdout():
    out = run_cli("verify", "su11", "--checks", "jacobi", "--out", "-")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["results"][0]["check"] == "jacobi"
    assert "PASS" in out.stderr


def test_reports_byte_identical_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        out = run_cli("verify", "su11", "--checks", "cocycle,invariance,delta_consistency",
                      "--samples", "40", "--seed", "123", "--out", str(path))
        assert out.returncode == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    del da["meta"]["timestamp"], db["meta"]["timestamp"]
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_supq1_with_p_flag(tmp_path):
    rep = tmp_path / "rep.json"
    out = run_cli("verify", "supq1", "--p", "2", "--checks", "jacobi",
                  "--out", str(rep))
    assert out.returncode == 0
    assert json.loads(rep.read_text())["pair"] == "supq1(p=2)"
    out = run_cli("verify", "supq1", "--checks", "jacobi")
    assert out.returncode == 64
    out = run_cli("verify", "supq1", "--p", "9", "--checks", "jacobi")
    assert out.returncode == 64
    out = run_cli("verify", "su11", "--p", "2", "--checks", "jacobi")
    assert out.returncode == 64


def test_text_summary_prints_display_notation(tmp_path):
    out = run_cli("verify", "su11", "--checks", "jacobi",
                  "--out", str(tmp_path / "r.json"))
    assert "[y(a), y(2)] = +2 y(2)" in out.stdout
    assert "planar brackets" in out.stdout
    assert "conventions vs published tables" in out.stdout


def test_samples_must_be_positive():
    out = run_cli("verify", "su11", "--checks", "jacobi", "--samples", "0")
    assert out.returncode == 64


def test_tolerance_override_is_live(tmp_path):
    # an absurdly tight tolerance must flip honest rounding into failures; the
    # catalog's structure tables are exact, so the residual is a sampled one
    out = run_cli("verify", "su11", "--checks", "cocycle", "--tol-algebraic", "1e-20",
                  "--out", str(tmp_path / "r.json"))
    assert out.returncode == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["meta"]["tolerances"]["algebraic"] == 1e-20
    assert not doc["results"][0]["pass"]


def _keys(obj):
    """Every dict key at any depth of a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


@pytest.mark.parametrize("tol", ["0", "1e-16"])
def test_tolerance_below_rounding_fails_checks_without_traceback(tol, capsys, tmp_path):
    # residual functions only report; run_check alone judges, so a tolerance
    # below rounding fails checks (exit 1) instead of raising inside one
    path = tmp_path / "r.json"
    code = cli.main(["verify", "su41", "--tol-algebraic", tol, "--out", str(path)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads(path.read_text())
    for r in doc["results"]:
        if not r["max_residual"] <= r["tolerance"]:
            assert r["pass"] is False, r["check"]
        assert "pass" not in set(_keys(r["details"])), r["check"]


@pytest.mark.parametrize("flag", [
    "--seed=-1",
    "--tol-algebraic=nan", "--tol-algebraic=inf", "--tol-algebraic=-inf",
    "--tol-algebraic=-1e-9",
    "--tol-fd=nan", "--tol-fd=inf", "--tol-fd=-inf", "--tol-fd=-1e-6",
])
def test_bad_seed_or_tolerance_exit_64(flag, capsys):
    code = cli.main(["verify", "su11", "--checks", "jacobi", flag, "--out", "-"])
    err = capsys.readouterr().err
    assert code == 64
    assert err.count("\n") == 1 and err.startswith("invalid configuration")


@pytest.mark.parametrize("checks", ["", ",", " , ", "jacobi,jacobi", "jacobi, cocycle,jacobi"])
def test_empty_or_repeated_checks_exit_64(checks, capsys, tmp_path):
    rep = tmp_path / "r.json"
    code = cli.main(["verify", "su11", "--checks", checks, "--out", str(rep)])
    err = capsys.readouterr().err
    assert code == 64
    assert err.count("\n") == 1 and err.startswith("invalid configuration")
    assert not rep.exists()


def test_knob_without_its_target_check_exit_64(capsys, tmp_path):
    """A negative control that corrupts nothing is a usage error, whether its
    target check is left out of --checks or does not apply to the pair."""
    exported = tmp_path / "su11.json"
    assert cli.main(["catalog", "export", "su11", "--out", str(exported)]) == 0
    rep = tmp_path / "r.json"
    for argv in (["su11", "--checks", "jacobi"], [str(exported)]):
        code = cli.main(["verify", *argv, "--corrupt", "twist_scale_2", "--out", str(rep)])
        err = capsys.readouterr().err
        assert code == 64
        assert err.count("\n") == 1 and "'twist'" in err and "Traceback" not in err
        assert not rep.exists()


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that imports
    the package and its command line has no scipy module loaded."""
    probe = ("import sys, poissonlie, poissonlie.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_only_the_checks_that_call_them_load_manin_and_quantize(tmp_path):
    """A fresh interpreter that verifies an exported pair, or runs only the
    sampled checks on a catalog pair, loads neither `manin` nor `quantize`;
    `manin` and `semiclassical` load the one each calls and pass."""
    exported = tmp_path / "su21.json"
    assert cli.main(["catalog", "export", "su21", "--out", str(exported)]) == 0
    probe = ("import sys; from poissonlie import cli; code = cli.main(sys.argv[1:]); "
             "print(code, sorted(m for m in sys.modules "
             "if m in ('poissonlie.manin', 'poissonlie.quantize')))")
    for argv, loaded in (([str(exported)], []),
                         (["su21", "--checks", "invariance,cocycle,delta_consistency"], []),
                         (["su21", "--checks", "manin"], ["poissonlie.manin"]),
                         (["su11", "--checks", "semiclassical"], ["poissonlie.quantize"])):
        out = subprocess.run([sys.executable, "-c", probe, "verify", *argv,
                              "--out", str(tmp_path / "r.json")], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == f"0 {loaded}", (argv, out.stdout)


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41"])
def test_export_is_one_line_of_the_pair_document(name, tmp_path, fresh_catalog):
    """The export is one line of JSON whose document is the pair's own, and
    exporting realizes no dual algebra."""
    path = tmp_path / f"{name}.json"
    assert cli.main(["catalog", "export", name, "--out", str(path)]) == 0
    text = path.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    entry = get_entry(name)
    assert json.loads(text) == json.loads(json.dumps(entry.mp.to_json_dict()))
    assert "gstar" not in vars(entry)


@pytest.mark.parametrize("argv", [
    ["verify", "su11", "--tol-algebraic", "-inf"],   # argparse takes -inf for a flag
    ["verify"],                                      # missing pair
    ["bogus"],                                       # unknown subcommand
])
def test_usage_error_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 64
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "su11", "--checks", "jacobi"],
    ["catalog", "export", "su11"],
])
def test_unwritable_out_exit_64(argv, capsys, tmp_path):
    code = cli.main(argv + ["--out", str(tmp_path / "missing" / "r.json")])
    err = capsys.readouterr().err
    assert code == 64
    assert err.count("\n") == 1 and "cannot write" in err and "Traceback" not in err


def test_internal_error_exit_70(monkeypatch, capsys, tmp_path):
    def broken(*args):
        raise RuntimeError("broken residual")

    monkeypatch.setitem(checks.REGISTRY, "jacobi", replace(checks.REGISTRY["jacobi"], fn=broken))
    code = cli.main(["verify", "su11", "--checks", "jacobi",
                     "--out", str(tmp_path / "r.json")])
    assert code == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: broken residual" in err


def test_nan_realization_import_exit_2(tmp_path, capsys):
    doc = get_entry("su21").mp.to_json_dict()
    doc["algebra"]["realization"][0]["re"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path), "--checks", "jacobi",
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_realization_re_im_shape_mismatch_exit_2(tmp_path, capsys):
    # the first su11 matrix is imaginary, so a 1 x 1 zero real part broadcast
    # against its imaginary part would rebuild the same matrix
    doc = copy.deepcopy(_su11_doc())
    doc["algebra"]["realization"][0]["re"] = [[0.0]]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "differ in shape" in capsys.readouterr().err


def _numbers_as_strings(node):
    """The same JSON with every number written as a string."""
    return json.loads(json.dumps(node), parse_int=str, parse_float=str)


@pytest.mark.parametrize("parts, algebra", [
    ({"b": [0.5]}, {}),                 # a fractional index
    ({"c": [1, 2.9]}, {}),
    ({"b": [-3]}, {}),                  # a negative index
    ({"b": [], "c": [0, 1, 2]}, {}),    # an empty part
    ({}, {"pairing": "FOO"}),           # a pairing other than null, IM_TRACE or RE_TRACE
    # JSON types that numpy would cast: strings, booleans, a string of labels
    ({}, {"labels": "abc"}),
    ({}, {"labels": [1, 2, 3]}),
    ({}, {"labels": ["a", "a", "b"]}),  # labels that are not distinct, or none at all
    ({}, {"labels": []}),
    ({"b": ["0"]}, {}),
    ({"b": [[True, False, False]]}, {}),
    ({"c": [[0, 1, False], [0, 0, 1]]}, {}),  # a boolean among numbers
    ({}, {"structure": _numbers_as_strings}),
    ({}, {"realization": _numbers_as_strings}),
], ids=["fractional-b", "fractional-c", "negative-b", "empty-b", "unknown-pairing",
        "string-labels", "number-labels", "duplicate-labels", "empty-labels", "string-index",
        "boolean-row", "boolean-among-numbers", "string-structure", "string-realization"])
def test_bad_import_index_or_pairing_exit_2(parts, algebra, tmp_path, capsys):
    doc = copy.deepcopy(_su11_doc())
    doc.update({"b": [0], "c": [1, 2]}, **parts)
    for key, value in algebra.items():
        doc["algebra"][key] = value(doc["algebra"][key]) if callable(value) else value
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("name", [[1, 2], 5, None, ""], ids=["list", "int", "null", "empty"])
def test_bad_pair_name_exit_2(name, tmp_path, capsys):
    doc = copy.deepcopy(_su11_doc())
    doc["name"] = name
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path), "--checks", "cocycle", "--samples", "2",
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "name must be a nonempty string" in err
    assert "Traceback" not in err


def test_missing_pair_name_reads_imported(tmp_path):
    doc = copy.deepcopy(_su11_doc())
    del doc["name"]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert cli.main(["verify", str(path), "--checks", "cocycle", "--samples", "2",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"][0]["pair"] == "imported"


def test_non_utf8_pair_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe\x00bad")
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "import error" in err
    assert "Traceback" not in err


def test_nearly_dependent_parts_exit_2(tmp_path, capsys):
    # condition number 2.0e10: within the decomposition's own gate (1e12),
    # beyond the pairing's (1 / ALGEBRAIC_TOL = 1e9)
    doc = copy.deepcopy(_su11_doc())
    doc["c"] = [[0, 1, 0], [0, 1, 1e-10]]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "singular pairing matrix (condition number 2.0" in err
    assert "Traceback" not in err


@cache
def _su11_doc() -> dict:
    return get_entry("su11").mp.to_json_dict()


def _number_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _number_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _number_paths(value, path + (i,))
    elif isinstance(node, (int, float)):
        yield path


#: keys whose loss makes the file unreadable as a matched pair
REQUIRED_KEYS = [("algebra",), ("b",), ("c",), ("algebra", "labels"),
                 ("algebra", "structure"), ("algebra", "realization", 0, "re"),
                 ("algebra", "realization", 2, "im")]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_import_exits_2_or_64(data):
    doc = copy.deepcopy(_su11_doc())
    if data.draw(st.booleans(), label="inject"):
        *parent, last = data.draw(st.sampled_from(sorted(_number_paths(doc), key=str)))
        value = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    else:
        *parent, last = data.draw(st.sampled_from(REQUIRED_KEYS))
        value = None
    node = doc
    for key in parent:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify", str(path), "--checks", "jacobi",
                         "--out", str(Path(tmp) / "r.json")])
    assert code in (2, 64)


# -- one sampled pass per call --------------------------------------------------


def _sampled_rows(pair, checks=None, seed=42, corrupt=None):
    """The `invariance` and `cocycle` rows of an in-process verify."""
    config = cli.RunConfig(pair=pair, checks=checks, samples=40, seed=seed, corrupt=corrupt)
    _, report, _ = cli.run(config)
    return {r["check"]: r for r in report["results"] if r["check"] in ("invariance", "cocycle")}


@pytest.fixture(scope="module")
def imported_su31(tmp_path_factory):
    path = tmp_path_factory.mktemp("pairs") / "su31.json"
    assert cli.main(["catalog", "export", "su31", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("seed", [42, 7919])
@pytest.mark.parametrize("pair", ["su21", "imported su31"])
def test_sampled_rows_do_not_depend_on_the_checks_run(pair, seed, imported_su31):
    # every sampled check reads the call's one draw, so a row from a full
    # verify replays with that check alone, and the order does not matter
    target = imported_su31 if pair == "imported su31" else pair
    full = _sampled_rows(target, seed=seed)
    assert set(full) == {"invariance", "cocycle"}
    for checks in (["cocycle"], ["invariance"], ["cocycle", "invariance"]):
        rows = _sampled_rows(target, checks, seed)
        assert set(rows) == set(checks)
        for name, row in rows.items():
            assert row == full[name], (checks, name)


@pytest.mark.parametrize("knob,other", [("eta_b_sign", "invariance"),
                                        ("invariance_flip_action", "cocycle")])
def test_a_knob_stays_in_its_check_inside_a_shared_block(knob, other):
    clean = _sampled_rows("su21", ["invariance", "cocycle"])
    corrupted = _sampled_rows("su21", ["invariance", "cocycle"], corrupt=knob)
    aim = checks.REGISTRY["invariance" if other == "cocycle" else "cocycle"]
    assert aim.knob == knob and corrupted[aim.name]["pass"] is False
    assert corrupted[other] == clean[other]


# -- the conventions report -----------------------------------------------------


#: table -> the global sign the README documents for it (None: recorded, no sign)
DOCUMENTED_SIGNS = {
    "solvable bracket table": 1.0,
    "cobracket table on the annihilator block": 1.0,
    "r-matrix": 1.0,
    "r-matrix display (matrix units)": 1.0,
    "coadjoint action on the annihilator": 1.0,
    "planar bracket table [J,P1],[J,P2]": -1.0,
    "planar linear coordinate functions": None,
    "dual bracket vs family-3 table": 1.0,
    "quantization conventions": None,
    "involution extension": None,
}

#: the planar rows, reported for the circle pair (p = 1) only
PLANAR_TABLES = {"planar bracket table [J,P1],[J,P2]", "planar linear coordinate functions",
                 "dual bracket vs family-3 table"}


def _conventions(argv, tmp_path) -> list[dict]:
    path = tmp_path / "r.json"
    assert cli.main(["verify", *argv, "--samples", "16", "--out", str(path)]) == 0
    return json.loads(path.read_text())["conventions"]


@pytest.mark.parametrize("argv", [["su11"], ["su21"], ["su31"], ["su41"],
                                  ["supq1", "--p", "5"]], ids=lambda argv: "".join(argv))
def test_conventions_rows_hold_under_their_documented_signs(argv, tmp_path, capsys):
    rows = _conventions([*argv, "--checks", "jacobi"], tmp_path)
    planar = argv == ["su11"]
    assert [row["table"] for row in rows] == [
        table for table in DOCUMENTED_SIGNS if planar or table not in PLANAR_TABLES]
    for row in rows:
        assert row["sign"] == DOCUMENTED_SIGNS[row["table"]], row
        assert row["residual"] <= DEFAULT_TOL.algebraic, row
    # read from the entry's tables alone: neither the seed nor the checks run
    # change a row
    assert _conventions([*argv, "--checks", "jacobi", "--seed", "7919"], tmp_path) == rows
    assert _conventions([*argv, "--seed", "7919"], tmp_path) == rows


@pytest.mark.parametrize("argv", [["su11"], ["su41"], ["supq1", "--p", "5"]],
                         ids=lambda argv: "".join(argv))
def test_a_verify_without_sampled_checks_makes_no_generator(argv, tmp_path, monkeypatch, capsys):
    # the conventions report draws nothing; only a sampled pass makes a generator
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert cli.main(["verify", *argv, "--checks", "jacobi",
                     "--out", str(tmp_path / "r.json")]) == 0
    assert cli.main(["verify", *argv, "--checks", "cocycle",
                     "--out", str(tmp_path / "r.json")]) == 70
