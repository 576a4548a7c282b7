"""Command-line surface: grammar, determinism, schema, config, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from thhforge import cli
from thhforge.catalog import SPECTRUM_NAMES

SCHEMA_PATH = os.path.join(os.path.dirname(cli.__file__), "schemas", "result.schema.json")


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "thhforge.cli", *args],
        capture_output=True, text=True, **kw,
    )


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def test_steenrod_rank(capsys):
    assert cli.main(["steenrod", "rank", "--subalgebra", "A2"]) == 0
    assert capsys.readouterr().out.strip() == "64"


def test_steenrod_quotient_total_rank(capsys):
    code = cli.main(
        ["steenrod", "quotient", "--subalgebra", "A2", "--ideal", "Sq1,Sq2Sq3",
         "--total-rank"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "24"


def test_steenrod_basis_degree_zero(capsys):
    assert cli.main(["steenrod", "basis", "--degree", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_steenrod_kernel(capsys):
    code = cli.main(
        ["steenrod", "kernel", "--subalgebra", "A2", "--ideal", "Sq1,Sq2Sq3",
         "--target-ideal", "Sq1,Sq2", "--map", "Sq4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["kernel_rank"] == 17
    assert payload["result"]["cokernel_rank"] == 1


def test_steenrod_pair(capsys):
    assert cli.main(["steenrod", "pair", "--element", "Sq2", "--monomial", "xi1^2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_hh_idempotent_preset(capsys, schema):
    code = cli.main(["hh", "compute", "--preset", "idempotent", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert payload["result"] == {"0,0": 2}


def test_hh_preset_reports_the_asked_bound(capsys):
    # the idempotent algebra lives in degree 0, so the answer through 40 is
    # the degree-0 one; the envelope still names the bound that was asked
    code = cli.main(["hh", "compute", "--preset", "idempotent", "--maxdeg", "40",
                     "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["maxdeg"] == 40
    assert payload["result"] == {"0,0": 2}


def test_hh_squarezero_preset(capsys):
    code = cli.main(["hh", "compute", "--preset", "squarezero", "--maxdeg", "6",
                     "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # two odd generators: first homology has total rank five
    assert sum(v for k, v in payload["result"].items() if k.startswith("1,")) == 5


def test_hh_custom_presentation(tmp_path, capsys, schema):
    pres = {
        "p": 2,
        "max_degree": 10,
        "generators": [{"name": "x", "degree": 2, "kind": "polynomial"}],
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    code = cli.main(["hh", "compute", "--spectrum", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert payload["result"]["1,2"] == 1


def test_hh_spectrum_ignores_the_coaction(tmp_path, capsys):
    pres = {"p": 2, "max_degree": 8,
            "generators": [{"name": "x", "degree": 2, "kind": "polynomial"}],
            "coaction": {"z": [["1", "z"]]}}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    assert cli.main(["hh", "compute", "--spectrum", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["1,2"] == 1


@pytest.mark.parametrize("maxdeg", [[], ["--maxdeg", "28"]])
def test_hh_refuses_a_complex_over_the_chain_budget(capsys, maxdeg):
    # F_2[x] with |x| = 2 has 2^(k-1) reduced words in degree 2k, so the
    # complex passes the chain budget after t = 27 (the default maxdeg is 40)
    assert cli.main(["hh", "compute", "--preset", "polynomial", "--p", "2", *maxdeg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.rstrip().endswith("t = 27 (--maxdeg 27)")


def test_hh_chain_budget_counts_words_up_to_qmax(capsys):
    # unrestricted, two degree-1 letters give 2^t words; qmax = 5 bounds them
    assert cli.main(["hh", "compute", "--preset", "squarezero", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["maxdeg"] == 40


def _write_generators(tmp_path, p, gens, **extra):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"p": p, "max_degree": 8, "generators": gens, **extra}))
    return str(path)


IDEMPOTENT = {"degree": 0, "kind": "truncated", "height": 2, "idempotent": True}


def test_hh_chain_budget_counts_idempotent_letters(tmp_path, capsys):
    # P(x2) (x) E(y1) with two idempotents at p = 3: the reduced degree-0
    # part has dimension 3, and C_q,t for q <= 4 has 484, 2756, 9124 and
    # 22916 chains at t = 0..3, so the budget of 20000 stops at t = 2
    path = _write_generators(tmp_path, 3, [
        {"name": "x", "degree": 2, "kind": "polynomial"},
        {"name": "y", "degree": 1, "kind": "exterior"},
        {"name": "u", **IDEMPOTENT}, {"name": "v", **IDEMPOTENT}])
    assert cli.main(["hh", "compute", "--spectrum", path, "--qmax", "4", "--maxdeg", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.rstrip().endswith("t = 2 (--maxdeg 2)")


def test_hh_refuses_a_square_zero_presentation_with_idempotents(tmp_path, capsys):
    path = _write_generators(tmp_path, 2, [
        {"name": "x", "degree": 1, "kind": "exterior"}, {"name": "u", **IDEMPOTENT}],
        square_zero=True)
    argv = ["hh", "compute", "--spectrum", path, "--qmax", "2", "--maxdeg", "3"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "square-zero" in captured.err


def test_hh_refuses_idempotents_without_qmax(tmp_path, capsys):
    # the Hochschild degree is unbounded over degree-0 content, so the
    # missing --qmax is a usage error, not a failed computation
    path = _write_generators(tmp_path, 2, [
        {"name": "x", "degree": 2, "kind": "polynomial"}, {"name": "u", **IDEMPOTENT}])
    assert cli.main(["hh", "compute", "--spectrum", path, "--maxdeg", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "qmax" in captured.err


def test_hh_qmax_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("qmax = 2\n")
    argv = ["hh", "compute", "--preset", "squarezero", "--maxdeg", "6", "--format", "json"]
    assert cli.main(argv + ["--qmax", "2"]) == 0
    by_flag = capsys.readouterr().out
    assert cli.main(["--config", str(cfg)] + argv) == 0
    assert capsys.readouterr().out == by_flag
    assert json.loads(by_flag)["params"]["qmax"] == 2
    # flags beat the config file
    assert cli.main(["--config", str(cfg)] + argv + ["--qmax", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["qmax"] == 3


def test_bokstedt_run_j_at_the_degree_cap(capsys):
    # the non-flat square-zero factor is counted, not enumerated
    code = cli.main(["bokstedt", "run", "--spectrum", "j", "--p", "2", "--maxdeg", "128",
                     "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["nonflat"] is True


def test_bokstedt_refuses_ju_above_its_materialised_coactions(capsys):
    # the catalog lifts the ju coactions at p = 3 only through xitilde2 and
    # tautilde2; the scan first needs s(tautilde3) at source degree 108
    argv = ["bokstedt", "run", "--spectrum", "ju", "--p", "3", "--format", "json", "--maxdeg"]
    assert cli.main([*argv, "107"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["collapse"]["scanned_to"] == 107
    assert cli.main([*argv, "108"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "s(tautilde3)" in captured.err
    assert captured.err.rstrip().endswith("completes through degree 107")


def test_bokstedt_names_the_generators_without_a_coaction(capsys):
    # ju at p = 3 has abutment generators past xitilde2/tautilde2 whose
    # coactions the catalog does not give; the result lists them by name
    argv = ["bokstedt", "run", "--spectrum", "ju", "--p", "3", "--format", "json", "--maxdeg"]
    missing = {}
    for n in ("50", "51", "96"):
        assert cli.main([*argv, n]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        missing[n] = result.get("coaction_missing")
        assert "coaction_missing" not in result["abutment"]
        names = [g["name"] for g in result["abutment"]["generators"]]
        assert sorted(result["abutment"]["coaction"]) == sorted(set(names) - set(missing[n] or []))
    assert missing == {"50": None, "51": ["xitilde3"], "96": ["xitilde3", "tautilde3"]}


def test_bokstedt_warns_when_the_page_check_is_capped(capsys, monkeypatch, schema):
    argv = ["bokstedt", "run", "--spectrum", "hf", "--p", "3", "--maxdeg", "30",
            "--format", "json"]
    assert cli.main(argv) == 0
    uncapped = json.loads(capsys.readouterr().out)
    assert uncapped["result"]["pages"][1]["verified_to"] == 30
    assert "warnings" not in uncapped["result"]
    # the check builds only the differential's support, whose first 10
    # monomials reach degree 22 of hf at p = 3
    monkeypatch.setattr(cli.bk, "VERIFY_BUDGET", 10)
    assert cli.main(argv) == 0
    capped = json.loads(capsys.readouterr().out)
    jsonschema.validate(capped, schema)
    assert capped["result"]["pages"][1]["verified_to"] == 22
    (warning,) = capped["result"].pop("warnings")
    assert "page r = 3" in warning and "degree 30" in warning and "degree 22" in warning
    # the warning is the only change; the mathematics does not depend on the cap
    capped["result"]["pages"][1]["verified_to"] = 30
    assert capped == uncapped


@pytest.mark.parametrize("maxdeg", [96, 128])
def test_bokstedt_hf3_page_check_reaches_the_asked_degree(capsys, maxdeg):
    # the check ranks d^3 on the differential's support alone, whose
    # monomials stay far under the budget through degree 128
    argv = ["bokstedt", "run", "--spectrum", "hf", "--p", "3", "--maxdeg", str(maxdeg),
            "--format", "json"]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["pages"][1]["verified_to"] == maxdeg
    assert "warnings" not in result


def test_bokstedt_run_deterministic(tmp_path, schema):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert cli.main(
            ["bokstedt", "run", "--spectrum", "ku", "--p", "2", "--maxdeg", "24",
             "--out", str(out)]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    jsonschema.validate(payload, schema)
    assert payload["result"]["collapse"]["method"] == "generator-filtrations"


def test_adams_run_chart(tmp_path, capsys):
    chart = tmp_path / "chart.svg"
    code = cli.main(
        ["adams", "run", "--target", "thh-ku-mod2", "--maxdeg", "20",
         "--chart", str(chart), "--format", "json", "--out", str(tmp_path / "o.json")]
    )
    assert code == 0
    assert chart.read_text().startswith("<svg")
    payload = json.loads((tmp_path / "o.json").read_text())
    table = {row["degree"]: row["generators"] for row in payload["result"]["homotopy"]}
    assert table[3][0]["label"] == "x(1,0)"


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("p = 2\nmaxdeg = 16\nformat = json\n")
    code = cli.main(["--config", str(cfg), "bokstedt", "run", "--spectrum", "hf"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["maxdeg"] == 16
    # flags beat the config file
    code = cli.main(
        ["--config", str(cfg), "bokstedt", "run", "--spectrum", "hf", "--maxdeg", "12"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["params"]["maxdeg"] == 12


@pytest.mark.parametrize("name, p", [("ko", 3), ("tmf", 5), ("j", 3), ("ku", 3), ("nope", 2)])
def test_unsupported_catalog_name_exits_two(capsys, name, p):
    # a name the catalog does not serve at this prime is a bad argument,
    # not a failed computation
    assert cli.main(["bokstedt", "run", "--spectrum", name, "--p", str(p), "--maxdeg", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert name in captured.err


@pytest.mark.parametrize("maxdeg", [128, 129, 300])
@pytest.mark.parametrize("argv", [
    ["bokstedt", "run", "--spectrum", "hf", "--p", "2"],
    ["hh", "compute", "--preset", "exterior", "--p", "3", "--qmax", "2"],
    ["adams", "run", "--target", "thh-ku-mod2"],
])
def test_maxdeg_above_the_degree_cap_is_refused(capsys, argv, maxdeg):
    # a bound past the cap is refused, never quietly lowered to it
    code = cli.main([*argv, "--maxdeg", str(maxdeg), "--format", "json"])
    captured = capsys.readouterr()
    if maxdeg <= cli.HARD_DEGREE_CAP:
        assert code == 0
        assert json.loads(captured.out)["params"]["maxdeg"] == maxdeg
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "128" in captured.err and str(maxdeg) in captured.err


@pytest.mark.parametrize("argv", [
    ["steenrod", "rank", "--subalgebra", "nope"],
    ["steenrod", "basis", "--subalgebra", "A-1", "--degree", "3"],
    ["steenrod", "rank", "--subalgebra", "E"],
    ["steenrod", "quotient", "--subalgebra", "A1", "--ideal", "Sq0"],
    ["steenrod", "quotient", "--subalgebra", "A1", "--ideal", "Sq1,Sqx"],
    ["steenrod", "kernel", "--subalgebra", "A1", "--ideal", "Sq1", "--target-ideal", "Sq0",
     "--map", "Sq1"],
    ["steenrod", "kernel", "--subalgebra", "A1", "--ideal", "Sq1", "--target-ideal", "Sq2",
     "--map", "Sqy"],
    ["steenrod", "pair", "--element", "Sq1", "--monomial", "zeta"],
    ["steenrod", "pair", "--element", "Sqz", "--monomial", "xi1"],
    # elements outside the subalgebra: Sq4 is not in A(1), Sq8 not in A(2), Sq2 not in E(Q0, Q1)
    ["steenrod", "quotient", "--subalgebra", "A1", "--ideal", "Sq4"],
    ["steenrod", "quotient", "--subalgebra", "A2", "--ideal", "Sq1,Sq8"],
    ["steenrod", "quotient", "--subalgebra", "E01", "--ideal", "Sq2"],
    ["steenrod", "kernel", "--subalgebra", "A1", "--ideal", "Sq1", "--target-ideal", "Sq4",
     "--map", "1"],
    ["steenrod", "kernel", "--subalgebra", "A1", "--ideal", "Sq1,Sq2Sq3",
     "--target-ideal", "Sq1,Sq2", "--map", "Sq4"],
])
def test_steenrod_bad_arguments_exit_two(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_steenrod_names_the_element_outside_the_subalgebra(capsys):
    assert cli.main(["steenrod", "quotient", "--subalgebra", "A1", "--ideal", "Sq1,Sq4"]) == 2
    assert capsys.readouterr().err == "error: Sq4 is not in the subalgebra A1\n"


def test_steenrod_kernel_refuses_a_map_that_is_not_well_defined(capsys):
    # Sq2 Sq1 is not in A(1) Sq2, so right multiplication by Sq1 does not
    # descend to A(1)/A(1)Sq2; the quotient is 0 in degree 2, where Sq2 lies
    argv = ["steenrod", "kernel", "--subalgebra", "A1", "--ideal", "Sq2", "--target-ideal", "Sq2",
            "--map", "Sq1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not well defined" in captured.err


def test_bad_args_exit_two():
    proc = run_cli(["steenrod", "basis"])  # missing --degree
    assert proc.returncode == 2


def test_verify_maxdeg_is_a_usage_error(capsys):
    # every criterion runs at its own fixed bound, so a range flag would misreport
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--maxdeg", "10"])
    assert exc.value.code == 2


def test_verify_jobs_and_report(tmp_path, capsys, monkeypatch):
    from thhforge import acceptance

    monkeypatch.setattr(
        cli, "CRITERIA", [acceptance.criterion_1, acceptance.criterion_3]
    )
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    payload = json.loads(report.read_text())
    assert [r["id"] for r in payload["result"]] == ["1", "3"]
    assert all(r["passed"] for r in payload["result"])


def test_verify_jobs_is_a_usage_error(capsys):
    # the criteria are pure Python, so a thread pool only made verify slower
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--jobs", "2"])
    assert exc.value.code == 2


def test_verify_reports_failure_exit(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "CRITERIA",
        [lambda: {"id": "x", "description": "forced failure", "passed": False,
                  "elapsed": 0.0}],
    )
    assert cli.main(["verify"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def _write_presentation(tmp_path, p=3, **gen):
    pres = {"p": p, "max_degree": 8,
            "generators": [{"name": "x", "degree": 2, "kind": "polynomial", **gen}]}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    return str(path)


def test_hh_spectrum_reports_the_file_prime(tmp_path, capsys):
    path = _write_presentation(tmp_path, p=3)
    assert cli.main(["hh", "compute", "--spectrum", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["p"] == 3
    assert cli.main(["hh", "compute", "--spectrum", path, "--p", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["p"] == 3


@pytest.mark.parametrize("via_config", [False, True])
def test_hh_spectrum_refuses_a_disagreeing_prime(tmp_path, capsys, via_config):
    path = _write_presentation(tmp_path, p=3)
    argv = ["hh", "compute", "--spectrum", path]
    if via_config:
        cfg = tmp_path / "cfg"
        cfg.write_text("p = 5\n")
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--p", "2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("via_config", [False, True])
def test_hh_spectrum_refuses_a_maxdeg_above_the_file(tmp_path, capsys, via_config):
    # the bound was once lowered silently to the file's max_degree, exit 0
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"p": 3, "max_degree": 10, "generators": [
        {"name": "y", "degree": 1, "kind": "exterior"}]}))
    path = str(path)
    argv = ["hh", "compute", "--spectrum", path, "--qmax", "2"]
    if via_config:
        cfg = tmp_path / "cfg"
        cfg.write_text("maxdeg = 40\n")
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--maxdeg", "40"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "40" in captured.err and "10" in captured.err
    # the file's own bound, asked for or left implicit, still computes
    for bound in (["--maxdeg", "10"], []):
        assert cli.main(["hh", "compute", "--spectrum", path, "--format", "json"] + bound) == 0
        assert json.loads(capsys.readouterr().out)["params"]["maxdeg"] == 10


@pytest.mark.parametrize(
    "gen",
    [{"kind": "polynomail"}, {"kind": "truncated"}, {"kind": "truncated", "height": 1},
     {"degree": -2}],
)
def test_hh_spectrum_refuses_bad_generators(tmp_path, capsys, gen):
    path = _write_presentation(tmp_path, **gen)
    assert cli.main(["hh", "compute", "--spectrum", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cache_env_and_corruption(tmp_path):
    # THHFORGE_CACHE is not read: a stale basis file (A(2) has two basis
    # elements in degree 5) neither shortens the rank nor gets rewritten,
    # and nothing is added beside it; a fresh process has no memo to hide it
    (tmp_path / "p2_A2_d5.json").write_text('{"degree": 5, "basis": []}')
    listing = sorted((f.name, f.read_text()) for f in tmp_path.iterdir())
    proc = run_cli(["steenrod", "rank", "--subalgebra", "A2"],
                   env={**os.environ, "THHFORGE_CACHE": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "64"
    assert sorted((f.name, f.read_text()) for f in tmp_path.iterdir()) == listing


@pytest.mark.parametrize(
    "argv",
    [["steenrod", "rank", "--subalgebra", "A2"],
     ["bokstedt", "run", "--spectrum", "j", "--p", "2", "--maxdeg", "20"]],
)
def test_thhforge_cache_is_the_one_cache_setting(tmp_path, argv):
    # there is no cache setting at all: a --cache-dir flag is a usage error
    proc = run_cli(["--cache-dir", str(tmp_path / "flag"), *argv])
    assert proc.returncode == 2 and proc.stdout == ""
    assert not (tmp_path / "flag").exists()


@pytest.mark.parametrize(
    "argv",
    [["steenrod", "rank", "--subalgebra", "E9"],
     ["steenrod", "quotient", "--subalgebra", "E9", "--ideal", "Sq1"],
     ["steenrod", "kernel", "--subalgebra", "A4", "--ideal", "Sq1", "--target-ideal", "Sq1",
      "--map", "Sq4"],
     ["steenrod", "basis", "--subalgebra", "A", "--degree", "156"],
     ["steenrod", "quotient", "--subalgebra", "E9", "--ideal", "Sq2"]],  # budget first
)
def test_steenrod_refuses_a_basis_over_the_monomial_budget(capsys, argv):
    # E(Q9) reaches degree 1,023, where the admissible words number about
    # 7.7e9 in all; the monomial budget of 200,000 first runs out in degree 156
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.rstrip().endswith("the largest degree within budget is 155")


def test_steenrod_budget_keeps_what_fits(capsys):
    assert cli.main(["steenrod", "basis", "--subalgebra", "A", "--degree", "155"]) == 0
    assert capsys.readouterr().out.count("\n") == len(cli.st.admissible_monomials(155))
    # a finite subalgebra past its top degree has the empty basis, over budget or not
    assert cli.main(["steenrod", "basis", "--subalgebra", "E9", "--degree", "1024"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["bokstedt", "run", "--spectrum", "hf", "--p", "3", "--maxdeg", "-1"],
        ["hh", "compute", "--preset", "polynomial", "--maxdeg", "-3"],
        ["adams", "run", "--target", "thh-ku-mod2", "--maxdeg", "-1"],
        ["bokstedt", "run", "--spectrum", "ku", "--p", "4", "--maxdeg", "10"],
        ["hh", "compute", "--preset", "polynomial", "--p", "1", "--maxdeg", "4"],
    ],
)
def test_bad_degree_or_prime_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("line", ["maxdeg = -2", "maxdeg = 200", "maxdeg = abc", "format = svg"])
def test_bad_config_value_exits_two(tmp_path, capsys, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["--config", str(cfg), "bokstedt", "run", "--spectrum", "hf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_format_svg_is_refused():
    proc = run_cli(["bokstedt", "run", "--spectrum", "hf", "--maxdeg", "8", "--format", "svg"])
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


_DEGREES = hst.one_of(hst.integers(min_value=-3, max_value=12).map(str),
                      hst.sampled_from(["", "x", "1.5", "-0"]))
_PRIMES = hst.one_of(hst.integers(min_value=-2, max_value=9).map(str), hst.just("p"))


@hst.composite
def _argvs(draw):
    """Small or invalid argument lists for the four computing commands."""
    command = draw(hst.sampled_from(["steenrod", "hh", "bokstedt", "adams"]))
    if command == "steenrod":
        sub = draw(hst.sampled_from(["basis", "rank", "quotient", "kernel"]))
        algebra = draw(hst.sampled_from(["A", "A0", "A1", "A2", "E01", "E012", "E9", "E", "A-1",
                                         "B", ""]))
        if sub == "basis":
            return ["steenrod", "basis", "--subalgebra", algebra, "--degree", draw(_DEGREES)]
        if sub == "rank":
            return ["steenrod", "rank", "--subalgebra", algebra]
        # Sq2 is outside A0 and E01, Sq4 outside A1; over A1, Sq2 -> Sq2 by Sq1 is not
        # well defined
        ideals = hst.sampled_from(["Sq1", "Sq2", "Sq4", "Sq1,Sq2", "Sq2Sq3", "Sq0", "Sq", "Q1",
                                   "x", ""])
        if sub == "quotient":
            return ["steenrod", "quotient", "--subalgebra", algebra, "--ideal", draw(ideals)]
        fmap = draw(hst.sampled_from(["1", "Sq1", "Sq2", "Sq4", "Q1", "Sq0", "x", ""]))
        return ["steenrod", "kernel", "--subalgebra", algebra, "--ideal", draw(ideals),
                "--target-ideal", draw(ideals), "--map", fmap]
    if command == "hh":
        preset = draw(hst.sampled_from([*cli.PRESETS, "nope"]))
        return ["hh", "compute", "--preset", preset, "--p", draw(_PRIMES),
                "--maxdeg", draw(_DEGREES)]
    if command == "bokstedt":
        name = draw(hst.sampled_from([*SPECTRUM_NAMES, "nope"]))
        return ["bokstedt", "run", "--spectrum", name, "--p", draw(_PRIMES),
                "--maxdeg", draw(_DEGREES)]
    target = draw(hst.sampled_from([*cli.ad.TARGETS, "nope"]))
    return ["adams", "run", "--target", target, "--maxdeg", draw(_DEGREES)]


@settings(max_examples=120, deadline=None)
@given(_argvs(), hst.sampled_from(["table", "json"]))
def test_cli_exit_codes(argv, fmt):
    # every input computes (0), fails with a diagnostic (1) or is refused as
    # bad arguments (2); a failure is one error: line, never a traceback
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--format", fmt])
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code:
        text = err.getvalue()
        assert "Traceback" not in text
        assert sum("error:" in line for line in text.splitlines()) == 1, (argv, text)
