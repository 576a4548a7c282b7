"""Command-line surface: grammar, determinism, schema, config, exit codes."""

from __future__ import annotations

import contextlib
import csv
import errno
import fcntl
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from typing import NamedTuple

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from thhforge import bokstedt as bk
from thhforge import cli
from thhforge.catalog import SPECTRUM_NAMES
from thhforge.gca import AlgebraPresentation, GeneratorSpec
from thhforge.hochschild import closed_form_hh, presentation_dims_internal

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


@pytest.mark.parametrize("element, monomial, value", [
    ("Sq3", "xibar2", "1"), ("Sq2Sq1", "xibar2", "0"), ("Sq2Sq1", "xibar1^3", "1")])
def test_steenrod_pair_with_a_conjugated_monomial(capsys, element, monomial, value):
    # chi(Sq^3) = Sq(3) + Sq(0, 1) pairs to 1 with xibar2, and Sq2Sq1 = Sq(3) + Sq(0, 1)
    # pairs to 1 with xi1^3 = xibar1^3, to 0 with xibar2 = xi2 + xi1^3
    assert cli.main(["steenrod", "pair", "--element", element, "--monomial", monomial]) == 0
    assert capsys.readouterr().out.strip() == value


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


def test_hh_chain_budget_counts_the_factors_built(tmp_path, capsys):
    # the whole complex of P(x2) (x) E(y3) at p = 3 passes the budget after
    # t = 19, but hh compute builds only each generator's own complex, and
    # both fit through t = 24
    gens = [GeneratorSpec("x", 2, "polynomial"), GeneratorSpec("y", 3, "exterior")]
    assert bk._budgeted_bound(AlgebraPresentation(3, gens, 24), 24, bk.CHAIN_BUDGET) == 19
    path = _write_generators(tmp_path, 3, [
        {"name": g.name, "degree": g.degree, "kind": g.kind} for g in gens], max_degree=24)
    argv = ["hh", "compute", "--spectrum", path, "--maxdeg", "24", "--format", "json"]
    assert cli.main(argv) == 0
    closed, _ = closed_form_hh(AlgebraPresentation(3, gens, 48))
    assert json.loads(capsys.readouterr().out)["result"] == {
        f"{q},{t}": v for (q, t), v in presentation_dims_internal(closed, 24).items() if v}


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
    for n in ("50", "51", "52", "96"):
        assert cli.main([*argv, n]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        missing[n] = result.get("coaction_missing")
        assert "coaction_missing" not in result["abutment"]
        names = [g["name"] for g in result["abutment"]["generators"]]
        assert sorted(result["abutment"]["coaction"]) == sorted(set(names) - set(missing[n] or []))
    # xitilde3 lies in degree 52, so the abutment at 51 stops below it
    assert missing == {"50": None, "51": None, "52": ["xitilde3"],
                       "96": ["xitilde3", "tautilde3"]}


def test_bokstedt_refuses_an_over_budget_page_check(capsys, monkeypatch):
    argv = ["bokstedt", "run", "--spectrum", "hf", "--p", "3", "--maxdeg", "30",
            "--format", "json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["pages"][1]["verified_to"] == 30
    # the check builds only the differential's support, whose first 10
    # monomials reach degree 22 of hf at p = 3, so the check is refused
    monkeypatch.setattr(cli.bk, "VERIFY_BUDGET", 10)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "degree 30" in line and "degree 22" in line


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
    ["steenrod", "rank", "--subalgebra", "E(Q0,,Q1)"],
    ["steenrod", "rank", "--subalgebra", "E(Q)"],
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
    # inhomogeneous elements
    ["steenrod", "quotient", "--subalgebra", "A1", "--ideal", "Sq1+Sq2"],
    ["steenrod", "kernel", "--subalgebra", "A1", "--ideal", "Sq1", "--target-ideal", "Sq2",
     "--map", "Sq1+Sq2"],
    # modules over the full algebra, refused before the ideal is expanded
    ["steenrod", "quotient", "--subalgebra", "A", "--ideal", "Sq1"],
    ["steenrod", "kernel", "--subalgebra", "A", "--ideal", "Sq1", "--target-ideal", "Sq1",
     "--map", "Sq1"],
    # what cannot be computed: the rank of A is infinite, and a pairing needs one
    # degree on both sides and no tau at p = 2
    ["steenrod", "rank", "--subalgebra", "A"],
    ["steenrod", "pair", "--element", "Sq2+Sq1", "--monomial", "xi1^2"],
    ["steenrod", "pair", "--element", "Sq2", "--monomial", "xi1"],
    ["steenrod", "pair", "--element", "Sq1", "--monomial", "tau0"],
    # indices are whole numbers: xi-1 was read as the unit, and bare xi or tau
    # was refused with int()'s message
    ["steenrod", "pair", "--element", "1", "--monomial", "xi-1"],
    ["steenrod", "pair", "--element", "Sq1", "--monomial", "xi1 xi-1"],
    ["steenrod", "pair", "--element", "1", "--monomial", "xi"],
    ["steenrod", "pair", "--element", "1", "--monomial", "tau"],
    # exponents are positive whole numbers
    ["steenrod", "pair", "--element", "1", "--monomial", "xi1^-2"],
    ["steenrod", "pair", "--element", "1", "--monomial", "xi2^0"],
    ["steenrod", "pair", "--element", "1", "--monomial", "xi1 xi1^-1"],
    ["steenrod", "pair", "--element", "Sq1", "--monomial", "xi1^x"],
    # tau_k^2 = 0
    ["steenrod", "pair", "--element", "1", "--monomial", "tau0^2"],
    ["steenrod", "pair", "--element", "1", "--monomial", "tau0 tau0"],
])
def test_steenrod_bad_arguments_exit_two(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text, rank", [
    ("E01", 4), ("E(Q0,Q1)", 4), ("E(Q0Q1)", 4), ("EQ1Q0", 4), ("E012", 8), ("e(q0, q1, q2)", 8),
])
def test_exterior_subalgebra_names(capsys, text, rank):
    # Q indices are whole numbers, with or without commas between the Qs; the
    # compact form without Qs takes one digit per index
    assert cli.main(["steenrod", "rank", "--subalgebra", text]) == 0
    assert capsys.readouterr().out == f"{rank}\n"


@pytest.mark.parametrize("argv", [
    ["steenrod", "quotient", "--subalgebra", "A2", "--ideal", "Q8"],
    ["steenrod", "quotient", "--subalgebra", "A2", "--ideal", "Sq1,Q9"],
    ["steenrod", "kernel", "--subalgebra", "A2", "--ideal", "Sq1", "--target-ideal", "Sq1",
     "--map", "Q9"],
])
def test_steenrod_refuses_a_term_above_the_top_degree_before_expanding_it(capsys, argv):
    # Q8 (degree 511) has 72,336 admissible terms and Q9 takes over a minute
    # to expand; A(2) stops at degree 23, so both are refused unexpanded
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and len(captured.err) < 100
    assert captured.err.startswith(f"error: Q{argv[-1][-1]} has a term of degree ")
    assert captured.err.rstrip().endswith("above the top degree 23")


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
        acceptance, "CRITERIA", [acceptance.criterion_1, acceptance.criterion_3]
    )
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    payload = json.loads(report.read_text())
    assert report.read_text() == json.dumps(payload, sort_keys=True, indent=2)  # no final newline
    assert [r["id"] for r in payload["result"]] == ["1", "3"]
    assert all(r["passed"] for r in payload["result"])


def test_verify_jobs_is_a_usage_error(capsys):
    # the criteria are pure Python, so a thread pool only made verify slower
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--jobs", "2"])
    assert exc.value.code == 2


def test_verify_reports_failure_exit(monkeypatch, capsys):
    from thhforge import acceptance

    monkeypatch.setattr(
        acceptance, "CRITERIA",
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


def test_hh_spectrum_refuses_a_presentation_file_whose_p_is_not_prime(tmp_path, capsys):
    path = _write_presentation(tmp_path, p=4)
    assert cli.main(["hh", "compute", "--spectrum", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad presentation file {path}: not a prime: 4\n"


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
     {"degree": -2},
     # not integers or booleans: once tracebacks, or taken as 1 and true
     {"degree": 2.5, "kind": "exterior"}, {"degree": True, "kind": "exterior"},
     {"kind": "truncated", "height": 2.0}, {"idempotent": "no"}, {"idempotent": 1},
     # u^2 = u forces degree 0
     {"idempotent": True}, {"kind": "truncated", "height": 2, "idempotent": True},
     # names are nonempty strings: 5 and "" once computed, ["x"] was refused as unhashable
     {"name": 5}, {"name": ""}, {"name": ["x"]}],
)
def test_hh_spectrum_refuses_bad_generators(tmp_path, capsys, gen):
    path = _write_presentation(tmp_path, **gen)
    # with --qmax the refusal is the file's, never a missing qmax for degree-0 content
    assert cli.main(["hh", "compute", "--spectrum", path, "--qmax", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("p, fields", [
    (3, {"max_degree": -5}), (3, {"max_degree": "12"}), (3, {"max_degree": 12.0}),
    (2.0, {}), (3, {"square_zero": "yes"}), (3, {"square_zero": 1})])
def test_hh_spectrum_refuses_a_malformed_file(tmp_path, capsys, p, fields):
    # these were tracebacks (a negative or non-integer max_degree) or silently
    # accepted: p = 2.0 echoed back, any nonempty string or 1 taken as true
    path = _write_generators(tmp_path, p, [{"name": "x", "degree": 2, "kind": "polynomial"}],
                             **fields)
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
     ["steenrod", "rank", "--subalgebra", "E(Q10)"],
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
        ["hh", "compute", "--preset", "squarezero", "--qmax", "-1"],
    ],
)
def test_bad_degree_or_prime_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("line", ["maxdeg = -2", "maxdeg = 200", "maxdeg = abc", "format = svg",
                                  "qmax = -1", '# as JSON\n{"maxdeg": 10}',
                                  "# as YAML\nmaxdeg: 10"])
def test_bad_config_value_exits_two(tmp_path, capsys, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    # only hh compute reads qmax
    argv = (["hh", "compute", "--preset", "squarezero"] if line.startswith("qmax")
            else ["bokstedt", "run", "--spectrum", "hf"])
    assert cli.main(["--config", str(cfg), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    if line.startswith("#"):  # once skipped: the run took the defaults and exited 0
        assert str(cfg) in err and "line 2" in err


@pytest.mark.parametrize("name", ["missing", "."])
@pytest.mark.parametrize("argv", [["--config", "{}", "bokstedt", "run", "--spectrum", "hf"],
                                  ["hh", "compute", "--spectrum", "{}"]])
def test_unreadable_file_exits_two(tmp_path, capsys, argv, name):
    # a missing file or a directory: a traceback and exit 1 for --config, exit 1
    # for a presentation file; the error names the path once, then the reason
    path = str(tmp_path / name)
    assert cli.main([a.format(path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    reason = os.strerror({"missing": errno.ENOENT, ".": errno.EISDIR}[name])
    assert captured.err.count(path) == 1 and captured.err.endswith(f"{path}: {reason}\n")


def test_format_svg_is_refused():
    proc = run_cli(["bokstedt", "run", "--spectrum", "hf", "--maxdeg", "8", "--format", "svg"])
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_a_reader_that_stops_early_is_no_failure():
    # `thhforge ... | head -1`: the pipe is shrunk to one page where Linux
    # allows it, so the 44 kB of JSON outlast the line read before the close
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "thhforge.cli", "adams", "run", "--target", "thh-ku-mod2",
         "--maxdeg", "128", "--format", "json"],
        stdout=write_end, stderr=subprocess.PIPE, text=True)
    os.close(write_end)
    with os.fdopen(read_end) as reader:
        assert reader.readline() == "{\n"
    assert proc.communicate(timeout=300) == (None, "")
    assert proc.returncode == 0


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
        ideals = hst.sampled_from(["Sq1", "Sq2", "Sq4", "Sq1,Sq2", "Sq2Sq3", "Sq1+Sq2", "Sq0",
                                   "Sq", "Q1", "x", ""])
        if sub == "quotient":
            return ["steenrod", "quotient", "--subalgebra", algebra, "--ideal", draw(ideals)]
        fmap = draw(hst.sampled_from(["1", "Sq1", "Sq2", "Sq4", "Sq1+Sq2", "Q1", "Sq0", "x",
                                      ""]))
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


def _reference_parser():
    """The argparse tree the command table replaced, kept as an oracle for it."""
    import argparse

    ap = argparse.ArgumentParser(prog="thhforge")
    ap.add_argument("--config")
    sub = ap.add_subparsers(dest="command", required=True)

    def leaf(parent, name, *flags, output=True):
        p = parent.add_parser(name)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        if output:
            p.add_argument("--format", choices=cli.FORMATS)
            p.add_argument("--out")

    req = {"required": True}
    ssub = sub.add_parser("steenrod").add_subparsers(dest="steenrod_cmd", required=True)
    leaf(ssub, "basis", ("--subalgebra", {"default": "A"}), ("--degree", {"type": int, **req}))
    leaf(ssub, "rank", ("--subalgebra", req))
    leaf(ssub, "quotient", ("--subalgebra", req), ("--ideal", req),
         ("--total-rank", {"action": "store_true"}))
    leaf(ssub, "kernel", ("--subalgebra", req), ("--ideal", req), ("--target-ideal", req),
         ("--map", req))
    leaf(ssub, "pair", ("--element", req), ("--monomial", req))
    hsub = sub.add_parser("hh").add_subparsers(dest="hh_cmd", required=True)
    leaf(hsub, "compute", ("--preset", {}), ("--spectrum", {}), ("--p", {"type": int}),
         ("--maxdeg", {"type": int}), ("--qmax", {"type": int}))
    bsub = sub.add_parser("bokstedt").add_subparsers(dest="bokstedt_cmd", required=True)
    leaf(bsub, "run", ("--spectrum", req), ("--p", {"type": int}), ("--maxdeg", {"type": int}))
    asub = sub.add_parser("adams").add_subparsers(dest="adams_cmd", required=True)
    leaf(asub, "run", ("--target", {"choices": cli.ad.TARGETS, **req}),
         ("--maxdeg", {"type": int}), ("--chart", {}))
    leaf(sub, "verify", ("--report", {}), output=False)
    return ap


_REFERENCE = _reference_parser()


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "parsed", vars(parse(argv)), ""
        except SystemExit as exc:
            return "exit", exc.code, err.getvalue()


_VALUES = ["hf", "A2", "3", "-3", "-0", "x", "", "-", "-x", "json", "svg", "thh-ko-y", "1.5",
           "-2.5", "a b", "--p", "-h"]


def _slices(flags):
    """Each flag of `flags` as argv slices: exact or a prefix, with its value
    apart or after '=', or without one."""
    out = []
    for flag, (kind, _) in flags.items():
        good = list(kind) if isinstance(kind, tuple) else ["4", "40"] if kind is int else ["A1"]
        for name in sorted({flag, flag[:3], flag[:5]}):
            out.append([name])
            for value in good + _VALUES:
                out += [[name, value], [f"{name}={value}"]]
    return out


_SLICES = {key: hst.sampled_from(_slices(flags)) for key, flags in cli.COMMANDS.items()}
# words before the command: --config, and flags that belong after it
_HEAD = hst.sampled_from(_slices({"--config": (str, None)})
                         + _slices(cli.COMMANDS[("bokstedt", "run")]))
_NOISE = hst.sampled_from([["-h"], ["--he"], ["--bogus"], ["-x"], ["stray"], ["--config", "c"]])


@hst.composite
def _table_argvs(draw):
    """Argvs drawn from the command table, right, wrong or incomplete."""
    key = draw(hst.sampled_from(list(cli.COMMANDS)))
    flags = cli.COMMANDS[key]
    words = [w for w in key if w]
    if draw(hst.integers(0, 9)) == 0:  # a wrong, missing or extra command word
        words = draw(hst.sampled_from([[], words[:1], [*words, "run"], ["nope", *words[1:]],
                                       [words[0], "nope"]]))
    head = draw(hst.lists(hst.one_of(_HEAD, _NOISE), max_size=1))
    body = draw(hst.lists(hst.one_of(_SLICES[key], _SLICES[key], _NOISE), max_size=5))
    if draw(hst.booleans()):  # every required flag first, so that both parsers accept some
        body = [[f, "4" if kind is int else kind[0] if isinstance(kind, tuple) else "A1"]
                for f, (kind, default) in flags.items() if default is ...] + body[:3]
    return [a for part in head for a in part] + words + [a for part in body for a in part]


def _agree(argv):
    # same values on every argv argparse accepts, the same exit code on every
    # other; the table parser's last line is its one `thhforge: error:` line
    ref = _outcome(_REFERENCE.parse_args, argv)
    new = _outcome(cli.parse_args, argv)
    assert new[:2] == ref[:2], argv
    if new[:2] == ("exit", 2):
        assert new[2].splitlines()[-1].startswith("thhforge: error: ")


@settings(max_examples=150, deadline=None)
@given(_table_argvs())
def test_table_parser_agrees_with_argparse(argv):
    _agree(argv)


@pytest.mark.parametrize("line", [
    "bokstedt run --spec hf --max 8", "--co c bokstedt run --spectrum=hf", "--config",
    "bokstedt run --spectrum hf --spectrum ku --format json --format=csv",
    "bokstedt run --spectrum=",
    "bokstedt run --spectrum hf --p -3", "bokstedt run --spectrum hf --p -3.5",
    "bokstedt run --spectrum -x", "bokstedt run --spectrum -", "bokstedt run --spectrum hf -",
    "bokstedt run --spectrum hf --h", "bokstedt run --spectrum hf --total-rank",
    "steenrod quotient --subalgebra A1 --ideal Sq1 --total-rank=x",
    "bokstedt run --spectrum hf --bogus -h", "bokstedt run --spectrum hf ---", "bokstedt",
    "--format json bokstedt run --spectrum hf", "bokstedt run --spectrum hf --config c",
    "bokstedt --spectrum hf run", "steenrod basis --degree ' 3'", "steenrod basis --degree \u0663",
    "steenrod basis", "verify --report", "verify extra", "-h", "steenrod -h",
])
def test_table_parser_agrees_with_argparse_on_edge_cases(line):
    _agree(shlex.split(line))


@pytest.mark.parametrize("line, code", [
    ("bokstedt run --spectrum hf --", 2), ("bokstedt run --spectrum hf -- x", 2),
    ("bokstedt run --spectrum -- hf", 2), ("-- bokstedt run", 2), ("bokstedt -- run", 2),
    ("bokstedt run -- --spectrum hf", 2), ("bokstedt run --spectrum hf -h -- x", 0),
    ("bokstedt run --spectrum hf -hh", 0), ("bokstedt run --spectrum hf -hx", 2),
    ("bokstedt run --help=", 2), ("steenrod quotient --subalgebra A1 --ideal Sq1 --total-rank=", 2),
    ("bokstedt run --=x -h", 2), ("--=x bokstedt run --spectrum hf", 2),
])
def test_table_parser_exit_codes_on_version_dependent_argvs(line, code):
    # argparse's readings of '--', -hh and an empty explicit value moved
    # between Python versions; these are the argparse tree's codes on 3.11.7
    assert _outcome(cli.parse_args, shlex.split(line))[:2] == ("exit", code)


@pytest.mark.parametrize("key", list(cli.COMMANDS))
def test_leaf_help_names_every_flag(key, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([w for w in key if w] + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    words = out.replace("[", " ").replace("]", " ").split()
    assert out.count("\n") == 1 and all(flag in words for flag in cli.COMMANDS[key])


@pytest.mark.parametrize("name, reason", [("missing/o.json", errno.ENOENT), ("", errno.EISDIR)])
@pytest.mark.parametrize("argv", [
    ["bokstedt", "run", "--spectrum", "ku", "--p", "2", "--maxdeg", "24", "--out", "{}"],
    ["adams", "run", "--target", "thh-ku-mod2", "--maxdeg", "20", "--chart", "{}"],
    ["verify", "--report", "{}"],
])
def test_an_unwritable_output_path_is_refused_before_any_computation(
        tmp_path, capsys, monkeypatch, argv, name, reason):
    # a missing directory or a directory: once exit 1 after the whole
    # computation (all 13 criteria for verify)
    from thhforge import acceptance

    def computed(*args):
        raise AssertionError("computed")

    monkeypatch.setattr(acceptance, "CRITERIA", [computed])
    monkeypatch.setattr(cli.bk, "thh_homology", computed)
    monkeypatch.setattr(cli.ad, "run_ss", computed)
    path = str(tmp_path / name)
    listing = sorted(tmp_path.iterdir())
    assert cli.main([a.format(path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: {os.strerror(reason)}\n"
    assert sorted(tmp_path.iterdir()) == listing


class _Counted(dict):
    """A dict whose len counts its truthy values, so json's Python encoder
    writes {} where json's C encoder writes the stored items."""

    def __len__(self):
        return sum(map(bool, self.values()))


class _CountedList(list):
    def __len__(self):
        return sum(map(bool, self))


class _SelfUnequal(float):
    """A float unequal to itself: json's Python encoder, which asks the float,
    writes NaN; json's C encoder, which reads its value, writes the number."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    __hash__ = float.__hash__


class _Pair(NamedTuple):
    first: object
    second: object


_JSON_TEXT = hst.text(alphabet=hst.sampled_from('a"\\/\x00\x1f\n\t\x7fé€\u2028\U0001d11e'),
                      max_size=6)
_JSON_INTS = hst.integers(min_value=-2**70, max_value=2**70)
_SELF_UNEQUAL = hst.floats(allow_nan=False).map(_SelfUnequal)
_JSON_FLOATS = hst.one_of(
    hst.floats(), hst.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    _SELF_UNEQUAL)
_JSON_SCALARS = hst.one_of(hst.none(), hst.booleans(), _JSON_INTS, _JSON_FLOATS, _JSON_TEXT,
                           hst.just(b"bytes"))  # json refuses bytes with TypeError
_JSON_KEYS = hst.sampled_from([
    _JSON_TEXT, _JSON_INTS, _JSON_FLOATS, _SELF_UNEQUAL, hst.booleans(), hst.none(),
    hst.one_of(_JSON_TEXT, _JSON_INTS),  # str and int keys cannot be sorted together
    hst.just((1, 2))])  # json refuses a tuple key


def _json_containers(items):
    lists = hst.lists(items, max_size=4)
    dicts = _JSON_KEYS.flatmap(lambda keys: hst.dictionaries(keys, items, max_size=4))
    return hst.one_of(lists, lists.map(tuple), lists.map(_CountedList),
                      hst.builds(_Pair, items, items), dicts, dicts.map(_Counted),
                      items.map(lambda x: {"deep": [[(x,)]]}))  # three more levels


@settings(max_examples=200, deadline=None)
@given(hst.recursive(_JSON_SCALARS, _json_containers, max_leaves=24))
@example([(1, "a")])  # a tuple is a container, not a scalar
@example([[_SelfUnequal(1.5)], {_SelfUnequal(0.5): 0}, {_SelfUnequal(2.5): [1]}])  # subclasses
@example([_Counted(a=0), _CountedList([0])])  # container subclasses
def test_writer_equals_json_dumps(value):
    # the writer hands a container to json's C encoder only when its items and
    # keys have exact scalar types, so the subclasses above read as json reads them
    try:
        want = json.dumps(value, sort_keys=True, indent=2)
    except TypeError:
        with pytest.raises(TypeError):
            cli.dumps(value)
        return
    assert cli.dumps(value) == want


_FLAT_TABLES = hst.dictionaries(hst.tuples(hst.integers(0, 40), hst.integers(-3, 300)),
                                hst.integers(0, 10 ** 6), max_size=40)


@settings(max_examples=100, deadline=None)
@given(_FLAT_TABLES.flatmap(lambda t: hst.permutations(sorted(t.items()))), hst.integers(0, 3))
def test_a_flat_table_is_written_alike_in_every_insertion_order(items, depth):
    # bokstedt and adams hand their "s,t" tables to the writers unsorted: json
    # sorts the keys, and the text rows list them by (s, t)
    by_st = {f"{s},{t}": v for (s, t), v in sorted(items)}
    table = {f"{s},{t}": v for (s, t), v in items}
    assert cli.dumps(table, depth) == cli.dumps(by_st, depth)
    for sep in ("\t", ","):
        lines = []
        for t in (table, by_st):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli._print_rows({"einf": t}, sep)
            lines.append(out.getvalue())
        assert lines[0] == lines[1]
        if sep == "\t":
            assert lines[0] == f"einf\t{by_st}\n"
        else:  # one csv field holding the table's JSON
            (key, text), = csv.reader(lines[0].splitlines())
            assert key == "einf" and json.loads(text) == by_st


@pytest.mark.parametrize("line", [
    "adams run --target thh-ku-mod2 --maxdeg 20",
    "bokstedt run --spectrum ju --p 2 --maxdeg 40",
])
def test_csv_rows_split_into_a_key_and_a_value(line, capsys):
    # a nested value is one quoted field holding its JSON, not a Python repr
    # whose inner commas split the row
    assert cli.main([*line.split(), "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert cli.main([*line.split(), "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert all(len(row) == 2 for row in rows) and [k for k, _ in rows] == sorted(result)
    nested = [(k, text) for k, text in rows if isinstance(result[k], (dict, list))]
    assert nested and all(json.loads(text) == result[k] for k, text in nested)
    assert all(text == str(result[k]) for k, text in rows if (k, text) not in nested)


def test_csv_rows_of_a_scalar_table_split_into_a_key_and_an_int(capsys):
    # hh compute keys its result by "q,t": the key is one quoted field
    line = "hh compute --preset polynomial --p 3 --maxdeg 6".split()
    assert cli.main([*line, "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert cli.main([*line, "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert all(len(row) == 2 for row in rows)
    assert {k: int(v) for k, v in rows} == result and len(rows) == len(result)


# sha256 of `--format json` stdout, pinned from the json.dumps writer
_PINNED_OUTPUTS = {
    "bokstedt run --spectrum ju --p 2 --maxdeg 96":
        "a9f62d712108d0c573354ed27042af469a99d32127e16259d491f34ef30da602",
    "bokstedt run --spectrum hf --p 5 --maxdeg 96":
        "cb7d8e3355287dd76892d2c9568ecf0613018ff81f127a5619d87bd34a2ba43a",
    "bokstedt run --spectrum j --p 2 --maxdeg 44":
        "89d2b53ccbbe4925cdda611bda9885b9aac0b06bcd07a29848d3b987156b0fb4",
    "adams run --target thh-ko-y --maxdeg 60":
        "0f6914be70c42201fddce5e286e0f32c31ad37e003cc8eba9bee7abfa622d520",
    "steenrod basis --subalgebra A4 --degree 80":
        "4f993d17b0ad4b69a6ac9cb65106a34acb0a0207ab8da1c680629dbd24319664",
    "steenrod quotient --subalgebra A3 --ideal Sq1,Sq2":
        "66ae818a1f10ca39b82231621dd99afd00d953c43fef08681d601266f644044b",
    "steenrod kernel --subalgebra A2 --ideal Sq1,Sq2Sq3 --target-ideal Sq1,Sq2 --map Sq4":
        "5b30aa86cea5b8f0f5852521690dec6393298adda178ffa9b7d6c3e84cc7bb6a",
    "steenrod kernel --subalgebra A3 --ideal Sq1,Sq2Sq3 --target-ideal Sq1,Sq2 --map Sq4":
        "0d1066e6e89f1b2680937ba34dc8370cbfd101db2b97c06da75d42b622b01f19",
    "hh compute --preset polynomial --p 3 --maxdeg 10":
        "60396021344d0d4c3a6e24244dbfe4a2e4d5d777d890f01f58dde8f2fd480573",
}


@pytest.mark.parametrize("line", list(_PINNED_OUTPUTS))
def test_json_output_bytes_are_pinned(line, capsys):
    assert cli.main([*line.split(), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_OUTPUTS[line]


def test_einf_shares_the_e2_table_only_when_no_differential_acts():
    flat = bk.thh_homology("hf", 2, 40).to_jsonable()
    assert flat["einf"] is flat["e2"]
    hz3 = bk.thh_homology("hz", 3, 40)
    out = hz3.to_jsonable()
    assert out["einf"] is not out["e2"] and out["einf"] != out["e2"]
    assert out["einf"] == {f"{s},{t}": v for (s, t), v in sorted(hz3.einf_dims.items())}
