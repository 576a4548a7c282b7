"""The acceptance gate: one test per criterion, exact tolerances.

Each test prints its pass/fail line so a verbose run reads as the
acceptance report; `thhforge verify` drives the same criterion
functions from the command line.
"""

from __future__ import annotations

from thhforge import acceptance


def _run(criterion):
    report = criterion()
    status = "PASS" if report["passed"] else "FAIL"
    print(f"[{status}] criterion {report['id']:>2}  {report['elapsed']:7.2f}s  "
          f"{report['description']}")
    assert report["passed"], report


def test_criterion_01_subalgebra_ranks():
    _run(acceptance.criterion_1)


def test_criterion_02_kernel_module_pipeline():
    _run(acceptance.criterion_2)


def test_criterion_03_adem_instances():
    _run(acceptance.criterion_3)


def test_criterion_04_hochschild_closed_forms():
    _run(acceptance.criterion_4)


def test_criterion_05_square_zero():
    _run(acceptance.criterion_5)


def test_criterion_06_idempotent_algebra():
    _run(acceptance.criterion_6)


def test_criterion_07_bar_roundtrip():
    _run(acceptance.criterion_7)


def test_criterion_08_bokstedt_closed_forms():
    _run(acceptance.criterion_8)


def test_criterion_09_odd_page_homology():
    _run(acceptance.criterion_9)


def test_criterion_10_coaction_formulas():
    _run(acceptance.criterion_10)


def test_criterion_11_nishida_instances():
    _run(acceptance.criterion_11)


def test_criterion_12_adams():
    _run(acceptance.criterion_12)


def test_criterion_13_property_suites():
    _run(acceptance.criterion_13)
