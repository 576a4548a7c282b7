"""Tests of the benchmark's tracer, checks and seeded workloads."""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def fake_clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "clock", clock)
    return clock


def test_self_time_of_nested_spans(fake_clock):
    tr = tracer.Tracer()

    def c():
        fake_clock.advance(5)

    def b():
        fake_clock.advance(3)
        c()

    def a():
        fake_clock.advance(1)
        b()
        fake_clock.advance(2)
        c()

    c = tr.timed("c", c)
    b = tr.timed("b", b)
    tr.run("a", a)
    spans = tr.records()
    assert tracer.self_times(spans) == {"a": 3.0, "b": 3.0, "c": 10.0}
    assert tracer.calls(spans) == {"a": 1, "b": 1, "c": 2}
    assert spans[0][1:] == [-1, "a", 1, 16.0]


def test_same_name_under_same_parent_is_merged(fake_clock):
    tr = tracer.Tracer()
    leaf = tr.timed("leaf", lambda: fake_clock.advance(2))

    def top():
        for _ in range(3):
            leaf()

    tr.run("top", top)
    spans = tr.records()
    assert len(spans) == 2
    assert spans[1][1:] == [0, "leaf", 3, 6.0]
    assert tracer.self_times(spans) == {"top": 0.0, "leaf": 6.0}


def test_calls_under_an_ancestor():
    spans = [
        [0, -1, "root", 1, 10.0],
        [1, 0, "sq", 1, 4.0],
        [2, 1, "mid", 2, 3.0],
        [3, 2, "fplin.gf2.add", 7, 1.0],
        [4, 0, "fplin.gf2.add", 5, 1.0],
    ]
    assert tracer.calls_under(spans, "sq", "fplin.gf2.add") == 7
    assert tracer.calls_under(spans, "root", "fplin.") == 12


def test_counted_dynamic_name_and_size_counter():
    tr = tracer.Tracer()
    count = tr.counted("hot", lambda x: x)
    lane = tr.timed(lambda args, kwargs: f"lane{args[0] % 2}", lambda x: [x] * x,
                    size_counter="items")
    for x in (1, 2, 3):
        count(x)
        lane(x)
    assert tr.counts == {"hot": 3, "items": 6}
    assert tracer.calls(tr.records()) == {"lane1": 2, "lane0": 1}


@pytest.fixture
def installed():
    pytest.importorskip("numpy")
    import thhforge.cli  # noqa: F401  loads every thhforge module

    tr = tracer.Tracer()
    replaced = tracer.install(tr)
    try:
        yield tr
    finally:
        tracer.uninstall(replaced)


def test_every_target_exists(installed):
    assert installed.missing == []


def test_calls_through_imported_aliases_are_recorded(installed):
    from thhforge import bokstedt, cli, gca, steenrod
    from thhforge.gca import AlgebraPresentation, GeneratorSpec

    pres = AlgebraPresentation(2, [GeneratorSpec("x", 2, "polynomial")], 4)
    cli.hh_homology(pres, 4)
    bokstedt.spectrum("hf", 2, 8)
    one = steenrod.milnor_one()
    gca.milnor_mul(one, one, 2)
    names = tracer.calls(installed.records())
    assert names["hochschild.complex.hh_homology"] == 1
    assert names["catalog.spectrum"] == 1
    assert names["steenrod.milnor.mul"] >= 1


def test_span_methods_are_timed_by_lane(installed):
    from thhforge import fplin

    for p in (2, 3):
        span = fplin.Span(3, p)
        span.add({0: 1, 1: 1})
        assert span.contains({0: 2, 1: 2})
        assert span.reduce({0: 1}) == {1: p - 1}
        span.basis()
    names = tracer.calls(installed.records())
    for lane in ("gf2", "modp"):
        assert names[f"fplin.{lane}.add"] == 1
        assert names[f"fplin.{lane}.reduce"] == 2
        assert names[f"fplin.{lane}.basis"] == 1


def test_uninstall_restores_the_originals():
    pytest.importorskip("numpy")
    from thhforge import cli, hochschild

    before = (cli.hh_homology, hochschild.hh_homology, hochschild.HochschildComplex.basis)
    replaced = tracer.install(tracer.Tracer())
    assert cli.hh_homology is not before[0]
    tracer.uninstall(replaced)
    assert (cli.hh_homology, hochschild.hh_homology, hochschild.HochschildComplex.basis) == before


def test_cli_job_spans_nest_under_main(installed, tmp_path):
    from thhforge import cli

    out = tmp_path / "out.json"
    rc = installed.run("cli.main", cli.main, ["hh", "compute", "--preset", "polynomial",
                                              "--maxdeg", "6", "--format", "json",
                                              "--out", str(out)])
    assert rc == 0
    spans = installed.records()
    assert spans[0][2] == "cli.main"
    assert tracer.calls_under(spans, "cli.main", "hochschild.complex.basis") > 0
    assert installed.counts["hochschild.chains"] > 0


def test_an_dimension_matches_known_ranks():
    assert sum(checks.an_dimension(1, d) for d in range(7)) == 8
    assert sum(checks.an_dimension(2, d) for d in range(24)) == 64
    assert checks.an_dimension(4, 100) == 386


def test_seed_relabels_but_keeps_the_work(tmp_path):
    runs = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        runs.append(workloads.materialize("hh-complex", seed, str(tmp_path / str(seed))))
    assert sorted(job.id for job, _ in runs[0]) == sorted(job.id for job, _ in runs[1])
    pres = workloads.WORKLOADS["hh-complex"][2].presentation
    for seed in range(5):
        got = workloads.relabel(pres, random.Random(seed))
        assert sorted((g["degree"], g["kind"]) for g in got["generators"]) == \
            sorted((g["degree"], g["kind"]) for g in pres["generators"])
        assert len({g["name"] for g in got["generators"]}) == len(pres["generators"])
