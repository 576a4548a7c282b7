"""Adams machinery: comodules from the abutment, Ext closed form vs rank counts,
schedules, charts."""

from __future__ import annotations

import random

import pytest

from test_fplin import dense_rref

from thhforge import adams as ad
from thhforge import cli
from thhforge.gca import AlgebraPresentation, CoactionTable, GeneratorSpec
from thhforge.steenrod import MilnorMonomial


def free_dims(lams, smax, tmax):
    dims = {}
    for mask in range(1 << len(lams)):
        base = sum(lams[i] for i in range(len(lams)) if (mask >> i) & 1)
        c = 0
        while base + 8 * c <= tmax:
            for s in range(smax + 1):
                t = base + 8 * c + 3 * s
                if t <= tmax:
                    dims[(s, t)] = dims.get((s, t), 0) + 1
            c += 1
    return dims


def test_comodule_ku_all_primitive():
    m = ad.build_comodule("thh-ku-mod2", 40)
    assert m.q == {}
    assert m.verify_square_zero()
    assert [lab for lab, d in m.basis if d <= 8] == [
        "1", "s(xibar1^2)", "s(xibar2^2)", "s(xibar3)"]


def test_comodule_ko_derivation():
    m = ad.build_comodule("thh-ko-y", 40)
    assert m.verify_square_zero()
    labels = {lab: i for i, (lab, d) in enumerate(m.basis)}
    # q(mu) = l1, q(mu^2) = 0, q(l1 mu) = 0, q(mu^3) = l1 mu^2, with
    # l1 = s(xibar1^4) and mu = s(xibar3)
    assert m.q[labels["s(xibar3)"]] == {labels["s(xibar1^4)"]: 1}
    assert labels["s(xibar3)^2"] not in m.q
    assert labels["s(xibar1^4) s(xibar3)"] not in m.q
    assert m.q[labels["s(xibar3)^3"]] == {labels["s(xibar1^4) s(xibar3)^2"]: 1}


def test_comodule_refuses_a_xibar2_term_outside_the_sigma_part():
    # s(xibar3) coacts through the filtration-0 class x5, not a sigma-monomial
    A = AlgebraPresentation(2, [
        GeneratorSpec("x5", 5, "exterior"),
        GeneratorSpec("s(xibar3)", 8, "polynomial", filtration=1, sigma_of="xibar3"),
    ], 16)
    coact = CoactionTable(A)
    coact.set_primitive("x5")
    coact.set_gen("s(xibar3)", [({MilnorMonomial(): 1}, A.gen_monomial("s(xibar3)")),
                                ({MilnorMonomial((0, 1)): 1}, A.gen_monomial("x5"))])
    with pytest.raises(ValueError, match="s\\(xibar3\\) lands on x5, outside the sigma"):
        ad.comodule_from_coaction(coact, 16)


def test_ext_ku_matches_free_form():
    m = ad.build_comodule("thh-ku-mod2", 60)
    e2 = ad.ext_over_exterior(m, 30, 60)
    assert {k: v for k, v in e2.dims.items() if v} == {
        k: v for k, v in free_dims((3, 7), 30, 60).items() if v
    }


def test_ext_trivial_cases():
    # trivial comodule F_2 -> P(v1)
    m = ad.ExteriorComodule([("1", 0)], {})
    dims = ad.ext_over_exterior(m, 5, 20).dims
    assert all(dims.get((s, 3 * s)) == 1 for s in range(6))
    # free comodule E(Q_1)_* (q sends xi_2 to 1) -> F_2 concentrated in s = 0
    free = ad.ExteriorComodule([("1", 0), ("xi", 3)], {1: {0: 1}})
    dims = ad.ext_over_exterior(free, 4, 12).dims
    assert dims == {(0, 0): 1}


def test_ext_requires_square_zero():
    bad = ad.ExteriorComodule([("a", 0), ("b", 3), ("c", 6)], {0: {1: 1}, 1: {2: 1}})
    with pytest.raises(ValueError):
        ad.ext_over_exterior(bad, 2, 10)


def rank_count_dims(m, smax, tmax):
    """Ext from dense ranks of q: n_t - rk(q out of t) at s = 0, less
    rk(q into t) above; shares no code with ext_over_exterior or fplin."""
    degs = m.degrees()
    n = len(degs)
    cols = [[m.q.get(j, {}).get(i, 0) for i in range(n)] for j in range(n)]
    dims = {}
    for t in set(degs):
        rk_out = len(dense_rref([c for c, d in zip(cols, degs) if d == t], 2))
        rk_in = len(dense_rref([[v if degs[i] == t else 0 for i, v in enumerate(c)]
                                for c in cols], 2))
        for s in range(smax + 1):
            v = degs.count(t) - rk_out - (rk_in if s else 0)
            if v and t + 3 * s <= tmax:
                dims[(s, t + 3 * s)] = v
    return dims


def test_rank_count_oracle_agreement():
    rng = random.Random(99)
    done = 0
    while done < 50:
        nb = rng.randint(1, 8)
        degs = sorted(rng.randint(0, 12) for _ in range(nb))
        basis = [(f"e{i}", d) for i, d in enumerate(degs)]
        q = {}
        for j in range(nb):
            tgt = {i: 1 for i in range(nb) if degs[i] == degs[j] + 3 and rng.random() < 0.5}
            if tgt:
                q[j] = tgt
        M = ad.ExteriorComodule(basis, q)
        if not M.verify_square_zero():
            continue
        done += 1
        a = {k: v for k, v in ad.ext_over_exterior(M, 4, 24).dims.items() if v}
        assert a == rank_count_dims(M, 4, 24)
    for target in ad.TARGETS:
        M = ad.build_comodule(target, 46)
        a = {k: v for k, v in ad.ext_over_exterior(M, 12, 46).dims.items() if v}
        assert a == rank_count_dims(M, 12, 46)


def test_schedules():
    sk = ad.schedule("thh-ku-mod2", 10)
    assert [(sk.r[n], sk.s[n]) for n in (1, 2, 3, 4)] == [
        (2, 3), (4, 7), (10, 11), (20, 23)
    ]
    sy = ad.schedule("thh-ko-y", 10)
    assert (sy.r[1], sy.s[1]) == (1, 5)
    assert sk.degree_identity_holds(10) and sy.degree_identity_holds(10)


def test_run_ss_matches_closed_form():
    for target in ad.TARGETS:
        einf, module, log = ad.run_ss(target, 60)
        exp = ad.einf_closed_form_dims(target, 60, smax=40)
        got = {k: v for k, v in einf.dims.items() if v and k[0] <= 40}
        assert got == {k: v for k, v in exp.items() if v}
        assert all(entry["r"] >= 1 for entry in log)


@pytest.mark.parametrize("target, n", [("thh-ku-mod2", 1), ("thh-ko-y", 2)])
def test_a_wrong_expected_stage_page_is_a_mismatch(monkeypatch, capsys, target, n):
    # torsion summands built with r(n) - 1 leave out the v1^{r(n)-1} l_n classes
    # that the honest ranks keep; the first stage run is n
    torsion = ad._torsion
    monkeypatch.setattr(ad, "_torsion", lambda sched, k, max_stem: torsion(
        sched._replace(r={**sched.r, k: sched.r[k] - 1}), k, max_stem))
    with pytest.raises(AssertionError, match=f"^stage n={n} homology mismatch$"):
        ad.run_ss(target, 60)
    assert cli.main(["adams", "run", "--target", target, "--maxdeg", "60", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: stage n={n} homology mismatch\n"


def test_degree_identity_guards_schedule_data():
    # criterion 12 and run_ss rely on schedule() raising when the identity
    # fails, so the identity must catch one wrong r(n) at every n
    for target in ad.TARGETS:
        sched = ad.schedule(target, 8)
        assert sched.degree_identity_holds(8)
        for n in range(1, 9):
            broken = ad.DifferentialSchedule(target, sched.first_n,
                                             {**sched.r, n: sched.r[n] + 1}, sched.s)
            assert not broken.degree_identity_holds(8), (target, n)


def test_one_free_tower():
    # exactly one v1-tower survives in each final term (the unit), so in
    # large even stems far from torsion generators the column has dim 1
    einf, module, _ = ad.run_ss("thh-ku-mod2", 40)
    assert einf.dim(0, 0) == 1
    for s in (5, 10, 15):
        assert einf.dim(s, 3 * s) == 1  # v1^s on the unit


def test_imagined_free_term_reproduces_change_of_rings():
    m = ad.build_comodule("thh-ko-y", 46)
    e2 = ad.ext_over_exterior(m, 12, 46)
    page1, _, _ = ad.run_ss("thh-ko-y", 34, smax=12, from_e1=True, stop_after=1)
    clip = lambda dims: {
        k: v for k, v in dims.items() if v and k[1] - k[0] <= 34 and k[0] <= 12 and k[1] <= 46
    }
    assert clip(page1.dims) == clip(e2.dims)


def test_homotopy_tables():
    tab = ad.homotopy_table("thh-ku-mod2", 8)
    by_deg = {row["degree"]: row["generators"] for row in tab}
    assert [g["label"] for g in by_deg[0]] == ["1"]
    assert [g["label"] for g in by_deg[3]] == ["x(1,0)"]
    assert by_deg[3][0]["torsion"] == 2
    assert [g["label"] for g in by_deg[5]] == ["x(1,0)"]  # v1 x(1,0)
    assert [g["label"] for g in by_deg[7]] == ["x(2,0)"]  # the l1-tower died
    tab = ad.homotopy_table("thh-ko-y", 6)
    by_deg = {row["degree"]: row["generators"] for row in tab}
    assert [g["label"] for g in by_deg[5]] == ["x(1,0)"]
    assert by_deg[5][0]["torsion"] == 1  # dies immediately above


def test_charts():
    einf, _, _ = ad.run_ss("thh-ku-mod2", 20)
    text = ad.text_chart(einf, 12, 6)
    assert "s\\t-s" in text and len(text.splitlines()) == 8
    svg = ad.svg_chart(einf, 20, 10)
    assert svg.startswith("<svg") and "circle" in svg and "</svg>" in svg


def test_bad_target():
    with pytest.raises(ValueError):
        ad.schedule("nope", 4)
    with pytest.raises(ValueError):
        ad.build_comodule("nope", 10)
    with pytest.raises(ValueError):
        ad.run_ss("thh-ku-mod2", 20, from_e1=True)
