"""The acceptance suite: every headline number the engine must reproduce.

Each criterion is a function returning a report dict; the CLI verify
command and the test suite both run them.  Tolerances are exact equality
over F_p throughout, with wall-clock budgets where stated.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import Callable

from . import adams as ad
from . import bokstedt as bk
from . import fplin
from . import steenrod as st
from .catalog import spectrum
from .gca import AlgebraPresentation, GeneratorSpec, expand_divided
from .hochschild import (
    HochschildComplex,
    bar_roundtrip_check,
    chain_coproduct,
    hh_dims,
    hh_squarezero,
    presentation_dims_internal,
    closed_form_hh,
    tensor_boundary,
)

# the seventeen spanning classes of the kernel module, as admissible words
KERNEL_SPAN = [
    "Sq4", "Sq6", "Sq7", "Sq6Sq2", "Sq9",
    "Sq10+Sq8Sq2", "Sq7Sq3", "Sq11+Sq9Sq2", "Sq10Sq2", "Sq13+Sq10Sq3",
    "Sq11Sq2", "Sq11Sq3", "Sq13Sq2+Sq12Sq3", "Sq13Sq3", "Sq17+Sq15Sq2",
    "Sq17Sq2+Sq16Sq3", "Sq17Sq3",
]


def _report(cid: str, description: str, passed: bool, t0: float, budget: float | None,
            **details) -> dict:
    elapsed = time.perf_counter() - t0
    ok = bool(passed) and (budget is None or elapsed <= budget)
    return {
        "id": cid,
        "description": description,
        "passed": ok,
        "elapsed": round(elapsed, 2),
        "budget": budget,
        **details,
    }


def criterion_1() -> dict:
    t0 = time.perf_counter()
    r1 = st.total_rank(st.SubalgebraSpec.A(1))
    r2 = st.total_rank(st.SubalgebraSpec.A(2))
    return _report("1", "subalgebra ranks: A_1 = 8, A_2 = 64",
                   r1 == 8 and r2 == 64, t0, 5.0, ranks={"A1": r1, "A2": r2})


def criterion_2() -> dict:
    t0 = time.perf_counter()
    A2 = st.SubalgebraSpec.A(2)
    M = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2Sq3")])
    N = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2")])
    K, cok = st.module_map_kernel(st.parse_element("Sq4"), M, N)
    ann = [st.parse_element(s) for s in ("Sq1", "Sq7", "Sq4Sq6+Sq6Sq4")]
    cyc = st.cyclic_and_annihilator_check(K, st.parse_element("Sq4"), 4, ann)
    # The seventeen classes are listed by their displayed terms; labels
    # whose displayed terms already lie in the subalgebra must be exact
    # kernel classes, the rest name classes by leading terms and must be
    # completed by lower terms inside a distinct kernel representative.
    listed = [st.parse_element(s) for s in KERNEL_SPAN]
    in_kernel = True
    used: dict[int, set[int]] = {}
    for e in listed:
        d = st.element_degree(e)
        coords = K.reduce_ambient(e, d)
        if coords:
            continue
        if coords is not None and not coords:
            in_kernel = False  # in the kernel span but the zero class
            continue
        hit = None
        for j, rep in enumerate(K.elements.get(d, [])):
            if e <= rep and j not in used.get(d, set()):
                hit = j
                break
        if hit is None:
            in_kernel = False
        else:
            used.setdefault(d, set()).add(hit)
    listed_dims: dict[int, int] = {}
    for e in listed:
        d = st.element_degree(e)
        listed_dims[d] = listed_dims.get(d, 0) + 1
    ok = (
        M.total_rank() == 24
        and K.total_rank() == 17
        and cok == 1
        and cyc
        and in_kernel
        and listed_dims == K.poincare()
    )
    return _report("2", "rank-24 quotient, rank-17 kernel, cokernel 1, cyclic module "
                   "with its annihilator ideal and listed spanning classes",
                   ok, t0, 30.0,
                   quotient_rank=M.total_rank(), kernel_rank=K.total_rank(),
                   cokernel_rank=cok)


def criterion_3() -> dict:
    t0 = time.perf_counter()
    a = st.adem_reduce((2, 2)) == st.parse_element("Sq3Sq1")
    b = st.adem_reduce((1, 7)) == frozenset()
    lhs = st.steenrod_add(st.adem_reduce((4, 6)), st.adem_reduce((6, 4)))
    c = lhs == st.parse_element("Sq10+Sq8Sq2+Sq7Sq3")
    return _report("3", "Adem instances: Sq2Sq2, Sq1Sq7, Sq4Sq6+Sq6Sq4",
                   a and b and c, t0, None)


def criterion_4() -> dict:
    t0 = time.perf_counter()
    bound = 24
    ok = True
    for p in (2, 3):
        for kind, degs in (("polynomial", (2, 4, 8)), ("exterior", (1, 3, 7))):
            for d in degs:
                A = AlgebraPresentation(p, [GeneratorSpec("x", d, kind)], 2 * bound)
                raw = hh_dims(A, bound)
                cf, _ = closed_form_hh(A, 2 * bound)
                closed = {k: v for k, v in presentation_dims_internal(cf, bound).items() if v}
                if raw != closed:
                    ok = False
                if kind == "exterior":
                    cx = HochschildComplex(A)
                    xm = A.gen_monomial("x")
                    for i in range(1, min(6, bound // max(d, 1)) + 1):
                        if cx.boundary_chain(((),) + (xm,) * i):
                            ok = False
    return _report("4", f"Hochschild homology matches the closed forms through "
                   f"internal degree {bound} at p = 2, 3; divided-power cycles",
                   ok, t0, 120.0)


def criterion_5() -> dict:
    t0 = time.perf_counter()
    ok = True
    cases = [[("x", 1)], [("x", 1), ("y", 1)], [("x", 2), ("y", 3)],
             [("x", 1), ("y", 2), ("z", 3)]]
    for p in (2, 3):
        for vee in cases:
            qmax, tmax = 5, 10
            sq = hh_squarezero(vee, qmax, p=p, max_degree=tmax)
            gens = [GeneratorSpec(n, d, "exterior") for n, d in vee]
            A = AlgebraPresentation(p, gens, tmax, square_zero=True)
            raw = hh_dims(A, tmax, qmax=qmax)
            keys = {k for k in set(sq) | set(raw) if k[0] <= qmax and k[1] <= tmax}
            if any(sq.get(k, 0) != raw.get(k, 0) for k in keys):
                ok = False
    five = hh_squarezero([("x", 1), ("y", 1)], 1, p=2)
    rank5 = sum(v for (q, t), v in five.items() if q == 1) == 5
    return _report("5", "square-zero formula agrees with the presented algebra; "
                   "the rank-5 first homology example", ok and rank5, t0, None)


def criterion_6() -> dict:
    t0 = time.perf_counter()
    U = AlgebraPresentation(
        2, [GeneratorSpec("u", 0, "truncated", height=2, idempotent=True)], 0
    )
    dims = hh_dims(U, 0, qmax=6)
    ok = dims.get((0, 0)) == 2 and all(dims.get((q, 0), 0) == 0 for q in range(1, 7))
    return _report("6", "idempotent algebra: homology rank 2 in degree 0, zero above",
                   ok, t0, None, dims={f"{q}": dims.get((q, 0), 0) for q in range(7)})


def criterion_7() -> dict:
    t0 = time.perf_counter()
    P = AlgebraPresentation(2, [GeneratorSpec("x", 2, "polynomial")], 12)
    E = AlgebraPresentation(2, [GeneratorSpec("x", 1, "exterior")], 12)
    ok = bar_roundtrip_check(P, 3, 12) and bar_roundtrip_check(E, 3, 12)
    E3 = AlgebraPresentation(3, [GeneratorSpec("x", 1, "exterior")], 8)
    ok = ok and bar_roundtrip_check(E3, 3, 8)
    return _report("7", "bar-resolution roundtrip is the identity through (q <= 3, t <= 12)",
                   ok, t0, None)


def _expected_abutment(name: str, p: int, N: int, extra: list[tuple[int, str]],
                       divided: tuple[str, int] | None = None) -> list[int]:
    data = spectrum(name, p, N)
    gens = list(data.homology.gens)
    gens += [GeneratorSpec(f"extra{i}", d, kind) for i, (d, kind) in enumerate(extra)]
    if divided:
        gens += expand_divided(divided[0], divided[1], p, N)
    return AlgebraPresentation(p, gens, N).poincare_series(N)


def criterion_8() -> dict:
    t0 = time.perf_counter()
    checks: list[tuple] = [
        ("hf", 2, 40, [(2, "polynomial")], None),
        ("hz", 2, 40, [(3, "exterior"), (4, "polynomial")], None),
        ("ku", 2, 40, [(3, "exterior"), (7, "exterior"), (8, "polynomial")], None),
        ("ko", 2, 40, [(5, "exterior"), (7, "exterior"), (8, "polynomial")], None),
        ("tmf", 2, 40, [(9, "exterior"), (13, "exterior"), (15, "exterior"),
                        (16, "polynomial")], None),
        ("hf", 3, 60, [(2, "polynomial")], None),
        ("hz", 3, 60, [(5, "exterior"), (6, "polynomial")], None),
        ("ell", 3, 60, [(5, "exterior"), (17, "exterior"), (18, "polynomial")], None),
        ("ju", 3, 60, [(13, "exterior"), (17, "exterior"), (18, "polynomial")],
         ("sb", 12)),
        ("ju", 2, 60, [(5, "exterior"), (7, "exterior"), (8, "polynomial")],
         ("sb", 4)),
    ]
    failures = []
    certificates = {}
    for name, p, N, extra, divided in checks:
        res = bk.thh_homology(name, p, N)
        exp = _expected_abutment(name, p, N, extra, divided)
        if res.series != exp:
            failures.append(f"{name}@p={p}")
        certificates[f"{name}@p={p}"] = res.collapse["method"]
        if name == "ju" and res.collapse["method"] != (
            "obstruction-scan-empty"
        ):
            failures.append(f"{name}@p={p}: expected an obstruction-scan certificate")
    return _report("8", "abutment series match the closed forms (degree 40 at p = 2, "
                   "60 at p = 3 and for ju) with collapse certificates",
                   not failures, t0, 600.0, failures=failures, certificates=certificates)


def criterion_9() -> dict:
    t0 = time.perf_counter()
    N = 61
    gens = [GeneratorSpec("z", 53, "exterior", filtration=1)] + expand_divided(
        "y", 18, 3, N, filtration=1
    )
    A = AlgebraPresentation(3, gens, N)
    page = bk.SSPage(None, 2, A, max_degree=N)
    page.differential = {
        g.name: A.el_mul({A.gen_monomial("z"): 1}, A.gamma("y", g.gamma_power - 3))
        for g in A.gens
        if g.gamma_power >= 3
    }
    new, info = bk.page_homology(page)
    expected = AlgebraPresentation(3, [g for g in gens if g.name in ("y",)], N)
    got = {k: v for k, v in new.raw_dims.items() if v}  # the dims checked through 60
    exp = {k: v for k, v in expected.bigraded_series(60).items() if v}
    ok = info.get("match", False) and got == exp
    return _report("9", "divided-tower differential homology is the truncated "
                   "polynomial algebra, degreewise through 60", ok, t0, None)


def criterion_10() -> dict:
    t0 = time.perf_counter()

    def coaction_set(res, gen):
        A = res.abutment
        out = set()
        for a, m in res.coaction.entries[A.index[gen]]:
            for mm, c in a.items():
                if c % 2:
                    out.add((str(mm), A.monomial_str(m)))
        return out

    res = bk.thh_homology("ku", 2, 40)
    ok = coaction_set(res, "s(xibar3)") == {("1", "s(xibar3)"), ("xibar1", "s(xibar2^2)")}
    ok &= coaction_set(res, "s(xibar1^2)") == {("1", "s(xibar1^2)")}
    ok &= coaction_set(res, "s(xibar2^2)") == {("1", "s(xibar2^2)")}
    res = bk.thh_homology("ko", 2, 40)
    ok &= coaction_set(res, "s(xibar1^4)") == {("1", "s(xibar1^4)")}
    ok &= coaction_set(res, "s(xibar2^2)") == {
        ("1", "s(xibar2^2)"), ("xibar1^2", "s(xibar1^4)")
    }
    ok &= coaction_set(res, "s(xibar3)") == {
        ("1", "s(xibar3)"), ("xibar1", "s(xibar2^2)"), ("xibar2", "s(xibar1^4)")
    }
    res = bk.thh_homology("tmf", 2, 40)
    ok &= coaction_set(res, "s(xibar1^8)") == {("1", "s(xibar1^8)")}
    ok &= coaction_set(res, "s(xibar2^4)") == {
        ("1", "s(xibar2^4)"), ("xibar1^4", "s(xibar1^8)")
    }
    ok &= coaction_set(res, "s(xibar3^2)") == {
        ("1", "s(xibar3^2)"), ("xibar1^2", "s(xibar2^4)"), ("xibar2^2", "s(xibar1^8)")
    }
    ok &= coaction_set(res, "s(xibar4)") == {
        ("1", "s(xibar4)"), ("xibar1", "s(xibar3^2)"),
        ("xibar2", "s(xibar2^4)"), ("xibar3", "s(xibar1^8)")
    }
    return _report("10", "coaction formulas for the suspensions in THH of ku, ko, tmf",
                   bool(ok), t0, None)


def criterion_11() -> dict:
    t0 = time.perf_counter()
    certs = bk.nishida_certificates()
    return _report("11", "Nishida instance checks certify the image-of-J "
                   "Dyer-Lashof entries", all(c["ok"] for c in certs), t0, None,
                   certificates=certs)


def criterion_12() -> dict:
    t0 = time.perf_counter()
    ok = True
    # initial terms through t - s <= 60
    e2 = ad.ext_over_exterior(ad.build_comodule("thh-ku-mod2", 60), 30, 60)
    # ku is primitive: E2 = E(l1, l2) (x) P(mu) (x) P(v1), |l1|, |l2|, |mu| = 3, 7, 8
    free = Counter((s, t + 3 * s) for t in (b + 8 * c for b in (0, 3, 7, 10) for c in range(8))
                   for s in range((60 - t) // 3 + 1))
    ok &= {k: v for k, v in e2.dims.items() if v} == dict(free)
    mko = ad.build_comodule("thh-ko-y", 60)
    e2ko = ad.ext_over_exterior(mko, 30, 60)
    page1, _, _ = ad.run_ss("thh-ko-y", 52, smax=30, from_e1=True, stop_after=1)
    a = {k: v for k, v in page1.dims.items() if v and k[1] <= 60 and k[0] <= 30 and k[1] - k[0] <= 52}
    b = {k: v for k, v in e2ko.dims.items() if v and k[1] <= 60 and k[0] <= 30 and k[1] - k[0] <= 52}
    ok &= a == b
    # E-infinity terms against the closed forms
    for target in ad.TARGETS:
        einf, module, _ = ad.run_ss(target, 60)
        exp2 = ad.einf_closed_form_dims(target, 60, smax=40)
        got = {k: v for k, v in einf.dims.items() if v and k[0] <= 40}
        ok &= got == {k: v for k, v in exp2.items() if v}
    # rank-count oracle on random comodules
    rng = random.Random(20260810)
    tried = 0
    while tried < 50:
        nb = rng.randint(1, 8)
        degs = sorted(rng.randint(0, 12) for _ in range(nb))
        basis = [(f"e{i}", d) for i, d in enumerate(degs)]
        q: dict[int, dict[int, int]] = {}
        for j in range(nb):
            tgt = {i: 1 for i in range(nb) if degs[i] == degs[j] + 3 and rng.random() < 0.5}
            if tgt:
                q[j] = tgt
        M = ad.ExteriorComodule(basis, q)
        if not M.verify_square_zero():
            continue
        tried += 1
        a2 = {k: v for k, v in ad.ext_over_exterior(M, 4, 24).dims.items() if v}
        if a2 != _rank_count_ext(M, 4, 24):
            ok = False
    return _report("12", "Adams initial terms, differential schedules, final terms "
                   "and the rank-count oracle on 50 random comodules", bool(ok), t0, 120.0)


def _rank_count_ext(m: ad.ExteriorComodule, smax: int, tmax: int) -> dict[tuple[int, int], int]:
    """Ext over E(xi_2) from per-degree ranks of q alone, nonzero entries
    only: n_t - rk(q out of degree t) at s = 0, less rk(q into degree t)
    at (s, t + 3s) for s >= 1."""
    degs = m.degrees()
    cols = [m.q.get(j, {}) for j in range(len(degs))]
    dims = {}
    for t in set(degs):
        rk_out, rk_in = (fplin.rank(fplin.SparseMat(part, 2)) for part in (
            [c for c, d in zip(cols, degs) if d == t],
            [{i: v for i, v in c.items() if degs[i] == t} for c in cols]))
        for s in range(smax + 1):
            v = degs.count(t) - rk_out - (rk_in if s else 0)
            if v and t + ad.V1_DEG * s <= tmax:
                dims[(s, t + ad.V1_DEG * s)] = v
    return dims


def criterion_13() -> dict:
    t0 = time.perf_counter()
    ok = True
    # boundary squared on assorted complexes
    for p in (2, 3):
        A = AlgebraPresentation(
            p, [GeneratorSpec("x", 2, "polynomial"), GeneratorSpec("y", 3, "exterior")], 12
        )
        cx = HochschildComplex(A)
        for t in range(12 + 1):
            for q in range(min(t, 6) + 1):
                for c in cx.basis(q, t):
                    if cx.boundary(cx.boundary_chain(c)):
                        ok = False
        # co-Leibniz on the same chains
        for (q, t) in [(1, 5), (2, 7), (2, 8), (3, 9)]:
            for c in cx.basis(q, t):
                if chain_coproduct(A, cx.boundary_chain(c)) != tensor_boundary(
                    A, chain_coproduct(A, {c: 1})
                ):
                    ok = False
    # page differential: d^2 = 0 and Leibniz on an odd-primary page it moves
    # (the tower over s(taubar1) of hz; ell has no differential through 40)
    page = bk.apply_d_pminus1(bk.build_e2(spectrum("hz", 3, 40), 40))
    A = page.algebra
    moved = 0
    for d in range(40):
        for m in A.monomial_basis(d):
            dm = bk.differential_on_monomial(page, m)
            moved += bool(dm)
            if fplin.linear(dm, lambda mm: bk.differential_on_monomial(page, mm), 3):
                ok = False
    ok = ok and moved > 0
    rng = random.Random(7)
    monos = [m for d in range(20) for m in A.monomial_basis(d)]
    for _ in range(200):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        prod, s = A.mul_monomials(m1, m2)
        lhs = {} if prod is None or s == 0 else {
            k: (s * v) % 3 for k, v in bk.differential_on_monomial(page, prod).items()
        }
        d1 = bk.differential_on_monomial(page, m1)
        d2 = bk.differential_on_monomial(page, m2)
        rhs = A.el_mul(d1, {m2: 1})
        sign = -1 if A.degree(m1) % 2 else 1
        rhs = A.el_add(rhs, A.el_mul({m1: 1}, d2), coeff=sign % 3)
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            ok = False
    # coassociativity of the dual-algebra coproduct, both alphabets
    for p in (2, 3):
        bound = 20 if p == 2 else 18
        for conj in (True, False):
            for d in range(bound + 1):
                for m in st.milnor_basis(p, d, conjugated=conj):
                    if not _coassociative(m, p):
                        ok = False
    # pairing adjunction
    rng = random.Random(11)
    for _ in range(150):
        da = rng.randint(1, 8)
        db = rng.randint(1, 8)
        if da + db > 16:
            continue
        words_a = st.admissible_monomials(da)
        words_b = st.admissible_monomials(db)
        a = frozenset({rng.choice(words_a)})
        b = frozenset({rng.choice(words_b)})
        for m in st.milnor_basis(2, da + db, conjugated=False):
            lhs = st.pairing(st.steenrod_mul(a, b), m)
            rhs = 0
            for (m1, m2), c in st.milnor_coproduct(m, 2).items():
                if m1.degree(2) == da:
                    rhs ^= st.pairing(a, m1) & st.pairing(b, m2) & c
            if lhs != rhs:
                ok = False
    # conjugation is an involution
    for p in (2, 3):
        bound = 20 if p == 2 else 18
        for d in range(bound + 1):
            for m in st.milnor_basis(p, d, conjugated=False):
                back = st.antipode(st.antipode({m: 1}, p), p)
                if back != {m: 1}:
                    ok = False
    return _report("13", "property suites: boundary squared, page differentials, "
                   "Leibniz and co-Leibniz, coassociativity, pairing adjunction, "
                   "involutive conjugation", ok, t0, None)


def _coassociative(m, p) -> bool:
    left: dict = {}
    right: dict = {}
    for (a, b), c in st.milnor_coproduct(m, p).items():
        for (a1, a2), c2 in st.milnor_coproduct(a, p).items():
            fplin.add_term(left, (a1, a2, b), c * c2, p)
        for (b1, b2), c2 in st.milnor_coproduct(b, p).items():
            fplin.add_term(right, (a, b1, b2), c * c2, p)
    return left == right


CRITERIA: list[Callable[[], dict]] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]
