"""Spectral sequence engine: catalog, pages, certificates, extensions."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from test_gca import presentations
from test_hochschild import whole_complex_dims
from thhforge import adams as ad
from thhforge import bokstedt as bk
from thhforge import fplin
from thhforge.catalog import SPECTRUM_NAMES, UnsupportedSpectrumError, j_module_degrees, spectrum
from thhforge.gca import (
    AlgebraPresentation,
    CoactionTable,
    GeneratorSpec,
    _xibar1_taubar0,
    expand_divided,
)
from thhforge.hochschild import _convolve, closed_form_hh, hh_squarezero, presentation_dims_internal
from thhforge.steenrod import milnor_one


def expected_series(name, p, n, extra, divided=None):
    data = spectrum(name, p, n)
    gens = list(data.homology.gens)
    gens += [GeneratorSpec(f"e{i}", d, kind) for i, (d, kind) in enumerate(extra)]
    if divided:
        gens += expand_divided(divided[0], divided[1], p, n)
    return AlgebraPresentation(p, gens, n).poincare_series(n)


def coaction_set(res, gen):
    A = res.abutment
    out = set()
    for a, m in res.coaction.entries[A.index[gen]]:
        for mm, c in a.items():
            if c % res.abutment.p:
                out.add((str(mm), A.monomial_str(m)))
    return out


def test_catalog_names_and_guards():
    assert spectrum("ku", 2, 20).name == "ku"
    # l, ell and bp1 name BP<1>, which is ku at p = 2
    aliases = {"l": "ell", "ell": "ell", "bp1": "ell", "bp0": "hz",
               "hf2": "hf", "hfp": "hf", "hf3": "hf"}
    for alias, name in aliases.items():
        assert spectrum(alias, 2, 20).name == ("ku" if name == "ell" else name), alias
        assert spectrum(alias.upper(), 3, 20).name == name, alias
    refusals = {
        "ku": "ku at odd primes has a non-flat initial term; out of range",
        "ko": "ko is a mod-2 catalog entry",
        "tmf": "tmf is a mod-2 catalog entry",
        "j": "j coincides with ju at odd primes; use ju",
    }
    for name, message in [*refusals.items(), ("NoPe", "unknown spectrum 'nope'")]:
        for p in (3, 5) if name in refusals else (2, 3):
            with pytest.raises(UnsupportedSpectrumError) as exc:
                spectrum(name, p, 20)
            assert str(exc.value) == message
    # BP is only an E4 ring spectrum: the one entry without Hopf-level checks
    served = [(name, p) for name in SPECTRUM_NAMES for p in (2, 3)
              if p == 2 or name not in refusals]
    assert [key for key in served if not spectrum(*key, 20).commutative] == [("bp", 2), ("bp", 3)]


def test_catalog_homology_series():
    ku = spectrum("ku", 2, 8)
    assert ku.homology.poincare_series(8) == [1, 0, 1, 0, 1, 0, 2, 1, 2]
    hf3 = spectrum("hf", 3, 10)
    # A_* at p = 3 through 10: 1, tau0, 0, 0, xi1, tau1+tau0 xi1, tau0 tau1, ...
    assert hf3.homology.poincare_series(6)[:6] == [1, 1, 0, 0, 1, 2]


def test_coaction_counit_and_coassociativity():
    from thhforge.steenrod import milnor_coproduct, milnor_one

    for name, p in (("ku", 2), ("ko", 2), ("ju", 2), ("ell", 3), ("ju", 3)):
        data = spectrum(name, p, 20)
        H = data.homology
        for gname in list(H.index)[:6]:
            if not data.coaction.has_gen(gname):
                continue
            mono = H.gen_monomial(gname)
            nu = dict(data.coaction.nu_monomial(mono))
            # counit: the 1 (x) g term appears with coefficient 1
            assert nu.get((milnor_one(), mono)) == 1
            # comodule coassociativity: (psi (x) 1) nu = (1 (x) nu) nu
            lhs: dict = {}
            for (a, m), c in nu.items():
                for (a1, a2), c2 in milnor_coproduct(a, p).items():
                    key = (a1, a2, m)
                    lhs[key] = (lhs.get(key, 0) + c * c2) % p
            rhs: dict = {}
            for (a, m), c in nu.items():
                for (b, m2), c2 in data.coaction.nu_monomial(m).items():
                    sign = 1
                    key = (a, b, m2)
                    rhs[key] = (rhs.get(key, 0) + c * c2 * sign) % p
            assert {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v
            }, (name, p, gname)


def assert_closed_form_matches_the_complex(data, page, bound):
    closed = {k: v for k, v in presentation_dims_internal(page.algebra, bound).items() if v}
    assert whole_complex_dims(data.homology, bound) == closed


def test_build_e2_cross_check():
    data = spectrum("ku", 2, 24)
    page = bk.build_e2(data, 24)
    assert page.algebra is not None
    bound = bk._budgeted_bound(data.homology, 10, bk.CHAIN_BUDGET)
    assert bound == 10
    assert_closed_form_matches_the_complex(data, page, bound)
    sigma_names = [g.name for g in page.generators() if g.filtration == 1]
    assert "s(xibar1^2)" in sigma_names and "s(xibar3)" in sigma_names


def test_build_e2_nonflat_j():
    data = spectrum("j", 2, 24)
    page = bk.build_e2(data, 24)
    assert page.algebra is None and page.raw_dims is not None
    # degrees of the square-zero factor come from the Steenrod machinery
    assert j_module_degrees()[:3] == (7, 9, 10)
    assert page.raw_dims.get((1, 8), 0) >= 1  # k0 in (q, total degree)


@pytest.mark.parametrize("n", [44, 96, 128])
def test_nonflat_e2_is_the_kunneth_product_by_total_degree(n):
    # the oracle: both factors indexed by (q, internal), the presentation's
    # at twice the bound, multiplied by the dict double loop
    data = spectrum("j", 2, n)
    alg, _ = closed_form_hh(data.homology, n)
    sq = hh_squarezero(list(data.squarezero_factor), n, p=2, max_degree=n)
    oracle = _convolve(presentation_dims_internal(alg, n), sq, n)
    assert bk.build_e2(data, n).raw_dims == {(q, q + t): v for (q, t), v in oracle.items()
                                             if q + t <= n}


def test_collapse_checks():
    assert bk.collapse_check(bk.build_e2(spectrum("ku", 2, 20), 20))
    page = bk.build_e2(spectrum("ju", 2, 20), 20)
    assert not bk.collapse_check(page)  # gamma_2(sb) has filtration 2


def test_obstruction_scan_ju_even():
    page = bk.build_e2(spectrum("ju", 2, 40), 40)
    assert bk.obstruction_scan(page, 40) == []


def test_obstruction_scan_sees_fake_targets():
    # sanity: scanning a page whose primitives do land in a reachable
    # bidegree must report it; fabricate one by shifting the b degree
    data = spectrum("ju", 2, 24)
    page = bk.build_e2(data, 24)
    dims = [
        bk.simultaneous_primitives(page, 1, d) for d in range(3, 10)
    ]
    assert any(dims)  # primitives do exist in filtration 1


def test_primitive_enumeration_ju():
    # simultaneous primitives match E(b){sb, s xibar1^4, s xibar_k} degreewise
    page = bk.build_e2(spectrum("ju", 2, 36), 36)
    prim_degrees = {4: 1, 5: 1, 7: 1, 8: 1, 16: 1, 19: 1, 32: 1, 35: 1}
    for d in range(3, 36):
        got = sum(bk.simultaneous_primitives(page, s, d) for s in range(1, 5))
        assert got == prim_degrees.get(d, 0), d


def _ju2_page(n, coideal=None, xi1_cap=None):
    """ju@2's E2 page, its change-of-rings data replaced where given."""
    data = spectrum("ju", 2, n)
    data.coideal = data.coideal if coideal is None else coideal
    data.xi1_cap = data.xi1_cap if xi1_cap is None else xi1_cap
    return bk.build_e2(data, n)


def _primitive_dims(page, smax, dmax):
    return {(s, d): n for s in range(1, smax + 1) for d in range(dmax + 1)
            if (n := bk.simultaneous_primitives(page, s, d))}


# E(b){sb, s xibar1^4, s xibar2^2, s xibar_k}: b sb and s xibar2^2 span one
# primitive in degree 7, b s xibar1^4 and s xibar3 one in degree 8
_JU2_PRIMITIVES = {(1, d): 1 for d in (4, 5, 7, 8, 16, 19, 32, 35, 64, 67)}


def test_change_of_rings_count_equals_the_full_count():
    # Prim_{A_*}(P) = Prim_{A(1)_*}(P / B+P) for B = H_*(ko): counted on the
    # quotient and on the whole of P (no coideal, no cap), bidegree by bidegree
    ring = _ju2_page(73)
    assert ring.spectrum.xi1_cap == 4 and ring.quotient_base[1] == [ring.algebra.index["b"]]
    full = _ju2_page(73, frozenset(), math.inf)
    assert _primitive_dims(ring, 4, 72) == _primitive_dims(full, 4, 72) == _JU2_PRIMITIVES
    # the coaction on P / B+P carries xibar1^a for a < 4 only (from the terms
    # xibar1 (x) s xibar2^2 and xibar1^2 (x) s xibar1^4), so a cap of 8 would
    # count the same here
    exponents = {sum(a.xi) for s in range(1, 5) for d in range(73)
                 for m in bk._primitive_monomials(ring, s, d)
                 for a, _ in ring.coaction.nu_monomial(m, _xibar1_taubar0)}
    assert exponents == {0, 1, 2}


@pytest.mark.parametrize("coideal, xi1_cap", [("with b", None), (None, 2)])
def test_a_wrong_change_of_rings_fails_the_oracle(coideal, xi1_cap):
    # b is not in A_*, and E_* = A(0)_* (xibar1^2 = 0) is not A_* // H_*(ko)
    if coideal:
        coideal = spectrum("ju", 2, 73).coideal | {"b"}
    assert _primitive_dims(_ju2_page(73, coideal, xi1_cap), 4, 72) != _JU2_PRIMITIVES


def test_the_coideal_is_a_left_coideal_subalgebra():
    # nu(B) lies in A_* (x) B: no H-factor of the coaction of a generator of B has b
    data = spectrum("ju", 2, 128)
    H = data.homology
    assert data.coideal == {g.name for g in H.gens} - {"b"}
    for name in data.coideal:
        for _, mono in data.coaction.entries[H.index[name]]:
            assert "b" not in {H.gens[i].name for i, _ in mono}, name


def test_the_coideal_is_the_homology_of_ko():
    # B = A_* []_{A(1)_*} F_2, so P_B * P_{A(1)_*} = P_{A_*} with the closed forms
    # P_{A_*} = prod_k 1 / (1 - x^{2^k - 1}) and P_{A(1)_*} = (1 + x + x^2 + x^3)(1 + x^3)
    n = 128
    data = spectrum("ju", 2, n)
    B = AlgebraPresentation(2, [g for g in data.homology.gens if g.name in data.coideal], n)
    dual = [1] + [0] * n
    for k in range(1, n.bit_length() + 1):
        for t in range(2 ** k - 1, n + 1):
            dual[t] += dual[t - 2 ** k + 1]
    a1 = [1, 1, 1, 2, 1, 1, 1]
    b = B.poincare_series(n)
    assert [sum(c * b[t - j] for j, c in enumerate(a1) if j <= t) for t in range(n + 1)] == dual


def test_comodule_primitivity_of_suspensions():
    # sigma b on the ju page is a comodule primitive; sigma xibar3 on the
    # ku page is not (its coaction picks up xibar1 (x) sigma xibar2^2)
    ju_page = bk.build_e2(spectrum("ju", 2, 12), 12)
    A = ju_page.algebra
    prims = [m for m in A.bigraded_basis(1, 4) if not ju_page.coaction.generator_components(m)]
    assert [A.monomial_str(m) for m in prims] == ["s(b)"]
    ku_page = bk.build_e2(spectrum("ku", 2, 12), 12)
    B = ku_page.algebra
    sx3 = B.gen_monomial("s(xibar3)")
    assert ku_page.coaction.generator_components(sx3) == {
        ((1, 0), B.gen_monomial("s(xibar2^2)")): 1
    }


def _final_page(name, p, n):
    page = bk.apply_d_pminus1(bk.build_e2(spectrum(name, p, n), n))
    return bk.page_homology(page)[0] if page.differential else page


def _kernel_primitives(page, s, d):
    """The full-basis oracle: the dimension of the common kernel of the
    reduced coproduct and the reduced coaction on every monomial of (s, d)."""
    A, hopf, coact = page.algebra, page.hopf, page.coaction
    basis = A.bigraded_basis(s, d)

    def psi_bar(m):
        out = dict(hopf.psi_monomial(m))
        base, fiber = hopf._split_base(m)
        for key in ((base, fiber, ()), (base, (), fiber)):
            fplin.add_term(out, key, -1, A.p)
        return out

    def nu_bar(m):
        out = dict(coact.nu_monomial(m))
        fplin.add_term(out, (milnor_one(), m), -1, A.p)
        return out

    return len(basis) - fplin.constraint_matrix(basis, [psi_bar, nu_bar], A.p).rank()


def _full_page_dims(page, bound, shift):
    """The whole-page oracle: honest dims through bound of d moving filtration
    by shift, ranked on every monomial of the page, with no split into
    support and cycles."""
    A = page.algebra
    p = A.p
    ranks = {}

    def rank_of(s, d):
        if (s, d) not in ranks:
            src, dst = A.bigraded_basis(s, d), A.bigraded_basis(s + shift, d - 1)
            idx = {m: i for i, m in enumerate(dst)}
            span = fplin.Span(len(dst), p)
            for m in src:
                img = bk.differential_on_monomial(page, m)
                if img:
                    span.add({idx[mm]: c for mm, c in img.items()})
            ranks[(s, d)] = span.rank
        return ranks[(s, d)]

    honest = {}
    for d in range(bound + 1):
        for s in sorted({A.filtration(m) for m in A.monomial_basis(d)}):
            n = len(A.bigraded_basis(s, d))
            if h := n - rank_of(s, d) - rank_of(s - shift, d + 1):
                honest[(s, d)] = h
    return honest


def _reported_dims(new, info):
    """The dims page_homology stands behind, in raw_dims: the candidate's
    series through verified_to when accepted, the honest dims otherwise."""
    if new.algebra is not None:
        assert new.raw_dims == new.algebra.bigraded_series(info["verified_to"])
    return {k: v for k, v in new.raw_dims.items() if v}


def _bokstedt_page(name, p, n):
    """d^{p-1} on a catalog E2 through n, and the dims page_homology reports."""
    page = bk.apply_d_pminus1(bk.build_e2(spectrum(name, p, n), n))
    assert page.differential
    new, info = bk.page_homology(page)
    assert info == {"verified_to": n - 1, "match": True}
    return page, 1 - p, n - 1, _reported_dims(new, info)


def _adams_page(target, n, stem):
    """Adams stage n, d(y) = v1^{r(n)} l_n on P(v1) (x) E(l_n, l_{n+1}) (x) P(y)
    graded by (s, stem), and the dims the engine ranks on it through stem."""
    sched = ad.schedule(target, 8)
    A, differential = ad._stage_page(sched, n, stem + 1)
    page = bk.SSPage(None, sched.r[n], A, differential)
    return page, sched.r[n], stem, bk.honest_dims(A, differential, sched.r[n], stem)


@pytest.mark.parametrize("page_of,args", [
    *[pytest.param(_bokstedt_page, args, id="-".join(map(str, args))) for args in [
        ("hz", 3, 60), ("hf", 5, 60), ("ell", 3, 60), ("ju", 3, 60), ("bp0", 3, 60),
        ("hf", 3, 48)]],
    # the Adams stages, at a positive shift: ku stages 1-3, and ko stage 1,
    # which runs only from the imagined free initial term
    *[pytest.param(_adams_page, args, id="-".join(map(str, args))) for args in [
        ("thh-ku-mod2", 1, 40), ("thh-ku-mod2", 2, 40), ("thh-ku-mod2", 3, 40),
        ("thh-ko-y", 1, 40)]],
])
def test_page_homology_matches_the_full_page_oracle(page_of, args):
    page, shift, bound, reported = page_of(*args)
    assert reported == _full_page_dims(page, bound, shift)


def _tower_gens(p, N, towers):
    """Divided towers on s(x_k) of degree 2a_k, each with an exterior target z_k."""
    gens = []
    for k, a in enumerate(towers):
        gens += [GeneratorSpec(f"z{k}", 2 * a * p - 1, "exterior", filtration=1)]
        gens += expand_divided(f"s(x{k})", 2 * a, p, N, filtration=1, sigma_of=f"x{k}")
    return gens


def _tower_page(p, N, gens):
    """The page on gens with d(gamma_{p^i} s(x_k)) = z_k gamma_{p^i - p} s(x_k);
    every other generator is a d-cycle."""
    A = AlgebraPresentation(p, gens, N)
    page = bk.SSPage(None, 2, A, max_degree=N)
    page.differential = {
        g.name: A.el_mul({A.gen_monomial(f"z{g.sigma_of[1:]}"): 1},
                         A.gamma(f"s({g.sigma_of})", g.gamma_power - p))
        for g in A.gens if g.gamma_power >= p
    }
    return page


def test_wrong_candidate_reports_the_full_page_dims():
    # the differential on gamma_9 is dropped, so the candidate, which still
    # cancels the whole tower above gamma_1 against z, is wrong; gamma_9 and
    # w are d-cycles off the support
    w = GeneratorSpec("w", 7, "exterior", filtration=2)
    page = _tower_page(3, 40, [w] + _tower_gens(3, 40, [1]))
    assert sorted(page.differential) == ["g3(s(x0))", "g9(s(x0))"]
    del page.differential["g9(s(x0))"]
    new, info = bk.page_homology(page)
    assert new.algebra is None and info == {"verified_to": 39, "match": False}
    assert new.raw_dims == _full_page_dims(page, 39, -2)


@hst.composite
def tower_pages(draw):
    p = draw(hst.sampled_from([3, 5]))
    towers = draw(hst.lists(hst.integers(1, 2 if p == 3 else 1), min_size=1, max_size=2))
    N = draw(hst.integers(2 * max(towers) * p, 30 if p == 3 else 24))
    others = []
    for k in range(draw(hst.integers(1, 3))):
        kind = draw(hst.sampled_from(["polynomial", "exterior", "truncated"]))
        deg = draw(hst.integers(1, 12))
        if kind != "exterior":
            deg += deg % 2  # odd degrees are exterior at odd p
        others.append(GeneratorSpec(f"b{k}", deg, kind, height=draw(hst.integers(2, 4)),
                                    filtration=draw(hst.integers(0, 2))))
    page = _tower_page(p, N, draw(hst.permutations(others + _tower_gens(p, N, towers))))
    # dropping a tower differential leaves a wrong candidate and moves the
    # source off the support
    keys = sorted(page.differential)
    for name in draw(hst.lists(hst.sampled_from(keys), max_size=1 if len(keys) > 1 else 0)):
        del page.differential[name]
    return page


@settings(max_examples=40, deadline=None)
@given(tower_pages())
def test_block_dims_equal_the_full_page_oracle(page):
    """Random pages of one or two divided towers over exterior targets, among
    d-cycles of any kind: the dims page_homology reports, from ranks on the
    support tensored with the cycles' series, are the whole-page honest dims."""
    new, info = bk.page_homology(page)
    assert info["verified_to"] == page.max_degree - 1
    assert _reported_dims(new, info) == _full_page_dims(page, page.max_degree - 1,
                                                        1 - page.algebra.p)


@pytest.mark.parametrize("name,p,n", [
    *[(name, 2, 32) for name in ("ju", "ku", "ko", "tmf", "bp")],
    ("hz", 2, 24), ("hf", 2, 20),  # their full bases grow fastest
    *[(name, 3, 40) for name in ("ju", "hz", "ell")], ("hf", 3, 32),
    ("hf", 5, 60),
])
def test_simultaneous_primitives_match_the_kernel_oracle(name, p, n):
    """The primitive monomials ranked by the generator components of the
    coaction span the same space as the kernel of the stacked reduced
    coproduct and coaction over the whole bidegree."""
    page = _final_page(name, p, n)
    for d in range(n + 1):
        for s in range(1, d + 1):
            assert bk.simultaneous_primitives(page, s, d) == _kernel_primitives(page, s, d), (s, d)


def test_obstruction_scan_never_takes_the_full_coaction(monkeypatch):
    # on ju@2's own page P / B+P is empty at every scan target, so the
    # count is taken on the whole of P (no coideal, no cap), where it reads
    # coactions at most targets; every read must be a cut
    page = _ju2_page(73, frozenset(), math.inf)
    nu_monomial, cuts = CoactionTable.nu_monomial, []

    def record(self, m, keep=None):
        cuts.append(keep)
        return nu_monomial(self, m, keep)

    monkeypatch.setattr(CoactionTable, "nu_monomial", record)
    targets = {(g.filtration - r, g.degree - 1) for g in page.generators()
               if g.filtration >= 2 and g.degree <= 72 for r in range(2, g.filtration + 1)}
    assert not any(bk.simultaneous_primitives(page, s, d) for s, d in sorted(targets))
    assert cuts and None not in cuts


def test_scan_refuses_above_the_materialised_coactions():
    # ju at p = 3 has lifted coactions only for xitilde_k, tautilde_k with k <= 2
    page = _final_page("ju", 3, 109)
    assert bk.obstruction_scan(page, 107) == []
    with pytest.raises(bk.CoactionBoundError, match=r"s\(tautilde3\).*degree 107"):
        bk.obstruction_scan(page, 108)


def test_odd_ju_primitive_degrees():
    # at p = 3 the simultaneous primitives of the final page sit at sb
    # and its b-multiple (the tau-towers enter beyond this range)
    data = spectrum("ju", 3, 40)
    page, _ = bk.page_homology(bk.apply_d_pminus1(bk.build_e2(data, 40)))
    got = {
        d: sum(bk.simultaneous_primitives(page, s, d) for s in (1, 2))
        for d in range(10, 30)
    }
    assert got[12] == 1 and got[23] == 1  # sb and b*sb
    assert got[13] == 0 and got[17] == 0  # s(xitilde1^3), s(xitilde2) not primitive


def test_apply_d_pminus1_identity_at_two():
    page = bk.build_e2(spectrum("ku", 2, 20), 20)
    assert bk.apply_d_pminus1(page) is page


def test_d_pminus1_and_page_homology_ell():
    data = spectrum("ell", 3, 61)
    page = bk.apply_d_pminus1(bk.build_e2(data, 61))
    assert "g3(s(taubar2))" in page.differential
    val = page.differential["g3(s(taubar2))"]
    assert [page.algebra.monomial_str(m) for m in val] == ["s(xibar3)"]
    new, info = bk.page_homology(page)
    assert info["match"]
    names = {g.name for g in new.generators()}
    assert "s(xibar3)" not in names and "g3(s(taubar2))" not in names
    assert "s(taubar2)" in names


def _reference_sigma(H, target, substitutions, m):
    """sigma(m) by the recursion sigma(xy) = x sigma(y) + (-1)^{|y|} sigma(x) y,
    independent of the engine's Leibniz loop and its sign twist."""
    p = target.p
    if not m:
        return {}
    (i, e), rest = m[0], m[1:]
    out = target.el_mul({((i, e),): 1}, _reference_sigma(H, target, substitutions, rest))
    sname = bk.sigma_name(H.gens[i].name)
    sg = ({target.gen_monomial(sname): 1} if sname in target.index
          else substitutions.get(sname, {}))
    if sg and e % p:
        sge = target.el_mul({((i, e - 1),) if e > 1 else (): e % p}, sg)
        sign = (-1) ** H.degree(rest)
        for mm, c in target.el_mul(sge, {rest: 1}).items():
            fplin.add_term(out, mm, sign * c, p)
    return out


def _derivation_reference(A, image, m):
    """D(m) as the sum of (-1)^{|x|} x (e g^{e-1} D(g)) y, each term three
    element products, so the sign of moving D(g) past y is the product's."""
    p = A.p
    out: dict = {}
    prefix_deg = 0
    for pos, (i, e) in enumerate(m):
        dval = image.get(A.gens[i].name)
        if dval and e % p:
            mid = A.el_mul({((i, e - 1),) if e > 1 else (): e % p}, dval)
            term = A.el_mul(A.el_mul({m[:pos]: 1}, mid), {m[pos + 1:]: 1})
            for mm, c in term.items():
                fplin.add_term(out, mm, (-1) ** prefix_deg * c, p)
        prefix_deg += A.gens[i].degree * e
    return out


@hst.composite
def derivation_cases(draw):
    """A presentation at p = 3 or 5 and images D(g) of up to three terms
    among its 40 lowest monomials; at least three generators, so a term of
    D(g) and a letter after g in m can both be odd."""
    A = draw(presentations(square_zero=hst.just(False))
             .filter(lambda A: A.p != 2 and len(A.gens) >= 3), label="A")
    monos = [m for d in range(A.N + 1) for m in A.monomial_basis(d)][:40]
    image = {g.name: draw(hst.dictionaries(hst.sampled_from(monos), hst.integers(1, A.p - 1),
                                           max_size=3), label=f"D({g.name})") for g in A.gens}
    return A, image, monos


_ODD_PAST_Y = AlgebraPresentation(5, [GeneratorSpec("x", 2, "polynomial"), GeneratorSpec("y", 1, "exterior"),
                                     GeneratorSpec("z", 3, "exterior")], 10)


@settings(max_examples=100, deadline=None)
@given(derivation_cases())
@example((_ODD_PAST_Y, {"x": {((1, 1),): 1}, "z": {((0, 1), (1, 1)): 2}},
          [((0, 1), (2, 1)), ((0, 2), (2, 1)), ((0, 1), (1, 1), (2, 1))]))
def test_derivation_matches_the_three_product_reference(case):
    # x z at p = 5 with D(x) = y: the one product z y carries the sign
    # (-1)^{|y||z|} = -1, giving y z; the reference multiplies y into place
    A, image, monos = case
    for m in monos:
        assert bk._derivation(A, image, m) == _derivation_reference(A, image, m), A.monomial_str(m)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sigma_matches_the_recursive_reference(monkeypatch, p):
    # sigma on every monomial of H through degree 40, into the E2 page and into
    # the abutment (whose absorbed suspensions are powers of polynomial roots)
    targets = []
    page_coaction = bk._page_coaction

    def spy(data, alg, substitutions=None):
        targets.append((alg, substitutions or {}))
        return page_coaction(data, alg, substitutions)

    monkeypatch.setattr(bk, "_page_coaction", spy)
    seen = set()
    for name in SPECTRUM_NAMES:
        try:
            data = spectrum(name, p, 41)
        except UnsupportedSpectrumError:
            continue
        if not data.flat or data.name in seen:
            continue
        seen.add(data.name)
        targets.clear()
        bk.thh_homology(name, p, 40)
        H = data.homology
        for target, subs in [(bk.build_e2(data, 41).algebra, {}), targets[-1]]:
            smap = bk._sigma_map(H, target, subs)
            for d in range(41):
                for m in H.monomial_basis(d):
                    assert bk._sigma(target, smap, m) == _reference_sigma(H, target, subs, m), \
                        (name, p, H.monomial_str(m))
    assert len(seen) == {2: 9, 3: 7, 5: 7}[p]


def test_d_pminus1_zero_on_b_tower():
    data = spectrum("ju", 3, 40)
    page = bk.apply_d_pminus1(bk.build_e2(data, 40))
    assert "g3(s(b))" not in page.differential  # beta Q vanishes on b


def test_differential_squares_to_zero():
    # on hz at p = 3 the page differential moves the tower over s(taubar1)
    # from degree 18 on (ell has none through 40); d^2 = 0 cannot see the
    # Koszul sign there, the Leibniz rule over every moving monomial does
    page = bk.apply_d_pminus1(bk.build_e2(spectrum("hz", 3, 40), 40))
    A = page.algebra
    d = {m: bk.differential_on_monomial(page, m) for t in range(41) for m in A.monomial_basis(t)}
    moving = [m for m, dm in d.items() if dm]
    assert len(moving) == 54
    for dm in d.values():
        dd: dict = {}
        for mm, c in dm.items():
            for m3, c3 in d[mm].items():
                fplin.add_term(dd, m3, c * c3, 3)
        assert not dd
    for m1 in d:
        for m2 in moving:
            prod, s = A.mul_monomials(m1, m2)
            if prod is None or s == 0 or prod not in d:
                continue
            rhs = A.el_add(A.el_mul(d[m1], {m2: 1}), A.el_mul({m1: 1}, d[m2]),
                           coeff=(-1) ** A.degree(m1) % 3)
            assert {k: s * v % 3 for k, v in d[prod].items()} == rhs, (m1, m2)


@pytest.mark.parametrize(
    "name,p,n,extra,divided",
    [
        ("hf", 2, 32, [(2, "polynomial")], None),
        ("hz", 2, 32, [(3, "exterior"), (4, "polynomial")], None),
        ("ku", 2, 32, [(3, "exterior"), (7, "exterior"), (8, "polynomial")], None),
        ("ko", 2, 32, [(5, "exterior"), (7, "exterior"), (8, "polynomial")], None),
        ("bp", 2, 32, [(3, "exterior"), (7, "exterior"), (15, "exterior"),
                       (31, "exterior")], None),
        ("bp2", 2, 32, [(3, "exterior"), (7, "exterior"), (15, "exterior"),
                        (16, "polynomial")], None),
        ("hf", 3, 40, [(2, "polynomial")], None),
        ("ell", 3, 40, [(5, "exterior"), (17, "exterior"), (18, "polynomial")], None),
        ("bp3", 3, 40, [(5, "exterior"), (17, "exterior")], None),
        ("ju", 2, 40, [(5, "exterior"), (7, "exterior"), (8, "polynomial")],
         ("sb", 4)),
    ],
)
def test_pipeline_series(name, p, n, extra, divided):
    res = bk.thh_homology(name, p, n)
    assert res.series == expected_series(name, p, n, extra, divided)


def test_pipeline_coactions_ku():
    res = bk.thh_homology("ku", 2, 40)
    assert coaction_set(res, "s(xibar3)") == {
        ("1", "s(xibar3)"), ("xibar1", "s(xibar2^2)")
    }


def test_pipeline_coaction_odd_p():
    res = bk.thh_homology("ell", 3, 60)
    assert coaction_set(res, "s(taubar2)") == {
        ("1", "s(taubar2)"), ("taubar0", "s(xibar2)")
    }
    res = bk.thh_homology("ju", 3, 60)
    got = coaction_set(res, "s(tautilde2)")
    assert ("taubar0", "s(xitilde2)") in got and ("1", "s(tautilde2)") in got


def test_pipeline_relations_tmf():
    res = bk.thh_homology("tmf", 2, 40)
    rel = " / ".join(res.relations)
    assert "s(xibar1^8) squares to zero" in rel
    assert "s(xibar4)^2 = s(xibar5)" in rel


def test_nishida_certificates():
    certs = bk.nishida_certificates()
    assert len(certs) == 5 and all(c["ok"] for c in certs)


def test_thh_result_jsonable():
    import json

    res = bk.thh_homology("ku", 2, 24)
    payload = res.to_jsonable()
    json.dumps(payload)  # serializable
    assert payload["collapse"]["method"] == "generator-filtrations"
    assert payload["abutment"]["series"] == res.series


def test_raw_cross_check_bound_is_budgeted():
    data = spectrum("hf", 2, 30)
    # the full dual Steenrod algebra has an enormous one-column complex;
    # the budget must clamp the raw comparison to something feasible
    bound = bk._budgeted_bound(data.homology, 15, 3000)
    assert 4 <= bound < 15
    page = bk.build_e2(data, 30)
    assert page.algebra is not None
    assert_closed_form_matches_the_complex(data, page, bound)


@pytest.mark.parametrize("name,p", [
    (name, p) for name in SPECTRUM_NAMES for p in (2, 3)
    if p == 2 or name not in ("ku", "ko", "tmf", "j")  # mod-2 catalog entries
])
def test_einf_dims_are_the_final_page_series(name, p):
    # E-infinity dims are E2's only when no page replaced the E2 algebra
    n = 40
    res = bk.thh_homology(name, p, n)
    e2 = bk.build_e2(spectrum(name, p, n + 1), n + 1)
    if e2.algebra is None:
        assert res.einf_dims is None
        return
    page = bk.apply_d_pminus1(e2)
    assert page.differential or (name, p) != ("hz", 3)
    if page.differential:
        page, _ = bk.page_homology(page)
        assert res.einf_dims != res.e2_dims
    dims = {(s, d - s): v for (s, d), v in page.algebra.bigraded_series(n).items()}
    assert res.einf_dims == dims


@pytest.mark.parametrize("name,p,n", [("hz", 3, 40), ("hf", 5, 40), ("ell", 3, 60)])
def test_thh_homology_builds_each_page_series_once(name, p, n, monkeypatch):
    # the page check's verified series is the E-infinity table: no
    # presentation's series from the unit is built twice at one bound (ell@3
    # has no differential through 40, so it runs at 60)
    calls, held = {}, []
    series = AlgebraPresentation.bigraded_series

    def counted(self, max_degree=None, times=None):
        if times is None:
            held.append(self)  # keeps each id unique for the test's life
            key = (id(self), max_degree)
            calls[key] = calls.get(key, 0) + 1
        return series(self, max_degree, times)

    monkeypatch.setattr(AlgebraPresentation, "bigraded_series", counted)
    res = bk.thh_homology(name, p, n)
    assert res.pages[-1]["match"] and max(calls.values()) == 1, calls


def test_the_abutment_lists_no_generator_above_the_bound():
    # the page check runs one degree past the bound and settles nothing
    # above it: s(xibar2) in degree 49 is the target of d^4(gamma_5 s(taubar1)),
    # whose source in degree 50 lies past the page checked for hf@5/48
    for n in (48, 49, 60):
        assert "s(xibar2)" not in bk.thh_homology("hf", 5, n).abutment.index, n
    for name in SPECTRUM_NAMES:
        for p in (2, 3, 5):
            for n in range(41):
                try:
                    payload = bk.thh_homology(name, p, n).to_jsonable()
                except UnsupportedSpectrumError:
                    continue
                if payload["abutment"] is None:
                    continue
                degree = {g["name"]: g["degree"] for g in payload["abutment"]["generators"]}
                assert max(degree.values(), default=0) <= n, (name, p, n, degree)
                assert set(payload["abutment"]["coaction"]) <= set(degree), (name, p, n)
