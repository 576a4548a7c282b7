"""Steenrod algebra: Adem reduction, subalgebras, modules, and the dual."""

from __future__ import annotations

import functools
import heapq
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from thhforge import cli, fplin
from thhforge import steenrod as st
from thhforge.catalog import spectrum
from thhforge.steenrod import MilnorMonomial, SubalgebraSpec


def _adem_reference(word) -> frozenset:
    """Adem reduction letter by letter: the rightmost inadmissible pair
    Sq^a Sq^b (a < 2b) becomes sum_c binom(b-c-1, a-2c) Sq^{a+b-c} Sq^c,
    until every word is admissible.  A rewrite keeps the letters left of
    the pair and raises the first of it, so each new word is larger as a
    tuple; taking words smallest first meets each one once, with its
    final parity."""
    parity = {tuple(word): 1}
    heap = [tuple(word)]
    out = set()
    while heap:
        w = heapq.heappop(heap)
        if not parity.pop(w):
            continue
        for j in reversed(range(len(w) - 1)):
            a, b = w[j], w[j + 1]
            if a < 2 * b:
                for c in range(a // 2 + 1):
                    if math.comb(b - c - 1, a - 2 * c) % 2:
                        v = w[:j] + ((a + b - c, c) if c else (a + b,)) + w[j + 2:]
                        if v not in parity:
                            parity[v] = 0
                            heapq.heappush(heap, v)
                        parity[v] ^= 1
                break
        else:
            out.add(w)
    return frozenset(out)


def _product_reference(x, y) -> frozenset:
    out: set = set()
    for u in x:
        for v in y:
            out.symmetric_difference_update(_adem_reference(u + v))
    return frozenset(out)


def test_adem_instances():
    assert st.element_str(st.adem_reduce((2, 2))) == "Sq3Sq1"
    assert st.adem_reduce((1, 7)) == frozenset()
    assert st.adem_reduce((1, 2)) == st.parse_element("Sq3")
    total = st.steenrod_add(st.adem_reduce((4, 6)), st.adem_reduce((6, 4)))
    assert total == st.parse_element("Sq10+Sq8Sq2+Sq7Sq3")


def test_adem_output_admissible_and_idempotent():
    for word in [(3, 5), (2, 2, 2), (1, 2, 4), (7, 7), (5, 9, 2)]:
        out = st.adem_reduce(word)
        for w in out:
            assert all(w[j] >= 2 * w[j + 1] for j in range(len(w) - 1))
            assert st.adem_reduce(w) == frozenset({w})


def test_adem_rejects_zero_exponent():
    # products reduce without this check, so both public entries keep it
    with pytest.raises(ValueError):
        st.adem_reduce((0, 1))
    with pytest.raises(ValueError):
        st.parse_element("Sq0Sq1")


def test_admissible_enumeration():
    assert st.admissible_monomials(0) == [()]
    assert st.admissible_monomials(3) == [(2, 1), (3,)]
    # degreewise dims of A agree with the Milnor side through 30
    for d in range(31):
        assert len(st.admissible_monomials(d)) == len(st.milnor_basis(2, d))


@pytest.mark.parametrize("budget", [0, 1, 3, 200, 2500])
def test_admissible_count_and_budget_match_the_words(budget):
    # the budget counts admissible words without building them; here they
    # are built, and the cut is the last degree whose running total fits
    total, cut = 0, 40
    for d in range(41):
        words = st.admissible_monomials(d)
        assert st.admissible_count(d, d) == len(words)
        total += len(words)
        if total > budget:
            cut = max(d - 1, 0)
            break
    assert fplin.budget_cut((st.admissible_count(d, d) for d in range(41)), budget) == cut


def test_subalgebra_ranks_and_bases():
    assert st.total_rank(SubalgebraSpec.A(1)) == 8
    assert st.total_rank(SubalgebraSpec.A(2)) == 64
    assert st.total_rank(SubalgebraSpec.A(0)) == 2  # E(Sq^1)
    assert [len(st.steenrod_basis(SubalgebraSpec.A(1), d)) for d in range(7)] == [
        1, 1, 1, 2, 1, 1, 1,
    ]
    # the degree-5 basis vector of A_1 is a genuine sum
    (elt,) = st.steenrod_basis(SubalgebraSpec.A(1), 5)
    assert elt == st.parse_element("Sq5+Sq4Sq1")


def test_exterior_subalgebras():
    assert st.milnor_primitive(1) == st.parse_element("Sq3+Sq2Sq1")
    assert st.total_rank(SubalgebraSpec.E(0, 1)) == 4
    assert st.steenrod_basis(SubalgebraSpec.E(1), 3) == [st.milnor_primitive(1)]
    assert st.steenrod_basis(SubalgebraSpec.full(), 0) == [st.parse_element("1")]


def test_exterior_ids_keep_multi_digit_indices_apart():
    # the id keys the basis memo: E(Q1, Q23) must not be read as E(Q1, Q2, Q3)
    wide, narrow = SubalgebraSpec.parse("E(Q1,Q23)"), SubalgebraSpec.parse("E123")
    assert (wide.qs, wide.id, narrow.id) == ((1, 23), "E(Q1,Q23)", "E123")
    assert SubalgebraSpec.parse(wide.id) == wide
    assert st.steenrod_basis(narrow, 7) == [st.milnor_primitive(2)]
    assert st.steenrod_basis(wide, 7) == []


def test_milnor_primitives_square_zero_and_commute():
    for k in range(4):
        q = st.milnor_primitive(k)
        assert st.steenrod_mul(q, q) == frozenset()
    for i in range(3):
        for j in range(i + 1, 4):
            qi, qj = st.milnor_primitive(i), st.milnor_primitive(j)
            assert st.steenrod_mul(qi, qj) == st.steenrod_mul(qj, qi)


def test_milnor_primitives_are_primitive():
    # Q_k pairs only with xi_{k+1} among the degree-(2^{k+1}-1) monomials
    for k in range(4):
        q = st.milnor_primitive(k)
        d = 2 ** (k + 1) - 1
        for m in st.milnor_basis(2, d, conjugated=False):
            expect = 1 if m.xi == (0,) * k + (1,) else 0
            assert st.pairing(q, m) == expect


def test_quotient_module_pipeline():
    A2 = SubalgebraSpec.A(2)
    M = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2Sq3")])
    assert M.total_rank() == 24
    N = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2")])
    assert N.total_rank() == 8
    one = st.quotient_module(
        A2, [st.parse_element(s) for s in ("Sq1", "Sq2", "Sq4")]
    )
    assert one.total_rank() == 1  # quotient by the augmentation ideal
    K, cok = st.module_map_kernel(st.parse_element("Sq4"), M, N)
    assert K.total_rank() == 17
    assert cok == 1


def test_quotient_of_an_exterior_subalgebra():
    # E(Q0, Q1, Q2) / E.Q0 is the exterior algebra on Q1, Q2 (degrees 3, 7)
    M = st.quotient_module(SubalgebraSpec.E(0, 1, 2), [st.parse_element("Sq1")])
    assert M.poincare() == {0: 1, 3: 1, 7: 1, 10: 1}
    assert M.labels(3) == [st.element_str(st.milnor_primitive(1))]


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_coordinates_match_solve_in_span(n):
    """The kernel's reduce_ambient reads coordinates at the leads of the
    standard kernel vectors and checks that they recombine to the residue;
    a solve over the same vectors must give the same answer."""
    spec = SubalgebraSpec.A(n)
    M = st.quotient_module(spec, [st.parse_element("Sq1"), st.parse_element("Sq2Sq3")])
    N = st.quotient_module(spec, [st.parse_element("Sq1"), st.parse_element("Sq2")])
    K, _ = st.module_map_kernel(st.parse_element("Sq4"), M, N)
    outcomes = set()
    for d in M.degrees():
        kvecs = [M.reduce_ambient(e, d) for e in K.elements.get(d, [])]
        basis = st.steenrod_basis(spec, d)
        elements = basis + K.elements.get(d, []) + [
            st.steenrod_add(k, b) for k in K.elements.get(d, []) for b in basis]
        for e in elements:
            amb = M.reduce_ambient(e, d)
            sol = fplin.solve_in_span(kvecs, amb, M.dim(d), 2)
            expect = None if sol is None else {i: c for i, c in enumerate(sol) if c}
            got = K.reduce_ambient(e, d)
            assert got == expect
            outcomes.add("none" if got is None else "zero" if not got else "kernel")
    assert outcomes == {"none", "zero", "kernel"}


def test_module_map_trivial_cases():
    A1 = SubalgebraSpec.A(1)
    M = st.quotient_module(A1, [st.parse_element("Sq1")])
    ident, cok = st.module_map_kernel(st.parse_element("1"), M, M)
    assert ident.total_rank() == 0 and cok == 0


def test_cyclic_and_annihilator():
    A2 = SubalgebraSpec.A(2)
    M = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2Sq3")])
    N = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2")])
    K, _ = st.module_map_kernel(st.parse_element("Sq4"), M, N)
    good = [st.parse_element(s) for s in ("Sq1", "Sq7", "Sq4Sq6+Sq6Sq4")]
    assert st.cyclic_and_annihilator_check(K, st.parse_element("Sq4"), 4, good)
    assert not st.cyclic_and_annihilator_check(
        K, st.parse_element("Sq4"), 4, [st.parse_element("Sq1")]
    )
    # the quotient presentation itself is cyclic on its unit
    assert st.cyclic_and_annihilator_check(
        N, st.parse_element("1"), 0, [st.parse_element("Sq1"), st.parse_element("Sq2")]
    )


def test_cyclic_check_on_an_exterior_quotient():
    # E(Q0, Q1, Q2)/E.Q0 is cyclic on 1 with annihilator Q0 = Sq1; Q1 only
    # reaches Q1 and Q1 Q2
    M = st.quotient_module(SubalgebraSpec.E(0, 1, 2), [st.parse_element("Sq1")])
    assert st.cyclic_and_annihilator_check(M, st.steenrod_one(), 0, [st.parse_element("Sq1")])
    assert not st.cyclic_and_annihilator_check(
        M, st.milnor_primitive(1), 3, [st.parse_element("Sq1")])


def test_cyclic_check_needs_an_orbit_that_spans():
    # K = {u in A(1) : u Sq2 in A(1) Sq5Sq1} has one class in each degree
    # 3..6: Sq3, Sq3Sq1, Sq5+Sq4Sq1, Sq5Sq1.  The candidates kill Sq3 and
    # their quotient has K's series shifted to degree 3, but Sq1 Sq3 = 0,
    # so the orbit of Sq3 misses degree 4
    A1 = SubalgebraSpec.A(1)
    K, _ = st.module_map_kernel(st.parse_element("Sq2"), st.quotient_module(A1, []),
                                st.quotient_module(A1, [st.parse_element("Sq5Sq1")]))
    assert K.poincare() == {3: 1, 4: 1, 5: 1, 6: 1}
    cands = [st.parse_element("Sq2Sq1"), st.parse_element("Sq5+Sq4Sq1")]
    assert st.quotient_module(A1, cands).poincare() == {0: 1, 1: 1, 2: 1, 3: 1}
    assert not st.cyclic_and_annihilator_check(K, st.parse_element("Sq3"), 3, cands)


def test_action_relations_spot_check():
    A2 = SubalgebraSpec.A(2)
    N = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2")])

    def act(word, d, j):
        """The generator word (rightmost first) on basis element j of N_d."""
        v = {j: 1}
        for g in reversed(word):
            v = N.act(g, d, v)
            d += g
        return v

    # Sq2 Sq2 = Sq3 Sq1 = Sq1 Sq2 Sq1 as operators on any module
    assert all(act((2, 2), d, j) == act((1, 2, 1), d, j)
               for d in N.degrees() for j in range(N.dim(d)))


def test_milnor_basis_examples():
    names = {str(m) for m in st.milnor_basis(2, 3)}
    assert names == {"xibar1^3", "xibar2"}
    assert [str(m) for m in st.milnor_basis(3, 1)] == ["taubar0"]
    assert [str(m) for m in st.milnor_basis(2, 0)] == ["1"]


def test_coproduct_formulas():
    xb2 = MilnorMonomial((0, 1))
    psi = st.milnor_coproduct(xb2, 2)
    keys = {(str(a), str(b)) for (a, b), c in psi.items() if c}
    assert keys == {("1", "xibar2"), ("xibar1", "xibar1^2"), ("xibar2", "1")}
    tb1 = MilnorMonomial((), (1,))
    psi = st.milnor_coproduct(tb1, 3)
    keys = {(str(a), str(b)) for (a, b), c in psi.items() if c}
    assert keys == {("1", "taubar1"), ("taubar0", "xibar1"), ("taubar1", "1")}
    # the unconjugated alphabet: psi(xi_k) = sum xi_{k-i}^{p^i} (x) xi_i and
    # psi(tau_k) = tau_k (x) 1 + sum xi_{k-i}^{p^i} (x) tau_i
    psi = st.milnor_coproduct(MilnorMonomial((0, 1), (), False), 2)
    assert {(str(a), str(b)): c for (a, b), c in psi.items()} == {
        ("1", "xi2"): 1, ("xi1^2", "xi1"): 1, ("xi2", "1"): 1}
    psi = st.milnor_coproduct(MilnorMonomial((), (1,), False), 3)
    assert {(str(a), str(b)): c for (a, b), c in psi.items()} == {
        ("1", "tau1"): 1, ("xi1", "tau0"): 1, ("tau1", "1"): 1}


def test_conjugation():
    # chi(xi_1) = xi_1 up to sign; chi(xi_2) = xi_2 + xi_1^3 at p = 2
    out = st.conjugate(MilnorMonomial((0, 1)), 2)
    assert {str(m): c for m, c in out.items()} == {"xi2": 1, "xi1^3": 1}
    # involution on both alphabets through degree 20 at p = 2, 14 at p = 3
    for p, bound in ((2, 20), (3, 14)):
        for d in range(bound + 1):
            for m in st.milnor_basis(p, d, conjugated=False):
                assert st.antipode(st.antipode({m: 1}, p), p) == {m: 1}


def test_pairing():
    assert st.pairing(st.parse_element("Sq2"), MilnorMonomial((2,), (), False)) == 1
    assert st.pairing(st.parse_element("Sq2Sq1"), MilnorMonomial((0, 1), (), False)) == 1
    assert st.pairing(st.parse_element("Sq3"), MilnorMonomial((0, 1), (), False)) == 0
    with pytest.raises(ValueError):
        st.pairing(st.parse_element("Sq2"), MilnorMonomial((1,), (), False))


def test_pairing_matrix_invertible():
    from thhforge import fplin

    for d in range(1, 21):
        adm = st.admissible_monomials(d)
        mon = st.milnor_basis(2, d, conjugated=False)
        assert len(adm) == len(mon)
        # column j pairs every admissible monomial with the Milnor monomial j
        cols = [{i: st.pairing(frozenset({w}), m) for i, w in enumerate(adm)} for m in mon]
        assert fplin.SparseMat(cols, 2).rank() == len(mon)


def test_dual_quotient_bases():
    # bottom positive-degree classes of (A//A(1))_* and (A//A(2))_*, as the
    # catalog presents the homology of ko and tmf
    ko = spectrum("ko", 2, 8).homology
    assert ko.monomial_basis(4) == [ko.gen_monomial("xibar1^4")]
    assert ko.monomial_basis(1) == []
    tmf = spectrum("tmf", 2, 8).homology
    assert tmf.gen_monomial("xibar1^8") in tmf.monomial_basis(8)


def test_dual_action():
    # a primitive pairs away every positive operation
    terms = [({MilnorMonomial(): 1}, "x")]
    assert st.dual_action(terms, 1) == {}
    terms = [({MilnorMonomial(): 1}, "x"), ({MilnorMonomial((1,)): 1}, "y")]
    assert st.dual_action(terms, 1) == {"y": 1}


def test_parse_and_render_roundtrip():
    for s in ("Sq4", "Sq10+Sq8Sq2+Sq7Sq3", "1", "Sq5+Sq4Sq1"):
        elt = st.parse_element(s)
        assert st.parse_element(st.element_str(elt)) == elt
    assert st.parse_element("Sq^2 Sq^1") == st.parse_element("Sq2Sq1")
    assert st.parse_element("Q1") == st.milnor_primitive(1)


def test_parse_milnor():
    m = st.parse_milnor("xibar1^2 taubar0", 3)
    ((mono, c),) = m.items()
    assert mono.xi == (2,) and mono.tau == (0,) and mono.conjugated and c == 1
    assert st.parse_milnor("1", 2) == {MilnorMonomial(): 1}
    with pytest.raises(ValueError):
        st.parse_milnor("xi1 xibar2", 2)
    # a negative or missing index is refused by name, not read as the unit
    for text, token in [("xi-1", "xi-1"), ("xi1 xi-1", "xi-1"), ("xi", "xi"), ("tau", "tau"),
                        ("taubar-2", "taubar-2"), ("xi1.5^2", "xi1.5")]:
        with pytest.raises(ValueError, match=f"'{re.escape(token)}'"):
            st.parse_milnor(text, 3)
    # an exponent is a positive whole number: xi1^-2 had degree -2, xi2^0 and
    # xi1 xi1^-1 hit an internal check, xi1^x gave int()'s message
    for text, token in [("xi1^-2", "xi1^-2"), ("xi2^0", "xi2^0"), ("xi1 xi1^-1", "xi1^-1"),
                        ("xi1^x", "xi1^x"), ("xi1^2^3", "xi1^2^3")]:
        with pytest.raises(ValueError, match=f"exponent must be a positive whole number in "
                                             f"'{re.escape(token)}'"):
            st.parse_milnor(text, 2)
    # tau_k^2 = 0: tau0^2 was read as tau0, and a repeated tau index hit an
    # internal check
    for text, token, p in [("tau0^2", "tau0", 2), ("tau0 tau0", "tau0", 2), ("tau0^2", "tau0", 3),
                           ("taubar1 taubar1", "taubar1", 3), ("tau1 xi1 tau0 tau1^1", "tau1", 3)]:
        with pytest.raises(ValueError, match=f"^{token} appears squared in '{re.escape(text)}', "
                                             r"but tau_k\^2 = 0$"):
            st.parse_milnor(text, p)
    assert st.parse_milnor("tau1 tau0^1", 3) == {MilnorMonomial((), (0, 1), False): 1}


def _an_dimension(n: int, degree: int) -> int:
    """dim A(n) in one degree from the product formula: A(n)_* has the
    monomial basis xi_1^{r_1} ... xi_{n+1}^{r_{n+1}} with r_j < 2^{n+2-j},
    so its Poincare series is prod_j (1 - t^{2^{n+2-j} |xi_j|}) / (1 - t^{|xi_j|})."""
    series = [1] + [0] * degree
    for j in range(1, n + 2):
        step, count = 2 ** j - 1, 2 ** (n + 2 - j)
        series = [sum(series[k - r * step] for r in range(count) if k - r * step >= 0)
                  for k in range(degree + 1)]
    return series[degree]


def _gf2_rank(elements) -> int:
    """Rank of F_2 sums of words, by elimination on bit masks."""
    index: dict = {}
    pivots: dict[int, int] = {}
    for elt in elements:
        mask = sum(1 << index.setdefault(w, len(index)) for w in elt)
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                break
            mask ^= pivots[top]
    return len(pivots)


@pytest.mark.parametrize("n, top", [(1, None), (2, None), (3, 30)])
def test_an_basis_is_the_annihilator_of_the_profile_ideal(n, top):
    # A(n) is the annihilator of the ideal of A_* spanned by the monomials
    # outside the profile r_j < 2^{n+2-j} (j <= n+1, r_j = 0 beyond), so
    # every basis element pairs to zero with each of them, and there are
    # as many independent ones as monomials inside the profile
    spec = SubalgebraSpec.A(n)
    for d in range(1 + (spec.top_degree if top is None else top)):
        basis = st.steenrod_basis(spec, d)
        assert len(basis) == _gf2_rank(basis) == _an_dimension(n, d), d
        outside = [m for m in st.milnor_basis(2, d, conjugated=False)
                   if len(m.xi) > n + 1
                   or any(r >= 2 ** (n + 2 - j) for j, r in enumerate(m.xi, start=1))]
        for elt in basis:
            for m in outside:
                assert st.pairing(elt, m) == 0, (d, st.element_str(elt), str(m))


def _uncut_closure(n: int, top: int) -> dict[int, list]:
    """A(n) through degree top by the closure with no dimension to stop at:
    every Sq^{2^i} times every basis element of degree d - 2^i, reduced by
    the letter reference, goes into the span, and the basis is its reduced
    rows."""
    bases = {0: [st.steenrod_one()]}
    for d in range(1, top + 1):
        words = st.admissible_monomials(d)
        index = {w: i for i, w in enumerate(words)}
        span = fplin.Span(len(index), 2)
        for i in (2 ** k for k in range(n + 1)):
            for b in bases.get(d - i, []):
                prod = _product_reference(frozenset({(i,)}), b)
                if prod:
                    span.add({index[w]: 1 for w in prod})
        bases[d] = [frozenset(words[j] for j in row) for row in span.basis()]
    return bases


@pytest.mark.parametrize("n, top", [(1, None), (2, None), (3, None), (4, 40)])
def test_an_closure_stopped_at_its_dimension_matches_the_uncut_closure(n, top):
    spec = SubalgebraSpec.A(n)
    top = spec.top_degree if top is None else top
    oracle = _uncut_closure(n, top)
    for d in range(top + 1):
        assert st.steenrod_basis(spec, d) == oracle[d], d


def test_an_closure_from_a_cold_memo_matches_the_full_sweep(monkeypatch):
    # the closure builds only the lower degrees its right products reach;
    # started with nothing memoized, it must still meet the full sweep
    monkeypatch.setattr(st, "_basis_memo", {})
    assert st.steenrod_basis(SubalgebraSpec.A(4), 40) == _uncut_closure(4, 40)[40]
    assert len(st._basis_memo) < 41


def test_an_closure_short_of_its_dimension_is_an_error(monkeypatch, capsys):
    # a target one too high is out of reach: the closure raises rather
    # than return a short basis, and the command fails with one error line
    real = st.an_dimension
    monkeypatch.setattr(st, "an_dimension", lambda n, d: real(n, d) + 1)
    monkeypatch.setattr(st, "_basis_memo", {})
    assert cli.main(["steenrod", "basis", "--subalgebra", "A2", "--degree", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "dim A(2)_1 is 2" in captured.err


@pytest.mark.parametrize("n", range(5))
def test_an_dimension_is_a_poincare_duality_series_of_the_right_total(n):
    # facts about A(n) that neither the product formula nor the profile
    # count states: it has 2^{(n+1)(n+2)/2} elements, and as a finite Hopf
    # algebra it is a Poincare duality algebra with top class in top_degree
    top = SubalgebraSpec.A(n).top_degree
    dims = [st.an_dimension(n, d) for d in range(top + 1)]
    assert sum(dims) == 2 ** ((n + 1) * (n + 2) // 2)
    assert dims == dims[::-1]
    assert [st.an_dimension(n, top + k) for k in (1, 2, 100)] == [0, 0, 0]


@hst.composite
def admissible_elements(draw, max_degree=20):
    """A nonzero homogeneous sum of admissible words of degree <= max_degree."""
    words = st.admissible_monomials(draw(hst.integers(0, max_degree)))
    picked = draw(hst.sets(hst.sampled_from(words), min_size=1))
    return frozenset(picked)


@settings(max_examples=60, deadline=None)
@given(admissible_elements(), hst.lists(admissible_elements(), min_size=1, max_size=4),
       hst.booleans())
def test_products_by_one_element_match_the_letter_reference(g, xs, left):
    # one g multiplies every x in turn, so later products read kernel
    # entries memoized by earlier ones
    for x in xs + xs[:1]:
        got = st.steenrod_mul(g, x) if left else st.steenrod_mul(x, g)
        assert got == (_product_reference(g, x) if left else _product_reference(x, g))


def _admissible_words(max_degree):
    return hst.integers(0, max_degree).flatmap(
        lambda d: hst.sampled_from(st.admissible_monomials(d)))


@settings(max_examples=60, deadline=None)
@given(_admissible_words(40), _admissible_words(40))
def test_word_mask_matches_the_letter_reference(u, v):
    # bit i of a mask is the i-th admissible word of its degree, in
    # lexicographic order
    words = st.admissible_monomials(sum(u) + sum(v))
    mask = st._word_mask(u, v)
    assert mask >> len(words) == 0
    got = frozenset(w for i, w in enumerate(words) if mask >> i & 1)
    assert got == _product_reference({u}, {v})


@pytest.mark.parametrize("m, n", [(m, n) for n in range(1, 4) for m in range(n)])
def test_an_is_free_over_am(m, n):
    # Milnor-Moore: A(n) is free over its sub-Hopf algebra A(m), so
    # A(n) / A(n){Sq^1, ..., Sq^{2^m}} = A(n) (x)_{A(m)} F_2 has rank
    # 2^{(n+1)(n+2)/2} / 2^{(m+1)(m+2)/2}
    gens = [frozenset({(2 ** i,)}) for i in range(m + 1)]
    quotient = st.quotient_module(SubalgebraSpec.A(n), gens)
    assert quotient.total_rank() == 2 ** ((n + 1) * (n + 2) // 2 - (m + 1) * (m + 2) // 2)


@settings(max_examples=25, deadline=None)
@given(hst.lists(hst.integers(1, 64), max_size=6))
def test_adem_reduce_matches_the_letter_reference(word):
    assert st.adem_reduce(word) == _adem_reference(word)


@settings(max_examples=60, deadline=None)
@given(admissible_elements(), admissible_elements())
def test_steenrod_mul_is_adem_reduce_of_the_joined_words(x, y):
    # steenrod_mul reduces joined admissible words without adem_reduce's
    # exponent check; the checked entry must give the same product
    expect: set = set()
    for u in x:
        for v in y:
            expect.symmetric_difference_update(st.adem_reduce(u + v) if u + v else {()})
    assert st.steenrod_mul(x, y) == frozenset(expect)


def _left_ideal(spec, gens, d) -> list:
    """A spanning set of the degree-d part of B{gens}: every b g, b in B's basis."""
    return [st.steenrod_mul(b, g)
            for g in gens for b in st.steenrod_basis(spec, d - st.element_degree(g))]


@hst.composite
def module_maps(draw):
    """A(1) or A(2), one- or two-generator source and target ideals on basis
    elements of degrees 1..6, and f a sum of basis elements of one degree <= 3."""
    spec = SubalgebraSpec.A(draw(hst.sampled_from([1, 2])))

    def element(low, high):
        basis = st.steenrod_basis(spec, draw(hst.integers(low, high)))
        return functools.reduce(st.steenrod_add, draw(hst.sets(hst.sampled_from(basis),
                                                              min_size=1)))

    def ideal():
        return [element(1, 6) for _ in range(draw(hst.integers(1, 2)))]

    return spec, ideal(), ideal(), element(0, 3)


@settings(max_examples=40, deadline=None)
@given(module_maps())
@example((SubalgebraSpec.A(1), [st.parse_element("Sq2")], [st.parse_element("Sq2")],
          st.parse_element("Sq1")))
@example((SubalgebraSpec.A(2), [st.parse_element("Sq1")], [st.parse_element("Sq1")],
          st.parse_element("Sq2")))
def test_module_map_kernel_accepts_exactly_the_well_defined_maps(data):
    # brute force over every degree 0..top, the quotient's zero degrees
    # included: each element of the source ideal, times f, must lie in the
    # target ideal, tested by a rank count over words
    spec, gens, target_gens, f = data
    df = st.element_degree(f)
    top = spec.top_degree
    targets = {d: _left_ideal(spec, target_gens, d) for d in range(top + 1)}
    well_defined = all(
        _gf2_rank(targets.get(d + df, []) + [st.steenrod_mul(x, f)])
        == _gf2_rank(targets.get(d + df, []))
        for d in range(top + 1) for x in _left_ideal(spec, gens, d))
    source = st.quotient_module(spec, gens)
    target = st.quotient_module(spec, target_gens)
    try:
        kernel, cok = st.module_map_kernel(f, source, target)
    except ValueError as exc:
        assert not well_defined and "not well defined" in str(exc)
        return
    assert well_defined
    # the image of B_d f in B/J, counted on all of B_d
    image_rank = sum(
        _gf2_rank(targets.get(d + df, []) + [st.steenrod_mul(b, f)
                                              for b in st.steenrod_basis(spec, d)])
        - _gf2_rank(targets.get(d + df, []))
        for d in range(top + 1))
    assert kernel.total_rank() + image_rank == source.total_rank()
    assert cok == target.total_rank() - image_rank


@functools.lru_cache(maxsize=None)
def _joined_reference(word: tuple) -> frozenset:
    return _adem_reference(word)


def _cached_product_reference(x, y) -> frozenset:
    """_product_reference with the reduction of each joined word memoized."""
    return functools.reduce(frozenset.symmetric_difference,
                            (_joined_reference(u + v) for u in x for v in y), frozenset())


@hst.composite
def ideals_and_maps(draw):
    """A(1), A(2) or A(3); a source ideal I on one or two basis elements of
    degrees 1..8, f a sum of basis elements of one degree <= 4, and a
    target ideal J on one more basis element and the products g f, so
    right multiplication by f is well defined from B/I to B/J."""
    spec = SubalgebraSpec.A(draw(hst.sampled_from([1, 2, 3])))

    def element(low, high):
        basis = st.steenrod_basis(spec, draw(hst.integers(low, min(high, spec.top_degree))))
        return functools.reduce(st.steenrod_add, draw(hst.sets(hst.sampled_from(basis),
                                                              min_size=1)))

    gens = [element(1, 8) for _ in range(draw(hst.integers(1, 2)))]
    f = element(0, 4)
    products = [_cached_product_reference(g, f) for g in gens]
    return spec, gens, f, [element(1, 8)] + [gf for gf in products if gf]


@settings(max_examples=15, deadline=None)
@given(ideals_and_maps())
def test_mask_products_match_the_letter_reference_on_module_ranks(data):
    # every product below is the letter-by-letter reference, none the masks
    spec, gens, f, target_gens = data
    top, df = spec.top_degree, st.element_degree(f)

    def ideal(gs, d):
        return [_cached_product_reference(b, g)
                for g in gs for b in st.steenrod_basis(spec, d - st.element_degree(g))]

    source = st.quotient_module(spec, gens)
    for d, span in source.relations.items():
        assert span.rank == _gf2_rank(ideal(gens, d)), d
    kernel, cok = st.module_map_kernel(f, source, st.quotient_module(spec, target_gens))
    targets = {d: ideal(target_gens, d) for d in range(top + 1)}
    image_rank = 0
    for d in range(top + 1):
        products = [_cached_product_reference(b, f) for b in st.steenrod_basis(spec, d)]
        image = (_gf2_rank(targets.get(d + df, []) + products)
                 - _gf2_rank(targets.get(d + df, [])))
        assert kernel.dim(d) == source.dim(d) - image, d
        image_rank += image
    target_rank = sum(len(st.steenrod_basis(spec, d)) - _gf2_rank(targets[d])
                      for d in range(top + 1))
    assert cok == target_rank - image_rank


def test_module_output_does_not_depend_on_what_the_memos_hold(monkeypatch, capsys):
    # a mask's bits are the admissible words of its degree in lexicographic
    # order, whatever was multiplied before: from cleared memos and from
    # memos warmed by unrelated products, the JSON is the same
    argvs = [["steenrod", "basis", "--subalgebra", "A4", "--degree", "80"],
             ["steenrod", "kernel", "--subalgebra", "A3", "--ideal", "Sq1,Sq2Sq3",
              "--target-ideal", "Sq1,Sq2", "--map", "Sq4"]]

    def run():
        monkeypatch.setattr(st, "_basis_memo", {})
        assert all(cli.main([*argv, "--format", "json"]) == 0 for argv in argvs)
        return capsys.readouterr().out

    def clear():
        for memo in (st._admissible_bounded, st._index, st._adem_pair, st._word_mask):
            memo.cache_clear()

    clear()
    cold = run()
    clear()
    for d in range(3, 90, 11):
        words = st.admissible_monomials(d)
        st._mask_mul(frozenset(words[-3:]), frozenset({(9, 4, 1)}))
        st._mask_mul(frozenset({(6, 3)}), frozenset(words[:2]))
        st.steenrod_mul(frozenset(words[1::5]), st.parse_element("Sq7Sq2"))
    st.steenrod_basis(SubalgebraSpec.A(2), 17)
    assert run() == cold
