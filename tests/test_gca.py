"""Presented algebras: bases, series, divided powers, coactions, primitives."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from thhforge import fplin
from thhforge.bokstedt import build_e2
from thhforge.catalog import spectrum
from thhforge.gca import (
    AlgebraPresentation,
    CoactionTable,
    GeneratorSpec,
    HopfData,
    expand_divided,
    gamma_coefficient,
)
from thhforge.steenrod import MilnorMonomial, milnor_one


def P(name, d):
    return GeneratorSpec(name, d, "polynomial")


def E(name, d):
    return GeneratorSpec(name, d, "exterior")


def test_monomial_basis_examples():
    A = AlgebraPresentation(2, [E("a", 1), P("b", 2)], 12)
    assert [A.monomial_str(m) for m in A.monomial_basis(3)] == ["a b"]
    assert A.monomial_basis(0) == [()]
    with pytest.raises(ValueError):
        A.monomial_basis(13)


@pytest.mark.parametrize("degree, filtration, what", [(-1, 0, "degree -1"),
                                                      (2, -1, "filtration -1")])
def test_negative_degrees_and_filtrations_are_refused(degree, filtration, what):
    with pytest.raises(ValueError, match=f"generator x: negative {what}$"):
        GeneratorSpec("x", degree, "polynomial", filtration=filtration)


def test_square_zero_refuses_idempotents():
    u = GeneratorSpec("u", 0, "truncated", height=2, idempotent=True)
    with pytest.raises(ValueError, match="square-zero"):
        AlgebraPresentation(2, [E("x", 1), u], 4, square_zero=True)


@hst.composite
def presentations(draw, square_zero=hst.booleans(), max_gen_degree=8):
    """Mixed polynomial/exterior/truncated generators with random
    filtrations, and optionally either idempotents or the square-zero
    relation (a square-zero presentation refuses idempotents)."""
    p = draw(hst.sampled_from([2, 3, 5]))
    gens = []
    for k in range(draw(hst.integers(1, 5))):
        d = draw(hst.integers(1, max_gen_degree))
        kind = "exterior" if p != 2 and d % 2 else draw(
            hst.sampled_from(["polynomial", "exterior", "truncated"])
        )
        height = draw(hst.integers(2, 4)) if kind == "truncated" else 0
        gens.append(GeneratorSpec(f"x{k}", d, kind, height=height,
                                  filtration=draw(hst.integers(0, 3))))
    square_zero = draw(square_zero)
    for k in range(0 if square_zero else draw(hst.integers(0, 2))):
        gens.append(GeneratorSpec(f"u{k}", 0, "truncated", height=2, idempotent=True,
                                  filtration=draw(hst.integers(0, 3))))
    return AlgebraPresentation(p, gens, draw(hst.integers(0, 24)), square_zero=square_zero)


@settings(max_examples=80, deadline=None)
@given(presentations())
def test_basis_index_against_series(A):
    # the series are per-generator recurrences on counts, independent of
    # the enumerator they check
    series = A.poincare_series()
    bigraded = None if A.square_zero else A.bigraded_series()
    for d in range(A.N + 1):
        basis = A.monomial_basis(d)
        assert len(basis) == series[d]
        assert basis == sorted(set(basis))
        assert A.reduced_basis(d) == [m for m in basis if m]
        assert (() in basis) == (d == 0)
        if bigraded is None:
            continue
        buckets = []
        # a generator of positive degree adds at most 3 per degree, an idempotent its filtration
        for s in range(3 * d + sum(g.filtration for g in A.gens if g.idempotent) + 1):
            bucket = A.bigraded_basis(s, d)
            assert len(bucket) == bigraded.get((s, d), 0)
            assert bucket == sorted(set(bucket))
            assert all(A.filtration(m) == s for m in bucket)
            buckets.extend(bucket)
        assert sorted(buckets) == basis


def test_poincare_series_examples():
    assert AlgebraPresentation(2, [P("x", 2)], 6).poincare_series() == [1, 0, 1, 0, 1, 0, 1]
    assert AlgebraPresentation(2, [E("b", 3)], 8).poincare_series() == [
        1, 0, 0, 1, 0, 0, 0, 0, 0,
    ]
    # H(ku) at p = 2 truncated at 8; values confirmed against the monomial
    # enumerator (degree 4 holds only the fourth power of the bottom class)
    ku = AlgebraPresentation(
        2, [P("x2", 2), P("x6", 6), P("x7", 7), P("x15", 15)], 8
    )
    series = ku.poincare_series(8)
    assert series == [1, 0, 1, 0, 1, 0, 2, 1, 2]
    assert series == [len(ku.monomial_basis(d)) for d in range(9)]


def test_series_is_convolution_of_factors():
    a = AlgebraPresentation(3, [P("x", 2)], 12).poincare_series()
    b = AlgebraPresentation(3, [E("y", 3)], 12).poincare_series()
    both = AlgebraPresentation(3, [P("x", 2), E("y", 3)], 12).poincare_series()
    assert [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(13)] == both


def _factor_product_series(A, n, times=None):
    """dims by (filtration, degree) through n, as the product of times (the
    unit by default) and the generators' factors, each multiplied out in
    full by quadratic convolution: the oracle for both series of a
    presentation.  An idempotent u is a generator of degree 0 and cap 1:
    its factor is 1 + u."""
    series = {k: v for k, v in ({(0, 0): 1} if times is None else times).items() if k[1] <= n}
    for g in A.gens:
        factor = {}
        cap = g.max_exponent()
        e = 0
        while e * g.degree <= n and (cap is None or e <= cap):
            key = (e * g.filtration, e * g.degree)
            factor[key] = factor.get(key, 0) + 1
            e += 1
        new = {}
        for (s1, t1), c1 in series.items():
            for (s2, t2), c2 in factor.items():
                if t1 + t2 <= n:
                    new[(s1 + s2, t1 + t2)] = new.get((s1 + s2, t1 + t2), 0) + c1 * c2
        series = new
    return series


@settings(max_examples=150, deadline=None)
@given(presentations(square_zero=hst.just(False), max_gen_degree=12), hst.data())
def test_series_equal_the_product_of_factors(A, data):
    # the bound runs from negative through N, and often sits below the
    # smallest generator degree; the times table has dims past 2^64 and
    # degrees above the bound, which the product leaves out
    n = data.draw(hst.integers(-3, A.N), label="bound")
    times = data.draw(hst.dictionaries(hst.tuples(hst.integers(0, 3), hst.integers(0, A.N + 4)),
                                       hst.integers(1, 2 ** 70), max_size=6), label="times")
    if n < 0:
        assert A.poincare_series(n) == []
        assert A.bigraded_series(n) == {} and A.bigraded_series(n, times) == {}
        return
    oracle = _factor_product_series(A, n)
    assert A.bigraded_series(n) == oracle
    assert A.poincare_series(n) == [
        sum(c for (_, t), c in oracle.items() if t == d) for d in range(n + 1)
    ]
    assert A.bigraded_series(n, times) == _factor_product_series(A, n, times)


# totals pass 2^64 (C(70, 35) is about 2^66.6), so digits are 67 bits wide
_WIDE = AlgebraPresentation(
    2, [GeneratorSpec(f"e{i}", 1, "exterior", filtration=i % 4) for i in range(70)], 40)


def _digits(rows, width):
    """{(s, t): dim} read off base-2^width rows one digit at a time."""
    out = {}
    for t, v in enumerate(rows):
        for s in range(v.bit_length() // width + 1):
            if digit := v >> s * width & (1 << width) - 1:
                out[s, t] = digit
    return out


@pytest.mark.parametrize("A, times", [
    (_WIDE, None),
    # each degree lies in one filtration, so its whole total is one digit:
    # the largest total needs every bit of the width
    (AlgebraPresentation(
        2, [GeneratorSpec(f"e{i}", 1, "exterior", filtration=1) for i in range(20)], 20), None),
    # an idempotent u in filtration 1 puts u m one filtration above m
    (AlgebraPresentation(3, [GeneratorSpec("x", 2, "polynomial", filtration=2),
                             GeneratorSpec("y", 3, "exterior", filtration=1),
                             GeneratorSpec("z", 4, "truncated", height=3, filtration=1),
                             GeneratorSpec("u", 0, "truncated", height=2, idempotent=True,
                                           filtration=1)], 24), None),
    # even degrees hold 2^70 - 1 alone, one digit of all 70 bits of the
    # width; (1, 20) lies above the bound
    (AlgebraPresentation(2, [GeneratorSpec("x", 2, "polynomial", filtration=1)], 12),
     {(0, 0): 2 ** 70 - 1, (2, 3): 5, (1, 20): 3}),
], ids=["70-exterior", "one-filtration-per-degree", "idempotent-in-filtration-1",
        "times-one-digit-per-degree"])
def test_series_digits_are_wide_enough(A, times):
    oracle = _factor_product_series(A, A.N, times)
    assert A.bigraded_series(times=times) == oracle
    if times is None:
        assert A.poincare_series() == [sum(c for (_, t), c in oracle.items() if t == d)
                                       for d in range(A.N + 1)]
    width = max(A._rows(A.N, 0, times)).bit_length()
    assert _digits(A._rows(A.N, width, times), width) == oracle
    one_digit = max(oracle.values()).bit_length() == width
    assert one_digit == (A is not _WIDE and not A.gens[-1].idempotent)
    if one_digit:  # one bit short must fail
        assert _digits(A._rows(A.N, width - 1, times), width - 1) != oracle
    if A is _WIDE:
        assert max(A.poincare_series()) > 2 ** 64
    if A.gens[-1].idempotent:  # small enough to count the monomials too
        assert Counter((A.filtration(m), d) for d in range(A.N + 1)
                       for m in A.monomial_basis(d)) == oracle


def test_series_below_the_smallest_generator_degree():
    A = AlgebraPresentation(3, [P("x", 4), E("y", 5)], 12)
    assert A.poincare_series(3) == [1, 0, 0, 0]
    assert A.bigraded_series(3) == {(0, 0): 1}
    assert A.poincare_series(0) == [1]
    assert A.poincare_series(-1) == [] and A.bigraded_series(-1) == {}


def test_series_matches_enumeration():
    A = AlgebraPresentation(
        3,
        [P("x", 2), E("y", 3), GeneratorSpec("z", 4, "truncated", height=3)],
        16,
    )
    series = A.poincare_series()
    for d in range(17):
        assert series[d] == len(A.monomial_basis(d))


def test_divided_power_expansion():
    gens = expand_divided("x", 2, 3, 20)
    assert [(g.name, g.degree, g.height) for g in gens] == [
        ("x", 2, 3), ("g3(x)", 6, 3), ("g9(x)", 18, 3),
    ]
    G = AlgebraPresentation(3, gens, 20)
    # gamma_3 is an independent generator, not x^3
    assert [G.monomial_str(m) for m in G.monomial_basis(6)] == ["g3(x)"]


def test_divided_power_law():
    G = AlgebraPresentation(3, expand_divided("x", 2, 3, 26), 26)
    for i in range(9):
        for j in range(9):
            if 2 * (i + j) > 26:
                continue
            lhs = G.el_mul(G.gamma("x", i), G.gamma("x", j))
            rhs = {
                m: (math.comb(i + j, i) * c) % 3 for m, c in G.gamma("x", i + j).items()
            }
            assert lhs == {m: c for m, c in rhs.items() if c}


def test_gamma_coefficient_unit():
    for p in (2, 3, 5):
        for j in range(1, 30):
            assert gamma_coefficient(j, p) % p != 0


def test_graded_commutativity_and_associativity():
    A = AlgebraPresentation(3, [P("x", 2), E("y", 3), E("z", 5)], 20)
    rng = random.Random(5)
    monos = [m for d in range(12) for m in A.monomial_basis(d)]
    for _ in range(200):
        m1, m2, m3 = (rng.choice(monos) for _ in range(3))
        ab = A.el_mul({m1: 1}, {m2: 1})
        ba = A.el_mul({m2: 1}, {m1: 1})
        sign = -1 if (A.degree(m1) % 2 and A.degree(m2) % 2) else 1
        assert ab == {m: (sign * c) % 3 for m, c in ba.items()}
        lhs = A.el_mul(A.el_mul({m1: 1}, {m2: 1}), {m3: 1})
        rhs = A.el_mul({m1: 1}, A.el_mul({m2: 1}, {m3: 1}))
        assert lhs == rhs


def reference_product(A, m1, m2):
    """m1 * m2 from the letters: exponents add, caps kill, idempotents
    collapse, and each inversion of two odd letters costs a sign."""
    word = [i for m in (m1, m2) for i, e in m for _ in range(e)]
    odd = [i for i in word if A.gens[i].degree % 2]
    inversions = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
    out = []
    for i in sorted(set(word)):
        g, e = A.gens[i], word.count(i)
        if g.idempotent:
            e = 1
        elif g.kind == "exterior" and e > 1 or g.kind == "truncated" and e >= g.height:
            return None, 0
        out.append((i, e))
    return tuple(out), (-1) ** inversions % A.p


@pytest.mark.parametrize("A", [
    AlgebraPresentation(2, [E("a", 1), P("b", 2), GeneratorSpec("c", 3, "truncated", height=3),
                            GeneratorSpec("u", 0, "truncated", height=2, idempotent=True)], 9),
    AlgebraPresentation(3, [P("x", 2), E("y", 1), E("z", 3),
                            GeneratorSpec("w", 4, "truncated", height=3),
                            GeneratorSpec("u", 0, "truncated", height=2, idempotent=True)], 9),
], ids=["p2", "p3"])
def test_memoized_product_matches_the_letter_reference(A):
    _check_products_against_the_letter_reference(A, [m for d in range(A.N + 1)
                                                     for m in A.monomial_basis(d)])


@settings(max_examples=150, deadline=None)
@given(presentations(square_zero=hst.just(False)))
def test_memoized_product_matches_the_letter_reference_on_drawn_presentations(A):
    # up to five generators, so an odd letter can pass two odd letters of
    # the other factor (the fixed presentations have two odd generators);
    # the 60 lowest-degree monomials (generators and short products come
    # first) keep each example quick
    _check_products_against_the_letter_reference(
        A, [m for d in range(A.N + 1) for m in A.monomial_basis(d)][:60])


def _check_products_against_the_letter_reference(A, monos):
    for repeat in range(2):  # the first call fills the memo, the second reads it
        for m1 in monos:
            for m2 in monos:
                assert A.mul_monomials(m1, m2) == reference_product(A, m1, m2), (repeat, m1, m2)


def test_idempotent_generator():
    U = AlgebraPresentation(
        2, [GeneratorSpec("u", 0, "truncated", height=2, idempotent=True)], 4
    )
    u = U.gen_monomial("u")
    assert U.mul_monomials(u, u) == (u, 1)
    assert [U.monomial_str(m) for m in U.monomial_basis(0)] == ["1", "u"]
    with pytest.raises(ValueError):
        AlgebraPresentation(2, [P("x", 0)], 4)


def test_odd_degree_needs_exterior_at_odd_p():
    with pytest.raises(ValueError):
        AlgebraPresentation(3, [P("x", 3)], 6)


def test_square_zero_presentation():
    A = AlgebraPresentation(2, [E("x", 2), E("y", 3)], 10, square_zero=True)
    assert A.mul_monomials(A.gen_monomial("x"), A.gen_monomial("y")) == (None, 0)
    assert A.poincare_series(5) == [1, 0, 1, 1, 0, 0]


def test_coaction_is_algebra_map():
    # coact(x) = 1 (x) x + xibar1 (x) y with y primitive: check on products
    A = AlgebraPresentation(2, [P("x", 2), P("y", 1)], 12)
    c = CoactionTable(A)
    c.set_primitive("y")
    c.set_gen(
        "x",
        [({milnor_one(): 1}, A.gen_monomial("x")),
         ({MilnorMonomial((1,)): 1}, A.gen_monomial("y"))],
    )
    x = A.gen_monomial("x")
    nu_x2 = c.nu_monomial(((0, 2),))
    manual = fplin.mul(c.nu_monomial(x), c.nu_monomial(x), c.mul_monomials, 2)
    assert nu_x2 == manual


_PAGES: dict = {}


def _e2_page(name, p, n=36):
    if (name, p) not in _PAGES:
        _PAGES[(name, p)] = build_e2(spectrum(name, p, n), n)
    return _PAGES[(name, p)]


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from([("ku", 2), ("ju", 2), ("hz", 3), ("ell", 3)]), hst.data())
def test_coaction_and_coproduct_are_multiplicative(case, data):
    """nu and psi are algebra maps into the Koszul-signed tensor products:
    nu(m1 m2) = nu(m1) nu(m2) in A_* (x) H, psi(m1 m2) = psi(m1) psi(m2) in
    H (x)_base H; at p = 3 the odd classes make the signs matter."""
    page = _e2_page(*case)
    A, c, h = page.algebra, page.coaction, page.hopf
    p = A.p
    monos = [m for d in range(18) for m in A.monomial_basis(d)]
    m1 = data.draw(hst.sampled_from(monos))
    m2 = data.draw(hst.sampled_from(monos))
    m, s = A.mul_monomials(m1, m2)

    def scaled(elt):
        return {} if m is None else {k: v * s % p for k, v in elt.items()}

    assert scaled(c.nu_monomial(m) if m is not None else {}) == fplin.mul(
        c.nu_monomial(m1), c.nu_monomial(m2), c.mul_monomials, p)
    assert scaled(h.psi_monomial(m) if m is not None else {}) == fplin.mul(
        h.psi_monomial(m1), h.psi_monomial(m2), h.mul_monomials, p)


def test_comodule_primitives():
    A = AlgebraPresentation(2, [P("x", 2), P("y", 1)], 12)
    c = CoactionTable(A)
    c.set_primitive("y")
    c.set_gen(
        "x",
        [({milnor_one(): 1}, A.gen_monomial("x")),
         ({MilnorMonomial((1,)): 1}, A.gen_monomial("y"))],
    )
    # y^2 is primitive, x is not: Sq1_* x = y is the xibar1 component
    assert [m for m in A.monomial_basis(2) if not c.generator_components(m)] == [((1, 2),)]
    assert c.generator_components(((0, 1),)) == {((1, 0), ((1, 1),)): 1}
    assert c.generator_components(()) == {}  # the unit
    # a change of rings: modulo B+ for B = F_2[y], the term xibar1 (x) y of nu(x)
    # lies in B+M; with xibar1^2 = 0 in E_*, the xibar1^2 (x) y^2 term of nu(x^2)
    # is not read
    x, x2 = ((0, 1),), ((0, 2),)
    assert c.generator_components(x2) == {((2, 0), ((1, 2),)): 1}
    for ideal, cap, m in [([A.index["y"]], math.inf, x), ((), 2, x2)]:
        q = CoactionTable(A, ideal, cap)
        q.entries = dict(c.entries)
        assert q.generator_components(m) == {}


def test_coalgebra_primitives():
    gens = [P("b", 2)] + [
        GeneratorSpec("sx", 3, "exterior", filtration=1, sigma_of="b")
    ] + expand_divided("s(y)", 2, 2, 8, filtration=1, sigma_of="y")
    A = AlgebraPresentation(2, gens, 8)
    h = HopfData(A)
    # sx is primitive; gamma_2(s(y)) and s(y) gamma_2(s(y)) are not; base
    # multiples of primitives are
    prims = {A.monomial_str(m) for d in range(9) for m in A.monomial_basis(d)
             if A.filtration(m) and h.is_primitive(m)}
    assert prims == {"sx", "s(y)", "b sx", "b^2 sx", "b s(y)", "b^2 s(y)", "b^3 s(y)"}
    # they span the kernel of the reduced coproduct over the base
    for d in range(9):
        basis = [m for m in A.monomial_basis(d) if A.filtration(m)]

        def psi_bar(m):
            out = dict(h.psi_monomial(m))
            base, fiber = h._split_base(m)
            for key in ((base, fiber, ()), (base, (), fiber)):
                fplin.add_term(out, key, -1, 2)
            return out

        kernel = len(basis) - fplin.constraint_matrix(basis, [psi_bar], 2).rank()
        assert kernel == sum(map(h.is_primitive, basis)), d


@pytest.mark.parametrize("name, p, n", [("ku", 2, 40), ("ju", 2, 40), ("hz", 3, 40), ("ell", 3, 40),
                                        ("hf", 5, 60)])
def test_the_derived_coproduct_is_counital_and_coassociative(name, p, n):
    """On every positive-filtration generator g of an E2 page, psi(g) read
    off the generators satisfies (eps (x) 1) psi = (1 (x) eps) psi = id and
    (psi (x) 1) psi = (1 (x) psi) psi; the divided towers (ju's s(b) at
    p = 2, the s(taubar_k) at odd p) make the middle terms matter."""
    page = _e2_page(name, p, n)
    A, h = page.algebra, page.hopf
    for i, g in enumerate(A.gens):
        if not g.filtration:
            continue
        psi = h.psi_monomial(((i, 1),))
        assert {v: c for (_, u, v), c in psi.items() if not u} == {((i, 1),): 1}, g.name
        assert {u: c for (_, u, v), c in psi.items() if not v} == {((i, 1),): 1}, g.name
        left: dict = {}
        right: dict = {}
        for (_, u, v), c in psi.items():
            for (_, u1, u2), c1 in h.psi_monomial(u).items():
                fplin.add_term(left, (u1, u2, v), c * c1, p)
            for (_, v1, v2), c2 in h.psi_monomial(v).items():
                fplin.add_term(right, (u, v1, v2), c * c2, p)
        assert left == right, g.name


def test_bigraded_series_tracks_filtration():
    gens = [P("x", 2), GeneratorSpec("sx", 3, "exterior", filtration=1)]
    A = AlgebraPresentation(2, gens, 10)
    dims = A.bigraded_series(10)
    assert dims[(1, 3)] == 1 and dims[(0, 2)] == 1 and dims[(1, 5)] == 1
    assert A.bigraded_basis(1, 5) == [((0, 1), (1, 1))]


def test_monomial_str():
    A = AlgebraPresentation(2, [P("xibar1^2", 2), P("y", 1)], 10)
    assert A.monomial_str(((0, 1), (1, 3))) == "xibar1^2 y^3"
    assert A.monomial_str(()) == "1"


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from([("ju", 2), ("ku", 2), ("hz", 3), ("ell", 3), ("ju", 3)]), hst.data())
def test_generator_components_project_the_coaction(case, data):
    """generator_components(m) is nu(m) cut down to the xibar1^{p^i} and
    taubar0 terms, though it is computed in the quotient F_p[xibar1] (x)
    E(taubar0) of A_*.  Under ju@2's change of rings to A(1)_*, m is drawn
    outside the ideal B+, terms with a factor in B are dropped and only
    xibar1 and xibar1^2 are read."""
    page = _e2_page(*case)
    A, c = page.algebra, page.coaction
    p = A.p

    def outside(m):
        return c.ideal.isdisjoint(i for i, _ in m)

    m = data.draw(hst.sampled_from([m for d in range(30) for m in A.monomial_basis(d)
                                    if all(i in c.entries for i, _ in m) and outside(m)]))
    powers = {p ** k for k in range(8) if p ** k < c.xi1_cap}
    expect = {((sum(a.xi), len(a.tau)), mono): v for (a, mono), v in c.nu_monomial(m).items()
              if outside(mono) and ((a.tau, a.xi) == ((0,), ())
                                    or not a.tau and len(a.xi) == 1 and a.xi[0] in powers)}
    assert c.generator_components(m) == expect
