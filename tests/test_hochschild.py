"""Hochschild complex, homology, shuffle, coproduct, roundtrip, closed forms."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from test_fplin import dense_rref
from test_gca import presentations
from thhforge import bokstedt as bk
from thhforge import fplin
from thhforge.catalog import spectrum
from thhforge.gca import AlgebraPresentation, GeneratorSpec
from thhforge import hochschild as hh
from thhforge.hochschild import HochschildComplex


def P(name, d):
    return GeneratorSpec(name, d, "polynomial")


def E(name, d):
    return GeneratorSpec(name, d, "exterior")


def whole_complex_dims(A, n, qmax=None):
    """The nonzero dims dim C - rank d_q - rank d_{q+1} of A's whole complex,
    which hh_dims builds only for presentations it does not factor."""
    cx = HochschildComplex(A)
    return {(q, t): d for q, t in hh._bidegrees(A, n, qmax) if (d := cx.dim(q, t))}


def idempotent_algebra():
    return AlgebraPresentation(
        2, [GeneratorSpec("u", 0, "truncated", height=2, idempotent=True)], 0
    )


@settings(max_examples=40, deadline=None)
@given(
    p=hst.sampled_from([2, 3]),
    degs=hst.lists(hst.integers(1, 5), min_size=1, max_size=3),
    idempotent=hst.booleans(),
)
def test_chain_counts_match_series(p, degs, idempotent):
    # C_{q,t} = A (x) Abar^{(x) q}: its dims are a convolution of Poincare series
    gens = [E(f"x{k}", d) if d % 2 else P(f"x{k}", d) for k, d in enumerate(degs)]
    if idempotent:
        gens.append(GeneratorSpec("u", 0, "truncated", height=2, idempotent=True))
    A = AlgebraPresentation(p, gens, 8)
    cx = HochschildComplex(A)
    series = A.poincare_series()
    reduced = [series[0] - 1] + series[1:]
    expected = series
    for q in range(4):
        for t in range(9):
            chains = cx.basis(q, t)
            assert len(chains) == expected[t]
            assert chains == sorted(set(chains))
            assert all(len(c) == q + 1 and sum(map(A.degree, c)) == t for c in chains)
        expected = [sum(expected[i] * reduced[t - i] for i in range(t + 1)) for t in range(9)]


def test_boundary_examples():
    A = AlgebraPresentation(2, [P("x", 2)], 10)
    cx = HochschildComplex(A)
    x = A.gen_monomial("x")
    # d(1 (x) x) = x - x = 0 for a commutative algebra
    assert cx.boundary_chain(((), x)) == {}
    U = idempotent_algebra()
    cxu = HochschildComplex(U)
    u = U.gen_monomial("u")
    assert cxu.boundary_chain(((), u, u)) == {((), u): 1}


def test_boundary_squared_vanishes():
    for p in (2, 3):
        A = AlgebraPresentation(p, [P("x", 2), E("y", 3)], 16)
        cx = HochschildComplex(A)
        for (q, t) in [(2, 8), (3, 9), (4, 12), (3, 12), (4, 16)]:
            for c in cx.basis(q, t):
                assert not cx.boundary(cx.boundary_chain(c))


def test_homology_closed_forms():
    for p in (2, 3):
        for kind, d, bound in (("polynomial", 2, 12), ("exterior", 1, 8),
                               ("exterior", 3, 12), ("polynomial", 4, 12)):
            A = AlgebraPresentation(p, [GeneratorSpec("x", d, kind)], 2 * bound)
            raw = hh.hh_dims(A, bound)
            cf, _ = hh.closed_form_hh(A, 2 * bound)
            closed = {k: v for k, v in hh.presentation_dims_internal(cf, bound).items() if v}
            assert raw == closed, (p, kind, d)


def test_closed_form_rejects_truncated_input():
    A = AlgebraPresentation(3, [GeneratorSpec("x", 2, "truncated", height=3)], 10)
    with pytest.raises(ValueError):
        hh.closed_form_hh(A)


def test_kunneth_on_two_generators():
    A = AlgebraPresentation(2, [P("x", 2), E("y", 1)], 16)
    raw = whole_complex_dims(A, 8)
    cf, _ = hh.closed_form_hh(A, 16)
    closed = {k: v for k, v in hh.presentation_dims_internal(cf, 8).items() if v}
    assert raw == closed


def test_homology_computes_each_boundary_once(monkeypatch):
    # each chain's boundary is a kernel column at (q, t) and an image row at
    # (q - 1, t); it was computed for both (344 calls on 177 chains here)
    calls = []
    boundary_chain = HochschildComplex.boundary_chain
    monkeypatch.setattr(HochschildComplex, "boundary_chain",
                        lambda cx, c: calls.append(c) or boundary_chain(cx, c))
    out = hh.hh_homology(AlgebraPresentation(3, [P("x", 2), E("y", 3)], 10), 10)
    assert len(calls) == len(set(calls)) == 177
    assert sum(map(len, out.values())) == 37


def test_idempotent_homology():
    U = idempotent_algebra()
    dims = hh.hh_dims(U, 0, qmax=6)
    assert dims == {(0, 0): 2}


def test_qmax_required_for_degree_zero_content():
    with pytest.raises(ValueError):
        hh.hh_homology(idempotent_algebra(), 0)
    with pytest.raises(ValueError):
        hh.hh_dims(idempotent_algebra(), 0)


@settings(max_examples=100, deadline=None)
@given(presentations(), hst.integers(0, 3))
@example(AlgebraPresentation(3, [GeneratorSpec("x", 2, "truncated", height=3), E("y", 1)], 8), 3)
@example(AlgebraPresentation(2, [E("x", 1), E("y", 2)], 6, square_zero=True), 3)
@example(AlgebraPresentation(3, [E("x", 1), E("y", 2)], 6, square_zero=True), 3)
def test_dims_from_ranks_count_the_classes(A, qmax):
    # dim C - rank d_q - rank d_{q+1} against the counted representatives,
    # through the last degree n whose complex (q <= qmax + 1) has <= 400 chains
    cx = HochschildComplex(A)
    chains, n = 0, -1
    while n < min(A.N, 8):
        chains += sum(len(cx.basis(q, n + 1)) for q in range(qmax + 2))
        if chains > 400:
            break
        n += 1
    classes = hh.hh_homology(A, n, qmax)
    assert hh.hh_dims(A, n, qmax) == {k: len(v) for k, v in classes.items()}
    for t in range(n + 1):
        for q in range(qmax + 2):
            for c in cx.basis(q, t):
                assert cx.boundary(cx.boundary_chain(c)) == {}


@settings(max_examples=60, deadline=None)
@given(presentations(square_zero=hst.just(False)), hst.integers(0, 3))
@example(AlgebraPresentation(2, [P("x", 2), P("y", 2)], 8), 1)
@example(AlgebraPresentation(3, [P("x", 2), E("y", 3), E("z", 1)], 8), 2)
def test_factored_dims_equal_the_whole_complex(A, qmax):
    # Kunneth over the one-generator factors against the complex of the
    # whole tensor product, through the last degree n > qmax whose complex
    # (q <= qmax + 1) has at most 600 chains
    A = AlgebraPresentation(A.p, [g for g in A.gens if not g.idempotent], A.N)
    assume(len(A.gens) > 1)
    cx = HochschildComplex(A)
    chains, n = 0, -1
    while n < min(A.N, 10):
        chains += sum(len(cx.basis(q, n + 1)) for q in range(qmax + 2))
        if chains > 600:
            break
        n += 1
    assume(n > qmax)
    assert hh.hh_dims(A, n, qmax) == whole_complex_dims(A, n, qmax)


@settings(max_examples=60, deadline=None)
@given(presentations(max_gen_degree=6))
@example(AlgebraPresentation(3, [P("x", 2), E("y", 3)], 10))
@example(AlgebraPresentation(2, [GeneratorSpec("x", 1, "truncated", height=3)], 10))
def test_rank_is_the_dense_rank_of_the_boundary(A):
    # the oracle is textbook elimination on the boundary with the target
    # chains in ascending order, for q <= 4 and t <= 10 while the complex
    # has at most 2000 chains, on every boundary with at most 60 source
    # and 60 target chains
    cx = HochschildComplex(A)
    for t in range(bk._budgeted_bound(A, min(A.N, 10), 2000, qmax=4) + 1):
        for q in range(1, 5):
            src, dst = cx.basis(q, t), cx.basis(q - 1, t)
            if len(src) > 60 or len(dst) > 60:
                continue
            rows = [[b.get(d, 0) for d in dst] for b in map(cx.boundary_chain, src)]
            assert cx.rank(q, t) == len(dense_rref(rows, A.p)), (q, t)


@settings(max_examples=100, deadline=None)
@given(presentations(), hst.integers(0, 3), hst.integers(0, 400))
def test_chain_budget_cut_matches_the_enumerated_chains(A, qmax, budget):
    # the budget cut is the last t whose running total of chains C_q,t,
    # q <= qmax, stays within budget; here the chains are enumerated
    cx = HochschildComplex(A)
    bound = min(A.N, 6)
    total, cut = 0, bound
    for t in range(bound + 1):
        total += sum(len(cx.basis(q, t)) for q in range(qmax + 1))
        if total > budget:
            cut = max(t - 1, 0)
            break
    assert bk._budgeted_bound(A, bound, budget, qmax) == cut


def test_divided_power_representatives_are_cycles():
    for p in (2, 3):
        A = AlgebraPresentation(p, [E("x", 1)], 10)
        cx = HochschildComplex(A)
        x = A.gen_monomial("x")
        for i in range(1, 7):
            assert not cx.boundary_chain(((),) + (x,) * i)


def test_shuffle_squares():
    E2 = AlgebraPresentation(2, [E("x", 1)], 10)
    x = E2.gen_monomial("x")
    sx = {((), x): 1}
    assert hh.shuffle_product(E2, sx, sx) == {}
    E3 = AlgebraPresentation(3, [E("x", 1)], 10)
    x3 = E3.gen_monomial("x")
    sx3 = {((), x3): 1}
    assert hh.shuffle_product(E3, sx3, sx3) == {((), x3, x3): 2}


def test_shuffle_unit_and_commutativity():
    A = AlgebraPresentation(2, [P("x", 2)], 12)
    x = A.gen_monomial("x")
    sx = {((), x): 1}
    one = {((),): 1}
    assert hh.shuffle_product(A, one, sx) == sx
    # graded commutativity of odd classes at p = 2: sx*sy + sy*sx = 0
    B = AlgebraPresentation(2, [E("x", 1), E("y", 3)], 12)
    sx = {((), B.gen_monomial("x")): 1}
    sy = {((), B.gen_monomial("y")): 1}
    ab = hh.shuffle_product(B, sx, sy)
    ba = hh.shuffle_product(B, sy, sx)
    total = dict(ab)
    for k, v in ba.items():
        total[k] = (total.get(k, 0) + v) % 2
    assert not any(total.values())


def test_shuffle_of_cycles_is_cycle():
    for p in (2, 3):
        A = AlgebraPresentation(p, [P("x", 2), E("y", 3)], 20)
        cx = HochschildComplex(A)
        sx = {((), A.gen_monomial("x")): 1}
        sy = {((), A.gen_monomial("y")): 1}
        prod = hh.shuffle_product(A, sx, sy)
        assert prod and not cx.boundary(prod)


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from([2, 3]), hst.sampled_from([(P("x", 2), E("y", 3)),
                                                  (E("x", 1), P("y", 4))]), hst.data())
def test_shuffle_product_is_a_derivation(p, gens, data):
    # Leibniz on basis chains: d(x*y) = dx*y + (-1)^q x*dy, q the Hochschild
    # degree of x (a sign that also carries its internal degree fails)
    A = AlgebraPresentation(p, list(gens), 24)
    cx = HochschildComplex(A)

    def chain():
        q, t = data.draw(hst.integers(0, 3)), data.draw(hst.integers(0, 9))
        basis = cx.basis(q, t)
        assume(basis)
        return q, {data.draw(hst.sampled_from(basis)): 1}

    (q, x), (_, y) = chain(), chain()
    rhs = hh.shuffle_product(A, cx.boundary(x), y)
    for c, v in hh.shuffle_product(A, x, cx.boundary(y)).items():
        fplin.add_term(rhs, c, (-1) ** q * v, p)
    assert cx.boundary(hh.shuffle_product(A, x, y)) == rhs


def test_shuffle_bidegree_commutativity_odd_p():
    import itertools

    A = AlgebraPresentation(3, [P("x", 2), E("y", 3)], 20)
    H = hh.hh_homology(A, 8)
    reps = [(k, c) for k, classes in H.items() for c in classes]
    for (k1, c1), (k2, c2) in itertools.product(reps, repeat=2):
        uv = hh.shuffle_product(A, c1.element(), c2.element())
        vu = hh.shuffle_product(A, c2.element(), c1.element())
        sign = (-1) ** (k1[0] * k2[0] + k1[1] * k2[1])
        assert uv == {m: (sign * c) % 3 for m, c in vu.items() if (sign * c) % 3}


def _reference_shuffles(i, j):
    """All interleavings of 0..i-1 (tag 0) and 0..j-1 (tag 1), order kept:
    the recursive enumeration shuffle_product used before it walked
    itertools.combinations."""
    if i == 0:
        yield (1,) * j
        return
    if j == 0:
        yield (0,) * i
        return
    for rest in _reference_shuffles(i - 1, j):
        yield (0,) + rest
    for rest in _reference_shuffles(i, j - 1):
        yield (1,) + rest


def _reference_shuffle_sign(A, a, b, pattern):
    """Sign of one interleaving: -(-1)^{|a||b|} per crossing, counted pairwise."""
    if A.p == 2:
        return 1
    sign = 1
    b_placed = []  # internal degrees of b-slots already placed
    ia = ib = 0
    for tag in pattern:
        if tag == 0:
            da = A.degree(a[ia])
            for db in b_placed:
                if not (da % 2 and db % 2):
                    sign = -sign
            ia += 1
        else:
            b_placed.append(A.degree(b[ib]))
            ib += 1
    return sign


def _reference_shuffle_product(A, x, y):
    p = A.p
    out = {}
    for c1, v1 in x.items():
        a = c1[1:]
        for c2, v2 in y.items():
            b = c2[1:]
            coeff0 = v1 * v2
            if p != 2 and A.degree(c2[0]) % 2:
                if sum(A.degree(m) for m in a) % 2:
                    coeff0 = -coeff0
            m0, s0 = A.mul_monomials(c1[0], c2[0])
            if m0 is None or s0 == 0:
                continue
            coeff0 *= s0
            for pattern in _reference_shuffles(len(a), len(b)):
                ia, ib = iter(a), iter(b)
                slots = tuple(next(ib) if tag else next(ia) for tag in pattern)
                sign = _reference_shuffle_sign(A, a, b, pattern)
                fplin.add_term(out, (m0,) + slots, coeff0 * sign, p)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shuffle_product_matches_the_recursive_reference(p):
    # same terms, same coefficients and the same dict order, on random
    # chains with odd and even slots and odd and even coefficient slots
    import random

    rng = random.Random(p)
    for gens in [(P("x", 2), E("y", 3)), (E("x", 1), P("y", 4)), (E("x", 1), E("y", 3))]:
        A = AlgebraPresentation(p, list(gens), 12)
        cx = HochschildComplex(A)
        chains = [c for q in range(4) for t in range(10) for c in cx.basis(q, t)]
        for _ in range(30):
            x = {c: rng.randrange(1, p) for c in rng.sample(chains, 3)}
            y = {c: rng.randrange(1, p) for c in rng.sample(chains, 3)}
            assert (list(hh.shuffle_product(A, x, y).items())
                    == list(_reference_shuffle_product(A, x, y).items()))


def test_chain_coproduct_examples():
    A = AlgebraPresentation(2, [E("x", 1)], 8)
    x = A.gen_monomial("x")
    psi = hh.chain_coproduct(A, {((), x): 1})
    assert psi == {((((),), ((), x))): 1, ((((), x), ((),))): 1}
    psi2 = hh.chain_coproduct(A, {((), x, x): 1})
    assert psi2 == {
        ((((),), ((), x, x))): 1,
        ((((), x), ((), x))): 1,
        ((((), x, x), ((),))): 1,
    }
    assert hh.chain_coproduct(A, {((),): 1}) == {((((),), ((),))): 1}


def test_coproduct_on_classes():
    P2 = AlgebraPresentation(2, [P("x", 2)], 12)
    H = hh.hh_homology(P2, 8)
    (sx,) = H[(1, 2)]
    res = hh.coproduct_on_class(P2, sx, H)
    shapes = {((a.q, a.t), (b.q, b.t)) for (a, b), c in res.items() if c}
    assert shapes == {((0, 0), (1, 2)), ((1, 2), (0, 0))}
    E2 = AlgebraPresentation(2, [E("x", 1)], 12)
    HE = hh.hh_homology(E2, 6)
    (g2,) = HE[(2, 2)]
    res = hh.coproduct_on_class(E2, g2, HE)
    shapes = sorted(((a.q, a.t), (b.q, b.t)) for (a, b), c in res.items() if c)
    assert shapes == [((0, 0), (2, 2)), ((1, 1), (1, 1)), ((2, 2), (0, 0))]


@pytest.mark.parametrize("algebra,t", [
    (lambda: AlgebraPresentation(2, [P("x", 2), P("y", 4)], 14), 12),
    (lambda: spectrum("ku", 2, 16).homology, 16),
    (lambda: spectrum("ju", 2, 16).homology, 16),
    (lambda: spectrum("hz", 3, 20).homology, 20),
    (lambda: AlgebraPresentation(3, [P("x", 2), E("y", 3)], 14), 14),
], ids=["P(x2)P(y4)@2", "ku@2", "ju@2", "hz@3", "P(x2)E(y3)@3"])
def test_coproduct_projects_every_class_of_a_smooth_algebra(algebra, t):
    # HH of a free commutative algebra is free over it, so every class has
    # a Kunneth projection, and the counit leaves the term class (x) 1;
    # canonical tensors move base factors left, out of the (q1, t1) x
    # (q2, t2) blocks of the two factors
    A = algebra()
    H = hh.hh_homology(A, t)
    (unit,) = H[(0, 0)]
    for classes in H.values():
        for cls in classes:
            assert hh.coproduct_on_class(A, cls, H).get((cls, unit)) == 1


def test_coproduct_of_suspensions_over_two_generators():
    A = AlgebraPresentation(2, [P("x", 2), P("y", 4)], 14)
    H = hh.hh_homology(A, 12)
    (unit,) = H[(0, 0)]
    sx = H[(1, 2)][0]
    assert hh.coproduct_on_class(A, sx, H) == {(sx, unit): 1, (unit, sx): 1}
    # x sx = x (sx (x) 1 + 1 (x) sx), reported with the base factor on the left
    (x,) = H[(0, 2)]
    xsx = next(c for c in H[(1, 4)] if c.rep == (((((0, 1),), ((0, 1),)), 1),))
    assert hh.coproduct_on_class(A, xsx, H) == {(xsx, unit): 1, (x, sx): 1}


def test_co_leibniz():
    for p in (2, 3):
        A = AlgebraPresentation(p, [P("x", 2), E("y", 3)], 14)
        cx = HochschildComplex(A)
        for (q, t) in [(1, 5), (2, 7), (2, 8), (3, 9), (3, 11)]:
            for c in cx.basis(q, t):
                lhs = hh.chain_coproduct(A, cx.boundary_chain(c))
                rhs = hh.tensor_boundary(A, hh.chain_coproduct(A, {c: 1}))
                assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(
    p=hst.sampled_from([2, 3, 5]),
    degs=hst.lists(hst.integers(1, 4), min_size=1, max_size=3),
    qmax=hst.integers(0, 4),
    tmax=hst.integers(0, 8),
)
@example(p=2, degs=[1], qmax=5, tmax=9)
@example(p=3, degs=[1], qmax=5, tmax=9)
@example(p=2, degs=[1, 1], qmax=5, tmax=9)
@example(p=3, degs=[1, 1], qmax=5, tmax=9)
@example(p=2, degs=[2, 3, 4], qmax=5, tmax=9)
@example(p=3, degs=[2, 3, 4], qmax=5, tmax=9)
# letters of degree >= 3 with qmax above tmax // 3: no word longer than tmax // 3 has degree <= tmax
@example(p=2, degs=[3, 4], qmax=5, tmax=12)
@example(p=3, degs=[3], qmax=5, tmax=12)
@example(p=5, degs=[4, 3], qmax=4, tmax=11)
def test_square_zero_vs_presented(p, degs, qmax, tmax):
    # the necklace count against the honest normalized complex of k + V
    vee = [(f"x{i}", d) for i, d in enumerate(degs)]
    sq = hh.hh_squarezero(vee, qmax, p=p, max_degree=tmax)
    A = AlgebraPresentation(p, [E(n, d) for n, d in vee], tmax, square_zero=True)
    assert sq == hh.hh_dims(A, tmax, qmax=qmax)


def test_square_zero_refuses_nonpositive_letters():
    for vee in ([("a", 0), ("b", 1)], [("a", -1)]):
        with pytest.raises(ValueError, match="positive degree: a"):
            hh.hh_squarezero(vee, 3, p=2)


def test_square_zero_rank5_example():
    sq = hh.hh_squarezero([("x", 1), ("y", 1)], 1, p=2)
    assert sum(v for (q, t), v in sq.items() if q == 1) == 5


def test_bar_roundtrip():
    P2 = AlgebraPresentation(2, [P("x", 2)], 8)
    assert hh.bar_roundtrip_check(P2, 2, 8)
    E3 = AlgebraPresentation(3, [E("x", 1)], 6)
    assert hh.bar_roundtrip_check(E3, 3, 6)
