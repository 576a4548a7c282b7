"""Linear algebra substrate: ranks, kernels, quotients, and the dense oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from thhforge import fplin


def dense_rref(rows: list[list[int]], p: int) -> list[list[int]]:
    """Textbook elimination on a numpy copy; independent of the Span path.

    Returns the nonzero rows of the reduced row echelon form, each 1 at
    its leading column and 0 at the other rows' leading columns.
    """
    a = np.array(rows, dtype=np.int64) % p
    if a.size == 0:
        return []
    nr, nc = a.shape
    row = 0
    for col in range(nc):
        piv = None
        for rr in range(row, nr):
            if a[rr, col] % p:
                piv = rr
                break
        if piv is None:
            continue
        a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = (a[row] * inv) % p
        for rr in range(nr):
            if rr != row and a[rr, col]:
                a[rr] = (a[rr] - a[rr, col] * a[row]) % p
        row += 1
    return a[:row].tolist()


def dense_rank_oracle(rows: list[list[int]], p: int) -> int:
    return len(dense_rref(rows, p))


def from_dense(rows: list[list[int]], p: int) -> fplin.SparseMat:
    """The matrix of the dense rows, its row tags the row indices."""
    ncols = len(rows[0]) if rows else 0
    return fplin.SparseMat([{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)], p)


def test_identity_and_zero():
    eye = from_dense([[1, 0], [0, 1]], p=2)
    assert fplin.rank(eye) == 2
    zero = from_dense([[0] * 4] * 3, p=2)
    assert fplin.rank(zero) == 0
    assert len(fplin.kernel_basis(zero)) == 4
    assert fplin.kernel_basis(eye) == []


def test_kernel_of_sum_row():
    m = from_dense([[1, 1]], p=2)
    assert fplin.kernel_basis(m) == [{0: 1, 1: 1}]


def test_quotient_basis_examples():
    reps = fplin.quotient_basis(3, [{0: 1}], p=2)
    assert reps == [{1: 1}, {2: 1}]
    reps = fplin.quotient_basis(2, [{0: 1}, {1: 1}], p=2)
    assert reps == []
    # coinvariants of the swap on a 4-dim tensor square: quotient by x(x)y - y(x)x
    reps = fplin.quotient_basis(4, [{1: 1, 2: 1}], p=2)
    assert len(reps) == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_in_span(p):
    vectors = [{0: 1, 1: 2 % p}, {1: 1, 2: 1}]
    target = {0: 1, 1: (2 + 2) % p, 2: 2 % p}
    sol = fplin.solve_in_span(vectors, target, 3, p)
    assert sol == [1, 2 % p]
    assert fplin.solve_in_span([{0: 1}, {1: 1}], {2: 1}, 3, p) is None


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(min_value=0, max_value=6),
    hst.integers(min_value=1, max_value=7),
    hst.sampled_from([2, 3, 5]),
    hst.randoms(use_true_random=False),
)
def test_solve_in_span_property(k, n, p, rng):
    vectors = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    sparse = [{i: v for i, v in enumerate(vec) if v} for vec in vectors]

    def combination(c: list[int]) -> list[int]:
        return [sum(ci * vec[i] for ci, vec in zip(c, vectors)) % p for i in range(n)]

    # a random combination is solved, though the coefficients need not be the same
    made = combination([rng.randrange(p) for _ in range(k)])
    sol = fplin.solve_in_span(sparse, {i: v for i, v in enumerate(made) if v}, n, p)
    assert sol is not None and len(sol) == k and combination(sol) == made
    # a target outside the span, by the dense oracle, has no solution
    target = [rng.randrange(p) for _ in range(n)]
    sol = fplin.solve_in_span(sparse, {i: v for i, v in enumerate(target) if v}, n, p)
    if dense_rank_oracle(vectors + [target], p) > dense_rank_oracle(vectors, p):
        assert sol is None
    else:
        assert sol is not None and combination(sol) == target


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(min_value=1, max_value=7),
    hst.integers(min_value=1, max_value=8),
    hst.sampled_from([2, 3, 5]),
    hst.randoms(use_true_random=False),
)
def test_kernel_vectors_are_standard(nr, nc, p, rng):
    rows = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
    columns = [[row[j] for row in rows] for j in range(nc)]
    # column j is free when it does not raise the rank of the columns left of it
    free = [j for j in range(nc)
            if dense_rank_oracle(columns[: j + 1], p) == dense_rank_oracle(columns[:j], p)]
    kernel = fplin.kernel_basis(from_dense(rows, p))
    assert [max(vec) for vec in kernel] == free
    for j, vec in zip(free, kernel):
        assert vec[j] == 1
        assert all(vec.get(f, 0) == 0 for f in free if f != j)


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(min_value=1, max_value=8),
    hst.integers(min_value=1, max_value=8),
    hst.sampled_from([2, 3, 5]),
    hst.randoms(use_true_random=False),
)
def test_rank_plus_kernel_is_cols(nr, nc, p, rng):
    rows = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
    m = from_dense(rows, p=p)
    assert fplin.rank(m) + len(fplin.kernel_basis(m)) == nc
    for vec in fplin.kernel_basis(m):
        for row in rows:
            assert sum(row[j] * c for j, c in vec.items()) % p == 0


def test_agreement_with_dense_oracle_gf2():
    rng = np.random.default_rng(2026)
    for _ in range(25):
        nr, nc = rng.integers(1, 64, size=2)
        rows = rng.integers(0, 2, size=(int(nr), int(nc))).tolist()
        m = from_dense(rows, p=2)
        assert fplin.rank(m) == dense_rank_oracle(rows, 2)


def test_agreement_with_dense_oracle_odd():
    rng = np.random.default_rng(7)
    for p in (3, 5):
        for _ in range(15):
            nr, nc = rng.integers(1, 24, size=2)
            rows = rng.integers(0, p, size=(int(nr), int(nc))).tolist()
            m = from_dense(rows, p=p)
            assert fplin.rank(m) == dense_rank_oracle(rows, p)


def test_row_reduction_idempotent():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        rows = rng.integers(0, p, size=(6, 9)).tolist()
        sp = fplin.Span(9, p)
        for r in rows:
            sp.add({j: v for j, v in enumerate(r)})
        reduced = sp.basis()
        sp2 = fplin.Span(9, p)
        for r in reduced:
            sp2.add(r)
        assert sp2.basis() == reduced


@settings(max_examples=80, deadline=None)
@given(
    hst.integers(min_value=0, max_value=8),
    hst.integers(min_value=1, max_value=9),
    hst.sampled_from([2, 3, 5]),
    hst.randoms(use_true_random=False),
)
def test_span_is_the_dense_rref(k, n, p, rng):
    rows = [[rng.choice([0, 0, rng.randrange(p)]) for _ in range(n)] for _ in range(k)]
    sp = fplin.Span(n, p)
    for r in rows:
        sp.add({j: v for j, v in enumerate(r) if v})
    rref = dense_rref(rows, p)
    assert sp.basis() == [{j: v for j, v in enumerate(r) if v} for r in rref]
    assert sp.pivots == sorted(sp.pivots) == [min(b) for b in sp.basis()]
    for row in sp.basis():
        assert [row.get(piv, 0) for piv in sp.pivots] == [int(piv == min(row)) for piv in sp.pivots]
    for _ in range(3):
        vec = [rng.randrange(p) for _ in range(n)]
        residue = sp.reduce({j: v for j, v in enumerate(vec) if v})
        assert all(piv not in residue for piv in sp.pivots)
        # v - reduce(v) lies in the span
        diff = [(v - residue.get(j, 0)) % p for j, v in enumerate(vec)]
        assert dense_rank_oracle(rows + [diff], p) == len(rref)


@settings(max_examples=100, deadline=None)
@given(
    hst.integers(min_value=1, max_value=10),
    hst.lists(hst.tuples(hst.sampled_from(["add", "reduce", "basis"]),
                         hst.integers(min_value=0, max_value=2 ** 10 - 1)), max_size=30),
)
def test_gf2_span_interleaved_calls_match_the_dense_rref(n, calls):
    # adds, residues and bases in any order: the rows a Span keeps between
    # basis() calls are not RREF, but nothing it returns may show that
    sp = fplin.Span(n, 2)
    rows: list[list[int]] = []
    for call, bits in calls:
        dense = [(bits >> j) & 1 for j in range(n)]
        vec = {j: 1 for j, v in enumerate(dense) if v}
        rref = dense_rref(rows, 2)
        if call == "add":
            assert sp.add(vec) == (dense_rank_oracle(rows + [dense], 2) > len(rref))
            rows.append(dense)
            rref = dense_rref(rows, 2)
        elif call == "reduce":
            # subtract the RREF row of every pivot the vector hits
            residue = list(dense)
            for row in rref:
                if residue[row.index(1)]:
                    residue = [(a + b) % 2 for a, b in zip(residue, row)]
            assert sp.reduce(vec) == {j: 1 for j, v in enumerate(residue) if v}
        else:
            assert sp.basis() == [{j: v for j, v in enumerate(r) if v} for r in rref]
        assert sp.rank == len(rref)
        assert sp.pivots == [r.index(1) for r in rref]


def test_span_membership():
    sp = fplin.Span(4, 3)
    sp.add({0: 1, 1: 2})
    sp.add({2: 1})
    assert sp.contains({0: 2, 1: 4 % 3, 2: 1})
    assert not sp.contains({3: 1})


def test_check_prime_refuses_what_is_not_prime():
    for p in (2, 3, 5, 7, 97):
        fplin.check_prime(p)
    for n in (-3, 0, 1, 4, 9, 91):
        with pytest.raises(ValueError, match=f"^not a prime: {n}$"):
            fplin.check_prime(n)
    with pytest.raises(ValueError, match="^not a prime: 4$"):
        fplin.rank(fplin.SparseMat([{0: 1}], 4))  # the Span it builds checks p


@settings(max_examples=80, deadline=None)
@given(
    hst.integers(min_value=0, max_value=7),
    hst.integers(min_value=0, max_value=8),
    hst.sampled_from([2, 3, 5]),
    hst.randoms(use_true_random=False),
)
def test_hashable_row_tags_in_any_order_give_the_dense_rank_and_kernel(nr, nc, p, rng):
    # row i is tagged by a tuple or a string and the tags first turn up in a
    # shuffled order; scalars come unreduced.  The oracle is the same matrix
    # with its rows numbered 0, 1, ... in order.
    rows = [[rng.choice([0, 0, rng.randrange(p)]) for _ in range(nc)] for _ in range(nr)]
    tags = [rng.choice([(i, "r"), f"r{i}"]) for i in range(nr)]
    order = list(range(nr))
    rng.shuffle(order)
    columns = [{tags[i]: rows[i][j] + p * rng.randrange(3) for i in order} for j in range(nc)]
    m = fplin.SparseMat(columns, p)
    rref = dense_rref(rows, p) if nc else []
    pivots = [r.index(1) for r in rref]
    # one standard vector per free column j: 1 at j, minus column j of the RREF at the pivots
    standard = [{**{piv: (-r[j]) % p for piv, r in zip(pivots, rref) if r[j]}, j: 1}
                for j in range(nc) if j not in pivots]
    assert fplin.rank(m) == len(rref)
    assert fplin.kernel_basis(m) == standard


def test_budget_cut_stops_drawing_counts_past_the_budget():
    drawn = []

    def counts():
        for n in (1, 2, 3, 4, 5):
            drawn.append(n)
            yield n

    assert fplin.budget_cut(counts(), 6) == 2  # 1 + 2 + 3 fit, + 4 does not
    assert drawn == [1, 2, 3, 4]
    assert fplin.budget_cut([7], 6) == 0  # degree 0 alone is over budget
    assert fplin.budget_cut([1, 1], 6) == 1 and fplin.budget_cut([], 6) == -1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_linear_and_product_match_their_definitions(p):
    # Z/p[x]: f(x^k) = x^{k+1} + 2 x^k, summed by hand; product by repeated mul
    def mono_mul(a, b):
        return a + b, 1

    def mul(x, y):
        return fplin.mul(x, y, mono_mul, p)

    def f(k):
        return {k + 1: 1, k: 2}

    x = {0: 1, 3: p - 1, 5: 2}
    expected: dict = {}
    for k, c in x.items():
        for key, v in f(k).items():
            expected[key] = (expected.get(key, 0) + c * v) % p
    assert fplin.linear(x, f, p) == {k: v for k, v in expected.items() if v}
    assert fplin.linear({}, f, p) == {}

    one = {0: 1}
    factors = [({1: 1, 0: 1}, 3), ({2: 1}, 1), ({0: 2, 1: 1}, 4)]
    expected = one
    for y, e in factors:
        for _ in range(e):
            expected = mul(expected, y)
    assert fplin.product(factors, mul, one) == expected
    assert fplin.product([], mul, one) == one


@pytest.mark.parametrize("p", [2, 3, 5])
def test_map_rank_is_the_dense_rank(p):
    # image(s) is column s of a random matrix, keyed by target names; the
    # rank cannot depend on the order the targets are listed in
    rng = np.random.default_rng(100 + p)
    for _ in range(20):
        nr, nc = (int(n) for n in rng.integers(0, 12, size=2))
        rows = rng.integers(0, p, size=(nr, nc)) * (rng.random((nr, nc)) < 0.4)
        targets = [f"t{i}" for i in range(nr)]

        def image(s):
            return {targets[i]: int(rows[i, s]) for i in range(nr) if rows[i, s]}

        want = dense_rank_oracle(rows.tolist(), p) if nr and nc else 0
        assert fplin.map_rank(range(nc), targets, image, p) == want
        assert fplin.map_rank(range(nc), targets[::-1], image, p) == want
