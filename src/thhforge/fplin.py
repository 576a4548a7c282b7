"""Exact sparse linear algebra over prime fields F_p.

Every homology, rank, kernel and solve in this package reduces to row
reduction over F_p, and all of it goes through one incremental RREF,
Span, in plain Python: its rows are bit masks at p = 2 and sparse dicts
at odd p.  A matrix, SparseMat, is the list of sparse columns its caller
built, keyed by any hashable row tags, with its prime; check_prime
refuses a p that is not prime where a field is first asked for (a Span,
a presentation, a Milnor basis).  A Span grows as vectors are added to
it; the functions below build their own spans and never modify their
arguments.

The sparse-algebra kernel shared by the algebra layers lives here too:
elements are dicts {monomial: nonzero scalar mod p}, accumulated with
add_term, multiplied with mul from a monomial product (tensor_monomial_mul
builds the Koszul-signed one for tensor products), raised to powers with
power.  A map given on basis elements extends linearly with linear, one
given on generators multiplicatively with product (a product of powers);
map_rank is the rank of a map given on a source basis, and constraint
maps over a basis are stacked by constraint_matrix.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "is_prime",
    "check_prime",
    "SparseMat",
    "Span",
    "rank",
    "kernel_basis",
    "quotient_basis",
    "solve_in_span",
    "budget_cut",
    "add_term",
    "mul",
    "tensor_monomial_mul",
    "power",
    "linear",
    "product",
    "map_rank",
    "constraint_matrix",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime (the field F_p exists)."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")


class SparseMat(NamedTuple):
    """Matrix over F_p whose column j is columns[j], a map {row tag: scalar}.

    Row tags are any hashable keys; each distinct tag is one row.  Row
    order does not change the rank or the (RREF) kernel basis.
    """

    columns: Sequence[Mapping[Hashable, int]]
    p: int

    def rows(self) -> list[dict[int, int]]:
        """The nonzero rows {col: scalar mod p}, in the order their tags first appear."""
        p = self.p
        rows: dict = {}
        for j, col in enumerate(self.columns):
            for key, v in col.items():
                if v % p:
                    rows.setdefault(key, {})[j] = v % p
        return list(rows.values())

    def rank(self) -> int:
        return rank(self)


def _subtract(out: dict[int, int], c: int, row: Mapping[int, int], p: int) -> None:
    """out -= c * row mod p, dropping entries that cancel."""
    for j, v in row.items():
        w = (out.get(j, 0) - c * v) % p
        if w:
            out[j] = w
        else:
            del out[j]


class Span:
    """Incremental RREF row space over F_p with membership queries.

    Vectors go in as {index: scalar} dicts (or int bit masks at p = 2) and
    come out as dicts.  The rows are kept in a dict {pivot: row}, the pivot
    being the row's least index: a bit mask at p = 2, a {col: coeff} dict
    with coefficient 1 at the pivot at odd p.  At odd p the rows are kept
    fully reduced: an RREF row is zero at every other pivot, so reducing a
    vector subtracts only the rows of the pivots it hits.  At p = 2 the rows stay echelon (each zero
    at the pivots older than itself) until basis() back-substitutes them
    once, in descending pivot order; a residue re-reads the pivots it hits
    after each XOR, lowest first.  Either way the pivot set and the
    residue that is zero at every pivot depend only on the span, and so
    does every reduced form.
    """

    def __init__(self, ncols: int, p: int) -> None:
        check_prime(p)
        self.ncols = ncols
        self.p = p
        self._rows: dict[int, int | dict[int, int]] = {}
        self._pivot_mask = 0  # p = 2: one bit per pivot

    def _residue(self, vec: Mapping[int, int] | int) -> int | dict[int, int]:
        """vec reduced against the rows, in the lane's row format."""
        rows = self._rows
        if self.p == 2:
            mask = vec if isinstance(vec, int) else sum(1 << i for i, v in vec.items() if v % 2)
            pivot_mask = self._pivot_mask
            hit = mask & pivot_mask
            while hit:
                mask ^= rows[(hit & -hit).bit_length() - 1]
                hit = mask & pivot_mask
            return mask
        p = self.p
        out = {i: v % p for i, v in vec.items() if v % p}
        for piv, c in [(i, v) for i, v in out.items() if i in rows]:
            _subtract(out, c, rows[piv], p)
        return out

    def _as_dict(self, row) -> dict[int, int]:
        if self.p == 2:
            out = {}
            while row:
                low = row & -row
                out[low.bit_length() - 1] = 1
                row ^= low
            return out
        return dict(sorted(row.items()))

    def add(self, vec: Mapping[int, int] | int) -> bool:
        """Add a vector; True if it enlarged the span."""
        new = self._residue(vec)
        if not new:
            return False
        rows = self._rows
        if self.p == 2:
            piv = (new & -new).bit_length() - 1
            self._pivot_mask |= 1 << piv
        else:
            p = self.p
            piv = min(new)
            inv = pow(new[piv], p - 2, p)
            new = {j: v * inv % p for j, v in new.items()}
            for r in [r for r in rows.values() if piv in r]:
                _subtract(r, r[piv], new, p)
        rows[piv] = new
        return True

    def reduce(self, vec: Mapping[int, int] | int) -> dict[int, int]:
        """Residue of vec after reduction against the span (RREF rows)."""
        return self._as_dict(self._residue(vec))

    def contains(self, vec: Mapping[int, int] | int) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def basis(self) -> list[dict[int, int]]:
        """The RREF rows, in increasing pivot order."""
        rows = self._rows
        if self.p == 2:
            # each row above piv is already reduced, so clearing the higher
            # pivots piv's row hits adds no other pivot back
            pivot_mask = self._pivot_mask
            for piv in sorted(rows, reverse=True):
                row = rows[piv]
                hit = row & pivot_mask & ~(1 << piv)
                while hit:
                    low = hit & -hit
                    row ^= rows[low.bit_length() - 1]
                    hit ^= low
                rows[piv] = row
        return [self._as_dict(rows[piv]) for piv in self.pivots]


def _span_of(vectors: Iterable[Mapping[int, int]], ncols: int, p: int) -> Span:
    sp = Span(ncols, p)
    for v in vectors:
        sp.add(v)
    return sp


def rank(m: SparseMat) -> int:
    """Rank of m over F_p; always <= min(rows, columns)."""
    return _span_of(m.rows(), len(m.columns), m.p).rank


def kernel_basis(m: SparseMat) -> list[dict[int, int]]:
    """Basis of the null space {v : m v = 0}; size = len(m.columns) - rank(m).

    Representatives are the standard ones read off the RREF: one vector
    per free column j, in increasing column order, equal to 1 at j, 0 at
    the other free columns and minus column j of the RREF at the pivots
    (all left of j, so every dict is sorted by index).
    """
    ncols = len(m.columns)
    sp = _span_of(m.rows(), ncols, m.p)
    pivots = sp.pivots
    rows = sp.basis()
    pivot_set = set(pivots)
    out = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = {piv: (-row[j]) % m.p for piv, row in zip(pivots, rows) if j in row}
        vec[j] = 1
        out.append(vec)
    return out


def quotient_basis(space_dim: int, subspace: Sequence[Mapping[int, int]], p: int = 2) -> list[dict[int, int]]:
    """Representatives of a basis of F_p^n / span(subspace).

    Returns the standard basis vectors e_j for the non-pivot columns j of
    the subspace RREF; count = n - rank(subspace).
    """
    pivot_set = set(_span_of(subspace, space_dim, p).pivots)
    return [{j: 1} for j in range(space_dim) if j not in pivot_set]


def solve_in_span(
    vectors: Sequence[Mapping[int, int]],
    target: Mapping[int, int],
    ncols: int,
    p: int,
) -> list[int] | None:
    """Coefficients c with sum(c_i * vectors_i) = target, or None.

    The vectors and the target index into F_p^ncols.  The target lies in
    the span exactly when its column of [vectors | target] is free.  Its
    kernel vector is then the last one: 1 at the target, -c_i at the
    pivot columns and 0 at the other free columns.  The pivots of an RREF
    are the greedy leftmost independent vectors, so c is the same however
    the rows were eliminated.
    """
    k = len(vectors)
    kernel = kernel_basis(SparseMat([*vectors, target], p))
    if not kernel or k not in kernel[-1]:
        return None
    return [(-kernel[-1].get(i, 0)) % p for i in range(k)]


def budget_cut(counts: Iterable[int], budget: int) -> int:
    """The last degree whose running total of counts (one per degree from 0,
    drawn lazily) stays within budget; 0 when degree 0 alone exceeds it."""
    total, t = 0, -1
    for t, n in enumerate(counts):
        total += n
        if total > budget:
            return max(t - 1, 0)
    return t


# ---------------------------------------------------------------------------
# sparse elements of graded F_p-algebras: dicts {monomial: nonzero scalar}

MonomialMul = Callable[[Hashable, Hashable], tuple]  # (m1, m2) -> (m, scalar) or (None, 0)


def add_term(out: dict, key, c: int, p: int) -> None:
    """out[key] += c mod p, dropping a key that cancels to zero.

    A dropped key that comes back is re-inserted at the end, so dict order
    is the order in which keys last became nonzero.
    """
    v = (out.get(key, 0) + c) % p
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def mul(x: Mapping, y: Mapping, monomial_mul: MonomialMul, p: int) -> dict:
    """Product of two sparse elements, bilinear over a monomial product."""
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m, s = monomial_mul(m1, m2)
            if m is not None and s:
                add_term(out, m, c1 * c2 * s, p)
    return out


def tensor_monomial_mul(slots: Sequence[tuple[MonomialMul, Callable]], p: int) -> MonomialMul:
    """Monomial product on tuples (x_0, ..., x_k) in a tensor product of algebras.

    slots holds one (monomial product, degree) pair per tensor factor.  The
    slots multiply in order, stopping at the first that vanishes; the scalar
    carries the Koszul sign (-1)^{sum_{j<i} |y_j||x_i|} of moving each y_j
    past the x_i to its right, which is trivial at p = 2.
    """
    muls = [m for m, _ in slots]
    degrees = [d for _, d in slots]

    def product(x: tuple, y: tuple) -> tuple:
        scalar = 1
        if p != 2:
            moved = 0  # parity of |y_0| + ... + |y_{i-1}|
            for degree, a, b in zip(degrees, x, y):
                if moved and degree(a) % 2:
                    scalar = -scalar
                moved ^= degree(b) % 2
        out = []
        for slot_mul, a, b in zip(muls, x, y):
            m, s = slot_mul(a, b)
            if m is None:
                return None, 0
            out.append(m)
            scalar *= s
        return tuple(out), scalar

    return product


def power(x, e: int, mul: Callable):
    """x**e for e >= 1 by binary powering under the binary product mul."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


def linear(x: Mapping, f: Callable[[Hashable], Mapping], p: int) -> dict:
    """Sum of c * f(m) over the terms c * m of x: f extended linearly."""
    out: dict = {}
    for m, c in x.items():
        for key, v in f(m).items():
            add_term(out, key, c * v, p)
    return out


def product(factors: Iterable[tuple], mul: Callable, one):
    """one * x_1**e_1 * x_2**e_2 * ... over the pairs (x, e), multiplied in order."""
    out = one
    for x, e in factors:
        out = mul(out, power(x, e, mul))
    return out


def map_rank(sources: Sequence, targets: Sequence, image: Callable[[Hashable], Mapping],
             p: int) -> int:
    """Rank of the map sending each source to image(source), a sparse vector
    {target: scalar}; the column indices follow targets in the order given.

    The pivot of a column is its least index, so the order of targets
    chooses the pivots and with them the fill-in of the elimination.  Zero
    images are skipped.
    """
    idx = {m: i for i, m in enumerate(targets)}
    cols = [{idx[m]: v for m, v in img.items()} for s in sources if (img := image(s))]
    return _span_of(cols, len(targets), p).rank


def constraint_matrix(basis: Sequence, constraints: Sequence[Callable], p: int) -> SparseMat:
    """Stack constraint maps into one matrix with a column per basis element.

    Each constraint sends a basis element to a sparse vector {key: scalar};
    row (k, key) holds coordinate key of constraint k.  The kernel is the
    common null space of all constraints.
    """
    return SparseMat([{(k, key): v for k, f in enumerate(constraints) for key, v in f(b).items()}
                      for b in basis], p)
