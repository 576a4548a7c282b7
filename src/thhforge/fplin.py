"""Exact sparse linear algebra over prime fields F_p.

Every homology, rank, kernel and solve in this package reduces to row
reduction over F_p, and all of it goes through one incremental RREF,
Span.  Two storage lanes: bit-packed rows (Python ints) over F_2, and
numpy integer rows at odd primes.  All public values are immutable after
construction and all operations are pure, so concurrent read-only use
is safe.

The sparse-algebra kernel shared by the algebra layers lives here too:
elements are dicts {monomial: nonzero scalar mod p}, accumulated with
add_term, multiplied with mul from a monomial product (tensor_monomial_mul
builds the Koszul-signed one for tensor products), raised to powers with
power, and constraint maps over a basis are stacked by constraint_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "PrimeField",
    "is_prime",
    "SparseMat",
    "Span",
    "rank",
    "kernel_basis",
    "quotient_basis",
    "solve_in_span",
    "add_term",
    "mul",
    "tensor_monomial_mul",
    "power",
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


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic mod a prime p; every nonzero element is invertible."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return pow(a, self.p - 2, self.p)


@dataclass(frozen=True)
class SparseMat:
    """Sparse matrix over F_p; (row, col) pairs distinct, scalars nonzero."""

    nrows: int
    ncols: int
    entries: tuple[tuple[int, int, int], ...]
    p: int = 2

    def __post_init__(self) -> None:
        PrimeField(self.p)
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.nrows and 0 <= c < self.ncols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if v % self.p == 0:
                raise ValueError("stored zero scalar")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))

    @staticmethod
    def from_rows(rows: Sequence[Mapping[int, int]], ncols: int, p: int = 2) -> "SparseMat":
        ents = []
        for r, row in enumerate(rows):
            for c, v in row.items():
                if v % p:
                    ents.append((r, c, v % p))
        return SparseMat(len(rows), ncols, tuple(ents), p)

    @staticmethod
    def from_columns(columns: Sequence[Mapping[Hashable, int]], p: int = 2) -> "SparseMat":
        """Matrix whose column j is columns[j], a map {row key: scalar}.

        Row keys are any hashable tags; each distinct key is one row.  Row
        order does not change the rank or the (RREF) kernel basis.
        """
        rows: dict = {}
        for j, col in enumerate(columns):
            for key, v in col.items():
                if v % p:
                    rows.setdefault(key, {})[j] = v % p
        return SparseMat.from_rows(list(rows.values()), len(columns), p)

    def row_dicts(self) -> list[dict[int, int]]:
        rows: list[dict[int, int]] = [dict() for _ in range(self.nrows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return rows

    def rank(self) -> int:
        return rank(self)


class _Gf2Span:
    """Reduced row space over F_2, rows as bit masks (bit i = column i)."""

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self.rows: list[int] = []     # kept in RREF, sorted by pivot
        self.pivots: list[int] = []   # pivot column of each row

    def reduce(self, mask: int) -> int:
        for piv, row in zip(self.pivots, self.rows):
            if (mask >> piv) & 1:
                mask ^= row
        return mask

    def add(self, mask: int) -> bool:
        mask = self.reduce(mask)
        if mask == 0:
            return False
        piv = (mask & -mask).bit_length() - 1
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < piv:
            pos += 1
        self.pivots.insert(pos, piv)
        self.rows.insert(pos, mask)
        for i in range(len(self.rows)):
            if i != pos and (self.rows[i] >> piv) & 1:
                self.rows[i] ^= mask
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class _ModpSpan:
    """Reduced row space over F_p (p odd), rows as numpy int64 vectors."""

    def __init__(self, ncols: int, p: int) -> None:
        self.ncols = ncols
        self.p = p
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        vec = vec % self.p
        for piv, row in zip(self.pivots, self.rows):
            c = int(vec[piv])
            if c:
                vec = (vec - c * row) % self.p
        return vec

    def add(self, vec: np.ndarray) -> bool:
        vec = self.reduce(vec)
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        vec = (vec * pow(int(vec[piv]), self.p - 2, self.p)) % self.p
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < piv:
            pos += 1
        self.pivots.insert(pos, piv)
        self.rows.insert(pos, vec)
        for i in range(len(self.rows)):
            if i != pos:
                c = int(self.rows[i][piv])
                if c:
                    self.rows[i] = (self.rows[i] - c * vec) % self.p
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class Span:
    """Incremental RREF row space over F_p with membership queries.

    Vectors go in and come out as {index: scalar} dicts.  Pivot choice is
    the least index, so reduced forms are reproducible for a fixed basis
    order.
    """

    def __init__(self, ncols: int, p: int) -> None:
        PrimeField(p)
        self.ncols = ncols
        self.p = p
        self._impl = _Gf2Span(ncols) if p == 2 else _ModpSpan(ncols, p)

    def _pack(self, vec: Mapping[int, int]):
        if self.p == 2:
            mask = 0
            for i, v in vec.items():
                if v % 2:
                    mask |= 1 << i
            return mask
        arr = np.zeros(self.ncols, dtype=np.int64)
        for i, v in vec.items():
            arr[i] = v % self.p
        return arr

    def _unpack(self, packed) -> dict[int, int]:
        if self.p == 2:
            out = {}
            i = 0
            while packed:
                if packed & 1:
                    out[i] = 1
                packed >>= 1
                i += 1
            return out
        return {int(i): int(packed[i]) for i in np.nonzero(packed)[0]}

    def add(self, vec: Mapping[int, int]) -> bool:
        """Add a vector; True if it enlarged the span."""
        return self._impl.add(self._pack(vec))

    def reduce(self, vec: Mapping[int, int]) -> dict[int, int]:
        """Residue of vec after reduction against the span (RREF rows)."""
        return self._unpack(self._impl.reduce(self._pack(vec)))

    def contains(self, vec: Mapping[int, int]) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return self._impl.rank

    @property
    def pivots(self) -> list[int]:
        return list(self._impl.pivots)

    def basis(self) -> list[dict[int, int]]:
        return [self._unpack(r) for r in self._impl.rows]


def _span_of(vectors: Iterable[Mapping[int, int]], ncols: int, p: int) -> Span:
    sp = Span(ncols, p)
    for v in vectors:
        sp.add(v)
    return sp


def rank(m: SparseMat) -> int:
    """Rank of m over F_p; always <= min(nrows, ncols)."""
    return _span_of(m.row_dicts(), m.ncols, m.p).rank


def kernel_basis(m: SparseMat) -> list[dict[int, int]]:
    """Basis of the null space {v : m v = 0}; size = ncols - rank(m).

    Representatives are the standard ones read off the RREF: one vector
    per free column j, in increasing column order, equal to 1 at j, 0 at
    the other free columns and minus column j of the RREF at the pivots
    (all left of j, so every dict is sorted by index).
    """
    sp = _span_of(m.row_dicts(), m.ncols, m.p)
    pivots = sp.pivots
    rows = sp.basis()
    pivot_set = set(pivots)
    out = []
    for j in range(m.ncols):
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
    kernel = kernel_basis(SparseMat.from_columns([*vectors, target], p))
    if not kernel or k not in kernel[-1]:
        return None
    return [(-kernel[-1].get(i, 0)) % p for i in range(k)]


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


def constraint_matrix(basis: Sequence, constraints: Sequence[Callable], p: int) -> SparseMat:
    """Stack constraint maps into one matrix with a column per basis element.

    Each constraint sends a basis element to a sparse vector {key: scalar};
    row (k, key) holds coordinate key of constraint k.  The kernel is the
    common null space of all constraints.
    """
    return SparseMat.from_columns(
        [{(k, key): v for k, f in enumerate(constraints) for key, v in f(b).items()}
         for b in basis],
        p,
    )
