"""Hochschild homology of presented graded-commutative algebras.

The normalized complex has q-chains m0 (x) m1 (x) ... (x) mq with m0 any
basis monomial and the remaining slots augmentation-reduced.  hh_dims
reads dims off the honest complexes of the one-generator factors by
Kunneth; square-zero and degree-0 presentations, and hh_homology, use
the whole complex.  The shuffle product (its interleavings walked by
itertools.combinations), the chain-level coproduct into C (x)_Lambda C,
the bar-resolution roundtrip and the closed forms (sigma/divided power
generators, square-zero algebras) also live here.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import gcd
from typing import Mapping, NamedTuple, Sequence

from . import fplin
from .gca import AlgebraPresentation, GeneratorSpec, HopfData, expand_divided, sigma_name

__all__ = [
    "HochschildComplex",
    "HHClass",
    "hh_homology",
    "hh_dims",
    "shuffle_product",
    "chain_coproduct",
    "coproduct_on_class",
    "bar_roundtrip_check",
    "closed_form_hh",
    "hh_squarezero",
]

Chain = tuple      # tuple of monomials, length q+1
ChainElt = dict    # dict[Chain, int]


class HHClass(NamedTuple):
    """A homology class with a chosen cycle representative."""

    q: int
    t: int
    rep: tuple  # canonical tuple form of the chain element: ((chain, coeff), ...)

    def element(self) -> ChainElt:
        return dict(self.rep)

    @staticmethod
    def make(q: int, t: int, elt: ChainElt) -> "HHClass":
        return HHClass(q, t, tuple(sorted(elt.items())))


class HochschildComplex:
    """Normalized Hochschild complex of one presented algebra."""

    def __init__(self, algebra: AlgebraPresentation):
        self.A = algebra
        self._basis: dict[tuple[int, int], list[Chain]] = {}
        self._word_cache: dict[tuple[int, int], list[Chain]] = {}
        self._ranks: dict[tuple[int, int], int] = {}
        self._boundaries: dict[tuple[int, int], list[ChainElt]] = {}  # homology's image rows

    def basis(self, q: int, t: int) -> list[Chain]:
        """All normalized chains of homological degree q, internal degree t."""
        key = (q, t)
        if key in self._basis:
            return self._basis[key]
        if q < 0 or t < 0:
            return []
        out = [
            (m0,) + w
            for d0 in range(t + 1)
            for m0 in self.A.monomial_basis(d0)
            for w in self._reduced_words(q, t - d0)
        ]
        out.sort()
        self._basis[key] = out
        return out

    def _reduced_words(self, slots: int, t: int) -> list[Chain]:
        """Tuples of `slots` reduced monomials of total degree t, memoized."""
        key = (slots, t)
        if key in self._word_cache:
            return self._word_cache[key]
        if slots == 0:
            out: list[Chain] = [()] if t == 0 else []
        elif slots == 1:
            out = [(m,) for m in self.A.reduced_basis(t)]
        else:
            out = [
                w1 + w
                for d in range(t + 1)
                for w1 in self._reduced_words(1, d)
                for w in self._reduced_words(slots - 1, t - d)
            ]
        self._word_cache[key] = out
        return out

    def boundary_chain(self, c: Chain) -> ChainElt:
        """Hochschild boundary of one basis chain."""
        A = self.A
        q = len(c) - 1
        if q == 0:
            return {}
        p = A.p
        out: ChainElt = {}
        for i in range(q):
            prod, s = A.mul_monomials(c[i], c[i + 1])
            if prod is None or s == 0:
                continue
            # a reduced slot times any monomial is not the unit: the face stays normalized
            fplin.add_term(out, c[:i] + (prod,) + c[i + 2 :], (-1) ** i * s, p)
        # cyclic last face, with the Koszul sign for moving the last slot
        # front (a sign is 1 at p = 2, and eps is even when c[q] is)
        prod, s = A.mul_monomials(c[q], c[0])
        if prod is not None and s:
            eps = 0
            if p != 2 and A.degree(c[q]) % 2:
                eps = sum(A.degree(m) for m in c[:q])
            fplin.add_term(out, (prod,) + c[1:q], (-1) ** (q + eps) * s, p)
        return out

    def boundary(self, elt: ChainElt) -> ChainElt:
        return fplin.linear(elt, self.boundary_chain, self.A.p)

    def rank(self, q: int, t: int) -> int:
        """Rank of the boundary C_q,t -> C_{q-1},t (zero at q = 0), memoized.

        The target chains are indexed in descending order, so the pivot of
        each column (its least index) is its lexicographically largest
        chain: the d0 face (m1, ..., mq) of a chain (1, m1, ..., mq).  That
        is the contracting-homotopy matching of algebraic Morse theory
        (Skoldberg 2006), and it keeps the elimination's fill-in small.
        """
        if (q, t) not in self._ranks:
            src = self.basis(q, t) if q > 0 else []
            self._ranks[(q, t)] = fplin.map_rank(
                src, self.basis(q - 1, t)[::-1] if src else [], self.boundary_chain, self.A.p)
        return self._ranks[(q, t)]

    def dim(self, q: int, t: int) -> int:
        """dim HH_q,t = dim C_q,t - rank d_q - rank d_{q+1}."""
        n = len(self.basis(q, t))
        return n - self.rank(q, t) - self.rank(q + 1, t) if n else 0

    def homology(self, q: int, t: int) -> list[HHClass]:
        """Homology classes at (q, t) with cycle representatives.

        The boundaries of C_q+1,t are kept until they serve as the kernel
        columns at (q + 1, t), so a sweep up q computes each one once."""
        src = self.basis(q, t)
        cols = self._boundaries.pop((q, t), None) or [self.boundary_chain(c) for c in src]
        kernel = fplin.kernel_basis(fplin.SparseMat(cols, self.A.p))
        # a cycle is a new class when it enlarges the image of the next boundary
        idx = {c: i for i, c in enumerate(src)}
        span = fplin.Span(len(src), self.A.p)
        rows = self._boundaries[(q + 1, t)] = [self.boundary_chain(c) for c in self.basis(q + 1, t)]
        for bd in rows:
            span.add({idx[c2]: v for c2, v in bd.items()})
        return [
            HHClass.make(q, t, {src[i]: v for i, v in vec.items()})
            for vec in kernel
            if span.add(vec)
        ]


def _bidegrees(algebra: AlgebraPresentation, max_degree: int, qmax: int | None) -> list[tuple[int, int]]:
    """The bidegrees (q, t), t <= max_degree, at which homology is read.

    For connected positively graded algebras q is bounded by t; algebras
    with idempotent generators need an explicit qmax.
    """
    has_deg0 = any(g.idempotent for g in algebra.gens)
    if has_deg0 and qmax is None:
        raise ValueError("algebras with degree-0 content need an explicit qmax")
    return [
        (q, t)
        for t in range(max_degree + 1)
        for q in range((t if qmax is None else qmax if has_deg0 else min(qmax, t)) + 1)
    ]


def hh_homology(
    algebra: AlgebraPresentation,
    max_degree: int,
    qmax: int | None = None,
) -> dict[tuple[int, int], list[HHClass]]:
    """Bigraded homology with representatives, for t <= max_degree (and
    q <= qmax, which algebras with degree-0 content must give)."""
    cx = HochschildComplex(algebra)
    out: dict[tuple[int, int], list[HHClass]] = {}
    for q, t in _bidegrees(algebra, max_degree, qmax):
        if classes := cx.homology(q, t):
            out[(q, t)] = classes
    return out


def _factors(algebra: AlgebraPresentation) -> list[AlgebraPresentation]:
    """One-generator factors of a connected, not square-zero presentation; else itself."""
    if algebra.square_zero or any(g.idempotent for g in algebra.gens):
        return [algebra]
    return [AlgebraPresentation(algebra.p, [g], algebra.N) for g in algebra.gens]


def hh_dims(
    algebra: AlgebraPresentation,
    max_degree: int,
    qmax: int | None = None,
) -> dict[tuple[int, int], int]:
    """The nonzero bigraded dims of hh_homology: boundary ranks in the honest
    complex of each of _factors, convolved by Kunneth (Loday, Thm 4.2.5)."""
    dims = {(0, 0): 1}
    for f in _factors(algebra):
        cx = HochschildComplex(f)
        dims = _convolve({(q, t): d for q, t in _bidegrees(f, max_degree, qmax)
                          if (d := cx.dim(q, t))}, dims, max_degree)
    return {(q, t): d for q, t in _bidegrees(algebra, max_degree, qmax) if (d := dims.get((q, t)))}


def _convolve(x: Mapping, y: Mapping, bound: int) -> dict[tuple[int, int], int]:
    """The Kunneth product of two {(q, t): dim} tables through t <= bound."""
    out: dict[tuple[int, int], int] = {}
    for (q1, t1), n1 in x.items():
        for (q2, t2), n2 in y.items():
            if t1 + t2 <= bound:
                out[q1 + q2, t1 + t2] = out.get((q1 + q2, t1 + t2), 0) + n1 * n2
    return out


def presentation_dims_internal(
    presentation: AlgebraPresentation, max_internal: int
) -> dict[tuple[int, int], int]:
    """Bigraded dims of a filtered presentation re-indexed as (q, internal).

    Presentation generators carry total degrees; Hochschild homology is
    indexed by (homological q, internal t) with total = q + t.
    """
    # a class of internal degree t <= bound can have total degree up to 2t
    return {(s, total - s): dim
            for (s, total), dim in presentation.bigraded_series(2 * max_internal).items()
            if 0 <= total - s <= max_internal}


# ---------------------------------------------------------------------------
# shuffle product

def shuffle_product(algebra: AlgebraPresentation, x: ChainElt, y: ChainElt) -> ChainElt:
    """Chain-level shuffle product; on cycles it represents the HH product.

    The interleavings of the reduced slots a_1..a_i and b_1..b_j are read
    off the x-slot positions, walked by itertools.combinations.  Each
    interleaving carries its permutation sign times the internal Koszul
    sign of the crossings, -(-1)^{|a||b|} per crossing, which is what makes
    the shuffle a chain map for the boundary used here; the x-slot a_n at
    position k has crossed b_1..b_{k-n}.  The second coefficient slot moves
    to the front with the internal Koszul sign.  The induced product is
    commutative in the bidegree-wise sense (-1)^{q q' + t t'}.
    """
    A = algebra
    p = A.p
    out: ChainElt = {}
    for c1, v1 in x.items():
        a = c1[1:]
        odd_a = [A.degree(m) % 2 for m in a]
        for c2, v2 in y.items():
            b = c2[1:]
            m0, s0 = A.mul_monomials(c1[0], c2[0])
            if m0 is None or s0 == 0:
                continue
            coeff0 = v1 * v2 * s0 * (-1) ** (A.degree(c2[0]) * sum(odd_a))
            odd_b = list(accumulate((A.degree(m) % 2 for m in b), initial=0))
            n = len(a) + len(b)
            for xs in combinations(range(n), len(a)):
                ia, ib = iter(a), iter(b)
                slots = tuple(next(ia) if k in xs else next(ib) for k in range(n))
                crossings = sum(k - i - odd_a[i] * odd_b[k - i] for i, k in enumerate(xs))
                fplin.add_term(out, (m0,) + slots, coeff0 * (-1) ** crossings, p)
    return out


# ---------------------------------------------------------------------------
# chain-level coproduct into C (x)_Lambda C

TensorElt = dict  # dict[(Chain, Chain)] -> coeff, right factor has unit slot 0


def _canonicalize_tensor(A: AlgebraPresentation, left: Chain, right: Chain, coeff: int) -> tuple[tuple[Chain, Chain], int] | None:
    """Move the right coefficient slot across to the left factor."""
    lam = right[0]
    if not lam:
        return (left, right), coeff
    if A.p != 2 and A.degree(lam) % 2:
        # the base acts through the coefficient slot with internal Koszul sign
        if sum(A.degree(m) for m in left) % 2:
            coeff = -coeff
    m0, s = A.mul_monomials(lam, left[0])
    if m0 is None or s == 0:
        return None
    return ((m0,) + left[1:], ((),) + right[1:]), coeff * s


def chain_coproduct(algebra: AlgebraPresentation, elt: ChainElt) -> TensorElt:
    """psi(m0 (x) ... (x) mq) = sum_i (m0..mi) (x)_Lambda (1, m_{i+1}..mq)."""
    return fplin.linear(
        elt, lambda c: {(c[: i + 1], ((),) + c[i + 1 :]): 1 for i in range(len(c))}, algebra.p)


def tensor_boundary(A: AlgebraPresentation, elt: TensorElt) -> TensorElt:
    """Differential of C (x)_Lambda C with the homological Koszul sign."""
    cx = HochschildComplex(A)
    out: TensorElt = {}

    def put(left: Chain, right: Chain, coeff: int) -> None:
        canon = _canonicalize_tensor(A, left, right, coeff)
        if canon is not None:
            fplin.add_term(out, *canon, A.p)

    for (left, right), v in elt.items():
        for l2, c2 in cx.boundary_chain(left).items():
            put(l2, right, v * c2)
        sgn = (-1) ** (len(left) - 1)
        for r2, c2 in cx.boundary_chain(right).items():
            put(left, r2, v * c2 * sgn)
    return out


def coproduct_on_class(
    algebra: AlgebraPresentation,
    cls: HHClass,
    hh: Mapping[tuple[int, int], list[HHClass]],
) -> dict[tuple[HHClass, HHClass], int]:
    """Project psi(representative) to the Kunneth basis of HH (x)_Lambda HH.

    Canonicalizing a tensor moves base factors across to the left, so the
    Kunneth basis is indexed by the Hochschild degrees (q1, q2) and the
    total internal degree, which canonicalization keeps.  Candidates with
    the larger left internal degree come first, so base factors are
    reported on the left (x sigma x comes back as x sigma x (x) 1 +
    x (x) sigma x).  Requires HH free over the base through the relevant
    degrees; a failed projection signals non-flatness and is refused with
    a diagnostic.
    """
    A = algebra
    p = A.p
    t = cls.t
    cx = HochschildComplex(A)
    by_block: dict[tuple[int, int], TensorElt] = {}
    for (l, r), v in chain_coproduct(A, cls.element()).items():
        by_block.setdefault((len(l) - 1, len(r) - 1), {})[(l, r)] = v

    def block(q1: int, q2: int) -> list[tuple[Chain, Chain]]:
        """Canonical chain pairs of Hochschild degrees (q1, q2), total degree t."""
        return [(l, r) for t1 in range(t, -1, -1) for l in cx.basis(q1, t1)
                for r in cx.basis(q2, t - t1) if not r[0]]

    out: dict[tuple[HHClass, HHClass], int] = {}
    for (q1, q2), part in by_block.items():
        idx = {pr: i for i, pr in enumerate(block(q1, q2))}

        def vec(te: TensorElt) -> dict[int, int]:
            return {idx[k]: v for k, v in te.items()}

        candidates: list[dict[int, int]] = []
        labels: list[tuple[HHClass, HHClass]] = []
        for t1 in range(t, -1, -1):
            for r1 in hh.get((q1, t1), []):
                for r2 in hh.get((q2, t - t1), []):
                    te: TensorElt = {}
                    for c1, v1 in r1.element().items():
                        for c2, v2 in r2.element().items():
                            canon = _canonicalize_tensor(A, c1, c2, v1 * v2)
                            if canon is not None:
                                fplin.add_term(te, *canon, p)
                    candidates.append(vec(te))
                    labels.append((r1, r2))
        # boundaries inside the tensor complex one homological degree up,
        # restricted to this block
        boundaries = [b for pr in block(q1 + 1, q2) + block(q1, q2 + 1)
                      if (b := {idx[k]: v for k, v in tensor_boundary(A, {pr: 1}).items()
                                if k in idx})]
        sol = fplin.solve_in_span(candidates + boundaries, vec(part), len(idx), p)
        if sol is None:
            raise ValueError(
                f"coproduct projection failed in bidegree ({q1},{q2}) at internal degree {t}: "
                "homology is not free over the base there"
            )
        for c, lab in zip(sol[: len(candidates)], labels):
            fplin.add_term(out, lab, c, p)
    return out


# ---------------------------------------------------------------------------
# bar construction roundtrip

BarChain = tuple  # (lambda_0, mids..., lambda_{q+1})


def _bar_psi(A: AlgebraPresentation, c: BarChain) -> dict[tuple[BarChain, BarChain], int]:
    q = len(c) - 2
    out = {}
    for i in range(q + 1):
        left = c[: i + 1] + ((),)
        right = ((),) + c[i + 1 :]
        out[(left, right)] = (out.get((left, right), 0) + 1) % A.p
    return out


def _bar_degeneracy(c: BarChain, j: int) -> BarChain:
    # insert a unit as the j-th middle slot
    return c[: j + 1] + ((),) + c[j + 1 :]


def _apply_degeneracies(c: BarChain, positions: Sequence[int]) -> BarChain:
    out = c
    for j in sorted(positions):
        out = _bar_degeneracy(out, j)
    return out


def _bar_augment(A: AlgebraPresentation, c: BarChain) -> tuple:
    acc: tuple | None = ()
    coeff = 1
    for m in c:
        acc2, s = A.mul_monomials(acc, m)
        if acc2 is None or s == 0:
            return None, 0
        acc = acc2
        coeff *= s
    return acc, coeff


def bar_roundtrip_check(algebra: AlgebraPresentation, qmax: int, tmax: int) -> bool:
    """pi o sh o psi = id on normalized bar chains through the bounds.

    Shuffle terms acquiring unit middle slots die in the normalized
    complex; the check verifies that what survives is exactly the
    original chain.  Only the unshuffled term survives, so no shuffle
    sign enters.
    """
    A = algebra
    p = A.p
    for q in range(qmax + 1):
        for t in range(tmax + 1):
            for c in _bar_basis(A, q, t):
                total: dict[BarChain, int] = {}
                for (x, y), v in _bar_psi(A, c).items():
                    i = len(x) - 2
                    j = len(y) - 2
                    # shuffle x (B_i) and y (B_j) up to B_{i+j} via
                    # complementary degeneracies
                    positions = range(i + j)
                    for nu in combinations(positions, j):
                        mu = tuple(k for k in positions if k not in nu)
                        xs = _apply_degeneracies(x, nu)
                        ys = _apply_degeneracies(y, mu)
                        # pi: multiply augmentation of ys into xs's right slot
                        eps, s = _bar_augment(A, ys)
                        if eps is None or s == 0:
                            continue
                        if any(not m for m in xs[1:-1]):
                            continue  # degenerate in the normalized complex
                        last, s2 = A.mul_monomials(xs[-1], eps)
                        if last is None or s2 == 0:
                            continue
                        fplin.add_term(total, xs[:-1] + (last,), v * s * s2, p)
                if total != {c: 1}:
                    return False
    return True


def _bar_basis(A: AlgebraPresentation, q: int, t: int) -> list[BarChain]:
    """Bar chains (m0, q reduced slots, mlast): Hochschild chains plus a last slot."""
    cx = HochschildComplex(A)
    return sorted(
        c + (mlast,)
        for d in range(t + 1)
        for mlast in A.monomial_basis(d)
        for c in cx.basis(q, t - d)
    )


# ---------------------------------------------------------------------------
# closed forms

def closed_form_hh(
    algebra: AlgebraPresentation,
    max_degree: int | None = None,
) -> tuple[AlgebraPresentation, HopfData]:
    """HH of a free graded-commutative presentation, by generators.

    Polynomial x contributes an exterior suspension s(x); exterior x a
    divided power tower on s(x); anything else is out of range.  The
    result records filtrations (s(x): 1, gamma_k: k) and the fiberwise
    coproducts, which HopfData reads off the generators.
    """
    n = algebra.N if max_degree is None else max_degree
    if algebra.square_zero:
        raise ValueError("square-zero input: use hh_squarezero")
    gens: list[GeneratorSpec] = []
    for g in algebra.gens:
        gens.append(g)
    for g in algebra.gens:
        if g.idempotent:
            continue
        sname = sigma_name(g.name)
        if g.kind == "polynomial":
            if g.degree + 1 <= n:
                gens.append(
                    GeneratorSpec(sname, g.degree + 1, "exterior", filtration=1, sigma_of=g.name)
                )
        elif g.kind == "exterior":
            gens.extend(expand_divided(sname, g.degree + 1, algebra.p, n, filtration=1, sigma_of=g.name))
        else:
            raise ValueError(f"unsupported generator kind for closed form: {g.kind}")
    out = AlgebraPresentation(algebra.p, gens, n)
    return out, HopfData(out)


def hh_squarezero(
    vee: Sequence[tuple[str, int]],
    qmax: int,
    p: int = 2,
    max_degree: int | None = None,
) -> dict[tuple[int, int], int]:
    """HH of the split square-zero extension k + V, as bigraded dims.

    HH_q = invariants of the signed cyclic action on V^{(x) q} plus
    coinvariants on V^{(x) (q+1)}; the generator T acts as (-1)^{q+1}
    times the cyclic permutation with its Koszul sign.  T permutes words
    up to sign, so both dimensions count the rotation orbits on which T
    comes back with sign +1 (signed necklaces; every orbit at p = 2).
    A word u^k of length q and degree t, with u primitive of length
    d = q/k and degree s = t/k, lies in an orbit of d words, and T^d acts
    on it by (-1)^{d(q+1) + s(k-1)}: the twist applied d times and the
    Koszul sign of moving u past u^{k-1}.  Primitive words are counted by
    (length, degree) by Moebius inversion of the word counts; no word is
    listed.  Letters must have positive degree: a degree-0 letter has no
    presented square-zero algebra to check it against.
    """
    if low := [name for name, d in vee if d <= 0]:
        raise ValueError(f"square-zero letters need positive degree: {', '.join(low)}")
    degs = [d for _, d in vee]
    n = max_degree if max_degree is not None else max(degs, default=0) * (qmax + 1)

    # a word of length l has degree >= l min(degs): none longer than top has degree <= n
    top = min(qmax + 1, n // min(degs) if degs else 0)
    # divisors[g] for every g = gcd(l, s) with l <= top
    divisors = [[k for k in range(1, g + 1) if g % k == 0] for g in range(top + 1)]
    # words[l][s], prim[l][s]: all and primitive words of length l, degree s
    words = [[1] + [0] * n]
    prim = [[0] * (n + 1)]
    for l in range(1, top + 1):
        words.append([sum(words[l - 1][s - d] for d in degs if d <= s) for s in range(n + 1)])
        prim.append([words[l][s] - sum(prim[l // k][s // k] for k in divisors[gcd(l, s)][1:])
                     for s in range(n + 1)])

    def inv(q: int, t: int) -> int:
        """Orbits in V^{(x) q} of degree t on which T^d = +1 (the unit at q = 0)."""
        if q == 0 or q > top:
            return int(q == t == 0)
        return sum(
            prim[q // k][t // k] // (q // k)
            for k in divisors[gcd(q, t)]
            if p == 2 or ((q // k) * (q + 1) + (t // k) * (k - 1)) % 2 == 0
        )

    out: dict[tuple[int, int], int] = {}
    for q in range(min(qmax, top) + 1):
        for t in range(n + 1):
            if dim := inv(q, t) + inv(q + 1, t):
                out[(q, t)] = dim
    return out
