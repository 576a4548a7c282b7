"""The mod-2 Steenrod algebra and its dual at all primes.

Admissible-form elements with Adem reduction live at p = 2 only; the
dual side (Milnor monomials, coproduct, conjugation) is implemented at
every prime; the coproduct of a generator is stated once, for xibar_k and
taubar_k, and in the unconjugated alphabet it is the mirror image, its
tensor factors swapped.  Finite subalgebras A_n are closed up degreewise from the
lower degrees a request reaches, stopping once the span reaches the
Milnor-basis dimension of A(n) in that degree; exterior subalgebras on
the Milnor primitives Q_i are spanned by square-free products.  Such a
subalgebra B is built once per degree d into one memo, the RREF basis
and span of B_d over the admissible words of degree d; an element's bits
at the pivot columns are its coordinates in every module over B, a
subquotient U/I held as data.  Right multiplication by f is well defined
when g f lies in the target's ideal for each generator g of the source
ideal, since (a g) f = a (g f); the kernel checks exactly that.

steenrod_mul works on sets of words in any degree: a joined word keeps
its longest admissible suffix and takes the letters left of it through
one memoized kernel, Sq^a w for an admissible w with a < 2 w[0].  Inside
B a product is an int mask over its degree's admissible words in
lexicographic order: Sq^a w is the Adem relation on Sq^a Sq^{w[0]}, each
term t giving t w[1:], u v is Sq^{u[0]} on each word of u[1:] v, and B_d's
rows and a module's elements are masks multiplied along their set bits.
The memos are keyed on integer tuples, so they cannot go stale; they last
the process.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache, partial, reduce
from operator import xor
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import fplin

__all__ = [
    "SteenrodElement",
    "MilnorMonomial",
    "SubalgebraSpec",
    "GradedModulePresentation",
    "adem_reduce",
    "steenrod_mul",
    "steenrod_basis",
    "total_rank",
    "in_subalgebra",
    "quotient_module",
    "module_map_kernel",
    "cyclic_and_annihilator_check",
    "milnor_basis",
    "milnor_coproduct",
    "milnor_mul",
    "dual_mul",
    "conjugate",
    "antipode",
    "pairing",
    "dual_action",
    "milnor_primitive",
    "parse_element",
    "parse_milnor",
    "element_str",
]


# ---------------------------------------------------------------------------
# admissible side, p = 2

# A SteenrodElement is an F_2 sum of admissible monomials, stored as a
# frozenset of exponent tuples.  The unit is the empty word ().
SteenrodElement = frozenset


def _binom_mod2(m: int, n: int) -> int:
    if n < 0 or n > m:
        return 0
    return 1 if (m - n) & n == 0 else 0


@lru_cache(maxsize=None)
def _adem_pair(a: int, b: int) -> frozenset:
    """Admissible expansion of the inadmissible product Sq^a Sq^b (a < 2b)."""
    assert 0 < a < 2 * b
    terms = set()
    for c in range(a // 2 + 1):
        if _binom_mod2(b - c - 1, a - 2 * c):
            word = (a + b - c,) if c == 0 else (a + b - c, c)
            terms.symmetric_difference_update({word})
    return frozenset(terms)


def adem_reduce(word: Sequence[int]) -> SteenrodElement:
    """Rewrite a word of Sq exponents into its admissible form over F_2.

    The unit is the empty word; exponent 0 is rejected.
    """
    if any(i <= 0 for i in word):
        raise ValueError("Sq exponents must be positive (unit = empty word)")
    return _adem_reduce(word)


def _adem_reduce(word: Sequence[int]) -> SteenrodElement:
    """adem_reduce without the exponent check, for words of positive exponents.

    The longest admissible suffix stays as it is; the letters left of it
    are prepended one at a time, from the right, through _sq_times.
    """
    word = tuple(word)
    k = max(len(word) - 1, 0)
    while k and word[k - 1] >= 2 * word[k]:
        k -= 1
    return _prepend(word[:k], frozenset({word[k:]}))


def _prepend(letters: tuple[int, ...], elt: SteenrodElement) -> SteenrodElement:
    """Sq^{letters[0]} ... Sq^{letters[-1]} times an admissible element."""
    for a in reversed(letters):
        out: set = set()
        for w in elt:
            out.symmetric_difference_update(
                _sq_times(a, w) if w and a < 2 * w[0] else ((a,) + w,))
        elt = out
    return frozenset(elt)


@lru_cache(maxsize=None)
def _sq_times(a: int, w: tuple[int, ...]) -> SteenrodElement:
    """Sq^a w in admissible form, for an admissible word w with a < 2 w[0].

    The set path's product memo: an Adem relation on Sq^a Sq^{w[0]}, then its
    terms are prepended to the admissible rest of w.
    """
    out: set = set()
    for t in _adem_pair(a, w[0]):
        out.symmetric_difference_update(_prepend(t, frozenset({w[1:]})))
    return frozenset(out)


@lru_cache(maxsize=None)
def _index(d: int) -> dict[tuple[int, ...], int]:
    """Admissible word of degree d -> its bit, its place in admissible_monomials(d)."""
    return {w: i for i, w in enumerate(_admissible_bounded(d, d))}


@lru_cache(maxsize=None)
def _word_mask(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """u v as a mask over the admissible words of its degree, for admissible u, v:
    one bit if u v is admissible; for u = (a,), the Adem relation on
    Sq^a Sq^{v[0]}, each admissible term t giving t v[1:]; and for a longer
    u, Sq^{u[0]} on each word of u[1:] v."""
    d = sum(u) + sum(v)
    if not u or not v or u[-1] >= 2 * v[0]:
        return 1 << _index(d)[u + v]
    out = 0
    if len(u) == 1:
        for t in _adem_pair(u[0], v[0]):
            out ^= _word_mask(t, v[1:])
        return out
    rest, letter = _word_mask(u[1:], v), u[:1]
    words = _admissible_bounded(d - u[0], d - u[0])
    while rest:
        low = rest & -rest
        out ^= _word_mask(letter, words[low.bit_length() - 1])
        rest ^= low
    return out


def _words_at(mask: int, d: int) -> Iterator[tuple[int, ...]]:
    """The admissible words of degree d at the set bits of mask."""
    words = _admissible_bounded(d, d)
    while mask:
        low = mask & -mask
        yield words[low.bit_length() - 1]
        mask ^= low


def _mask_mul(x: Iterable[tuple[int, ...]], y: Collection[tuple[int, ...]]) -> int:
    """x y as a mask over the admissible words of degree |x| + |y|, for sums
    of admissible words (y is read once for each word of x)."""
    return reduce(xor, (_word_mask(u, v) for u in x for v in y), 0)


def steenrod_one() -> SteenrodElement:
    return frozenset({()})


def steenrod_mul(a: SteenrodElement, b: SteenrodElement) -> SteenrodElement:
    out: set = set()
    for u in a:
        for v in b:
            out.symmetric_difference_update(_adem_reduce(u + v))
    return frozenset(out)


def steenrod_add(a: SteenrodElement, b: SteenrodElement) -> SteenrodElement:
    return a.symmetric_difference(b)


def element_degree(a: SteenrodElement) -> int | None:
    """Common degree of a homogeneous element, None for 0."""
    degs = {sum(w) for w in a}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous element: degrees {sorted(degs)}")
    return degs.pop()


def element_str(a: SteenrodElement) -> str:
    if not a:
        return "0"
    def mono(w):
        return "1" if not w else "".join(f"Sq{i}" for i in w)
    return "+".join(mono(w) for w in sorted(a))


def parse_element(text: str, max_degree: int | None = None) -> SteenrodElement:
    """Parse sums of Sq words: 'Sq4Sq6+Sq6Sq4', 'Sq^2 Sq^1', '1', 'Q1'; a term
    above max_degree raises ValueError before any Q_k or Adem reduction is built."""
    terms: list = []  # the index k of a Q_k, or a word of Sq exponents
    for term in text.replace(" ", "").split("+"):
        if not term:
            continue
        if term == "1":
            terms.append(())
            continue
        if term.startswith("Q") and term[1:].isdigit():
            terms.append(int(term[1:]))
            continue
        word = []
        for piece in term.replace("^", "").split("Sq"):
            if piece:
                if not piece.isdigit():
                    raise ValueError(f"cannot parse term {term!r}")
                word.append(int(piece))
        if not word or not term.startswith("Sq"):
            raise ValueError(f"cannot parse term {term!r}")
        terms.append(tuple(word))
    top = max((2 ** (t + 1) - 1 if isinstance(t, int) else sum(t) for t in terms), default=0)
    if max_degree is not None and top > max_degree:
        raise ValueError(f"{text.strip()} has a term of degree {top}, "
                         f"above the top degree {max_degree}")
    return _sum(milnor_primitive(t) if isinstance(t, int) else adem_reduce(t) for t in terms)


@lru_cache(maxsize=None)
def _admissible_bounded(d: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if d == 0:
        return ((),)
    out = []
    for first in range(1, min(d, cap) + 1):
        for rest in _admissible_bounded(d - first, first // 2):
            out.append((first,) + rest)
    return tuple(sorted(out))


def admissible_monomials(d: int) -> list[tuple[int, ...]]:
    """All admissible Sq words of degree d, sorted lexicographically."""
    return list(_admissible_bounded(d, d))


@lru_cache(maxsize=None)
def admissible_count(d: int, cap: int) -> int:
    """len(_admissible_bounded(d, cap)), counted without building the words."""
    if d == 0:
        return 1
    return sum(admissible_count(d - first, first // 2) for first in range(1, min(d, cap) + 1))


def an_dimension(n: int, d: int) -> int:
    """dim A(n)_d: the Milnor basis elements Sq(r_1, ..., r_{n+1}) with
    r_j < 2^{n+2-j} and sum r_j (2^j - 1) = d."""
    return _profile_count(n, d, 1)


@lru_cache(maxsize=None)
def _profile_count(n: int, d: int, j: int) -> int:
    """The (r_j, ..., r_{n+1}) inside A(n)'s profile with sum r_i (2^i - 1) = d."""
    if j > n + 1:
        return int(d == 0)
    step = 2 ** j - 1
    return sum(_profile_count(n, d - r * step, j + 1)
               for r in range(min(2 ** (n + 2 - j), d // step + 1)))


@lru_cache(maxsize=None)
def milnor_primitive(k: int) -> SteenrodElement:
    """Q_k in admissible form: Q_0 = Sq^1 and Q_k = [Sq^{2^k}, Q_{k-1}]."""
    if k == 0:
        return frozenset({(1,)})
    q = milnor_primitive(k - 1)
    sq = frozenset({(2 ** k,)})
    return steenrod_add(steenrod_mul(sq, q), steenrod_mul(q, sq))


# ---------------------------------------------------------------------------
# subalgebras

class _SubalgebraSpec(NamedTuple):
    kind: str  # "A" | "An" | "E"
    n: int = -1
    qs: tuple[int, ...] = ()


class SubalgebraSpec(_SubalgebraSpec):
    """A itself, A_n = <Sq^1 ... Sq^{2^n}>, or an exterior algebra on Q_i's."""

    # no __slots__: instances keep a __dict__ for the cached properties

    @staticmethod
    def full() -> "SubalgebraSpec":
        return SubalgebraSpec("A")

    @staticmethod
    def A(n: int) -> "SubalgebraSpec":
        if n < 0:
            raise ValueError("A_n needs n >= 0")
        return SubalgebraSpec("An", n=n)

    @staticmethod
    def E(*qs: int) -> "SubalgebraSpec":
        return SubalgebraSpec("E", qs=tuple(sorted(set(qs))))

    @property
    def finite(self) -> bool:
        return self.kind != "A"

    @cached_property
    def id(self) -> str:
        if self.kind == "A":
            return "A"
        if self.kind == "An":
            return f"A{self.n}"
        if max(self.qs, default=0) > 9:  # E(Q1,Q23), which E123 would misname
            return "E(" + ",".join(f"Q{q}" for q in self.qs) + ")"
        return "E" + "".join(str(q) for q in self.qs)

    def generator_exponents(self) -> list[int]:
        if self.kind != "An":
            raise ValueError("generator exponents only defined for A_n")
        return [2 ** i for i in range(self.n + 1)]

    @cached_property
    def top_degree(self) -> int:
        if self.kind == "An":
            # dual is P(xi_j)/(xi_j^{2^{n+2-j}}), 1 <= j <= n+1
            return sum((2 ** (self.n + 2 - j) - 1) * (2 ** j - 1) for j in range(1, self.n + 2))
        if self.kind == "E":
            return sum(2 ** (k + 1) - 1 for k in self.qs)
        raise ValueError("full Steenrod algebra is infinite")

    @staticmethod
    def parse(text: str) -> "SubalgebraSpec":
        """A, An or A(n); E(Qi,Qj,...) or E(QiQj...), or E01 with one digit per index."""
        t = text.strip().upper().replace(" ", "")
        if t == "A":
            return SubalgebraSpec.full()
        inner = t[2:-1] if t[1:2] == "(" and t.endswith(")") else t[1:]
        if t[:1] == "A" and inner.isdigit():
            return SubalgebraSpec.A(int(inner))
        if t[:1] == "E" and not inner:
            raise ValueError("full exterior subalgebra is infinite; list the Q indices")
        if t[:1] == "E" and re.fullmatch(r"\d+|(Q\d+,?)*Q\d+", inner):
            return SubalgebraSpec.E(*map(int, re.findall(r"\d+", inner) if "Q" in inner else inner))
        raise ValueError(f"unknown subalgebra {text!r}")


class _Degree(NamedTuple):
    """A finite subalgebra B in one degree d, in admissible coordinates."""

    basis: dict[int, int]  # pivot column -> RREF row of B_d as a mask, in increasing order
    span: fplin.Span  # B_d, over the admissible words of degree d
    pivot_mask: int  # one bit per pivot column


# (subalgebra id, degree) -> _Degree: the one coordinate system of B_d,
# shared by the closure, every module over B and the membership check
_basis_memo: dict[tuple[str, int], _Degree] = {}


def _degree(spec: SubalgebraSpec, degree: int) -> _Degree:
    key = (spec.id, degree)
    if key in _basis_memo:
        return _basis_memo[key]
    index = _index(degree)
    span = fplin.Span(len(index), 2)
    if spec.kind == "E":
        for mask in range(1 << len(spec.qs)):
            picked = [spec.qs[i] for i in range(len(spec.qs)) if (mask >> i) & 1]
            if sum(2 ** (k + 1) - 1 for k in picked) == degree:
                elt = steenrod_one()
                for k in picked:
                    elt = steenrod_mul(elt, milnor_primitive(k))
                span.add({index[w]: 1 for w in elt})
    elif degree == 0:
        span.add({index[()]: 1})
    else:  # A_n by closure: degree-d span = sum of basis(d - 2^i) * Sq^{2^i}
        # every product lies in A_n, so a span of rank dim A(n)_d is all of it
        target = an_dimension(spec.n, degree)
        for i in reversed(spec.generator_exponents()):
            if span.rank == target:
                break
            for b in _rows(spec, degree - i):
                if span.rank == target:
                    break
                span.add(_mask_mul(_words_at(b, degree - i), ((i,),)))
        if span.rank != target:
            raise RuntimeError(f"A_{spec.n} closure in degree {degree} reached rank "
                               f"{span.rank}, but dim A({spec.n})_{degree} is {target}")
    basis = {piv: sum(1 << i for i in row) for piv, row in zip(span.pivots, span.basis())}
    out = _basis_memo[key] = _Degree(basis, span, sum(1 << piv for piv in basis))
    return out


def _rows(spec: SubalgebraSpec, degree: int) -> Collection[int]:
    """B_d's RREF rows as masks, none outside degrees 0 .. top_degree."""
    return _degree(spec, degree).basis.values() if 0 <= degree <= spec.top_degree else ()


def steenrod_basis(spec: SubalgebraSpec, degree: int) -> list[SteenrodElement]:
    """F_2 basis of the subalgebra in one degree, in admissible coordinates.

    For the full algebra these are single admissible monomials.  For A_n
    the degreewise span is closed up from the right products b Sq^{2^i},
    b in the basis of degree d - 2^i, trying Sq^{2^n} first and Sq^1
    last, so the recursion builds only the lower degrees it reaches.  The
    closure stops as soon as its rank is dim A(n)_d, counted from the
    Milnor basis (an_dimension); if the products run out below it,
    RuntimeError.  For exterior specs the span is that of the square-free
    products of the Q_i.  Basis vectors are the reduced rows of the span,
    so some are genuine sums (A_1 in degree 5 is spanned by
    Sq^5 + Sq^4 Sq^1).
    """
    if spec.kind == "A":
        return [frozenset({w}) for w in admissible_monomials(degree)]
    return [frozenset(_words_at(row, degree)) for row in _rows(spec, degree)]


def _coordinates(spec: SubalgebraSpec, elt: SteenrodElement | int, d: int) -> int | None:
    """Coordinates of elt (words, or a mask) in B_d's basis; None outside B_d.

    The basis rows are in RREF, so an element of the span has its bits at
    the pivot columns as coordinates.
    """
    if not elt:
        return 0
    if not 0 <= d <= spec.top_degree:
        return None
    deg, index = _degree(spec, d), _index(d)
    if not isinstance(elt, int):
        if any(w not in index for w in elt):
            return None
        elt = sum(1 << index[w] for w in elt)
    return elt & deg.pivot_mask if deg.span.contains(elt) else None


def in_subalgebra(spec: SubalgebraSpec, elt: SteenrodElement) -> bool:
    """True iff the homogeneous element elt lies in the subalgebra."""
    return not spec.finite or _coordinates(spec, elt, element_degree(elt)) is not None


def _require_in(spec: SubalgebraSpec, elt: SteenrodElement) -> None:
    if not in_subalgebra(spec, elt):
        raise ValueError(f"{element_str(elt)} is not in the subalgebra {spec.id}")


def total_rank(spec: SubalgebraSpec) -> int:
    """F_2 dimension of a finite subalgebra (A_n or exterior)."""
    if not spec.finite:
        raise ValueError("total rank of the full Steenrod algebra is infinite")
    return sum(len(_rows(spec, d)) for d in range(spec.top_degree + 1))


# ---------------------------------------------------------------------------
# graded modules over a finite subalgebra

def _sum(sets: Iterable[frozenset]) -> frozenset:
    """The F_2 sum of sets of words or of coordinates."""
    out: set = set()
    for x in sets:
        out.symmetric_difference_update(x)
    return frozenset(out)


class GradedModulePresentation:
    """A left module U/I over a finite subalgebra B, held as data.

    Everything is in the coordinates of B_d's RREF basis, kept once per
    (subalgebra, degree): the bits at its pivot columns.  I is the left
    ideal on the generators in `ideal`, and relations[d] is its span I_d;
    vectors[d] maps a lead coordinate to a basis vector of U_d mod I_d, a
    set of coordinates holding its lead while the others in degree d do not.
    A quotient B/I has the unit vectors off I_d's pivots; a kernel of
    right multiplication has the standard kernel combinations of its
    source's vectors, over the same I.  masks[d] holds the ambient
    representatives of vectors[d], in order, as masks over the admissible
    words of degree d; elements[d] holds them as sets of words.
    """

    def __init__(
        self,
        spec: SubalgebraSpec,
        ideal: Iterable[SteenrodElement],
        relations: dict[int, fplin.Span],
        vectors: dict[int, dict[int, frozenset[int]]],
    ):
        self.spec = spec
        self.ideal = tuple(ideal)
        self.relations = relations
        self.vectors = {d: v for d, v in vectors.items() if v}
        self.masks = {d: [reduce(xor, map(_degree(spec, d).basis.get, vec), 0)
                          for vec in v.values()] for d, v in self.vectors.items()}

    @cached_property
    def elements(self) -> dict[int, list[SteenrodElement]]:
        return {d: [frozenset(_words_at(m, d)) for m in ms] for d, ms in self.masks.items()}

    # -- structure ---------------------------------------------------
    def degrees(self) -> list[int]:
        return sorted(self.masks)

    def dim(self, d: int) -> int:
        return len(self.masks.get(d, []))

    def labels(self, d: int) -> list[str]:
        return [element_str(e) for e in self.elements.get(d, [])]

    def poincare(self) -> dict[int, int]:
        return {d: len(v) for d, v in sorted(self.masks.items())}

    def total_rank(self) -> int:
        return sum(len(v) for v in self.masks.values())

    def reduce_ambient(self, elt: SteenrodElement | int, d: int) -> dict[int, int] | None:
        """Coordinates of an ambient element (a set of words or a mask) in this module, or None.

        The element's coordinates in B_d (None outside B) are reduced mod
        I_d; the residue's entries at the leads are the coordinates, and
        None if they do not recombine to the residue (outside U).
        """
        coords = _coordinates(self.spec, elt, d)
        if not coords:
            return None if coords is None else {}
        residue = self.relations[d].reduce(coords)
        vecs = self.vectors.get(d, {})
        if _sum(v for lead, v in vecs.items() if lead in residue) != residue.keys():
            return None
        return {i: 1 for i, lead in enumerate(vecs) if lead in residue}

    def act(self, gen_exp: int, d: int, coords: Mapping[int, int]) -> dict[int, int]:
        """Coordinates of Sq^{gen_exp} applied to the element with these coordinates."""
        elt = reduce(xor, (self.masks[d][j] for j, c in coords.items() if c % 2), 0)
        return self.reduce_ambient(_mask_mul([(gen_exp,)], tuple(_words_at(elt, d))),
                                   d + gen_exp) or {}


def _ideal_span(spec: SubalgebraSpec, gens: Iterable[SteenrodElement], d: int) -> fplin.Span:
    """The degree-d part of the left ideal B{gens}, spanned by every b g
    with b in B's basis, in B_d's coordinates.  The gens lie in B, so each
    b g lies in B_d and its coordinates are its bits at B_d's pivots."""
    deg = _degree(spec, d)
    span = fplin.Span(deg.span.ncols, 2)
    for g in gens:
        db = d - element_degree(g)
        for b in _rows(spec, db):
            span.add(_mask_mul(_words_at(b, db), g) & deg.pivot_mask)
    return span


def quotient_module(
    spec: SubalgebraSpec,
    left_ideal_gens: Iterable[SteenrodElement],
) -> GradedModulePresentation:
    """Quotient of a finite subalgebra by the left ideal on the given generators."""
    if not spec.finite:
        raise ValueError("quotient modules need a finite subalgebra")
    gens = [g for g in left_ideal_gens if g]
    for g in gens:
        _require_in(spec, g)
    relations = {d: _ideal_span(spec, gens, d) for d in range(spec.top_degree + 1)
                 if _rows(spec, d)}
    vectors = {d: {j: frozenset({j})
                   for j in sorted(_degree(spec, d).basis.keys() - set(span.pivots))}
               for d, span in relations.items()}
    return GradedModulePresentation(spec, gens, relations, vectors)


def module_map_kernel(
    f: SteenrodElement,
    source: GradedModulePresentation,
    target: GradedModulePresentation,
) -> tuple[GradedModulePresentation, int]:
    """Kernel of right multiplication by f, plus the cokernel rank.

    Right multiplication [u] -> [u f] is a left-module homomorphism when
    I f lies in the target's ideal J.  Since (a g) f = a (g f) and J is a
    left ideal, that is checked exactly on the source's ideal generators:
    each g f must be zero in the target.
    """
    df = element_degree(f)
    if df is None:
        raise ValueError("zero map: kernel is the whole source")
    _require_in(source.spec, f)
    for g in source.ideal:
        if target.reduce_ambient(_mask_mul(g, f), element_degree(g) + df) != {}:
            raise ValueError(f"right multiplication by {element_str(f)} is not well defined: "
                             f"{element_str(g)} times it is {element_str(steenrod_mul(g, f))}, "
                             f"not zero in the target")
    image_rank = 0
    kernel_vectors: dict[int, dict[int, frozenset[int]]] = {}
    for d in source.degrees():
        cols = []
        for e in source.masks[d]:
            red = target.reduce_ambient(_mask_mul(_words_at(e, d), f), d + df)
            if red is None:
                raise ValueError(f"map image leaves target span in degree {d + df}")
            cols.append(red)
        kvecs = fplin.kernel_basis(fplin.SparseMat(cols, 2))
        image_rank += len(cols) - len(kvecs)
        # a standard kernel vector is 1 at its free column max(kv) and 0 at
        # the other free columns, so it holds that column's lead alone
        vecs = list(source.vectors[d].items())
        kernel_vectors[d] = {vecs[max(kv)][0]: _sum(vecs[j][1] for j in kv) for kv in kvecs}
    kernel = GradedModulePresentation(source.spec, source.ideal, source.relations,
                                      kernel_vectors)
    return kernel, target.total_rank() - image_rank


def cyclic_and_annihilator_check(
    m: GradedModulePresentation,
    generator: SteenrodElement,
    generator_degree: int,
    candidate_ann_gens: Iterable[SteenrodElement],
) -> bool:
    """True iff generator's orbit spans m, the candidates kill it, and the
    candidate quotient has m's Poincare series (shifted by the generator)."""
    if not m.reduce_ambient(generator, generator_degree):
        return False
    # the orbit B x inside U/I, spanned like the ideal: (B x + I_d) / I_d
    if any(_ideal_span(m.spec, [generator, *m.ideal], d).rank != m.relations[d].rank + m.dim(d)
           for d in m.degrees()):
        return False
    cands = [c for c in candidate_ann_gens if c]
    if any(m.reduce_ambient(_mask_mul(c, generator), generator_degree + element_degree(c))
           != {} for c in cands):
        return False
    # the quotient by the candidates has m's series, shifted by the generator
    q = quotient_module(m.spec, cands)
    return {d + generator_degree: n for d, n in q.poincare().items()} == m.poincare()


# ---------------------------------------------------------------------------
# the dual Steenrod algebra (all primes)

class _MilnorMonomial(NamedTuple):
    xi: tuple[int, ...] = ()
    tau: tuple[int, ...] = ()  # sorted, distinct
    conjugated: bool = True


class MilnorMonomial(_MilnorMonomial):
    """Monomial in the dual Steenrod algebra.

    xi holds exponents of xi_1, xi_2, ... (trailing zeros trimmed); tau
    is the set of indices of exterior generators tau_k (odd primes
    only).  The conjugated flag selects the antipode alphabet
    xibar/taubar.  Ordered and hashed as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MilnorMonomial:
        self = super().__new__(cls, *args, **kwargs)
        if self.xi and self.xi[-1] == 0:
            raise ValueError("trailing zero xi exponent")
        if list(self.tau) != sorted(set(self.tau)):
            raise ValueError("tau indices must be sorted and distinct")
        return self

    def degree(self, p: int) -> int:
        if p == 2:
            return sum(e * (2 ** (k + 1) - 1) for k, e in enumerate(self.xi))
        return sum(e * 2 * (p ** (k + 1) - 1) for k, e in enumerate(self.xi)) + sum(
            2 * p ** k - 1 for k in self.tau
        )

    def is_one(self) -> bool:
        return not self.xi and not self.tau

    def factors(self) -> list[tuple[MilnorMonomial, int]]:
        """The pairs (tau_k, 1), then (xi_k, e) for e > 0, whose product this is."""
        return [(_tau(k, self.conjugated), 1) for k in self.tau] + [
            (_xi(k + 1, 1, self.conjugated), e) for k, e in enumerate(self.xi) if e]

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        bar = "bar" if self.conjugated else ""
        parts = []
        for k in self.tau:
            parts.append(f"tau{bar}{k}")
        for k, e in enumerate(self.xi):
            if e == 1:
                parts.append(f"xi{bar}{k + 1}")
            elif e:
                parts.append(f"xi{bar}{k + 1}^{e}")
        return " ".join(parts)


def _xi(k: int, e: int = 1, conjugated: bool = True) -> MilnorMonomial:
    xi = [0] * k
    xi[k - 1] = e
    return MilnorMonomial(tuple(xi), (), conjugated)


def _tau(k: int, conjugated: bool = True) -> MilnorMonomial:
    return MilnorMonomial((), (k,), conjugated)


def milnor_one(conjugated: bool = True) -> MilnorMonomial:
    return MilnorMonomial((), (), conjugated)


def milnor_mul(a: MilnorMonomial, b: MilnorMonomial, p: int) -> tuple[MilnorMonomial | None, int]:
    """Product of two monomials in the same alphabet: (monomial, sign) or (None, 0)."""
    if a.conjugated != b.conjugated:
        raise ValueError("mixed alphabets")
    if set(a.tau) & set(b.tau):
        return None, 0
    sign = 1
    if p != 2 and a.tau and b.tau:
        inv = sum(1 for i in a.tau for j in b.tau if i > j)
        sign = -1 if inv % 2 else 1
    n = max(len(a.xi), len(b.xi))
    # neither factor ends in a zero exponent (MilnorMonomial refuses one), so their sum does not
    xi = tuple((a.xi[i] if i < len(a.xi) else 0) + (b.xi[i] if i < len(b.xi) else 0) for i in range(n))
    return MilnorMonomial(xi, tuple(sorted(a.tau + b.tau)), a.conjugated), sign % p


def dual_mul(a: Mapping[MilnorMonomial, int], b: Mapping[MilnorMonomial, int], p: int) -> dict[MilnorMonomial, int]:
    """Product of two dual-algebra elements in the same alphabet."""
    return fplin.mul(a, b, lambda x, y: milnor_mul(x, y, p), p)


def milnor_basis(p: int, degree: int, conjugated: bool = True) -> list[MilnorMonomial]:
    """All dual-algebra monomials of the given degree, graded-lex ordered."""
    fplin.check_prime(p)
    xi_degs = []
    k = 1
    while True:
        dk = (2 ** k - 1) if p == 2 else 2 * (p ** k - 1)
        if dk > degree:
            break
        xi_degs.append(dk)
        k += 1
    tau_degs = []
    if p != 2:
        k = 0
        while 2 * p ** k - 1 <= degree:
            tau_degs.append(2 * p ** k - 1)
            k += 1

    out: list[MilnorMonomial] = []

    def rec_xi(idx: int, remaining: int, exps: list[int], taus: tuple[int, ...]):
        if remaining == 0:  # the last exponent taken is nonzero, so xi needs no trimming
            out.append(MilnorMonomial(tuple(exps), taus, conjugated))
            return
        if idx >= len(xi_degs):
            return
        for e in range(remaining // xi_degs[idx] + 1):
            rec_xi(idx + 1, remaining - e * xi_degs[idx], exps + [e], taus)

    def rec_tau(idx: int, remaining: int, taus: list[int]):
        rec_xi(0, remaining, [], tuple(taus))
        for j in range(idx, len(tau_degs)):
            if tau_degs[j] <= remaining:
                rec_tau(j + 1, remaining - tau_degs[j], taus + [j])

    rec_tau(0, degree, [])  # each leaf is one (taus, xi) of exactly this degree
    return sorted(out, key=lambda m: (m.tau, m.xi))


_TensorElt = dict  # dict[(MilnorMonomial, MilnorMonomial), int]


def _gen_coproduct(gen: MilnorMonomial, p: int) -> _TensorElt:
    """Coproduct of a single xi_k / tau_k generator (exponent 1).

    The conjugated formulas are stated once; the unconjugated ones are
    their mirror images, psi(xi_k) = sum xi_{k-i}^{p^i} (x) xi_i and
    psi(tau_k) = tau_k (x) 1 + sum xi_{k-i}^{p^i} (x) tau_i, so the tensor
    factors are swapped (no term has two odd factors, so no sign).
    """
    conj = gen.conjugated
    one = milnor_one(conj)

    def xi(j: int, e: int) -> MilnorMonomial:
        return one if j == 0 else _xi(j, e, conj)

    if gen.tau:
        (k,) = gen.tau
        # psi(taubar_k) = 1 (x) taubar_k + sum taubar_i (x) xibar_{k-i}^{p^i}
        terms = [(one, _tau(k, conj))] + [(_tau(i, conj), xi(k - i, p ** i)) for i in range(k + 1)]
    else:
        k = len(gen.xi)
        # psi(xibar_k) = sum xibar_i (x) xibar_{k-i}^{p^i}
        terms = [(xi(i, 1), xi(k - i, p ** i)) for i in range(k + 1)]
    return {(left, right) if conj else (right, left): 1 for left, right in terms}


@lru_cache(maxsize=None)
def _coproduct_cached(m: MilnorMonomial, p: int) -> tuple:
    slot = (lambda a, b: milnor_mul(a, b, p), lambda a: a.degree(p))
    tensor_mul = partial(fplin.mul, monomial_mul=fplin.tensor_monomial_mul([slot, slot], p), p=p)
    one = milnor_one(m.conjugated)
    acc = fplin.product(((_gen_coproduct(g, p), e) for g, e in m.factors()), tensor_mul,
                        {(one, one): 1})
    return tuple(sorted(acc.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))))


def milnor_coproduct(m: MilnorMonomial, p: int) -> dict[tuple[MilnorMonomial, MilnorMonomial], int]:
    """Coproduct extended multiplicatively from the generator formulas."""
    return dict(_coproduct_cached(m, p))


@lru_cache(maxsize=None)
def _chi_xi(k: int, p: int) -> tuple:
    """chi(xi_k) as a polynomial in the unconjugated xi alphabet."""
    if k == 0:
        return ((milnor_one(False), 1),)
    # sum_{i+j=k} xi_i * chi(xi_j)^{p^i} = 0, so
    # chi(xi_k) = -sum_{i>=1} xi_i * chi(xi_{k-i})^{p^i}
    out: dict[MilnorMonomial, int] = {}
    for i in range(1, k + 1):
        term = fplin.power(dict(_chi_xi(k - i, p)), p ** i, partial(dual_mul, p=p))
        for m, c in dual_mul({_xi(i, 1, False): 1}, term, p).items():
            fplin.add_term(out, m, -c, p)
    return tuple(sorted(out.items(), key=lambda kv: str(kv[0])))


@lru_cache(maxsize=None)
def _chi_tau(k: int, p: int) -> tuple:
    """chi(tau_k) as a polynomial in the unconjugated alphabet."""
    # 0 = tau_k + sum_{i+j=k} xi_i^{p^j} * chi(tau_j), i >= 0 including i=0
    out: dict[MilnorMonomial, int] = {_tau(k, False): -1 % p}
    for i in range(1, k + 1):
        j = k - i
        for m, c in dual_mul({_xi(i, p ** j, False): 1}, dict(_chi_tau(j, p)), p).items():
            fplin.add_term(out, m, -c, p)
    return tuple(sorted(out.items(), key=lambda kv: str(kv[0])))


def conjugate(m: MilnorMonomial, p: int) -> dict[MilnorMonomial, int]:
    """Expand a monomial in the opposite alphabet via the antipode recursion.

    A conjugated monomial comes back as a polynomial in plain xi/tau and
    vice versa; the same recursion works both ways since chi is an
    involution here.
    """
    target_conj = not m.conjugated

    def chi(g: MilnorMonomial) -> dict[MilnorMonomial, int]:
        """chi of a generator, as a polynomial in the target alphabet."""
        elt = _chi_tau(g.tau[0], p) if g.tau else _chi_xi(len(g.xi), p)
        return {MilnorMonomial(mm.xi, mm.tau, target_conj): c for mm, c in elt}

    return fplin.product(((chi(g), e) for g, e in m.factors()), partial(dual_mul, p=p),
                         {milnor_one(target_conj): 1})


def antipode(elt: Mapping[MilnorMonomial, int], p: int) -> dict[MilnorMonomial, int]:
    """Antipode chi on a polynomial, staying in its own alphabet."""
    return fplin.linear(elt, lambda m: {MilnorMonomial(mm.xi, mm.tau, m.conjugated): c
                                        for mm, c in conjugate(m, p).items()}, p)


def _to_unconjugated(elt: Mapping[MilnorMonomial, int], p: int) -> dict[MilnorMonomial, int]:
    return fplin.linear(elt, lambda m: conjugate(m, p) if m.conjugated else {m: 1}, p)


def pairing(a: SteenrodElement, m: MilnorMonomial | Mapping[MilnorMonomial, int], p: int = 2) -> int:
    """<Sq^{i1}...Sq^{ik}, m> via iterated coproduct; p = 2 only.

    The base case is <Sq^i, xi_1^i> = 1 with every other degree-i
    monomial pairing to zero.
    """
    if p != 2:
        raise ValueError("the admissible-side pairing is implemented at p = 2 only")
    elt = {m: 1} if isinstance(m, MilnorMonomial) else dict(m)
    elt = _to_unconjugated(elt, 2)
    total = 0
    for word in a:
        for mono, c in elt.items():
            if sum(word) != mono.degree(2):
                raise ValueError("degree mismatch in pairing")
            total ^= _pair_word(word, mono) & (c % 2)
    return total


def _pair_word(word: tuple[int, ...], m: MilnorMonomial) -> int:
    if not word:
        return 1 if m.is_one() else 0
    if len(word) == 1:
        return 1 if m.xi == (word[0],) or (word[0] == 0 and m.is_one()) else 0
    i = word[0]
    total = 0
    for (l, r), c in milnor_coproduct(m, 2).items():
        if l.degree(2) == i and _pair_word((i,), l):
            total ^= _pair_word(word[1:], r) & c
    return total


def parse_milnor(text: str, p: int = 2) -> dict[MilnorMonomial, int]:
    """Parse 'xibar1^2 taubar0' / '2 xi2' style dual-algebra monomials."""
    text = text.strip()
    if text in ("1", ""):
        return {milnor_one(): 1}
    coeff = 1
    xi: dict[int, int] = {}
    taus: list[int] = []
    conj = None
    for tok in text.replace("*", " ").split():
        if tok.isdigit():
            coeff = coeff * int(tok) % p
            continue
        exp = 1
        if "^" in tok:
            tok, _, e = tok.partition("^")
            if not e.isdecimal() or int(e) == 0:
                raise ValueError(f"exponent must be a positive whole number in {tok + '^' + e!r}")
            exp = int(e)
        bar = "bar" in tok
        core = tok.replace("bar", "")
        if conj is None:
            conj = bar
        elif conj != bar:
            raise ValueError("mixed alphabets in one monomial")
        head = "xi" if core.startswith("xi") else "tau" if core.startswith("tau") else None
        if head is None:
            raise ValueError(f"cannot parse dual-algebra token {tok!r}")
        if not (k := core[len(head):]).isdecimal():
            raise ValueError(f"the index of {tok!r} must be a whole number")
        if head == "xi":
            xi[int(k)] = xi.get(int(k), 0) + exp
        elif exp > 1 or int(k) in taus:
            raise ValueError(f"{tok} appears squared in {text!r}, but tau_k^2 = 0")
        else:
            taus.append(int(k))
    n = max(xi, default=0)
    vec = tuple(xi.get(k, 0) for k in range(1, n + 1))
    m = MilnorMonomial(vec, tuple(sorted(taus)), True if conj is None else conj)
    return {m: coeff % p}


def dual_action(
    coaction_terms: Iterable[tuple[Mapping[MilnorMonomial, int], object]],
    r: int,
    p: int = 2,
) -> dict[object, int]:
    """Sq^r_* x = sum <Sq^r, a_i> x_i from a coaction nu(x) = sum a_i (x) x_i."""
    sq = frozenset({(r,)}) if r else steenrod_one()
    out: dict[object, int] = {}
    for a, x in coaction_terms:
        part = {mm: c for mm, c in a.items() if mm.degree(p) == r}
        if not part:
            continue
        fplin.add_term(out, x, pairing(sq, part, p), p)
    return out
