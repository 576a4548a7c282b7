"""The mod-2 Steenrod algebra and its dual at all primes.

Admissible-form elements with Adem reduction live at p = 2 only; the
dual side (Milnor monomials, coproduct, conjugation) is implemented at
every prime.  Finite subalgebras A_n are closed up degreewise from the
lower degrees a request reaches, stopping once the span reaches the
Milnor-basis dimension of A(n) in that degree; exterior subalgebras on
the Milnor primitives Q_i are spanned by square-free products.  Each
(subalgebra, degree) is built once into one memo: the basis as RREF rows,
the admissible index of that degree and the span.  That is the one
coordinate system of every module over the subalgebra, a subquotient U/I
held as data, and of the check that an element lies in the subalgebra.
Right multiplication by f is well defined when g f lies in the target's
ideal for each generator g of the source ideal, since (a g) f = a (g f);
the kernel checks exactly that.

Every product goes through steenrod_mul.  A joined word keeps its
longest admissible suffix, and the letters left of it are prepended one
at a time through one memoized kernel, Sq^a w for an admissible word w
with a < 2 w[0].  That memo is module-level and keyed on integer tuples,
so it cannot go stale; it lives as long as the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Mapping, NamedTuple, Sequence

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

    The one product memo: an Adem relation on Sq^a Sq^{w[0]}, then its
    terms are prepended to the admissible rest of w.
    """
    out: set = set()
    for t in _adem_pair(a, w[0]):
        out.symmetric_difference_update(_prepend(t, frozenset({w[1:]})))
    return frozenset(out)


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


def parse_element(text: str) -> SteenrodElement:
    """Parse sums of Sq words: 'Sq4Sq6+Sq6Sq4', 'Sq^2 Sq^1', '1', 'Q1'."""
    out: set = set()
    for term in text.replace(" ", "").split("+"):
        if not term:
            continue
        if term == "1":
            out.symmetric_difference_update({()})
            continue
        if term.startswith("Q") and term[1:].isdigit():
            out.symmetric_difference_update(milnor_primitive(int(term[1:])))
            continue
        word = []
        for piece in term.replace("^", "").split("Sq"):
            if piece:
                if not piece.isdigit():
                    raise ValueError(f"cannot parse term {term!r}")
                word.append(int(piece))
        if not word or not term.startswith("Sq"):
            raise ValueError(f"cannot parse term {term!r}")
        out.symmetric_difference_update(adem_reduce(word))
    return frozenset(out)


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

@dataclass(frozen=True)
class SubalgebraSpec:
    """A itself, A_n = <Sq^1 ... Sq^{2^n}>, or an exterior algebra on Q_i's."""

    kind: str  # "A" | "An" | "E"
    n: int = -1
    qs: tuple[int, ...] = ()

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

    @property
    def id(self) -> str:
        if self.kind == "A":
            return "A"
        if self.kind == "An":
            return f"A{self.n}"
        return "E" + "".join(str(q) for q in self.qs)

    def generator_exponents(self) -> list[int]:
        if self.kind != "An":
            raise ValueError("generator exponents only defined for A_n")
        return [2 ** i for i in range(self.n + 1)]

    def top_degree(self) -> int:
        if self.kind == "An":
            # dual is P(xi_j)/(xi_j^{2^{n+2-j}}), 1 <= j <= n+1
            return sum((2 ** (self.n + 2 - j) - 1) * (2 ** j - 1) for j in range(1, self.n + 2))
        if self.kind == "E":
            return sum(2 ** (k + 1) - 1 for k in self.qs)
        raise ValueError("full Steenrod algebra is infinite")

    @staticmethod
    def parse(text: str) -> "SubalgebraSpec":
        t = text.strip().upper().replace("(", "").replace(")", "").replace("Q", "")
        if t == "A":
            return SubalgebraSpec.full()
        if t.startswith("A") and t[1:].isdigit():
            return SubalgebraSpec.A(int(t[1:]))
        if t.startswith("E") and (t[1:].isdigit() or t == "E"):
            if t == "E":
                raise ValueError("full exterior subalgebra is infinite; list the Q indices")
            return SubalgebraSpec.E(*(int(c) for c in t[1:]))
        raise ValueError(f"unknown subalgebra {text!r}")


class _Degree(NamedTuple):
    """A finite subalgebra B in one degree d, in admissible coordinates."""

    basis: list[SteenrodElement]  # the RREF rows of B_d, in increasing pivot order
    index: dict[tuple[int, ...], int]  # admissible word of degree d -> column
    span: fplin.Span  # B_d
    row_of: dict[int, int]  # pivot column -> position in basis


# (subalgebra id, degree) -> _Degree: the one coordinate system of B_d,
# shared by the closure, every module over B and the membership check
_basis_memo: dict[tuple[str, int], _Degree] = {}


def _degree(spec: SubalgebraSpec, degree: int) -> _Degree:
    key = (spec.id, degree)
    if key in _basis_memo:
        return _basis_memo[key]
    words = admissible_monomials(degree)
    index = {w: i for i, w in enumerate(words)}
    span = fplin.Span(len(words), 2)
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
            sq = frozenset({(i,)})
            for b in steenrod_basis(spec, degree - i):
                if span.rank == target:
                    break
                span.add({index[w]: 1 for w in steenrod_mul(b, sq)})
        if span.rank != target:
            raise RuntimeError(f"A_{spec.n} closure in degree {degree} reached rank "
                               f"{span.rank}, but dim A({spec.n})_{degree} is {target}")
    basis = [frozenset(words[i] for i in row) for row in span.basis()]
    out = _basis_memo[key] = _Degree(basis, index, span,
                                     {piv: j for j, piv in enumerate(span.pivots)})
    return out


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
    if degree < 0:
        return []
    if spec.kind == "A":
        return [frozenset({w}) for w in admissible_monomials(degree)]
    if degree > spec.top_degree():
        return []
    return _degree(spec, degree).basis


def _coordinates(spec: SubalgebraSpec, elt: SteenrodElement, d: int) -> dict[int, int] | None:
    """Coordinates of elt in the basis of B_d, or None if elt is not in B_d.

    The basis rows are in RREF, so an element of the span has its entries
    at the pivot columns as coordinates.
    """
    if not elt:
        return {}
    if not 0 <= d <= spec.top_degree():
        return None
    deg = _degree(spec, d)
    cols = [deg.index.get(w) for w in elt]
    if None in cols or deg.span.reduce(dict.fromkeys(cols, 1)):
        return None
    return {deg.row_of[i]: 1 for i in cols if i in deg.row_of}


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
    return sum(len(steenrod_basis(spec, d)) for d in range(spec.top_degree() + 1))


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
    (subalgebra, degree).  I is the left ideal on the generators in
    `ideal`, and relations[d] is its span I_d.  vectors[d] maps a lead
    coordinate to a basis vector of U_d mod I_d, a set of coordinates
    that holds its lead while the other vectors of that degree do not.
    A quotient B/I has the unit vectors off I_d's pivots; a kernel of
    right multiplication has the standard kernel combinations of its
    source's vectors, over the same I.  elements[d] holds the ambient
    representatives of vectors[d], in order.
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
        self.elements = {d: [_sum(steenrod_basis(spec, d)[j] for j in vec) for vec in v.values()]
                         for d, v in self.vectors.items()}

    # -- structure ---------------------------------------------------
    def degrees(self) -> list[int]:
        return sorted(self.elements)

    def dim(self, d: int) -> int:
        return len(self.elements.get(d, []))

    def labels(self, d: int) -> list[str]:
        return [element_str(e) for e in self.elements.get(d, [])]

    def poincare(self) -> dict[int, int]:
        return {d: len(v) for d, v in sorted(self.elements.items())}

    def total_rank(self) -> int:
        return sum(len(v) for v in self.elements.values())

    def reduce_ambient(self, elt: SteenrodElement, d: int) -> dict[int, int] | None:
        """Coordinates of an ambient element in this module, or None.

        The element's coordinates in B_d (None outside B) are reduced mod
        I_d; the residue's entries at the leads are the coordinates, and
        None if they do not recombine to the residue (outside U).
        """
        coords = _coordinates(self.spec, elt, d)
        if not coords:
            return coords
        residue = self.relations[d].reduce(coords)
        vecs = self.vectors.get(d, {})
        if _sum(v for lead, v in vecs.items() if lead in residue) != residue.keys():
            return None
        return {i: 1 for i, lead in enumerate(vecs) if lead in residue}

    def act(self, gen_exp: int, d: int, coords: Mapping[int, int]) -> dict[int, int]:
        """Coordinates of Sq^{gen_exp} applied to the element with these coordinates."""
        elt = _sum(self.elements[d][j] for j, c in coords.items() if c % 2)
        return self.reduce_ambient(steenrod_mul(frozenset({(gen_exp,)}), elt), d + gen_exp) or {}


def _ideal_span(spec: SubalgebraSpec, gens: Iterable[SteenrodElement], d: int) -> fplin.Span:
    """The degree-d part of the left ideal B{gens}, spanned by every b g
    with b in B's basis, in B_d's coordinates."""
    span = fplin.Span(len(steenrod_basis(spec, d)), 2)
    for g in gens:
        for b in steenrod_basis(spec, d - element_degree(g)):
            span.add(_coordinates(spec, steenrod_mul(b, g), d))
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
    relations = {d: _ideal_span(spec, gens, d) for d in range(spec.top_degree() + 1)
                 if steenrod_basis(spec, d)}
    vectors = {d: {j: frozenset({j}) for j in sorted(set(range(span.ncols)) - set(span.pivots))}
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
        gf = steenrod_mul(g, f)
        if target.reduce_ambient(gf, element_degree(g) + df) != {}:
            raise ValueError(f"right multiplication by {element_str(f)} is not well defined: "
                             f"{element_str(g)} times it is {element_str(gf)}, "
                             f"not zero in the target")
    image_rank = 0
    kernel_vectors: dict[int, dict[int, frozenset[int]]] = {}
    for d in source.degrees():
        cols = []
        for e in source.elements[d]:
            red = target.reduce_ambient(steenrod_mul(e, f), d + df)
            if red is None:
                raise ValueError(f"map image leaves target span in degree {d + df}")
            cols.append(red)
        kvecs = fplin.kernel_basis(fplin.SparseMat.from_columns(cols, 2))
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
    if any(m.reduce_ambient(steenrod_mul(c, generator), generator_degree + element_degree(c))
           != {} for c in cands):
        return False
    # the quotient by the candidates has m's series, shifted by the generator
    q = quotient_module(m.spec, cands)
    return {d + generator_degree: n for d, n in q.poincare().items()} == m.poincare()


# ---------------------------------------------------------------------------
# the dual Steenrod algebra (all primes)

@dataclass(frozen=True, order=True)
class MilnorMonomial:
    """Monomial in the dual Steenrod algebra.

    xi holds exponents of xi_1, xi_2, ... (trailing zeros trimmed); tau
    is the set of indices of exterior generators tau_k (odd primes
    only).  The conjugated flag selects the antipode alphabet
    xibar/taubar.
    """

    xi: tuple[int, ...] = ()
    tau: tuple[int, ...] = ()  # sorted, distinct
    conjugated: bool = True

    def __post_init__(self):
        if self.xi and self.xi[-1] == 0:
            raise ValueError("trailing zero xi exponent")
        if list(self.tau) != sorted(set(self.tau)):
            raise ValueError("tau indices must be sorted and distinct")

    def degree(self, p: int) -> int:
        if p == 2:
            return sum(e * (2 ** (k + 1) - 1) for k, e in enumerate(self.xi))
        return sum(e * 2 * (p ** (k + 1) - 1) for k, e in enumerate(self.xi)) + sum(
            2 * p ** k - 1 for k in self.tau
        )

    def is_one(self) -> bool:
        return not self.xi and not self.tau

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
    xi = tuple((a.xi[i] if i < len(a.xi) else 0) + (b.xi[i] if i < len(b.xi) else 0) for i in range(n))
    while xi and xi[-1] == 0:
        xi = xi[:-1]
    return MilnorMonomial(xi, tuple(sorted(a.tau + b.tau)), a.conjugated), sign % p


def dual_mul(a: Mapping[MilnorMonomial, int], b: Mapping[MilnorMonomial, int], p: int) -> dict[MilnorMonomial, int]:
    """Product of two dual-algebra elements in the same alphabet."""
    return fplin.mul(a, b, lambda x, y: milnor_mul(x, y, p), p)


def milnor_basis(p: int, degree: int, conjugated: bool = True) -> list[MilnorMonomial]:
    """All dual-algebra monomials of the given degree, graded-lex ordered."""
    fplin.PrimeField(p)
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
        if remaining == 0:
            xi = tuple(exps)
            while xi and xi[-1] == 0:
                xi = xi[:-1]
            out.append(MilnorMonomial(xi, taus, conjugated))
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

    rec_tau(0, degree, [])
    out = [m for m in out if m.degree(p) == degree]
    return sorted(set(out), key=lambda m: (m.tau, m.xi))


_TensorElt = dict  # dict[(MilnorMonomial, MilnorMonomial), int]


def _gen_coproduct(gen: MilnorMonomial, p: int) -> _TensorElt:
    """Coproduct of a single xi_k / tau_k generator (exponent 1)."""
    conj = gen.conjugated
    one = milnor_one(conj)
    if gen.tau:
        (k,) = gen.tau
        out: _TensorElt = {}
        if conj:
            # psi(taubar_k) = 1 (x) taubar_k + sum taubar_i (x) xibar_j^{p^i}
            out[(one, _tau(k, conj))] = 1
            for i in range(0, k + 1):
                j = k - i
                right = one if j == 0 else _xi(j, p ** i, conj)
                fplin.add_term(out, (_tau(i, conj), right), 1, p)
        else:
            # psi(tau_k) = tau_k (x) 1 + sum xi_i^{p^j} (x) tau_j
            out[(_tau(k, conj), one)] = 1
            for j in range(0, k + 1):
                i = k - j
                left = one if i == 0 else _xi(i, p ** j, conj)
                fplin.add_term(out, (left, _tau(j, conj)), 1, p)
        return out
    k = len(gen.xi)
    out = {}
    for i in range(0, k + 1):
        j = k - i
        if conj:
            # psi(xibar_k) = sum xibar_i (x) xibar_j^{p^i}
            left = one if i == 0 else _xi(i, 1, conj)
            right = one if j == 0 else _xi(j, p ** i, conj)
        else:
            # psi(xi_k) = sum xi_i^{p^j} (x) xi_j
            left = one if i == 0 else _xi(i, p ** j, conj)
            right = one if j == 0 else _xi(j, 1, conj)
        fplin.add_term(out, (left, right), 1, p)
    return out


@lru_cache(maxsize=None)
def _coproduct_cached(m: MilnorMonomial, p: int) -> tuple:
    slot = (lambda a, b: milnor_mul(a, b, p), lambda a: a.degree(p))
    tensor_mul = partial(fplin.mul, monomial_mul=fplin.tensor_monomial_mul([slot, slot], p), p=p)
    one = milnor_one(m.conjugated)
    acc: _TensorElt = {(one, one): 1}
    for k in m.tau:
        acc = tensor_mul(acc, _gen_coproduct(_tau(k, m.conjugated), p))
    for idx, e in enumerate(m.xi):
        if e:
            gen_psi = _gen_coproduct(_xi(idx + 1, 1, m.conjugated), p)
            acc = tensor_mul(acc, fplin.power(gen_psi, e, tensor_mul))
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
    out: dict[MilnorMonomial, int] = {milnor_one(target_conj): 1}

    def retag(elt: dict[MilnorMonomial, int]) -> dict[MilnorMonomial, int]:
        return {MilnorMonomial(mm.xi, mm.tau, target_conj): c for mm, c in elt.items()}

    for k in m.tau:
        out = dual_mul(out, retag(dict(_chi_tau(k, p))), p)
    for idx, e in enumerate(m.xi):
        if e:
            chi = retag(dict(_chi_xi(idx + 1, p)))
            out = dual_mul(out, fplin.power(chi, e, partial(dual_mul, p=p)), p)
    return out


def antipode(elt: Mapping[MilnorMonomial, int], p: int) -> dict[MilnorMonomial, int]:
    """Antipode chi on a polynomial, staying in its own alphabet."""
    out: dict[MilnorMonomial, int] = {}
    for m, c in elt.items():
        for mm, cc in conjugate(m, p).items():
            fplin.add_term(out, MilnorMonomial(mm.xi, mm.tau, m.conjugated), c * cc, p)
    return out


def _to_unconjugated(elt: Mapping[MilnorMonomial, int], p: int) -> dict[MilnorMonomial, int]:
    out: dict[MilnorMonomial, int] = {}
    for m, c in elt.items():
        if not m.conjugated:
            fplin.add_term(out, m, c, p)
        else:
            for mm, cc in conjugate(m, p).items():
                fplin.add_term(out, mm, c * cc, p)
    return out


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
            tok, e = tok.split("^")
            exp = int(e)
        bar = "bar" in tok
        core = tok.replace("bar", "")
        if conj is None:
            conj = bar
        elif conj != bar:
            raise ValueError("mixed alphabets in one monomial")
        if core.startswith("xi"):
            xi[int(core[2:])] = xi.get(int(core[2:]), 0) + exp
        elif core.startswith("tau"):
            taus.append(int(core[3:]))
        else:
            raise ValueError(f"cannot parse dual-algebra token {tok!r}")
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
