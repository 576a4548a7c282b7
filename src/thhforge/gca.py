"""Presented graded-commutative F_p-algebras.

A presentation is a list of generators of four kinds (polynomial,
exterior, truncated of height h, divided power), an optional square-zero
flag, and a degree bound N up to which monomial bases are materialized.
Divided power generators are stored expanded as the truncated height-p
family gamma_{p^i}; general gamma_j are derived monomials.

Coaction tables over the dual Steenrod algebra and fiberwise coproduct
data (for spectral sequence pages) live here too, each with the test for
primitives it supports.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import fplin
from .steenrod import MilnorMonomial, milnor_mul, milnor_one

__all__ = [
    "GeneratorSpec",
    "AlgebraPresentation",
    "CoactionTable",
    "HopfData",
    "expand_divided",
    "gamma_coefficient",
    "sigma_name",
]

Monomial = tuple  # tuple[(gen_index, exponent), ...], sorted by index
Element = dict    # dict[Monomial, int]


class _GeneratorSpec(NamedTuple):
    name: str
    degree: int
    kind: str
    height: int = 0          # for truncated
    filtration: int = 0
    idempotent: bool = False
    sigma_of: str | None = None
    gamma_power: int = 0     # p^i for members of a divided tower, else 0


class GeneratorSpec(_GeneratorSpec):
    """One algebra generator.

    kind is one of polynomial | exterior | truncated; divided power
    input is expanded before reaching here (see expand_divided).  The
    filtration field carries the homological filtration on spectral
    sequence pages; sigma_of/gamma_power record how suspension classes
    were produced so the extension-resolution rules can find them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GeneratorSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("polynomial", "exterior", "truncated"):
            raise ValueError(f"generator {self.name}: unknown kind {self.kind!r} "
                             "(polynomial, exterior or truncated)")
        if self.kind == "truncated" and self.height < 2:
            raise ValueError(f"generator {self.name}: truncated needs a height >= 2")
        if self.degree < 0:
            raise ValueError(f"generator {self.name}: negative degree {self.degree}")
        if self.filtration < 0:  # the series carry it as a left shift
            raise ValueError(f"generator {self.name}: negative filtration {self.filtration}")
        return self

    def max_exponent(self) -> int | None:
        if self.idempotent:
            return 1
        if self.kind == "exterior":
            return 1
        if self.kind == "truncated":
            return self.height - 1
        return None  # polynomial


def sigma_name(base: str) -> str:
    """The name of the suspension class sigma x of the generator named base."""
    return f"s({base})"


def expand_divided(
    name: str,
    degree: int,
    p: int,
    max_degree: int,
    filtration: int = 0,
    sigma_of: str | None = None,
) -> list[GeneratorSpec]:
    """Divided power algebra on one class as truncated height-p generators.

    Members are gamma_{p^i}; gamma_1 keeps the given name, higher members
    are labelled g{p^i}(name).  Materialized while the degree stays within
    the bound.
    """
    out = []
    i = 0
    while degree * p ** i <= max_degree:
        gname = name if i == 0 else f"g{p ** i}({name})"
        out.append(
            GeneratorSpec(
                gname,
                degree * p ** i,
                "exterior" if p == 2 else "truncated",
                height=p,
                filtration=filtration * p ** i,
                sigma_of=sigma_of,
                gamma_power=p ** i,
            )
        )
        i += 1
    return out


def gamma_coefficient(j: int, p: int) -> int:
    """Unit c with gamma_j = c^{-1} * prod gamma_{p^i}^{a_i}, j = sum a_i p^i."""
    digits = []
    jj = j
    while jj:
        digits.append(jj % p)
        jj //= p
    denom = 1
    for i, a in enumerate(digits):
        denom *= math.factorial(p ** i) ** a
    c = math.factorial(j) // denom
    return c % p


class AlgebraPresentation:
    """Free graded-commutative algebra on generators, with kind relations."""

    def __init__(
        self,
        p: int,
        generators: Sequence[GeneratorSpec],
        max_degree: int,
        square_zero: bool = False,
    ):
        fplin.check_prime(p)
        self.p = p
        self.N = max_degree
        self.square_zero = square_zero
        self.gens: list[GeneratorSpec] = list(generators)
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        if len(self.index) != len(self.gens):
            raise ValueError("duplicate generator names")
        for g in self.gens:
            if (g.degree == 0) != g.idempotent:  # u^2 = u forces degree 0
                raise ValueError(f"generator {g.name} of degree {g.degree}: exactly the "
                                 "degree-0 generators are idempotent")
            if p != 2 and g.degree % 2 and g.max_exponent() not in (1,):
                raise ValueError(f"odd-degree generator {g.name} must be exterior at odd p")
            if square_zero and g.idempotent:
                raise ValueError(f"idempotent generator {g.name} in a square-zero presentation")
        self._caps = [math.inf if g.max_exponent() is None else g.max_exponent()
                      for g in self.gens]
        self._tail_cache: dict[tuple[int, int], list[Monomial]] = {}
        self._reach: list[int] = []
        self._filtration_cache: dict[int, dict[int, list[Monomial]]] = {}
        self._products: dict[tuple[Monomial, Monomial], tuple[Monomial | None, int]] = {}

    # -- monomials -----------------------------------------------------
    def one(self) -> Monomial:
        return ()

    def gen_monomial(self, name: str, e: int = 1) -> Monomial:
        return ((self.index[name], e),)

    def degree(self, m: Monomial) -> int:
        return sum(self.gens[i].degree * e for i, e in m)

    def filtration(self, m: Monomial) -> int:
        return sum(self.gens[i].filtration * e for i, e in m)

    def monomial_str(self, m: Monomial) -> str:
        if not m:
            return "1"
        parts = []
        for i, e in m:
            parts.append(self.gens[i].name if e == 1 else f"{self.gens[i].name}^{e}")
        return " ".join(parts)

    def mul_monomials(self, m1: Monomial, m2: Monomial) -> tuple[Monomial | None, int]:
        """Product with kind relations and Koszul sign; (None, 0) if zero.

        Memoized on (m1, m2) for the life of the presentation.  That is
        sound because nothing a product reads changes after __init__: p,
        square_zero, the caps and the generator list are never reassigned
        or mutated anywhere in the package, and GeneratorSpec is frozen.
        """
        if not m1:
            return m2, 1
        if not m2:
            return m1, 1
        key = (m1, m2)
        out = self._products.get(key)
        if out is None:
            out = self._products[key] = self._product(m1, m2)
        return out

    def _product(self, m1: Monomial, m2: Monomial) -> tuple[Monomial | None, int]:
        """One merge of the sorted monomials.  Each odd letter of m2 passes the
        odd letters of m1 not yet emitted (exterior at odd p, so exponent 1)."""
        if self.square_zero and self.degree(m1) > 0 and self.degree(m2) > 0:
            return None, 0
        gens = self.gens
        ahead = sum(gens[i].degree % 2 for i, _ in m1)  # odd letters of m1 not yet emitted
        out, sign, j = [], 1, 0
        for i, e in m2:
            while j < len(m1) and m1[j][0] < i:
                ahead -= gens[m1[j][0]].degree % 2
                out.append(m1[j])
                j += 1
            if j < len(m1) and m1[j][0] == i:
                e += m1[j][1]
                j += 1
                if e > self._caps[i]:
                    if not gens[i].idempotent:
                        return None, 0
                    e = 1  # idempotents: u^2 = u
            if gens[i].degree % 2 and ahead % 2:
                sign = -sign
            out.append((i, e))
        out.extend(m1[j:])
        return tuple(out), sign % self.p  # -1 is 1 at p = 2

    # -- elements ------------------------------------------------------
    def el_add(self, a: Element, b: Element, coeff: int = 1) -> Element:
        out = dict(a)
        for m, c in b.items():
            fplin.add_term(out, m, coeff * c, self.p)
        return out

    def el_mul(self, a: Element, b: Element) -> Element:
        return fplin.mul(a, b, self.mul_monomials, self.p)

    # -- bases ----------------------------------------------------------
    # The memoized tails serve all three basis views: degree -> sorted
    # monomials, degree -> filtration -> monomials, and the reduced list.
    # Returned lists may be shared; callers must not mutate.
    def monomial_basis(self, degree: int) -> list[Monomial]:
        """All kind-respecting monomials of one internal degree, sorted."""
        if degree > self.N:
            raise ValueError(f"degree {degree} above presentation bound {self.N}")
        if degree < 0:
            return []
        if self.square_zero:
            out = [((i, 1),) for i, g in enumerate(self.gens) if g.degree == degree]
            return [()] + out if degree == 0 else out
        self._reach = self._reach or self._reachable()
        return self._tails(0, degree)

    def _tails(self, idx: int, remaining: int) -> list[Monomial]:
        """Monomials in the generators idx.. of one degree.

        Memoized on (idx, remaining), so every degree reuses the tails of
        the others.  Taking g^1, g^2, ... before skipping g emits the list
        in lexicographic order (an idempotent is a degree-0 generator of
        cap 1; the unit leads), skipping the degrees _reachable rules out.
        """
        cache = self._tail_cache
        out = cache.get((idx, remaining))
        if out is not None:
            return out
        if not self._reach[idx] >> remaining & 1:
            return []
        if idx == len(self.gens):
            out = [()]
        else:
            out = []
            g, reach = self.gens[idx], self._reach[idx + 1]
            e = 1
            while e * g.degree <= remaining and e <= self._caps[idx]:
                rest = remaining - e * g.degree
                if reach >> rest & 1:  # skip degrees the later generators miss
                    tails = cache.get((idx + 1, rest)) or self._tails(idx + 1, rest)
                    head = ((idx, e),)
                    out.extend(head + t for t in tails)
                e += 1
            skip = self._tails(idx + 1, remaining)
            out = skip[:1] + out + skip[1:] if remaining == 0 else out + skip
        cache[(idx, remaining)] = out
        return out

    def _reachable(self) -> list[int]:
        """Bit t of entry idx is set when the generators idx.. have a monomial of degree t."""
        reach = [1]
        for g, cap in zip(self.gens[::-1], self._caps[::-1]):
            mask = reach[-1]
            for e in range(1, min(cap, self.N // g.degree) + 1 if g.degree else 1):
                mask |= reach[-1] << e * g.degree & (2 << self.N) - 1
            reach.append(mask)
        return reach[::-1]

    def bigraded_basis(self, filtration: int, degree: int) -> list[Monomial]:
        """Monomials of one (filtration, internal degree), in basis order."""
        buckets = self._filtration_cache.get(degree)
        if buckets is None:
            buckets = {}
            for m in self.monomial_basis(degree):
                buckets.setdefault(self.filtration(m), []).append(m)
            self._filtration_cache[degree] = buckets
        return buckets.get(filtration, [])

    def reduced_basis(self, degree: int) -> list[Monomial]:
        """Augmentation-reduced monomials: everything but the unit.

        Degree 0 is nonempty only for idempotent generators (u is a
        legitimate reduced slot in the Hochschild complex of F_p[u]).
        """
        if degree != 0:
            return self.monomial_basis(degree)
        return self.monomial_basis(0)[1:]  # the unit sorts first

    def poincare_series(self, max_degree: int | None = None) -> list[int]:
        """dim_d for 0 <= d <= bound ([] for a negative bound)."""
        n = self.N if max_degree is None else max_degree
        if not self.square_zero or n < 0:
            return self._rows(n, 0)
        series = [1] + [0] * n
        for g in self.gens:
            if g.degree <= n:
                series[g.degree] += 1
        return series

    def bigraded_series(self, max_degree: int | None = None,
                        times: Mapping | None = None) -> dict[tuple[int, int], int]:
        """dims by (filtration, total degree) of the algebra times the table
        times (Kunneth; the unit by default), zeros left out: the base-2^width
        digits of _rows, where no dim exceeds its degree's total."""
        if self.square_zero:
            raise ValueError("bigraded series not defined for square-zero presentations")
        n = self.N if max_degree is None else max_degree
        width = max(self._rows(n, 0, times), default=0).bit_length()
        mask, out = (1 << width) - 1, {}
        for t, v in enumerate(self._rows(n, width, times)):
            s = 0
            while v:
                skip = ((v & -v).bit_length() - 1) // width  # zero digits below the next dim
                s, v = s + skip, v >> skip * width
                out[s, t] = v & mask
                s, v = s + 1, v >> width
        return out

    def _rows(self, n: int, width: int, times: Mapping | None = None) -> list[int]:
        """Row t <= n is the sum of dim(s, t) * 2^(s * width) over filtrations s.

        That is the series in x (degree) and y (filtration) at y = 2^width, a
        ring map, so negative coefficients on the way do no harm.  It starts
        from times (the unit by default); a generator of degree d, filtration
        f and exponent cap c multiplies it by (1 - (x^d y^f)^(c+1)) / (1 - x^d y^f),
        in place; an idempotent by 1 + y^f.
        """
        rows = [0] * (n + 1)
        for (s, t), dim in ({(0, 0): 1} if times is None else times).items():
            if t <= n:
                rows[t] += dim << s * width
        for g in self.gens:
            if g.idempotent:
                rows = [v + (v << g.filtration * width) for v in rows]
                continue
            d, shift, cap = g.degree, g.filtration * width, g.max_exponent()
            if cap is not None:
                top, top_shift = (cap + 1) * d, (cap + 1) * shift
                for t in range(n, top - 1, -1):
                    rows[t] -= rows[t - top] << top_shift
            for t in range(d, n + 1):
                rows[t] += rows[t - d] << shift
        return rows

    # -- divided powers --------------------------------------------------
    def gamma(self, base_name: str, j: int) -> Element:
        """gamma_j of the divided tower whose gamma_1 member is base_name.

        Tower members carry the names produced by expand_divided, so they
        are looked up as g{p^i}(base_name).
        """
        if j == 0:
            return {(): 1}
        exps: dict[int, int] = {}
        jj, i = j, 0
        while jj:
            a = jj % self.p
            if a:
                gname = base_name if i == 0 else f"g{self.p ** i}({base_name})"
                if gname not in self.index:
                    raise ValueError(f"gamma_{j}({base_name}) above the degree bound")
                exps[self.index[gname]] = a
            jj //= self.p
            i += 1
        c = gamma_coefficient(j, self.p)
        return {tuple(sorted(exps.items())): pow(c, -1, self.p)}


def _is_power(e: int, p: int) -> bool:
    """Whether e = p^k for some k >= 0."""
    while e > 1 and e % p == 0:
        e //= p
    return e == 1


# ---------------------------------------------------------------------------
# comodule structure over the dual Steenrod algebra

class CoactionTable:
    """Per-generator coaction values, extended multiplicatively.

    nu(g) is a list of (dual-algebra element, monomial) pairs; dual
    elements are dicts MilnorMonomial -> coefficient in the conjugated
    alphabet.  The extension is as an algebra map.  ideal and xi1_cap (the
    generators of B, xibar1^cap = 0 in E_*) are generator_components' change of rings.
    """

    def __init__(self, presentation: AlgebraPresentation, ideal: Iterable[int] = (),
                 xi1_cap: float = math.inf):
        self.A, self.ideal, self.xi1_cap = presentation, frozenset(ideal), xi1_cap
        p = presentation.p
        # monomial product on A_* (x) H; the slot products are looked up at
        # call time, so wrappers installed on milnor_mul/mul_monomials see them
        self.mul_monomials = fplin.tensor_monomial_mul(
            [(lambda a, b: milnor_mul(a, b, p), lambda a: a.degree(p)),
             (lambda a, b: self.A.mul_monomials(a, b), presentation.degree)],
            p,
        )
        self._tensor = partial(fplin.mul, monomial_mul=self.mul_monomials, p=p)
        # the same product on the quotient F_p[xibar1] (x) E(taubar0) (x) H,
        # with xibar1^a taubar0^eps held as the pair (a, eps)
        xi1 = 1 if p == 2 else 2 * (p - 1)
        self._quotient_tensor = partial(fplin.mul, monomial_mul=fplin.tensor_monomial_mul(
            [(lambda a, b: (None, 0) if a[1] and b[1] else ((a[0] + b[0], a[1] + b[1]), 1),
              lambda a: xi1 * a[0] + a[1]),
             (lambda a, b: self.A.mul_monomials(a, b), presentation.degree)],
            p,
        ), p=p)
        self.entries: dict[int, list[tuple[dict, Monomial]]] = {}
        self._memo: dict[Monomial, dict] = {}
        self._quotient_memo: dict[Monomial, dict] = {}

    def set_gen(self, name: str, terms: Iterable[tuple[Mapping[MilnorMonomial, int], Monomial]]) -> None:
        idx = self.A.index[name]
        self.entries[idx] = [(dict(a), m) for a, m in terms]
        self._memo = {}
        self._quotient_memo = {}

    def set_primitive(self, name: str) -> None:
        self.set_gen(name, [({milnor_one(): 1}, self.A.gen_monomial(name))])

    def has_gen(self, name: str) -> bool:
        return self.A.index[name] in self.entries

    def _generator_nu(self, i: int, project=lambda a: a) -> dict:
        """nu(g_i) as dict[(dual monomial, Monomial)] -> coeff, the dual
        monomials mapped through project (None drops the term)."""
        if i not in self.entries:
            raise KeyError(f"coaction not available for generator {self.A.gens[i].name}")
        out: dict = {}
        for a_elt, mono in self.entries[i]:
            for mm, cc in a_elt.items():
                if (q := project(mm)) is not None:
                    fplin.add_term(out, (q, mono), cc, self.A.p)
        return out

    def nu_monomial(self, m: Monomial) -> dict:
        """Coaction on a basis monomial: dict[(MilnorMonomial, Monomial)] -> coeff."""
        if m in self._memo:
            return self._memo[m]
        acc = fplin.product(((self._generator_nu(i), e) for i, e in m), self._tensor,
                            {(milnor_one(), ()): 1})
        self._memo[m] = acc
        return acc

    def generator_components(self, m: Monomial) -> dict:
        """The xibar1^{p^i} and, at odd p, taubar0 components of nu(m).

        They give the action on m of chi Sq^{2^i} (at odd p chi P^{p^i} and
        chi beta), which generate the Steenrod algebra, so an element is a
        comodule primitive iff its components vanish.  They are read off
        the image of nu(m) in the quotient algebra F_p[xibar1] (x) E(taubar0)
        of A_* by (xibar_k, k >= 2; taubar_k, k >= 1).  Under a change of
        rings m (outside B+) stands for its class in M / B+M: terms with a
        factor in B are dropped and only the xibar1^{2^i} below the cap are
        read.  H -> H / (B+) is an algebra map, so dropping them after the
        product equals dropping them from each generator's coaction.
        """
        p = self.A.p
        return {(q, mono): c for (q, mono), c in self._quotient_nu(m).items()
                if (q[0] == 0 if q[1] else _is_power(q[0], p) and q[0] < self.xi1_cap)
                and self.ideal.isdisjoint(dict(mono))}

    def _quotient_nu(self, m: Monomial) -> dict:
        """nu(m) in F_p[xibar1] (x) E(taubar0) (x) H, memoized by prefixes:
        nu(m g^e) = nu(m) nu(g^e)."""
        if m in self._quotient_memo:
            return self._quotient_memo[m]
        if len(m) > 1:
            out = self._quotient_tensor(self._quotient_nu(m[:-1]), self._quotient_nu(m[-1:]))
        elif m:
            ((i, e),) = m
            gen = self._generator_nu(
                i, lambda a: None if len(a.xi) > 1 or a.tau not in ((), (0,))
                else (sum(a.xi), len(a.tau)))
            out = fplin.power(gen, e, self._quotient_tensor)
        else:
            out = {((0, 0), ()): 1}
        self._quotient_memo[m] = out
        return out

    def nu(self, elt: Element) -> dict:
        return fplin.linear(elt, self.nu_monomial, self.A.p)

    def steenrod_action(self, r: int, elt: Element) -> Element:
        """Dual Steenrod operation Sq^r_* (p = 2) from the coaction."""
        from .steenrod import dual_action

        terms = [({a: c}, m) for (a, m), c in self.nu(elt).items()]
        return dual_action(terms, r, self.A.p)


# ---------------------------------------------------------------------------
# fiberwise coproduct data (Hopf algebra over the filtration-0 base)

class HopfData:
    """Coproducts of the positive-filtration generators over the base,
    read off their specs on first use.

    A member gamma_k of a divided tower (gamma_power k, sigma_of x) has
    psi(gamma_k) = sum_{a+b=k} gamma_a (x) gamma_b over the tower on
    s(x); every other positive-filtration generator y is primitive, the
    k = 1 case of the same sum on y itself.  Tensors are canonicalized as
    (base monomial) * (u (x) v) with u, v monomials in positive-filtration
    generators; base elements act as scalars and move across the tensor
    sign-free only up to the usual Koszul rule, which is applied on the way.
    """

    def __init__(self, presentation: AlgebraPresentation):
        self.A = presentation
        # monomial product on (base, u, v) triples, looked up at call time
        slot = (lambda a, b: self.A.mul_monomials(a, b), presentation.degree)
        self.mul_monomials = fplin.tensor_monomial_mul([slot] * 3, presentation.p)
        self._psi: dict[int, dict] = {}  # gen -> dict[(lam,u,v)] -> coeff

    def _split_base(self, m: Monomial) -> tuple[Monomial, Monomial]:
        base = tuple((i, e) for i, e in m if self.A.gens[i].filtration == 0)
        fiber = tuple((i, e) for i, e in m if self.A.gens[i].filtration != 0)
        return base, fiber

    def _entry(self, i: int) -> dict:
        if i not in self._psi:
            g, A = self.A.gens[i], self.A
            if g.filtration == 0:
                raise KeyError(f"no coproduct entry for generator {g.name}")
            divided = g.gamma_power and g.sigma_of is not None
            tower, k = (sigma_name(g.sigma_of), g.gamma_power) if divided else (g.name, 1)
            out: dict = {}
            for a in range(k + 1):
                for lm, lc in A.gamma(tower, a).items():
                    for rm, rc in A.gamma(tower, k - a).items():
                        fplin.add_term(out, ((), lm, rm), lc * rc, A.p)
            self._psi[i] = out
        return self._psi[i]

    def psi_monomial(self, m: Monomial) -> dict:
        base, fiber = self._split_base(m)
        tensor = partial(fplin.mul, monomial_mul=self.mul_monomials, p=self.A.p)
        return fplin.product(((self._entry(i), e) for i, e in fiber), tensor, {(base, (), ()): 1})

    def is_primitive(self, m: Monomial) -> bool:
        """Whether the monomial m = b y^e is a coalgebra primitive over the base.

        Each fiber is monogenic and primitives of a tensor product of
        connected coalgebras are the sums of those of the factors
        (Milnor-Moore), so m is one exactly when its fiber part is a single
        generator y with psi(y) = y (x) 1 + 1 (x) y and e a power of p.  A
        divided tower gamma_{p^i} is primitive only at gamma_1, whose
        exponent stays below p.
        """
        _, fiber = self._split_base(m)
        if len(fiber) != 1:
            return False
        ((i, e),) = fiber
        g = ((i, 1),)
        return self._entry(i) == {((), g, ()): 1, ((), (), g): 1} and _is_power(e, self.A.p)
