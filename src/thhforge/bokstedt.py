"""The Bokstedt spectral sequence engine.

Pipeline: build the initial term from a catalog homology presentation
(closed-form Hochschild homology with filtrations), apply the odd-prime
divided-power differential, take page homology with recognition against
the expected presentation, certify collapse (generator filtrations or an
obstruction scan over simultaneous coalgebra/comodule primitives), and
resolve the multiplicative extensions through the suspension formula for
Dyer-Lashof operations.

A page is its algebra, its differential on generators and its bound; the
Hopf data and the A_*-comodule structure are functions of the algebra,
derived when a certificate first asks for them.  The page differentials
and the suspension sigma are both odd derivations, extended from
generators by one Leibniz loop (_derivation).
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from typing import Mapping, NamedTuple

from . import fplin
from .catalog import SpectrumData, spectrum
from .gca import AlgebraPresentation, CoactionTable, GeneratorSpec, HopfData, sigma_name
from .hochschild import closed_form_hh, hh_squarezero
from .steenrod import milnor_one

__all__ = [
    "SSPage",
    "build_e2",
    "apply_d_pminus1",
    "page_homology",
    "honest_dims",
    "collapse_check",
    "CoactionBoundError",
    "PageCheckBudgetError",
    "obstruction_scan",
    "resolve_extensions",
    "thh_homology",
    "THHResult",
    "nishida_certificates",
]


class SSPage:
    """One page of a multiplicative spectral sequence.

    The algebra presentation carries per-generator filtrations; the
    differential is stored on generators and extended as a derivation.
    A non-flat initial term, or a page whose check failed, has no algebra
    and carries (filtration, total degree) dims in raw_dims; a page whose
    check passed carries there the algebra's dims it verified, through
    max_degree - 1.  The fiberwise Hopf data and the coaction are computed
    from the algebra on first use.
    """

    def __init__(self, spectrum: SpectrumData | None, r: int, algebra: AlgebraPresentation | None,
                 differential: dict[str, dict] | None = None,
                 raw_dims: dict[tuple[int, int], int] | None = None, max_degree: int = 0) -> None:
        self.spectrum = spectrum
        self.r = r
        self.algebra = algebra
        self.differential = {} if differential is None else differential
        self.raw_dims = raw_dims
        self.max_degree = max_degree

    @cached_property
    def hopf(self) -> HopfData:
        return HopfData(self.algebra)

    @cached_property
    def coaction(self) -> CoactionTable:
        return _page_coaction(self.spectrum, self.algebra)

    @cached_property
    def quotient_base(self) -> tuple[AlgebraPresentation, list[int]]:
        """The base generators outside the coideal B, on their own, and their page indices."""
        A, out = self.algebra, [i for i, g in enumerate(self.algebra.gens)
                                if g.filtration == 0 and g.name not in self.spectrum.coideal]
        return AlgebraPresentation(A.p, [A.gens[i] for i in out], A.N), out

    def generators(self) -> list[GeneratorSpec]:
        return [] if self.algebra is None else self.algebra.gens


def _derivation(A: AlgebraPresentation, image: Mapping[str, dict], m: tuple) -> dict:
    """The odd derivation D with D(g) = image[g.name] on generators, at m.

    D(m) sums (-1)^{|x|} x (e g^{e-1} D(g)) y over the factors g^e of
    m = x g^e y; a factor whose exponent p divides contributes nothing.
    A term c t of D(g) is (-1)^{|x| + |t||y|} e c (x g^{e-1} y) t, one product.
    """
    p, prefix_deg, suffix_deg = A.p, 0, A.degree(m)
    out: dict = {}
    for pos, (i, e) in enumerate(m):
        g = A.gens[i]
        suffix_deg -= g.degree * e
        if (dval := image.get(g.name)) and e % p:
            rest = m[:pos] + (((i, e - 1),) if e > 1 else ()) + m[pos + 1:]
            for t, c in dval.items():
                prod, s = A.mul_monomials(rest, t)
                if prod is not None and s:
                    sign = (-1) ** (prefix_deg + A.degree(t) * suffix_deg)
                    fplin.add_term(out, prod, sign * e * c * s, p)
        prefix_deg += g.degree * e
    return out


# ---------------------------------------------------------------------------
# suspension bookkeeping

def _sigma_map(
    base: AlgebraPresentation,
    target: AlgebraPresentation,
    substitutions: Mapping[str, dict] | None = None,
) -> dict[str, dict]:
    """For each base generator g, (-1)^{|g|} sigma(g) in the target algebra.

    Generators whose suspension was absorbed as a power of a polynomial
    root are covered by the substitutions map; suspensions beyond the
    degree bound simply vanish there.  The sign is the twist of _sigma.
    """
    subs = substitutions or {}
    out: dict[str, dict] = {}
    for g in base.gens:
        sname = sigma_name(g.name)
        img = {target.gen_monomial(sname): 1} if sname in target.index else subs.get(sname, {})
        out[g.name] = {mm: (-1) ** g.degree * c % base.p for mm, c in img.items()}
    return out


def _sigma(target: AlgebraPresentation, sigma_map: Mapping[str, dict], m: tuple) -> dict:
    """sigma(m) for an H-monomial m (H's generators lead the target's).

    sigma(x g^e y) = (-1)^{|y|} x sigma(g^e) y, and (-1)^{|y|} =
    (-1)^{|m| + |x| + |g|} because at odd p an odd g is exterior (e = 1):
    sigma(m) is (-1)^{|m|} D(m) for the derivation D of g -> (-1)^{|g|} sigma(g).
    """
    sign = (-1) ** target.degree(m)
    return {mm: sign * c % target.p for mm, c in _derivation(target, sigma_map, m).items()}


def _page_coaction(
    data: SpectrumData,
    page_alg: AlgebraPresentation,
    substitutions: Mapping[str, dict] | None = None,
) -> CoactionTable:
    """Coaction on a page: base entries carried over, nu(sigma x) = (1 (x) sigma) nu(x)."""
    H = data.homology
    coact = CoactionTable(page_alg, [page_alg.index[g] for g in data.coideal], data.xi1_cap)
    for idx, terms in data.coaction.entries.items():
        coact.entries[page_alg.index[H.gens[idx].name]] = [(dict(a), m) for a, m in terms]
    smap = _sigma_map(H, page_alg, substitutions)
    for g in page_alg.gens:
        if g.filtration == 0 or g.sigma_of is None:
            continue
        if g.gamma_power > 1:
            if data.coaction.has_gen(g.sigma_of):
                base_terms = data.coaction.entries[H.index[g.sigma_of]]
                if len(base_terms) == 1:
                    # primitive base class: the divided tower is primitive too
                    coact.entries[page_alg.index[g.name]] = [
                        ({milnor_one(): 1}, page_alg.gen_monomial(g.name))
                    ]
            continue
        if not data.coaction.has_gen(g.sigma_of):
            continue
        entries = []
        for a_elt, mono in data.coaction.entries[H.index[g.sigma_of]]:
            for mm, c in _sigma(page_alg, smap, mono).items():
                entries.append(({a: (c * v) % page_alg.p for a, v in a_elt.items()}, mm))
        coact.entries[page_alg.index[g.name]] = entries
    return coact


# ---------------------------------------------------------------------------
# stage 1: the initial term

CHAIN_BUDGET = 20000  # chains in a normalized Hochschild complex built on request
VERIFY_BUDGET = 200000  # monomials of a page check's support, or of a steenrod basis


def build_e2(data: SpectrumData, max_degree: int) -> SSPage:
    """Initial term of the spectral sequence from the homology presentation.

    Flat entries get the closed-form presentation with filtrations; the
    non-flat case keeps raw_dims only, by (q, total degree): the closed
    form's series times the square-zero factor's table (Kunneth).
    """
    alg, _ = closed_form_hh(data.homology, max_degree)
    if not data.flat:
        sq_dims = hh_squarezero(list(data.squarezero_factor or ()), max_degree, p=data.p,
                                max_degree=max_degree)
        dims = alg.bigraded_series(max_degree, {(q, q + t): v for (q, t), v in sq_dims.items()})
        return SSPage(data, 2, None, raw_dims=dims, max_degree=max_degree)
    return SSPage(data, 2, alg, max_degree=max_degree)


def _budgeted_bound(H: AlgebraPresentation, bound: int, budget: int, qmax: int | None = None) -> int:
    """Largest t <= bound whose total chain count stays within budget.

    chains(t) = sum_{d0} dim_{d0} * words(t - d0), where words(t) counts
    the words in the reduced algebra (degree 0 holds the idempotent
    monomials other than 1) of total degree t and, when qmax is set, of
    length at most qmax.
    """
    series = H.poincare_series(bound)
    reduced = [series[0] - 1] + series[1:]
    words = [1] + [0] * bound
    level = list(words)  # the words of one length, by degree
    for _ in range(bound if qmax is None else qmax):
        level = [sum(reduced[s] * level[t - s] for s in range(t + 1)) for t in range(bound + 1)]
        words = [w + v for w, v in zip(words, level)]
        if not any(level) or series[0] * words[0] > budget:
            break  # no longer word fits, or degree 0 alone is over budget
    return fplin.budget_cut((sum(series[d0] * words[t - d0] for d0 in range(t + 1))
                             for t in range(bound + 1)), budget)


# ---------------------------------------------------------------------------
# stage 2: the odd-primary differential

def _tower_bases(page: SSPage) -> list[str]:
    """Names of H-generators whose suspension carries a divided tower."""
    seen = []
    for g in page.generators():
        if g.gamma_power == 1 and g.sigma_of is not None and g.sigma_of not in seen:
            seen.append(g.sigma_of)
    return seen


def _d_target(page: SSPage, base_name: str) -> dict:
    """sigma(beta Q^i x) for the tower over x, from the Dyer-Lashof table."""
    data = page.spectrum
    H = data.homology
    A = page.algebra
    g = H.gens[H.index[base_name]]
    i = (g.degree + 1) // 2
    q_val = data.dl.lookup(base_name, i, data.is_even_power(base_name), g.degree, data.p)
    if q_val is None:
        raise KeyError(f"missing Dyer-Lashof entry Q^{i}({base_name})")
    smap = _sigma_map(H, A)

    def sigma_beta(mono: tuple) -> dict:
        if not mono:
            return {}
        if len(mono) != 1 or mono[0][1] != 1:
            raise KeyError(f"Bockstein of a composite Q-value for {base_name}")
        beta = data.dl.bockstein.get(H.gens[mono[0][0]].name, {})
        return fplin.linear(beta, lambda b: _sigma(A, smap, b), A.p)

    return fplin.linear(q_val, sigma_beta, A.p)


def apply_d_pminus1(page: SSPage) -> SSPage:
    """Install d^{p-1} on divided-power generators; identity at p = 2.

    The rule is d(gamma_{p^i}(sigma x)) = sigma(beta Q^{(|x|+1)/2} x) *
    gamma_{p^i - p}(sigma x) on every tower member above gamma_1.
    """
    if page.spectrum.p == 2 or page.algebra is None:
        return page
    A = page.algebra
    diff: dict[str, dict] = {}
    for base in _tower_bases(page):
        members = [g for g in A.gens if g.sigma_of == base and g.gamma_power >= A.p]
        if not members:
            continue  # the tower is cut below gamma_p by the degree bound
        target = _d_target(page, base)
        if not target:
            continue
        for g in members:
            lower = A.gamma(sigma_name(base), g.gamma_power - A.p)
            val = A.el_mul(target, lower)
            if val:
                diff[g.name] = val
    return SSPage(page.spectrum, page.r, page.algebra, diff, max_degree=page.max_degree)


def differential_on_monomial(page: SSPage, m: tuple) -> dict:
    """Extend the generator differential as a derivation (Leibniz rule)."""
    return _derivation(page.algebra, page.differential, m)


def page_homology(page: SSPage) -> tuple[SSPage, dict]:
    """Next page: recognized presentation checked against honest homology.

    The candidate removes, for each tower whose differential hits a
    suspension class, that class and the tower members above gamma_1.
    honest_dims of d^r (filtration shift -(p - 1)) confirms the candidate
    bigraded dims through degree max_degree - 1; on mismatch the raw dims
    are returned, and on a match the candidate's verified dims ride along
    as raw_dims.  The info dict holds verified_to and match.
    """
    if not page.differential:
        return page, {"verified_to": page.max_degree, "trivial": True}
    A = page.algebra
    p = A.p
    r = p - 1
    # candidate: cancel (suspension target, tower tail) pairs read off the
    # gamma_p differentials
    killed: set[str] = set()
    for g in A.gens:
        if g.gamma_power != p or g.name not in page.differential:
            continue
        target = page.differential[g.name]
        if len(target) != 1:
            continue
        mono = next(iter(target))
        if len(mono) == 1 and mono[0][1] == 1:
            killed.add(A.gens[mono[0][0]].name)
            for g2 in A.gens:
                if g2.sigma_of == g.sigma_of and g2.gamma_power >= p:
                    killed.add(g2.name)
    cand_gens = [g for g in A.gens if g.name not in killed]
    candidate = AlgebraPresentation(p, cand_gens, A.N)
    # incoming differentials land from one degree up, so honest verification
    # stops one short of the materialized bound
    bound = page.max_degree - 1
    honest = honest_dims(A, page.differential, -r, bound)
    cand_dims = candidate.bigraded_series(bound)
    ok = honest == cand_dims
    info = {"verified_to": bound, "match": ok}
    if not ok:
        return SSPage(page.spectrum, p, None, raw_dims=honest, max_degree=bound), info
    return SSPage(page.spectrum, p, candidate, raw_dims=cand_dims, max_degree=page.max_degree), info


def honest_dims(A: AlgebraPresentation, differential: dict[str, dict], shift: int,
                bound: int) -> dict[tuple[int, int], int]:
    """(filtration, degree) dims through bound of the homology of a derivation.

    differential is given on generators of A; it moves filtration by shift
    and degree by -1, and A is materialized through bound + 1.  It kills
    every generator outside its support F (the sources and the generators
    of its targets) and maps F into F, so the homology is (B, 0) (x)
    (F, d_F): rank d on F's bases only, then multiply H(F) into the series
    of B.  PageCheckBudgetError refuses a support that holds over
    VERIFY_BUDGET monomials through bound.
    """
    p = A.p
    support = set(differential)
    for val in differential.values():
        support.update(A.gens[i].name for mono in val for i, _ in mono)
    F = AlgebraPresentation(p, [g for g in A.gens if g.name in support], A.N)
    B = AlgebraPresentation(p, [g for g in A.gens if g.name not in support], A.N)
    to_f = {A.index[g.name]: j for j, g in enumerate(F.gens)}
    f_page = SSPage(None, abs(shift), F, {
        name: {tuple((to_f[i], e) for i, e in mono): c for mono, c in val.items()}
        for name, val in differential.items()})
    reached = _verify_budget_bound(F, bound, VERIFY_BUDGET)
    if reached < bound:
        raise PageCheckBudgetError(
            f"page r = {abs(shift) + 1}: the honest check asked for degree {bound} reaches "
            f"only degree {reached} within {VERIFY_BUDGET} monomials of the differential's "
            "support")

    @cache
    def rank_of(s: int, d: int) -> int:
        """Rank of d_F leaving bidegree (s, d)."""
        src, dst = F.bigraded_basis(s, d), F.bigraded_basis(s + shift, d - 1)
        if not src or not dst:
            return 0
        return fplin.map_rank(src, dst, partial(differential_on_monomial, f_page), p)

    h_f = {(s, d): h for (s, d), n in F.bigraded_series(bound).items()
           if (h := n - rank_of(s, d) - rank_of(s - shift, d + 1))}
    return B.bigraded_series(bound, h_f)


class PageCheckBudgetError(ValueError):
    """A page check whose support is over budget through the degree asked for."""


def _verify_budget_bound(A: AlgebraPresentation, bound: int, budget: int) -> int:
    """Largest d <= bound whose total monomial count stays within budget."""
    return fplin.budget_cut(A.poincare_series(bound) if bound >= 0 else [], budget)


# ---------------------------------------------------------------------------
# stage 3: collapse certificates

def collapse_check(page: SSPage) -> bool:
    """True when every algebra generator sits in filtration <= 1."""
    if page.algebra is None:
        return False
    return all(g.filtration <= 1 for g in page.generators())


def _primitive_monomials(page: SSPage, filtration: int, total_degree: int) -> list[tuple]:
    """Basis of P / B+P in one bidegree: primitives b y^e (HopfData.is_primitive), b outside B."""
    base, index = page.quotient_base
    out = []
    for i, g in enumerate(page.algebra.gens):
        e, rest = divmod(filtration, g.filtration) if g.filtration > 0 else (0, 1)
        if not rest and 0 < e <= (g.max_exponent() or e) and page.hopf.is_primitive(((i, e),)):
            out += [tuple(sorted([(index[j], x) for j, x in b] + [(i, e)]))
                    for b in base.monomial_basis(total_degree - e * g.degree)]
    return out


def simultaneous_primitives(page: SSPage, filtration: int, total_degree: int) -> int:
    """Dimension of the space of simultaneous coalgebra- and comodule
    primitives in one bidegree (filtration 0 is excluded by the counit
    convention).

    The page is a Hopf algebra over its filtration-0 base with monogenic
    fibers, so by Milnor-Moore its coalgebra primitives P are spanned by
    the monomials b y^{p^k} and b gamma_1 (HopfData.is_primitive).  This
    uses the coproduct HopfData reads off the generators (sigma x
    primitive, psi(gamma_k) = sum gamma_a (x) gamma_b), which nothing yet
    checks against hochschild.coproduct_on_class.  Comodule primitives
    are counted by a change of rings: for a left coideal subalgebra B of
    A_* in the base (nu(B) in A_* (x) B), A_* and P free over B,
    Prim_{A_*}(P) = Prim_{E_*}(P / B+P) with E_* = A_* / B+A_* (Takeuchi,
    "Relative Hopf modules -- equivalences and freeness criteria",
    J. Algebra 60, 1979; Ravenel, Complex cobordism, App. A1).  ju at
    p = 2 has B = H_*(ko), E_* = A(1)_*; elsewhere B = F_p.  The generators
    of E act by the xibar1^{p^i} (below the cap of E_*) and, at odd p,
    taubar0 components, whose rows are ranked over P / B+P.
    """
    prims = _primitive_monomials(page, filtration, total_degree)
    if not prims:
        return 0
    rows = fplin.constraint_matrix(prims, [page.coaction.generator_components], page.algebra.p)
    return len(prims) - rows.rank()


class CoactionBoundError(ValueError):
    """A scan that needs a coaction the catalog has not materialised."""


def obstruction_scan(page: SSPage, max_degree: int) -> list[dict]:
    """Candidate differentials per the indecomposable-to-primitive rule.

    Scans every generator in filtration >= 2 (the only possible sources)
    against the simultaneous primitive spaces in the reachable target
    bidegrees, counted on P / B+P by simultaneous_primitives' change of
    rings (Takeuchi 1979; Ravenel, App. A1); an empty list certifies
    collapse through the bound.  A target primitive built from a generator
    without a coaction entry is refused with CoactionBoundError, naming
    the generator and the largest source degree whose targets avoid all
    such generators.
    """
    if page.algebra is None:
        raise ValueError("obstruction scan needs a flat page with Hopf structure")
    scans = [(g, r) for g in page.generators() if g.filtration >= 2 and g.degree <= max_degree
             for r in range(max(2, page.r), g.filtration + 1)]
    gens = page.algebra.gens
    lacking = {i for i in range(len(gens)) if i not in page.coaction.entries}
    unavailable = lacking and [(g.degree, gens[i].name) for g, r in scans
                               for m in _primitive_monomials(page, g.filtration - r, g.degree - 1)
                               for i, _ in m if i in lacking]
    if unavailable:
        degree, name = min(unavailable)
        raise CoactionBoundError(
            f"coaction not available for generator {name}: "
            f"the obstruction scan completes through degree {degree - 1}"
        )
    out: list[dict] = []
    for g, r in scans:
        s, deg = g.filtration, g.degree
        if dim := simultaneous_primitives(page, s - r, deg - 1):
            out.append({"source": g.name, "source_bidegree": [s, deg - s], "r": r,
                        "target_bidegree": [s - r, deg - 1 - (s - r)], "dim": dim})
    return out


# ---------------------------------------------------------------------------
# stage 4: multiplicative extensions

def resolve_extensions(einf: SSPage, max_degree: int):
    """Abutment presentation from the final page via sigma-compatible
    Dyer-Lashof operations, with its coaction table and a relation log."""
    data = einf.spectrum
    A = einf.algebra
    if A is None:
        raise ValueError("cannot resolve extensions of a raw-dims page")
    p = data.p
    H = data.homology
    links: dict[str, str] = {}
    relations: list[str] = []
    names = {g.name for g in A.gens}
    for g in A.gens:
        if g.filtration == 0 or g.sigma_of is None:
            continue
        if g.sigma_of in data.gamma_square_zero:
            word = "squares to zero" if p == 2 else "has vanishing p-th power"
            if g.gamma_power:
                relations.append(f"{g.name} {word} (divided tower kept exterior)")
            continue
        if g.gamma_power > 1:
            raise ValueError(f"unresolved divided tower above {g.sigma_of}")
        base = H.gens[H.index[g.sigma_of]]
        if p != 2 and g.degree % 2:
            continue  # odd-degree classes stay exterior
        k = g.degree if p == 2 else g.degree // 2
        val = data.dl.lookup(g.sigma_of, k, data.is_even_power(g.sigma_of), base.degree, p)
        if val is None:
            if (2 if p == 2 else p) * g.degree > max_degree:
                continue  # the power relation is invisible below the bound
            raise KeyError(f"missing Dyer-Lashof entry Q^{k}({g.sigma_of})")
        if not val:
            word = "squares to zero" if p == 2 else "has vanishing p-th power"
            relations.append(f"{g.name} {word}")
            continue
        mono = next(iter(val))
        if len(val) != 1 or len(mono) != 1 or mono[0][1] != 1:
            raise ValueError(f"composite power relation for {g.name}")
        target = sigma_name(H.gens[mono[0][0]].name)
        power = "^2" if p == 2 else f"^{p}"
        relations.append(f"{g.name}{power} = {target}")
        if target in names:
            links[g.name] = target
    # absorb square/p-th power chains into polynomial roots
    absorbed = set(links.values())
    substitutions: dict[str, dict] = {}
    out_gens: list[GeneratorSpec] = []
    for g in A.gens:
        if g.name in absorbed:
            continue
        if g.name in links:
            # root of a chain: becomes polynomial
            out_gens.append(
                GeneratorSpec(g.name, g.degree, "polynomial", filtration=g.filtration,
                              sigma_of=g.sigma_of, gamma_power=g.gamma_power)
            )
        else:
            out_gens.append(g)
    abutment = AlgebraPresentation(p, out_gens, A.N)
    # record how absorbed suspensions are expressed as root powers
    step = 2 if p == 2 else p
    for root in links:
        if root in absorbed:
            continue
        name, e = links[root], step
        while True:
            substitutions[name] = {((abutment.index[root], e),): 1}
            nxt = links.get(name)
            if nxt is None:
                break
            name, e = nxt, e * step
    coact = _page_coaction(data, abutment, substitutions)
    return abutment, coact, relations


# ---------------------------------------------------------------------------
# the full pipeline

class THHResult(NamedTuple):
    spectrum: str
    p: int
    max_degree: int
    e2_dims: dict[tuple[int, int], int]
    pages: list[dict]
    collapse: dict
    abutment: AlgebraPresentation | None
    coaction: CoactionTable | None
    relations: list[str]
    series: list[int]
    einf_dims: dict[tuple[int, int], int] | None = None
    nonflat: bool = False

    def to_jsonable(self) -> dict:
        e2 = _dims_jsonable(self.e2_dims)
        out = {
            "spectrum": self.spectrum,
            "p": self.p,
            "max_degree": self.max_degree,
            "e2": e2,
            "pages": self.pages,
            # E∞ is E2's own dict when no differential acts: its table is built once
            "einf": None if self.einf_dims is None else e2 if self.einf_dims is self.e2_dims
            else _dims_jsonable(self.einf_dims),
            "collapse": self.collapse,
            "nonflat": self.nonflat,
            "abutment": None
            if self.abutment is None
            else {
                "generators": [
                    {
                        "name": g.name,
                        "degree": g.degree,
                        "kind": g.kind,
                        "height": g.height or None,
                    }
                    for g in self.abutment.gens
                ],
                "series": self.series,
                "relations": self.relations,
                "coaction": _coaction_jsonable(self.coaction) if self.coaction else None,
            },
        }
        # abutment generators the catalog gives no coaction for, if any
        if self.coaction and (missing := [g.name for i, g in enumerate(self.abutment.gens)
                                          if i not in self.coaction.entries]):
            out["coaction_missing"] = missing
        return out


def _dims_jsonable(dims: dict) -> dict:
    # unsorted: every writer orders the "s,t" keys itself
    return {f"{s},{t}": v for (s, t), v in dims.items()}


def _coaction_jsonable(coact: CoactionTable) -> dict:
    out = {}
    for idx, terms in coact.entries.items():
        name = coact.A.gens[idx].name
        out[name] = [
            [" + ".join(f"{c if c != 1 else ''}{m}" for m, c in a.items()), coact.A.monomial_str(mono)]
            for a, mono in terms
        ]
    return out


def thh_homology(name: str, p: int, max_degree: int) -> THHResult:
    """Full pipeline for one catalog spectrum.

    Raises with a stage diagnostic when a certificate fails; the non-flat
    case stops after the initial term with raw dims.
    """
    data = spectrum(name, p, max_degree + 1)
    e2 = build_e2(data, max_degree + 1)
    if e2.algebra is None:
        dims = {(q, d - q): v for (q, d), v in e2.raw_dims.items() if d <= max_degree}
        series = [0] * (max_degree + 1)
        for (q, t), v in dims.items():
            series[q + t] += v
        return THHResult(
            data.name, p, max_degree,
            e2_dims=dims,
            pages=[{"r": 2, "flat": False}],
            collapse={"method": "none", "note": "initial term not flat over the base"},
            abutment=None, coaction=None, relations=[],
            series=series, nonflat=True,
        )
    pages_info: list[dict] = [{"r": 2, "generators": len(e2.generators())}]
    page = apply_d_pminus1(e2)
    if page.differential:
        page, info = page_homology(page)
        if page.algebra is None:
            raise RuntimeError(f"stage page_homology: recognition failed ({info})")
        pages_info.append({"r": p, "generators": len(page.generators()), **info})
    if collapse_check(page):
        collapse = {"method": "generator-filtrations", "page": page.r}
    else:
        if not data.commutative:
            raise RuntimeError("stage collapse: no Hopf structure to run the obstruction scan")
        obstructions = obstruction_scan(page, max_degree)
        if obstructions:
            raise RuntimeError(f"stage collapse: obstructions remain: {obstructions}")
        collapse = {"method": "obstruction-scan-empty", "page": page.r,
                    "scanned_to": max_degree}
    abutment, coact, relations = resolve_extensions(page, max_degree)
    series = abutment.poincare_series(max_degree)
    e2_dims = _page_dims(e2, max_degree)
    return THHResult(
        data.name, p, max_degree,
        e2_dims=e2_dims,
        pages=pages_info,
        collapse=collapse,
        abutment=abutment,
        coaction=coact,
        relations=relations,
        series=series,
        einf_dims=e2_dims if page.algebra is e2.algebra else _page_dims(page, max_degree),
    )


def _page_dims(page: SSPage, max_degree: int) -> dict[tuple[int, int], int]:
    # a checked page's raw_dims is its algebra's series through max_degree - 1
    dims = (page.raw_dims if page.raw_dims is not None and page.max_degree == max_degree + 1
            else page.algebra.bigraded_series(max_degree))
    return {(s, d - s): v for (s, d), v in dims.items()}


# ---------------------------------------------------------------------------
# Nishida instance certificates for the mod-2 image-of-J entries

def nishida_certificates() -> list[dict]:
    """Verify the dual-operation computations forcing the ju Dyer-Lashof
    entries Q^4(b) = Q^5(xibar1^4) = Q^7(xibar2^2) = 0 at p = 2.

    Each certificate pins the candidate group, shows the constraining
    operations vanish on the claimed value by the stated relation
    instances, and checks the constraint map has zero kernel.
    """
    max_degree = 16  # covers H_13, the highest degree a certificate reads
    ju = spectrum("ju", 2, max_degree)
    ku = spectrum("ku", 2, max_degree)
    H = ju.homology
    coact = ju.coaction
    mono = H.gen_monomial
    out: list[dict] = []

    def action(r: int, elt: dict) -> dict:
        return coact.steenrod_action(r, elt)

    # dual-operation anchor values
    xibar3 = {mono("xibar3"): 1}
    got = action(1, xibar3)
    out.append(
        {
            "name": "Sq1_*(xibar3) = xibar2^2",
            "ok": got == {mono("xibar2^2"): 1},
        }
    )
    x14b = H.el_mul({mono("xibar1^4"): 1}, {mono("b"): 1})
    got = action(4, x14b)
    out.append({"name": "Sq4_*(xibar1^4 b) = b", "ok": got == {mono("b"): 1}})

    def kappa(m: tuple) -> tuple | None:
        """H(ju) -> H(ku): kills b, squares the bottom generator."""
        exps: dict[int, int] = {}
        for i, e in m:
            gname = H.gens[i].name
            if gname == "b":
                return None
            if gname == "xibar1^4":
                exps[ku.homology.index["xibar1^2"]] = 2 * e
            else:
                exps[ku.homology.index[gname]] = exps.get(ku.homology.index[gname], 0) + e
        return tuple(sorted(exps.items()))

    def forced_zero(label: str, degree: int, constraints) -> dict:
        basis = H.monomial_basis(degree)
        mat = fplin.constraint_matrix(basis, constraints, 2)
        return {
            "name": label,
            "candidates": len(basis),
            "ok": len(basis) - mat.rank() == 0,
        }

    # Q^4(b) in H_7: Sq1_* Q^4 = Q^3 = square (zero on the exterior class),
    # Sq4_* Q^4 = Q^2 Sq2_* (zero on the primitive), and the pair is injective
    b2 = H.el_mul({mono("b"): 1}, {mono("b"): 1})
    sq2b = action(2, {mono("b"): 1})
    preconditions = not b2 and not sq2b
    cert = forced_zero(
        "Q4(b) = 0 (Sq1_*, Sq4_*) jointly injective on H_7",
        7,
        [lambda m: action(1, {m: 1}), lambda m: action(4, {m: 1})],
    )
    cert["ok"] = cert["ok"] and preconditions
    out.append(cert)

    # Q^5(xibar1^4) in H_9: Sq2_* Q^5 = Q^3 + Q^4 Sq1_*, both terms vanish
    pre = not action(1, {mono("xibar1^4"): 1})
    cert = forced_zero(
        "Q5(xibar1^4) = 0 (Sq2_* injective on H_9)",
        9,
        [lambda m: action(2, {m: 1})],
    )
    cert["ok"] = cert["ok"] and pre
    out.append(cert)

    # Q^7(xibar2^2) in H_13: kappa kills it (Q^odd of a square) and
    # Sq2_* Q^7 = Q^6 Sq1_* vanishes; (kappa, Sq2_*) jointly injective
    pre = not action(1, {mono("xibar2^2"): 1})
    cert = forced_zero(
        "Q7(xibar2^2) = 0 (kappa, Sq2_*) jointly injective on H_13",
        13,
        [
            lambda m: ({kappa(m): 1} if kappa(m) is not None else {}),
            lambda m: action(2, {m: 1}),
        ],
    )
    cert["ok"] = cert["ok"] and pre
    out.append(cert)
    return out
