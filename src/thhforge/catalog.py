"""Homology presentations, coactions and Dyer-Lashof data for the
spectra the spectral sequence engine knows about.

Catalog entries whose homology embeds in the dual Steenrod algebra get
their coactions by restricting the coproduct; the complex image-of-J
spectrum at odd primes carries the explicit lifted-class formulas, and
the real image-of-J spectrum at p = 2 is the square-zero case whose
second tensor factor is produced by the Steenrod-module machinery.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, takewhile

from . import steenrod as st
from .gca import AlgebraPresentation, CoactionTable, GeneratorSpec
from .steenrod import MilnorMonomial, _tau, _xi, conjugate, milnor_coproduct, milnor_one

__all__ = [
    "DyerLashofTable", "SpectrumData", "spectrum", "SPECTRUM_NAMES", "j_module_degrees",
    "UnsupportedSpectrumError",
]

SPECTRUM_NAMES = ["hf", "hz", "ku", "ko", "tmf", "ell", "ju", "j", "bp", "bp0", "bp1", "bp2", "bp3"]


class DyerLashofTable:
    """Q-operation values on homology generators, plus Bocksteins.

    entries maps (generator name, k) to the value of Q^k on it as an
    element dict of the homology presentation.  Entries not listed follow
    from instability and, at p = 2, from Q^odd(square) = 0.
    """

    def __init__(self) -> None:
        self.entries: dict[tuple[str, int], dict] = {}
        self.bockstein: dict[str, dict] = {}

    def lookup(self, gen: str, k: int, is_even_power: bool, degree: int, p: int) -> dict | None:
        if (gen, k) in self.entries:
            return self.entries[(gen, k)]
        if p == 2 and k < degree:
            return {}  # instability: Q^k(x) = 0 below the degree
        if p != 2 and 2 * k < degree:
            return {}
        if p == 2 and k % 2 == 1 and is_even_power:
            return {}  # Q^odd kills squares (Cartan formula)
        return None


class SpectrumData:
    def __init__(self, name: str, p: int, max_degree: int, homology: AlgebraPresentation,
                 coaction: CoactionTable, milnor_values: dict[str, MilnorMonomial],
                 dl: DyerLashofTable, gamma_square_zero: frozenset = frozenset()) -> None:
        self.name = name
        self.p = p
        self.max_degree = max_degree
        self.homology = homology
        self.coaction = coaction
        self.milnor_values = milnor_values
        self.dl = dl
        self.commutative = True
        self.gamma_square_zero = gamma_square_zero
        self.flat = True
        self.squarezero_factor: tuple | None = None  # (label, degree) pairs for j
        # change of rings: the generators of B = A_* []_{E_*} F_p, xibar1^cap = 0 in E_*
        self.coideal: frozenset[str] = frozenset()
        self.xi1_cap: float = float("inf")

    def is_even_power(self, gen_name: str) -> bool:
        m = self.milnor_values.get(gen_name)
        if m is None:
            return False
        return bool(m.xi) and all(e % 2 == 0 for e in m.xi if e) and not m.tau


def _xibname(k: int, e: int) -> str:
    return f"xibar{k}" if e == 1 else f"xibar{k}^{e}"


def _recognizer(gen_values: dict[str, MilnorMonomial], presentation: AlgebraPresentation, p: int):
    """Express a conjugated Milnor monomial as a monomial in the generators."""
    xi_gens: dict[int, tuple[str, int]] = {}
    tau_gens: dict[int, str] = {}
    for name, m in gen_values.items():
        if m.tau:
            tau_gens[m.tau[0]] = name
        else:
            k = len(m.xi)
            xi_gens[k] = (name, m.xi[k - 1])

    def recognize(m: MilnorMonomial):
        exps: dict[int, int] = {}
        for k in m.tau:
            if k not in tau_gens:
                return None
            exps[presentation.index[tau_gens[k]]] = 1
        for k, e in enumerate(m.xi, start=1):
            if not e:
                continue
            if k not in xi_gens:
                return None
            name, c = xi_gens[k]
            if e % c:
                return None
            exps[presentation.index[name]] = e // c
        return tuple(sorted(exps.items()))

    return recognize


def _psi_coaction(value: MilnorMonomial, recognize, p: int) -> list[tuple[dict, tuple]]:
    """nu(g) = psi(g) restricted to the subalgebra, as coaction terms."""
    out = []
    for (a, m), c in milnor_coproduct(value, p).items():
        mono = recognize(m)
        if mono is None:
            raise ValueError(f"coproduct term {m} of {value} leaves the subalgebra")
        out.append(({a: c}, mono))
    return out


def _tau_plain(k: int, p: int) -> dict[MilnorMonomial, int]:
    """The unconjugated tau_k expanded in the conjugated alphabet."""
    return conjugate(_tau(k, conjugated=False), p)


def _neg(a: dict, p: int) -> dict:
    return {m: (-c) % p for m, c in a.items()}


def _xi_power_family(p: int, head: list[int], max_degree: int):
    """Generators xibar_k^{head[k-1]} then xibar_k for k > len(head)."""
    gens: list[tuple[str, MilnorMonomial, str]] = []
    for k, e in enumerate(head, start=1):
        m = _xi(k, e)
        if m.degree(p) <= max_degree:
            gens.append((_xibname(k, e), m, "polynomial"))
    k = len(head) + 1
    while _xi(k).degree(p) <= max_degree:
        gens.append((_xibname(k, 1), _xi(k), "polynomial"))
        k += 1
    return gens


def _build_subalgebra_spectrum(
    name: str,
    p: int,
    max_degree: int,
    gen_list: list[tuple[str, MilnorMonomial, str]],
    extra_gens: tuple[GeneratorSpec, ...] = (),
) -> SpectrumData:
    specs = [GeneratorSpec(gname, m.degree(p), kind) for gname, m, kind in gen_list]
    values = {gname: m for gname, m, _ in gen_list}
    H = AlgebraPresentation(p, specs + list(extra_gens), max_degree)
    coact = CoactionTable(H)
    recognize = _recognizer(values, H, p)
    for gname, m, kind in gen_list:
        coact.set_gen(gname, _psi_coaction(m, recognize, p))
    return SpectrumData(name=name, p=p, max_degree=max_degree, homology=H, coaction=coact,
                        milnor_values=values, dl=DyerLashofTable())


# p = 2: the exponents of xibar_1, xibar_2, ... below the first unsquared
# generator; BP squares them all
_MOD2_HEADS = {
    "hf": [], "hz": [2], "ku": [2, 2], "bp2": [2] * 3, "bp3": [2] * 4,
    "ko": [4, 2], "tmf": [8, 4, 2], "ju": [4, 2], "j": [8, 4, 2], "bp": None,
}


def _mod2_spectrum(name: str, max_degree: int) -> SpectrumData:
    head = _MOD2_HEADS[name]
    if head is None:
        # xibar_k^2 has degree >= 2^k, over max_degree from k = bit_length on
        head = [2] * max_degree.bit_length()
    gen_list = _xi_power_family(2, head, max_degree)
    b = (GeneratorSpec("b", 3, "exterior"),) if name == "ju" else ()
    data = _build_subalgebra_spectrum(name, 2, max_degree, gen_list, b)
    H, dl = data.homology, data.dl
    if b:  # ju's fibre class: primitive, squares to zero
        data.gamma_square_zero = frozenset({"b"})
        data.coaction.set_primitive("b")
        dl.entries.update({("b", 4): {}, (_xibname(1, 4), 5): {}, (_xibname(2, 2), 7): {}})
        # the head family spans H_*(ko) = A_* []_{A(1)_*} F_2; xibar1^4 = 0 in A(1)_*
        data.coideal, data.xi1_cap = frozenset(gname for gname, _, _ in gen_list), head[0]
    # Q^{2^k}(xibar_k) = xibar_{k+1} up the unsquared generators; entries
    # whose target lies beyond the bound are invisible below it
    k = len(head) + 1
    while _xibname(k + 1, 1) in H.index:
        dl.entries[(_xibname(k, 1), 2 ** k)] = {H.gen_monomial(_xibname(k + 1, 1)): 1}
        k += 1
    if name == "j":
        data.flat = False
        data.squarezero_factor = tuple(
            (f"k{i}", d) for i, d in enumerate(j_module_degrees()) if d <= max_degree
        )
    return data


# odd p: BP<m-1> carries taubar_k from k = m on, with Q^{p^k}(taubar_k) =
# taubar_{k+1} and Bockstein taubar_k -> xibar_k; BP carries none
_ODD_FIRST_TAU = {"hf": 0, "hz": 1, "ell": 2, "bp2": 3, "bp3": 4, "bp": None}


def _odd_spectrum(name: str, p: int, max_degree: int) -> SpectrumData:
    first = _ODD_FIRST_TAU[name]
    taus = [] if first is None else list(
        takewhile(lambda k: _tau(k).degree(p) <= max_degree, count(first)))
    gen_list = _xi_power_family(p, [], max_degree)
    gen_list += [(f"taubar{k}", _tau(k), "exterior") for k in taus]
    data = _build_subalgebra_spectrum(name, p, max_degree, gen_list)
    H, dl = data.homology, data.dl
    for k in taus:
        if k + 1 in taus:
            dl.entries[(f"taubar{k}", p ** k)] = {H.gen_monomial(f"taubar{k + 1}"): 1}
        xk = _xibname(k, 1)
        dl.bockstein[f"taubar{k}"] = {H.gen_monomial(xk): 1} if xk in H.index else {}
    return data


def _ju_odd(p: int, max_degree: int) -> SpectrumData:
    """The odd-primary complex image-of-J: lifted classes, explicit coactions."""
    q = 2 * p - 2
    specs = [GeneratorSpec("b", p * q - 1, "exterior")]
    lifted: list[tuple[str, int, str]] = [(f"xitilde1^{p}", p * q, "polynomial")]
    k = 2
    while 2 * (p ** k - 1) <= max_degree:
        lifted.append((f"xitilde{k}", 2 * (p ** k - 1), "polynomial"))
        k += 1
    k = 2
    while 2 * p ** k - 1 <= max_degree:
        lifted.append((f"tautilde{k}", 2 * p ** k - 1, "exterior"))
        k += 1
    for gname, d, kind in lifted:
        specs.append(GeneratorSpec(gname, d, kind))
    H = AlgebraPresentation(p, specs, max_degree)
    coact = CoactionTable(H)
    one = {milnor_one(): 1}
    tau0 = _tau_plain(0, p)
    tau1 = _tau_plain(1, p)
    mono = H.gen_monomial
    coact.set_gen("b", [(one, mono("b"))])
    coact.set_gen(
        f"xitilde1^{p}",
        [
            (one, mono(f"xitilde1^{p}")),
            (_neg(tau0, p), mono("b")),
            ({_xi(1, p): 1}, ()),
        ],
    )
    if "xitilde2" in H.index:
        coact.set_gen(
            "xitilde2",
            [
                (one, mono("xitilde2")),
                ({_xi(1): 1}, mono(f"xitilde1^{p}")),
                (tau1, mono("b")),
                ({_xi(2): 1}, ()),
            ],
        )
    if "tautilde2" in H.index:
        coact.set_gen(
            "tautilde2",
            [
                (one, mono("tautilde2")),
                ({_tau(0): 1}, mono("xitilde2")),
                ({_tau(1): 1}, mono(f"xitilde1^{p}")),
                (_neg(st.dual_mul(tau0, tau1, p), p), mono("b")),
                ({_tau(2): 1}, ()),
            ],
        )
    dl = DyerLashofTable()
    dl.entries[("b", p * q // 2)] = {}
    k = 2
    while f"tautilde{k}" in H.index:
        nxt = f"tautilde{k + 1}"
        if nxt in H.index:
            dl.entries[(f"tautilde{k}", p ** k)] = {mono(nxt): 1}
        xk = f"xitilde{k}"
        dl.bockstein[f"tautilde{k}"] = {mono(xk): 1} if xk in H.index else {}
        k += 1
    return SpectrumData(
        name="ju",
        p=p,
        max_degree=max_degree,
        homology=H,
        coaction=coact,
        milnor_values={},
        dl=dl,
        gamma_square_zero=frozenset({"b"}),
    )


@lru_cache(maxsize=None)
def j_module_degrees() -> tuple[int, ...]:
    """Degrees of the rank-17 cyclic module the real image-of-J homology
    splits over, shifted into the square-zero summand (degree 7 bottom)."""
    A2 = st.SubalgebraSpec.A(2)
    M = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2Sq3")])
    N = st.quotient_module(A2, [st.parse_element("Sq1"), st.parse_element("Sq2")])
    K, _ = st.module_map_kernel(st.parse_element("Sq4"), M, N)
    out: list[int] = []
    for d, n in K.poincare().items():
        out.extend([d - 4 + 7] * n)
    return tuple(sorted(out))


class UnsupportedSpectrumError(ValueError):
    """The catalog does not serve this name at this prime."""


_ALIASES = {"l": "ell", "bp1": "ell", "bp0": "hz", "hf2": "hf", "hfp": "hf", "hf3": "hf"}
_ODD_REFUSALS = {
    "ku": "ku at odd primes has a non-flat initial term; out of range",
    "ko": "ko is a mod-2 catalog entry",
    "tmf": "tmf is a mod-2 catalog entry",
    "j": "j coincides with ju at odd primes; use ju",
}


def spectrum(name: str, p: int, max_degree: int) -> SpectrumData:
    """Catalog lookup; raises UnsupportedSpectrumError for unknown names or bad primes."""
    name = _ALIASES.get(name.lower(), name.lower())
    if p == 2:
        name = "ku" if name == "ell" else name  # BP<1> at p = 2 is ku
    elif name in _ODD_REFUSALS:
        raise UnsupportedSpectrumError(_ODD_REFUSALS[name])
    elif name == "ju":
        return _ju_odd(p, max_degree)
    if name not in (_MOD2_HEADS if p == 2 else _ODD_FIRST_TAU):
        raise UnsupportedSpectrumError(f"unknown spectrum {name!r}")
    data = _mod2_spectrum(name, max_degree) if p == 2 else _odd_spectrum(name, p, max_degree)
    data.commutative = name != "bp"  # BP is only E4; skip Hopf-level checks
    return data
