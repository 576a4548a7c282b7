"""v1-periodic Adams charts for smashed topological K-theory spectra.

After change-of-rings the Adams initial terms for THH(ku) smashed with
the mod-2 Moore spectrum, and THH(ko) smashed with the four-cell complex
that kills 2 and eta, are Ext over the exterior Hopf algebra on one
degree-3 class.  The comodule is read off the Bokstedt abutment: its
basis is the monomials in the suspension classes, and q is the
xibar_2-component of their coaction.  That Ext is the kernel/homology
closed form of the square-zero operator q.

The differential schedules are data with a rigid degree identity.  run_ss
takes each stage's homology by honest per-bidegree ranks in the same
(B, 0) (x) (F, d) engine as the Bokstedt page check (bokstedt.honest_dims),
checks it against the stage's expected summands, builds the final term
from those summands, and emits the homotopy P(v1)-module tables.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bokstedt, fplin
from .gca import AlgebraPresentation, CoactionTable, GeneratorSpec
from .steenrod import MilnorMonomial

__all__ = [
    "ExteriorComodule",
    "ExtPage",
    "DifferentialSchedule",
    "PModulePresentation",
    "build_comodule",
    "comodule_from_coaction",
    "ext_over_exterior",
    "schedule",
    "run_ss",
    "einf_closed_form_dims",
    "homotopy_table",
    "text_chart",
    "svg_chart",
    "TARGETS",
]

TARGETS = ["thh-ku-mod2", "thh-ko-y"]

V1_DEG = 3  # internal degree of [xi_2]; bidegree (1, 3), so t - s steps by 2


class ExteriorComodule(NamedTuple):
    """A graded comodule over E(xi_2), encoded by its degree-3 operator q.

    q is the xi_2-component of the coaction; it squares to zero and acts
    as a derivation when the comodule is an algebra.
    """

    basis: list[tuple[str, int]]  # (label, degree)
    q: dict[int, dict[int, int]]  # column j -> {i: coeff}

    def degrees(self) -> list[int]:
        return [d for _, d in self.basis]

    def verify_square_zero(self) -> bool:
        return not any(fplin.linear(self.q.get(j, {}), lambda i: self.q.get(i, {}), 2)
                       for j in range(len(self.basis)))


_XIBAR2 = MilnorMonomial((0, 1))
_ABUTMENTS = {"thh-ku-mod2": "ku", "thh-ko-y": "ko"}


def build_comodule(target: str, tmax: int) -> ExteriorComodule:
    """The exterior-Hopf-algebra comodule of the lambda/mu tensor factor,
    read off the p = 2 Bokstedt abutment of THH(ku) or THH(ko)."""
    if target not in _ABUTMENTS:
        raise ValueError(f"unknown target {target!r}")
    return comodule_from_coaction(bokstedt.thh_homology(_ABUTMENTS[target], 2, tmax).coaction,
                                  tmax)


def comodule_from_coaction(coact: CoactionTable, tmax: int) -> ExteriorComodule:
    """The monomials through tmax in the positive-filtration (sigma)
    generators of coact's algebra, with q the xibar_2-component of their
    coaction; ValueError if a xibar_2-term leaves the sigma-monomials."""
    A = coact.A
    monos = [m for d in range(tmax + 1) for m in A.monomial_basis(d)
             if all(A.gens[i].filtration for i, _ in m)]
    index = {m: j for j, m in enumerate(monos)}
    q: dict[int, dict[int, int]] = {}
    for j, m in enumerate(monos):
        for (a, tgt), c in coact.nu_monomial(m).items():
            if a == _XIBAR2:
                if tgt not in index:
                    raise ValueError(f"the xibar2-term of {A.monomial_str(m)} lands on "
                                     f"{A.monomial_str(tgt)}, outside the sigma-monomials")
                q.setdefault(j, {})[index[tgt]] = c
    return ExteriorComodule([(A.monomial_str(m), A.degree(m)) for m in monos], q)


class ExtPage(NamedTuple):
    """Bigraded F_2 page of dimensions, indexed by (s, t)."""

    dims: dict[tuple[int, int], int]

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def column(self, stem: int, smax: int) -> int:
        return sum(self.dims.get((s, stem + s), 0) for s in range(smax + 1))


def ext_over_exterior(m: ExteriorComodule, smax: int, tmax: int) -> ExtPage:
    """Ext over E(xi_2) of a comodule: ker q at s = 0, homology of q
    shifted by v1-powers above."""
    if not m.verify_square_zero():
        raise ValueError("the coaction operator must square to zero")
    n = len(m.basis)
    cols = [m.q.get(j, {}) for j in range(n)]
    kernel = fplin.kernel_basis(fplin.SparseMat(cols, 2))
    img = fplin.Span(n, 2)
    for col in cols:
        img.add(col)
    homology = [vec for vec in kernel if img.add(vec)]
    degs = m.degrees()
    dims: dict[tuple[int, int], int] = {}
    for s in range(smax + 1):
        for vec in homology if s else kernel:
            t = degs[min(vec)] + V1_DEG * s
            if t <= tmax:
                dims[(s, t)] = dims.get((s, t), 0) + 1
    return ExtPage(dims)


# ---------------------------------------------------------------------------
# differential schedules

class DifferentialSchedule(NamedTuple):
    """d^{r(n)}(mu^{2^{n-1}}) = v1^{r(n)} lambda_n, with the recurrences
    r(n) = 2^n + r(n-2) and s(n) = 2^n + s(n-2) and the degree identity
    2 r(n) + s(n) = 2^{n+2} - 1."""

    target: str
    first_n: int
    r: dict[int, int]
    s: dict[int, int]

    def degree_identity_holds(self, nmax: int) -> bool:
        return all(2 * self.r[n] + self.s[n] == 2 ** (n + 2) - 1 for n in range(1, nmax + 1))


def schedule(target: str, nmax: int) -> DifferentialSchedule:
    if target == "thh-ku-mod2":
        r = {1: 2, 2: 4}
        s = {1: 3, 2: 7}
        first = 1
    elif target == "thh-ko-y":
        r = {1: 1, 2: 4}
        s = {1: 5, 2: 7}
        first = 2  # the n = 1 differential is the algebraic d1 already in E2
    else:
        raise ValueError(f"unknown target {target!r}")
    for n in range(3, nmax + 1):
        r[n] = 2 ** n + r[n - 2]
        s[n] = 2 ** n + s[n - 2]
    sched = DifferentialSchedule(target, first, r, s)
    if not sched.degree_identity_holds(nmax):
        raise AssertionError("degree identity 2r(n) + s(n) = 2^{n+2} - 1 failed")
    return sched


class PModulePresentation(NamedTuple):
    """pi_* as a P(v1)-module: one free generator plus v1-torsion classes."""

    target: str
    generators: list[dict]  # {label, degree, torsion}

    def in_degree(self, d: int, include_free: bool = True) -> list[dict]:
        out = []
        if include_free and d % 2 == 0 and d >= 0:
            out.append({"label": "1", "degree": 0, "torsion": None, "v1_power": d // 2})
        for g in self.generators:
            j = (d - g["degree"]) // 2
            if d >= g["degree"] and (d - g["degree"]) % 2 == 0 and j < g["torsion"]:
                out.append({**g, "v1_power": j})
        return out

    def table(self, max_degree: int) -> list[dict]:
        """Per-degree generators with torsion orders and v1-powers."""
        return [
            {
                "degree": d,
                "generators": [
                    {"label": e["label"], "torsion": e["torsion"], "v1_power": e["v1_power"]}
                    for e in self.in_degree(d)
                ],
            }
            for d in range(max_degree + 1)
        ]


# ---------------------------------------------------------------------------
# running the spectral sequence
#
# Stage n is graded by (s, stem), with v1 in (1, 2).  Its differential
# d(y) = v1^{r(n)} l_n, y = mu^{2^{n-1}}, moves (s, stem) by (r(n), -1) on
# the free part P(v1) (x) E(l_n, l_{n+1}) (x) P(y) and is zero on the
# torsion summands peeled off by the earlier stages (their v1-power
# targets are already dead).  bokstedt.honest_dims ranks it per bidegree;
# the homology must be the next free part P(v1) (x) E(l_{n+1}, l_{n+2} =
# l_n y) (x) P(y^2) plus the torsion summand P_{r(n)}(v1){l_n} (x)
# E(l_{n+1}) (x) P(y^2).  The final term is the sum of every torsion
# summand and the last free part.

_V1 = GeneratorSpec("v1", 2, "polynomial", filtration=1)


def _l(sched: DifferentialSchedule, n: int) -> GeneratorSpec:
    return GeneratorSpec(f"l{n}", sched.s[n], "exterior")


def _y(n: int) -> GeneratorSpec:
    return GeneratorSpec(f"mu^{2 ** (n - 1)}", 2 ** (n + 2), "polynomial")


def _stage_page(sched: DifferentialSchedule, n: int,
                max_stem: int) -> tuple[AlgebraPresentation, dict[str, dict]]:
    """The free part of stage n through max_stem and its differential on y."""
    A = AlgebraPresentation(2, [_V1, _l(sched, n), _l(sched, n + 1), _y(n)], max_stem)
    return A, {_y(n).name: {((0, sched.r[n]), (1, 1)): 1}}  # v1^{r(n)} l_n


def _torsion(sched: DifferentialSchedule, n: int, max_stem: int) -> dict[tuple[int, int], int]:
    """P_{r(n)}(v1){l_n} (x) E(l_{n+1}) (x) P(mu^{2^n}) by (s, stem)."""
    rest = AlgebraPresentation(2, [_V1, _l(sched, n + 1), _y(n + 1)], max_stem - sched.s[n])
    return {(s, d + sched.s[n]): v for (s, d), v in rest.bigraded_series().items()
            if s < sched.r[n]}


def _total(parts: list[dict[tuple[int, int], int]], smax: int) -> dict[tuple[int, int], int]:
    """The sum of (s, stem) series at s <= smax."""
    out: dict[tuple[int, int], int] = {}
    for part in parts:
        for (s, stem), v in part.items():
            if s <= smax:
                out[(s, stem)] = out.get((s, stem), 0) + v
    return out


def run_ss(
    target: str,
    tmax_stem: int,
    smax: int | None = None,
    from_e1: bool = False,
    stop_after: int | None = None,
) -> tuple[ExtPage, PModulePresentation, list[dict]]:
    """Run the schedule and return the final term, the homotopy module
    presentation, and a stage log.

    For the ko target, from_e1 starts at the imagined free initial term
    whose algebraic d1(mu) = v1 lambda_1 is stage 1; stop_after = 1 then
    reproduces the change-of-rings initial term as its homology.
    """
    nmax = 2
    sched = schedule(target, tmax_stem.bit_length() + 6)
    sdeg = sched.s
    while sdeg[nmax + 1] <= tmax_stem or 8 * 2 ** nmax <= tmax_stem:
        nmax += 1
    if smax is None:
        rmax = max(
            (sched.r[n] for n in range(1, nmax + 1) if sdeg[n] <= tmax_stem), default=2
        )
        smax = tmax_stem // 2 + rmax + 2
    if from_e1 and target != "thh-ko-y":
        raise ValueError("the imagined free initial term is a ko-target device")
    start_n = 1 if from_e1 else sched.first_n
    summands = [_torsion(sched, n, tmax_stem) for n in range(1, start_n)]  # inside E2
    log: list[dict] = []
    for n in range(start_n, nmax + 1):
        rn = sched.r[n]
        free = _stage_page(sched, n + 1, tmax_stem)[0].bigraded_series()
        summands.append(_torsion(sched, n, tmax_stem))
        honest = bokstedt.honest_dims(*_stage_page(sched, n, tmax_stem + 1), rn, tmax_stem)
        if _total([honest], smax) != _total([free, summands[-1]], smax):
            raise AssertionError(f"stage n={n} homology mismatch")
        log.append({"n": n, "r": rn, "source": f"mu^{2 ** (n - 1)}",
                    "target": f"v1^{rn} l{n}"})
        if stop_after is not None and n >= stop_after:
            break
    einf = ExtPage({(s, stem + s): v for (s, stem), v in _total(summands + [free], smax).items()})

    gens: list[dict] = []
    for n in range(1, nmax + 1):
        if sdeg[n] > tmax_stem:
            continue
        m = 0
        while sdeg[n] + 2 ** (n + 3) * m <= tmax_stem:
            gens.append(
                {
                    "label": f"x({n},{m})",
                    "degree": sdeg[n] + 2 ** (n + 3) * m,
                    "torsion": sched.r[n],
                }
            )
            if sdeg[n] + sdeg[n + 1] + 2 ** (n + 3) * m <= tmax_stem:
                gens.append(
                    {
                        "label": f"x'({n},{m})",
                        "degree": sdeg[n] + sdeg[n + 1] + 2 ** (n + 3) * m,
                        "torsion": sched.r[n],
                    }
                )
            m += 1
    gens.sort(key=lambda g: (g["degree"], g["label"]))
    return einf, PModulePresentation(target, gens), log


def einf_closed_form_dims(
    target: str, tmax_stem: int, smax: int
) -> dict[tuple[int, int], int]:
    """P(v1){1} + sum_n P_{r(n)}(v1){l_n} (x) E(l_{n+1}) (x) P(mu^{2^n})."""
    sched = schedule(target, max(8, tmax_stem.bit_length() + 3))
    sdeg = sched.s
    dims: dict[tuple[int, int], int] = {}
    for e in range(smax + 1):
        t = V1_DEG * e
        if t - e <= tmax_stem:
            dims[(e, t)] = dims.get((e, t), 0) + 1
    n = 1
    while sdeg[n] <= tmax_stem:
        for e in range(min(sched.r[n], smax + 1)):
            for eps in (0, 1):
                base = sdeg[n] + eps * sdeg[n + 1]
                c = 0
                while True:
                    t = V1_DEG * e + base + 8 * (2 ** n) * c
                    if t - e > tmax_stem:
                        break
                    if e <= smax:
                        dims[(e, t)] = dims.get((e, t), 0) + 1
                    c += 1
        n += 1
    return dims


def homotopy_table(target: str, max_degree: int) -> list[dict]:
    """The homotopy table of run_ss(target, max_degree)."""
    _, module, _ = run_ss(target, max_degree)
    return module.table(max_degree)


# ---------------------------------------------------------------------------
# chart output

def text_chart(page: ExtPage, tmax_stem: int, smax: int) -> str:
    """Rows are Adams filtrations (top down), columns are stems."""
    lines = []
    header = "  s\\t-s " + "".join(f"{d:>3}" for d in range(tmax_stem + 1))
    lines.append(header)
    for s in range(smax, -1, -1):
        cells = []
        for d in range(tmax_stem + 1):
            v = page.dim(s, d + s)
            cells.append(f"{v if v else '.':>3}")
        lines.append(f"{s:>6}  " + "".join(cells))
    return "\n".join(lines)


def svg_chart(page: ExtPage, tmax_stem: int, smax: int) -> str:
    """Dot chart with v1-multiplication lines, as a standalone SVG."""
    cell = 14
    w = (tmax_stem + 2) * cell + 40
    h = (smax + 2) * cell + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    def xy(stem: int, s: int) -> tuple[float, float]:
        return 30 + stem * cell, h - 30 - s * cell

    for (s, t), v in sorted(page.dims.items()):
        stem = t - s
        if stem > tmax_stem or s > smax:
            continue
        x, y = xy(stem, s)
        # v1 line when the class one v1-step up survives
        if page.dim(s + 1, t + V1_DEG) and s + 1 <= smax:
            x2, y2 = xy(stem + 2, s + 1)
            parts.append(
                f'<line x1="{x}" y1="{y}" x2="{x2}" y2="{y2}" '
                'stroke="#888" stroke-width="1"/>'
            )
        for i in range(v):
            parts.append(f'<circle cx="{x + 3 * i}" cy="{y}" r="2.5" fill="black"/>')
    for d in range(0, tmax_stem + 1, 4):
        x, _ = xy(d, 0)
        parts.append(
            f'<text x="{x}" y="{h - 10}" font-size="8" text-anchor="middle">{d}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
