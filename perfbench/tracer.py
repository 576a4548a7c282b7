"""Call tracing for one benchmark job, installed from outside `thhforge`.

`install` replaces selected functions and methods of the loaded
`thhforge.*` modules with wrappers.  A module-level function is rebound
in every `thhforge` module that holds it, so calls made through names
imported with `from .x import f` are traced too.

Each timed call is a span with a name and a parent span.  Spans with the
same name under the same parent are merged into one record that keeps
their call count and summed duration, so memory stays bounded even for
functions called millions of times; self-time arithmetic is unchanged by
the merge because it is linear in durations.  The hottest inner
functions are only counted, and a few wrappers also observe arguments or
results (row counts, basis sizes, budget cut-offs).

`Tracer.dump` writes the records of one job as JSON; `self_times`,
`calls` and `calls_under` read them back.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter


class _Node:
    __slots__ = ("name", "calls", "total", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.children: dict[str, _Node] = {}


class Tracer:
    def __init__(self) -> None:
        self.root = _Node("")
        self.cur = self.root
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------
    def timed(self, name, fn, observe=None, size_counter=None):
        """Wrap fn as a span; name may be a function of the call arguments.

        size_counter, if given, sums len(result) into that counter.
        """
        pick = name if callable(name) else None
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.cur
            key = pick(args, kwargs) if pick else name
            node = parent.children.get(key)
            if node is None:
                node = parent.children[key] = _Node(key)
            self.cur = node
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += clock() - t0
                node.calls += 1
                self.cur = parent
            if size_counter is not None:
                counts[size_counter] = counts.get(size_counter, 0) + len(result)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so that its calls are counted but not timed."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def observed(self, fn, observe):
        """Wrap fn so that observe sees its arguments and result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(self, args, kwargs, result)
            return result

        return wrapper

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def see(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def run(self, name: str, fn, *args):
        return self.timed(name, fn)(*args)

    # -- output ----------------------------------------------------------
    def records(self) -> list[list]:
        """[id, parent id (-1 for top level), name, calls, summed seconds]."""
        out: list[list] = []

        def walk(node: _Node, parent_id: int) -> None:
            for child in node.children.values():
                out.append([len(out), parent_id, child.name, child.calls, child.total])
                walk(child, len(out) - 1)

        walk(self.root, -1)
        return out

    def dump(self, path: str, job: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "job": job,
                    "spans": self.records(),
                    "counts": self.counts,
                    "gauges": self.gauges,
                    "distinct": {k: len(v) for k, v in self.distinct.items()},
                    "missing": self.missing,
                },
                fh,
            )


# ---------------------------------------------------------------------------
# reading records back

def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per name: duration minus what child spans cover."""
    covered = [0.0] * len(spans)
    for _, parent, _, _, total in spans:
        if parent >= 0:
            covered[parent] += total
    out: dict[str, float] = {}
    for (i, _, name, _, total), cov in zip(spans, covered):
        out[name] = out.get(name, 0.0) + total - cov
    return out


def calls(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for _, _, name, n, _ in spans:
        out[name] = out.get(name, 0) + n
    return out


def calls_under(spans: list[list], ancestor: str, prefix: str) -> int:
    """Calls of spans named prefix* that run inside a span named ancestor."""
    inside = [False] * len(spans)
    total = 0
    for i, parent, name, n, _ in spans:
        inside[i] = parent >= 0 and (inside[parent] or spans[parent][2] == ancestor)
        if inside[i] and name.startswith(prefix):
            total += n
    return total


# ---------------------------------------------------------------------------
# what gets wrapped

def _fplin_lane(stem: str, p_of):
    def pick(args, kwargs):
        return f"fplin.{'gf2' if p_of(args, kwargs) == 2 else 'modp'}.{stem}"

    return pick


def _span_add(tr: Tracer, args, kwargs, result) -> None:
    tr.add("fplin.span_add.useful", 1 if result else 0)


def _span_init(tr: Tracer, args, kwargs, result) -> None:
    tr.gauge_max("fplin.cols_max", args[1] if len(args) > 1 else kwargs["ncols"])


def _solve_in_span(tr: Tracer, args, kwargs, result) -> None:
    tr.add("fplin.rows_in", len(args[0]))
    tr.gauge_max("fplin.cols_max", args[2] if len(args) > 2 else kwargs["ncols"])


def _bigraded(tr: Tracer, args, kwargs, result) -> None:
    tr.see("gca.bigraded_basis", (id(args[0]), args[1], args[2]))


def _budget(tr: Tracer, args, kwargs, result) -> None:
    if result < args[1]:
        tr.add("bokstedt.budget_capped")


def _p_arg(index: int, default=None):
    def p_of(args, kwargs):
        if len(args) > index:
            return args[index]
        return kwargs.get("p", default)

    return p_of


# (module, attribute path, kind, span or counter name, observer, size counter)
# kind: "timed" = span, "count" = counted only, "observe" = observer only
TARGETS = [
    ("fplin", "Span.add", "timed", _fplin_lane("add", lambda a, k: a[0].p), _span_add, None),
    ("fplin", "Span.reduce", "timed", _fplin_lane("reduce", lambda a, k: a[0].p), None, None),
    ("fplin", "Span.basis", "timed", _fplin_lane("basis", lambda a, k: a[0].p), None, None),
    ("fplin", "Span.__init__", "observe", None, _span_init, None),
    ("fplin", "rank", "timed", _fplin_lane("rank", lambda a, k: a[0].p), None, None),
    ("fplin", "kernel_basis", "timed",
     _fplin_lane("kernel_basis", lambda a, k: a[0].p), None, None),
    ("fplin", "quotient_basis", "timed", _fplin_lane("quotient_basis", _p_arg(2, 2)), None, None),
    ("fplin", "solve_in_span", "timed",
     _fplin_lane("solve_in_span", _p_arg(3)), _solve_in_span, None),
    ("gca", "AlgebraPresentation.monomial_basis", "timed",
     "gca.monomial_basis", None, "gca.basis_monomials"),
    ("gca", "AlgebraPresentation.bigraded_basis", "timed",
     "gca.bigraded_basis", _bigraded, "gca.basis_monomials"),
    ("gca", "AlgebraPresentation.reduced_basis", "timed",
     "gca.reduced_basis", None, "gca.basis_monomials"),
    ("gca", "AlgebraPresentation.mul_monomials", "count", "gca.mul_monomials", None, None),
    ("gca", "CoactionTable.nu_monomial", "timed", "gca.coaction_nu", None, None),
    ("gca", "HopfData.psi_monomial", "timed", "gca.hopf_psi", None, None),
    ("steenrod", "milnor_mul", "timed", "steenrod.milnor.mul", None, None),
    ("steenrod", "milnor_coproduct", "timed", "steenrod.milnor.coproduct", None, None),
    ("steenrod", "milnor_basis", "timed", "steenrod.milnor.basis", None, None),
    ("steenrod", "conjugate", "timed", "steenrod.milnor.conjugate", None, None),
    ("steenrod", "steenrod_mul", "timed", "steenrod.adem.steenrod_mul", None, None),
    ("steenrod", "steenrod_basis", "timed", "steenrod.steenrod_basis", None, None),
    ("steenrod", "quotient_module", "timed", "steenrod.module.quotient", None, None),
    ("steenrod", "module_map_kernel", "timed", "steenrod.module.kernel", None, None),
    ("hochschild", "hh_homology", "timed", "hochschild.complex.hh_homology", None, None),
    ("hochschild", "HochschildComplex.basis", "timed",
     "hochschild.complex.basis", None, "hochschild.chains"),
    ("hochschild", "HochschildComplex.homology", "timed",
     "hochschild.complex.homology", None, None),
    ("hochschild", "hh_squarezero", "timed", "hochschild.squarezero", None, None),
    ("hochschild", "closed_form_hh", "timed", "hochschild.closed_form", None, None),
    ("hochschild", "presentation_dims_internal", "timed",
     "hochschild.closed_form.dims", None, None),
    ("catalog", "spectrum", "timed", "catalog.spectrum", None, None),
    ("bokstedt", "build_e2", "timed", "bokstedt.build_e2", None, None),
    ("bokstedt", "apply_d_pminus1", "timed", "bokstedt.apply_d", None, None),
    ("bokstedt", "page_homology", "timed", "bokstedt.page_homology", None, None),
    ("bokstedt", "differential_on_monomial", "timed",
     "bokstedt.differential_on_monomial", None, None),
    ("bokstedt", "obstruction_scan", "timed", "bokstedt.obstruction_scan", None, None),
    ("bokstedt", "simultaneous_primitives", "timed",
     "bokstedt.simultaneous_primitives", None, None),
    ("bokstedt", "resolve_extensions", "timed", "bokstedt.resolve_extensions", None, None),
    ("bokstedt", "_verify_budget_bound", "observe", None, _budget, None),
    ("bokstedt", "_budgeted_bound", "observe", None, _budget, None),
    ("adams", "run_ss", "timed", "adams.run_ss", None, None),
    ("adams", "homotopy_table", "timed", "adams.homotopy_table", None, None),
    ("cli", "emit", "timed", "cli.emit", None, None),
]


def _package_modules(package: str) -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def install(tr: Tracer, targets=TARGETS, package: str = "thhforge") -> list:
    """Wrap every target found and record the ones that no longer exist.

    Returns what was replaced, for `uninstall`.
    """
    modules = _package_modules(package)
    replaced: list = []
    for mod_name, path, kind, name, observe, size_counter in targets:
        owner = sys.modules.get(f"{package}.{mod_name}")
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tr.missing.append(f"{mod_name}.{path}")
            continue
        if kind == "timed":
            wrapped = tr.timed(name, original, observe, size_counter)
        elif kind == "count":
            wrapped = tr.counted(name, original)
        else:
            wrapped = tr.observed(original, observe)
        holders = [owner] if owners else [
            m for m in modules if any(v is original for v in vars(m).values())
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    replaced.append((holder, key, original))
                    setattr(holder, key, wrapped)
    return replaced


def uninstall(replaced: list) -> None:
    for holder, key, original in reversed(replaced):
        setattr(holder, key, original)
