"""Command-line surface.

Subcommands mirror the library: steenrod (bases, ranks, module
computations, the duality pairing), hh (Hochschild homology of presets
or presentation files), bokstedt (the full spectral sequence pipeline),
adams (charts and homotopy tables) and verify (the acceptance suite).
Every JSON result is wrapped in one schema-validated envelope and is
byte-identical across runs with the same configuration.

Exit codes: 0 success, 1 computation failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import fplin
from . import adams as ad
from . import bokstedt as bk
from . import steenrod as st
from .catalog import SPECTRUM_NAMES, UnsupportedSpectrumError, spectrum
from .gca import AlgebraPresentation, GeneratorSpec
# hh_homology stays importable here: the benchmark tracer's tests call cli.hh_homology
from .hochschild import _bidegrees, _factors, hh_dims, hh_homology  # noqa: F401
from .steenrod import parse_milnor

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

DEFAULTS = {"p": 2, "maxdeg": 40, "format": "table"}
FORMATS = ("table", "json", "csv")
HARD_DEGREE_CAP = 128


def read_config(path: str | None) -> dict:
    """key = value lines; '#' comments; unknown keys are ignored."""
    out: dict = {}
    if not path:
        return out
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line or "=" not in line:
                continue
            key, val = (part.strip() for part in line.split("=", 1))
            val = val.strip("\"'")
            if key in ("p", "maxdeg", "qmax"):
                out[key] = int(val)
            else:
                out[key] = val
    return out


def resolve(args, config: dict, key: str, default=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return DEFAULTS.get(key, default)


def bad_bounds(maxdeg: int, p: int | None = None) -> bool:
    """Print a one-line refusal for a degree bound outside 0..HARD_DEGREE_CAP
    or a non-prime p."""
    if maxdeg < 0:
        print(f"error: --maxdeg must be nonnegative (got {maxdeg})", file=sys.stderr)
        return True
    if maxdeg > HARD_DEGREE_CAP:
        print(f"error: --maxdeg must be at most {HARD_DEGREE_CAP} (got {maxdeg})",
              file=sys.stderr)
        return True
    if p is not None and not fplin.is_prime(p):
        print(f"error: --p must be a prime (got {p})", file=sys.stderr)
        return True
    return False


def envelope(command: str, params: dict, result) -> dict:
    return {
        "tool": "thhforge",
        "version": __version__,
        "command": command,
        "params": params,
        "result": result,
    }


def emit(payload: dict, args, config) -> None:
    fmt = resolve(args, config, "format")
    text = json.dumps(payload, sort_keys=True, indent=2)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        return
    if fmt == "json":
        print(text)
    elif fmt == "csv":
        _print_csv(payload["result"])
    else:
        _print_table(payload["result"])


def _print_table(result) -> None:
    if isinstance(result, dict):
        for k in sorted(result, key=str):
            print(f"{k}\t{result[k]}")
    elif isinstance(result, list):
        for row in result:
            print(row)
    else:
        print(result)


def _print_csv(result) -> None:
    if isinstance(result, dict):
        for k in sorted(result, key=str):
            print(f"{k},{result[k]}")
    elif isinstance(result, list):
        for row in result:
            print(row if not isinstance(row, dict) else ",".join(str(v) for v in row.values()))
    else:
        print(result)


# ---------------------------------------------------------------------------
# steenrod

def _parse_ideal(text: str, top: int | None) -> list:
    return [st.parse_element(s, top) for s in text.split(",")]


def cmd_steenrod(args, config) -> int:
    sub = args.steenrod_cmd
    try:  # every argument is parsed before any computation: a bad one exits 2
        spec = None if sub == "pair" else st.SubalgebraSpec.parse(args.subalgebra)
        if sub in ("rank", "quotient", "kernel") and not spec.finite:
            raise ValueError(f"steenrod {sub} needs a finite subalgebra, not {spec.id}")
        top = spec.top_degree if spec is not None and spec.finite else None
        ideal = _parse_ideal(args.ideal, top) if sub in ("quotient", "kernel") else None
        if sub == "kernel":
            target, fmap = _parse_ideal(args.target_ideal, top), st.parse_element(args.map, top)
        if sub == "pair":
            a, m = st.parse_element(args.element), parse_milnor(args.monomial, 2)
            ((mono, _),) = m.items()  # an inhomogeneous element raises in element_degree
            if mono.tau or st.element_degree(a) not in (None, mono.degree(2)):
                raise ValueError(f"cannot pair {args.element} with {args.monomial}: the pairing "
                                 "needs one degree on both sides and no tau at p = 2")
        given = (ideal or []) + (target + [fmap] if sub == "kernel" else [])
        for e in given:
            st.element_degree(e)  # an inhomogeneous element raises
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if spec is not None:
        # the degree a basis is built through; past a finite top it is empty and free
        need = args.degree if sub == "basis" else spec.top_degree if spec.finite else -1
        if spec.finite and need > spec.top_degree:
            need = -1
        counts = (st.admissible_count(d, d) for d in range(need + 1))
        cut = fplin.budget_cut(counts, bk.VERIFY_BUDGET)
        if cut < need:
            print(f"error: subalgebra {spec.id} through degree {need} needs more than "
                  f"{bk.VERIFY_BUDGET} admissible monomials; the largest degree within "
                  f"budget is {cut}", file=sys.stderr)
            return EXIT_USAGE
        outside = [e for e in given if not st.in_subalgebra(spec, e)]
        if outside:
            print(f"error: {st.element_str(outside[0])} is not in the subalgebra {spec.id}",
                  file=sys.stderr)
            return EXIT_USAGE
    if sub == "basis":
        basis = st.steenrod_basis(spec, args.degree)
        result = [st.element_str(e) for e in basis]
        emit(envelope("steenrod basis",
                      {"subalgebra": spec.id, "degree": args.degree}, result),
             args, config)
        return EXIT_OK
    if sub == "rank":
        result = st.total_rank(spec)
        emit(envelope("steenrod rank", {"subalgebra": spec.id}, result), args, config)
        return EXIT_OK
    if sub == "quotient":
        module = st.quotient_module(spec, ideal)
        result: dict = {"total_rank": module.total_rank()}
        if not args.total_rank:
            result["series"] = {str(d): n for d, n in module.poincare().items()}
            result["basis"] = {str(d): module.labels(d) for d in module.degrees()}
        emit(envelope("steenrod quotient",
                      {"subalgebra": spec.id, "ideal": args.ideal},
                      result["total_rank"] if args.total_rank else result),
             args, config)
        return EXIT_OK
    if sub == "kernel":
        kernel, cok = st.module_map_kernel(
            fmap, st.quotient_module(spec, ideal), st.quotient_module(spec, target))
        result = {
            "kernel_rank": kernel.total_rank(),
            "cokernel_rank": cok,
            "kernel_series": {str(d): n for d, n in kernel.poincare().items()},
        }
        emit(envelope("steenrod kernel",
                      {"subalgebra": spec.id, "ideal": args.ideal,
                       "target_ideal": args.target_ideal, "map": args.map},
                      result), args, config)
        return EXIT_OK
    if sub == "pair":
        result = st.pairing(a, m, 2)
        emit(envelope("steenrod pair",
                      {"element": args.element, "monomial": args.monomial}, result),
             args, config)
        return EXIT_OK
    raise ValueError(sub)


# ---------------------------------------------------------------------------
# hh

PRESETS = {
    "idempotent": lambda p, n: (
        AlgebraPresentation(p, [GeneratorSpec("u", 0, "truncated", height=2,
                                              idempotent=True)], 0),
        6,
    ),
    "polynomial": lambda p, n: (
        AlgebraPresentation(p, [GeneratorSpec("x", 2, "polynomial")], n), None
    ),
    "exterior": lambda p, n: (
        AlgebraPresentation(p, [GeneratorSpec("x", 1, "exterior")], n), None
    ),
    "squarezero": lambda p, n: (
        AlgebraPresentation(
            p,
            [GeneratorSpec("x", 1, "exterior"), GeneratorSpec("y", 1, "exterior")],
            n,
            square_zero=True,
        ),
        5,
    ),
}


def load_presentation(path: str) -> AlgebraPresentation:
    """Presentation files: {p, max_degree?, square_zero?, generators: [{name,
    degree, kind, height?, idempotent?}]}; other keys are ignored."""
    with open(path) as fh:
        data = json.load(fh)

    def field(obj: dict, key: str, kind: type, default=None):
        """obj[key], or default when absent; refused unless of type kind (a bool
        is no int) and nonempty."""
        val = obj[key] if default is None else obj.get(key, default)
        if type(val) is not kind or val == "":
            what = {int: "an integer", bool: "true or false", str: "a nonempty string"}[kind]
            raise ValueError(f"{key} must be {what}, not {val!r}")
        return val

    gens = [
        GeneratorSpec(field(g, "name", str), field(g, "degree", int), g["kind"],
                      height=field(g, "height", int, 0),
                      idempotent=field(g, "idempotent", bool, False))
        for g in data["generators"]
    ]
    if (n := field(data, "max_degree", int, 24)) < 0:
        raise ValueError(f"max_degree must be nonnegative, not {n}")
    return AlgebraPresentation(field(data, "p", int), gens, n,
                               square_zero=field(data, "square_zero", bool, False))


def cmd_hh(args, config) -> int:
    p = resolve(args, config, "p")
    n = resolve(args, config, "maxdeg")
    if bad_bounds(n, p):
        return EXIT_USAGE
    if args.spectrum:
        try:
            pres = load_presentation(args.spectrum)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            print(f"error: bad presentation file {args.spectrum}: {reason}", file=sys.stderr)
            return EXIT_USAGE
        asked = args.p if args.p is not None else config.get("p")
        if asked is not None and asked != pres.p:
            print(f"error: p = {asked} disagrees with the presentation file's p = {pres.p}",
                  file=sys.stderr)
            return EXIT_USAGE
        p = pres.p
        qmax = resolve(args, config, "qmax")
        if n > pres.N and (args.maxdeg is not None or "maxdeg" in config):
            print(f"error: maxdeg {n} is above the presentation file's max_degree {pres.N}",
                  file=sys.stderr)
            return EXIT_USAGE
        n = min(n, pres.N)
    elif args.preset:
        if args.preset not in PRESETS:
            print(f"error: unknown preset {args.preset!r}; presets: {sorted(PRESETS)}",
                  file=sys.stderr)
            return EXIT_USAGE
        pres, qmax = PRESETS[args.preset](p, n)
        qmax = resolve(args, config, "qmax", qmax)
    else:
        print("error: hh compute needs --preset or --spectrum", file=sys.stderr)
        return EXIT_USAGE
    if qmax is not None and qmax < 0:
        print(f"error: --qmax must be nonnegative (got {qmax})", file=sys.stderr)
        return EXIT_USAGE
    # a preset may live below the asked bound (the idempotent one sits in
    # degree 0): compute through its top and report the bound asked for
    top = min(n, pres.N)
    try:
        _bidegrees(pres, top, qmax)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # hh_dims builds one complex per factor, and each must fit the budget
    cut = min((bk._budgeted_bound(f, top, bk.CHAIN_BUDGET, qmax) for f in _factors(pres)),
              default=top)
    if cut < top:
        print(f"error: a Hochschild complex through t = {top} has more than "
              f"{bk.CHAIN_BUDGET} chains; the largest degree within budget is "
              f"t = {cut} (--maxdeg {cut})", file=sys.stderr)
        return EXIT_USAGE
    dims = hh_dims(pres, top, qmax=qmax)
    result = {f"{q},{t}": v for (q, t), v in sorted(dims.items())}
    emit(envelope("hh compute",
                  {"p": p, "maxdeg": n, "preset": args.preset, "qmax": qmax}, result),
         args, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bokstedt / adams

def cmd_bokstedt(args, config) -> int:
    p = resolve(args, config, "p")
    n = resolve(args, config, "maxdeg")
    if bad_bounds(n, p):
        return EXIT_USAGE
    try:
        res = bk.thh_homology(args.spectrum, p, n)
    except (bk.CoactionBoundError, bk.PageCheckBudgetError, UnsupportedSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    emit(envelope("bokstedt run", {"spectrum": args.spectrum, "p": p, "maxdeg": n},
                  res.to_jsonable()), args, config)
    return EXIT_OK


def cmd_adams(args, config) -> int:
    n = resolve(args, config, "maxdeg")
    if bad_bounds(n):
        return EXIT_USAGE
    target = args.target
    einf, module, log = ad.run_ss(target, n)
    result = {
        "target": target,
        "stages": log,
        "einf": {f"{s},{t}": v for (s, t), v in sorted(einf.dims.items()) if v},
        "homotopy": module.table(n),
    }
    if args.chart:
        smax = max((s for s, _ in einf.dims), default=10)
        with open(args.chart, "w") as fh:
            fh.write(ad.svg_chart(einf, n, min(smax, n)))
        result["chart"] = args.chart
    if resolve(args, config, "format") == "table" and not args.out:
        smax = max((s for s, _ in einf.dims), default=10)
        print(ad.text_chart(einf, min(n, 40), min(smax, 24)))
        return EXIT_OK
    emit(envelope("adams run", {"target": target, "maxdeg": n}, result), args, config)
    return EXIT_OK


def cmd_verify(args, config) -> int:
    from . import acceptance  # only verify runs the acceptance suite

    reports = []
    failed = False
    for crit in acceptance.CRITERIA:
        rep = crit()
        reports.append(rep)
        status = "PASS" if rep["passed"] else "FAIL"
        print(f"[{status}] criterion {rep['id']:>2}  {rep['elapsed']:7.2f}s  "
              f"{rep['description']}")
        failed |= not rep["passed"]
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(envelope("verify", {},
                               [{k: r[k] for k in ("id", "passed", "elapsed")}
                                for r in reports]),
                      fh, sort_keys=True, indent=2)
    return EXIT_FAILURE if failed else EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thhforge",
        description="Exact mod-p computations for Steenrod modules, Hochschild "
        "homology and the spectral sequences of topological Hochschild homology.",
    )
    ap.add_argument("--config", help="key = value configuration file")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("steenrod", help="Steenrod algebra computations")
    ssub = sp.add_subparsers(dest="steenrod_cmd", required=True)
    b = ssub.add_parser("basis")
    b.add_argument("--subalgebra", default="A")
    b.add_argument("--degree", type=int, required=True)
    _common(b)
    r = ssub.add_parser("rank")
    r.add_argument("--subalgebra", required=True)
    _common(r)
    q = ssub.add_parser("quotient")
    q.add_argument("--subalgebra", required=True)
    q.add_argument("--ideal", required=True)
    q.add_argument("--total-rank", action="store_true")
    _common(q)
    k = ssub.add_parser("kernel")
    k.add_argument("--subalgebra", required=True)
    k.add_argument("--ideal", required=True)
    k.add_argument("--target-ideal", required=True)
    k.add_argument("--map", required=True)
    _common(k)
    pr = ssub.add_parser("pair")
    pr.add_argument("--element", required=True)
    pr.add_argument("--monomial", required=True)
    _common(pr)

    h = sub.add_parser("hh", help="Hochschild homology")
    hsub = h.add_subparsers(dest="hh_cmd", required=True)
    hc = hsub.add_parser("compute")
    hc.add_argument("--preset")
    hc.add_argument("--spectrum", help="presentation file (JSON)")
    hc.add_argument("--p", type=int)
    hc.add_argument("--maxdeg", type=int)
    hc.add_argument("--qmax", type=int)
    _common(hc)

    bo = sub.add_parser("bokstedt", help="the spectral sequence pipeline")
    bsub = bo.add_subparsers(dest="bokstedt_cmd", required=True)
    br = bsub.add_parser("run")
    br.add_argument("--spectrum", required=True,
                    help=f"one of {', '.join(SPECTRUM_NAMES)}")
    br.add_argument("--p", type=int)
    br.add_argument("--maxdeg", type=int)
    _common(br)

    adp = sub.add_parser("adams", help="v1-periodic Adams charts")
    asub = adp.add_subparsers(dest="adams_cmd", required=True)
    ar = asub.add_parser("run")
    ar.add_argument("--target", required=True, choices=ad.TARGETS)
    ar.add_argument("--maxdeg", type=int)
    ar.add_argument("--chart", help="write an SVG chart here")
    _common(ar)

    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--report", help="write a JSON report here")
    return ap


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--out", help="write the JSON envelope to a file")


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        config = read_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config file {args.config}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: bad config value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.get("format", "table") not in FORMATS:
        print(f"error: format must be one of {', '.join(FORMATS)} "
              f"(got {config['format']!r})", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "steenrod":
            return cmd_steenrod(args, config)
        if args.command == "hh":
            return cmd_hh(args, config)
        if args.command == "bokstedt":
            return cmd_bokstedt(args, config)
        if args.command == "adams":
            return cmd_adams(args, config)
        if args.command == "verify":
            return cmd_verify(args, config)
    except (ValueError, KeyError, AssertionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
