"""Command-line surface.

Subcommands mirror the library: steenrod (bases, ranks, module
computations, the duality pairing), hh (Hochschild homology of presets
or presentation files), bokstedt (the full spectral sequence pipeline),
adams (charts and homotopy tables) and verify (the acceptance suite).
Every JSON result is wrapped in one schema-validated envelope and is
byte-identical across runs with the same configuration.  argv is parsed
from the one table COMMANDS, without argparse; -h prints usage read off it.

Exit codes: 0 success, 1 computation failure, 2 bad arguments (a usage
error, an unwritable --out/--report/--chart path, or a refused input).
A reader that closes stdout early (`| head`) ends the run with exit 0
and no error line: the computation succeeded, and the rest of the output
is dropped.
"""

from __future__ import annotations

import errno
import json
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from . import fplin
from . import adams as ad
from . import bokstedt as bk
from . import steenrod as st
from .catalog import UnsupportedSpectrumError
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
    """key = value lines; '#' comments; unknown keys are ignored.  Any other
    nonblank line (JSON or YAML, say) is refused with a ValueError naming its
    line number."""
    out: dict = {}
    if not path:
        return out
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {n} is not key = value: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            val = val.strip("\"'")
            out[key] = int(val) if key in ("p", "maxdeg", "qmax") else val
    return out


def resolve(args, config: dict, key: str, default=None):
    flag = getattr(args, key, None)
    return flag if flag is not None else config.get(key, DEFAULTS.get(key, default))


def bad_bounds(maxdeg: int, p: int | None = None) -> bool:
    """Print a one-line refusal for a degree bound outside 0..HARD_DEGREE_CAP
    or a non-prime p."""
    why = (f"--maxdeg must be nonnegative (got {maxdeg})" if maxdeg < 0
           else f"--maxdeg must be at most {HARD_DEGREE_CAP} (got {maxdeg})"
           if maxdeg > HARD_DEGREE_CAP
           else f"--p must be a prime (got {p})" if p is not None and not fplin.is_prime(p)
           else "")
    if why:
        print(f"error: {why}", file=sys.stderr)
    return bool(why)


def envelope(command: str, params: dict, result) -> dict:
    return {"tool": "thhforge", "version": __version__, "command": command, "params": params,
            "result": result}


_SCALARS = frozenset((str, int, float, bool, type(None)))
_ENCODERS: dict = {}  # item indent -> the encode of a JSONEncoder separating items by it


def dumps(obj, depth: int = 0) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for a value nested `depth` levels
    in.  json indents only in its pure-Python encoder, so a dict, list or tuple
    whose items (and keys) all have an exact scalar type is one call of a
    JSONEncoder whose item separator carries the newline and indent: json's C
    encoder.  Above such containers, exact dicts, lists and tuples are walked
    here; anything else (a subclass, or a value json refuses) is json's own
    indenting encoder, moved in.  (A list or dict that contains itself recurses
    until RecursionError, where json raises ValueError.)"""
    kind = type(obj)
    if kind in _SCALARS:
        return json.dumps(obj)
    if kind is list or kind is tuple or kind is dict and _SCALARS.issuperset(map(type, obj)):
        indent = "  " * (depth + 1)
        sep = ",\n" + indent
        if _SCALARS.issuperset(map(type, obj.values() if kind is dict else obj)):
            if (encode := _ENCODERS.get(indent)) is None:
                encode = _ENCODERS[indent] = json.JSONEncoder(sort_keys=True,
                                                              separators=(sep, ": ")).encode
            text = encode(obj)
        elif kind is dict:  # a key that is not a str is written as the str of its JSON
            text = "{%s}" % sep.join([f"{json.dumps(k if type(k) is str else json.dumps(k))}: "
                                      f"{dumps(v, depth + 1)}" for k, v in sorted(obj.items())])
        else:
            text = "[%s]" % sep.join([dumps(v, depth + 1) for v in obj])
        if len(text) == 2:  # empty
            return text
        # each item after the first already starts on its own indented line
        return f"{text[0]}\n{indent}{text[1:-1]}\n{indent[2:]}{text[-1]}"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def emit(payload: dict, args, config) -> None:
    fmt = resolve(args, config, "format")
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(dumps(payload) + "\n")
    elif fmt == "json":
        print(dumps(payload))
    else:
        _print_rows(payload["result"], "," if fmt == "csv" else "\t")


def _print_rows(result, sep: str) -> None:
    """One line per key or row.  In csv a value that nests (a dict, list or
    tuple) is one field, its compact JSON text quoted by CSV rules: in double
    quotes, each inner quote doubled.  A table row prints its repr, an "s,t"
    table listed by (s, t)."""
    def field(v, key=None):
        if sep == "," and isinstance(v, (dict, list, tuple)):
            return '"%s"' % json.dumps(v, sort_keys=True, separators=(",", ":")).replace('"', '""')
        if key in ("e2", "einf") and v:
            return {st: v[st] for st in sorted(v, key=lambda st: tuple(map(int, st.split(","))))}
        return v

    if isinstance(result, dict):
        for k in sorted(result, key=str):
            print(f"{k}{sep}{field(result[k], k)}")
    elif isinstance(result, list):
        for row in result:
            print(field(row))
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
        params = {"degree": args.degree}
        result = [st.element_str(e) for e in st.steenrod_basis(spec, args.degree)]
    elif sub == "rank":
        params, result = {}, st.total_rank(spec)
    elif sub == "quotient":
        module = st.quotient_module(spec, ideal)
        params, result = {"ideal": args.ideal}, module.total_rank()
        if not args.total_rank:
            result = {"total_rank": result,
                      "series": {str(d): n for d, n in module.poincare().items()},
                      "basis": {str(d): module.labels(d) for d in module.degrees()}}
    elif sub == "kernel":
        kernel, cok = st.module_map_kernel(
            fmap, st.quotient_module(spec, ideal), st.quotient_module(spec, target))
        params = {"ideal": args.ideal, "target_ideal": args.target_ideal, "map": args.map}
        result = {"kernel_rank": kernel.total_rank(), "cokernel_rank": cok,
                  "kernel_series": {str(d): n for d, n in kernel.poincare().items()}}
    else:
        params, result = {"element": args.element, "monomial": args.monomial}, st.pairing(a, m, 2)
    if spec is not None:
        params["subalgebra"] = spec.id
    emit(envelope(f"steenrod {sub}", params, result), args, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# hh

PRESETS = {  # name -> (p, maxdeg) -> (presentation, the qmax it needs)
    "idempotent": lambda p, n: (AlgebraPresentation(
        p, [GeneratorSpec("u", 0, "truncated", height=2, idempotent=True)], 0), 6),
    "polynomial": lambda p, n: (
        AlgebraPresentation(p, [GeneratorSpec("x", 2, "polynomial")], n), None),
    "exterior": lambda p, n: (
        AlgebraPresentation(p, [GeneratorSpec("x", 1, "exterior")], n), None),
    "squarezero": lambda p, n: (AlgebraPresentation(
        p, [GeneratorSpec("x", 1, "exterior"), GeneratorSpec("y", 1, "exterior")], n,
        square_zero=True), 5),
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
    result = {f"{q},{t}": v for (q, t), v in dims.items()}
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
    einf, module, log = ad.run_ss(args.target, n)
    result = {"target": args.target, "stages": log, "homotopy": module.table(n),
              "einf": {f"{s},{t}": v for (s, t), v in einf.dims.items() if v}}
    smax = max((s for s, _ in einf.dims), default=10)
    if args.chart:
        with open(args.chart, "w") as fh:
            fh.write(ad.svg_chart(einf, n, min(smax, n)))
        result["chart"] = args.chart
    if resolve(args, config, "format") == "table" and not args.out:
        print(ad.text_chart(einf, min(n, 40), min(smax, 24)))
        return EXIT_OK
    emit(envelope("adams run", {"target": args.target, "maxdeg": n}, result), args, config)
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
            fh.write(dumps(envelope("verify", {}, [{k: r[k] for k in ("id", "passed", "elapsed")}
                                                   for r in reports])))
    return EXIT_FAILURE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argv

_OUTPUT = {"--format": (FORMATS, None), "--out": (str, None)}
# (command, subcommand) -> {flag: (kind, default)}: a kind is str, int, bool (a switch,
# default False) or the tuple of allowed values, and a default of ... marks a flag that
# must be given; verify has no subcommand, and --config goes before the command words
COMMANDS: dict[tuple[str, str | None], dict[str, tuple]] = {
    ("steenrod", "basis"): {"--subalgebra": (str, "A"), "--degree": (int, ...), **_OUTPUT},
    ("steenrod", "rank"): {"--subalgebra": (str, ...), **_OUTPUT},
    ("steenrod", "quotient"): {"--subalgebra": (str, ...), "--ideal": (str, ...),
                               "--total-rank": (bool, False), **_OUTPUT},
    ("steenrod", "kernel"): {"--subalgebra": (str, ...), "--ideal": (str, ...),
                             "--target-ideal": (str, ...), "--map": (str, ...), **_OUTPUT},
    ("steenrod", "pair"): {"--element": (str, ...), "--monomial": (str, ...), **_OUTPUT},
    ("hh", "compute"): {"--preset": (str, None), "--spectrum": (str, None), "--p": (int, None),
                        "--maxdeg": (int, None), "--qmax": (int, None), **_OUTPUT},
    ("bokstedt", "run"): {"--spectrum": (str, ...), "--p": (int, None), "--maxdeg": (int, None),
                          **_OUTPUT},
    ("adams", "run"): {"--target": (tuple(ad.TARGETS), ...), "--maxdeg": (int, None),
                       "--chart": (str, None), **_OUTPUT},
    ("verify", None): {"--report": (str, None)},
}


def usage(words: list[str]) -> str:
    """One usage line per command under the command words given."""
    lines = []
    for key, flags in COMMANDS.items():
        if list(key[:len(words)]) == words:
            opts = ["[-h]"]
            for f, (kind, default) in flags.items():
                meta = ("" if kind is bool else " {%s}" % ",".join(kind)
                        if isinstance(kind, tuple) else " " + f[2:].upper())
                opts.append(f + meta if default is ... else f"[{f}{meta}]")
            lines.append(" ".join(["thhforge [--config CONFIG]", *filter(None, key), *opts]))
    return "usage: " + "\n       ".join(lines)


def _fail(words: list[str], message: str):
    print(usage(words), f"thhforge: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _classify(arg: str, names: list[str], words: list[str]):
    """(option, explicit value or None) for an option among `names` (a long one by
    unique prefix), ("", None) for an unknown option, None for a positional word."""
    if arg in names:
        return arg, None
    if not arg.startswith("-") or arg == "-":
        return None
    head, eq, val = arg.partition("=")
    if eq and head in names:
        return head, val
    if arg[1] == "-":
        hits, val = [n for n in names if n.startswith(head)], val if eq else None
    else:  # -h takes no value, so -hh is -h twice and -hx is refused
        hits, val = (["-h"], arg[2:]) if arg.startswith("-h") else ([], None)
    if len(hits) > 1:
        _fail(words, f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return hits[0], val
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else ("", None)


def _value(flag: str, kind, text: str, words: list[str]):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _fail(words, f"argument {flag}: invalid int value: {text!r}")
    if isinstance(kind, tuple) and text not in kind:
        _fail(words, f"argument {flag}: invalid choice: {text!r} "
              f"(choose from {', '.join(map(repr, kind))})")
    return text


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv off COMMANDS one level at a time (top, command, subcommand) by
    argparse's rules: every word up to a '--' is classified first, a flag's value
    is the next positional word or follows '=', the last repeat wins, and -h
    prints the usage of its level.  A usage error prints one `thhforge: error:`
    line and exits 2, after the first bad flag, missing flag or unknown word."""
    ns: dict = {"config": None}
    words: list[str] = []
    extras: list[str] = []
    while True:
        key = (*words, None, None)[:2]
        flags = COMMANDS.get(key, {} if words else {"--config": (str, None)})
        subs = [] if key in COMMANDS else list(dict.fromkeys(
            k[len(words)] for k in COMMANDS if list(k[:len(words)]) == words))
        for f, (kind, default) in flags.items():
            ns[f[2:].replace("-", "_")] = None if default is ... else default
        cut = argv.index("--") if "--" in argv else len(argv)
        marks = [_classify(a, ["-h", "--help", *flags], words) for a in argv[:cut]]
        seen, i, dest = set(), 0, f"{words[0]}_cmd" if words else "command"
        while i < len(argv):
            arg, mark, i = argv[i], marks[i] if i < cut else None, i + 1
            if mark is None and subs:
                if arg not in subs:
                    _fail(words, f"argument {dest}: invalid choice: {arg!r} "
                          f"(choose from {', '.join(map(repr, subs))})")
                ns[dest], argv = arg, argv[i:]
                words.append(arg)
                break
            flag, val = mark or ("", None)
            kind = flags.get(flag, (None,))[0]
            if not flag:
                extras.append(arg)
            elif kind in (bool, None):  # a switch, or help
                if val is not None and not (flag == "-h" and val and not val.strip("h")):
                    _fail(words, f"argument {flag}: ignored explicit argument {val!r}")
                if kind is None:
                    print(usage(words))
                    raise SystemExit(EXIT_OK)
                ns[flag[2:].replace("-", "_")] = True
            else:
                if val is None:
                    if i >= cut or marks[i] is not None:
                        _fail(words, f"argument {flag}: expected one argument")
                    val, i = argv[i], i + 1
                ns[flag[2:].replace("-", "_")] = _value(flag, kind, val, words)
            seen.add(flag)
        else:
            missing = [f for f, (_, d) in flags.items() if d is ... and f not in seen]
            if subs or missing:
                _fail(words, f"the following arguments are required: {', '.join(missing) or dest}")
            if extras:
                _fail([], f"unrecognized arguments: {' '.join(extras)}")
            return SimpleNamespace(**ns)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    for path in filter(None, (getattr(args, k, None) for k in ("out", "report", "chart"))):
        parent = os.path.dirname(path) or "."  # why open(path, "w") would fail, creating nothing
        code = (errno.EISDIR if os.path.isdir(path) else 0 if os.path.isdir(parent)
                else errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
        if code:
            print(f"error: cannot write {path}: {os.strerror(code)}", file=sys.stderr)
            return EXIT_USAGE
    try:
        config = read_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config file {args.config}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: bad config file {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.get("format", "table") not in FORMATS:
        print(f"error: format must be one of {', '.join(FORMATS)} "
              f"(got {config['format']!r})", file=sys.stderr)
        return EXIT_USAGE
    run = {"steenrod": cmd_steenrod, "hh": cmd_hh, "bokstedt": cmd_bokstedt, "adams": cmd_adams,
           "verify": cmd_verify}[args.command]
    try:
        code = run(args, config)
        sys.stdout.flush()  # so a closed pipe is met here, not at the exit flush
        return code
    except BrokenPipeError:  # the reader stopped early: no failure, nothing more to write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, KeyError, AssertionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
