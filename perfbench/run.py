"""Benchmark of the `thhforge` command line, one job at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload odd-pages --seed 1 --seconds 20 --trace 0

Every job is one `thhforge` CLI call (`--format json --out FILE`) in a
fresh Python child with a fresh, empty THHFORGE_CACHE, as a user pays on
every call.  The workload's jobs run in seed order, one after another,
in passes until --seconds have been measured.  Every output is checked
(see checks.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are reported at a reference speed: a fixed probe loop is timed
in each child before it imports `thhforge`, and again in a fresh process
right after the child exits; the job's setup and solve times are
multiplied by PROBE_REF_S over the mean of the two probe times.  This
cancels the drift of a shared machine's speed, which reached a factor of
two over minutes where this benchmark was written, and nothing the
program imports, keeps alive or tunes enters the factor.  Raw times and
the speed factor of every job are printed on standard error; the traced
run also reports the raw times as per-layer metrics.

With --trace 0 the metrics are the end-to-end ones, from per-job
medians over the passes; with --trace 1 the workload runs once untraced
and once with the tracer installed in each child, and the metrics are
per layer.
Exits with code 2, printing no result, when there is no `src/thhforge`
to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

RUN_BUDGET_S = 165.0   # no job may run past this many seconds into the run
# about one round of child.probe() on the machine this benchmark was written
# on (2-vCPU Xeon VM, Python 3.11.7); reported times are scaled to it
PROBE_REF_S = 0.015

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from checks import Checker, verified_degree  # noqa: E402
from child import PROBE_ROUNDS  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_job(job, argv: list[str], jobdir: str, trace: bool, deadline: float) -> dict:
    """Run one job in a fresh child; return its timings and output."""
    os.makedirs(os.path.join(jobdir, "cache"))
    out = os.path.join(jobdir, "out.json")
    report = os.path.join(jobdir, "report.json")
    spans = os.path.join(jobdir, "trace.json") if trace else None
    spec = {"src": SRC, "argv": argv + ["--format", "json", "--out", out],
            "report": report, "trace": spans, "job": job.id}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["THHFORGE_CACHE"] = os.path.join(jobdir, "cache")
    rec: dict = {"job": job, "error": None}
    with open(os.path.join(jobdir, "stderr.txt"), "w+") as err:
        launch = now()
        proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=max(deadline - launch, 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rec["error"] = f"timeout after {now() - launch:.1f} s"
        wall = now() - launch
        err.seek(0)
        tail = err.read()[-300:].strip()
    rec.update(setup=0.0, solve=wall, speed=1.0, rss_mb=0.0, out_bytes=0, result=None,
               trace=None)
    if rec["error"]:
        return rec
    if proc.returncode != 0 or not os.path.exists(report):
        rec["error"] = f"child exit {proc.returncode}: {tail}"
        return rec
    with open(report) as fh:
        rep = json.load(fh)
    probe_start, probe_end = rep["probe"]
    before = (probe_end - probe_start) / PROBE_ROUNDS
    after = float(subprocess.run([sys.executable, CHILD, "--probe"], cwd=ROOT, env=env,
                                 stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                 timeout=60, check=True).stdout)
    rec.update(setup=rep["ready"] - launch - (probe_end - probe_start),
               solve=rep["end"] - rep["start"],
               speed=PROBE_REF_S / statistics.mean([before, after]),
               rss_mb=rep["maxrss_kb"] / 1024.0)
    if rep["rc"] != 0 or not os.path.exists(out):
        rec["error"] = f"thhforge exit {rep['rc']}: {tail}"
        return rec
    rec["out_bytes"] = os.path.getsize(out)
    with open(out) as fh:
        rec["result"] = json.load(fh)["result"]
    if spans:
        with open(spans) as fh:
            rec["trace"] = json.load(fh)
    return rec


def run_pass(jobs, workdir: str, index: int, trace: bool, checker, deadline: float) -> list[dict]:
    recs = []
    for k, (job, argv) in enumerate(jobs):
        jobdir = os.path.join(workdir, f"pass{index}-job{k}")
        rec = run_job(job, argv, jobdir, trace, deadline)
        shutil.rmtree(jobdir, ignore_errors=True)
        if rec["error"] is None and checker is not None:
            rec["error"] = checker.check(job, rec["result"])
        status = "ok" if rec["error"] is None else f"FAILED: {rec['error']}"
        print(f"  pass {index}  {job.id:32s} setup {rec['setup']:6.3f} s  "
              f"solve {rec['solve']:8.3f} s  speed {rec['speed']:5.3f}  "
              f"rss {rec['rss_mb']:6.1f} MB  {status}", file=sys.stderr)
        recs.append(rec)
    return recs


def end_to_end(passes: list[list[dict]]) -> dict:
    """Per-job medians over passes, summed over jobs; times are scaled to
    the reference speed."""
    by_job: dict[str, list[dict]] = {}
    for recs in passes:
        for r in recs:
            by_job.setdefault(r["job"].id, []).append(r)

    def per_job(key: str) -> list[float]:
        return [statistics.median(r[key] * r["speed"] for r in rs) for rs in by_job.values()]

    verified = min(
        sum(verified_degree(r["job"].id, r["result"]) for r in recs if r["result"] is not None)
        for recs in passes
    )
    return {
        "solve_s": (sum(per_job("solve")), "s"),
        "setup_s": (sum(per_job("setup")), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for rs in passes for r in rs), "MB"),
        "verified_deg_sum": (verified, "degree"),
    }


LAYERS = ("fplin", "gca", "steenrod", "hochschild", "catalog", "bokstedt", "adams", "cli")


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics of one traced pass; untraced gives the overhead."""
    st: dict[str, float] = {}
    cl: dict[str, int] = {}
    counts: dict[str, int] = {}
    cols_max, distinct, sq_rows, missing = 0, 0, 0, set()
    for rec in traced:
        tr = rec["trace"]
        if tr is None:
            continue
        for k, v in tracing.self_times(tr["spans"]).items():
            st[k] = st.get(k, 0.0) + v
        for k, v in tracing.calls(tr["spans"]).items():
            cl[k] = cl.get(k, 0) + v
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        cols_max = max(cols_max, tr["gauges"].get("fplin.cols_max", 0))
        distinct += tr["distinct"].get("gca.bigraded_basis", 0)
        sq_rows += sum(tracing.calls_under(tr["spans"], "hochschild.squarezero", f"fplin.{lane}.add")
                       for lane in ("gf2", "modp"))
        missing.update(tr["missing"])

    def layer(prefix: str) -> float:
        return sum(v for k, v in st.items() if k == prefix or k.startswith(prefix + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    adds = cl.get("fplin.gf2.add", 0) + cl.get("fplin.modp.add", 0)
    reduces = cl.get("fplin.gf2.reduce", 0) + cl.get("fplin.modp.reduce", 0)
    traced_solve = sum(r["solve"] * r["speed"] for r in traced)
    untraced_solve = sum(r["solve"] * r["speed"] for r in untraced)
    m = {
        "fplin.gf2.self_s": (layer("fplin.gf2"), "s"),
        "fplin.modp.self_s": (layer("fplin.modp"), "s"),
        "fplin.span_add.calls": (adds, "count"),
        "fplin.span_add.useful_ratio": (ratio(counts.get("fplin.span_add.useful", 0), adds), "ratio"),
        "fplin.span_reduce.calls": (reduces, "count"),
        "fplin.rank.calls": (cl.get("fplin.gf2.rank", 0) + cl.get("fplin.modp.rank", 0), "count"),
        "fplin.rows_in": (adds + counts.get("fplin.rows_in", 0), "count"),
        "fplin.cols_max": (cols_max, "count"),
        "gca.bigraded_basis.calls": (cl.get("gca.bigraded_basis", 0), "count"),
        "gca.bigraded_basis.self_s": (st.get("gca.bigraded_basis", 0.0), "s"),
        "gca.bigraded_basis.distinct_ratio": (ratio(distinct, cl.get("gca.bigraded_basis", 0)), "ratio"),
        "gca.monomial_basis.calls": (cl.get("gca.monomial_basis", 0), "count"),
        "gca.monomial_basis.self_s": (st.get("gca.monomial_basis", 0.0), "s"),
        "gca.reduced_basis.calls": (cl.get("gca.reduced_basis", 0), "count"),
        "gca.reduced_basis.self_s": (st.get("gca.reduced_basis", 0.0), "s"),
        "gca.basis_monomials": (counts.get("gca.basis_monomials", 0), "count"),
        "gca.coaction_nu.calls": (cl.get("gca.coaction_nu", 0), "count"),
        "gca.coaction_nu.self_s": (st.get("gca.coaction_nu", 0.0), "s"),
        "gca.hopf_psi.calls": (cl.get("gca.hopf_psi", 0), "count"),
        "gca.hopf_psi.self_s": (st.get("gca.hopf_psi", 0.0), "s"),
        "gca.mul_monomials.calls": (counts.get("gca.mul_monomials", 0), "count"),
        "steenrod.milnor_mul.calls": (cl.get("steenrod.milnor.mul", 0), "count"),
        "steenrod.milnor_coproduct.calls": (cl.get("steenrod.milnor.coproduct", 0), "count"),
        "steenrod.milnor.self_s": (layer("steenrod.milnor"), "s"),
        "steenrod.steenrod_mul.calls": (cl.get("steenrod.adem.steenrod_mul", 0), "count"),
        "steenrod.adem.self_s": (layer("steenrod.adem"), "s"),
        "steenrod.steenrod_basis.calls": (cl.get("steenrod.steenrod_basis", 0), "count"),
        "steenrod.steenrod_basis.self_s": (st.get("steenrod.steenrod_basis", 0.0), "s"),
        "steenrod.module.self_s": (layer("steenrod.module"), "s"),
        "hochschild.complex_basis.calls": (cl.get("hochschild.complex.basis", 0), "count"),
        "hochschild.chains": (counts.get("hochschild.chains", 0), "count"),
        "hochschild.complex.self_s": (layer("hochschild.complex"), "s"),
        "hochschild.squarezero.self_s": (st.get("hochschild.squarezero", 0.0), "s"),
        "hochschild.squarezero.rank_rows": (sq_rows, "count"),
        "hochschild.closed_form.self_s": (layer("hochschild.closed_form"), "s"),
        "catalog.spectrum.calls": (cl.get("catalog.spectrum", 0), "count"),
        "catalog.spectrum.self_s": (st.get("catalog.spectrum", 0.0), "s"),
        "bokstedt.build_e2.self_s": (st.get("bokstedt.build_e2", 0.0), "s"),
        "bokstedt.apply_d.self_s": (st.get("bokstedt.apply_d", 0.0), "s"),
        "bokstedt.page_homology.self_s": (st.get("bokstedt.page_homology", 0.0), "s"),
        "bokstedt.differential_on_monomial.calls": (cl.get("bokstedt.differential_on_monomial", 0), "count"),
        "bokstedt.obstruction_scan.self_s": (st.get("bokstedt.obstruction_scan", 0.0), "s"),
        "bokstedt.simultaneous_primitives.calls": (cl.get("bokstedt.simultaneous_primitives", 0), "count"),
        "bokstedt.resolve_extensions.self_s": (st.get("bokstedt.resolve_extensions", 0.0), "s"),
        "bokstedt.budget_capped": (counts.get("bokstedt.budget_capped", 0), "count"),
        "adams.run_ss.self_s": (st.get("adams.run_ss", 0.0), "s"),
        "adams.homotopy_table.self_s": (st.get("adams.homotopy_table", 0.0), "s"),
        "cli.emit.self_s": (st.get("cli.emit", 0.0), "s"),
        "cli.output_bytes": (sum(r["out_bytes"] for r in traced), "bytes"),
    }
    total = sum(st.values())
    for name in LAYERS:
        m[f"{name}.share"] = (ratio(layer(name), total), "ratio")
    m["raw.solve_s"] = (sum(r["solve"] for r in untraced), "s")
    m["raw.setup_s"] = (sum(r["setup"] for r in untraced), "s")
    m["speed.factor"] = (statistics.median(r["speed"] for r in untraced), "ratio")
    m["trace.solve_s"] = (traced_solve, "s")
    m["trace.overhead_s"] = (traced_solve - untraced_solve, "s")
    m["trace.missing_targets"] = (len(missing), "count")
    if missing:
        print(f"tracer targets not found: {sorted(missing)}", file=sys.stderr)
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thhforge", "cli.py")):
        print(f"no thhforge sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    start = now()
    deadline = start + RUN_BUDGET_S
    sys.path.insert(0, SRC)
    import thhforge.cli  # noqa: F401  compiles the package once, outside the timed children

    checker = Checker(SRC)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = wl.materialize(args.workload, args.seed, workdir)
        if args.trace:
            untraced = run_pass(jobs, workdir, 0, False, checker, deadline)
            traced = run_pass(jobs, workdir, 1, True, checker, deadline)
            done = [untraced, traced]
            metrics = per_layer(traced, untraced)
        else:
            done = []
            t0 = now()
            while True:
                p0 = now()
                done.append(run_pass(jobs, workdir, len(done), False, checker, deadline))
                if now() - t0 >= args.seconds or now() + (now() - p0) > deadline:
                    break
            metrics = end_to_end(done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    attempted = sum(len(recs) for recs in done)
    failed = sum(1 for recs in done for r in recs if r["error"] is not None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
