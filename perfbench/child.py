"""Run one `thhforge` CLI job in this fresh interpreter and report its timings.

Usage: python3 perfbench/child.py SPEC_JSON
       python3 perfbench/child.py --probe

SPEC_JSON holds {src, argv, report, trace (path or null), job}.  The
report records when the probe loop started and ended, when
`import thhforge.cli` finished, when `cli.main` was entered and when it
returned (CLOCK_MONOTONIC, comparable across processes), its exit code
and the peak RSS of this process.  The probe runs before anything of
`thhforge` is imported, so nothing the program imports, keeps alive or
tunes can change it.  With --probe, the probe alone runs and its time
is printed.
"""

import json
import os
import resource
import sys
import time

PROBE_ROUNDS = 5


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> None:
    """A fixed pure-Python loop (tuple-keyed dict updates, a sort, a
    frozenset) like the inner loops of thhforge; its time measures how
    fast the machine runs this process just now."""
    for _ in range(PROBE_ROUNDS):
        acc: dict = {}
        for i in range(12000):
            key = (i % 97, i % 89, i % 13)
            acc[key] = acc.get(key, 0) + i
        frozenset(k for k, _ in sorted(acc.items()) if k[0] % 2)


def main() -> int:
    if sys.argv[1] == "--probe":
        t0 = now()
        probe()
        print((now() - t0) / PROBE_ROUNDS)
        return 0
    spec = json.loads(sys.argv[1])
    probe_start = now()
    probe()
    probe_end = now()
    sys.path.insert(0, spec["src"])
    import thhforge.cli as cli

    ready = now()
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"thhforge imported from {origin}, not from {spec['src']}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        import tracer as tracing  # this script's directory is on sys.path

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = now()
    if tracer is None:
        rc = cli.main(spec["argv"])
    else:
        rc = tracer.run("cli.main", cli.main, spec["argv"])
    end = now()
    if tracer is not None:
        tracer.dump(spec["trace"], spec["job"])
    with open(spec["report"], "w") as fh:
        json.dump({"rc": rc, "probe": [probe_start, probe_end], "ready": ready,
                   "start": start, "end": end,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
