"""Freeze the digests of every job's output into frozen.json.

Usage, from the root of a checkout:  python3 perfbench/freeze.py

Runs each workload once (seed 0), requires every job to pass its
independent check, and records the digest of each output.  Run it only
when the program's output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from checks import FROZEN, Checker, digest, essence
from workloads import WORKLOADS, materialize


def main() -> int:
    sys.path.insert(0, run.SRC)
    checker = Checker(run.SRC, frozen={})
    frozen: dict[str, str] = {}
    workdir = os.path.join(run.WORK, f"freeze-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in WORKLOADS:
            jobs = materialize(name, 0, workdir)
            deadline = run.now() + 600.0
            for rec in run.run_pass(jobs, workdir, 0, False, None, deadline):
                job = rec["job"]
                error = rec["error"] or checker.oracle(job, rec["result"])
                if error:
                    print(f"{job.id}: {error}", file=sys.stderr)
                    return 1
                frozen[job.id] = digest(essence(job.id, rec["result"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(run.WORK) and not os.listdir(run.WORK):
            os.rmdir(run.WORK)
    with open(FROZEN, "w") as fh:
        json.dump(frozen, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(frozen)} outputs into {FROZEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
