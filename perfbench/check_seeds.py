"""Check that the seed changes only job order and generator labels.

Usage, from the root of a checkout:

    python3 perfbench/check_seeds.py

Runs each workload once traced under seeds 1 and 2 and requires, job by
job, equal outputs (the frozen part of each result; presentation labels
do not appear in it) and equal work counts (`gca.basis_monomials`,
`hochschild.chains`).  Each child draws its own string-hash seed (unless
PYTHONHASHSEED is set), so equal results also show that outputs and
work counts do not depend on hash order.  Exits 1 on any difference.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from checks import Checker, digest, essence
from workloads import WORKLOADS, materialize

WORK_COUNTS = ("gca.basis_monomials", "hochschild.chains")
SEEDS = (1, 2)


def signature(workload: str, seed: int, checker) -> dict[str, tuple]:
    workdir = os.path.join(run.WORK, f"seeds-{os.getpid()}-{seed}")
    os.makedirs(workdir)
    try:
        jobs = materialize(workload, seed, workdir)
        recs = run.run_pass(jobs, workdir, 0, True, checker, run.now() + 600.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {}
    for rec in recs:
        if rec["error"]:
            raise SystemExit(f"{rec['job'].id} (seed {seed}): {rec['error']}")
        counts = rec["trace"]["counts"]
        out[rec["job"].id] = (digest(essence(rec["job"].id, rec["result"])),
                              *(counts.get(k, 0) for k in WORK_COUNTS))
    return out


def main() -> int:
    sys.path.insert(0, run.SRC)
    checker = Checker(run.SRC)
    same = True
    try:
        for name in WORKLOADS:
            a, b = (signature(name, seed, checker) for seed in SEEDS)
            for job in sorted(a):
                ok = a[job] == b.get(job)
                same &= ok
                counts = ", ".join(f"{k} {v}" for k, v in zip(WORK_COUNTS, a[job][1:]))
                print(f"{name:18s} {job:32s} {'same' if ok else 'DIFFERENT'}  {counts}")
    finally:
        if os.path.isdir(run.WORK) and not os.listdir(run.WORK):
            os.rmdir(run.WORK)
    print("seeds agree" if same else "seeds disagree")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
