"""On-demand report of the CLI rows that fail, time out or are capped.

Usage, from the root of a checkout:

    python3 perfbench/edge_rows.py > perfbench/edge_rows.json

These rows are kept out of the timed workloads so that no benchmark run
pays their timeouts, but they are recorded, not dropped: each row gets
its status (ok, failed, timeout), wall time, error message and, for
spectral sequence runs, the degree its pages were verified to.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys

import run
from workloads import Job

TIMEOUT_S = 60.0

ROWS = [
    ("ju", 3, 128, "fails: the catalog has no coaction for s(tautilde3)"),
    ("ju", 2, 128, "past the timeout"),
    ("j", 2, 60, "past the timeout"),
    ("hf", 3, 128, "page verification capped by its budget"),
]


def main() -> int:
    workdir = os.path.join(run.WORK, f"edge-{os.getpid()}")
    os.makedirs(workdir)
    rows = []
    try:
        for k, (name, p, maxdeg, expect) in enumerate(ROWS):
            job = Job(f"bokstedt:{name}@{p}/{maxdeg}",
                      ("bokstedt", "run", "--spectrum", name, "--p", str(p),
                       "--maxdeg", str(maxdeg)))
            jobdir = os.path.join(workdir, f"row{k}")
            rec = run.run_job(job, list(job.argv), jobdir, False, run.now() + TIMEOUT_S)
            status = "ok" if rec["error"] is None else (
                "timeout" if rec["error"].startswith("timeout") else "failed")
            row = {"row": job.id, "expected": expect, "status": status,
                   "seconds": round(rec["solve"], 2), "error": rec["error"]}
            if rec["result"] is not None:
                row["verified_to"] = [pg["verified_to"] for pg in rec["result"]["pages"]
                                      if "verified_to" in pg]
                row["requested_to"] = maxdeg
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(run.WORK) and not os.listdir(run.WORK):
            os.rmdir(run.WORK)
    report = {"timeout_s": TIMEOUT_S, "machine": f"{platform.machine()}, "
              f"{os.cpu_count()} CPUs, Python {platform.python_version()}", "rows": rows}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
