"""Correctness checks for benchmark job outputs.

Each job's JSON envelope is checked against an oracle that does not run
the code path being timed where one exists (golden fixtures, closed
forms, the product formula for A(n)), and every job is also compared
with a digest of its output frozen in `frozen.json`.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN = os.path.join(HERE, "frozen.json")

A2_KERNEL_RANK = 17


def an_dimension(n: int, degree: int) -> int:
    """dim A(n) in one degree: the Milnor basis Sq(r_1, ..., r_{n+1}) with
    r_i < 2^(n+2-i) and |xi_i| = 2^i - 1 gives the Poincare series
    prod_i (1 - t^((2^i - 1) 2^(n+2-i))) / (1 - t^(2^i - 1))."""
    series = [1] + [0] * degree
    for i in range(1, n + 2):
        step, count = 2 ** i - 1, 2 ** (n + 2 - i)
        new = [0] * (degree + 1)
        for k, c in enumerate(series):
            for r in range(count):
                if k + r * step > degree:
                    break
                new[k + r * step] += c
        series = new
    return series[degree]


def essence(job_id: str, result) -> object:
    """The part of a result that is frozen: the mathematics, not the
    bookkeeping (page notes and verification bounds are metrics)."""
    if job_id.startswith("bokstedt:"):
        return {
            "e2": result["e2"],
            "einf": result["einf"],
            "collapse": result["collapse"]["method"],
            "nonflat": result["nonflat"],
            "abutment": result["abutment"],
        }
    return result


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verified_degree(job_id: str, result) -> int:
    """Degree to which a job's answer was established: for the spectral
    sequence, each page's verified_to plus the collapse scan bound; for
    the other commands, the top degree present in the output."""
    if job_id.startswith("bokstedt:"):
        pages = sum(pg.get("verified_to", 0) for pg in result["pages"])
        return pages + result["collapse"].get("scanned_to", 0)
    if job_id.startswith("hh:"):
        return max(int(k.split(",")[1]) for k in result)
    if job_id.startswith("adams:"):
        return max(int(t) - int(s) for s, t in (k.split(",") for k in result["einf"]))
    if job_id.startswith("steenrod-basis:"):
        return int(job_id.rsplit("/", 1)[1]) if result else 0
    series = result["kernel_series"] if "kernel_series" in result else result["series"]
    return max(int(d) for d in series)


class Checker:
    def __init__(self, src: str, frozen: dict | None = None) -> None:
        with open(os.path.join(src, "thhforge", "fixtures", "golden.json")) as fh:
            golden = json.load(fh)
        self.thh = {(e["spectrum"], e["p"]): e for e in golden["thh"]}
        self.adams = {e["target"]: e for e in golden["adams"]}
        if frozen is None:
            with open(FROZEN) as fh:
                frozen = json.load(fh)
        self.frozen = frozen
        self._closed: dict[str, dict] = {}

    def _closed_form(self, pres: dict) -> dict:
        """Closed-form HH dims of a free presentation, keyed "q,t"."""
        from thhforge.gca import AlgebraPresentation, GeneratorSpec
        from thhforge.hochschild import closed_form_hh, presentation_dims_internal

        t = pres["max_degree"]
        gens = [GeneratorSpec(g["name"], g["degree"], g["kind"]) for g in pres["generators"]]
        cf, _ = closed_form_hh(AlgebraPresentation(pres["p"], gens, 2 * t), 2 * t)
        return {f"{q},{tt}": v for (q, tt), v in presentation_dims_internal(cf, t).items() if v}

    def check(self, job, result) -> str | None:
        """None if the result is right, else the reason it is not."""
        return self.oracle(job, result) or self.against_frozen(job, result)

    def oracle(self, job, result) -> str | None:
        """The independent check of this job, if it has one."""
        kind, _, spec = job.id.partition(":")
        if kind == "bokstedt":
            name, rest = spec.split("@")
            gold = self.thh.get((name, int(rest.split("/")[0])))
            if gold is not None:
                top = min(gold["max_degree"], result["max_degree"])
                series = (result["abutment"] or {}).get("series", [])
                if series[: top + 1] != gold["series"][: top + 1]:
                    return f"series differs from golden through degree {top}"
        elif kind == "hh":
            if job.id not in self._closed:
                self._closed[job.id] = self._closed_form(job.presentation)
            if result != self._closed[job.id]:
                return "dims differ from the closed form"
        elif kind == "steenrod-basis":
            sub, degree = spec.split("/")
            expected = an_dimension(int(sub[1:]), int(degree))
            if len(result) != expected:
                return f"basis size {len(result)}, product formula gives {expected}"
        elif job.id == "steenrod-kernel:A2":
            if result["kernel_rank"] != A2_KERNEL_RANK:
                return f"kernel rank {result['kernel_rank']}, expected {A2_KERNEL_RANK}"
        elif kind == "adams":
            gold = self.adams[result["target"]]["einf"]
            got = {k: v for k, v in result["einf"].items()
                   if int(k.split(",")[0]) <= 30
                   and int(k.split(",")[1]) - int(k.split(",")[0]) <= 60}
            if got != gold:
                return "E-infinity differs from golden at s <= 30, stem <= 60"
        return None

    def against_frozen(self, job, result) -> str | None:
        frozen = self.frozen.get(job.id)
        if frozen is None:
            return "no frozen output for this job"
        if digest(essence(job.id, result)) != frozen:
            return "output differs from the frozen output"
        return None
