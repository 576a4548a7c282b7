"""The benchmark's workloads: named lists of `thhforge` CLI jobs.

A job is one CLI invocation.  The seed only permutes job order and, for
generated presentation files, relabels and reorders the generators, so
every seed does the same work on the same degrees and primes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# generator names a seed may pick for generated presentations
NAME_POOL = ("a", "b", "c", "e", "u", "v", "w", "x", "y", "z", "g1", "g2", "h1", "h2")


@dataclass(frozen=True)
class Job:
    id: str                      # stable across seeds
    argv: tuple[str, ...]        # CLI arguments before --format/--out
    presentation: dict | None = None  # generated presentation file, for hh jobs


def _bokstedt(name: str, p: int, maxdeg: int) -> Job:
    return Job(f"bokstedt:{name}@{p}/{maxdeg}",
               ("bokstedt", "run", "--spectrum", name, "--p", str(p), "--maxdeg", str(maxdeg)))


def _hh(p: int, gens: list[tuple[str, int, str]], maxdeg: int) -> Job:
    label = "+".join(f"{kind[:4]}({deg})" for _, deg, kind in gens)
    pres = {"p": p, "max_degree": maxdeg,
            "generators": [{"name": n, "degree": d, "kind": k} for n, d, k in gens]}
    return Job(f"hh:{label}@{p}/{maxdeg}",
               ("hh", "compute", "--spectrum", "{presentation}", "--p", str(p),
                "--maxdeg", str(maxdeg)),
               pres)


def _kernel(sub: str) -> Job:
    return Job(f"steenrod-kernel:{sub}",
               ("steenrod", "kernel", "--subalgebra", sub, "--ideal", "Sq1,Sq2Sq3",
                "--target-ideal", "Sq1,Sq2", "--map", "Sq4"))


WORKLOADS: dict[str, list[Job]] = {
    "odd-pages": [
        _bokstedt("hz", 3, 96), _bokstedt("hf", 5, 96), _bokstedt("ell", 3, 128),
        _bokstedt("ju", 3, 96), _bokstedt("hf", 3, 48),
    ],
    "mod2-scan": [_bokstedt("ju", 2, 96)] + [
        _bokstedt(name, 2, 128) for name in ("hf", "hz", "ku", "ko", "tmf", "bp")
    ],
    "hh-complex": [
        _hh(2, [("x", 2, "polynomial")], 20),
        _hh(3, [("x", 2, "polynomial")], 20),
        _hh(3, [("x", 2, "polynomial"), ("y", 3, "exterior")], 16),
        _hh(3, [("x", 1, "exterior"), ("y", 4, "polynomial")], 16),
        _bokstedt("j", 2, 44),
    ],
    "steenrod-modules": [
        Job("steenrod-basis:A4/80",
            ("steenrod", "basis", "--subalgebra", "A4", "--degree", "80")),
        _kernel("A3"),
        _kernel("A2"),
        Job("steenrod-quotient:A3",
            ("steenrod", "quotient", "--subalgebra", "A3", "--ideal", "Sq1,Sq2")),
        Job("adams:thh-ku-mod2/128", ("adams", "run", "--target", "thh-ku-mod2", "--maxdeg", "128")),
        Job("adams:thh-ko-y/128", ("adams", "run", "--target", "thh-ko-y", "--maxdeg", "128")),
    ],
}


def relabel(pres: dict, rng: random.Random) -> dict:
    """Same presentation with fresh generator names in a shuffled order."""
    gens = [dict(g) for g in pres["generators"]]
    names = rng.sample(NAME_POOL, len(gens))
    for g, n in zip(gens, names):
        g["name"] = n
    rng.shuffle(gens)
    return {**pres, "generators": gens}


def materialize(workload: str, seed: int, workdir: str) -> list[tuple[Job, list[str]]]:
    """Jobs of one workload in seed order, each with its CLI argv; writes
    the generated presentation files into workdir."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = list(WORKLOADS[workload])
    rng.shuffle(jobs)
    out = []
    for k, job in enumerate(jobs):
        argv = list(job.argv)
        if job.presentation is not None:
            path = os.path.join(workdir, f"presentation{k}.json")
            with open(path, "w") as fh:
                json.dump(relabel(job.presentation, rng), fh)
            argv = [path if a == "{presentation}" else a for a in argv]
        out.append((job, argv))
    return out
