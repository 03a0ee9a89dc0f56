"""Time CLI and engine jobs at growing scale, one child interpreter per job.

    PYTHONPATH=src python3 tools/scale.py JOB [JOB ...]

JOB is one of

  probe-N  `stability-probe --n N --m 2N`;
  ell-N    `count-split --n N --m N^2/80 --ell L` at the argmax L of
           N_{N,m}, an exact count of up to a million digits;
  grid-N   `count-split --n N --m M` at the largest m of the benchmark grid;
  count-M  `enumerate --n 8 --m M`, one exact count of F_{8,M};
  tree-M   `tree --n 8 --m M --force --out tree.txt` in a temporary
           directory: the node table, its `.summary.json` and `.manifest`;
  engine-N `build_container` then `replay_container` on H_2 of
           `complete_pregraph(N)` at m = N + N//5, b = 2, r = 1 and K the
           exact min_K, for the first member the deletion sampler accepts
           at seed 0 (delta = 0.1);
  sampler-N  `sampler --n N --m 2N --runs 20 --max-attempts 10 --seed 0`,
           the benchmark's sampler row at N = 200;
  hypergraphs-N  `build_constraint_hypergraphs(complete_pregraph(N))`, whose
           output is every (constraint, multiplicity) item of H_0, H_1 and
           H_2, each in insertion order;
  containers-N  `containers --input h.txt --K K --b 2 --m N//4 --r 1` in a
           temporary directory, on a (1,2)-uniform H with N vertices and 2N
           distinct constraints drawn with `random.Random(N)`, and K the
           smallest integer at or above min_K.  The CLI refuses N > 20.

Each job runs in its own child interpreter, so each peak RSS belongs to
one job.  The child calls ``c4containers.cli.main`` in-process and times
that call alone, which leaves out the interpreter start, the package
import, the argmax that picks L and the writing of h.txt; engine-N times
the build and the replay alone, after H_2, K and the member are made, and
hypergraphs-N the build alone, after the pregraph is made.
One JSON line per job: job, argv, seconds, peak RSS in MB and the sha256
of the job's stdout followed, for tree-M, by the node table, the summary
and the manifest; for engine-N the output is one "s0 s1 cylinder" line
for the build and one for the replay, and for hypergraphs-N one
"i mult | a0 vertices | a1 vertices" line per item of H_i.  Only public
functions are called, so the same script times any checkout put on
PYTHONPATH.

Not part of the test suite: ell-8000 and tree-20 take tens of seconds,
and lower M take minutes.  On a 2-core x86_64 host engine-16 (5,460
constraints) takes 0.03-0.04 s at 43 MB and engine-20 (14,535)
0.10-0.11 s at 55 MB, containers-20 0.03-0.05 s at 41 MB peak RSS,
grid-1000000 0.01 s and grid-10000000 0.06-0.07 s, both at 36 MB,
sampler-200 0.03-0.04 s and sampler-2000 0.17-0.23 s; hypergraphs-16
(5,460 constraints in H_2) 0.01 s at 37 MB, hypergraphs-20 0.02-0.04 s at
40 MB and hypergraphs-30 (82,215 in H_2) 0.18 s at 64 MB; count-26
0.01 s at 35 MB and count-14 0.09-0.10 s at 38 MB, since one count builds
only the F_7 layers its M reaches; tree-24 0.8-1.5 s at 40 MB, tree-22 3.2-5.7 s at 47 MB,
tree-20 12-19 s at 68 MB and tree-16 94 s at 211 MB.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

TREE_FILES = ("tree.txt", "tree.txt.summary.json", "tree.txt.manifest")


def job_argv(job: str) -> list[str]:
    from c4containers import argmax_n_nm, log_spaced_m

    kind, n = job.split("-")
    n = int(n)
    if kind == "probe":
        return ["stability-probe", "--n", str(n), "--m", str(2 * n)]
    if kind == "ell":
        m = n * n // 80
        return ["count-split", "--n", str(n), "--m", str(m), "--ell", str(argmax_n_nm(n, m))]
    if kind == "grid":
        return ["count-split", "--n", str(n), "--m", str(log_spaced_m(n, 6)[-1])]
    if kind == "count":
        return ["enumerate", "--n", "8", "--m", str(n)]
    if kind == "tree":
        return ["tree", "--n", "8", "--m", str(n), "--force", "--out", TREE_FILES[0]]
    if kind == "sampler":
        return ["sampler", "--n", str(n), "--m", str(2 * n), "--runs", "20", "--max-attempts", "10",
                "--seed", "0"]
    if kind == "containers":
        return ["containers", "--input", "h.txt", "--K", str(containers_input(n)),
                "--b", "2", "--m", str(n // 4), "--r", "1"]
    raise SystemExit(f"unknown job {job!r}")


def containers_input(n: int) -> int:
    """Write the seeded (1,2)-uniform H on n vertices to h.txt; return its K."""
    from c4containers import Constraint, UniformHypergraph, check_container_hypothesis, normalize_parameters

    rng = random.Random(n)
    h = UniformHypergraph(1, 2, n)
    while h.support_size() < 2 * n:
        a0, *a1 = rng.sample(range(n), 3)
        c = Constraint.make((a0,), a1)
        if not h.multiplicity(c):
            h.add(c)
    with open("h.txt", "w") as f:
        f.write(h.to_text())
    return math.ceil(check_container_hypothesis(h, 1, *normalize_parameters(2, n // 4, n), 1).min_k)


def engine(n: int) -> tuple[str, str, float]:
    from c4containers import (build_constraint_hypergraphs, build_container,
                              check_container_hypothesis, complete_pregraph,
                              normalize_parameters, replay_container, sample_c4free_by_deletion)

    m = n + n // 5
    system = build_constraint_hypergraphs(complete_pregraph(n))
    h = system.h2
    b, m2 = normalize_parameters(2, m, h.n_vertices)
    k = check_container_hypothesis(h, 1, b, m2, 1).min_k
    sample = sample_c4free_by_deletion(n, m, 0.1, 0, max_attempts=1000)
    if not sample.accepted:
        raise SystemExit(f"no member of F_{{{n},{m}}} drawn")
    bits = [int(sample.graph.has_edge(u, v)) for u, v in system.ground]
    start = time.perf_counter()
    built = build_container(h, k, 2, m, 1, bits)
    again = replay_container(h, k, 2, m, 1, built.fingerprint)
    seconds = time.perf_counter() - start
    out = "".join(f"{r.fingerprint.s0} {r.fingerprint.s1} {r.cylinder.to_string()}\n" for r in (built, again))
    return f"build_container+replay_container H_2(K_{n}) m={m} K={k}", out, seconds


def hypergraphs(n: int) -> tuple[str, str, float]:
    from c4containers import build_constraint_hypergraphs, complete_pregraph

    p = complete_pregraph(n)
    start = time.perf_counter()
    system = build_constraint_hypergraphs(p)
    seconds = time.perf_counter() - start
    out = "".join(f"{i} {mult} | {' '.join(map(str, c.a0))} | {' '.join(map(str, c.a1))}\n"
                  for i, h in enumerate(system) for c, mult in h.constraints())
    return f"build_constraint_hypergraphs(complete_pregraph({n}))", out, seconds


def run(job: str) -> dict:
    kind, n = job.split("-")
    if kind in ("engine", "hypergraphs"):
        argv, out, seconds = (engine if kind == "engine" else hypergraphs)(int(n))
        return record(job, argv, seconds, out)
    from c4containers.cli import main

    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # tree --out writes here (the manifest records the relative path); h.txt goes here
        argv = job_argv(job)
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        seconds = time.perf_counter() - start
        files = [open(f).read() for f in TREE_FILES] if argv[0] == "tree" else []
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return record(job, " ".join(argv), seconds, "".join([buf.getvalue(), *files]))


def record(job: str, argv: str, seconds: float, output: str) -> dict:
    return {
        "job": job,
        "argv": argv,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256(output.encode()).hexdigest(),
    }


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(__doc__)
    if argv[:1] == ["--one"]:
        print(json.dumps(run(argv[1])))
        return 0
    for job in argv:
        child = subprocess.run([sys.executable, __file__, "--one", job],
                               capture_output=True, text=True)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        print(child.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
