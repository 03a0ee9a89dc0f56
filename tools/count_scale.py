"""Time `count-split` on its largest exact counts and on one n = 10^6 grid row.

    PYTHONPATH=src python3 tools/count_scale.py [JOB ...]

JOB is one of ell-2000, ell-4000, ell-8000 and grid-1000000; with no
arguments all four run.  An ell-N job prints the exact count
`count-split --n N --m N^2/80 --ell L` at the argmax L of N_{N,m}, a count
of up to a million digits; the grid job prints the row of
`count-split --n 1000000 --m M` at the largest m of the benchmark grid.
Each job runs in its own child interpreter, so each peak RSS belongs to one
job; the child calls ``c4containers.cli.main`` in-process and times that
call alone, which leaves out the interpreter start, the package import and
the argmax that picks L.  One JSON line per job: job, argv, seconds, peak
RSS in MB and the sha256 of the job's stdout.

Not part of the test suite: ell-8000 takes seconds to a minute, depending
on the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time

DEFAULT_JOBS = ("ell-2000", "ell-4000", "ell-8000", "grid-1000000")


def job_argv(job: str) -> list[str]:
    from c4containers import argmax_n_nm, log_spaced_m

    kind, n = job.split("-")
    n = int(n)
    if kind == "ell":
        m = n * n // 80
        return ["count-split", "--n", str(n), "--m", str(m), "--ell", str(argmax_n_nm(n, m))]
    if kind == "grid":
        return ["count-split", "--n", str(n), "--m", str(log_spaced_m(n, 6)[-1])]
    raise SystemExit(f"unknown job {job!r}")


def run(job: str) -> dict:
    from c4containers.cli import main

    argv = job_argv(job)
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return {
        "job": job,
        "argv": " ".join(argv),
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(run(argv[1])))
        return 0
    for job in argv or DEFAULT_JOBS:
        child = subprocess.run([sys.executable, __file__, "--one", job],
                               capture_output=True, text=True)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        print(child.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
