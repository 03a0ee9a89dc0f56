"""Time CLI jobs at growing scale, one child interpreter per job.

    PYTHONPATH=src python3 tools/scale.py JOB [JOB ...]

JOB is one of

  probe-N  `stability-probe --n N --m 2N`;
  ell-N    `count-split --n N --m N^2/80 --ell L` at the argmax L of
           N_{N,m}, an exact count of up to a million digits;
  grid-N   `count-split --n N --m M` at the largest m of the benchmark grid;
  tree-M   `tree --n 8 --m M --force --out tree.txt` in a temporary
           directory: the node table, its `.summary.json` and `.manifest`.

Each job runs in its own child interpreter, so each peak RSS belongs to one
job.  The child calls ``c4containers.cli.main`` in-process and times that
call alone, which leaves out the interpreter start, the package import and
the argmax that picks L.  One JSON line per job: job, argv, seconds, peak
RSS in MB and the sha256 of the job's stdout followed, for tree-M, by the
node table, the summary and the manifest.  Only ``cli.main`` and the
argmax are called, so the same script times any checkout put on
PYTHONPATH.

Not part of the test suite: ell-8000 and tree-20 take tens of seconds,
and lower M take minutes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
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
    if kind == "tree":
        return ["tree", "--n", "8", "--m", str(n), "--force", "--out", TREE_FILES[0]]
    raise SystemExit(f"unknown job {job!r}")


def run(job: str) -> dict:
    from c4containers.cli import main

    argv = job_argv(job)
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # tree --out writes here; the manifest records the relative path
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        seconds = time.perf_counter() - start
        files = [open(f).read() for f in TREE_FILES] if argv[0] == "tree" else []
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return {
        "job": job,
        "argv": " ".join(argv),
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256("".join([buf.getvalue(), *files]).encode()).hexdigest(),
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
