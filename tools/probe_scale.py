"""Time `stability-probe --n N --m 2N` as n grows.

    PYTHONPATH=src python3 tools/probe_scale.py [N ...]

With no arguments N runs over 24, 40, 64, 96 and 128.  Each N runs in its
own child interpreter, so each peak RSS belongs to one probe; the child
calls ``c4containers.cli.main`` in-process and times that call alone, which
leaves out the interpreter start and the package import.  One JSON line per
N: n, seconds, peak RSS in MB and the sha256 of the probe's stdout.

Not part of the test suite: at N = 128 a probe takes seconds to minutes,
depending on the code under test.
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

DEFAULT_SIZES = (24, 40, 64, 96, 128)


def probe(n: int) -> dict:
    from c4containers.cli import main

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(["stability-probe", "--n", str(n), "--m", str(2 * n)])
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"stability-probe --n {n} exited with {code}")
    return {
        "n": n,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(probe(int(argv[1]))))
        return 0
    for n in [int(a) for a in argv] or DEFAULT_SIZES:
        child = subprocess.run([sys.executable, __file__, "--one", str(n)],
                               capture_output=True, text=True)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        print(child.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
