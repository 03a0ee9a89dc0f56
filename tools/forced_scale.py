"""Time forced container trees at n = 8 as m falls.

    PYTHONPATH=src python3 tools/forced_scale.py [M ...]

With no arguments M runs over 24, 22 and 20.  Each M runs in its own child
interpreter, so each peak RSS belongs to one tree; the child times
``build_tree(TreeParams(8, M), force=True)`` alone, which leaves out the
interpreter start, the package import and the summary.  One JSON line per
M: m, node count, build seconds, peak RSS in MB and the sha256 of the node
table (``tree_lines``) followed by the summary (``tree_json``).

Not part of the test suite: at M = 20 a build takes tens of seconds, and
lower M take minutes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time

DEFAULT_MS = (24, 22, 20)


def forced_tree(m: int) -> dict:
    from c4containers.tree import TreeParams, build_tree, tree_json, tree_lines

    start = time.perf_counter()
    tree = build_tree(TreeParams(8, m), force=True)
    seconds = time.perf_counter() - start
    text = "\n".join(tree_lines(tree)) + "\n" + tree_json(tree) + "\n"
    return {
        "m": m,
        "nodes": len(tree.nodes),
        "build_seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(forced_tree(int(argv[1]))))
        return 0
    for m in [int(a) for a in argv] or DEFAULT_MS:
        child = subprocess.run([sys.executable, __file__, "--one", str(m)],
                               capture_output=True, text=True)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        print(child.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
