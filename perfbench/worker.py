"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round with the checkout's ``src`` on
PYTHONPATH and a temporary working directory.  It imports c4containers,
generates the workload's inputs from the seed, runs every job once through
the public CLI (``c4containers.cli.main``) or the library's public functions,
checks each output, and writes a JSON result file with each job's clock
seconds and its reported seconds: on a calibrated workload, clock seconds
scaled to the reference CPU speed (see ``calibrate``), otherwise the clock
seconds again.  Each round pays the import and the exhaustive scan again,
as a CLI user does on every invocation, and no ``lru_cache`` survives from
an earlier round.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

SAMPLER_DELTA = 0.1
# (n, member edges m, members, members vary with the seed).  The n = 13
# members are the same at every seed, so the slowest job (the largest
# instance) is one fixed instance; the cheaper n = 10 members change with
# the seed, so every seed also runs the engine on members it has not seen.
CONTAINERS = ((10, 10, 8, True), (13, 15, 2, False))
STABILITY_SIZES = (12, 14, 16)
GRID_SIZES = (10**4, 10**5, 10**6)
GRID_POINTS = 6
# (n, m) for `count-split --ell`; the last two overflow str(int) at the seed
ELL_JOBS = ((500, 2500), (1000, 10000), (2000, 50000))
PHI_POINTS = ((50, 200, 0.1), (500, 5000, 0.05), (5000, 200000, 0.01))
SAMPLER_ARGS = ("--n", "200", "--m", "400", "--runs", "20", "--max-attempts", "10")

# Speed calibration.  On a shared host the CPU speed a worker gets drifts by
# 10 to 40 percent over tens of seconds, which hides any regression smaller
# than that.  On a calibrated workload calibrate() times a fixed pure-Python
# kernel between jobs, at least every CALIBRATE_EVERY_S of job time, and a
# job's time is scaled by REFERENCE_CALIBRATION_S over the mean of the
# calibrations around it, which gives seconds on a host where the kernel
# takes REFERENCE_CALIBRATION_S.  Whether a workload is calibrated is fixed
# in WORKLOADS, so its times keep one unit however fast the program gets.
REFERENCE_CALIBRATION_S = 0.08
CALIBRATE_EVERY_S = 1.0


def derived_seed(seed: int, tag: str) -> int:
    digest = hashlib.blake2b(f"perfbench/{seed}/{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class JobError(Exception):
    """The program returned a non-zero exit code."""


@dataclass
class Job:
    name: str
    spec: object  # JSON-ready description of the inputs
    call: Callable[[], str]  # runs the program, returns its output text
    check: Callable[[str], Optional[str]]  # None or what is wrong


def run_cli(argv: list[str], files: tuple[str, ...], ok_codes: tuple[int, ...]) -> str:
    from c4containers import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code not in ok_codes:
        raise JobError(f"exit code {code}")
    return buf.getvalue() + "".join(f"--- {f}\n" + Path(f).read_text() for f in files)


def cli_job(name: str, argv: list[str], check, files: tuple[str, ...] = (),
            ok_codes: tuple[int, ...] = (0,)) -> Job:
    return Job(name, argv, lambda: run_cli(argv, files, ok_codes), check)


# -- tree-n8 -------------------------------------------------------------------


def check_tree(text: str) -> Optional[str]:
    stdout = text.split("--- ", 1)[0].split()
    tail = [ln for ln in text.splitlines() if ln.startswith("# covered=")]
    covered, total = (int(f.split("=")[1]) for f in stdout[-2:])
    if covered != total:
        return f"covered={covered} total={total}"
    if tail != [f"# covered={covered} total={total}"]:
        return "node table lacks the coverage line"
    return None


def tree_jobs(seed: int) -> list[Job]:
    out = "tree.txt"
    files = (out, f"{out}.manifest", f"{out}.summary.json")
    argv = ["tree", "--n", "8", "--m", "26", "--out", out]
    # exit code 1 means incomplete coverage: a wrong output, which check_tree reports
    return [cli_job("tree-n8", argv, check_tree, files, ok_codes=(0, 1))]


# -- stability -----------------------------------------------------------------


def stability_jobs(seed: int) -> list[Job]:
    return [
        cli_job(f"stability-n{n}", ["stability-probe", "--n", str(n), "--m", str(2 * n)],
                _stability_check(n))
        for n in STABILITY_SIZES
    ]


def _stability_check(n: int):
    def check(text: str) -> Optional[str]:
        report = json.loads(text)
        if (report["n"], report["params"]["m"]) != (n, 2 * n):
            return f"report for n={report['n']}, m={report['params']['m']}"
        return None
    return check


# -- containers ----------------------------------------------------------------


def container_jobs(seed: int) -> list[Job]:
    """build_container then replay_container on H_2 of the complete pregraph,
    for deletion-sampler members; K is the exact min_K at b = 2, r = 1."""
    from c4containers import (build_constraint_hypergraphs, check_container_hypothesis,
                              complete_pregraph, engine, sample_c4free_by_deletion)

    jobs = []
    for n, m, count, seeded in CONTAINERS:
        system = build_constraint_hypergraphs(complete_pregraph(n))
        h = system.h2
        b, mm = engine.normalize_parameters(2, m, h.n_vertices)
        k = check_container_hypothesis(h, 1, b, mm, 1).min_k
        members, tries = [], 0
        while len(members) < count:
            tries += 1
            sample = sample_c4free_by_deletion(
                n, m, SAMPLER_DELTA, derived_seed(seed if seeded else 0, f"member/{n}/{tries}"), max_attempts=50
            )
            if sample.accepted:
                g = sample.graph
                members.append("".join(str(int(g.has_edge(u, v))) for u, v in system.ground))
        for i, bits in enumerate(members):
            jobs.append(Job(
                f"containers-n{n}-{i}",
                {"n": n, "m": m, "K": str(k), "member": bits},
                _container_call(h, k, m, bits),
                _container_check(bits),
            ))
    return jobs


def _container_call(h, k, m, bits: str):
    def call() -> str:
        from c4containers import engine

        assignment = [int(c) for c in bits]
        built = engine.build_container(h, k, 2, m, 1, assignment)
        again = engine.replay_container(h, k, 2, m, 1, built.fingerprint)
        return "\n".join(
            f"{r.fingerprint.s0} {r.fingerprint.s1} {r.cylinder.to_string()}"
            for r in (built, again)
        ) + "\n"
    return call


def _container_check(bits: str):
    def check(text: str) -> Optional[str]:
        built, again = text.splitlines()
        cylinder = built.rsplit(" ", 1)[1]
        if len(cylinder) != len(bits):
            return "cylinder length differs from the ground set"
        if any(c != "*" and c != b for c, b in zip(cylinder, bits)):
            return "cylinder does not contain its member"
        if again != built:
            return "replay_container did not reproduce the container"
        return None
    return check


# -- counts --------------------------------------------------------------------


def count_jobs(seed: int) -> list[Job]:
    from c4containers import argmax_n_nm, log_spaced_m

    jobs = []
    for n in GRID_SIZES:
        for m in log_spaced_m(n, GRID_POINTS):
            argv = ["count-split", "--n", str(n), "--m", str(m)]
            jobs.append(cli_job(f"grid-{n}-{m}", argv, _grid_check(n, m)))
    for n, m in ELL_JOBS:
        ell = argmax_n_nm(n, m)
        argv = ["count-split", "--n", str(n), "--m", str(m), "--ell", str(ell)]
        jobs.append(cli_job(f"ell-{n}-{m}", argv, _ell_check(n, m, ell)))
    for n, m, p in PHI_POINTS:
        for mode in ("lower_bound", "upper_bound"):
            argv = ["phi", "--n", str(n), "--m", str(m), "--p", str(p), "--mode", mode]
            jobs.append(cli_job(f"phi-{n}-{m}-{mode}", argv, _phi_check(n, m, mode)))
    argv = ["sampler", *SAMPLER_ARGS, "--seed", str(derived_seed(seed, "sampler"))]
    jobs.append(cli_job("sampler", argv, _sampler_check(200, 400, 20)))
    return jobs


def _rows(text: str) -> list[list[str]]:
    return [ln.split(",") for ln in text.splitlines() if ln and ln[0].isdigit()]


def _grid_check(n: int, m: int):
    def check(text: str) -> Optional[str]:
        rows = _rows(text)
        if len(rows) != 1 or rows[0][:2] != [str(n), str(m)]:
            return "expected one grid row for this (n, m)"
        star, lower, upper = (float(x) for x in rows[0][4:7])
        if not star >= max(lower, upper):
            return "logN at ell_star is below a tail value"
        return None
    return check


def _ell_check(n: int, m: int, ell: int):
    def check(text: str) -> Optional[str]:
        want = math.comb(ell * (n - ell), m - math.comb(ell, 2))
        digits = text.strip()
        got = 0  # chunked, because int(str) refuses more than 4300 digits
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            got = got * 10 ** len(chunk) + int(chunk)
        return None if got == want else "N_{n,m}(ell) differs from the binomial"
    return check


def _phi_check(n: int, m: int, mode: str):
    def check(text: str) -> Optional[str]:
        rows = _rows(text)
        if len(rows) != 1 or rows[0][:2] != [str(n), str(m)] or rows[0][3] != mode:
            return "expected one phi row for this (n, m, mode)"
        return None if math.isfinite(float(rows[0][4])) else "log_phi is not finite"
    return check


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """(n, per-vertex neighbour bitmasks) for graph6 with n <= 258047."""
    if text[0] == "~":
        n = sum((ord(ch) - 63) << s for ch, s in zip(text[1:4], (12, 6, 0)))
        body = text[4:]
    else:
        n, body = ord(text[0]) - 63, text[1:]
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    adj = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k] == "1":
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return n, adj


def _sampler_check(n: int, m: int, runs: int):
    def check(text: str) -> Optional[str]:
        rows = _rows(text)
        if len(rows) != runs:
            return f"expected {runs} sampler rows, got {len(rows)}"
        for row in rows:
            if row[2] == "0":
                continue
            gn, adj = decode_graph6(row[6])
            if gn != n or sum(a.bit_count() for a in adj) != 2 * m:
                return f"run {row[0]}: graph is not on {n} vertices with {m} edges"
            for u in range(n):
                for v in range(u + 1, n):
                    if (adj[u] & adj[v]).bit_count() > 1:
                        return f"run {row[0]}: vertices {u}, {v} have two common neighbours"
        return None
    return check


# name -> (jobs for a seed, calibrated).  tree-n8 reports clock seconds:
# its one job runs for about a minute of numpy scanning, which the kernel
# timed at its two ends does not follow (scaled times spread more than clock
# times there).
WORKLOADS = {
    "tree-n8": (tree_jobs, False),
    "stability-containers-counts": (
        lambda seed: stability_jobs(seed) + container_jobs(seed) + count_jobs(seed),
        True,
    ),
}


# -- speed calibration ---------------------------------------------------------


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def calibrate() -> float:
    """Seconds the calibration kernel takes now.  It mixes what the package
    spends its time on: tuple keys in dicts and sets, small objects, integer
    arithmetic and sorting.  It keeps at most 4096 keys, so it does not move
    peak RSS, and the collector is off so that the program's live heap does
    not change what it costs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        index: dict = {}
        acc = 0
        for i in range(50_000):
            a, b, x = i % 37, (i * 7) % 29, (i * 13) % 23
            key = ((a & 15, b & 15), (x & 15,))
            counts[key] = counts.get(key, 0) + 1
            bucket = index.setdefault(a & 15, set())
            bucket.add(key)
            if (a ^ b ^ x) & 7 == 0:
                bucket.discard(key)
            pair = _Pair(a, b)
            acc += (pair.a * 1_000_003 + pair.b) % 97 + len(sorted((x, a, b)))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reported(seconds: float, before: Optional[float], after: Optional[float]) -> float:
    """seconds measured between two calibrations, at the reference speed;
    clock seconds when the workload is not calibrated (both None)."""
    if before is None:
        return seconds
    return seconds * REFERENCE_CALIBRATION_S / ((before + after) / 2)


# -- the round -----------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process started")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import c4containers

    make_jobs, calibrated = WORKLOADS[args.workload]
    jobs = make_jobs(args.seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    calibration = calibrate() if calibrated else None
    result: dict = {
        "setup_s": setup_s,
        "setup_reported_s": reported(setup_s, calibration, calibration),
        "package": c4containers.__file__,
    }
    if not args.setup_only:
        result.update(run_jobs(jobs, args.trace, calibration))
    Path(args.result).write_text(json.dumps(result))
    return 0


def run_jobs(jobs: list[Job], trace: int, calibration: Optional[float]) -> dict:
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    records = []
    pending = []  # records waiting for the calibration after them
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        error = problem = None
        text = ""
        start = time.perf_counter()
        try:
            text = job.call()
        except Exception as exc:  # a crashing job is a failed job, not a failed round
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is None:
            try:
                problem = job.check(text)
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
        records.append({
            "name": job.name,
            "spec": hashlib.sha256(json.dumps(job.spec, sort_keys=True).encode()).hexdigest(),
            "seconds": seconds,
            "error": error,
            "problem": problem,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        })
        pending.append(records[-1])
        if job is jobs[-1] or sum(r["seconds"] for r in pending) >= CALIBRATE_EVERY_S:
            after = None if calibration is None else calibrate()
            for rec in pending:
                rec["reported_s"] = reported(rec["seconds"], calibration, after)
            pending, calibration = [], after
    out = {
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
        out["enumerated"] = sorted(tracer.enumerated)
    return out


if __name__ == "__main__":
    sys.exit(main())
