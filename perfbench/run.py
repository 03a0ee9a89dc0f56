"""Seeded benchmark for the c4containers CLI and library.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  Every round of a workload starts
``worker.py`` in a fresh interpreter with a temporary working directory
under ``.perfbench_tmp/``, one process at a time.  Rounds repeat until T
seconds have passed (at least one).

With ``--trace 0`` the run first starts SETUP_SAMPLES workers that only
import the package and build the inputs, and the last stdout line carries
the end-to-end metrics, each a median: setup_s over all workers, wall_s
(the summed job times of a round) over rounds, job_max_s as the largest
per-job median, and peak_rss_mb over rounds.  On a calibrated workload
times are scaled to the reference CPU speed by the worker's calibration,
on the others they are clock seconds; the clock seconds of each round are
on the line before.  With ``--trace 1`` the run alternates traced
and untraced rounds, traced first, and reports the per-layer metrics of the
traced rounds (clock seconds) plus the tracing overhead (traced minus
untraced wall_s).  Every job's output is checked: ``attempted``/``failed``
count jobs that raised, exited non-zero or failed a check, and ``correct``
is false when any output was wrong, differed between rounds, or differed
from reference.json for a job whose inputs equal those the reference was
recorded with.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 10
RUN_LIMIT_S = 175  # a run must end within 180 s


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, tmp_base: Path, started: float, setup_only: bool = False, trace: int = 0) -> dict:
    """Run one worker to completion in its own temporary directory."""
    work = Path(tempfile.mkdtemp(dir=tmp_base))
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(trace), "--result", "result.json"]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        remaining = RUN_LIMIT_S - (now() - started)
        t0 = now()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=work, env=env,
                              capture_output=True, text=True, timeout=max(remaining, 1))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    package = Path(result["package"]).resolve()
    if (ROOT / "src").resolve() not in package.parents:
        raise RuntimeError(f"imported c4containers from {package}, not from this checkout")
    return result


def wall(rnd: dict, key: str = "reported_s") -> float:
    return sum(job[key] for job in rnd["jobs"])


def verify(rounds: list[dict], workload: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all rounds.  problems name wrong
    outputs; a job that raised is one too, unless reference.json pins it,
    for the same inputs, with a null digest (a known crash)."""
    pinned = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.exists() else {}
    attempted = failed = 0
    problems: list[str] = []
    first = {job["name"]: job for job in rounds[0]["jobs"]}
    for rnd in rounds:
        for job in rnd["jobs"]:
            attempted += 1
            name = job["name"]
            ref = pinned.get(name)
            if ref is not None and ref["spec"] != job["spec"]:
                ref = None  # pinned for other inputs (a seeded job at another seed)
            failed += bool(job["error"] or job["problem"])
            if job["error"]:
                # only a crash the reference pins (digest null) is a known defect
                if ref is None or ref["digest"] is not None:
                    problems.append(f"{name}: raised {job['error'][:200]}")
            elif job["problem"]:
                problems.append(f"{name}: {job['problem']}")
            elif job["digest"] != first[name]["digest"]:
                problems.append(f"{name}: output differs between rounds")
            elif ref is not None and ref["digest"] not in (None, job["digest"]):
                problems.append(f"{name}: output differs from the reference")
    return attempted, failed, problems


def record_reference(rounds: list[dict], workload: str) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[workload] = {
        job["name"]: {"spec": job["spec"], "digest": None if job["error"] else job["digest"]}
        for job in rounds[0]["jobs"]
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's output digests in reference.json")
    args = ap.parse_args()

    if not (ROOT / "src" / "c4containers" / "__init__.py").is_file():
        print(f"error: no c4containers sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp_base = ROOT / ".perfbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    started = now()
    try:
        setup_runs = [] if args.trace else [
            spawn(args, tmp_base, started, setup_only=True) for _ in range(SETUP_SAMPLES)
        ]
        plain: list[dict] = []
        traced: list[dict] = []
        measure_start = now()
        while not plain or now() - measure_start < args.seconds:
            if args.trace and len(traced) == len(plain):
                traced.append(spawn(args, tmp_base, started, trace=1))
            else:
                plain.append(spawn(args, tmp_base, started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_base, ignore_errors=True)

    rounds = plain + traced
    if args.record_reference:
        record_reference(plain, args.workload)
    attempted, failed, problems = verify(rounds, args.workload)
    for line in problems:
        print(f"wrong output: {line}", file=sys.stderr)
    errors = sorted({f"{j['name']}: {j['error']}" for r in rounds for j in r["jobs"] if j["error"]})
    for line in errors:
        print(f"failed job: {line[:200]}", file=sys.stderr)

    med = statistics.median
    jobs = len(plain[0]["jobs"])
    setup_rounds = setup_runs + plain
    if args.trace:
        import tracing

        per_round = [tracing.layer_metrics(r["spans"], r["counts"], r["enumerated"])
                     for r in traced]
        values = {name: med(m[name] for m in per_round) for name in per_round[0]}
        values["trace.overhead_s"] = med(map(wall, traced)) - med(map(wall, plain))
    else:
        values = {
            "setup_s": med(r["setup_reported_s"] for r in setup_rounds),
            "wall_s": med(map(wall, plain)),
            "job_max_s": max(med(r["jobs"][i]["reported_s"] for r in plain) for i in range(jobs)),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != values.keys():
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    print(f"# workload={args.workload} seed={args.seed} rounds={len(plain)}+{len(traced)} "
          f"jobs_per_round={jobs} error_rate={failed / attempted:.4f} ({failed}/{attempted})")
    print("# clock seconds per round: " + " ".join(f"{wall(r, 'seconds'):.3f}" for r in plain)
          + (" | traced: " + " ".join(f"{wall(r, 'seconds'):.3f}" for r in traced) if traced else "")
          + "; reported: " + " ".join(f"{wall(r):.3f}" for r in plain))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
