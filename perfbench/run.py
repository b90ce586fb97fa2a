"""hillproj benchmark: one CLI workload per run, closed loop, one client.

    python3 perfbench/run.py --workload decay-per --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; it uses the hillproj sources under
``src/``.  Every CLI run is a fresh child process with its BLAS threads
pinned to 1 in the child's environment only.

``--trace 0`` repeats the workload until its runs have taken ``--seconds``
(at least ``MIN_RUNS`` runs), times ``SETUP_PROBES`` fresh set-ups in the
gaps, and reports the end-to-end metrics as medians over those runs.  ``--trace 1``
makes the traced run in one child (see ``tracer.py``) and reports the
per-layer metrics.  Outputs are checked after the timed region.

The summary goes to standard output with the run record; the last line
is one JSON object with ``correct``, ``attempted`` (CLI runs), ``failed``
(CLI runs that crashed or whose output the checks reject) and
``metrics``.  A copy of the whole result is written to
``.perfbench_out/last-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import Checker, LevelReport, fail_frac
from tracer import summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".perfbench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
PROBES_PER_GAP = 2
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "levels_per_s": "1/s", "pass_frac": "frac"}


@dataclass
class Child:
    returncode: int | None
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: list[str], log: Path) -> Child:
    """Run one child to completion and take its own rusage from wait4."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(returncode=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0,
                 stdout=log.read_text(errors="replace"))


def stderr_tail(log: Path) -> str:
    text = log.with_suffix(".err").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def run_timed(workload, seed: int, seconds: float, work: Path):
    problems, setup, probes = [], [], 0

    def probe():
        nonlocal probes
        log = work / f"setup{probes}.log"
        probes += 1
        child = run_child([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                           workload.name], log)
        if child.returncode == 0:
            setup.append(float(child.stdout.split()[-1]))
        else:
            problems.append(f"set-up probe exit {child.returncode}: {stderr_tail(log)}")

    # The machine's speed drifts over seconds, so the set-up probes are
    # spread between the CLI runs rather than made in one burst.
    runs = []
    while len(runs) < MIN_RUNS or sum(c.wall_s for c, _ in runs) < seconds:
        for _ in range(min(PROBES_PER_GAP, SETUP_PROBES - probes)):
            probe()
        out = work / f"run{len(runs)}"
        cmd = [sys.executable, "-m", "hillproj.cli", *workload.argv(),
               "--seed", str(seed), "--out", str(out)]
        runs.append((run_child(cmd, work / f"run{len(runs)}.log"), out))
    while probes < SETUP_PROBES:
        probe()

    checker = Checker(workload)
    reports = [checker.check(out, child.returncode) for child, out in runs]
    metrics = {
        "wall_s": statistics.median(c.wall_s for c, _ in runs),
        "cpu_s": statistics.median(c.cpu_s for c, _ in runs),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _ in runs),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "levels_per_s": statistics.median(r.passed / c.wall_s
                                          for (c, _), r in zip(runs, reports)),
        "pass_frac": (sum(r.passed for r in reports)
                      / max(1, sum(r.attempted for r in reports))),
    }
    notes = {"runs": len(runs), "run_walls_s": [round(c.wall_s, 4) for c, _ in runs],
             "setup_probes_s": [round(t, 4) for t in setup],
             "fail_frac": 1.0 - metrics["pass_frac"]}
    return metrics, reports, problems, notes


def run_traced(workload, seed: int, seconds: float, work: Path):
    log = work / "trace.log"
    child = run_child([sys.executable, str(BENCH_DIR / "tracer.py"),
                       "--workload", workload.name, "--seed", str(seed),
                       "--seconds", str(seconds), "--out", str(work / "trace")], log)
    if child.returncode != 0:
        rep = LevelReport({"run": "traced run crashed"},
                          [f"traced run exit {child.returncode}: {stderr_tail(log)}"])
        return {}, [rep], [], {}
    passes = json.loads(child.stdout.splitlines()[-1])["passes"]
    checker = Checker(workload)
    reports = [checker.check(Path(p["out"]), p["returncode"], p["error"]) for p in passes]
    metrics = summarize(passes)
    levels = {(i, k): v for i, r in enumerate(reports) for k, v in r.levels.items()}
    metrics["fail_frac"] = fail_frac(levels)
    notes = {"passes": len(passes), "traced_passes": sum(p["traced"] for p in passes)}
    return metrics, reports, [], notes


# ---------------------------------------------------------------------------
# run record and report
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(workload, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "cli": workload.argv(), "seed": args.seed,
        "seed_read_by_program": workload.reads_seed, "seconds": args.seconds,
        "trace": args.trace, "machine": platform.machine(), "cpu": cpu_model(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env_child_only": THREAD_ENV,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_rev": git_rev(),
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.startswith("projector.level_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac") or name == "bounds.tail_max":
        return "frac"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hillproj" / "__init__.py").is_file():
        print(f"perfbench: no hillproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    work = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    mode = run_traced if args.trace else run_timed
    try:
        metrics, reports, problems, notes = mode(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, rep in enumerate(reports):
        problems += [f"run {i}: {p}" for p in rep.problems]
    failed = sum(1 for rep in reports if rep.problems)
    correct = not problems and bool(metrics)
    record = run_record(workload, args)
    result = {"correct": correct, "attempted": max(1, len(reports)), "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}

    print(f"# hillproj benchmark: {workload.name} ({workload.why})")
    for key, val in record.items():
        print(f"#   {key}: {val}")
    for key, val in notes.items():
        print(f"#   {key}: {val}")
    for rep in reports[:1]:
        for label, reason in rep.levels.items():
            if reason is not None:
                print(f"#   level {label} failed: {reason}")
    for p in problems:
        print(f"#   PROBLEM {p}")
    for key, val in metrics.items():
        print(f"{key:28s} {val:16.6g} {unit_of(key)}")
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"last-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "notes": notes, "problems": problems, **result},
                   indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
