"""cotlearn benchmark: one command, every metric, correctness gated.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``learn_lookup``, ``learn_threshold`` and ``verify_long``
(see ``workloads.py`` and ``README.md``). The load is a closed loop with
one client: jobs run one at a time in one worker process, each starting
when the previous one ends; there is no worker pool.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``setup_s``, ``jobs_per_s``, ``job_ms_p50``,
``job_ms_p90``, ``peak_rss_mib``); with ``--trace 1`` it holds the
per-layer metrics of a separate traced run instead. ``attempted`` and
``failed`` count jobs; a job fails when it raises or its output fails the
correctness gate. The exit code is 0 only when a result was printed.

``setup_s`` is the median, over seven fresh interpreters, of the time
from starting ``python3`` to having imported cotlearn and built the
seeded inputs; the interpreter that then runs the jobs is one of them.
Like job times, it is scaled to the reference speed (see ``worker.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import calibrate, speed_scale

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_PROBES = 6  # set-up-only interpreters, besides the one that runs the jobs
CHILD_TIMEOUT_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def _start(mode: str, args) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed), str(args.seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, t0


def _ready(proc: subprocess.Popen, t0: float) -> float:
    """Seconds from spawning the worker until it reports its inputs built."""
    line = proc.stdout.readline()
    if line.strip() != "ready":
        _finish(proc)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return time.perf_counter() - t0


def _timed_setup(mode: str, args, calibration: list[float]):
    """Start a worker and time its set-up, at the reference speed like job times."""
    before = calibration[-1]
    proc, t0 = _start(mode, args)
    seconds = _ready(proc, t0)
    calibration.append(calibrate())
    return proc, seconds * speed_scale(before, calibration[-1])


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure(args) -> dict:
    setups, calibration = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        proc, seconds = _timed_setup("setup", args, calibration)
        setups.append(seconds)
        _finish(proc)
    proc, seconds = _timed_setup("trace" if args.trace else "run", args, calibration)
    setups.append(seconds)
    try:
        out = _finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    worker_metrics = result["metrics"]
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in worker_metrics.items()
                   if name != "peak_rss_mib"}
    else:
        worker_metrics["setup_s"] = statistics.median(setups)
        print(f"jobs timed: {worker_metrics['samples']} in {worker_metrics['rounds']} rounds; "
              f"failed {result['failed']} of {result['attempted']}; unscaled: "
              f"jobs_per_s {worker_metrics['raw_jobs_per_s']:.4f} job_ms_p50 {worker_metrics['raw_job_ms_p50']:.4f} "
              f"job_ms_p90 {worker_metrics['raw_job_ms_p90']:.4f}; calibration {worker_metrics['calibration_s']:.5f} s",
              file=sys.stderr)
        metrics = {name: {"value": worker_metrics[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms_p50") or name.endswith("ms_max"):
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("per_hit"):
        return "members/hit"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("learn_lookup", "learn_threshold", "verify_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
