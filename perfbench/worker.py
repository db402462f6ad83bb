"""One workload process: set up, run jobs in a closed loop, gate every result.

Started by ``run.py`` as ``python3 perfbench/worker.py MODE WORKLOAD SEED
SECONDS``, with MODE one of:

* ``setup``: import the library, build the seeded inputs, print
  ``ready`` and exit; ``run.py`` times this to get ``setup_s``.
* ``run``: set up, print ``ready``, then run whole rounds of jobs, one
  at a time, until SECONDS have passed and at least MIN_TIMED_JOBS jobs
  have run; print one JSON line.
* ``trace``: set up, print ``ready``, run a fixed number of rounds
  untraced and then the same rounds traced; print one JSON line with the
  per-layer metrics, and write the spans under ``.perfbench/``.

A job's latency covers its ``run`` only; its correctness gate runs after
the clock stops. A job counts as failed when it raises or its gate
rejects the output.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

# At least this many jobs are timed, so that 10 lie beyond the 90th percentile.
MIN_TIMED_JOBS = 100

# Rounds in a traced run: fixed, so that every count repeats exactly.
TRACE_ROUNDS = {"learn_lookup": 6, "learn_threshold": 1, "verify_long": 1}

# Speed calibration. The shared 2-core machine this benchmark was built on
# changes speed by 15-40% within seconds, for all code alike (README.md).
# So about every CALIBRATE_EVERY_S, between jobs, the worker times a fixed
# loop that uses no cotlearn code, and reports each job's time at one
# reference speed: scaled by REFERENCE_CALIBRATION_S / (mean of the loop
# times just before and just after the job). No change to the library can
# move the loop.
REFERENCE_CALIBRATION_S = 0.030
CALIBRATE_EVERY_S = 0.25
CALIBRATION_ITERATIONS = 30_000


def import_library():
    """Import cotlearn from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import cotlearn

    if os.path.dirname(os.path.abspath(cotlearn.__file__)) != os.path.join(SRC, "cotlearn"):
        raise ImportError(f"cotlearn was imported from {cotlearn.__file__}, not from {SRC}")


def execute(job, expected: str | None, phase=None):
    """Run one job and gate it; returns (seconds, ok)."""
    from workloads import GateError, digest, no_phase

    t0 = time.perf_counter()
    try:
        result = job.run(phase or no_phase)
    except Exception:
        dt = time.perf_counter() - t0
        _report(job, traceback.format_exc())
        return dt, False
    dt = time.perf_counter() - t0
    try:
        got = digest(job.check(result))
        if expected is None:
            raise GateError("no digest recorded for this input")
        if got != expected:
            raise GateError(f"digest {got} != recorded {expected}")
    except Exception:
        _report(job, traceback.format_exc())
        return dt, False
    return dt, True


def calibrate() -> float:
    """Seconds taken by a fixed loop of integer, tuple, dict and Fraction work."""
    t0 = time.perf_counter()
    acc, table, seq = 0, {}, ()
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        key = (i & 1023, acc & 7)
        table[key] = acc
        seq = seq + (acc & 1,) if len(seq) < 64 else ()
        if i % 4 == 0:
            acc += Fraction(i, 7).numerator & 1
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibrations to the reference speed."""
    return 2 * REFERENCE_CALIBRATION_S / (before + after)


def _report(job, text: str) -> None:
    print(f"job {job.key} failed:\n{text}", file=sys.stderr)


class Loop:
    """Closed-loop driver: one client, each job starts when the last one ends."""

    def __init__(self, jobs, expected: dict):
        self.jobs = jobs
        self.expected = expected
        self.records: list[tuple[float, bool, int]] = []  # (seconds, ok, calibrations before it)
        self.calibrations: list[float] = []
        self._calibrated_at = -1e9
        self.attempted = 0
        self.failed = 0

    def _calibrate(self) -> None:
        self.calibrations.append(calibrate())
        self._calibrated_at = time.perf_counter()

    def round(self, tracer=None) -> None:
        for job in self.jobs:
            if time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
                self._calibrate()
            if tracer is None:
                dt, ok = execute(job, self.expected.get(job.key))
            else:
                dt, ok = self._traced(job, tracer)
            self.attempted += 1
            self.failed += not ok
            self.records.append((dt, ok, len(self.calibrations)))

    def _traced(self, job, tracer):
        # The tracer is installed only while the job runs, so the gate's
        # reference computations are not counted as the job's work.
        tracer.job_id = self.attempted
        tracer.install()
        try:
            frame = tracer.enter(f"bench.job.{job.kind}", True)
            try:
                return execute(job, self.expected.get(job.key), lambda name: tracer.span(f"bench.{name}"))
            finally:
                tracer.leave(frame)
        finally:
            tracer.uninstall()

    def job_seconds(self, scaled: bool, first: int = 0, last: int | None = None) -> list[float]:
        """Job times in order (failed jobs as infinity), optionally at the reference speed."""
        if scaled and len(self.calibrations) == self.records[-1][2]:
            self._calibrate()  # the last jobs need a calibration after them
        out = []
        for dt, ok, k in self.records[first:last]:
            if scaled:
                dt *= speed_scale(self.calibrations[k - 1], self.calibrations[k])
            out.append(dt if ok else float("inf"))
        return out

    def jobs_per_s(self, scaled: bool = True) -> float:
        times = self.job_seconds(scaled)
        n = len(self.jobs)
        rounds = [sum(times[i:i + n]) for i in range(0, len(times), n)]
        return n / statistics.median(rounds)


def _percentile_ms(samples: list[float], q: int) -> float:
    """q-th percentile (nearest rank) in milliseconds."""
    ordered = sorted(samples)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1] * 1000.0


def main(argv) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    import_library()
    import workloads

    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        jobs = workloads.build_round(workload, seed, workdir)
        print("ready", flush=True)
        if mode == "setup":
            return 0
        loop = Loop(jobs, expected)
        if mode == "run":
            start = time.perf_counter()
            while time.perf_counter() - start < seconds or loop.attempted < MIN_TIMED_JOBS:
                loop.round()
            scaled, raw = loop.job_seconds(True), loop.job_seconds(False)
            metrics = {
                "jobs_per_s": loop.jobs_per_s(),
                "job_ms_p50": _percentile_ms(scaled, 50),
                "job_ms_p90": _percentile_ms(scaled, 90),
                "raw_jobs_per_s": loop.jobs_per_s(scaled=False),
                "raw_job_ms_p50": _percentile_ms(raw, 50),
                "raw_job_ms_p90": _percentile_ms(raw, 90),
                "calibration_s": statistics.median(loop.calibrations),
                "samples": len(raw),
                "rounds": len(raw) // len(jobs),
            }
        elif mode == "trace":
            from tracer import Tracer

            rounds, n = TRACE_ROUNDS[workload], len(jobs)
            for _ in range(1 + rounds):  # a warm-up round, then the untraced reference
                loop.round()
            tracer = Tracer()
            for _ in range(rounds):
                loop.round(tracer)
            untraced = sum(loop.job_seconds(True, n, n * (1 + rounds)))
            traced = sum(loop.job_seconds(True, n * (1 + rounds)))
            metrics = tracer.metrics()
            metrics["trace.jobs_s"] = sum(loop.job_seconds(False, n * (1 + rounds)))
            metrics["trace.overhead_frac"] = traced / untraced - 1.0
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
