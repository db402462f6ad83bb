"""Checks of the benchmark itself, not of the library.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

Exits 0 when all of these hold, 1 otherwise:

1. a second seed gives the same number of jobs of each kind, with other
   inputs or in another order;
2. an injected wrong result, whether caught by a digest or by a
   cross-check, and a job that raises are each counted as failed;
3. two traced runs with one seed report identical counts;
4. the metric names and units printed with ``--trace 0`` and ``--trace 1``
   equal those declared in ``BENCHMARK.json``.

Checks 3 and 4 start the benchmark command itself, and take about three minutes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction

import worker

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(worker.BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=worker.ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_seeds(workloads, workdir: str) -> None:
    for name in workloads.WORKLOADS:
        a = workloads.build_round(name, 1, workdir)
        b = workloads.build_round(name, 2, workdir)
        check(Counter(j.kind for j in a) == Counter(j.kind for j in b),
              f"{name}: seeds 1 and 2 give the same job count per kind")
        check([j.key for j in a] != [j.key for j in b], f"{name}: seeds 1 and 2 give other inputs or job order")


def _inject(job, corrupt):
    run = job.run
    return dataclasses.replace(job, run=lambda phase: corrupt(run(phase)))


def _raise(result):
    raise RuntimeError("injected failure")


def _flip_last_read(result):
    out, trace, z, direct, fast = result
    state, symb = fast[-1]
    return out, trace, z, direct, fast[:-1] + [(state, 1 - symb if symb in (0, 1) else 0)]


def check_injection(workloads, workdir: str, expected: dict) -> None:
    cases = (
        ("learn_lookup", "pac_e1", lambda r: dataclasses.replace(r, error=r.error / 2 + Fraction(1, 3)),
         "a wrong error fraction (digest)"),
        ("verify_long", "tm_long", _flip_last_read, "a wrong attention read (cross-check)"),
        ("learn_threshold", "enumerate", _raise, "a job that raises"),
    )
    for name, kind, corrupt, what in cases:
        jobs = workloads.build_round(name, 1, workdir)
        target = next(i for i, j in enumerate(jobs) if j.kind == kind)
        honest = worker.Loop([jobs[target]], expected[name])
        honest.round()
        jobs[target] = _inject(jobs[target], corrupt)
        loop = worker.Loop([jobs[target]], expected[name])
        loop.round()
        check(honest.failed == 0 and loop.failed == 1 and loop.job_seconds(False) == [float("inf")],
              f"{name}: {what} is counted as failed")


def check_traced_counts() -> None:
    for name in ("learn_lookup", "learn_threshold", "verify_long"):
        a, b = bench(name, 7, 1), bench(name, 7, 1)
        counts = lambda r: {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "members/hit")}
        check(counts(a) == counts(b) and counts(a), f"{name}: two traced runs with seed 7 give identical counts")


def check_names() -> None:
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in bench("learn_threshold", 1, trace)["metrics"].items()}
        check(printed == declared, f"--trace {trace} prints exactly the {key} metrics of BENCHMARK.json")


def main() -> int:
    worker.import_library()
    import workloads

    with open(worker.DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=worker.OUT_DIR) as workdir:
        check_seeds(workloads, workdir)
        check_injection(workloads, workdir, expected)
    check_traced_counts()
    check_names()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
