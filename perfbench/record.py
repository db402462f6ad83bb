"""Record the expected result digest of every candidate input.

Usage, from the repository root::

    python3 perfbench/record.py [WORKLOAD ...]

Runs every candidate of every slot once, applies the job's own checks,
and writes ``perfbench/digests.json``. The recorded digests are the
reference that ``worker.py`` gates each job against, so run this only on
a commit whose results are known to be right, and say so when a change
re-records them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import worker


def main(argv) -> int:
    worker.import_library()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    digests = {}
    if os.path.exists(worker.DIGESTS):
        with open(worker.DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=worker.OUT_DIR) as workdir:
        for name in names:
            table = {}
            for job in workloads.all_candidates(name, workdir):
                table[job.key] = workloads.digest(job.check(job.run(workloads.no_phase)))
            digests[name] = table
            print(f"{name}: {len(table)} candidates recorded", file=sys.stderr)
    with open(worker.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
