"""Measure the full C5 sweep once and record it in c5_reference.json.

    python3 bench/c5_reference.py

C5 sweeps all 288 x 288 = 82,944 track-probe combinations of the reduced
no-communication protocol on input "0". It takes about half a minute, too
long for every benchmark run, so run.py prints this stored figure next to
each result as the reference for the sub-sweeps of the `sweep` workload.
Re-run it on the machine whose results you compare.
"""
from __future__ import annotations

import json
import os
import platform
import sys
import time
from datetime import date

from run import BENCH, ROOT, git_commit


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from qmipsim import adversary, corpus

    reduced = corpus.no_comm_reduce()
    families = adversary.default_families(reduced)
    total = len(families[0].strategies) * len(families[1].strategies)
    start = time.perf_counter()
    result = adversary.search(reduced, "0", families=families, limit=total)
    seconds = time.perf_counter() - start
    if result.evaluated != total or result.best_value > 0.5 + 1e-9:
        print(f"error: C5 sweep gave {result}", file=sys.stderr)
        return 1
    record = {
        "combinations": result.evaluated,
        "seconds": seconds,
        "us_per_combo": seconds * 1e6 / result.evaluated,
        "best_value": result.best_value,
        "commit": git_commit(),
        "machine": f"{cpu_model()}, nproc={len(os.sched_getaffinity(0))}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "date": date.today().isoformat(),
    }
    (BENCH / "c5_reference.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
