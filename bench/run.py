"""qmipsim benchmark: one workload per call, every metric printed with its unit.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports qmipsim from `src/` there.
A run is split into shards, each a fresh single-threaded interpreter
(`worker.py`) started one after another, so set-up time and peak memory
belong to the workload alone. Shard k runs with PYTHONHASHSEED=k+1: string
hashing changes dict collisions enough to move single ops by 40%, so every
run averages the same four hash seeds instead of drawing one. Times are
reported at reference speed (see worker.py); the raw ones are printed too.

With `--trace 0` it prints the end-to-end metrics of one untraced run. With
`--trace 1` it makes one untraced and two traced runs of the same seed,
checks that every count metric repeats exactly, and prints the per-layer
metrics. The last line of standard output is one JSON object; the exit code
is 0 only when every output was correct. NOTES.md explains the workloads
and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "widestate", "pipeline")
SHARDS = 4          # worker interpreters per run
SETUP_ONLY = 5      # extra interpreters that only set up; with the shards they give setup_s
TRACED_RUNS = 2     # traced repeats of one seed, whose counts must agree
BUDGET_S = 170.0    # every worker of one call must end within this
MIN_TAIL_SAMPLES = 10
MIN_OPS = 2 * MIN_TAIL_SAMPLES   # so the tail percentile lies above the median


class BenchError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (percentile, nearest-rank value, samples beyond it).
    """
    n = len(samples)
    if n <= MIN_TAIL_SAMPLES:
        raise BenchError(f"{n} samples leave no percentile with {MIN_TAIL_SAMPLES} beyond it")
    q = 100 * (n - MIN_TAIL_SAMPLES) // n
    rank = -(-q * n // 100)
    return q, sorted(samples)[rank - 1], n - rank


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env(shard: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=str(shard + 1),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, shard: int, deadline: float, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--shard", str(shard),
        "--seconds", str(args.work_seconds / SHARDS), "--min-ops", str(-(-MIN_OPS // SHARDS)),
        "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time budget ({BUDGET_S:.0f} s)")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(shard), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the time budget ({BUDGET_S:.0f} s)") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(args, deadline: float, trace: bool = False) -> dict:
    """All shards of one run, pooled into one record."""
    shards = [run_worker(args, shard, deadline, trace) for shard in range(SHARDS)]
    pooled = {
        "setups": [r["setup_ref_s"] for r in shards],
        "raw_setups": [r["setup_s"] for r in shards],
        "latencies_ms": [t for r in shards for t in r["ref_latencies_ms"]],
        "raw_latencies_ms": [t for r in shards for t in r["latencies_ms"]],
        "problems": [p for r in shards for p in r["problems"]],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in shards),
        "python": shards[0]["python"],
        "numpy": shards[0]["numpy"],
    }
    for key in ("attempted", "failed", "combos", "configs"):
        pooled[key] = sum(r[key] for r in shards)
    pooled["raw_wall_s"] = sum(r["wall_s"] for r in shards)
    if trace:
        pooled["layers"] = tracing.Tracer.merged([r["layers"] for r in shards]).metrics()
    return pooled


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rec: dict) -> tuple[dict, list[str]]:
    lat = rec["latencies_ms"]
    q, tail, beyond = tail_percentile(lat)
    wall = sum(lat) / 1e3
    # a workload without strategy combinations counts configurations instead
    units = rec["combos"] or rec["configs"]
    metrics = {
        "setup_s": metric(statistics.median(rec["setups"]), "s"),
        "wall_s": metric(wall, "s"),
        "op_p50_ms": metric(statistics.median(lat), "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "us_per_combo": metric(wall * 1e6 / units, "us"),
        "configs_per_s": metric(rec["configs"] / wall, "1/s"),
        "items_per_s": metric(len(lat) / wall, "1/s"),
        "peak_rss_mb": metric(rec["peak_rss_mb"], "MB"),
    }
    notes = [
        f"times at reference speed; raw: timed region {rec['raw_wall_s']:.3f} s, "
        f"op p50 {statistics.median(rec['raw_latencies_ms']):.3f} ms, setup {statistics.median(rec['raw_setups']):.3f} s",
        f"setup_s: median of {len(rec['setups'])} fresh interpreters",
        f"op_p50_ms: median of {len(lat)} ops; op_tail_ms: p{q} of {len(lat)} ops, {beyond} beyond it",
        f"us_per_combo counts {'strategy combinations' if rec['combos'] else 'configurations entering a round'}",
    ]
    return metrics, notes


def traced(runs: list[dict], base: dict) -> tuple[dict, list[str]]:
    first = runs[0]["layers"]
    for other in runs[1:]:
        moved = [
            f"{name} {m['value']} vs {other['layers'][name]['value']}"
            for name, m in first.items()
            if name in tracing.COUNT_METRICS and m["value"] != other["layers"][name]["value"]
        ]
        if moved:
            raise BenchError("count metrics differ between traced runs of one seed: " + "; ".join(moved))
    walls = [sum(r["latencies_ms"]) / 1e3 for r in runs]
    untraced = sum(base["latencies_ms"]) / 1e3
    metrics = dict(first)
    metrics["trace.overhead_ratio"] = metric(statistics.median(walls) / untraced, "ratio")
    notes = [
        f"per-layer times from the first of {len(runs)} traced runs; counts identical in all",
        f"trace.overhead_ratio: median traced wall_s {statistics.median(walls):.3f} s "
        f"over untraced {untraced:.3f} s",
    ]
    return metrics, notes


def reference_note() -> str:
    path = BENCH / "c5_reference.json"
    try:
        ref = json.loads(path.read_text())
    except (OSError, ValueError):
        return "reference: no full-C5 figure recorded (run bench/c5_reference.py)"
    return (
        f"reference: full C5 sweep, {ref['combinations']} combinations in {ref['seconds']:.1f} s "
        f"= {ref['us_per_combo']:.0f} us each (commit {ref['commit'][:12]}, {ref['machine']})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qmipsim" / "__init__.py").is_file():
        print(f"error: no qmipsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    # a traced call makes three runs; half the work each keeps them inside the budget
    args.work_seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        if args.trace:
            base = run_once(args, deadline)
            runs = [run_once(args, deadline, trace=True) for _ in range(TRACED_RUNS)]
            metrics, notes = traced(runs, base)
            measured = [base] + runs
        else:
            extra = [run_worker(args, i % SHARDS, deadline, setup_only=True) for i in range(SETUP_ONLY)]
            rec = run_once(args, deadline)
            rec["setups"] += [r["setup_ref_s"] for r in extra]
            rec["raw_setups"] += [r["setup_s"] for r in extra]
            metrics, notes = end_to_end(rec)
            measured = [rec]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    first = measured[0]
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"work={args.work_seconds:g} nominal seconds per run"
    )
    print(
        f"env: python={first['python']} numpy={first['numpy']} nproc={len(os.sched_getaffinity(0))} "
        f"commit={git_commit()} shards={SHARDS} hash_seeds=1..{SHARDS} threads=1"
    )
    print(f"ops: attempted={attempted} failed={failed} fail_ratio={failed / attempted:g}")
    for problem in (p for r in measured for p in r["problems"]):
        print(f"wrong: {problem}")
    for note in notes:
        print(note)
    print(reference_note())
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
