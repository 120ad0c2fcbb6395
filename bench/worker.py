"""One shard of a workload in one fresh interpreter; prints a JSON record.

`run.py` starts this script, one shard after another; it is not meant to be
called by hand. A shard does its share of the run's work on inputs seeded by
`<seed>:<shard>`. Set-up time runs from the first statement here, through
`import qmipsim`, to the end of building the shard's inputs. The timed
region is the sum of the ops' own intervals; oracles run between ops,
outside it, and with tracing paused.

Every time is also reported at reference speed. Other tenants of a shared
machine slow all code in bursts of seconds to minutes, by up to 60%, which
no statistic inside one run can undo. So between ops the worker times a
fixed pure-Python sparse-apply loop (`calibration_s`, which never calls
qmipsim) and divides each op's time by how much slower that loop ran than
`CALIBRATION_REF_S`. A change to qmipsim moves the op and not the loop, so
it shows in full; a burst moves both and cancels.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_PROBLEMS = 5
# median of calibration_s() on the reference machine when it was quiet
CALIBRATION_REF_S = 0.00034
CALIBRATION_REPEATS = 3

_SYMBOLS = ("#", "[a/#]", "[b/#]", "[a/b]")


def _calibration_step(config):
    state, head, comm, tape = config
    return [
        ((((state + j) * 5) & 15, head + 1, comm[:1] + (sym,), tape[:j] + (sym,) + tape[j + 1:]), 0.5 + 0.5j)
        for j, sym in enumerate(_SYMBOLS)
    ]


def _calibration_loop() -> int:
    """Four rounds of a sparse operator on tuple configurations, like the engine's."""
    state = {(0, 0, ("#", "#"), ("#",) * 4): 1 + 0j}
    for _ in range(4):
        out = {}
        for config, amp in state.items():
            for target, weight in _calibration_step(config):
                out[target] = out.get(target, 0j) + amp * weight
        state = {c: a for c, a in out.items() if abs(a) >= 1e-15}
    return len(state)


def calibration_s(repeats: int = CALIBRATION_REPEATS) -> float:
    """Median time of the calibration loop now, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import qmipsim

    if Path(qmipsim.__file__).resolve().parent != SRC / "qmipsim":
        raise SystemExit(f"imported qmipsim from {qmipsim.__file__}, not from {SRC}")
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        workload = workloads.WORKLOADS[args.workload](f"{args.seed}:{args.shard}", args.seconds, args.min_ops)
        setup_s = time.perf_counter() - STARTED
        slowdown = calibration_s(3 * CALIBRATION_REPEATS) / CALIBRATION_REF_S
        record = {"setup_s": setup_s, "setup_ref_s": setup_s / slowdown}
        if not args.setup_only:
            record.update(measure(workload, tracer))
    finally:
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        record["layers"] = tracer.raw()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["python"] = platform.python_version()
    record["numpy"] = numpy.__version__
    print(json.dumps(record))
    return 0


def measure(workload, tracer) -> dict:
    """Run every op; time it raw and at reference speed, then check it."""
    clock = time.perf_counter
    latencies = []
    ref_latencies = []
    failed = 0
    problems: list[str] = []
    combos = configs = 0
    before = calibration_s()
    for i in range(workload.n_ops):
        start = clock()
        try:
            result = workload.op(i)
            wrong = None
        except Exception as exc:  # a failing op is counted, and the run goes on
            wrong = [f"op {i} raised {exc!r}"]
        elapsed = clock() - start
        after = calibration_s()
        latencies.append(elapsed)
        ref_latencies.append(elapsed * 2 * CALIBRATION_REF_S / (before + after))
        before = after
        if wrong is None:
            if tracer is not None:
                tracer.active = False
            wrong = workload.check(i, result)
            if tracer is not None:
                tracer.active = True
            c, k = workload.units(result)
            combos += c
            configs += k
        if wrong:
            failed += 1
            problems.extend(wrong)
    return {
        "wall_s": sum(latencies),
        "latencies_ms": [t * 1e3 for t in latencies],
        "ref_latencies_ms": [t * 1e3 for t in ref_latencies],
        "attempted": workload.n_ops,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "combos": combos,
        "configs": configs,
    }


if __name__ == "__main__":
    sys.exit(main())
