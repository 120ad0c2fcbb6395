"""Tests for the benchmark harness itself.

    python3 -m pytest -q bench/test_harness.py
"""
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qmipsim import corpus, engine  # noqa: E402


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n", [11, 20, 50, 99, 100, 101, 1000])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    samples = [float(v) for v in range(n, 0, -1)]   # unsorted on purpose
    q, value, beyond = run.tail_percentile(samples)
    assert beyond >= 10
    assert n - value == beyond                       # value is the sample at that rank
    # one percentile higher leaves fewer than ten beyond
    assert n - -(-(q + 1) * n // 100) < 10


def test_tail_of_a_hundred_samples_is_p90():
    assert run.tail_percentile([float(v) for v in range(1, 101)]) == (90, 90.0, 10)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(run.BenchError):
        run.tail_percentile([1.0] * 10)


# -- tracing shims -----------------------------------------------------------

def snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of the qmipsim modules and of the classes they define."""
    out = {}
    for module in tracing.qmipsim_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(f"{module.__name__}.{attr}", cattr)] = cvalue
    return out


def test_shims_are_fully_removed_after_a_traced_run():
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert snapshot() != before
        engine.simulate(corpus.parity_relay(), "1")
        workloads.Pipeline(0, 0.001).op(0)
    finally:
        tracer.remove()
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer.calls["engine.simulate"] > 0 and tracer.calls["specs.lookup"] > 0


def test_paused_tracer_counts_nothing():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = False
        engine.simulate(corpus.parity_relay(), "1")
    finally:
        tracer.remove()
    assert sum(tracer.calls.values()) == 0


def test_traced_counts_cover_every_per_layer_metric():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.Pipeline(3, 0.001).op(0)
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    assert list(metrics) == list(tracing.PER_LAYER)
    assert metrics["fileformat.bytes"]["value"] > 0
    assert metrics["adversary.derandomize.decisions"]["value"] > 0
    assert metrics["engine.prover_stage_s"]["value"] > 0


# -- oracles -----------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    w = workloads.Sweep(5, 0.001)
    w.families = [tuple(dataclasses.replace(f, strategies=f.strategies[:4]) for f in fams)
                  for fams in w.families[:1]]
    w.limit = 16
    return w


def test_sweep_oracle_accepts_a_true_result(sweep):
    assert sweep.check(0, sweep.op(0)) == []


@pytest.mark.parametrize("perturb", [
    lambda r: dataclasses.replace(r, best_value=0.5 + 1e-6),
    lambda r: dataclasses.replace(r, evaluated=r.evaluated - 1),
    lambda r: dataclasses.replace(
        r, table=[(labels, acc + 1e-9, rej) for labels, acc, rej in r.table]),
    lambda r: dataclasses.replace(
        r, table=[(labels, acc, rej - 1e-9) for labels, acc, rej in r.table]),
])
def test_sweep_oracle_rejects_a_perturbed_result(sweep, perturb):
    assert sweep.check(0, perturb(sweep.op(0)))


@pytest.fixture(scope="module")
def widestate():
    w = workloads.WideState(5, 0.001)
    w.inputs = ["1"]
    return w


def test_widestate_oracle_accepts_a_true_result(widestate):
    assert widestate.check(0, widestate.op(0)) == []


@pytest.mark.parametrize("field", ["p_accept", "p_reject", "leftover"])
def test_widestate_oracle_rejects_a_perturbed_result(widestate, field):
    result = widestate.op(0)
    bad = dataclasses.replace(result, **{field: getattr(result, field) + 1e-9})
    assert widestate.check(0, bad)


@pytest.fixture(scope="module")
def pipeline():
    w = workloads.Pipeline(5, 0.001)
    w.items = [("parity_relay", "1", +1)]
    return w


def test_pipeline_oracle_accepts_a_true_result(pipeline):
    assert pipeline.check(0, pipeline.op(0)) == []


def _other_protocol(item):
    p = item.parsed[3]
    return (*item.parsed[:3], dataclasses.replace(p, b=p.b / 2))


def _shifted_run(item):
    run3 = item.runs[3]
    return (*item.runs[:3], dataclasses.replace(run3, p_accept=run3.p_accept - 1e-9))


def _worse_report(item):
    report = item.report
    return dataclasses.replace(report, derandomized_p_reject=report.quantum_p_reject + 1e-6)


@pytest.mark.parametrize("perturb", [
    lambda item: dataclasses.replace(item, well_formed=(True, False, True, True)),
    lambda item: dataclasses.replace(item, restrictive=False),
    lambda item: dataclasses.replace(item, parsed=_other_protocol(item)),
    lambda item: dataclasses.replace(item, runs=_shifted_run(item)),
    lambda item: dataclasses.replace(item, report=_worse_report(item)),
])
def test_pipeline_oracle_rejects_a_perturbed_result(pipeline, perturb):
    assert pipeline.check(0, perturb(pipeline.op(0)))


# -- failure accounting --------------------------------------------------------

class _Flaky:
    """Op 0 raises, op 1 gives a wrong result, op 2 is right."""
    n_ops = 3

    def op(self, i):
        if i == 0:
            raise ValueError("broken")
        return i

    def check(self, i, result):
        return ["wrong"] if result == 1 else []

    def units(self, result):
        return 0, 1


def test_failed_and_wrong_ops_both_count_as_failed():
    record = worker.measure(_Flaky(), None)
    assert (record["attempted"], record["failed"]) == (3, 2)
    assert len(record["latencies_ms"]) == 3


def test_reference_speed_divides_by_the_calibration_slowdown(monkeypatch):
    monkeypatch.setattr(worker, "calibration_s", lambda: 2 * worker.CALIBRATION_REF_S)
    record = worker.measure(_Flaky(), None)
    for raw, ref in zip(record["latencies_ms"], record["ref_latencies_ms"]):
        assert ref == pytest.approx(raw / 2)


def test_calibration_loop_does_fixed_work():
    assert worker._calibration_loop() == worker._calibration_loop() > 1
    assert worker.calibration_s() > 0
