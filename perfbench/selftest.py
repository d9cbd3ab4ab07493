"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest -q perfbench/selftest.py

The tiny world below is a test fixture only, never a benchmark workload.
"""

from __future__ import annotations

import re
import signal
from time import perf_counter

import numpy as np
import pytest

import run

run.import_package()

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(
    train_duration_s=300.0, test_duration_s=100.0, rate_hz=10.0,
    max_points=120, runs=4,
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 1001))
    assert workloads.percentile(xs, 50) == 500
    assert workloads.percentile(xs, 99) == 990  # 10 samples lie beyond
    with pytest.raises(ValueError):
        workloads.percentile(xs[:999], 99)  # only 9 would lie beyond
    assert workloads.percentile(list(reversed(xs)), 99) == 990


def test_self_time_subtracts_covered_child_time():
    S = tracing.Span
    spans = [
        S(0, "root", 0.0, 10.0, None, "op-0"),
        S(1, "a", 1.0, 4.0, 0, "op-0"),
        S(2, "b", 3.0, 6.0, 0, "op-0"),  # overlaps a: union [1, 6]
        S(3, "c", 2.0, 3.0, 1, "op-0"),  # grandchild: not root's child
        S(4, "d", 9.0, 12.0, 0, "op-0"),  # sticks out: only [9, 10] counts
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(3.0)
    assert tracing.covered_length([], 0.0, 1.0) == 0.0


def test_metric_names_are_well_formed():
    names = list(tracing.LAYER_METRICS) + ["trace.overhead_s"]
    bench = workloads.Bench("online", TINY, 0, ".")
    bench.latency_us = [np.ones(1000), np.ones(1000)]
    bench.samples = {k: [1.0] for k in (
        "setup_s", "generate_s", "train_s", "report_s", "run_epochs_per_s.gp-iekf", "run_epochs_per_s.mag-iekf",
        "run_epochs_per_s.deadreckon",
    )}
    bench.values = {k: 1.0 for k in (
        "gp_rmse_deg", "rmse_deg.gp-iekf", "rmse_deg.mag-iekf", "rmse_deg.deadreckon",
    )}
    names += list(bench.end_to_end())
    assert len(names) == len(set(names)) == 34 + 14
    assert all(NAME.fullmatch(n) for n in names)


def test_calibration_probes_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with calibration.Calibration() as cal:
        end = perf_counter() + 5 * calibration.PROBE_PERIOD_S
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(cal.kernel_s) >= 4  # two around the interval, probes inside it
    assert 0.0 < cal.overhead_s < 5 * calibration.PROBE_PERIOD_S
    assert cal.scale > 0.0


def test_tracer_restores_every_attribute():
    from uwbheading import gp, iekf, so2

    before = (iekf.predict, so2.is_rotation, gp.GpModel.__dict__["from_params"])
    tracer = tracing.Tracer()
    tracer.install()
    assert iekf.predict is not before[0]
    tracer.uninstall()
    assert (iekf.predict, so2.is_rotation, gp.GpModel.__dict__["from_params"]) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_world_smoke(workload, traced, tmp_path):
    tracer = tracing.Tracer() if traced else None
    bench = workloads.Bench(workload, TINY, 3, tmp_path / "work", tracer)
    bench.run(0.0, traced=traced)
    assert bench.failed == 0 and bench.attempted >= 2
    if not traced:
        metrics = bench.end_to_end()
        assert len(metrics) == 14
        assert all(value > 0 for value, _, _ in metrics.values())
        return
    layers, not_applicable = tracing.layer_metrics(tracer, bench.traced_ops, ["setup-0"])
    assert set(layers) == set(tracing.LAYER_METRICS)
    applies = {
        "fit": ("gp.fit_calls", "world.build_dataset_s", "world.read_dataset_s"),
        "monte-carlo": ("pipeline.run_filter_calls", "pipeline.cmd_report_s", "gp.fit_s"),
        "online": ("iekf.correct_calls", "heading.predict_pseudo_trig_s", "world.build_dataset_s"),
    }[workload]
    assert all(layers[name][0] > 0 for name in applies)
    skipped = {
        "fit": ("iekf.predict_calls", "pipeline.run_filter_calls"),
        "monte-carlo": ("heading.predict_pseudo_trig_s",),
        "online": ("pipeline.run_filter_calls",),
    }[workload]
    assert set(skipped) <= set(not_applicable)
    assert all(layers[name][0] == 0 for name in not_applicable)


def test_missing_package_fails_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run.sys, "path", list(run.sys.path))
    monkeypatch.delitem(run.sys.modules, "uwbheading")
    code = run.main(["--workload", "online", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert "correct" not in capsys.readouterr().out
