import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbheading import gp, heading, iekf, pipeline, so2, world

SMALL_GEN = dict(
    train_duration_s=600.0,
    test_duration_s=60.0,
    rate_hz=5.0,
    range_std=0.05,
    rss_std=0.25,
    rss_quantum=0.1,
)
SMALL_TRAIN = pipeline.TrainConfig(max_points=500)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small generate -> train pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("ws")
    gen = pipeline.GenerateConfig(seed=7, **SMALL_GEN)
    paths = pipeline.cmd_generate(gen, root / "data")
    pipeline.cmd_train(paths["train"], SMALL_TRAIN, root / "models")
    return root


# --- configs -----------------------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        pipeline.RunConfig(estimator="kalman-banana")
    with pytest.raises(ValueError):
        pipeline.RunConfig(monte_carlo_runs=0)
    with pytest.raises(ValueError):
        pipeline.RunConfig(init_error_var=0.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            pipeline.RunConfig(q_c=bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            pipeline.RunConfig(init_error_var=bad)


# a call that sets one field of a settings type or function to a value, and
# the field's name
SETTINGS_FIELDS = [
    pytest.param(lambda v: world.SensorNoiseConfig(range_std=v), "range_std",
                 id="noise.range_std"),
    pytest.param(lambda v: world.SensorNoiseConfig(rss_quantum=v), "rss_quantum",
                 id="noise.rss_quantum"),
    pytest.param(lambda v: world.SensorNoiseConfig(seed=v), "seed", id="noise.seed"),
    pytest.param(lambda v: world.SensorNoiseConfig(mag_disturbance_center=(v, 0.0)),
                 "mag_disturbance_center", id="noise.disturbance_center"),
    pytest.param(lambda v: world.PathLossModel(p0=v), "p0", id="path_loss.p0"),
    pytest.param(lambda v: world.PathLossModel(d0=v), "d0", id="path_loss.d0"),
    pytest.param(lambda v: world.AntennaPattern(g0=v), "g0", id="pattern.g0"),
    pytest.param(lambda v: world.Rectangle(0.0, v, 0.0, 1.0), "xmax", id="area.xmax"),
    pytest.param(lambda v: gp.SeKernelParams(v, 1.0, 1.0), "sigma_f", id="kernel.sigma_f"),
    pytest.param(lambda v: gp.HyperparamSearchConfig(max_points=v), "max_points",
                 id="search.max_points"),
    pytest.param(lambda v: pipeline.GenerateConfig(range_std=v), "range_std",
                 id="generate.range_std"),
    pytest.param(lambda v: pipeline.GenerateConfig(rate_hz=v), "rate_hz", id="generate.rate_hz"),
    pytest.param(lambda v: pipeline.GenerateConfig(seed=v), "seed", id="generate.seed"),
    pytest.param(lambda v: world.generate_trajectory(world.DEFAULT_AREA, v, 10.0), "duration",
                 id="trajectory.duration"),
    pytest.param(lambda v: world.generate_trajectory(world.DEFAULT_AREA, 10.0, v), "rate_hz",
                 id="trajectory.rate_hz"),
    pytest.param(lambda v: world.generate_trajectory(world.DEFAULT_AREA, 10.0, 10.0, v), "seed",
                 id="trajectory.seed"),
]


@pytest.mark.parametrize("build, name", SETTINGS_FIELDS)
@pytest.mark.parametrize(
    "value", [True, 10**400, "1", math.nan, math.inf],
    ids=["bool", "400-digit-int", "numeric-string", "nan", "inf"],
)
def test_settings_reject_a_non_number_naming_the_field(build, name, value):
    """Every settings type checks its fields by world's value rules: a bool,
    an int beyond the float range, a string, NaN or inf is a ValueError that
    names the field, not an OverflowError, a TypeError or an accepted value."""
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        build(value)


@pytest.mark.parametrize("seed", [0, 7, 2_000_003])
def test_generate_noise_is_world_noise_by_default(seed):
    """GenerateConfig's noise defaults are SensorNoiseConfig's, not a copy."""
    assert pipeline.GenerateConfig().noise(seed) == world.SensorNoiseConfig(seed=seed)


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"run": {"estimator": "deadreckon", "typo_key": 1}}))
    with pytest.raises(pipeline.ConfigError):
        pipeline._build(
            pipeline.RunConfig, pipeline._config_section(cfg, "run"), {}
        )


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"run": {"estimator": "mag-iekf", "seed": 3}}))
    built = pipeline._build(
        pipeline.RunConfig, pipeline._config_section(cfg, "run"), {"seed": 9}
    )
    assert built.estimator == "mag-iekf"
    assert built.seed == 9


# --- generate ---------------------------------------------------------------------


def test_generate_writes_disjoint_splits(workspace):
    train = world.read_dataset(workspace / "data" / "train.csv")
    test = world.read_dataset(workspace / "data" / "test.csv")
    assert len(train) == int(SMALL_GEN["train_duration_s"] * SMALL_GEN["rate_hz"])
    assert len(test) == int(SMALL_GEN["test_duration_s"] * SMALL_GEN["rate_hz"])
    # different trajectory seeds: ground truth must differ between splits
    assert np.abs(train.gt_heading[: len(test)] - test.gt_heading).max() > 0.1


def test_generate_is_reproducible(tmp_path):
    gen = pipeline.GenerateConfig(seed=7, **SMALL_GEN)
    p1 = pipeline.cmd_generate(gen, tmp_path / "a")
    p2 = pipeline.cmd_generate(gen, tmp_path / "b")
    assert p1["train"].read_bytes() == p2["train"].read_bytes()
    assert p1["test"].read_bytes() == p2["test"].read_bytes()


def test_generate_metadata_records_world(workspace):
    meta = world.read_metadata(workspace / "data" / "test.csv")
    assert meta["noise"]["gyro_psd"] == pytest.approx(3e-3)
    assert meta["pattern"]["a2"] == pytest.approx(4.0)
    assert len(meta["anchors"]) == 5


# --- train -------------------------------------------------------------------------


def test_train_writes_model_and_summary(workspace):
    summary = json.loads(
        (workspace / "models" / "training_summary.json").read_text()
    )
    assert summary["n_used"] <= SMALL_TRAIN.max_points
    assert summary["sin"]["sigma_f"] > 0
    assert summary["fit_s"] > 0
    assert summary["read_s"] > 0 and summary["save_s"] > 0
    for name in ("sin", "cos"):
        gp_summary = summary[name]
        assert math.isfinite(gp_summary["log_marginal_likelihood"])
        assert gp_summary["lml_evals"] >= 1
        assert 0 <= gp_summary["jittered_evals"] <= gp_summary["lml_evals"]
        assert gp_summary["converged"] is True
        assert gp_summary["jitter"] >= 0.0
    pair = heading.HeadingGpPair.load(workspace / "models")
    assert pair.gp_sin.train.d == 10


def test_train_rejects_tiny_dataset(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text(",".join(world.DATASET_COLUMNS) + "\n")
    with pytest.raises(pipeline.DataError):
        pipeline.cmd_train(p, SMALL_TRAIN, tmp_path / "m")


# --- run_filter --------------------------------------------------------------------


def clean_records(duration=30.0, rate=50.0, seed=0):
    area = world.DEFAULT_AREA
    traj = world.generate_trajectory(area, duration, rate, seed=seed)
    noise = world.SensorNoiseConfig(
        range_std=0.0, rss_std=0.0, gyro_psd=1e-12, mag_std=0.0,
        rss_quantum=1e-9, seed=seed,
    )
    return world.build_dataset(traj, world.default_anchors(area), world.AntennaPattern(), noise)


def test_run_filter_deadreckon_clean_gyro_has_tiny_error():
    recs = clean_records()
    err, sig3, mahal = pipeline.run_filter(
        recs, [None] * len(recs), q_c=1e-12, init_theta=recs[0].gt_heading,
        init_var=1e-10,
    )
    assert np.abs(err).max() < 0.02  # only gyro discretization error remains
    assert np.all(np.isnan(mahal))
    assert np.all(np.diff(sig3) > 0)  # no corrections: covariance only grows


def test_run_filter_error_invariant_to_full_turn_offset():
    recs = clean_records()
    meas = [None] * len(recs)
    e0, _, _ = pipeline.run_filter(recs, meas, 1e-12, recs[0].gt_heading, 1e-10)
    e1, _, _ = pipeline.run_filter(
        recs, meas, 1e-12, recs[0].gt_heading + 2 * math.pi, 1e-10
    )
    assert np.abs(e1 - e0).max() < 1e-9


def test_run_filter_perfect_measurements_converge_fast():
    recs = clean_records()
    meas = [
        heading.HeadingMeasurement(angle=r.gt_heading, var_theta=1e-6)
        for r in recs
    ]
    err, _, mahal = pipeline.run_filter(
        recs, meas, q_c=1e-6, init_theta=recs[0].gt_heading + 1.0, init_var=1.0
    )
    assert abs(err[10]) < 1e-2
    assert np.nanmax(mahal[5:]) < pipeline.MAHALANOBIS_BOUND_997


def test_run_filter_overflowing_covariance_is_numerical_error():
    recs = clean_records()
    with pytest.raises(pipeline.NumericalError, match="epoch"):
        pipeline.run_filter(recs, [None] * len(recs), 1e308, 0.0, 1.0)


def test_run_filter_rejects_mismatched_measurements():
    recs = clean_records()
    with pytest.raises(ValueError):
        pipeline.run_filter(recs, [None] * (len(recs) - 1), 1e-6, 0.0, 1.0)


def columns(t, gyro, gt_heading):
    """A Dataset with these t, gyro and ground-truth columns; the UWB and
    magnetometer columns are constant."""
    n = len(t)
    return world.Dataset(
        t=np.asarray(t, dtype=float), ranges=np.ones((n, 5)), rss=np.zeros((n, 5)),
        gyro=np.asarray(gyro, dtype=float), mag=np.zeros(n),
        gt_heading=np.asarray(gt_heading, dtype=float),
    )


def reference_run(records, measurements, q_c, theta0, init_var):
    """One run through the online API, epoch by epoch."""
    noise = iekf.ProcessNoise(psd=q_c)
    state = iekf.FilterState(angle=theta0, cov=init_var)
    err, sig3, mahal = [], [], []
    for k, (rec, meas) in enumerate(zip(records, measurements)):
        if k:
            prev = records[k - 1]
            state = iekf.predict(state, iekf.GyroSample(rate=prev.gyro, dt=rec.t - prev.t), noise)
        d = math.nan
        if meas is not None:
            state, stats = iekf.correct(state, meas)
            d = stats.mahalanobis
        err.append(float(so2.wrap_angle(state.angle - rec.gt_heading)))
        sig3.append(3.0 * math.sqrt(state.cov))
        mahal.append(d)
    return np.array(err), np.array(sig3), np.array(mahal)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


near_pi = st.sampled_from([math.pi, -math.pi, math.pi - 1e-3, -math.pi + 1e-3, 3.0, -3.0])
epoch = st.tuples(
    st.floats(min_value=1e-3, max_value=1.0),  # dt
    st.floats(min_value=-3.0, max_value=3.0),  # gyro rate
    near_pi | st.floats(min_value=-math.pi, max_value=math.pi),  # ground truth
    st.none() | near_pi | st.floats(min_value=-math.pi, max_value=math.pi),  # measurement
    st.floats(min_value=1e-6, max_value=1.0),  # measurement variance
)


@given(
    st.lists(epoch, min_size=1, max_size=25),
    st.lists(near_pi | st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=4),
    st.floats(min_value=1e-8, max_value=1.0),
    st.floats(min_value=1e-6, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
def test_run_filter_matches_online_loops_bit_for_bit(epochs, starts, q_c, init_var):
    dt, rate, gt, ys, var = zip(*epochs)
    records = columns(np.cumsum(dt), rate, gt)
    measurements = [None if y is None else heading.HeadingMeasurement(y, v) for y, v in zip(ys, var)]
    err, sig3, mahal = pipeline.run_filter(records, measurements, q_c, starts, init_var)
    assert err.shape == sig3.shape == mahal.shape == (len(starts), len(records))
    for r, theta0 in enumerate(starts):
        ref = reference_run(records, measurements, q_c, theta0, init_var)
        assert all(same_bits(got[r], want) for got, want in zip((err, sig3, mahal), ref))
        single = pipeline.run_filter(records, measurements, q_c, theta0, init_var)
        assert all(same_bits(got, want) for got, want in zip(single, ref))


def test_run_filter_innovation_across_pi_and_gate():
    # state just below +pi, measurement just above -pi: the innovation is
    # small once wrapped, well inside the 99.7% bound
    recs = columns(np.arange(3.0), np.zeros(3), np.full(3, math.pi))
    meas = [None, heading.HeadingMeasurement(-math.pi + 0.05, 1e-2), None]
    err, _, mahal = pipeline.run_filter(recs, meas, 1e-6, [math.pi - 0.05], 1e-2)
    ref = reference_run(recs, meas, 1e-6, math.pi - 0.05, 1e-2)
    assert same_bits(err[0], ref[0]) and same_bits(mahal[0], ref[2])
    assert mahal[0, 1] == pytest.approx(0.1**2 / (2e-2 + 1e-6), rel=1e-9)
    assert mahal[0, 1] < pipeline.MAHALANOBIS_BOUND_997
    assert abs(err[0, 2]) < 0.05


def test_run_filter_takes_pairs_and_checks_them_as_measurements():
    recs = columns(np.arange(4.0), np.full(4, 0.1), np.zeros(4))
    pairs = [None, (0.3, 0.1), (-0.2, 0.05), (3.1, 1e-3)]
    as_measurements = [None if p is None else heading.HeadingMeasurement(*p) for p in pairs]
    mixed = [pairs[0], as_measurements[1], pairs[2], as_measurements[3]]
    want = pipeline.run_filter(recs, as_measurements, 1e-6, [0.0, 2.0], 1.0)
    # iekf.filter_runs itself takes, and checks, the mix that run_filter passes on
    dt = np.diff(recs.t)
    steps = ((recs.gyro[:-1] * dt).tolist(), (1e-6 * dt).tolist())
    direct = [iekf.filter_runs([0.0, 2.0], 1.0, *steps, m) for m in (mixed, as_measurements)]
    assert all(same_bits(g, w) for g, w in zip(*direct))
    for meas in (pairs, mixed):
        got = pipeline.run_filter(recs, meas, 1e-6, [0.0, 2.0], 1.0)
        assert all(same_bits(g, w) for g, w in zip(got, want))
    for bad, message in (
        ((math.nan, 0.1), "angle must be finite"),
        ((math.inf, 0.1), "angle must be finite"),
        ((0.0, 0.0), "variance must be finite and positive"),
        ((0.0, -1.0), "variance must be finite and positive"),
        ((0.0, math.inf), "variance must be finite and positive"),
        ((0.0, math.nan), "variance must be finite and positive"),
    ):
        with pytest.raises(ValueError, match=message):
            pipeline.run_filter(recs, [None, (0.1, 0.1), bad, None], 1e-6, [0.0], 1.0)
        with pytest.raises(ValueError, match=message):
            iekf.filter_runs([0.0], 1.0, *steps, [as_measurements[1], None, bad, pairs[3]])


# --- run / report ------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_dirs(workspace):
    out = {}
    for est in ("gp-iekf", "mag-iekf", "deadreckon"):
        cfg = pipeline.RunConfig(estimator=est, monte_carlo_runs=5, seed=1)
        d = workspace / "runs" / est
        pipeline.cmd_run(
            workspace / "data" / "test.csv",
            workspace / "models" if est == "gp-iekf" else None,
            cfg,
            d,
        )
        out[est] = d
    return out


def _load_traces(run_dir):
    """A run dir's estimator, epoch times and (runs, epochs) error, 3-sigma
    and Mahalanobis columns, parsed back from its traces.csv, which must hold
    runs 0..R-1 in order, each over the epochs in time order."""
    est = json.loads((Path(run_dir) / "metrics.json").read_text())["estimator"]
    raw = world.read_table(Path(run_dir) / "traces.csv", pipeline.TRACE_COLUMNS)
    t = np.unique(raw[:, 0])
    runs = len(raw) // t.size
    times, ids, err, sig, mahal = (raw[:, k].reshape(runs, t.size) for k in range(5))
    assert (times == t).all() and (ids == np.arange(runs)[:, None]).all()
    return est, t, err, sig, mahal


def test_run_outputs_and_ordering(run_dirs):
    metrics = {
        est: json.loads((d / "metrics.json").read_text())
        for est, d in run_dirs.items()
    }
    # corrected estimators beat open-loop integration from 1 rad initial error
    assert metrics["gp-iekf"]["rmse_deg"] < metrics["deadreckon"]["rmse_deg"]
    assert metrics["mag-iekf"]["rmse_deg"] < metrics["deadreckon"]["rmse_deg"]
    assert metrics["gp-iekf"]["q_c"] == pytest.approx(3e-3)
    assert math.isnan(metrics["deadreckon"]["nees_within_bound_frac"])
    assert 0.0 <= metrics["mag-iekf"]["nees_within_bound_frac"] <= 1.0


def test_run_traces_shape(run_dirs):
    est, t, err, sig, mahal = _load_traces(run_dirs["gp-iekf"])
    assert est == "gp-iekf"
    assert err.shape == (5, t.size)
    assert np.all(sig > 0)
    assert np.isfinite(mahal).mean() > 0.9


def test_run_metrics_report_counts_and_stage_times(run_dirs):
    for est, d in run_dirs.items():
        m = json.loads((d / "metrics.json").read_text())
        _, _, _, _, mahal = _load_traces(d)
        skipped = int(np.isnan(mahal[0]).sum())
        assert m["degenerate_epochs"] == (skipped if est == "gp-iekf" else 0)
        assert "corrections_gated" not in m
        # every non-degenerate epoch of every run is corrected
        corrected = 0 if est == "deadreckon" else m["n_epochs"] - m["degenerate_epochs"]
        assert m["corrections_applied"] == m["monte_carlo_runs"] * corrected
        assert all(m[k] >= 0.0 for k in ("load_s", "predict_s", "filter_s", "write_s"))
        # runs 1.. share their error with run 0 bit for bit from the epoch
        # they join it; dead reckoning never joins, and on this 300-epoch
        # split the magnetometer runs do
        _, _, err, _, _ = _load_traces(d)
        same = [[a.hex() == b.hex() for a, b in zip(row, err[0])] for row in err[1:].tolist()]
        shared = sum((row[::-1] + [False]).index(False) for row in same)  # trailing Trues
        assert m["shared_run_epochs"] == shared
        if est == "deadreckon":
            assert shared == 0
        elif est == "mag-iekf":
            assert shared > 0


def test_run_steady_rmse_over_trailing_window(run_dirs):
    m = json.loads((run_dirs["gp-iekf"] / "metrics.json").read_text())
    _, t, err, _, _ = _load_traces(run_dirs["gp-iekf"])
    start = int(t.size * (1.0 - m["steady_fraction"]))
    want = np.degrees(np.sqrt(np.mean(err[:, start:] ** 2, axis=1))).mean()
    assert m["rmse_steady_deg"] == want
    assert m["steady_fraction"] == pipeline.STEADY_FRACTION == 0.5


def test_run_three_sigma_cover_equals_offline_count(workspace, run_dirs):
    """metrics.json's three_sigma_cover is the share of run-epochs from epoch
    n // 10 on with |error| < 3 sigma, counted as criterion 4 counts it: one
    run_filter call per run, from cmd_run's start angles."""
    m = json.loads((run_dirs["gp-iekf"] / "metrics.json").read_text())
    records = world.read_dataset(workspace / "data" / "test.csv")
    pair = heading.HeadingGpPair.load(workspace / "models")
    meas = pipeline._measurements_for("gp-iekf", records, pair, None)
    n = len(records)
    post = slice(n // 10, None)
    covered, total = 0, 0
    for r in range(m["monte_carlo_runs"]):
        rng = np.random.default_rng([m["seed"], r])
        std = math.sqrt(m["init_error_var"])
        theta0 = so2.wrap_angle(records.gt_heading[0] + std * rng.standard_normal())
        e, s3, _ = pipeline.run_filter(records, meas, m["q_c"], theta0, m["init_error_var"])
        covered += int(np.sum(np.abs(e[post]) < s3[post]))
        total += e[post].size
    assert total == m["monte_carlo_runs"] * (n - n // 10)
    assert 0.0 < m["three_sigma_cover"] < 1.0
    assert m["three_sigma_cover"] == covered / total
    for d in run_dirs.values():
        assert 0.0 <= json.loads((d / "metrics.json").read_text())["three_sigma_cover"] <= 1.0


def test_load_traces_matches_genfromtxt(run_dirs):
    for d in run_dirs.values():
        raw = np.atleast_2d(np.genfromtxt(d / "traces.csv", delimiter=",", skip_header=1))
        _, t, err, sig, mahal = _load_traces(d)
        runs = err.shape[0]
        assert same_bits(t, np.unique(raw[:, 0]))
        for col, got in zip((2, 3, 4), (err, sig, mahal)):
            assert same_bits(got, raw[:, col].reshape(runs, t.size))
    # deadreckon never corrects: every Mahalanobis entry is NaN
    assert np.isnan(_load_traces(run_dirs["deadreckon"])[4]).all()


def test_run_is_seed_deterministic(workspace, run_dirs):
    cfg = pipeline.RunConfig(estimator="mag-iekf", monte_carlo_runs=5, seed=1)
    d = workspace / "runs" / "mag-iekf-again"
    pipeline.cmd_run(workspace / "data" / "test.csv", None, cfg, d)
    assert (d / "traces.csv").read_bytes() == (
        run_dirs["mag-iekf"] / "traces.csv"
    ).read_bytes()


def test_report_outputs(run_dirs, tmp_path):
    written = pipeline.cmd_report(list(run_dirs.values()), tmp_path / "report")
    names = {p.name for p in written}
    assert {
        "error_bounds_gp-iekf.csv",
        "error_bounds_deadreckon.csv",
        "mahalanobis.csv",
        "abs_error.csv",
    } <= names
    mahal_lines = (tmp_path / "report" / "mahalanobis.csv").read_text().splitlines()
    assert mahal_lines[0].endswith(",bound")
    bound = repr(pipeline.MAHALANOBIS_BOUND_997)
    assert all(line.endswith("," + bound) for line in mahal_lines[1:])
    abs_header = (tmp_path / "report" / "abs_error.csv").read_text().splitlines()[0]
    assert "abs_error_gp-iekf" in abs_header and "abs_error_deadreckon" in abs_header


def test_report_missing_traces_is_data_error(tmp_path):
    with pytest.raises(pipeline.DataError):
        pipeline.cmd_report([tmp_path / "nope"], tmp_path / "report")


def test_cli_report_rejects_runs_on_different_time_bases(tmp_path, capsys):
    dirs = []
    # 100 and 50 epochs at 5 Hz, one estimator each: a report takes one run dir per estimator
    for test_s, est in ((20.0, "deadreckon"), (10.0, "mag-iekf")):
        gen = pipeline.GenerateConfig(seed=3, train_duration_s=30.0, test_duration_s=test_s,
                                      rate_hz=5.0)
        pipeline.cmd_generate(gen, tmp_path / f"data{test_s:g}")
        d = tmp_path / f"run{test_s:g}"
        pipeline.cmd_run(tmp_path / f"data{test_s:g}" / "test.csv", None,
                         pipeline.RunConfig(estimator=est, monte_carlo_runs=1), d)
        dirs.append(str(d))
    out = tmp_path / "report"
    assert pipeline.main(["report", "--runs-dirs", *dirs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "time base" in err and dirs[0] in err and dirs[1] in err
    assert not out.exists()


def test_traces_and_report_are_pinned(tmp_path):
    """mag-iekf and deadreckon traces (2 runs each) and the report over them,
    on the seed-3 world of test_world's pinned-world test, hash to fixed
    digests. gp-iekf is left out: its bits pass through BLAS kernels that
    can differ by CPU."""
    gen = pipeline.GenerateConfig(seed=3, train_duration_s=30.0, test_duration_s=10.0,
                                  rate_hz=5.0)
    pipeline.cmd_generate(gen, tmp_path / "data")
    dirs = [tmp_path / est for est in ("mag-iekf", "deadreckon")]
    for d in dirs:
        cfg = pipeline.RunConfig(estimator=d.name, monte_carlo_runs=2)
        pipeline.cmd_run(tmp_path / "data" / "test.csv", None, cfg, d)
    pipeline.cmd_report(dirs, tmp_path / "report")
    files = [d / "traces.csv" for d in dirs] + sorted((tmp_path / "report").iterdir())
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }
    assert digests == {
        "mag-iekf/traces.csv": "0b52bc5204c3cef9c5d982816017d6cc702cbdd39d70369aadc421c7ba02da73",
        "deadreckon/traces.csv": "55a3605dc31db8db4e80f751f5680aa7e3f3daa2433c9e9da4bfa61413b51b28",
        "report/abs_error.csv": "7b2520cfbf4b998321bb74837795ae4cea1086a59297e4874da3f231ca3add3b",
        "report/error_bounds_deadreckon.csv":
            "b1638b9cfd6661fc3628d149c15119e5b9a48a382ed816a25778edf8e6549cd6",
        "report/error_bounds_mag-iekf.csv":
            "965234f651132df8f20a1897e9b5a402194e9ac699a81375c12c24e31427db8b",
        "report/mahalanobis.csv": "e365b953953c21f5942466b6b3034e6e17ed6ba6bc16c412717cedb3f87e3ef6",
    }


def test_traces_and_report_are_pinned_at_the_reference_size(tmp_path):
    """mag-iekf and deadreckon at 100 runs over the default seed-0 test split
    (3000 epochs), and the report over them, hash to fixed digests. Most
    later runs join run 0 here, so traces.csv is mostly text shared with run
    0's. The train split is cut: it does not change the test split."""
    pipeline.cmd_generate(pipeline.GenerateConfig(seed=0, train_duration_s=1.0),
                          tmp_path / "data")
    dirs = [tmp_path / est for est in ("mag-iekf", "deadreckon")]
    for d in dirs:
        cfg = pipeline.RunConfig(estimator=d.name, monte_carlo_runs=100)
        m = pipeline.cmd_run(tmp_path / "data" / "test.csv", None, cfg, d)
        assert m["n_epochs"] == 3000
    pipeline.cmd_report(dirs, tmp_path / "report")
    files = [d / "traces.csv" for d in dirs] + sorted((tmp_path / "report").iterdir())
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }
    assert digests == {
        "mag-iekf/traces.csv": "a7a1f459a0d20f0a51fb52ebb0ae6c188622136ed11177b123da9913fa645e68",
        "deadreckon/traces.csv": "f8896cdbffff1a1e5242a8330b219b54e1ce8bbdd0a9612e7980c48db7e83ff0",
        "report/abs_error.csv": "afaf07c83cb0712ee7bf28f943026fa608a1a1d779de9ffd3d7303585d84e1f0",
        "report/error_bounds_deadreckon.csv":
            "340fdcde8de765a5e2acdb833057376b3ff52dc40871d10e8360268f34823261",
        "report/error_bounds_mag-iekf.csv":
            "8480aa9ef1f64124bc8f5760c598822382e0f02cd413feb683a3dcee3e7f9f29",
        "report/mahalanobis.csv": "f672e963ca41bbf527bf1cca46d2b5eae494066611f9fe55808eefd960fbd8e4",
    }


def test_negated_cells_equal_repr_of_negation():
    """Flipping the sign of repr(x)'s text gives repr(-x): over random bit
    patterns (every exponent, subnormals and NaN payloads included), signed
    zeros, infinities and NaN."""
    bits = np.random.default_rng(0).integers(-(2**63), 2**63 - 1, 20000, dtype=np.int64)
    values = [*bits.view(np.float64).tolist(), 0.0, -0.0, math.inf, -math.inf, math.nan,
              -math.nan, 5e-324, -5e-324, 1e16, 1.7976931348623157e308]
    cells = [repr(x) for x in values]
    assert pipeline._negated_cells(cells) == [repr(-x) for x in values]


def test_report_epoch_that_no_run_corrected_is_nan_without_warning(tmp_path, monkeypatch):
    """An epoch that no run corrected, as a degenerate gp-iekf epoch (the runs
    share their measurements), gets a NaN mean in epoch_means.npy and
    mahalanobis.csv, and neither run nor report raises a warning."""
    gen = pipeline.GenerateConfig(seed=3, train_duration_s=30.0, test_duration_s=10.0,
                                  rate_hz=5.0)
    pipeline.cmd_generate(gen, tmp_path / "data")
    k = 7
    measurements_for = pipeline._measurements_for

    def without_epoch_k(*args):
        measurements = measurements_for(*args)
        measurements[k] = None
        return measurements

    monkeypatch.setattr(pipeline, "_measurements_for", without_epoch_k)
    d = tmp_path / "mag-iekf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline.cmd_run(tmp_path / "data" / "test.csv", None,
                         pipeline.RunConfig(estimator="mag-iekf", monte_carlo_runs=2), d)
        pipeline.cmd_report([d], tmp_path / "report")
    _, t, _, _, mahal = _load_traces(d)
    assert np.isnan(mahal[:, k]).all() and not np.isnan(np.delete(mahal, k, axis=1)).any()
    means = world.read_table(tmp_path / "report" / "mahalanobis.csv",
                             ("t", "mean_mahalanobis_mag-iekf", "bound"))[:, 1]
    assert np.isnan(means[k])
    others = np.delete(np.arange(t.size), k)
    assert same_bits(means[others], np.nanmean(mahal[:, others], axis=0))
    assert np.array_equal(np.load(d / "epoch_means.npy")[4], means, equal_nan=True)


def _npy_rewritten(data: bytes, header_edit=dict, data_edit=bytes) -> bytes:
    """The .npy file `data` with its header's dict (descr, fortran_order,
    shape) and its array's bytes rewritten by the two edits."""
    array = np.load(io.BytesIO(data))
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, header_edit(np.lib.format.header_data_from_array_1_0(array))
    )
    return out.getvalue() + data_edit(array.tobytes())


def _npy_edit(header_edit=dict, data_edit=bytes):
    """An edit of the .npy file at a path by `_npy_rewritten`."""
    return lambda path: path.write_bytes(_npy_rewritten(path.read_bytes(), header_edit, data_edit))


def _npy_resaved(edit):
    """An edit that saves `edit` of the array in the .npy file at a path."""
    def apply(path):
        np.save(path, edit(np.load(path)))

    return apply


# each epoch_means.npy edit is the binary kind of a traces.csv fault: a bad
# header, a row too short, cells that fill the wrong rows, a cell that is not
# a number, an empty cell, epoch-major rows and a key column out of order
@pytest.mark.parametrize(
    "target, edit, message",
    [
        ("epoch_means.npy",
         _npy_edit(lambda h: {("descx" if k == "descr" else k): v for k, v in h.items()}),
         "Header does not contain the correct keys"),
        ("epoch_means.npy", _npy_edit(data_edit=lambda b: b[:-8]),
         "needs 12000 bytes of data, but 11992 follow it"),
        ("epoch_means.npy", _npy_edit(lambda h: {**h, "shape": (math.prod(h["shape"]),)}),
         "float64 of shape (1500,), not float64 of shape (5, n)"),
        ("epoch_means.npy", _npy_resaved(lambda a: np.full(a.shape, "abc")),
         "<U3 of shape (5, 300), not float64"),
        ("epoch_means.npy", _npy_resaved(lambda a: a[:, :0]), "of shape (5, 0), not"),
        ("epoch_means.npy", _npy_resaved(lambda a: a.T), "of shape (300, 5), not"),
        ("epoch_means.npy", _npy_resaved(lambda a: np.vstack([np.full_like(a[0], 7.0), a[1:]])),
         "t row is not finite and strictly increasing"),
        ("epoch_means.npy",
         lambda p: np.save(p, np.array([None] * 5, dtype=object), allow_pickle=True),
         "which holds Python objects, is not read"),
        # a header that claims 16 TB: refused before anything is allocated
        ("epoch_means.npy", _npy_edit(lambda h: {**h, "shape": (200000000000, 10)}),
         "needs 16000000000000 bytes of data, but 12000 follow it"),
        # a run dir written before run saved its means must be re-run: report
        # does not fall back on the traces
        ("epoch_means.npy", Path.unlink, "No such file"),
        ("metrics.json", lambda p: p.write_text("{"), "not valid JSON"),
        ("metrics.json", lambda p: p.write_text("[]"), "got None"),
        ("metrics.json", lambda p: p.write_text("{}"), "got None"),
        ("metrics.json", lambda p: p.write_text('{"estimator": "../ekf"}'), "got '../ekf'"),
        ("metrics.json", lambda p: p.write_text('{"estimator": ["mag-iekf"]}'),
         "got ['mag-iekf']"),
    ],
    ids=["wrong-header", "short-row", "short-then-long-row", "bad-token", "empty-cell",
         "epoch-major-rows", "run-ids-all-7", "pickled-objects", "huge-shape-header",
         "missing-epoch-means",
         "metrics-not-json", "metrics-not-object", "metrics-without-estimator",
         "metrics-unknown-estimator", "metrics-estimator-not-string"],
)
def test_cli_report_rejects_malformed_traces(run_dirs, tmp_path, capsys, target, edit, message):
    """A run dir's report inputs, its metrics.json and epoch_means.npy (the
    per-epoch means of its traces), each malformed: report exits 2 naming
    the file and writes nothing."""
    d = tmp_path / "run"
    shutil.copytree(run_dirs["mag-iekf"], d)
    path = d / target
    edit(path)
    out = tmp_path / "report"
    assert pipeline.main(["report", "--runs-dirs", str(d), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["metrics.json", "epoch_means.npy"])
def test_cli_report_input_is_directory(run_dirs, tmp_path, capsys, target):
    d = tmp_path / "run"
    shutil.copytree(run_dirs["mag-iekf"], d)
    _to_directory(d / target)
    out = tmp_path / "report"
    assert pipeline.main(["report", "--runs-dirs", str(d), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(d / target) in err
    assert not out.exists()


def test_report_reads_no_traces(run_dirs, tmp_path):
    """The report is the same, byte for byte, after every traces.csv is gone."""
    dirs = []
    for est, d in run_dirs.items():
        dirs.append(tmp_path / est)
        shutil.copytree(d, dirs[-1])
        (dirs[-1] / "traces.csv").unlink()
    pipeline.cmd_report(list(run_dirs.values()), tmp_path / "with")
    pipeline.cmd_report(dirs, tmp_path / "without")
    names = sorted(p.name for p in (tmp_path / "with").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "without").iterdir())
    for name in names:
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()


@pytest.mark.parametrize("runs", [1, 2, 100])
def test_epoch_means_are_the_means_of_the_parsed_traces(workspace, tmp_path, runs):
    """epoch_means.npy holds, bit for bit, t and the per-epoch means over the
    runs of traces.csv parsed back (error, |error|, 3-sigma, and the
    Mahalanobis mean of the runs that corrected)."""
    for est in pipeline.ESTIMATORS:
        d = tmp_path / est
        cfg = pipeline.RunConfig(estimator=est, monte_carlo_runs=runs, seed=2)
        pipeline.cmd_run(workspace / "data" / "test.csv",
                         workspace / "models" if est == "gp-iekf" else None, cfg, d)
        _, t, err, sig, mahal = _load_traces(d)
        assert err.shape == (runs, t.size)
        means = np.load(d / "epoch_means.npy", allow_pickle=False)
        assert means.dtype == np.float64 and means.shape == (len(pipeline.EPOCH_MEANS_ROWS), t.size)
        want = [t, err.mean(axis=0), np.abs(err).mean(axis=0), sig.mean(axis=0),
                pipeline._mean_of_corrected(mahal)]
        assert all(same_bits(got, row) for got, row in zip(means, want))


def test_run_reads_crlf_dataset(workspace, run_dirs, tmp_path):
    """A dataset with CRLF line ends gives the same traces and means as with LF."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("test.csv", "test.meta.json"):
        shutil.copy(workspace / "data" / name, data / name)
    (data / "test.csv").write_bytes((data / "test.csv").read_bytes().replace(b"\n", b"\r\n"))
    cfg = pipeline.RunConfig(estimator="mag-iekf", monte_carlo_runs=5, seed=1)
    pipeline.cmd_run(data / "test.csv", None, cfg, tmp_path / "run")
    for name in ("traces.csv", "epoch_means.npy"):
        assert (tmp_path / "run" / name).read_bytes() == (run_dirs["mag-iekf"] / name).read_bytes()


def test_cli_report_rejects_two_runs_of_one_estimator(run_dirs, tmp_path, capsys):
    dirs = [str(run_dirs["deadreckon"]), str(run_dirs["mag-iekf"]), str(tmp_path / "again")]
    shutil.copytree(run_dirs["mag-iekf"], dirs[2])
    out = tmp_path / "report"
    assert pipeline.main(["report", "--runs-dirs", *dirs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "mag-iekf" in err and dirs[1] in err and dirs[2] in err
    assert not out.exists()


# --- shuffled-feature ablation -------------------------------------------------------


def test_shuffled_anchor_columns_degrade_gp(workspace):
    pair = heading.HeadingGpPair.load(workspace / "models")
    recs = world.read_dataset(workspace / "data" / "test.csv")
    feats = np.array([r.feature_vector() for r in recs])
    gts = np.array([r.gt_heading for r in recs])

    def rmse(features):
        errs = []
        for pt, gt in zip(heading.predict_pseudo_trig_many(pair, features), gts):
            try:
                m = heading.normalize(pt)
            except heading.DegeneratePredictionError:
                continue
            errs.append(so2.wrap_angle(m.angle - gt))
        return math.degrees(float(np.sqrt(np.mean(np.square(errs))))) if errs else 180.0

    base = rmse(feats)
    rng = np.random.default_rng(0)
    shuffled = feats.copy()
    perm = rng.permutation(len(recs))
    shuffled[:, 5:] = shuffled[perm, 5:]  # break range/rss pairing
    assert base < 30.0
    assert rmse(shuffled) > 2.0 * base


# --- CLI surface --------------------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "generate": dict(SMALL_GEN, train_duration_s=120.0, test_duration_s=30.0),
                "train": {"max_points": 250},
                "run": {"estimator": "mag-iekf", "monte_carlo_runs": 3},
            }
        )
    )
    data, models, run, rep = (
        str(tmp_path / n) for n in ("data", "models", "run", "report")
    )
    assert pipeline.main(["generate", "--config", str(cfg), "--seed", "2", "--out", data]) == 0
    assert pipeline.main(
        ["train", "--config", str(cfg), "--dataset", f"{data}/train.csv", "--out", models]
    ) == 0
    assert pipeline.main(
        ["run", "--config", str(cfg), "--dataset", f"{data}/test.csv", "--out", run]
    ) == 0
    assert pipeline.main(["report", "--runs-dirs", run, "--out", rep]) == 0
    out = capsys.readouterr().out
    assert "RMSE" in out
    assert (tmp_path / "report" / "abs_error.csv").exists()


def test_cli_nan_mag_is_data_error(workspace, tmp_path, capsys):
    src = workspace / "data" / "test.csv"
    lines = src.read_text().splitlines()
    col = world.DATASET_COLUMNS.index("mag")
    cells = lines[3].split(",")
    cells[col] = "nan"
    lines[3] = ",".join(cells)
    bad = tmp_path / "test.csv"
    bad.write_text("\n".join(lines) + "\n")
    world.metadata_path(bad).write_text(world.metadata_path(src).read_text())
    argv = ["run", "--estimator", "mag-iekf", "--runs", "1", "--out", str(tmp_path / "r")]
    assert pipeline.main(argv + ["--dataset", str(src)]) == 0
    assert pipeline.main(argv + ["--dataset", str(bad)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, value",
    [("gyro", "nan"), ("t", None), ("range_0", "-1.0"), ("mag", "inf")],
    ids=["nan-gyro", "duplicate-t", "negative-range", "inf-mag"],
)
@pytest.mark.parametrize(
    "command",
    [["train"], ["run", "--estimator", "deadreckon", "--runs", "1"]],
    ids=["train", "run-deadreckon"],
)
def test_cli_bad_dataset_row_is_data_error(workspace, tmp_path, capsys, column, value, command):
    # value None: copy the previous row's cell (a duplicate timestamp)
    src = workspace / "data" / "test.csv"
    lines = src.read_text().splitlines()
    col = world.DATASET_COLUMNS.index(column)
    cells = lines[3].split(",")
    cells[col] = lines[2].split(",")[col] if value is None else value
    lines[3] = ",".join(cells)
    bad = tmp_path / "test.csv"
    bad.write_text("\n".join(lines) + "\n")
    world.metadata_path(bad).write_text(world.metadata_path(src).read_text())
    assert pipeline.main(command + ["--dataset", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "line 4" in capsys.readouterr().err


def test_cli_train_dataset_is_directory(tmp_path, capsys):
    dataset = tmp_path / "train.csv"
    dataset.mkdir()
    out = tmp_path / "models"
    assert pipeline.main(["train", "--dataset", str(dataset), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(dataset) in err
    assert not out.exists()


@pytest.mark.parametrize("command, value", [("train", "1e300"), ("run", "1.7e308")])
def test_cli_overflowing_range_is_data_error(workspace, tmp_path, capsys, command, value):
    """A finite range so large that the standardizer's spread (train) or the
    query distances (run) overflow: dataset rows the GPs cannot fit or
    predict on, a data error that names the dataset."""
    src = workspace / "data" / "test.csv"
    lines = src.read_text().splitlines()
    col = world.DATASET_COLUMNS.index("range_0")
    cells = lines[3].split(",")
    cells[col] = value
    lines[3] = ",".join(cells)
    bad = tmp_path / "test.csv"
    bad.write_text("\n".join(lines) + "\n")
    world.metadata_path(bad).write_text(world.metadata_path(src).read_text())
    argv = [command, "--dataset", str(bad), "--out", str(tmp_path / "out")]
    if command == "run":
        argv += ["--estimator", "gp-iekf", "--runs", "1", "--models", str(workspace / "models")]
    assert pipeline.main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(bad) in err
    assert not (tmp_path / "out").exists()


def test_cli_bug_is_not_a_data_error(workspace, tmp_path, monkeypatch):
    """A ValueError that no input explains is a bug: main lets it propagate
    instead of reporting a data error."""
    def broken(*args):
        raise ValueError("bug")

    monkeypatch.setattr(iekf, "filter_runs", broken)
    argv = ["run", "--estimator", "deadreckon", "--runs", "1",
            "--dataset", str(workspace / "data" / "test.csv"), "--out", str(tmp_path / "r")]
    with pytest.raises(ValueError, match="bug"):
        pipeline.main(argv)


@pytest.mark.parametrize("command", ["train", "run"])
def test_cli_linalg_error_is_numerical_failure(workspace, tmp_path, capsys, monkeypatch, command):
    """A LinAlgError, though a ValueError, from the fit or the prediction is
    a numerical failure (exit 3), not a data error."""
    def breakdown(*args, **kwargs):
        raise np.linalg.LinAlgError("dtrtrs failed with info=3")

    name = "train_heading_gps" if command == "train" else "predict_pseudo_trig_arrays"
    monkeypatch.setattr(heading, name, breakdown)
    argv = [command, "--dataset", str(workspace / "data" / "test.csv"), "--out", str(tmp_path / "o")]
    if command == "run":
        argv += ["--runs", "1", "--models", str(workspace / "models")]
    assert pipeline.main(argv) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_module_entry_point_runs_without_runpy_warning():
    """`python -m uwbheading.pipeline` runs without runpy's warning that
    importing the package already loaded the module."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning:runpy", "-m", "uwbheading.pipeline",
         "--help"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_exit_codes(tmp_path):
    assert pipeline.main(["frobnicate"]) == 1
    assert pipeline.main(["generate"]) == 1  # missing --out
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"generate": {"nonsense": 1}}))
    assert pipeline.main(
        ["generate", "--config", str(bad_cfg), "--out", str(tmp_path / "d")]
    ) == 1
    assert pipeline.main(
        ["run", "--dataset", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r")]
    ) == 2
    assert pipeline.main(
        [
            "run", "--dataset", str(tmp_path / "missing.csv"),
            "--estimator", "gp-iekf", "--out", str(tmp_path / "r"),
        ]
    ) == 2


@pytest.mark.parametrize("kind", ["file", "under-file", "dangling-link"])
@pytest.mark.parametrize("command", ["generate", "train", "run", "report"])
def test_cli_unusable_out_is_usage_error(
    workspace, run_dirs, tmp_path, capsys, monkeypatch, command, kind
):
    """An --out that is a file, lies under one, or is a link to nowhere
    exits 1 naming that path before the command does any work; the path is
    left as it was."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(heading, "train_heading_gps", must_not_run)
    monkeypatch.setattr(pipeline, "run_filter", must_not_run)
    blocker = tmp_path / "blocker"
    if kind == "dangling-link":
        blocker.symlink_to(tmp_path / "nowhere")
    else:
        blocker.write_text("keep\n")
    out = blocker / "sub" / "deeper" if kind == "under-file" else blocker
    data = str(workspace / "data" / "test.csv")
    argv = {
        "generate": ["generate"],
        "train": ["train", "--dataset", data],
        "run": ["run", "--dataset", data, "--runs", "1", "--models", str(workspace / "models")],
        "report": ["report", "--runs-dirs", *map(str, run_dirs.values())],
    }[command] + ["--out", str(out)]
    assert pipeline.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{blocker} is not a directory" in err
    if kind == "dangling-link":
        assert blocker.is_symlink() and not (tmp_path / "nowhere").exists()
    else:
        assert blocker.read_text() == "keep\n"


def test_cli_gp_iekf_without_models_is_usage_error(workspace, tmp_path, capsys):
    out = tmp_path / "r"
    argv = ["run", "--dataset", str(workspace / "data" / "test.csv"), "--runs", "1",
            "--out", str(out)]
    assert pipeline.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "requires --models" in err
    assert not out.exists()


def copy_dataset(workspace, tmp_path, edit_meta=None):
    """The test split copied into tmp_path; `edit_meta(meta)` edits its
    metadata, None drops the metadata file."""
    src = workspace / "data" / "test.csv"
    dst = tmp_path / "test.csv"
    dst.write_text(src.read_text())
    if edit_meta is not None:
        meta = world.read_metadata(src)
        edit_meta(meta)
        world.metadata_path(dst).write_text(json.dumps(meta))
    return dst


@pytest.mark.parametrize(
    "key, value",
    [
        ("q_c", -1.0), ("q_c", 0.0), ("q_c", math.nan), ("q_c", math.inf),
        ("init_error_var", math.nan), ("init_error_var", math.inf),
        ("q_c", True), ("q_c", "3e-3"), ("init_error_var", True),
        ("monte_carlo_runs", 2.5), ("monte_carlo_runs", True), ("monte_carlo_runs", 0),
        ("seed", "x"), ("seed", -1), ("seed", 1.0), ("seed", False),
        # keys that RunConfig no longer has, at values they once took
        ("gate", False), ("steady_fraction", 0.5),
        ("estimator", ["deadreckon"]),
    ],
)
def test_cli_bad_run_config_is_usage_error(workspace, tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"run": {"estimator": "deadreckon", key: value}}))
    argv = ["run", "--config", str(cfg), "--dataset", str(workspace / "data" / "test.csv"),
            "--out", str(tmp_path / "r")]
    assert pipeline.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "x"), ("seed", True), ("seed", -1), ("seed", 0.5),
        ("rate_hz", -1), ("rate_hz", 0), ("rate_hz", math.inf), ("rate_hz", True),
        ("train_duration_s", 0), ("test_duration_s", "300"),
        ("range_std", -0.1), ("rss_std", math.nan), ("gyro_psd", True), ("mag_std", "0.05"),
        ("rss_quantum", 0), ("range_std", 10**400), ("rss_quantum", "1"),
        # epoch counts that generate cannot make, or train (< 2) or run (< 1) cannot use
        ("rate_hz", 1e308), ("train_duration_s", 0.1), ("test_duration_s", 0.04),
    ],
)
def test_cli_bad_generate_config_is_usage_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generate": {key: value}}))
    out = tmp_path / "data"
    assert pipeline.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("area_width", 4.0), ("area_height", 2.0),
        ("train_profile", "smooth-random"), ("test_profile", "smooth-random"),
        ("pattern_g0", 0.0), ("pattern_a2", 4.0), ("pattern_phi2", 0.0),
        ("pattern_a1", 2.0), ("pattern_phi1", 0.0),
        ("pathloss_p0", -75.0), ("pathloss_d0", 1.0), ("pathloss_gamma", 1.8),
    ],
)
def test_cli_generate_rejects_world_keys(tmp_path, capsys, key, value):
    """The arena, antenna pattern, path loss and trajectory profile are
    world's defaults, not generate settings: naming one, even at its
    default value, is an unknown key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generate": {key: value}}))
    out = tmp_path / "data"
    assert pipeline.main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unknown GenerateConfig keys" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("value", [2.5, 1000.0, "10", True, 1])
def test_cli_bad_train_config_is_usage_error(workspace, tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_points": value}}))
    out = tmp_path / "models"
    argv = ["train", "--config", str(cfg), "--dataset", str(workspace / "data" / "train.csv"),
            "--out", str(out)]
    assert pipeline.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "max_points" in err
    assert not out.exists()


def _set_noise(key, value):
    def edit(meta):
        if value is None:
            del meta["noise"][key]
        else:
            meta["noise"][key] = value

    return edit


@pytest.mark.parametrize(
    "estimator, edit, q_c, message",
    [
        ("deadreckon", _set_noise("gyro_psd", -1.0), None, "gyro_psd"),
        ("deadreckon", _set_noise("gyro_psd", 0.0), None, "gyro_psd"),
        ("deadreckon", _set_noise("gyro_psd", math.nan), None, "gyro_psd"),
        ("deadreckon", _set_noise("gyro_psd", math.inf), None, "gyro_psd"),
        ("deadreckon", _set_noise("gyro_psd", "fast"), None, "gyro_psd"),
        ("deadreckon", _set_noise("gyro_psd", None), None, "gyro_psd"),
        ("deadreckon", _set_noise("gyro_psd", True), None, "gyro_psd"),
        ("mag-iekf", _set_noise("mag_std", None), 3e-3, "mag_std"),
        ("mag-iekf", _set_noise("mag_std", "0.05"), 3e-3, "mag_std"),
        ("mag-iekf", _set_noise("mag_std", math.nan), 3e-3, "mag_std"),
        ("mag-iekf", _set_noise("mag_std", True), 3e-3, "mag_std"),
        # squared into the magnetometer variance, these overflow a float
        ("mag-iekf", _set_noise("mag_std", 1e200), 3e-3, "mag_std"),
        ("mag-iekf", _set_noise("mag_std", 10**200), 3e-3, "mag_std"),
        # an integer beyond the float range
        ("deadreckon", _set_noise("gyro_psd", 10**400), None, "gyro_psd"),
        ("mag-iekf", None, 3e-3, "meta.json"),
        ("deadreckon", None, 3e-3, "meta.json"),
    ],
    ids=[
        "negative-psd", "zero-psd", "nan-psd", "inf-psd", "string-psd", "no-psd", "bool-psd",
        "mag-without-mag-std", "string-mag-std", "nan-mag-std", "bool-mag-std",
        "huge-mag-std", "huge-int-mag-std", "huge-int-psd",
        "mag-without-metadata",
        "deadreckon-without-metadata",
    ],
)
def test_cli_bad_metadata_is_data_error(workspace, tmp_path, capsys, estimator, edit, q_c, message):
    dataset = copy_dataset(workspace, tmp_path, edit)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"run": {} if q_c is None else {"q_c": q_c}}))
    argv = ["run", "--config", str(cfg), "--estimator", estimator, "--runs", "1",
            "--dataset", str(dataset), "--out", str(tmp_path / "r")]
    assert pipeline.main(argv) == 2
    assert message in capsys.readouterr().err


def test_cli_runs_a_noiseless_gyro_dataset_given_q_c(tmp_path, capsys):
    """generate accepts gyro_psd 0 (a noiseless gyro); run filters that
    dataset with the config's q_c, and without one exits 2 naming both."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "generate": {"gyro_psd": 0.0, "train_duration_s": 30.0, "test_duration_s": 10.0,
                     "rate_hz": 5.0},
        "run": {"q_c": 0.003},
    }))
    data = tmp_path / "data"
    assert pipeline.main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert world.read_metadata(data / "test.csv")["noise"]["gyro_psd"] == 0.0
    run = ["run", "--estimator", "deadreckon", "--runs", "1",
           "--dataset", str(data / "test.csv")]
    assert pipeline.main([*run, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert json.loads((tmp_path / "r" / "metrics.json").read_text())["q_c"] == 0.003
    capsys.readouterr()
    assert pipeline.main([*run, "--out", str(tmp_path / "no-q_c")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "gyro_psd" in err and "q_c" in err
    assert not (tmp_path / "no-q_c").exists()


def _write(text):
    return lambda path: path.write_text(text)


def _to_directory(path):
    path.unlink()
    path.mkdir()


def _drop_hyper(path):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files if k != "hyper"}
    np.savez(path, **arrays)


def _reshape_array(key, edit):
    def rewrite(path):
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays[key] = edit(arrays[key])
        np.savez(path, **arrays)

    return rewrite


def _flag_strong_encryption(path):
    """Set general-purpose flag bit 6 in the archive's first central
    directory entry, which zipfile refuses as strong encryption."""
    data = bytearray(path.read_bytes())
    at = data.index(b"PK\x01\x02") + 8
    data[at] |= 0x40
    path.write_bytes(bytes(data))


def _unclose_npy_header(path):
    """Blank the `)` that closes x.npy's shape tuple in its header, with the
    archive's CRCs kept valid."""
    with zipfile.ZipFile(path) as z:
        members = {name: z.read(name) for name in z.namelist()}
    header = members["x.npy"]
    at = header.index(b")", header.index(b"'shape': ("))
    members["x.npy"] = header[:at] + b" " + header[at + 1:]
    with zipfile.ZipFile(path, "w") as z:
        for name, data in members.items():
            z.writestr(name, data)


def _npz_member_edit(member, header_edit):
    """An edit of the .npz archive at a path that rewrites the header of its
    `member` by `_npy_rewritten`, with the archive's CRCs kept valid."""
    def apply(path):
        with zipfile.ZipFile(path) as z:
            members = {name: z.read(name) for name in z.namelist()}
        members[member] = _npy_rewritten(members[member], header_edit)
        with zipfile.ZipFile(path, "w") as z:
            for name, data in members.items():
                z.writestr(name, data)

    return apply


def _one_output_model(path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(120, 10))
    model = gp.GpModel.from_params(
        gp.TrainingSet.from_raw(x, np.sin(x[:, 0])), gp.SeKernelParams(1.0, 1.0, 0.1)
    )
    with path.open("wb") as f:  # under this name, not with np.savez's added .npz
        model.save(f)


def _two_archives_own_kernels(path):
    """The model directory as trained when each GP had its own kernel and
    archive, with a manifest naming the two."""
    pair = heading.HeadingGpPair.load(path.parent)
    path.unlink()
    pair.gp_sin.save(path.parent / "gp_sin.npz")
    cos = pair.gp_cos
    p = cos.params
    gp.GpModel.from_params(
        cos.train, gp.SeKernelParams(1.5 * p.sigma_f, p.sigma_l, p.sigma_n), y_mean=cos.y_mean
    ).save(path.parent / "gp_cos.npz")
    (path.parent / "heading_model.json").write_text(
        '{"files": {"sin": "gp_sin.npz", "cos": "gp_cos.npz"}}\n'
    )


@pytest.mark.parametrize(
    "target, edit, code, message",
    [
        ("data/test.csv", lambda p: p.write_text(p.read_text().rsplit(",", 1)[0]), 2, "row width"),
        ("data/test.csv", _write(",".join(world.DATASET_COLUMNS) + "\n"), 2, "empty dataset"),
        ("data/test.csv", _to_directory, 2, "data/test.csv"),
        ("data/test.meta.json", Path.unlink, 2, "test.meta.json"),
        ("data/test.meta.json", _write("{"), 2, "test.meta.json"),
        ("data/test.meta.json", _write("[]"), 2, "JSON objects"),
        ("data/test.meta.json", _write('{"noise": 3}'), 2, "JSON objects"),
        ("models/heading_model.npz", Path.unlink, 2, "heading_model.npz"),
        ("models/heading_model.npz", lambda p: p.write_bytes(p.read_bytes()[:200]), 2, "heading_model.npz"),
        ("models/heading_model.npz", _to_directory, 2, "models/heading_model.npz"),
        ("models/heading_model.npz", _drop_hyper, 2, "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("hyper", lambda h: h[:2]), 2, "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("hyper", lambda h: np.append(h, 1.0)), 2, "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("hyper", lambda h: h[None, :]), 2, "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("hyper", lambda h: np.array(["f", "l", "n"])), 2,
         "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("y_mean", lambda m: np.array([m, m])), 2, "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("x", np.ravel), 2, "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("std_mean", lambda m: m[:3]), 2, "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("hyper", lambda h: -h), 2, "heading_model.npz"),
        ("models/heading_model.npz", _reshape_array("y_mean", lambda m: np.full_like(m, np.nan)), 2,
         "heading_model.npz: y_mean must be finite"),
        ("models/heading_model.npz", _reshape_array("std_mean", lambda m: np.append(np.nan, m[1:])), 2,
         "heading_model.npz: standardizer means must be finite"),
        ("models/heading_model.npz", _flag_strong_encryption, 2, "heading_model.npz: strong encryption"),
        ("models/heading_model.npz", _unclose_npy_header, 2, "heading_model.npz: ('EOF in multi-line statement'"),
        # a header that claims 16 TB: refused before anything is allocated
        ("models/heading_model.npz", _npz_member_edit("x.npy", lambda h: {**h, "shape": (200000000000, 10)}),
         2, "heading_model.npz: the header's shape (200000000000, 10) of float64 needs 16000000000000 bytes"),
        # one output where the sin and cos outputs belong
        ("models/heading_model.npz", _one_output_model, 2, "heading_model.npz: y has shape (120,), not (2, n)"),
        # a model directory trained with a kernel per GP, in the two-archive layout
        ("models/heading_model.npz", _two_archives_own_kernels, 2, "models/heading_model.npz"),
        ("cfg.json", _write("[1, 2]"), 1, "JSON objects"),
        ("cfg.json", _write('{"run": "fast"}'), 1, "JSON objects"),
        ("cfg.json", lambda p: p.write_bytes(b'{"run": "\xff"}'), 1, "cfg.json: "),
        ("cfg.json", _to_directory, 1, "cfg.json: "),
    ],
    ids=[
        "truncated-csv", "empty-dataset", "dataset-is-directory", "missing-metadata",
        "corrupt-metadata", "metadata-not-object",
        # the gp-sin-* ids name the model archive, which was gp_sin.npz
        "noise-not-object", "missing-gp-sin", "truncated-gp-sin", "gp-sin-is-directory",
        "gp-sin-without-hyper",
        "gp-sin-two-hyper", "gp-sin-four-hyper", "gp-sin-2d-hyper", "gp-sin-text-hyper",
        "gp-sin-vector-y-mean", "gp-sin-1d-x", "gp-sin-short-std-mean", "gp-sin-negative-hyper",
        "gp-sin-nan-y-mean", "gp-sin-nan-std-mean", "model-encryption-flag",
        "model-unclosed-npy-header", "model-huge-shape-header", "model-one-output", "gp-cos-own-kernel",
        "config-not-object", "config-section-not-object",
        "config-not-utf-8", "config-is-directory",
    ],
)
def test_cli_malformed_input_exit_code(workspace, tmp_path, capsys, target, edit, code, message):
    (tmp_path / "data").mkdir()
    for name in ("test.csv", "test.meta.json"):
        shutil.copy(workspace / "data" / name, tmp_path / "data" / name)
    shutil.copytree(workspace / "models", tmp_path / "models")
    (tmp_path / "cfg.json").write_text("{}")
    edit(tmp_path / target)
    argv = ["run", "--config", str(tmp_path / "cfg.json"), "--estimator", "gp-iekf",
            "--runs", "1", "--dataset", str(tmp_path / "data" / "test.csv"),
            "--models", str(tmp_path / "models"), "--out", str(tmp_path / "r")]
    assert pipeline.main(argv) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
