import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbheading import heading, iekf, pipeline, so2, world

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
    for name in ("sin", "cos"):
        gp_summary = summary[name]
        assert math.isfinite(gp_summary["log_marginal_likelihood"])
        assert gp_summary["lml_evals"] >= 1
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
    traj = world.generate_trajectory(area, duration, rate, "smooth-random", seed=seed)
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


def test_run_filter_gate_skips_outliers():
    recs = clean_records()
    # one wild measurement in the middle; everything else is None
    meas = [None] * len(recs)
    wild = so2.wrap_angle(recs[150].gt_heading + 3.0)
    meas[150] = heading.HeadingMeasurement(angle=wild, var_theta=1e-4)
    gated, _, _ = pipeline.run_filter(
        recs, meas, 1e-12, recs[0].gt_heading, 1e-2, gate=True
    )
    ungated, _, _ = pipeline.run_filter(
        recs, meas, 1e-12, recs[0].gt_heading, 1e-2, gate=False
    )
    assert abs(gated[151]) < 0.1
    assert abs(ungated[151]) > 1.0


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


def reference_run(records, measurements, q_c, theta0, init_var, gate):
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
            updated, stats = iekf.correct(state, meas)
            d = stats.mahalanobis
            if not (gate and d > pipeline.MAHALANOBIS_BOUND_997):
                state = updated
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
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_run_filter_matches_online_loops_bit_for_bit(epochs, starts, q_c, init_var, gate):
    dt, rate, gt, ys, var = zip(*epochs)
    records = columns(np.cumsum(dt), rate, gt)
    measurements = [None if y is None else heading.HeadingMeasurement(y, v) for y, v in zip(ys, var)]
    err, sig3, mahal = pipeline.run_filter(records, measurements, q_c, starts, init_var, gate)
    assert err.shape == sig3.shape == mahal.shape == (len(starts), len(records))
    for r, theta0 in enumerate(starts):
        ref = reference_run(records, measurements, q_c, theta0, init_var, gate)
        assert all(same_bits(got[r], want) for got, want in zip((err, sig3, mahal), ref))
        single = pipeline.run_filter(records, measurements, q_c, theta0, init_var, gate)
        assert all(same_bits(got, want) for got, want in zip(single, ref))


def test_run_filter_innovation_across_pi_and_gate():
    # state just below +pi, measurement just above -pi: the innovation is
    # small once wrapped, so the gate keeps the correction
    recs = columns(np.arange(3.0), np.zeros(3), np.full(3, math.pi))
    meas = [None, heading.HeadingMeasurement(-math.pi + 0.05, 1e-2), None]
    for gate in (False, True):
        err, _, mahal = pipeline.run_filter(recs, meas, 1e-6, [math.pi - 0.05], 1e-2, gate)
        ref = reference_run(recs, meas, 1e-6, math.pi - 0.05, 1e-2, gate)
        assert same_bits(err[0], ref[0]) and same_bits(mahal[0], ref[2])
        assert mahal[0, 1] == pytest.approx(0.1**2 / (2e-2 + 1e-6), rel=1e-9)
        assert abs(err[0, 2]) < 0.05


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
    est, t, err, sig, mahal = pipeline._load_traces(run_dirs["gp-iekf"])
    assert est == "gp-iekf"
    assert err.shape == (5, t.size)
    assert np.all(sig > 0)
    assert np.isfinite(mahal).mean() > 0.9


def test_run_metrics_report_counts_and_stage_times(run_dirs):
    for est, d in run_dirs.items():
        m = json.loads((d / "metrics.json").read_text())
        _, _, _, _, mahal = pipeline._load_traces(d)
        skipped = int(np.isnan(mahal[0]).sum())
        assert m["degenerate_epochs"] == (skipped if est == "gp-iekf" else 0)
        assert m["corrections_gated"] == 0  # gate off
        assert all(m[k] >= 0.0 for k in ("load_s", "predict_s", "filter_s", "write_s"))


def test_run_steady_rmse_over_trailing_window(workspace, run_dirs, tmp_path):
    m = json.loads((run_dirs["gp-iekf"] / "metrics.json").read_text())
    _, t, err, _, _ = pipeline._load_traces(run_dirs["gp-iekf"])
    start = int(t.size * (1.0 - m["steady_fraction"]))
    want = np.degrees(np.sqrt(np.mean(err[:, start:] ** 2, axis=1))).mean()
    assert m["rmse_steady_deg"] == want
    cfg = pipeline.RunConfig(estimator="gp-iekf", monte_carlo_runs=5, seed=1, steady_fraction=1.0)
    whole = pipeline.cmd_run(workspace / "data" / "test.csv", workspace / "models", cfg, tmp_path)
    assert whole["rmse_steady_deg"] == whole["rmse_deg"] == m["rmse_deg"]


def test_gated_run_counts_gated_corrections(workspace, tmp_path):
    cfg = pipeline.RunConfig(estimator="gp-iekf", monte_carlo_runs=3, seed=1, gate=True)
    m = pipeline.cmd_run(workspace / "data" / "test.csv", workspace / "models", cfg, tmp_path)
    _, _, _, _, mahal = pipeline._load_traces(tmp_path)
    assert m["corrections_gated"] == int(np.sum(mahal > pipeline.MAHALANOBIS_BOUND_997))


def test_load_traces_matches_genfromtxt(run_dirs):
    for d in run_dirs.values():
        raw = np.atleast_2d(np.genfromtxt(d / "traces.csv", delimiter=",", skip_header=1))
        _, t, err, sig, mahal = pipeline._load_traces(d)
        runs = err.shape[0]
        assert same_bits(t, np.unique(raw[:, 0]))
        for col, got in zip((2, 3, 4), (err, sig, mahal)):
            assert same_bits(got, raw[:, col].reshape(runs, t.size))
    # deadreckon never corrects: every Mahalanobis entry is NaN
    assert np.isnan(pipeline._load_traces(run_dirs["deadreckon"])[4]).all()


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
    bound = repr(iekf.mahalanobis_bound(0.997))
    assert all(line.endswith("," + bound) for line in mahal_lines[1:])
    abs_header = (tmp_path / "report" / "abs_error.csv").read_text().splitlines()[0]
    assert "abs_error_gp-iekf" in abs_header and "abs_error_deadreckon" in abs_header


def test_report_missing_traces_is_data_error(tmp_path):
    with pytest.raises(pipeline.DataError):
        pipeline.cmd_report([tmp_path / "nope"], tmp_path / "report")


def test_cli_report_rejects_runs_on_different_time_bases(tmp_path, capsys):
    dirs = []
    for test_s in (20.0, 10.0):  # 100 and 50 epochs at 5 Hz
        gen = pipeline.GenerateConfig(seed=3, train_duration_s=30.0, test_duration_s=test_s,
                                      rate_hz=5.0)
        pipeline.cmd_generate(gen, tmp_path / f"data{test_s:g}")
        d = tmp_path / f"run{test_s:g}"
        pipeline.cmd_run(tmp_path / f"data{test_s:g}" / "test.csv", None,
                         pipeline.RunConfig(estimator="deadreckon", monte_carlo_runs=1), d)
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


def _edit_row(k, edit):
    """A traces.csv edit that applies `edit` to the cells of data row k."""
    def apply(text):
        lines = text.splitlines()
        lines[k + 1] = ",".join(edit(lines[k + 1].split(",")))
        return "\n".join(lines) + "\n"

    return apply


def _short_then_long(text):
    # row 1 loses its last cell to row 2: the total cell count is unchanged
    lines = text.splitlines()
    head, _, last = lines[1].rpartition(",")
    lines[1], lines[2] = head, lines[2] + "," + last
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("t,run,", "t,runs,", 1), "bad header"),
        (_edit_row(3, lambda cells: cells[:-1]), "line 5: bad row width"),
        (_short_then_long, "line 2: bad row width"),
        (_edit_row(2, lambda cells: cells[:2] + ["abc"] + cells[3:]), "abc"),
        (_edit_row(0, lambda cells: cells[:4] + [""]), "convert"),
    ],
    ids=["wrong-header", "short-row", "short-then-long-row", "bad-token", "empty-cell"],
)
def test_cli_report_rejects_malformed_traces(run_dirs, tmp_path, capsys, edit, message):
    d = tmp_path / "run"
    shutil.copytree(run_dirs["mag-iekf"], d)
    path = d / "traces.csv"
    path.write_text(edit(path.read_text()))
    out = tmp_path / "report"
    assert pipeline.main(["report", "--runs-dirs", str(d), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message in err and str(path) in err
    assert not out.exists()


def test_report_reads_crlf_traces(run_dirs, tmp_path):
    d = tmp_path / "run"
    shutil.copytree(run_dirs["mag-iekf"], d)
    path = d / "traces.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    pipeline.cmd_report([d], tmp_path / "crlf")
    pipeline.cmd_report([run_dirs["mag-iekf"]], tmp_path / "lf")
    for p in (tmp_path / "lf").iterdir():
        assert (tmp_path / "crlf" / p.name).read_bytes() == p.read_bytes()


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
        ("steady_fraction", 2), ("steady_fraction", 0), ("steady_fraction", True),
        ("gate", 1), ("gate", "yes"), ("estimator", ["deadreckon"]),
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
        ("train_profile", "zigzag"), ("test_profile", None),
        ("area_width", 0.05), ("area_height", -2.0), ("area_width", False),
        ("range_std", -0.1), ("rss_std", math.nan), ("gyro_psd", True), ("mag_std", "0.05"),
        ("rss_quantum", 0), ("pattern_a2", "4"), ("pattern_phi1", math.inf),
        ("pathloss_p0", None), ("pathloss_d0", 0), ("pathloss_gamma", True),
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
        ("mag-iekf", None, 3e-3, "meta.json"),
        ("deadreckon", None, 3e-3, "meta.json"),
    ],
    ids=[
        "negative-psd", "zero-psd", "nan-psd", "inf-psd", "string-psd", "no-psd", "bool-psd",
        "mag-without-mag-std", "string-mag-std", "nan-mag-std", "bool-mag-std",
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


def _write(text):
    return lambda path: path.write_text(text)


def _drop_hyper(path):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files if k != "hyper"}
    np.savez(path, **arrays)


@pytest.mark.parametrize(
    "target, edit, code, message",
    [
        ("data/test.csv", lambda p: p.write_text(p.read_text().rsplit(",", 1)[0]), 2, "row width"),
        ("data/test.csv", _write(",".join(world.DATASET_COLUMNS) + "\n"), 2, "empty dataset"),
        ("data/test.meta.json", Path.unlink, 2, "test.meta.json"),
        ("data/test.meta.json", _write("[]"), 2, "JSON objects"),
        ("data/test.meta.json", _write('{"noise": 3}'), 2, "JSON objects"),
        ("models/gp_sin.npz", Path.unlink, 2, "gp_sin.npz"),
        ("models/gp_sin.npz", lambda p: p.write_bytes(p.read_bytes()[:200]), 2, "gp_sin.npz"),
        ("models/gp_sin.npz", _drop_hyper, 2, "gp_sin.npz"),
        ("models/heading_model.json", _write("{"), 2, "bad model manifest"),
        ("models/heading_model.json", _write('{"feature_dim": 10}'), 2, "bad model manifest"),
        ("models/heading_model.json", _write('{"files": {"sin": 1, "cos": 2}}'), 2, "bad model manifest"),
        ("cfg.json", _write("[1, 2]"), 1, "JSON objects"),
        ("cfg.json", _write('{"run": "fast"}'), 1, "JSON objects"),
    ],
    ids=[
        "truncated-csv", "empty-dataset", "missing-metadata", "metadata-not-object",
        "noise-not-object", "missing-gp-sin", "truncated-gp-sin", "gp-sin-without-hyper",
        "corrupt-manifest", "manifest-without-files",
        "manifest-files-not-names", "config-not-object", "config-section-not-object",
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
