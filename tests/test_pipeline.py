import json
import math

import numpy as np
import pytest

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
    h_train = np.array([r.gt_heading for r in train[: len(test)]])
    h_test = np.array([r.gt_heading for r in test])
    assert np.abs(h_train - h_test).max() > 0.1


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
    assert all(line.endswith(",8.807") for line in mahal_lines[1:])
    abs_header = (tmp_path / "report" / "abs_error.csv").read_text().splitlines()[0]
    assert "abs_error_gp-iekf" in abs_header and "abs_error_deadreckon" in abs_header


def test_report_missing_traces_is_data_error(tmp_path):
    with pytest.raises(pipeline.DataError):
        pipeline.cmd_report([tmp_path / "nope"], tmp_path / "report")


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
