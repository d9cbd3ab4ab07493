"""Command-line orchestration: dataset generation, GP training, filter
execution (gp-iekf / mag-iekf / deadreckon), Monte-Carlo evaluation, and
plot-data export.

`cmd_run` filters all Monte-Carlo runs in one `run_filter` call, a single
float-level pass (`iekf.filter_runs`). Traces and report tables are written,
like datasets, by `world.write_table`. `cmd_run` also saves the per-epoch
means over its runs that `cmd_report` plots, as `epoch_means.npy`, so that
the report reads those and never parses the traces back.

Subcommands: generate, train, run, report. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numerical failure. Every input file is
read through `_read`, which decides what a data error is; any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gp, heading, iekf, so2, world

ESTIMATORS = ("gp-iekf", "mag-iekf", "deadreckon")
MAHALANOBIS_BOUND_997 = 8.807468393511947  # chi2.ppf(0.997, df=1), the 99.7% NIS bound
TRACE_COLUMNS = ("t", "run", "error", "three_sigma", "mahalanobis")
# the rows of a run dir's epoch_means.npy: t, then per-epoch means over the runs
EPOCH_MEANS_ROWS = ("t", "error", "abs_error", "three_sigma", "mahalanobis")
STEADY_FRACTION = 0.5  # the trailing share of epochs that the steady metrics cover
# the GenerateConfig fields that are world.SensorNoiseConfig's
_NOISE_FIELDS = ("range_std", "rss_std", "gyro_psd", "mag_std", "rss_quantum")


class DataError(RuntimeError):
    """An input file that is missing, unreadable or malformed, or dataset
    rows the GPs cannot fit or predict on."""


class NumericalError(RuntimeError):
    """Numerical failure (factorization breakdown, NaN propagation)."""


class ConfigError(RuntimeError):
    """A bad flag, config value or output path: a usage error."""


def _read(reader, path, *args):
    """`reader(path, *args)` for a file the CLI reads. An OSError or
    ValueError from it means the file is missing, unreadable or malformed: it
    becomes a DataError that names the file once."""
    try:
        return reader(path, *args)
    except (OSError, ValueError) as exc:
        why = f"not valid JSON: {exc}" if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise DataError(why if str(Path(path)) in why else f"{path}: {why}") from exc


def _json_file(path):
    return json.loads(Path(path).read_text())


def _npy_file(path):
    with open(path, "rb") as f:
        return world.read_npy(f, os.fstat(f.fileno()).st_size)


# ---------------------------------------------------------------------------
# configs


@dataclass
class GenerateConfig:
    """The CLI's settable generate values. The noise fields, their defaults
    and their checks are `world.SensorNoiseConfig`'s. The arena, anchors,
    antenna pattern and path loss are `world`'s defaults; library callers
    pass their own to `world.build_dataset`."""

    rate_hz: float = 10.0
    train_duration_s: float = 1800.0
    test_duration_s: float = 300.0
    seed: int = 0
    range_std: float = world.SensorNoiseConfig.range_std
    rss_std: float = world.SensorNoiseConfig.rss_std
    gyro_psd: float = world.SensorNoiseConfig.gyro_psd
    mag_std: float = world.SensorNoiseConfig.mag_std
    rss_quantum: float = world.SensorNoiseConfig.rss_quantum

    def __post_init__(self):
        world.check(world.POSITIVE, rate_hz=self.rate_hz, train_duration_s=self.train_duration_s,
                    test_duration_s=self.test_duration_s)
        self.noise(self.seed)  # checks the noise fields and the seed
        # train fits on at least 2 rows and run filters at least 1 epoch
        for name, least in (("train_duration_s", 2), ("test_duration_s", 1)):
            epochs = getattr(self, name) * self.rate_hz
            if not (world.finite_number(epochs) and round(epochs) >= least):
                raise ValueError(f"{name} * rate_hz must round to a finite count of at least"
                                 f" {least} epochs, got {epochs!r}")

    def noise(self, seed: int) -> world.SensorNoiseConfig:
        return world.SensorNoiseConfig(**{n: getattr(self, n) for n in _NOISE_FIELDS}, seed=seed)


TrainConfig = gp.HyperparamSearchConfig


@dataclass
class RunConfig:
    estimator: str = "gp-iekf"
    monte_carlo_runs: int = 100
    init_error_var: float = 1.0  # rad^2, per the 100-run Monte-Carlo protocol
    q_c: float | None = None  # rad^2/s; None -> dataset metadata gyro_psd
    seed: int = 0

    def __post_init__(self):
        world.check((lambda x: x in ESTIMATORS, f"one of {ESTIMATORS}"), estimator=self.estimator)
        world.check(world.integer_from(1), monte_carlo_runs=self.monte_carlo_runs)
        world.check(world.POSITIVE, init_error_var=self.init_error_var)
        world.check((lambda x: x is None or world.finite_number(x) and x > 0,
                     "null or a finite number > 0"), q_c=self.q_c)
        world.check(world.SEED, seed=self.seed)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: GenerateConfig, out_dir) -> dict:
    """Write train/test datasets with disjoint trajectories in one world."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    area = world.DEFAULT_AREA
    anchors = world.default_anchors(area)
    pattern, path_loss = world.AntennaPattern(), world.PathLossModel()
    paths = {}
    for split, duration, traj_seed, noise_seed in (
        ("train", cfg.train_duration_s, cfg.seed, cfg.seed + 1_000_003),
        ("test", cfg.test_duration_s, cfg.seed + 1, cfg.seed + 2_000_003),
    ):
        traj = world.generate_trajectory(area, duration, cfg.rate_hz, traj_seed)
        noise = cfg.noise(noise_seed)
        data = world.build_dataset(traj, anchors, pattern, noise, path_loss)
        meta = world.world_metadata(
            area, anchors, pattern, noise, path_loss,
            seed=traj_seed, duration=duration, rate_hz=cfg.rate_hz,
        )
        path = out_dir / f"{split}.csv"
        world.write_dataset(path, data, meta)
        paths[split] = path
    return paths


def cmd_train(dataset_path, cfg: TrainConfig, out_dir) -> heading.HeadingGpPair:
    """Train the two-output sin/cos GP and serialize it with a training
    summary."""
    out_dir = Path(out_dir)
    stamps = [time.perf_counter()]  # stage boundaries: read, fit, save
    data = _read(world.read_dataset, dataset_path)
    stamps.append(time.perf_counter())
    try:
        pair = heading.train_heading_gps(data.features, data.gt_heading, cfg)
    except (gp.UnfittableDataError, np.linalg.LinAlgError) as exc:
        raise NumericalError(str(exc)) from exc
    except ValueError as exc:  # fewer than 2 rows, or a spread that overflows the standardizer
        raise DataError(f"{dataset_path}: the GPs cannot fit its rows: {exc}") from exc
    stamps.append(time.perf_counter())
    pair.save(out_dir)
    stamps.append(time.perf_counter())
    summary = {
        "n_records": len(data),
        "n_used": int(pair.model.train.n),
        "max_points": cfg.max_points,
        "capped": len(data) > cfg.max_points,
        **dict(zip(("read_s", "fit_s", "save_s"), np.diff(stamps).tolist())),
        "sin": _gp_summary(pair.gp_sin),
        "cos": _gp_summary(pair.gp_cos),
    }
    (out_dir / "training_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return pair


def _gp_summary(model: gp.GpModel) -> dict:
    return {
        "sigma_f": model.params.sigma_f,
        "sigma_l": model.params.sigma_l,
        "sigma_n": model.params.sigma_n,
        "log_marginal_likelihood": model.lml,
        "lml_evals": model.lml_evals,
        "jittered_evals": model.jittered_evals,
        "converged": model.converged,
        "jitter": model.jitter,
    }


def _measurements_for(estimator, data, pair, mag_var):
    """Per-epoch (angle, variance) pairs (None -> no correction that epoch),
    checked by `iekf.filter_runs`."""
    if estimator == "deadreckon":
        return [None] * len(data)
    if estimator == "mag-iekf":
        var = max(mag_var, heading.VAR_FLOOR)
        return [(a, var) for a in data.mag.tolist()]
    predicted = heading.predict_pseudo_trig_arrays(pair, data.features)
    return list(map(heading.normalize_values, *(v.tolist() for v in predicted)))


def run_filter(data, measurements, q_c: float, init_theta, init_var: float):
    """Filter every start angle over the world.Dataset `data`; returns
    (error, three_sigma, mahalanobis) arrays, of shape (n,) for a scalar
    `init_theta` and (R, n) for a sequence of R start angles.
    `measurements[k]` is an iekf.HeadingMeasurement, an (angle, variance)
    pair or None (no correction at epoch k).

    All runs share one float-level pass (`iekf.filter_runs`), which checks
    each measurement once; the other inputs are validated here, once,
    instead of at every step. Every run has the same three_sigma row. The
    error is the left-invariant group error log(gt^-1 est), wrapped into the
    principal branch; Mahalanobis entries are NaN where no correction ran. A
    non-finite error or covariance raises NumericalError naming the first
    epoch where one appears.
    """
    if len(measurements) != len(data):
        raise ValueError(f"{len(measurements)} measurements for {len(data)} epochs")
    noise = iekf.ProcessNoise(psd=q_c)
    gyro = data.gyro[:-1]
    dt = np.diff(data.t)
    if not (np.all(dt > 0) and np.all(np.isfinite(gyro))):
        raise ValueError("gyro samples need finite rates and increasing t")
    angle, cov, mahal = iekf.filter_runs(
        np.ravel(init_theta).tolist(),
        init_var,
        (gyro * dt).tolist(),
        (noise.psd * dt).tolist(),
        measurements,
    )
    with np.errstate(invalid="ignore"):
        err = so2.wrap_angle(angle - data.gt_heading)
        sig3 = 3.0 * np.sqrt(cov)
    bad = ~(np.isfinite(err) & np.isfinite(sig3)).all(axis=0)
    if bad.any():
        raise NumericalError(f"NaN propagation at epoch {int(np.argmax(bad))}")
    if np.ndim(init_theta) == 0:
        return err[0], sig3[0], mahal[0]
    return err, sig3, mahal


def _noise_settings(dataset_path, cfg: RunConfig):
    """The gyro noise PSD q_c (`cfg.q_c`, or else the dataset's
    noise.gyro_psd) and, for mag-iekf, the magnetometer variance (the
    dataset's noise.mag_std squared; None for the other estimators).
    DataError if the metadata sidecar is missing, unreadable, not valid JSON
    or not a JSON object with an object `noise`, or lacks a valid value that
    the run needs."""
    path = world.metadata_path(dataset_path)
    meta = _read(_json_file, path)
    noise = meta.get("noise", {}) if isinstance(meta, dict) else None
    if not isinstance(noise, dict):
        raise DataError(f"{path}: metadata and its noise section must be JSON objects")
    q_c = cfg.q_c
    if q_c is None:
        q_c = noise.get("gyro_psd")
        if not (world.finite_number(q_c) and q_c > 0):
            raise DataError(f"{path}: without a q_c in the run config, noise.gyro_psd must be"
                            f" finite and positive, got {q_c!r}")
    if cfg.estimator != "mag-iekf":
        return q_c, None
    mag_std = noise.get("mag_std")
    if not (world.finite_number(mag_std) and mag_std >= 0
            and world.finite_number(mag_std * mag_std)):
        raise DataError(f"{path}: mag-iekf needs a noise.mag_std >= 0 whose square is finite,"
                        f" got {mag_std!r}")
    return q_c, mag_std**2


def cmd_run(dataset_path, model_dir, cfg: RunConfig, out_dir) -> dict:
    """Monte-Carlo filter evaluation; writes traces.csv, epoch_means.npy (the
    EPOCH_MEANS_ROWS as one (5, n) float64 array) and metrics.json.

    The runs differ only in their start angle, so one `run_filter` call
    filters them all.
    """
    stamps = [time.perf_counter()]  # stage boundaries: load, predict, filter, write
    data = _read(world.read_dataset, dataset_path)
    if len(data) == 0:
        raise DataError(f"empty dataset: {dataset_path}")
    q_c, mag_var = _noise_settings(dataset_path, cfg)
    if cfg.estimator == "gp-iekf" and model_dir is None:
        raise ConfigError("gp-iekf requires --models")
    pair = _read(heading.HeadingGpPair.load, model_dir) if cfg.estimator == "gp-iekf" else None
    stamps.append(time.perf_counter())
    try:
        measurements = _measurements_for(cfg.estimator, data, pair, mag_var)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    except ValueError as exc:  # e.g. a range so large that its distances overflow
        raise DataError(f"{dataset_path}: the GPs cannot predict on its rows: {exc}") from exc
    stamps.append(time.perf_counter())

    rngs = (np.random.default_rng([cfg.seed, r]) for r in range(cfg.monte_carlo_runs))
    init_std = math.sqrt(cfg.init_error_var)
    thetas0 = [so2.wrap_angle(data.gt_heading[0] + init_std * g.standard_normal()) for g in rngs]
    errs, sigs, mahals = run_filter(data, measurements, q_c, thetas0, cfg.init_error_var)
    stamps.append(time.perf_counter())

    t = data.t
    n = len(t)
    runs = range(cfg.monte_carlo_runs)
    out_dir = Path(out_dir)  # made only now, so that bad input leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    world.write_table(
        out_dir / "traces.csv",
        TRACE_COLUMNS,
        [
            list(world.float_cells(t)) * len(runs),  # each t formatted once
            itertools.chain.from_iterable(itertools.repeat(str(r), n) for r in runs),
            errs,
            # the runs share one covariance row: format it once too
            list(world.float_cells(sigs[0])) * len(runs),
            mahals,
        ],
    )
    means = [t, errs.mean(axis=0), np.abs(errs).mean(axis=0), sigs.mean(axis=0),
             _mean_of_corrected(mahals)]
    np.save(out_dir / "epoch_means.npy", np.array(means), allow_pickle=False)
    stamps.append(time.perf_counter())

    steady_start = int(n * (1.0 - STEADY_FRACTION))
    rmse_deg = float(np.degrees(np.sqrt(np.mean(errs**2, axis=1))).mean())
    rmse_steady_deg = float(
        np.degrees(np.sqrt(np.mean(errs[:, steady_start:] ** 2, axis=1))).mean()
    )
    mean_3sigma_deg = float(np.degrees(sigs[:, steady_start:]).mean())
    finite = np.isfinite(mahals)
    nees_frac = (
        float(np.mean(mahals[finite] <= MAHALANOBIS_BOUND_997)) if finite.any() else math.nan
    )
    metrics = {
        "estimator": cfg.estimator,
        "monte_carlo_runs": cfg.monte_carlo_runs,
        "rmse_deg": rmse_deg,
        "rmse_steady_deg": rmse_steady_deg,
        "mean_3sigma_deg": mean_3sigma_deg,
        "nees_within_bound_frac": nees_frac,
        "three_sigma_cover": float(np.mean(np.abs(errs[:, n // 10:]) < sigs[:, n // 10:])),
        "mahalanobis_bound": MAHALANOBIS_BOUND_997,
        "steady_fraction": STEADY_FRACTION,
        "q_c": q_c,
        "init_error_var": cfg.init_error_var,
        "seed": cfg.seed,
        "dataset_duration_s": float(t[-1] - t[0]) if n > 1 else 0.0,
        "n_epochs": n,
        # epochs whose pseudo-trig radius was below NORM_EPS (gp-iekf only)
        "degenerate_epochs": (
            sum(m is None for m in measurements) if cfg.estimator == "gp-iekf" else 0
        ),
        # corrections applied, summed over runs: those whose Mahalanobis
        # distance is not NaN
        "corrections_applied": int(np.count_nonzero(~np.isnan(mahals))),
        # epochs of runs 1.. from where each one's error equals run 0's, bit
        # for bit, to the end: what filtering and the trace write share
        "shared_run_epochs": int((n - world.row0_suffix_starts(errs)[1:]).sum()),
    }
    metrics.update(zip(("load_s", "predict_s", "filter_s", "write_s"), np.diff(stamps).tolist()))
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics


def _run_estimator(run_dir) -> str:
    """The estimator a run dir's metrics.json names; DataError if the file
    is not a JSON object whose `estimator` is one of ESTIMATORS (the name
    goes into report file names)."""
    path = Path(run_dir) / "metrics.json"
    metrics = _read(_json_file, path)
    est = metrics.get("estimator") if isinstance(metrics, dict) else None
    if est not in ESTIMATORS:
        raise DataError(f"{path}: must be a JSON object whose estimator is one of"
                        f" {ESTIMATORS}, got {est!r}")
    return est


def _load_epoch_means(run_dir):
    """A run dir's estimator and its epoch_means.npy rows (EPOCH_MEANS_ROWS);
    DataError unless the file holds a (5, n) float64 array with n >= 1
    whose t row is finite and strictly increasing, as `cmd_run` writes it."""
    est = _run_estimator(run_dir)
    path = Path(run_dir) / "epoch_means.npy"
    means = _read(_npy_file, path)
    if not (means.dtype == np.float64 and means.ndim == 2 and means.shape[0] == 5
            and means.shape[1] >= 1):
        raise DataError(f"{path}: holds {means.dtype} of shape {means.shape}, not float64"
                        f" of shape (5, n) with n >= 1 for the rows {EPOCH_MEANS_ROWS}")
    t = means[0]
    if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
        raise DataError(f"{path}: its t row is not finite and strictly increasing")
    return est, means


def _mean_of_corrected(mahal):
    """The per-epoch mean over runs of the non-NaN entries of (runs, epochs)
    `mahal`, as np.nanmean(mahal, axis=0) computes it, but NaN without a
    warning at an epoch that no run corrected."""
    corrected = ~np.isnan(mahal)
    with np.errstate(invalid="ignore"):
        return np.where(corrected, mahal, 0.0).sum(axis=0) / corrected.sum(axis=0)


def _negated_cells(cells) -> list[str]:
    """repr(-x) for each cell repr(x), by flipping the text's sign: a leading
    "-" is dropped, else one is prepended; "nan" has no sign in repr."""
    return [c if c == "nan" else c[1:] if c[0] == "-" else "-" + c for c in cells]


def cmd_report(run_dirs, out_dir) -> list[Path]:
    """Aggregate the per-epoch means of run dirs, one run dir per estimator,
    into plot-data files. Reads each run dir's metrics.json and
    epoch_means.npy, not its traces."""
    loaded, dir_of = [], {}
    for d in run_dirs:
        loaded.append(_load_epoch_means(d))
        est = loaded[-1][0]
        if est in dir_of:
            raise DataError(f"{dir_of[est]} and {d} both hold {est} runs")
        dir_of[est] = d
    t = loaded[0][1][0]
    mismatched = [str(d) for d, (_, means) in zip(run_dirs, loaded)
                  if not np.array_equal(means[0], t)]
    if mismatched:
        raise DataError(
            f"runs do not share the time base of {run_dirs[0]}: {', '.join(mismatched)}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    t_cells = list(world.float_cells(t))  # every file's t column, formatted once

    for est, (_, err, _, sig, _) in loaded:
        ms_cells = list(world.float_cells(sig))
        p = out_dir / f"error_bounds_{est}.csv"
        world.write_table(
            p,
            ["t", "mean_error", "mean_three_sigma", "minus_three_sigma"],
            [t_cells, err, ms_cells, _negated_cells(ms_cells)],
        )
        written.append(p)

    with_mahal = [(est, means[4]) for est, means in loaded if np.isfinite(means[4]).any()]
    if with_mahal:
        p = out_dir / "mahalanobis.csv"
        world.write_table(
            p,
            ["t"] + [f"mean_mahalanobis_{est}" for est, _ in with_mahal] + ["bound"],
            [t_cells] + [mh for _, mh in with_mahal] + [[repr(MAHALANOBIS_BOUND_997)] * t.size],
        )
        written.append(p)

    p = out_dir / "abs_error.csv"
    world.write_table(
        p,
        ["t"] + [f"abs_error_{est}" for est, _ in loaded],
        [t_cells] + [means[2] for _, means in loaded],
    )
    written.append(p)
    return written


# ---------------------------------------------------------------------------
# CLI


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _config_section(path, section) -> dict:
    if path is None:
        return {}
    try:
        data = _json_file(path)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    values = data.get(section, {}) if isinstance(data, dict) else None
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} and its {section!r} section must be JSON objects")
    return values


def _build(cls, file_values: dict, overrides: dict):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(file_values) - names
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_out(out) -> None:
    """ConfigError unless `out` is a directory or can be made one: the
    nearest existing path or link among it and its parents is a directory."""
    existing = next(p for p in (Path(out), *Path(out).parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uwb-heading", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate synthetic train/test datasets")
    p_gen.add_argument("--config", help="JSON config file (section: generate)")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True, help="output directory")

    p_train = sub.add_parser("train", help="train the sin/cos heading GPs")
    p_train.add_argument("--config", help="JSON config file (section: train)")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--out", required=True, help="model output directory")

    p_run = sub.add_parser("run", help="Monte-Carlo filter evaluation")
    p_run.add_argument("--config", help="JSON config file (section: run)")
    p_run.add_argument("--dataset", required=True)
    p_run.add_argument("--models", help="model directory (gp-iekf only)")
    p_run.add_argument("--estimator", choices=ESTIMATORS)
    p_run.add_argument("--runs", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", required=True)

    p_rep = sub.add_parser("report", help="aggregate runs' per-epoch means into plot data")
    p_rep.add_argument("--runs-dirs", nargs="+", required=True,
                       help="one or more cmd-run output directories")
    p_rep.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        if args.command == "generate":
            cfg = _build(
                GenerateConfig, _config_section(args.config, "generate"),
                {"seed": args.seed},
            )
            paths = cmd_generate(cfg, args.out)
            for split, p in paths.items():
                print(f"{split}: {p}")
        elif args.command == "train":
            cfg = _build(TrainConfig, _config_section(args.config, "train"), {})
            pair = cmd_train(args.dataset, cfg, args.out)
            print(
                f"trained: sin lml={pair.gp_sin.lml:.2f} cos lml={pair.gp_cos.lml:.2f}"
                f" -> {args.out}"
            )
        elif args.command == "run":
            cfg = _build(
                RunConfig, _config_section(args.config, "run"),
                {
                    "estimator": args.estimator,
                    "monte_carlo_runs": args.runs,
                    "seed": args.seed,
                },
            )
            metrics = cmd_run(args.dataset, args.models, cfg, args.out)
            print(
                f"{metrics['estimator']}: RMSE {metrics['rmse_deg']:.2f} deg, "
                f"steady 3sigma {metrics['mean_3sigma_deg']:.2f} deg, "
                f"NEES-in-bound {metrics['nees_within_bound_frac']:.3f}"
            )
        elif args.command == "report":
            for p in cmd_report(args.runs_dirs, args.out):
                print(p)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
