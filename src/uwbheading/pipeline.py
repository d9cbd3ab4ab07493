"""Command-line orchestration: dataset generation, GP training, filter
execution (gp-iekf / mag-iekf / deadreckon), Monte-Carlo evaluation, and
plot-data export.

`cmd_run` filters all Monte-Carlo runs in one `run_filter` call, a single
float-level pass (`iekf.filter_runs`). Traces and report tables are written
and read, like datasets, by `world.write_table` and `world.read_table`.

Subcommands: generate, train, run, report. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gp, heading, iekf, so2, world

ESTIMATORS = ("gp-iekf", "mag-iekf", "deadreckon")
MAHALANOBIS_BOUND_997 = iekf.mahalanobis_bound(0.997)
TRACE_COLUMNS = ("t", "run", "error", "three_sigma", "mahalanobis")


class DataError(RuntimeError):
    """Missing or malformed input data."""


class NumericalError(RuntimeError):
    """Numerical failure (factorization breakdown, NaN propagation)."""


# ---------------------------------------------------------------------------
# configs


def _finite_number(x) -> bool:
    """A finite real number; bools are not numbers here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check(cfg, rule, *names) -> None:
    """ValueError for the first named field of `cfg` whose value fails
    `rule`, a (test, description of the valid values) pair."""
    test, valid = rule
    for name in names:
        value = getattr(cfg, name)
        if not test(value):
            raise ValueError(f"{name} must be {valid}, got {value!r}")


_FINITE = (_finite_number, "a finite number")
_POSITIVE = (lambda x: _finite_number(x) and x > 0, "a finite number > 0")
_NON_NEGATIVE = (lambda x: _finite_number(x) and x >= 0, "a finite number >= 0")
_SEED = (lambda x: _integer(x) and x >= 0, "an integer >= 0")


@dataclass
class GenerateConfig:
    area_width: float = 4.0
    area_height: float = 2.0
    rate_hz: float = 10.0
    train_duration_s: float = 1800.0
    test_duration_s: float = 300.0
    train_profile: str = "smooth-random"
    test_profile: str = "smooth-random"
    seed: int = 0
    range_std: float = 0.10
    rss_std: float = 0.5
    gyro_psd: float = 3e-3
    mag_std: float = 0.05
    rss_quantum: float = 1.0
    pattern_g0: float = 0.0
    pattern_a2: float = 4.0
    pattern_phi2: float = 0.0
    pattern_a1: float = 2.0
    pattern_phi1: float = 0.0
    pathloss_p0: float = -75.0
    pathloss_d0: float = 1.0
    pathloss_gamma: float = 1.8

    def __post_init__(self):
        side = 2 * world.TRAJECTORY_MARGIN_M
        _check(self, (lambda x: _finite_number(x) and x >= side, f"a finite number >= {side}"),
               "area_width", "area_height")
        _check(self, _POSITIVE, "rate_hz", "train_duration_s", "test_duration_s",
               "rss_quantum", "pathloss_d0")
        _check(self, _NON_NEGATIVE, "range_std", "rss_std", "gyro_psd", "mag_std")
        _check(self, _FINITE, "pattern_g0", "pattern_a2", "pattern_phi2", "pattern_a1",
               "pattern_phi1", "pathloss_p0", "pathloss_gamma")
        _check(self, (lambda x: x in world.TRAJECTORY_PROFILES,
                      f"one of {world.TRAJECTORY_PROFILES}"), "train_profile", "test_profile")
        _check(self, _SEED, "seed")

    def area(self) -> world.Rectangle:
        return world.Rectangle.centered(self.area_width, self.area_height)

    def pattern(self) -> world.AntennaPattern:
        return world.AntennaPattern(
            g0=self.pattern_g0,
            a2=self.pattern_a2,
            phi2=self.pattern_phi2,
            a1=self.pattern_a1,
            phi1=self.pattern_phi1,
        )

    def path_loss(self) -> world.PathLossModel:
        return world.PathLossModel(
            p0=self.pathloss_p0, d0=self.pathloss_d0, gamma=self.pathloss_gamma
        )

    def noise(self, seed: int) -> world.SensorNoiseConfig:
        return world.SensorNoiseConfig(
            range_std=self.range_std,
            rss_std=self.rss_std,
            gyro_psd=self.gyro_psd,
            mag_std=self.mag_std,
            rss_quantum=self.rss_quantum,
            seed=seed,
        )


TrainConfig = gp.HyperparamSearchConfig


@dataclass
class RunConfig:
    estimator: str = "gp-iekf"
    monte_carlo_runs: int = 100
    init_error_var: float = 1.0  # rad^2, per the 100-run Monte-Carlo protocol
    q_c: float | None = None  # rad^2/s; None -> dataset metadata gyro_psd
    seed: int = 0
    steady_fraction: float = 0.5  # trailing window for the steady +-3sigma
    gate: bool = False  # reject corrections above the 99.7% bound

    def __post_init__(self):
        _check(self, (lambda x: x in ESTIMATORS, f"one of {ESTIMATORS}"), "estimator")
        _check(self, (lambda x: _integer(x) and x >= 1, "an integer >= 1"), "monte_carlo_runs")
        _check(self, _POSITIVE, "init_error_var")
        _check(self, (lambda x: x is None or _finite_number(x) and x > 0,
                      "null or a finite number > 0"), "q_c")
        _check(self, _SEED, "seed")
        _check(self, (lambda x: _finite_number(x) and 0 < x <= 1, "a number in (0, 1]"),
               "steady_fraction")
        _check(self, (lambda x: isinstance(x, bool), "true or false"), "gate")


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: GenerateConfig, out_dir) -> dict:
    """Write train/test datasets with disjoint trajectories in one world."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    area = cfg.area()
    anchors = world.default_anchors(area)
    pattern = cfg.pattern()
    path_loss = cfg.path_loss()
    paths = {}
    for split, duration, profile, traj_seed, noise_seed in (
        ("train", cfg.train_duration_s, cfg.train_profile, cfg.seed, cfg.seed + 1_000_003),
        ("test", cfg.test_duration_s, cfg.test_profile, cfg.seed + 1, cfg.seed + 2_000_003),
    ):
        traj = world.generate_trajectory(
            area, duration, cfg.rate_hz, profile=profile, seed=traj_seed
        )
        data = world.build_dataset(traj, anchors, pattern, cfg.noise(noise_seed), path_loss)
        meta = world.world_metadata(
            area, anchors, pattern, cfg.noise(noise_seed), path_loss,
            seed=traj_seed, duration=duration, rate_hz=cfg.rate_hz, profile=profile,
        )
        path = out_dir / f"{split}.csv"
        world.write_dataset(path, data, meta)
        paths[split] = path
    return paths


def cmd_train(dataset_path, cfg: TrainConfig, out_dir) -> heading.HeadingGpPair:
    """Train the sin/cos GP pair and serialize it with a training summary."""
    out_dir = Path(out_dir)
    data = world.read_dataset(dataset_path)
    if len(data) < 2:
        raise DataError(f"training dataset {dataset_path} has fewer than 2 rows")
    t0 = time.perf_counter()
    try:
        pair = heading.train_heading_gps(data.features, data.gt_heading, cfg)
    except gp.UnfittableDataError as exc:
        raise NumericalError(str(exc)) from exc
    fit_s = time.perf_counter() - t0
    pair.save(out_dir)
    summary = {
        "n_records": len(data),
        "n_used": int(pair.gp_sin.train.n),
        "max_points": cfg.max_points,
        "capped": len(data) > cfg.max_points,
        "fit_s": fit_s,
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
        "converged": model.converged,
        "jitter": model.jitter,
    }


def _measurements_for(estimator, data, pair, mag_var):
    """Per-epoch HeadingMeasurement list (None -> no correction that epoch)."""
    if estimator == "deadreckon":
        return [None] * len(data)
    if estimator == "mag-iekf":
        var = max(mag_var, heading.VAR_FLOOR)
        return [heading.HeadingMeasurement(angle=a, var_theta=var) for a in data.mag.tolist()]
    predicted = heading.predict_pseudo_trig_arrays(pair, data.features)
    return [
        None if p is None else heading.HeadingMeasurement(*p)
        for p in map(heading.normalize_values, *(v.tolist() for v in predicted))
    ]


def run_filter(
    data,
    measurements,
    q_c: float,
    init_theta,
    init_var: float,
    gate: bool = False,
):
    """Filter every start angle over the world.Dataset `data`; returns
    (error, three_sigma, mahalanobis) arrays, of shape (n,) for a scalar
    `init_theta` and (R, n) for a sequence of R start angles.

    All runs share one float-level pass (`iekf.filter_runs`); the inputs are
    validated here, once, instead of at every step. The error is the
    left-invariant group error log(gt^-1 est), wrapped into the principal
    branch; Mahalanobis entries are NaN where no correction ran. A
    non-finite error or covariance raises NumericalError naming the first
    epoch where one appears.
    """
    if len(measurements) != len(data):
        raise ValueError(f"{len(measurements)} measurements for {len(data)} epochs")
    noise = iekf.ProcessNoise(psd=q_c)
    starts = [iekf.FilterState(angle=a, cov=init_var) for a in np.ravel(init_theta)]
    gyro = data.gyro[:-1]
    dt = np.diff(data.t)
    if not (np.all(dt > 0) and np.all(np.isfinite(gyro))):
        raise ValueError("gyro samples need finite rates and increasing t")
    angle, cov, mahal = iekf.filter_runs(
        starts,
        (gyro * dt).tolist(),
        (noise.psd * dt).tolist(),
        [None if m is None else (m.angle, m.var_theta) for m in measurements],
        MAHALANOBIS_BOUND_997 if gate else math.inf,
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


def _noise_metadata(dataset_path, estimator) -> dict:
    """The dataset's `noise` metadata, with gyro_psd (and mag_std for
    mag-iekf) checked; DataError if the sidecar file is missing or is not
    a JSON object with an object `noise`."""
    path = world.metadata_path(dataset_path)
    try:
        meta = world.read_metadata(dataset_path)
    except FileNotFoundError as exc:
        raise DataError(f"missing dataset metadata: {path}") from exc
    noise = meta.get("noise", {}) if isinstance(meta, dict) else None
    if not isinstance(noise, dict):
        raise DataError(f"{path}: metadata and its noise section must be JSON objects")
    psd = noise.get("gyro_psd")
    if psd is not None and not (_finite_number(psd) and psd > 0):
        raise DataError(f"{path}: gyro_psd must be finite and positive, got {psd!r}")
    mag_std = noise.get("mag_std")
    if estimator == "mag-iekf" and not (_finite_number(mag_std) and mag_std >= 0):
        raise DataError(f"{path}: mag-iekf needs a finite noise.mag_std >= 0, got {mag_std!r}")
    return noise


def cmd_run(dataset_path, model_dir, cfg: RunConfig, out_dir) -> dict:
    """Monte-Carlo filter evaluation; writes traces.csv and metrics.json.

    The runs differ only in their start angle, so one `run_filter` call
    filters them all.
    """
    stamps = [time.perf_counter()]  # stage boundaries: load, predict, filter, write
    data = world.read_dataset(dataset_path)
    if len(data) == 0:
        raise DataError(f"empty dataset: {dataset_path}")
    noise_meta = _noise_metadata(dataset_path, cfg.estimator)
    q_c = cfg.q_c if cfg.q_c is not None else noise_meta.get("gyro_psd")
    if q_c is None:
        raise DataError("q_c not given and dataset metadata lacks gyro_psd")

    pair = None
    mag_var = noise_meta["mag_std"] ** 2 if cfg.estimator == "mag-iekf" else None
    if cfg.estimator == "gp-iekf":
        if model_dir is None:
            raise DataError("gp-iekf requires --models")
        pair = heading.HeadingGpPair.load(model_dir)
    stamps.append(time.perf_counter())
    measurements = _measurements_for(cfg.estimator, data, pair, mag_var)
    stamps.append(time.perf_counter())

    thetas0 = []
    for r in range(cfg.monte_carlo_runs):
        rng = np.random.default_rng([cfg.seed, r])
        thetas0.append(
            so2.wrap_angle(
                data.gt_heading[0]
                + math.sqrt(cfg.init_error_var) * rng.standard_normal()
            )
        )
    errs, sigs, mahals = run_filter(
        data, measurements, q_c, thetas0, cfg.init_error_var, gate=cfg.gate
    )
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
            errs, sigs, mahals,
        ],
    )
    stamps.append(time.perf_counter())

    steady_start = int(n * (1.0 - cfg.steady_fraction))
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
        "mahalanobis_bound": MAHALANOBIS_BOUND_997,
        "steady_fraction": cfg.steady_fraction,
        "q_c": q_c,
        "init_error_var": cfg.init_error_var,
        "seed": cfg.seed,
        "dataset_duration_s": float(t[-1] - t[0]) if n > 1 else 0.0,
        "n_epochs": n,
        # epochs whose pseudo-trig radius was below NORM_EPS (gp-iekf only)
        "degenerate_epochs": (
            sum(m is None for m in measurements) if cfg.estimator == "gp-iekf" else 0
        ),
        # corrections not applied because of the gate, summed over runs
        "corrections_gated": int(np.sum(mahals > MAHALANOBIS_BOUND_997)) if cfg.gate else 0,
    }
    metrics.update(zip(("load_s", "predict_s", "filter_s", "write_s"), np.diff(stamps).tolist()))
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics


def _load_traces(run_dir):
    run_dir = Path(run_dir)
    metrics = json.loads((run_dir / "metrics.json").read_text())
    path = run_dir / "traces.csv"
    raw = world.read_table(path, TRACE_COLUMNS)
    t = np.unique(raw[:, 0])
    runs = len(raw) // t.size if t.size else 0
    if runs < 1 or len(raw) != runs * t.size:
        raise DataError(f"{path}: {len(raw)} rows are not {runs} runs of {t.size} epochs")
    err, sig, mahal = (raw[:, k].reshape(runs, t.size) for k in (2, 3, 4))
    return metrics["estimator"], t, err, sig, mahal


def cmd_report(run_dirs, out_dir) -> list[Path]:
    """Aggregate run traces into plot-data files."""
    loaded = []
    for d in run_dirs:
        if not (Path(d) / "traces.csv").exists():
            raise DataError(f"missing traces in {d}")
        loaded.append(_load_traces(d))
    t = loaded[0][1]
    mismatched = [str(d) for d, run in zip(run_dirs, loaded) if not np.array_equal(run[1], t)]
    if mismatched:
        raise DataError(
            f"runs do not share the time base of {run_dirs[0]}: {', '.join(mismatched)}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    for est, _, err, sig, _ in loaded:
        ms = sig.mean(axis=0)
        p = out_dir / f"error_bounds_{est}.csv"
        world.write_table(
            p,
            ["t", "mean_error", "mean_three_sigma", "minus_three_sigma"],
            [t, err.mean(axis=0), ms, -ms],
        )
        written.append(p)

    with_mahal = [(est, mh) for est, _, _, _, mh in loaded if np.isfinite(mh).any()]
    if with_mahal:
        p = out_dir / "mahalanobis.csv"
        world.write_table(
            p,
            ["t"] + [f"mean_mahalanobis_{est}" for est, _ in with_mahal] + ["bound"],
            [t]
            + [np.nanmean(mh, axis=0) for _, mh in with_mahal]
            + [np.full(t.size, MAHALANOBIS_BOUND_997)],
        )
        written.append(p)

    p = out_dir / "abs_error.csv"
    world.write_table(
        p,
        ["t"] + [f"abs_error_{est}" for est, *_ in loaded],
        [t] + [np.abs(err).mean(axis=0) for _, _, err, _, _ in loaded],
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
        data = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    values = data.get(section, {}) if isinstance(data, dict) else None
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} and its {section!r} section must be JSON objects")
    return values


class ConfigError(RuntimeError):
    pass


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

    p_rep = sub.add_parser("report", help="aggregate run traces into plot data")
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
    except (DataError, FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
