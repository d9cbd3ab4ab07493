"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop in one process with one client: each op is
issued after the previous one returns, and the benchmark starts no threads.
The package is driven only through its public functions (`pipeline.cmd_*`,
`heading.*`, `iekf.*`, `world.*`) and sees only the inputs made here.

Set-up (every workload): cmd_generate + cmd_train; on online also
HeadingGpPair.load and reading the test split. The workload's op:

    fit          the set-up itself, repeated into a second directory
    monte-carlo  cmd_run for each estimator, then cmd_report over the three
    online       stream the test split one epoch at a time through
                 iekf.predict -> heading.predict_pseudo_trig ->
                 heading.normalize -> iekf.correct

Every end-to-end metric is reported on every workload, so an untraced run
repeats a cycle (CYCLES) of a set-up, a Monte-Carlo op and a stream op, with
the workload's own op twice, which samples every metric across the whole run. The traced run repeats
only the workload's op, so the per-layer metrics describe that op.

Every time an untraced run records is calibrated for the machine's speed
(see calibration.py) and reported as the median over the run.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from calibration import Calibration
from uwbheading import heading, iekf, pipeline, so2, world

WORKLOADS = ("fit", "monte-carlo", "online")

# The world every workload runs on. It is pinned, not drawn from --seed: the
# GP fit's work and every accuracy metric depend strongly on the world, so a
# seed-drawn world would make run-to-run spread a property of the draw.
WORLD_SEED = 0
MC_SEED = 0  # Monte-Carlo protocol seed (RunConfig default)
INIT_ERROR_VAR = 1.0  # rad^2, as in RunConfig
NIS_MIN_IN_BOUND = 0.95  # acceptance criterion 4
STREAM_TOL = 1e-12  # streamed vs batch filter error, rad
TAIL_SAMPLES = 10  # a reported percentile keeps at least this many samples beyond it

CAL_CHUNK = 100  # streamed epochs per calibrated interval

# The stage each workload's ops exercise, and the units of one untraced cycle.
FOCUS = {"fit": "setup", "monte-carlo": "mc", "online": "stream"}
CYCLES = {
    "fit": ("setup", "mc", "setup", "stream"),
    "monte-carlo": ("setup", "mc", "stream", "mc"),
    "online": ("setup", "stream", "mc", "stream"),
}


@dataclass(frozen=True)
class Scale:
    train_duration_s: float
    test_duration_s: float
    rate_hz: float
    max_points: int
    runs: int
    min_cycles: int = 2


SCALES = {
    # what the benchmark runs: the reference world at 5 Hz with shorter
    # splits, a smaller GP and 2 Monte-Carlo runs, so that a cycle takes seconds
    "bench": Scale(600.0, 200.0, 5.0, max_points=200, runs=2),
    # the ROADMAP reference config (1800 s train, 1000-point GP, 100 runs)
    "reference": Scale(1800.0, 300.0, 10.0, max_points=1000, runs=100, min_cycles=1),
}


class CheckFailed(RuntimeError):
    """An output of the package is wrong."""


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile; refuses if fewer than TAIL_SAMPLES lie beyond it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if len(xs) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples leaves {len(xs) - rank} beyond it, "
            f"fewer than {TAIL_SAMPLES}"
        )
    return xs[rank - 1]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _files_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def gp_rmse_deg(pair, records) -> float:
    """Raw GP-pair heading RMSE on `records`, degenerate epochs skipped."""
    feats = np.array([r.feature_vector() for r in records])
    errs = []
    for pt, rec in zip(heading.predict_pseudo_trig_many(pair, feats), records):
        try:
            meas = heading.normalize(pt)
        except heading.DegeneratePredictionError:
            continue
        errs.append(so2.wrap_angle(so2.log_so2(meas.rot) - rec.gt_heading))
    return math.degrees(math.sqrt(float(np.mean(np.square(errs)))))


@dataclass
class OnlineInputs:
    pair: heading.HeadingGpPair
    records: list
    q_c: float
    theta0: float


class Bench:
    """One benchmark run: its samples, op accounting and working directory."""

    def __init__(self, workload: str, scale: Scale, seed: int, workdir, tracer=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.samples = defaultdict(list)  # metric -> calibrated values
        self.values = {}  # deterministic outputs (accuracy)
        self.latency_us: list[np.ndarray] = []  # per stream op, per epoch, calibrated
        self.raw_s = defaultdict(list)  # metric -> uncalibrated seconds
        self.last_s = math.nan  # calibrated seconds of the last _timed call
        self.op_walls = {"plain": [], "traced": []}
        self.traced_ops: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._reference_bytes = None
        self._stream_reference = None

    # -- configs -----------------------------------------------------------

    def generate_config(self) -> pipeline.GenerateConfig:
        s = self.scale
        return pipeline.GenerateConfig(
            seed=WORLD_SEED,
            train_duration_s=s.train_duration_s,
            test_duration_s=s.test_duration_s,
            rate_hz=s.rate_hz,
        )

    def run_config(self, estimator: str) -> pipeline.RunConfig:
        return pipeline.RunConfig(
            estimator=estimator,
            monte_carlo_runs=self.scale.runs,
            init_error_var=INIT_ERROR_VAR,
            seed=MC_SEED,
        )

    def initial_angle(self, records) -> float:
        """The online filter's start angle, drawn from the benchmark seed."""
        draw = np.random.default_rng(self.seed).standard_normal()
        return float(so2.wrap_angle(records[0].gt_heading + math.sqrt(INIT_ERROR_VAR) * draw))

    # -- op accounting -----------------------------------------------------

    def _calibration(self) -> Calibration:
        # probes would interrupt, and be counted in, the tracer's spans
        return Calibration(probe=self.tracer is None)

    def _timed(self, metric: str | None, fn, *args):
        """Run fn(*args) calibrated and keep its calibrated time in `last_s`
        and, if `metric` is given, as a sample of it. Returns fn's result."""
        with self._calibration() as cal:
            start = perf_counter()
            result = fn(*args)
            wall = perf_counter() - start - cal.overhead_s
        self.last_s = wall * cal.scale
        if metric is not None:
            self.raw_s[metric].append(wall)
            self.samples[metric].append(self.last_s)
        return result

    def op(self, label: str, fn, kind: str = "other", traced: bool = False):
        """Run one op and count it as attempted.

        `fn` does the timed work and returns a check, which runs untimed and
        untraced; an error in either counts the op as failed. The wall time
        of `fn` is an op sample (uncalibrated, for the tracing overhead) for
        kind "op" and unrecorded otherwise. Returns the check's result, or
        None if the op failed.
        """
        self.attempted += 1
        try:
            if traced:
                self.tracer.op = label
                self.tracer.install()
            start = perf_counter()
            try:
                check = fn()
            finally:
                wall = perf_counter() - start
                if traced:
                    self.tracer.uninstall()
            if kind == "op":
                self.op_walls["traced" if traced else "plain"].append(wall)
            if traced and kind == "op":
                self.traced_ops.append(label)
            return check()
        except Exception:  # the op boundary: record the failure and keep running
            self.failed += 1
            print(f"op {label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    # -- stages --------------------------------------------------------------

    def generate(self, out: Path):
        paths = self._timed("generate_s", pipeline.cmd_generate, self.generate_config(), out)

        def check():
            produced = _files_bytes(out)
            if self._reference_bytes is None:
                self._reference_bytes = produced
            _check(
                produced == self._reference_bytes,
                "the same seed gave a different dataset",
            )
            return paths

        return check

    def train(self, dataset: Path, out: Path):
        cfg = pipeline.TrainConfig(max_points=self.scale.max_points)
        pair = self._timed("train_s", pipeline.cmd_train, dataset, cfg, out)

        def check():
            _check(
                math.isfinite(pair.gp_sin.lml) and math.isfinite(pair.gp_cos.lml),
                "non-finite log marginal likelihood",
            )
            rmse = gp_rmse_deg(pair, world.read_dataset(dataset.with_name("test.csv")))
            _check(math.isfinite(rmse), "non-finite raw GP heading RMSE")
            self.values["gp_rmse_deg"] = rmse
            return pair

        return check

    def monte_carlo(self, data: Path, models: Path, out: Path):
        """cmd_run for every estimator, then cmd_report over the three."""
        run_dirs = [out / "runs" / est for est in pipeline.ESTIMATORS]
        run_s = []
        for est, run_dir in zip(pipeline.ESTIMATORS, run_dirs):
            self._timed(None, pipeline.cmd_run, data / "test.csv", models, self.run_config(est), run_dir)
            run_s.append(self.last_s)
        written = self._timed("report_s", pipeline.cmd_report, run_dirs, out / "report")

        def check():
            metrics = {}
            for est, run_dir, secs in zip(pipeline.ESTIMATORS, run_dirs, run_s):
                m = json.loads((run_dir / "metrics.json").read_text())
                epochs = self.scale.runs * m["n_epochs"]
                self.samples[f"run_epochs_per_s.{est}"].append(epochs / secs)
                traces = np.loadtxt(run_dir / "traces.csv", delimiter=",", skiprows=1, ndmin=2)
                _check(
                    traces.shape == (epochs, 5),
                    f"{est}: traces.csv has {traces.shape[0]} rows, expected {epochs}",
                )
                _check(
                    np.isfinite(traces[:, :4]).all() and not np.isinf(traces[:, 4]).any(),
                    f"{est}: non-finite trace entry",
                )
                keys = ["rmse_deg", "mean_3sigma_deg"]
                if est != "deadreckon":
                    keys.append("nees_within_bound_frac")
                _check(all(math.isfinite(m[k]) for k in keys), f"{est}: non-finite metric")
                metrics[est] = m
                self.values[f"rmse_deg.{est}"] = m["rmse_deg"]
            _check(
                metrics["gp-iekf"]["rmse_deg"] < metrics["deadreckon"]["rmse_deg"],
                "gp-iekf RMSE is not below dead reckoning",
            )
            nis = metrics["gp-iekf"]["nees_within_bound_frac"]
            _check(nis >= NIS_MIN_IN_BOUND, f"gp-iekf NIS in-bound fraction {nis:.3f}")
            for p in written:
                if p.name != "mahalanobis.csv":  # NaN where every run skipped an epoch
                    table = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
                    _check(np.isfinite(table).all(), f"non-finite entry in {p.name}")

        return check

    def online_inputs(self, root: Path) -> OnlineInputs:
        pair = heading.HeadingGpPair.load(root / "models")
        records = world.read_dataset(root / "data" / "test.csv")
        q_c = world.read_metadata(root / "data" / "test.csv")["noise"]["gyro_psd"]
        return OnlineInputs(pair, records, q_c, self.initial_angle(records))

    def stream(self, inp: OnlineInputs):
        """Feed the test split through the filter one epoch at a time; each
        CAL_CHUNK epochs are one calibrated interval."""
        records = inp.records
        noise = iekf.ProcessNoise(psd=inp.q_c)
        state = iekf.FilterState.from_angle(inp.theta0, INIT_ERROR_VAR)
        err = np.empty(len(records))
        latency = np.empty(len(records))
        prev = None
        for lo in range(0, len(records), CAL_CHUNK):
            chunk = range(lo, min(lo + CAL_CHUNK, len(records)))
            with self._calibration() as cal:
                for k in chunk:
                    rec = records[k]
                    probes = cal.overhead_s
                    start = perf_counter()
                    if prev is not None:
                        gyro = iekf.GyroSample(rate=prev.gyro, dt=rec.t - prev.t)
                        state = iekf.predict(state, gyro, noise)
                    feature = heading.UwbFeature(ranges=rec.ranges, rss=rec.rss)
                    try:
                        meas = heading.normalize(heading.predict_pseudo_trig(inp.pair, feature))
                    except heading.DegeneratePredictionError:
                        meas = None
                    if meas is not None:
                        state, _ = iekf.correct(state, meas)
                    latency[k] = perf_counter() - start - (cal.overhead_s - probes)
                    err[k] = so2.wrap_angle(state.angle - rec.gt_heading)
                    prev = rec
            latency[chunk.start : chunk.stop] *= cal.scale
        self.latency_us.append(1e6 * latency)

        def check():
            _check(np.isfinite(err).all(), "non-finite streamed error")
            if self._stream_reference is None:
                self._stream_reference = self._batch_errors(inp)
            gap = float(np.abs(so2.wrap_angle(err - self._stream_reference)).max())
            _check(gap <= STREAM_TOL, f"streamed error differs from run_filter by {gap:.3e}")

        return check

    @staticmethod
    def _batch_errors(inp: OnlineInputs) -> np.ndarray:
        feats = np.array([r.feature_vector() for r in inp.records])
        measurements = []
        for pt in heading.predict_pseudo_trig_many(inp.pair, feats):
            try:
                measurements.append(heading.normalize(pt))
            except heading.DegeneratePredictionError:
                measurements.append(None)
        err, _, _ = pipeline.run_filter(
            inp.records, measurements, inp.q_c, inp.theta0, INIT_ERROR_VAR
        )
        return err

    # -- workloads -----------------------------------------------------------

    def _build(self, root: Path):
        """One set-up into `root`: generate and train, and on online also load
        the model and read the test split. Returns the check, which returns
        the online inputs."""
        checks = [self.generate(root / "data")]
        setup_s = self.last_s
        checks.append(self.train(root / "data" / "train.csv", root / "models"))
        setup_s += self.last_s
        inputs = None
        if self.workload == "online":
            inputs = self._timed(None, self.online_inputs, root)
            setup_s += self.last_s
        self.samples["setup_s"].append(setup_s)

        def check():
            for c in checks:
                c()
            return inputs

        return check

    def _unit(self, name: str, label: str, inputs, traced: bool = False) -> None:
        w = self.workdir
        if name == "setup":

            def work():
                return self._build(w / "repeat")

        elif name == "mc":

            def work():
                return self.monte_carlo(w / "data", w / "models", w / "mc")

        else:

            def work():
                return self.stream(inputs)

        kind = "op" if name == FOCUS[self.workload] else "other"
        self.op(label, work, kind, traced)

    def run(self, seconds: float, traced: bool = False) -> None:
        """Set up once, then run whole cycles while the next one is expected
        to end within `seconds` (at least `scale.min_cycles`).

        Untraced, a cycle is CYCLES[workload]: a set-up repeat, the
        workload's op and the other stages, interleaved so that every metric
        is sampled across the whole run. Traced, the set-up runs under the
        tracer and a cycle is one untraced and one traced op, so their
        difference is the tracing overhead.
        """
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        inputs = self.op("setup-0", lambda: self._build(self.workdir), traced=traced)
        if self.failed:
            raise RuntimeError("set-up failed; nothing to measure")
        if inputs is None and not traced:
            inputs = self.online_inputs(self.workdir)

        focus = FOCUS[self.workload]
        start = perf_counter()
        n = 0
        while n < self.scale.min_cycles or (perf_counter() - start) * (n + 1) / n <= seconds:
            if traced:
                self._unit(focus, f"plain-{n}", inputs)
                self._unit(focus, f"op-{n}", inputs, traced=True)
            else:
                for j, name in enumerate(CYCLES[self.workload]):
                    self._unit(name, f"{name}-{n}.{j}", inputs)
            n += 1

    # -- results -------------------------------------------------------------

    def epoch_latency_us(self) -> np.ndarray:
        """Each epoch's latency, as its median over the run's stream ops.

        Every stream op repeats the same epochs from the same start, so an
        epoch does the same work each time.
        """
        return np.median(np.vstack(self.latency_us), axis=0)

    def end_to_end(self) -> dict[str, tuple[float, str, object]]:
        """name -> (value, unit, sample count) from an untraced run: the
        median of each calibrated timing."""
        out = {}
        for name, unit in (
            ("setup_s", "s"),
            ("generate_s", "s"),
            ("train_s", "s"),
            ("run_epochs_per_s.gp-iekf", "1/s"),
            ("run_epochs_per_s.mag-iekf", "1/s"),
            ("run_epochs_per_s.deadreckon", "1/s"),
            ("report_s", "s"),
        ):
            samples = self.samples[name]
            out[name] = (float(np.median(samples)), unit, len(samples))
        per_epoch = self.epoch_latency_us()
        for q in (50, 99):
            out[f"epoch_latency_us.p{q}"] = (
                percentile(per_epoch, q), "us", f"{per_epoch.size}x{len(self.latency_us)}"
            )
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mib"] = (rss_kib / 1024.0, "MiB", 1)
        for est in pipeline.ESTIMATORS:
            out[f"rmse_deg.{est}"] = (self.values[f"rmse_deg.{est}"], "deg", 1)
        out["gp_rmse_deg"] = (self.values["gp_rmse_deg"], "deg", 1)
        return out
