"""Synthetic UWB/gyro/magnetometer world.

Generates planar trajectories in a rectangular area with 5 anchors, then
samples range, RSS, gyroscope, and magnetometer readings against ground
truth. RSS combines log-distance path loss with a heading-dependent antenna
gain pattern and is quantized to a configurable dBi step.

Sensors are sampled for the whole trajectory at once. Determinism: one
numpy Generator per dataset and one (n, k) standard-normal block drawn from
it, whose row for each epoch is ordered 5 ranges, 5 RSS, gyro, mag; a sensor
whose std (or PSD) is zero draws nothing and leaves its columns out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import so2

__all__ = [
    "Rectangle",
    "Anchor",
    "AntennaPattern",
    "PathLossModel",
    "SensorNoiseConfig",
    "Trajectory",
    "SampleRecord",
    "Dataset",
    "default_anchors",
    "generate_trajectory",
    "quantize",
    "build_dataset",
    "write_dataset",
    "read_dataset",
    "read_metadata",
]

RANGE_FLOOR_M = 0.01

TRAJECTORY_PROFILES = ("smooth-random", "waypoint-loop", "spin-in-place")
TRAJECTORY_MARGIN_M = 0.05  # gap between a trajectory's sweep and the walls

_DATASET_ANCHORS = 5  # the dataset header has range/RSS columns for this many

DATASET_COLUMNS = (
    ["t"]
    + [f"range_{i}" for i in range(_DATASET_ANCHORS)]
    + [f"rss_{i}" for i in range(_DATASET_ANCHORS)]
    + ["gyro", "mag", "gt_theta"]
)


@dataclass(frozen=True)
class Rectangle:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("degenerate area")

    @classmethod
    def centered(cls, width: float, height: float) -> "Rectangle":
        return cls(-width / 2, width / 2, -height / 2, height / 2)

    @property
    def center(self) -> np.ndarray:
        return np.array(
            [(self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0]
        )

    def contains(self, p, slack: float = 1e-9) -> np.ndarray:
        """Whether each point of an (..., 2) array lies inside, within slack."""
        p = np.asarray(p, dtype=float)
        lo = np.array([self.xmin, self.ymin]) - slack
        hi = np.array([self.xmax, self.ymax]) + slack
        return np.all((lo <= p) & (p <= hi), axis=-1)


# Default experimental area: roughly 4 m x 2 m.
DEFAULT_AREA = Rectangle.centered(4.0, 2.0)


@dataclass(frozen=True)
class Anchor:
    id: int
    position: np.ndarray  # (2,) meters

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).ravel()
        if p.shape != (2,) or not np.all(np.isfinite(p)):
            raise ValueError("anchor position must be a finite 2-vector")
        object.__setattr__(self, "position", p)


def default_anchors(area: Rectangle = DEFAULT_AREA, margin: float = 0.3) -> list[Anchor]:
    """Five anchors: four just outside the corners, one past the mid +x wall."""
    dx, dy = margin, margin
    return [
        Anchor(0, (area.xmin - dx, area.ymin - dy)),
        Anchor(1, (area.xmax + dx, area.ymin - dy)),
        Anchor(2, (area.xmax + dx, area.ymax + dy)),
        Anchor(3, (area.xmin - dx, area.ymax + dy)),
        Anchor(4, (area.center[0], area.ymax + 2 * dy)),
    ]


@dataclass(frozen=True)
class AntennaPattern:
    """Heading-dependent antenna gain in dBi.

    Parametric form: g(phi) = g0 + a2*cos(2(phi - phi2)) + a1*cos(phi - phi1).
    A pure two-lobe pattern (a1 = 0) is pi-symmetric and leaves heading
    observable only mod pi, so the default mixes in a single-lobe term while
    keeping the peak-to-trough spread near 10 dBi. A measured gain table
    (periodic linear interpolation) may be supplied instead.
    """

    g0: float = 0.0
    a2: float = 4.0  # two-lobe amplitude, dBi
    phi2: float = 0.0
    a1: float = 2.0  # single-lobe amplitude, dBi
    phi1: float = 0.0
    table: np.ndarray | None = None  # (k, 2) of (bearing rad, gain dBi)

    def __post_init__(self):
        if self.table is not None:
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 2 or t.shape[1] != 2 or not np.all(np.isfinite(t)):
                raise ValueError("gain table must be a finite (k, 2) array")
            t = t[np.argsort(t[:, 0])]
            object.__setattr__(self, "table", t)

    def gain(self, phi) -> np.ndarray:
        """Gain at relative bearing(s) phi; 2*pi periodic."""
        phi = np.asarray(phi, dtype=float)
        if self.table is not None:
            xp = self.table[:, 0]
            fp = self.table[:, 1]
            # close the period so interpolation wraps
            xp = np.concatenate([xp, [xp[0] + 2 * math.pi]])
            fp = np.concatenate([fp, [fp[0]]])
            return np.interp(np.mod(phi - xp[0], 2 * math.pi) + xp[0], xp, fp)
        return (
            self.g0
            + self.a2 * np.cos(2.0 * (phi - self.phi2))
            + self.a1 * np.cos(phi - self.phi1)
        )


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss: p0 at reference distance d0, exponent gamma."""

    p0: float = -75.0  # dBi at d0
    d0: float = 1.0  # m
    gamma: float = 1.8

    def loss(self, distance) -> np.ndarray:
        d = np.maximum(np.asarray(distance, dtype=float), RANGE_FLOOR_M)
        return self.p0 - 10.0 * self.gamma * np.log10(d / self.d0)


@dataclass(frozen=True)
class SensorNoiseConfig:
    range_std: float = 0.10  # m, decimeter-level ranging
    rss_std: float = 0.5  # dBi
    gyro_psd: float = 3e-3  # rad^2/s, low-cost MEMS class
    mag_std: float = 0.05  # rad
    rss_quantum: float = 1.0  # dBi
    seed: int = 0
    # optional localized magnetic disturbance: constant heading bias inside
    # a disc, emulating proximity to metallic structure
    mag_disturbance_center: tuple[float, float] | None = None
    mag_disturbance_radius: float = 0.5
    mag_disturbance_bias: float = 0.5  # rad

    def __post_init__(self):
        if min(self.range_std, self.rss_std, self.mag_std) < 0 or self.gyro_psd < 0:
            raise ValueError("noise standard deviations must be non-negative")
        if self.rss_quantum <= 0:
            raise ValueError("rss quantum must be positive")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A ground-truth trajectory as columns, one row per epoch."""

    t: np.ndarray  # (n,) s
    position: np.ndarray  # (n, 2) m
    heading: np.ndarray  # (n,) rad, unwrapped
    rate: np.ndarray  # (n,) rad/s


@dataclass(frozen=True)
class SampleRecord:
    t: float
    ranges: np.ndarray  # (5,) m, anchor-id order
    rss: np.ndarray  # (5,) dBi, anchor-id order
    gyro: float  # rad/s
    mag: float  # rad
    gt_heading: float  # rad

    def feature_vector(self) -> np.ndarray:
        return np.concatenate([self.ranges, self.rss])


@dataclass(frozen=True, eq=False)
class Dataset:
    """A dataset as columns, one row per epoch.

    Indexing and iteration give SampleRecord rows holding Python floats and
    views of the ranges/rss rows.
    """

    t: np.ndarray  # (n,) s
    ranges: np.ndarray  # (n, 5) m, anchor-id order
    rss: np.ndarray  # (n, 5) dBi, anchor-id order
    gyro: np.ndarray  # (n,) rad/s
    mag: np.ndarray  # (n,) rad
    gt_heading: np.ndarray  # (n,) rad

    @property
    def features(self) -> np.ndarray:
        """The (n, 10) GP feature matrix: ranges then RSS."""
        return np.hstack([self.ranges, self.rss])

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k: int) -> SampleRecord:
        return SampleRecord(
            self.t[k].item(), self.ranges[k], self.rss[k],
            self.gyro[k].item(), self.mag[k].item(), self.gt_heading[k].item(),
        )

    def __iter__(self):
        return map(
            SampleRecord, self.t.tolist(), self.ranges, self.rss,
            self.gyro.tolist(), self.mag.tolist(), self.gt_heading.tolist(),
        )


# ---------------------------------------------------------------------------
# trajectories


def generate_trajectory(
    area: Rectangle,
    duration: float,
    rate_hz: float,
    profile: str = "smooth-random",
    seed: int = 0,
) -> Trajectory:
    """Sample a ground-truth trajectory confined to ``area``.

    Profiles: smooth-random (drifting heading, quasi-random position sweep),
    waypoint-loop (elliptic loop with tangent heading), spin-in-place.
    """
    if duration <= 0 or rate_hz <= 0:
        raise ValueError("duration and rate must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate_hz))
    t = np.arange(n) / rate_hz
    cx, cy = area.center
    ax = (area.xmax - area.xmin) / 2.0 - TRAJECTORY_MARGIN_M
    ay = (area.ymax - area.ymin) / 2.0 - TRAJECTORY_MARGIN_M
    if min(ax, ay) < 0:
        raise ValueError(f"area sides must be at least {2 * TRAJECTORY_MARGIN_M} m")

    if profile == "spin-in-place":
        omega = 2.5 * 2 * math.pi / duration  # >= 2 full revolutions
        pos = np.tile(area.center, (n, 1))
        heading = omega * t
        rate = np.full(n, omega)
    elif profile == "smooth-random":
        # heading: slow drift plus low-frequency sinusoids; the analytic rate
        # keeps finite-difference consistency below 1e-6 rad/s at 100 Hz
        drift = rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.25)
        amps = rng.uniform(0.2, 0.5, size=3)
        freqs = rng.uniform(0.05, 0.25, size=3)
        phases = rng.uniform(0.0, 2 * math.pi, size=3)
        theta0 = rng.uniform(-math.pi, math.pi)
        arg = np.outer(t, freqs) + phases
        heading = theta0 + drift * t + np.sum(amps * np.sin(arg), axis=-1)
        rate = drift + np.sum(amps * freqs * np.cos(arg), axis=-1)
        # quasi-random bounded position sweep: two incommensurate sinusoids
        # per axis with amplitude budget inside the area
        nu = rng.uniform(0.03, 0.12, size=4)
        ph = rng.uniform(0.0, 2 * math.pi, size=4)
        x = cx + ax * (0.6 * np.sin(nu[0] * t + ph[0]) + 0.4 * np.sin(nu[1] * t + ph[1]))
        y = cy + ay * (0.6 * np.sin(nu[2] * t + ph[2]) + 0.4 * np.sin(nu[3] * t + ph[3]))
        pos = np.column_stack([x, y])
    elif profile == "waypoint-loop":
        loops = max(2.0, duration / 60.0)
        psi0 = rng.uniform(0.0, 2 * math.pi)
        psi_rate = loops * 2 * math.pi / duration
        psi = psi0 + psi_rate * t
        rx, ry = 0.9 * ax, 0.9 * ay
        pos = np.column_stack([cx + rx * np.cos(psi), cy + ry * np.sin(psi)])
        vx, vy = -rx * np.sin(psi) * psi_rate, ry * np.cos(psi) * psi_rate
        axx, ayy = -rx * np.cos(psi) * psi_rate**2, -ry * np.sin(psi) * psi_rate**2
        heading = np.unwrap(np.arctan2(vy, vx))
        rate = (vx * ayy - vy * axx) / (vx**2 + vy**2)
    else:
        raise ValueError(f"unknown trajectory profile: {profile}")

    if not area.contains(pos).all():
        raise AssertionError("trajectory escaped the area")
    return Trajectory(t, pos, heading, rate)


# ---------------------------------------------------------------------------
# sensors


def quantize(x, quantum: float):
    return np.round(np.asarray(x, dtype=float) / quantum) * quantum


def _distance(delta: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis, as sqrt of a self dot product.

    A 1-D ``np.linalg.norm`` is ``sqrt(dot(v, v))``; ``vecdot`` rounds the
    same way, while an axis-wise ``norm`` or ``hypot`` can differ in the
    last bit.
    """
    return np.sqrt(np.vecdot(delta, delta))


def build_dataset(
    trajectory: Trajectory,
    anchors: list[Anchor],
    pattern: AntennaPattern,
    cfg: SensorNoiseConfig,
    path_loss: PathLossModel = PathLossModel(),
) -> Dataset:
    """One row per trajectory epoch, all sensors sampled at that epoch.

    The gyro noise of an epoch scales with the time since the previous epoch
    (the first uses the gap to the second, or 0.1 s if it is alone); times
    that do not strictly increase raise ValueError.
    """
    if len({a.id for a in anchors}) != len(anchors):
        raise ValueError("anchor ids must be unique")
    anchors = sorted(anchors, key=lambda a: a.id)
    t, pos, heading, rate = trajectory.t, trajectory.position, trajectory.heading, trajectory.rate
    n, m = len(t), len(anchors)
    dt = np.diff(t)
    dt = np.concatenate([dt[:1] if n > 1 else [0.1] * n, dt])
    if np.any(dt <= 0):
        k = int(np.argmax(dt <= 0))
        raise ValueError(f"dt must be positive (epoch {k}: dt = {dt[k]})")

    # one draw block in per-epoch order: ranges, rss, gyro, mag; a sensor
    # with zero std/PSD draws nothing
    widths = [
        m * (cfg.range_std > 0),
        m * (cfg.rss_std > 0),
        int(cfg.gyro_psd > 0),
        int(cfg.mag_std > 0),
    ]
    z = np.random.default_rng(cfg.seed).standard_normal((n, sum(widths)))
    z_range, z_rss, z_gyro, z_mag = np.split(z, np.cumsum(widths)[:-1], axis=1)

    delta = np.array([a.position for a in anchors]).reshape(1, m, 2) - pos[:, None, :]
    dist = _distance(delta)
    ranges = dist + (cfg.range_std * z_range if cfg.range_std > 0 else 0.0)
    ranges = np.maximum(ranges, RANGE_FLOOR_M)

    bearing = np.arctan2(delta[..., 1], delta[..., 0]) - heading[:, None]
    rss = path_loss.loss(dist) + pattern.gain(bearing)
    rss = rss + (cfg.rss_std * z_rss if cfg.rss_std > 0 else 0.0)
    rss = quantize(rss, cfg.rss_quantum)

    gyro = rate + (np.sqrt(cfg.gyro_psd / dt) * z_gyro[:, 0] if cfg.gyro_psd > 0 else 0.0)

    bias = np.zeros(n)
    if cfg.mag_disturbance_center is not None:
        center = np.asarray(cfg.mag_disturbance_center, dtype=float)
        inside = _distance(pos - center) <= cfg.mag_disturbance_radius
        bias[inside] = cfg.mag_disturbance_bias
    mag = so2.wrap_angle(
        heading + bias + (cfg.mag_std * z_mag[:, 0] if cfg.mag_std > 0 else 0.0)
    )
    return Dataset(t, ranges, rss, gyro, mag, so2.wrap_angle(heading))


# ---------------------------------------------------------------------------
# dataset files


def write_dataset(path, data: Dataset, metadata: dict | None = None) -> None:
    """Write CSV (header + repr-precision decimals, round-trips exactly) and,
    if given, a JSON metadata sidecar at <stem>.meta.json. A dataset with
    other than 5 range or RSS columns raises ValueError before anything is
    written."""
    width = (data.ranges.shape[1], data.rss.shape[1])
    if width != (_DATASET_ANCHORS, _DATASET_ANCHORS):
        raise ValueError(
            f"{width[0]} range and {width[1]} RSS columns;"
            f" a dataset holds {_DATASET_ANCHORS} anchors"
        )
    table = np.column_stack(
        [data.t, data.ranges, data.rss, data.gyro, data.mag, data.gt_heading]
    )
    lines = [",".join(DATASET_COLUMNS)]
    lines += [",".join(map(repr, row.tolist())) for row in table]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    if metadata is not None:
        metadata_path(path).write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def metadata_path(dataset_path) -> Path:
    dataset_path = Path(dataset_path)
    return dataset_path.with_suffix(".meta.json")


def read_dataset(path) -> Dataset:
    """Read a dataset CSV; rows must be finite, with strictly increasing t
    and positive ranges (ValueError naming the first bad line otherwise)."""
    table = _read_table(Path(path))
    finite = np.isfinite(table).all(axis=1)
    increasing = np.concatenate([[True], table[1:, 0] > table[:-1, 0]])
    positive = (table[:, 1:6] > 0).all(axis=1)
    bad = np.flatnonzero(~(finite & increasing & positive))
    if bad.size:
        i = int(bad[0])
        reason = (
            "non-finite value" if not finite[i]
            else "t does not increase" if not increasing[i]
            else "non-positive range"
        )
        raise ValueError(f"{path} line {i + 2}: {reason}")
    return Dataset(
        table[:, 0], table[:, 1:6], table[:, 6:11], table[:, 11], table[:, 12], table[:, 13]
    )


def _read_table(path: Path) -> np.ndarray:
    """The CSV's rows as an (n, 14) array, header and row widths checked."""
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0].split(",") != DATASET_COLUMNS:
        raise ValueError(f"bad dataset header in {path}")
    rows = lines[1:]
    if any(ln.count(",") != len(DATASET_COLUMNS) - 1 for ln in rows):
        raise ValueError(f"bad row width in {path}")
    if not rows:
        return np.empty((0, len(DATASET_COLUMNS)))
    cells = np.array(",".join(rows).split(","), dtype=float)
    return cells.reshape(len(rows), len(DATASET_COLUMNS))


def read_metadata(dataset_path) -> dict:
    return json.loads(metadata_path(dataset_path).read_text())


def world_metadata(
    area: Rectangle,
    anchors: list[Anchor],
    pattern: AntennaPattern,
    cfg: SensorNoiseConfig,
    path_loss: PathLossModel,
    seed: int,
    duration: float,
    rate_hz: float,
    profile: str,
) -> dict:
    return {
        "area": [area.xmin, area.xmax, area.ymin, area.ymax],
        "anchors": [{"id": a.id, "position": a.position.tolist()} for a in anchors],
        "pattern": {
            "g0": pattern.g0,
            "a2": pattern.a2,
            "phi2": pattern.phi2,
            "a1": pattern.a1,
            "phi1": pattern.phi1,
            "table": None if pattern.table is None else pattern.table.tolist(),
        },
        "path_loss": asdict(path_loss),
        "noise": asdict(cfg),
        "seed": seed,
        "duration_s": duration,
        "rate_hz": rate_hz,
        "profile": profile,
        "columns": DATASET_COLUMNS,
    }
