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

import itertools
import json
import math
import numbers
import sys
import tokenize
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

TRAJECTORY_MARGIN_M = 0.05  # gap between a trajectory's sweep and the walls

_DATASET_ANCHORS = 5  # the dataset header has range/RSS columns for this many

DATASET_COLUMNS = (
    ["t"]
    + [f"range_{i}" for i in range(_DATASET_ANCHORS)]
    + [f"rss_{i}" for i in range(_DATASET_ANCHORS)]
    + ["gyro", "mag", "gt_theta"]
)


def finite_number(x) -> bool:
    """A real number that is finite as a float (an int beyond the float range
    is not); bools are not numbers here."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def integer_from(least: int):
    """The rule of an integer >= `least` that is a `finite_number`."""
    return (lambda x: isinstance(x, numbers.Integral) and finite_number(x) and x >= least,
            f"a finite integer >= {least}")


def check(rule, **values) -> None:
    """ValueError naming the first of `values` that fails `rule`, a (test,
    description of the valid values) pair. The settings types here and in
    `gp` and `pipeline` check their fields with these rules."""
    test, valid = rule
    for name, value in values.items():
        if not test(value):
            raise ValueError(f"{name} must be {valid}, got {value!r}")


FINITE = (finite_number, "a finite number")
POSITIVE = (lambda x: finite_number(x) and x > 0, "a finite number > 0")
NON_NEGATIVE = (lambda x: finite_number(x) and x >= 0, "a finite number >= 0")
SEED = integer_from(0)


@dataclass(frozen=True)
class Rectangle:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        check(FINITE, **vars(self))
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

    def contains(self, p) -> np.ndarray:
        """Whether each point of an (..., 2) array lies inside, within 1e-9."""
        p = np.asarray(p, dtype=float)
        lo = np.array([self.xmin, self.ymin]) - 1e-9
        hi = np.array([self.xmax, self.ymax]) + 1e-9
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


def default_anchors(area: Rectangle = DEFAULT_AREA) -> list[Anchor]:
    """Five anchors: four 0.3 m outside the corners, one past the mid +y wall."""
    dx, dy = 0.3, 0.3
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
    keeping the peak-to-trough spread near 10 dBi.
    """

    g0: float = 0.0
    a2: float = 4.0  # two-lobe amplitude, dBi
    phi2: float = 0.0
    a1: float = 2.0  # single-lobe amplitude, dBi
    phi1: float = 0.0

    def __post_init__(self):
        check(FINITE, **vars(self))

    def gain(self, phi) -> np.ndarray:
        """Gain at relative bearing(s) phi; 2*pi periodic."""
        phi = np.asarray(phi, dtype=float)
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

    def __post_init__(self):
        check(FINITE, p0=self.p0, gamma=self.gamma)
        check(POSITIVE, d0=self.d0)

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
        check(NON_NEGATIVE, range_std=self.range_std, rss_std=self.rss_std, gyro_psd=self.gyro_psd,
              mag_std=self.mag_std, mag_disturbance_radius=self.mag_disturbance_radius)
        check(POSITIVE, rss_quantum=self.rss_quantum)
        check(SEED, seed=self.seed)
        check((lambda c: c is None or np.shape(np.array(c, dtype=object)) == (2,)
               and all(map(finite_number, c)),
               "None or a finite 2-vector"), mag_disturbance_center=self.mag_disturbance_center)
        check(FINITE, mag_disturbance_bias=self.mag_disturbance_bias)


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
    area: Rectangle, duration: float, rate_hz: float, seed: int = 0
) -> Trajectory:
    """Sample a smooth-random ground-truth trajectory confined to ``area``:
    a drifting heading and a quasi-random position sweep."""
    check(POSITIVE, duration=duration, rate_hz=rate_hz)
    check(SEED, seed=seed)
    if not finite_number(duration * rate_hz):
        raise ValueError(f"duration * rate_hz must be finite, got {duration * rate_hz!r}")
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate_hz))
    t = np.arange(n) / rate_hz
    cx, cy = area.center
    ax = (area.xmax - area.xmin) / 2.0 - TRAJECTORY_MARGIN_M
    ay = (area.ymax - area.ymin) / 2.0 - TRAJECTORY_MARGIN_M
    if min(ax, ay) < 0:
        raise ValueError(f"area sides must be at least {2 * TRAJECTORY_MARGIN_M} m")

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
# float-table CSV files: datasets, run traces and report tables


def row0_suffix_starts(rows) -> np.ndarray:
    """For each row of a 2-D float array, the column from which the row
    equals row 0 bit for bit to its end: one past its last cell that differs
    from row 0's, or 0 if none does. A -0.0 differs from 0.0."""
    bits = np.ascontiguousarray(rows, dtype=float).view(np.int64)
    differs = bits != bits[:1]
    return (differs * np.arange(1, bits.shape[1] + 1)).max(axis=1, initial=0)


def float_cells(values):
    """The cells of a 1-D or 2-D float array in C order, each the exact
    `repr` of its value: the text that `read_table` reads back bit for bit.
    A 2-D array formats row 0 once; each other row formats only the cells
    before the suffix it shares with row 0 (`row0_suffix_starts`), as
    Monte-Carlo runs do once they join run 0, and reuses row 0's text for
    that suffix. A 1-D array's text is made only as it is consumed."""
    rows = np.atleast_2d(np.asarray(values, dtype=float))
    if len(rows) < 2:
        return map(repr, rows.ravel().tolist())
    first = list(map(repr, rows[0].tolist()))
    return itertools.chain.from_iterable(
        itertools.chain(map(repr, row[:start].tolist()), first[start:])
        for row, start in zip(rows, row0_suffix_starts(rows).tolist())
    )


def write_table(path, header, columns) -> None:
    """Write equal-length `columns` under `header` as CSV, one row per index.
    A numpy array column is written by `float_cells`; any other column is an
    iterable of cells already in text (a repeated or integer column)."""
    cells = [float_cells(c) if isinstance(c, np.ndarray) else c for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path, header) -> np.ndarray:
    """A `write_table` CSV as an (n, len(header)) float array; a wrong
    header, a row of the wrong width or a cell that is not a number raises
    ValueError naming the file. Parsed as bytes, not decoded: numpy converts
    a bytes cell with float(), as a str one. CRLF line ends read as LF."""
    path, width = Path(path), len(header)
    head, _, body = path.read_bytes().strip().partition(b"\n")
    if head.rstrip(b"\r") != ",".join(header).encode():
        raise ValueError(f"bad header in {path}: expected {','.join(header)}")
    if not body:
        return np.empty((0, width))
    # commas per line, counted over the bytes rather than in a loop over rows
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.append(np.flatnonzero(buf == ord("\n")), buf.size)
    commas = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0)
    if (commas != width - 1).any():
        k = int(np.argmax(commas != width - 1))
        raise ValueError(f"{path} line {k + 2}: bad row width, {commas[k] + 1} cells")
    try:
        return np.array(body.replace(b"\n", b",").split(b","), dtype=float).reshape(-1, width)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# .npy arrays: a model archive's members and a run's per-epoch means

_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def read_npy(fp, size: int) -> np.ndarray:
    """The array in `fp`, an .npy stream of `size` bytes (a file, or a
    member of an .npz archive), as np.load reads it with allow_pickle=False.
    ValueError for a bad magic string or header, an array of Python objects,
    or a header whose shape and dtype do not account for exactly the bytes
    that follow it; that is checked before anything is allocated."""
    version = np.lib.format.read_magic(fp)
    if version not in _NPY_HEADER_READERS:
        raise ValueError(f"unsupported .npy format version {version}")
    try:
        shape, fortran_order, dtype = _NPY_HEADER_READERS[version](fp)
    except tokenize.TokenError as exc:  # from numpy's parse of an unclosed header
        raise ValueError(exc) from exc
    if dtype.hasobject:
        raise ValueError(f"an array of {dtype}, which holds Python objects, is not read")
    if any(length < 0 for length in shape):
        raise ValueError(f"the header's shape {shape} has a negative length")
    nbytes, present = math.prod(shape) * dtype.itemsize, size - fp.tell()
    if nbytes != present:
        raise ValueError(f"the header's shape {shape} of {dtype} needs {nbytes} bytes of"
                         f" data, but {present} follow it")
    data = bytearray(nbytes)
    if fp.readinto(data) != nbytes:
        raise ValueError(f"the array data end before its {nbytes} bytes")
    array = np.frombuffer(data, dtype=dtype)
    return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


# ---------------------------------------------------------------------------
# dataset files


def write_dataset(path, data: Dataset, metadata: dict | None = None) -> None:
    """Write the dataset as a `write_table` CSV (round-trips exactly) and, if
    given, a JSON metadata sidecar at <stem>.meta.json. A dataset with other
    than 5 range or RSS columns raises ValueError before anything is
    written."""
    width = (data.ranges.shape[1], data.rss.shape[1])
    if width != (_DATASET_ANCHORS, _DATASET_ANCHORS):
        raise ValueError(
            f"{width[0]} range and {width[1]} RSS columns;"
            f" a dataset holds {_DATASET_ANCHORS} anchors"
        )
    columns = [data.t, *data.ranges.T, *data.rss.T, data.gyro, data.mag, data.gt_heading]
    write_table(path, DATASET_COLUMNS, columns)
    if metadata is not None:
        metadata_path(path).write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def metadata_path(dataset_path) -> Path:
    dataset_path = Path(dataset_path)
    return dataset_path.with_suffix(".meta.json")


def read_dataset(path) -> Dataset:
    """Read a dataset CSV; rows must be finite, with strictly increasing t
    and positive ranges (ValueError naming the first bad line otherwise)."""
    table = read_table(path, DATASET_COLUMNS)
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
) -> dict:
    # "table" and "profile" are constants, kept so that sidecars stay byte-identical
    return {
        "area": [area.xmin, area.xmax, area.ymin, area.ymax],
        "anchors": [{"id": a.id, "position": a.position.tolist()} for a in anchors],
        "pattern": {**asdict(pattern), "table": None},
        "path_loss": asdict(path_loss),
        "noise": asdict(cfg),
        "seed": seed,
        "duration_s": duration,
        "rate_hz": rate_hz,
        "profile": "smooth-random",
        "columns": DATASET_COLUMNS,
    }
