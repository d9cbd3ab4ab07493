"""Heading prediction from UWB range + RSS features.

Two independent GPs map the 10-dimensional feature vector (5 ranges, 5 RSS)
to pseudo-sine and pseudo-cosine of heading. Their joint output is
normalized onto SO(2) and the scalar heading variance is propagated through
the normalization with a first-order expansion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gp, so2

__all__ = [
    "UwbFeature",
    "PseudoTrig",
    "HeadingMeasurement",
    "HeadingGpPair",
    "DegeneratePredictionError",
    "train_heading_gps",
    "predict_pseudo_trig",
    "predict_pseudo_trig_many",
    "predict_pseudo_trig_arrays",
    "normalize",
    "normalize_values",
    "NORM_EPS",
    "VAR_FLOOR",
]

NORM_EPS = 1e-3  # below this radius the linearization diverges; skip the epoch
VAR_FLOOR = 1e-8


class DegeneratePredictionError(ValueError):
    """Pseudo-trig prediction too close to the origin to normalize."""


@dataclass(frozen=True)
class UwbFeature:
    """One epoch of UWB observables, in fixed anchor-id order."""

    ranges: np.ndarray  # (5,) meters
    rss: np.ndarray  # (5,) dBi

    _vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.ranges, dtype=float).ravel()
        vector = np.concatenate([r, np.asarray(self.rss, dtype=float).ravel()])
        ok = np.isfinite(vector)
        ok[: r.size] &= r > 0
        if not ok.all():
            if not ok[: r.size].all():
                raise ValueError("ranges must be strictly positive and finite")
            raise ValueError("rss values must be finite")
        object.__setattr__(self, "_vector", vector)
        object.__setattr__(self, "ranges", vector[: r.size])
        object.__setattr__(self, "rss", vector[r.size :])

    def as_vector(self) -> np.ndarray:
        """The ranges then the RSS values, as one array that `ranges` and
        `rss` are views of."""
        return self._vector


@dataclass(frozen=True)
class PseudoTrig:
    """Unconstrained GP predictions of sin/cos heading with their variances."""

    s: float
    c: float
    var_s: float
    var_c: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.c)):
            raise ValueError("pseudo-trig values must be finite")
        if self.var_s <= 0 or self.var_c <= 0:
            raise ValueError("pseudo-trig variances must be positive")


@dataclass(frozen=True)
class HeadingMeasurement:
    """An SO(2) heading measurement: angle (rad) with scalar variance (rad^2)."""

    angle: float
    var_theta: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"measurement angle must be finite, got {self.angle}")
        if not (math.isfinite(self.var_theta) and self.var_theta > 0):
            raise ValueError("measurement variance must be positive")

    @property
    def rot(self) -> np.ndarray:
        """The measurement as a 2x2 rotation matrix."""
        return so2.exp_so2(self.angle)


@dataclass(frozen=True)
class HeadingGpPair:
    """Independent sin/cos GPs sharing the feature domain."""

    gp_sin: gp.GpModel
    gp_cos: gp.GpModel

    def __post_init__(self):
        # predict_pseudo_trig_arrays computes the query distances once for both
        a, b = self.gp_sin.train, self.gp_cos.train
        if not (
            np.array_equal(a.x, b.x)
            and np.array_equal(a.standardizer.mean, b.standardizer.mean)
            and np.array_equal(a.standardizer.scale, b.standardizer.scale)
        ):
            raise ValueError("sin/cos GPs disagree on training inputs or standardizer")

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.gp_sin.save(directory / "gp_sin.npz")
        self.gp_cos.save(directory / "gp_cos.npz")
        manifest = {
            "feature_order": "range_0..4,rss_0..4 by anchor id",
            "feature_dim": int(self.gp_sin.train.d),
            "norm_eps": NORM_EPS,
            "files": {"sin": "gp_sin.npz", "cos": "gp_cos.npz"},
        }
        (directory / "heading_model.json").write_text(
            json.dumps(manifest, indent=2) + "\n"
        )

    @classmethod
    def load(cls, directory) -> "HeadingGpPair":
        directory = Path(directory)
        path = directory / "heading_model.json"
        try:
            files = json.loads(path.read_text())["files"]
            sin, cos = [directory / files[k] for k in ("sin", "cos")]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"bad model manifest {path}: need 'files' naming the sin and cos models ({exc!r})"
            ) from exc
        return cls(gp_sin=gp.GpModel.load(sin), gp_cos=gp.GpModel.load(cos))


def train_heading_gps(
    features: np.ndarray,
    headings: np.ndarray,
    search: gp.HyperparamSearchConfig | None = None,
) -> HeadingGpPair:
    """Fit the sin and cos GPs on a common feature matrix.

    ``features`` is (m, 10) raw (unstandardized) vectors; ``headings`` is
    (m,) ground-truth angles in radians.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    headings = np.asarray(headings, dtype=float).ravel()
    if features.shape[0] != headings.shape[0]:
        raise ValueError("feature/heading row counts differ")
    if features.shape[0] < 2:
        raise ValueError("need at least 2 training records")
    if not np.all(np.isfinite(headings)):
        raise ValueError("headings must be finite")
    std = gp.Standardizer.from_data(features)
    xs = std.apply(features)
    gp_sin = gp.fit(
        gp.TrainingSet(x=xs, y=np.sin(headings), standardizer=std), search
    )
    gp_cos = gp.fit(
        gp.TrainingSet(x=xs, y=np.cos(headings), standardizer=std), search
    )
    return HeadingGpPair(gp_sin=gp_sin, gp_cos=gp_cos)


def predict_pseudo_trig(pair: HeadingGpPair, feature: UwbFeature) -> PseudoTrig:
    s, c, vs, vc = (
        float(v[0])
        for v in predict_pseudo_trig_arrays(pair, feature.as_vector()[None, :])
    )
    return PseudoTrig(s=s, c=c, var_s=vs, var_c=vc)


def predict_pseudo_trig_arrays(pair: HeadingGpPair, vectors: np.ndarray):
    """Batch pseudo-trig prediction over (m, 10) raw feature vectors as
    (s, c, var_s, var_c) arrays, variances floored at VAR_FLOOR. Both GPs
    share one standardization and one distance computation."""
    (s, vs), (c, vc) = gp.predict_shared_inputs((pair.gp_sin, pair.gp_cos), vectors)
    return s, c, np.maximum(vs, VAR_FLOOR), np.maximum(vc, VAR_FLOOR)


def predict_pseudo_trig_many(
    pair: HeadingGpPair, vectors: np.ndarray
) -> list[PseudoTrig]:
    """Batch pseudo-trig prediction over (m, 10) raw feature vectors."""
    s, c, vs, vc = predict_pseudo_trig_arrays(pair, vectors)
    return [
        PseudoTrig(s=float(si), c=float(ci), var_s=float(vi), var_c=float(wi))
        for si, ci, vi, wi in zip(s, c, vs, vc)
    ]


def normalize_values(s: float, c: float, var_s: float, var_c: float):
    """`normalize` on plain floats: (angle, variance) of one pseudo-trig
    pair, or None if its radius is below NORM_EPS."""
    norm = math.hypot(s, c)
    if norm < NORM_EPS:
        return None
    var = (c * c * var_s + s * s * var_c) / norm**4
    return math.atan2(s, c), max(var, VAR_FLOOR)


def normalize(pt: PseudoTrig) -> HeadingMeasurement:
    """Project pseudo-trig onto SO(2) and propagate the variance.

    The heading is atan2(s, c). Its variance is the first-order push-forward
    of (var_s, var_c) through atan2, whose gradient is (c, -s) / r^2.
    """
    projected = normalize_values(pt.s, pt.c, pt.var_s, pt.var_c)
    if projected is None:
        raise DegeneratePredictionError(
            f"pseudo-trig radius {math.hypot(pt.s, pt.c):.3e} below {NORM_EPS};"
            " skip this epoch"
        )
    return HeadingMeasurement(angle=projected[0], var_theta=projected[1])
