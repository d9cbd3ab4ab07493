"""Heading prediction from UWB range + RSS features.

Two GPs sharing one kernel map the 10-dimensional feature vector (5 ranges,
5 RSS) to pseudo-sine and pseudo-cosine of heading: one hyperparameter
search fits both, and each prediction takes one kernel and one triangular
solve for the pair. Their joint output is
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
        # along axis 0, which refuses 0-D and mixed-rank inputs with a ValueError
        vector = np.concatenate((self.ranges, self.rss), dtype=float)
        n = len(self.rss)
        if vector.ndim != 1 or vector.size != 2 * n:
            raise ValueError("ranges and rss must be 1-D and of equal length")
        # a feature's few values check faster as Python floats than by numpy calls
        values = vector.tolist()
        if not all(0.0 < v < math.inf for v in values[:n]):
            raise ValueError("ranges must be strictly positive and finite")
        if not all(math.isfinite(v) for v in values[n:]):
            raise ValueError("rss values must be finite")
        object.__setattr__(self, "_vector", vector)
        object.__setattr__(self, "ranges", vector[:n])
        object.__setattr__(self, "rss", vector[n:])

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
        if not (0.0 < self.var_s < math.inf and 0.0 < self.var_c < math.inf):
            raise ValueError("pseudo-trig variances must be finite and positive")


@dataclass(frozen=True)
class HeadingMeasurement:
    """An SO(2) heading measurement: angle (rad) with scalar variance (rad^2)."""

    angle: float
    var_theta: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"measurement angle must be finite, got {self.angle}")
        if not 0.0 < self.var_theta < math.inf:
            raise ValueError(
                f"measurement variance must be finite and positive, got {self.var_theta}"
            )

    @property
    def rot(self) -> np.ndarray:
        """The measurement as a 2x2 rotation matrix."""
        return so2.exp_so2(self.angle)


@dataclass(frozen=True)
class HeadingGpPair:
    """The sin/cos GPs, on one feature domain with one kernel."""

    gp_sin: gp.GpModel
    gp_cos: gp.GpModel

    def __post_init__(self):
        # the pair's predictions compute one kernel and one solve for both
        if not self.gp_sin.train.same_inputs(self.gp_cos.train):
            raise ValueError("sin/cos GPs disagree on training inputs or standardizer")
        if self.gp_sin.params != self.gp_cos.params:
            sin, cos = (
                f"({p.sigma_f:.6g}, {p.sigma_l:.6g}, {p.sigma_n:.6g})"
                for p in (self.gp_sin.params, self.gp_cos.params)
            )
            raise ValueError(
                f"sin/cos GPs have different kernel params (sigma_f, sigma_l, sigma_n)"
                f" {sin} and {cos}, but the pair shares one kernel; retrain the model"
                " (pairs trained with a kernel per GP cannot be loaded)"
            )

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
        gp_sin = gp.GpModel.load(sin)
        return cls(gp_sin=gp_sin, gp_cos=gp.GpModel.load(cos, factor_of=gp_sin))


def train_heading_gps(
    features: np.ndarray,
    headings: np.ndarray,
    search: gp.HyperparamSearchConfig | None = None,
) -> HeadingGpPair:
    """Fit the sin and cos GPs on a common feature matrix with one kernel,
    from one pass over it and one hyperparameter search
    (`gp.fit_shared_inputs`).

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
    gp_sin, gp_cos = gp.fit_shared_inputs(
        tuple(gp.TrainingSet(x=xs, y=f(headings), standardizer=std) for f in (np.sin, np.cos)),
        search,
    )
    return HeadingGpPair(gp_sin=gp_sin, gp_cos=gp_cos)


def predict_pseudo_trig(pair: HeadingGpPair, feature: UwbFeature) -> PseudoTrig:
    """`predict_pseudo_trig_arrays` at one feature, by `gp.predict_row`."""
    (s, vs), (c, vc) = gp.predict_row((pair.gp_sin, pair.gp_cos), feature.as_vector())
    return PseudoTrig(s=s, c=c, var_s=max(vs, VAR_FLOOR), var_c=max(vc, VAR_FLOOR))


def predict_pseudo_trig_arrays(pair: HeadingGpPair, vectors: np.ndarray):
    """Batch pseudo-trig prediction over (m, 10) raw feature vectors as
    (s, c, var_s, var_c) arrays, variances floored at VAR_FLOOR. Both GPs
    share one standardization, kernel and triangular solve."""
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
