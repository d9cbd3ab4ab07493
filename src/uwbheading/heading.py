"""Heading prediction from UWB range + RSS features.

One two-output GP maps the 10-dimensional feature vector (5 ranges, 5 RSS)
to pseudo-sine and pseudo-cosine of heading: its two outputs share one
kernel, fitted by one hyperparameter search, and each prediction takes one
kernel and one product with the model's cached inverse Cholesky factor for
both. The model is saved as one archive, `heading_model.npz`. Its joint
output is normalized onto SO(2), and the outputs' one posterior variance is
propagated through the normalization with a first-order expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gp
from .iekf import HeadingMeasurement  # re-exported: normalize's result

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
MODEL_FILE = "heading_model.npz"  # the model's archive in a model directory


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
    """Unconstrained GP predictions of sin/cos heading and their one shared variance."""

    s: float
    c: float
    var: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.c)):
            raise ValueError("pseudo-trig values must be finite")
        if not 0.0 < self.var < math.inf:
            raise ValueError("pseudo-trig variance must be finite and positive")


@dataclass(frozen=True)
class HeadingGpPair:
    """The sin/cos GPs: one model whose two outputs, the rows of its (2, n)
    `train.y`, are sin and cos of heading."""

    model: gp.GpModel

    @property
    def gp_sin(self) -> gp.GpModel:
        """The sin output as a one-output model (`gp.GpModel.output`)."""
        return self.model.output(0)

    @property
    def gp_cos(self) -> gp.GpModel:
        """The cos output as a one-output model (`gp.GpModel.output`)."""
        return self.model.output(1)

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.model.save(directory / MODEL_FILE)

    @classmethod
    def load(cls, directory) -> "HeadingGpPair":
        """ValueError naming the archive if it is not a two-output model whose
        outputs `y` and their means `y_mean`, values of sin and cos, are all
        in [-1, 1]."""
        path = Path(directory) / MODEL_FILE
        model = gp.GpModel.load(path)
        if model.train.y.shape[:-1] != (2,):
            raise ValueError(
                f"bad model archive {path}: y has shape {model.train.y.shape},"
                " not (2, n) for the sin and cos outputs"
            )
        for key, values in (("y", model.train.y), ("y_mean", model.y_mean)):
            if not (np.abs(values) <= 1.0).all():
                raise ValueError(
                    f"bad model archive {path}: {key} holds values outside [-1, 1],"
                    " which no sin or cos takes"
                )
        return cls(model)


def train_heading_gps(
    features: np.ndarray,
    headings: np.ndarray,
    search: gp.HyperparamSearchConfig | None = None,
) -> HeadingGpPair:
    """Fit the sin and cos outputs on a common feature matrix with one
    kernel, by one `gp.fit`.

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
    trig = np.array([np.sin(headings), np.cos(headings)])
    return HeadingGpPair(gp.fit(gp.TrainingSet.from_raw(features, trig), search))


def predict_pseudo_trig(pair: HeadingGpPair, feature: UwbFeature) -> PseudoTrig:
    """`predict_pseudo_trig_arrays` at one feature, by the model's one-row
    `predict`."""
    (s, c), v = pair.model.predict(feature.as_vector())
    return PseudoTrig(s=s, c=c, var=max(v, VAR_FLOOR))


def predict_pseudo_trig_arrays(pair: HeadingGpPair, vectors: np.ndarray):
    """Batch pseudo-trig prediction over (m, 10) raw feature vectors as
    (s, c, var) arrays, the variance floored at VAR_FLOOR."""
    (s, c), v = pair.model.predict_many(vectors)
    return s, c, np.maximum(v, VAR_FLOOR)


def predict_pseudo_trig_many(pair: HeadingGpPair, vectors: np.ndarray) -> list[PseudoTrig]:
    """Batch pseudo-trig prediction over (m, 10) raw feature vectors."""
    arrays = predict_pseudo_trig_arrays(pair, vectors)
    return [PseudoTrig(*row) for row in zip(*(a.tolist() for a in arrays))]


def normalize_values(s: float, c: float, var: float):
    """`normalize` on plain floats: (angle, variance) of one pseudo-trig
    pair, or None if its radius is below NORM_EPS."""
    norm = math.hypot(s, c)
    if norm < NORM_EPS:
        return None
    return math.atan2(s, c), max(var / (norm * norm), VAR_FLOOR)


def normalize(pt: PseudoTrig) -> HeadingMeasurement:
    """Project pseudo-trig onto SO(2) and propagate the variance.

    The heading is atan2(s, c). Its variance is the first-order push-forward
    of the isotropic variance var through atan2, whose gradient is
    (c, -s) / r^2: var (c^2 + s^2) / r^4 = var / r^2.
    """
    projected = normalize_values(pt.s, pt.c, pt.var)
    if projected is None:
        raise DegeneratePredictionError(
            f"pseudo-trig radius {math.hypot(pt.s, pt.c):.3e} below {NORM_EPS};"
            " skip this epoch"
        )
    return HeadingMeasurement(angle=projected[0], var_theta=projected[1])
