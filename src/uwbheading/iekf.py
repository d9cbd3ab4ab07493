"""Left-invariant extended Kalman filter on SO(2).

Prediction integrates gyroscope rates on the group; correction fuses an
SO(2) heading measurement using the left-invariant innovation
log(Y^-1 X_check), which is immune to angle wrap. SO(2) is one-dimensional
and abelian, so that innovation is exactly the wrapped angle difference and
the state is a wrapped angle. The linearized Jacobians are constants
(A = 1, C = 1, M = -1), so the covariance is a scalar. The Joseph-form
update keeps it strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.stats import chi2

from . import so2
from .heading import HeadingMeasurement

__all__ = [
    "FilterState",
    "GyroSample",
    "ProcessNoise",
    "InnovationStats",
    "predict",
    "correct",
    "mahalanobis_bound",
]


@dataclass(frozen=True)
class FilterState:
    angle: float  # rad, wrapped into (-pi, pi]
    cov: float  # rad^2

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"filter angle must be finite, got {self.angle}")
        object.__setattr__(self, "angle", float(so2.wrap_angle(self.angle)))
        if not (math.isfinite(self.cov) and self.cov > 0):
            raise ValueError(f"covariance must be strictly positive, got {self.cov}")

    @classmethod
    def from_angle(cls, theta: float, cov: float) -> "FilterState":
        return cls(angle=theta, cov=cov)


@dataclass(frozen=True)
class GyroSample:
    rate: float  # rad/s
    dt: float  # s

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.dt > 0):
            raise ValueError("gyro sample needs finite rate and dt > 0")


@dataclass(frozen=True)
class ProcessNoise:
    psd: float  # rad^2/s

    def __post_init__(self):
        if self.psd <= 0:
            raise ValueError("gyro noise PSD must be strictly positive")


@dataclass(frozen=True)
class InnovationStats:
    innovation: float  # rad, on the group
    innovation_var: float  # rad^2
    mahalanobis: float  # innovation^2 / innovation_var


def predict(state: FilterState, gyro: GyroSample, noise: ProcessNoise) -> FilterState:
    """Propagate with the measured rate; exact for piecewise-constant rate."""
    return FilterState(
        angle=state.angle + gyro.rate * gyro.dt, cov=state.cov + noise.psd * gyro.dt
    )


def correct(
    state: FilterState, meas: HeadingMeasurement
) -> tuple[FilterState, InnovationStats]:
    """Fuse one SO(2) heading measurement; returns the updated state and
    innovation statistics (Joseph-form covariance update)."""
    z = float(so2.wrap_angle(state.angle - meas.angle))
    s_var = state.cov + meas.var_theta
    if s_var <= 0:  # impossible given invariants; guard regardless
        raise ValueError("non-positive innovation variance")
    gain = state.cov / s_var
    cov = (1.0 - gain) ** 2 * state.cov + gain**2 * meas.var_theta
    stats = InnovationStats(
        innovation=z, innovation_var=s_var, mahalanobis=z * z / s_var
    )
    return FilterState(angle=state.angle - gain * z, cov=cov), stats


def mahalanobis_bound(confidence: float, dof: int = 1) -> float:
    """Chi-square quantile used as the consistency bound (e.g. 0.997 -> 8.807)."""
    if dof != 1:
        raise ValueError("only 1-DOF bounds are supported")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return float(chi2.ppf(confidence, df=dof))
