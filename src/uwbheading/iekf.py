"""Left-invariant extended Kalman filter on SO(2).

Prediction integrates gyroscope rates on the group; correction fuses an
SO(2) heading measurement using the left-invariant innovation
log(Y^-1 X_check), which is immune to angle wrap. SO(2) is one-dimensional
and abelian, so that innovation is exactly the wrapped angle difference and
the state is a wrapped angle. The linearized Jacobians are constants
(A = 1, C = 1, M = -1), so the covariance is a scalar. The Joseph-form
update keeps it strictly positive.

The measurement is a `HeadingMeasurement`, whatever produced it (the GP
pair in `heading`, or the magnetometer). The online API (`predict`/`correct`
on a validated `FilterState`) and the batch pass `filter_runs` (many runs
over the same epochs, validated only at its inputs, each measurement once)
share the correction's angle-free part, `_gain`, and do the same float
arithmetic in the same order, so they agree bit for bit. The covariance does
not depend on the angle, so `filter_runs` computes it once for all runs,
then each run's angle until the run joins run 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import so2

__all__ = [
    "HeadingMeasurement",
    "FilterState",
    "GyroSample",
    "ProcessNoise",
    "InnovationStats",
    "predict",
    "correct",
    "filter_runs",
]


def _checked(angle: float, var: float) -> tuple[float, float]:
    """(angle, var), or ValueError if they are not a measurement's."""
    if not math.isfinite(angle):
        raise ValueError(f"measurement angle must be finite, got {angle}")
    if not 0.0 < var < math.inf:
        raise ValueError(f"measurement variance must be finite and positive, got {var}")
    return angle, var


@dataclass(frozen=True)
class HeadingMeasurement:
    """An SO(2) heading measurement: angle (rad) with scalar variance (rad^2)."""

    angle: float
    var_theta: float

    def __post_init__(self):
        _checked(self.angle, self.var_theta)

    @property
    def rot(self) -> np.ndarray:
        """The measurement as a 2x2 rotation matrix."""
        return so2.exp_so2(self.angle)


@dataclass(frozen=True)
class FilterState:
    angle: float  # rad, wrapped into (-pi, pi]
    cov: float  # rad^2

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"filter angle must be finite, got {self.angle}")
        object.__setattr__(self, "angle", so2.wrap_float(float(self.angle)))
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
        if not (math.isfinite(self.rate) and 0.0 < self.dt < math.inf):
            raise ValueError("gyro sample needs a finite rate and a finite dt > 0")


@dataclass(frozen=True)
class ProcessNoise:
    psd: float  # rad^2/s

    def __post_init__(self):
        if not (math.isfinite(self.psd) and self.psd > 0):
            raise ValueError(f"gyro noise PSD must be finite and positive, got {self.psd}")


@dataclass(frozen=True)
class InnovationStats:
    innovation: float  # rad, on the group
    innovation_var: float  # rad^2
    mahalanobis: float  # innovation^2 / innovation_var


def _gain(cov: float, meas_var: float):
    """The correction's gain, innovation variance S and updated covariance
    (Joseph form) for a measurement of variance meas_var. None of them
    depends on the angle."""
    s_var = cov + meas_var
    gain = cov / s_var
    return gain, s_var, (1.0 - gain) ** 2 * cov + gain**2 * meas_var


def predict(state: FilterState, gyro: GyroSample, noise: ProcessNoise) -> FilterState:
    """Propagate with the measured rate; exact for piecewise-constant rate."""
    return FilterState(angle=state.angle + gyro.rate * gyro.dt,
                       cov=state.cov + noise.psd * gyro.dt)


def correct(
    state: FilterState, meas: HeadingMeasurement
) -> tuple[FilterState, InnovationStats]:
    """Fuse one SO(2) heading measurement; returns the updated state and
    innovation statistics (Joseph-form covariance update)."""
    z = so2.wrap_float(state.angle - meas.angle)
    gain, s_var, cov = _gain(state.cov, meas.var_theta)
    stats = InnovationStats(innovation=z, innovation_var=s_var, mahalanobis=z * z / s_var)
    return FilterState(angle=state.angle - gain * z, cov=cov), stats


def filter_runs(start_angles, init_cov, increments, process_vars, measurements):
    """Filter every start angle in `start_angles`, each with covariance
    `init_cov`, over the same n epochs.

    `increments[k]` and `process_vars[k]` (n - 1 floats each) are rate * dt
    and psd * dt of the step from epoch k to k + 1. `measurements[k]` is a
    HeadingMeasurement, an (angle, variance) pair or None for no correction;
    each pair is checked once, in the covariance pass, with
    HeadingMeasurement's ValueError. The start angles are wrapped and, like
    `init_cov`, checked as a FilterState's; the steps are not validated: a
    non-finite value propagates into the output.

    Returns (angle, cov, mahalanobis) arrays of shape (len(start_angles), n);
    mahalanobis is NaN where no correction ran. The covariance, gain and
    innovation variance do not depend on the angle, so every run shares one
    covariance pass and `cov` is one read-only row broadcast to every run.
    With the gain shared, the runs converge onto one trajectory: once a run's
    corrected angle equals run 0's at the same epoch, the run takes run 0's
    later entries instead of filtering on.
    """
    if not len(increments) == len(process_vars) == max(len(measurements) - 1, 0):
        raise ValueError(
            f"{len(increments)} increments and {len(process_vars)} process variances"
            f" for {len(measurements)} epochs; need one step between each two epochs"
        )
    thetas = [FilterState(angle=a, cov=init_cov).angle for a in start_angles]
    shape = (len(thetas), len(measurements))
    # the covariance pass, once: predict's and correct's covariance steps
    cov, covs, shared = init_cov, [], []
    for increment, process_var, meas in zip([None, *increments], [None, *process_vars],
                                            measurements):
        if increment is not None:
            cov = cov + process_var
        if meas is None:
            shared.append((increment, None, None, None, None))
        else:
            y, var = ((meas.angle, meas.var_theta) if isinstance(meas, HeadingMeasurement)
                      else _checked(*meas))
            gain, s_var, cov = _gain(cov, var)
            shared.append((increment, y, gain, s_var, len(covs)))  # and the epoch's index
        covs.append(cov)
    # then each run's angle: predict's and correct's angle steps, each
    # wrapped as FilterState wraps it (so2.wrap_float, written out here)
    pi, two_pi = math.pi, so2.TWO_PI
    angles, mahals = np.empty(shape), np.empty(shape)
    ref = [math.nan] * len(shared)  # the angles a run may join; NaN equals none
    for r, theta in enumerate(thetas):
        run_angles, run_mahals = [], []
        for increment, y, gain, s_var, k in shared:
            if increment is not None:
                theta = pi - (pi - (theta + increment)) % two_pi
                if theta == -pi:
                    theta = pi
            if y is None:
                mahal = math.nan
            else:
                z = pi - (pi - (theta - y)) % two_pi
                if z == -pi:
                    z = pi
                mahal = z * z / s_var
                theta = pi - (pi - (theta - gain * z)) % two_pi
                if theta == -pi:
                    theta = pi
                if theta == ref[k]:
                    # joined run 0: each later step is a function of the angle
                    # and the shared step alone, so the rest of this run is
                    # run 0's bits (the wrap never returns -0.0, so == is bit
                    # equality here)
                    run_mahals.append(mahal)
                    break
            run_angles.append(theta)
            run_mahals.append(mahal)
        # the epochs this run filtered, then run 0's from where it joined
        j, m = len(run_angles), len(run_mahals)
        angles[r, :j], angles[r, j:] = run_angles, angles[0, j:]
        mahals[r, :m], mahals[r, m:] = run_mahals, mahals[0, m:]
        if r == 0:
            ref = run_angles
    cov = np.broadcast_to(np.array(covs, dtype=float), shape)
    return angles, cov, mahals
