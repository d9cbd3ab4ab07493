"""Exact SO(2) matrix Lie-group arithmetic.

All functions are pure and operate on plain numpy arrays: a rotation is a
2x2 matrix and angles are radians. Batch helpers work on stacked arrays of
shape (n, 2, 2).
"""

from __future__ import annotations

import math

import numpy as np

# Orthonormality tolerance for accepting inputs as group elements.
ORTHO_TOL = 1e-9

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into the principal branch (-pi, pi]."""
    wrapped = math.pi - np.mod(math.pi - np.asarray(theta, dtype=float), TWO_PI)
    # np.mod rounds a remainder just below 2*pi up to 2*pi, which lands on -pi
    return wrapped + TWO_PI * (wrapped == -math.pi)


def wrap_float(theta: float) -> float:
    """wrap_angle for one Python float, bit for bit, without numpy.

    Python's float % takes the same fmod-and-sign-fix steps as np.mod.
    """
    wrapped = math.pi - (math.pi - theta) % TWO_PI
    return math.pi if wrapped == -math.pi else wrapped


def exp_so2(theta: float) -> np.ndarray:
    """Exponential map: angle -> rotation matrix."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"exp_so2 requires a finite angle, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def log_so2(r: np.ndarray) -> float:
    """Logarithm map: rotation matrix -> angle in (-pi, pi].

    atan2 keeps the branch stable near +-pi.
    """
    r = np.asarray(r, dtype=float)
    if not is_rotation(r):
        raise ValueError("matrix is not a valid SO(2) element")
    theta = math.atan2(r[1, 0], r[0, 0])
    if theta <= -math.pi:  # atan2 may return -pi exactly
        theta = math.pi
    return theta


def is_rotation(m: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        return False
    err = np.abs(m.T @ m - np.eye(2)).max()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return bool(err <= tol and abs(det - 1.0) <= tol)


def project_to_so2(m: np.ndarray) -> np.ndarray:
    """Re-orthonormalize a near-rotation: normalize the first column and
    rotate it by +90 degrees to get the second."""
    m = np.asarray(m, dtype=float)
    col = m[:, 0]
    norm = math.hypot(col[0], col[1])
    if norm == 0.0:
        raise ValueError("cannot project a matrix with a zero first column")
    c, s = col[0] / norm, col[1] / norm
    return np.array([[c, -s], [s, c]])


def exp_so2_many(thetas: np.ndarray) -> np.ndarray:
    """Vectorized exponential map: (n,) angles -> (n, 2, 2) rotations."""
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(thetas)):
        raise ValueError("exp_so2_many requires finite angles")
    c, s = np.cos(thetas), np.sin(thetas)
    out = np.empty(thetas.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def log_so2_many(rots: np.ndarray) -> np.ndarray:
    """Vectorized logarithm map: (n, 2, 2) rotations -> (n,) angles."""
    rots = np.asarray(rots, dtype=float)
    err = np.abs(np.einsum("...ji,...jk->...ik", rots, rots) - np.eye(2)).max()
    if not err <= ORTHO_TOL:
        raise ValueError("batch contains non-orthonormal matrices")
    thetas = np.arctan2(rots[..., 1, 0], rots[..., 0, 0])
    return np.where(thetas <= -math.pi, math.pi, thetas)
