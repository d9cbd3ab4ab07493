"""Exact scalar-output Gaussian-process regression with the squared
exponential kernel.

Hyperparameters are fitted by maximizing the log marginal likelihood over a
multi-start log-space grid around data-derived heuristics, refined by
coordinate descent. Inputs are standardized internally (the isotropic
lengthscale is meaningless across mixed units); outputs are centered and the
training mean is added back at prediction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

__all__ = [
    "SeKernelParams",
    "Standardizer",
    "TrainingSet",
    "HyperparamSearchConfig",
    "GpModel",
    "UnfittableDataError",
    "kernel_eval",
    "gram_matrix",
    "log_marginal_likelihood",
    "fit",
]

# Jitter escalation bounds, as fractions of mean(diag(K)).
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4


class UnfittableDataError(RuntimeError):
    """No hyperparameter candidate produced a valid factorization."""


@dataclass(frozen=True)
class SeKernelParams:
    """Squared-exponential kernel hyperparameters plus observation noise."""

    sigma_f: float  # signal std, output units
    sigma_l: float  # characteristic lengthscale, input units
    sigma_n: float  # observation-noise std, output units

    def __post_init__(self):
        for name in ("sigma_f", "sigma_l", "sigma_n"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension affine map from raw features to standardized ones."""

    mean: np.ndarray  # (d,)
    scale: np.ndarray  # (d,), strictly positive

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        if np.any(self.scale <= 0) or not np.all(np.isfinite(self.scale)):
            raise ValueError("standardizer scales must be strictly positive")

    @classmethod
    def from_data(cls, x_raw: np.ndarray) -> "Standardizer":
        x_raw = np.atleast_2d(np.asarray(x_raw, dtype=float))
        mean = x_raw.mean(axis=0)
        scale = x_raw.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)  # constant columns pass through
        return cls(mean=mean, scale=scale)

    def apply(self, x_raw: np.ndarray) -> np.ndarray:
        return (np.asarray(x_raw, dtype=float) - self.mean) / self.scale


@dataclass(frozen=True)
class TrainingSet:
    """Standardized training inputs with their outputs."""

    x: np.ndarray  # (n, d), standardized
    y: np.ndarray  # (n,)
    standardizer: Standardizer

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("training set needs n >= 1 and d >= 1")
        if x.shape[0] != y.shape[0]:
            raise ValueError("input/output row counts differ")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("training data contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_raw(cls, x_raw: np.ndarray, y: np.ndarray) -> "TrainingSet":
        x_raw = np.atleast_2d(np.asarray(x_raw, dtype=float))
        std = Standardizer.from_data(x_raw)
        return cls(x=std.apply(x_raw), y=y, standardizer=std)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass
class HyperparamSearchConfig:
    """Settings for the log-space grid + coordinate-descent search."""

    grid_size: int = 5
    decades: float = 1.0  # grid half-span around each heuristic, in decades
    descent_rounds: int = 60
    max_points: int = 1000  # stride-subsample cap on training rows

    def __post_init__(self):
        if self.grid_size < 1 or self.max_points < 2:
            raise ValueError("grid_size >= 1 and max_points >= 2 required")


def kernel_eval(x: np.ndarray, x_prime: np.ndarray, params: SeKernelParams) -> float:
    x = np.asarray(x, dtype=float).ravel()
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    if x.shape != x_prime.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {x_prime.shape}")
    sq = float(np.dot(x - x_prime, x - x_prime))
    return params.sigma_f**2 * math.exp(-sq / (2.0 * params.sigma_l**2))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    d2 = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.maximum(d2, 0.0)


def _gram_from_sqdist(d2: np.ndarray, params: SeKernelParams) -> np.ndarray:
    return params.sigma_f**2 * np.exp(-d2 / (2.0 * params.sigma_l**2))


def gram_matrix(a: np.ndarray, b: np.ndarray, params: SeKernelParams) -> np.ndarray:
    return _gram_from_sqdist(_sq_dists(a, b), params)


def _chol_with_jitter(k_noisy: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter on failure."""
    base = float(np.mean(np.diag(k_noisy)))
    jitter = 0.0
    while True:
        try:
            return cholesky(k_noisy + jitter * np.eye(k_noisy.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            pass
        jitter = _JITTER_START * base if jitter == 0.0 else jitter * 10.0
        if jitter > _JITTER_MAX * base:
            raise UnfittableDataError(
                "Cholesky factorization failed even at maximum jitter"
            )


def _lml_from_sqdist(d2: np.ndarray, y: np.ndarray, params: SeKernelParams) -> float:
    n = y.shape[0]
    k = _gram_from_sqdist(d2, params) + params.sigma_n**2 * np.eye(n)
    chol = _chol_with_jitter(k)
    half = solve_triangular(chol, y, lower=True)
    return float(
        -0.5 * np.dot(half, half)
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * n * math.log(2.0 * math.pi)
    )


def log_marginal_likelihood(train: TrainingSet, params: SeKernelParams) -> float:
    """Log marginal likelihood of the training outputs under the kernel."""
    return _lml_from_sqdist(_sq_dists(train.x, train.x), train.y, params)


def _heuristic_center(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    sf = max(float(np.std(y)), 1e-3)
    n = x.shape[0]
    if n > 500:  # heuristic only; subsample the pairwise-distance pool
        x = x[:: int(math.ceil(n / 500))]
    d2 = _sq_dists(x, x)
    off = d2[np.triu_indices_from(d2, k=1)]
    sl = max(float(np.sqrt(np.median(off))) if off.size else 1.0, 1e-3)
    return sf, sl, 0.1 * sf


def fit(train: TrainingSet, search: HyperparamSearchConfig | None = None) -> "GpModel":
    """Fit hyperparameters by log-marginal-likelihood maximization.

    Deterministic: grid construction and coordinate descent use no RNG.
    """
    if search is None:
        search = HyperparamSearchConfig()
    if train.n < 2:
        raise ValueError("fit requires at least 2 training points")

    x, y, std = train.x, train.y, train.standardizer
    if train.n > search.max_points:
        stride = int(math.ceil(train.n / search.max_points))
        x, y = x[::stride], y[::stride]

    y_mean = float(np.mean(y))
    yc = y - y_mean
    d2 = _sq_dists(x, x)

    centers = _heuristic_center(x, yc)
    axes = [
        np.logspace(
            math.log10(c) - search.decades, math.log10(c) + search.decades,
            search.grid_size,
        )
        for c in centers
    ]

    best_lml = -math.inf
    best = None
    for sf, sl, sn in itertools.product(*axes):
        try:
            lml = _lml_from_sqdist(d2, yc, SeKernelParams(sf, sl, sn))
        except UnfittableDataError:
            continue
        if lml > best_lml:
            best_lml, best = lml, np.log([sf, sl, sn])
    if best is None:
        raise UnfittableDataError("all hyperparameter grid starts failed")

    # Coordinate descent in log space, shrinking the step when stuck.
    step = (
        search.decades * math.log(10.0) / max(search.grid_size - 1, 1)
        if search.grid_size > 1
        else 0.5 * math.log(10.0)
    )
    for _ in range(search.descent_rounds):
        moved = False
        for i in range(3):
            for sign in (+1.0, -1.0):
                cand = best.copy()
                cand[i] += sign * step
                try:
                    lml = _lml_from_sqdist(
                        d2, yc, SeKernelParams(*np.exp(cand))
                    )
                except UnfittableDataError:
                    continue
                if lml > best_lml:
                    best_lml, best, moved = lml, cand, True
        if not moved:
            step *= 0.5
            if step < 5e-3:
                break

    params = SeKernelParams(*np.exp(best))
    used = TrainingSet(x=x, y=y, standardizer=std)
    return GpModel.from_params(used, params, y_mean=y_mean, lml=best_lml)


@dataclass(frozen=True)
class GpModel:
    """Trained GP: immutable after construction, safe for concurrent predict."""

    train: TrainingSet
    params: SeKernelParams
    chol: np.ndarray = field(repr=False)  # lower factor of K + sigma_n^2 I
    alpha: np.ndarray = field(repr=False)  # solves (K + sigma_n^2 I) alpha = yc
    y_mean: float = 0.0
    lml: float = math.nan

    @classmethod
    def from_params(
        cls,
        train: TrainingSet,
        params: SeKernelParams,
        y_mean: float = 0.0,
        lml: float = math.nan,
    ) -> "GpModel":
        yc = train.y - y_mean
        k = gram_matrix(train.x, train.x, params) + params.sigma_n**2 * np.eye(train.n)
        chol = _chol_with_jitter(k)
        half = solve_triangular(chol, yc, lower=True)
        alpha = solve_triangular(chol.T, half, lower=False)
        return cls(train=train, params=params, chol=chol, alpha=alpha,
                   y_mean=y_mean, lml=lml)

    def predict(self, x_star_raw: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at one raw (unstandardized) query."""
        means, variances = self.predict_many(np.atleast_2d(x_star_raw))
        return float(means[0]), float(variances[0])

    def predict_many(self, x_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized posterior mean and variance over (m, d) raw queries."""
        xs = self.train.standardizer.apply(np.atleast_2d(x_raw))
        if xs.shape[1] != self.train.d:
            raise ValueError(
                f"query dimension {xs.shape[1]} != training dimension {self.train.d}"
            )
        k_star = gram_matrix(self.train.x, xs, self.params)  # (n, m)
        means = k_star.T @ self.alpha + self.y_mean
        v = solve_triangular(self.chol, k_star, lower=True)  # (n, m)
        variances = self.params.sigma_f**2 - np.sum(v * v, axis=0)
        return means, np.maximum(variances, 0.0)

    def save(self, path) -> None:
        """Serialize to an .npz archive; the factorization is rebuilt on load."""
        np.savez(
            path,
            x=self.train.x,
            y=self.train.y,
            std_mean=self.train.standardizer.mean,
            std_scale=self.train.standardizer.scale,
            y_mean=np.array(self.y_mean),
            lml=np.array(self.lml),
            hyper=np.array(
                [self.params.sigma_f, self.params.sigma_l, self.params.sigma_n]
            ),
        )

    @classmethod
    def load(cls, path) -> "GpModel":
        with np.load(path) as z:
            std = Standardizer(mean=z["std_mean"], scale=z["std_scale"])
            train = TrainingSet(x=z["x"], y=z["y"], standardizer=std)
            params = SeKernelParams(*z["hyper"])
            return cls.from_params(
                train, params, y_mean=float(z["y_mean"]), lml=float(z["lml"])
            )
