"""Exact scalar-output Gaussian-process regression with the squared
exponential kernel.

Hyperparameters are fitted by maximizing the log marginal likelihood with one
bounded L-BFGS-B run on its analytic gradient (Rasmussen & Williams 2006,
GPML eq. 5.9) over log(sigma_f, sigma_l, sigma_n). The run starts at
data-derived heuristics, and each log-parameter is boxed to a fixed span of
decades around its heuristic. Inputs are standardized internally (the
isotropic lengthscale is meaningless across mixed units); outputs are
centered and the training mean is added back at prediction.

Fitting, factorizing and batch prediction run on one BLAS thread (see
`_blas`): threaded OpenBLAS workers keep spinning after a call and slow the
work that follows, and a threaded Cholesky factor depends in its last bits
on the CPU count.
"""

from __future__ import annotations

import math
import numbers
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve, cholesky, lapack, solve_triangular
from scipy.optimize import minimize

from . import _blas

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
    "predict_shared_inputs",
]

# Jitter escalation bounds, as fractions of mean(diag(K)).
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4

# Half-width, in decades, of the box that bounds each log-hyperparameter
# around its heuristic. Unbounded, noiseless data drives sigma_n -> 0, where
# the log marginal likelihood has no maximum.
_BOUND_DECADES = 3.0


class UnfittableDataError(RuntimeError):
    """A covariance matrix could not be factorized, even at maximum jitter."""


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
    """Settings for the hyperparameter fit.

    The fit itself (L-BFGS-B on the analytic gradient, bounds fixed at
    ``_BOUND_DECADES`` around the heuristics) has no settings; only the
    training-set size is capped.
    """

    max_points: int = 1000  # stride-subsample cap on training rows

    def __post_init__(self):
        m = self.max_points
        if not (isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= 2):
            raise ValueError(f"max_points must be an integer >= 2, got {m!r}")


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


def gram_matrix(a: np.ndarray, b: np.ndarray, params: SeKernelParams) -> np.ndarray:
    return params.sigma_f**2 * np.exp(-_sq_dists(a, b) / (2.0 * params.sigma_l**2))


def _chol_with_jitter(k_noisy: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and the diagonal jitter added to obtain it,
    escalating the jitter on failure."""
    base = float(np.mean(np.diag(k_noisy)))
    jitter = 0.0
    while True:
        try:
            chol = cholesky(k_noisy + jitter * np.eye(k_noisy.shape[0]), lower=True)
            return chol, jitter
        except np.linalg.LinAlgError:
            pass
        jitter = _JITTER_START * base if jitter == 0.0 else jitter * 10.0
        if jitter > _JITTER_MAX * base:
            raise UnfittableDataError(
                "Cholesky factorization failed even at maximum jitter"
            )


def log_marginal_likelihood(train: TrainingSet, params: SeKernelParams) -> float:
    """Log marginal likelihood of the training outputs under the kernel."""
    return GpModel.from_params(train, params).lml


def _heuristic_center(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    sf = max(float(np.std(y)), 1e-3)
    n = x.shape[0]
    if n > 500:  # heuristic only; subsample the pairwise-distance pool
        x = x[:: int(math.ceil(n / 500))]
    d2 = _sq_dists(x, x)
    off = d2[np.triu_indices_from(d2, k=1)]
    sl = max(float(np.sqrt(np.median(off))) if off.size else 1.0, 1e-3)
    return sf, sl, 0.1 * sf


def _neg_lml_and_grad(
    log_params: np.ndarray, d2: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient with respect to
    log(sigma_f, sigma_l, sigma_n), from one Cholesky factorization.

    dL/dtheta = 1/2 tr((alpha alpha^T - K^-1) dK/dtheta) (GPML eq. 5.9), with
    dK/dlog sigma_f = 2 K_f, dK/dlog sigma_l = K_f * D^2 / sigma_l^2 and
    dK/dlog sigma_n = 2 sigma_n^2 I.
    """
    sf2, sl2, sn2 = np.exp(2.0 * log_params)
    n = y.shape[0]
    k_f = sf2 * np.exp(-d2 / (2.0 * sl2))
    chol, _ = _chol_with_jitter(k_f + sn2 * np.eye(n))
    alpha = cho_solve((chol, True), y, check_finite=False)
    lml = (
        -0.5 * float(np.dot(y, alpha))
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    k_inv, info = lapack.dpotri(chol, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    k_inv = np.tril(k_inv) + np.tril(k_inv, -1).T  # dpotri fills one triangle
    w = np.outer(alpha, alpha) - k_inv
    wk = w * k_f
    grad = np.array(
        [np.sum(wk), 0.5 * np.sum(wk * d2) / sl2, sn2 * np.trace(w)]
    )
    return -lml, -grad


@_blas.one_thread()
def fit(train: TrainingSet, search: HyperparamSearchConfig | None = None) -> "GpModel":
    """Fit hyperparameters by log-marginal-likelihood maximization.

    One bounded L-BFGS-B run on the analytic gradient, over the log of
    (sigma_f, sigma_l, sigma_n), starting at ``_heuristic_center``; each
    log-parameter is bounded to +-``_BOUND_DECADES`` decades around its start.
    The model keeps the best point evaluated. Deterministic: no RNG. Raises
    ``UnfittableDataError`` when the start point cannot be factorized; a trial
    point that cannot be factorized later in the search counts as infinitely
    unlikely and marks the fit as not converged.
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

    start = np.log(_heuristic_center(x, yc))
    span = _BOUND_DECADES * math.log(10.0)
    evals, best_f, best_x, hit_unfittable = 0, math.inf, start, False

    def objective(log_params):
        nonlocal evals, best_f, best_x, hit_unfittable
        evals += 1
        try:
            f, g = _neg_lml_and_grad(log_params, d2, yc)
        except UnfittableDataError:
            if evals == 1:
                raise
            hit_unfittable = True
            return math.inf, np.zeros(3)
        if f < best_f:
            best_f, best_x = f, log_params.copy()
        return f, g

    result = minimize(
        objective, start, jac=True, method="L-BFGS-B",
        bounds=[(c - span, c + span) for c in start],
    )
    converged = bool(result.success) and not hit_unfittable

    params = SeKernelParams(*np.exp(best_x))
    used = TrainingSet(x=x, y=y, standardizer=std)
    model = GpModel.from_params(used, params, y_mean=y_mean)
    return replace(model, lml_evals=evals, converged=converged)


@dataclass(frozen=True)
class GpModel:
    """Trained GP: immutable after construction, safe for concurrent predict."""

    train: TrainingSet
    params: SeKernelParams
    chol: np.ndarray = field(repr=False)  # lower factor of K + sigma_n^2 I, Fortran order
    alpha: np.ndarray = field(repr=False)  # solves (K + sigma_n^2 I) alpha = yc
    y_mean: float = 0.0
    lml: float = math.nan  # log marginal likelihood of train.y - y_mean
    jitter: float = 0.0  # diagonal jitter added to factorize K + sigma_n^2 I
    lml_evals: int = 0  # objective evaluations of the fit that chose params
    converged: bool | None = None  # the fit's optimizer success; None if not fitted
    # (n,) squared norms of the train.x rows, for the query distances
    train_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "train_sq_norms", np.sum(self.train.x**2, axis=1))

    @classmethod
    @_blas.one_thread()
    def from_params(
        cls, train: TrainingSet, params: SeKernelParams, y_mean: float = 0.0
    ) -> "GpModel":
        """Factorize K + sigma_n^2 I once; the factor gives alpha and the LML."""
        yc = train.y - y_mean
        k = gram_matrix(train.x, train.x, params) + params.sigma_n**2 * np.eye(train.n)
        chol, jitter = _chol_with_jitter(k)
        half = solve_triangular(chol, yc, lower=True)
        alpha = solve_triangular(chol.T, half, lower=False)
        lml = float(
            -0.5 * np.dot(half, half)
            - np.sum(np.log(np.diag(chol)))
            - 0.5 * train.n * math.log(2.0 * math.pi)
        )
        return cls(train=train, params=params, chol=np.asfortranarray(chol), alpha=alpha,
                   y_mean=y_mean, lml=lml, jitter=jitter)

    def predict(self, x_star_raw: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at one raw (unstandardized) query."""
        means, variances = self.predict_many(np.atleast_2d(x_star_raw))
        return float(means[0]), float(variances[0])

    def predict_many(self, x_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized posterior mean and variance over (m, d) raw queries."""
        return predict_shared_inputs((self,), x_raw)[0]

    def _sq_dists_to(self, xs: np.ndarray) -> np.ndarray:
        """(n, m) squared distances from the training rows to standardized
        queries, by `_sq_dists`'s expression with the training norms cached."""
        d2 = self.train_sq_norms[:, None] + np.sum(xs**2, axis=1)[None, :] - 2.0 * (
            self.train.x @ xs.T
        )
        # An infinite distance only zeroes the kernel; a NaN one (inf - inf
        # from a query that overflows) would poison the posterior.
        if np.isnan(d2).any():
            raise ValueError("query is too large: its distances to the training inputs are NaN")
        return np.maximum(d2, 0.0, out=d2)

    def _posterior(
        self, d2: np.ndarray, overwrite: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance from `_sq_dists_to`'s distances; with
        `overwrite` the kernel is computed in place over `d2`."""
        k_star = np.divide(d2, -2.0 * self.params.sigma_l**2, out=d2 if overwrite else None)
        np.exp(k_star, out=k_star)
        k_star *= self.params.sigma_f**2  # gram_matrix(train.x, xs), (n, m)
        means = k_star.T @ self.alpha + self.y_mean
        # the LAPACK call that solve_triangular(chol, k_star, lower=True)
        # makes for a Fortran-order factor, without its argument checks
        v, info = lapack.dtrtrs(self.chol, k_star, lower=1)  # (n, m)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
        v *= v
        variances = self.params.sigma_f**2 - np.sum(v, axis=0)
        return means, np.maximum(variances, 0.0)

    def save(self, path) -> None:
        """Serialize to an .npz archive; the factorization and LML are
        rebuilt on load."""
        np.savez(
            path,
            x=self.train.x,
            y=self.train.y,
            std_mean=self.train.standardizer.mean,
            std_scale=self.train.standardizer.scale,
            y_mean=np.array(self.y_mean),
            hyper=np.array(
                [self.params.sigma_f, self.params.sigma_l, self.params.sigma_n]
            ),
        )

    @classmethod
    def load(cls, path) -> "GpModel":
        """ValueError naming `path` if it is not an archive as `save` writes."""
        try:
            with np.load(path) as z:
                x, y, mean, scale, y_mean, hyper = (
                    z[k] for k in ("x", "y", "std_mean", "std_scale", "y_mean", "hyper")
                )
        except (zipfile.BadZipFile, KeyError, EOFError, ValueError) as exc:
            raise ValueError(f"bad model archive {path}: {exc}") from exc
        train = TrainingSet(x=x, y=y, standardizer=Standardizer(mean=mean, scale=scale))
        return cls.from_params(train, SeKernelParams(*hyper), y_mean=float(y_mean))


def predict_shared_inputs(
    models: tuple[GpModel, ...], x_raw: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Posterior mean and variance of each model over (m, d) raw queries,
    standardizing the queries and computing their distances to the training
    rows once for all models.

    Every model must have the first one's `train.x` and standardizer; the
    caller checks that once, where it pairs the models, not per query.
    """
    first = models[0]
    xs = first.train.standardizer.apply(np.atleast_2d(x_raw))
    if xs.shape[1] != first.train.d:
        raise ValueError(
            f"query dimension {xs.shape[1]} != training dimension {first.train.d}"
        )
    # OpenBLAS keeps one-column products and solves on one thread
    with _blas.one_thread() if xs.shape[0] > 1 else nullcontext():
        d2 = first._sq_dists_to(xs)
        last = len(models) - 1
        return [m._posterior(d2, overwrite=i == last) for i, m in enumerate(models)]
