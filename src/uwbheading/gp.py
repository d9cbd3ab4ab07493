"""Exact Gaussian-process regression with the squared exponential kernel,
for one or more outputs on one training input.

Hyperparameters are fitted by maximizing the log marginal likelihood with one
bounded L-BFGS-B run on its analytic gradient (Rasmussen & Williams 2006,
GPML eq. 5.9) over log(sigma_f, sigma_l, sigma_n). The run starts at
data-derived heuristics, and each log-parameter is boxed to a fixed span of
decades around its heuristic. Inputs are standardized internally (the
isotropic lengthscale is meaningless across mixed units); outputs are
centered and the training mean is added back at prediction.

A model's p outputs share one kernel: one search maximizes the sum of their
log marginal likelihoods, and one Cholesky factor serves them all (the
intrinsic coregionalization model with an identity output covariance;
Alvarez, Rosasco & Lawrence 2012). Each output keeps its own values, mean,
alpha and LML (GPML sec. 2.2), as the rows of a (p, n) array; a model of one
(n,) output vector keeps (n,), float and (m,) shapes. One fit-pass object
(`_FitPass`) holds the search and what it shares: the rows, their squared
distances, the heuristic lengthscale and the buffers each likelihood
evaluation computes in. Prediction has one batch path for any number of rows
(`GpModel.predict_many`) and one online path for a single row as Python
floats (`GpModel.predict`), equal to the bit; each takes one kernel and one
product with the cached inverse of the Cholesky factor for all the outputs.

Fitting, factorizing and batch prediction run on one BLAS thread (see
`_blas`): threaded OpenBLAS workers keep spinning after a call and slow the
work that follows, and a threaded Cholesky factor depends in its last bits
on the CPU count.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, lapack
from scipy.optimize import minimize

from . import _blas, world

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
        # the kernel squares each value as a Python float and divides by sigma_l^2
        world.check((lambda x: world.finite_number(x) and x > 0
                     and 0 < float(x) * float(x) < math.inf,
                     "a finite number > 0 whose square is finite and > 0"), **vars(self))
        for name, v in list(vars(self).items()):
            object.__setattr__(self, name, float(v))  # a Python float, bit for bit


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
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("standardizer means must be finite")

    @classmethod
    def from_data(cls, x_raw: np.ndarray) -> "Standardizer":
        x_raw = np.atleast_2d(np.asarray(x_raw, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):  # __post_init__ refuses inf or NaN
            mean = x_raw.mean(axis=0)
            scale = x_raw.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)  # constant columns pass through
        return cls(mean=mean, scale=scale)

    def apply(self, x_raw: np.ndarray) -> np.ndarray:
        return (np.asarray(x_raw, dtype=float) - self.mean) / self.scale


@dataclass(frozen=True)
class TrainingSet:
    """Standardized training inputs with their outputs: one (n,) output
    vector, or p >= 1 of them as the rows of a (p, n) array."""

    x: np.ndarray  # (n, d), standardized
    y: np.ndarray  # (n,) or (p, n)
    standardizer: Standardizer

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float)
        y = np.ascontiguousarray(y) if y.ndim == 2 else y.ravel()
        if x.shape[0] < 1 or x.shape[1] < 1 or y.size < 1:
            raise ValueError("training set needs n >= 1, d >= 1 and p >= 1")
        if x.shape[0] != y.shape[-1]:
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
        world.check(world.integer_from(2), max_points=self.max_points)


def kernel_eval(x: np.ndarray, x_prime: np.ndarray, params: SeKernelParams) -> float:
    """k(x, x') of two points, as `gram_matrix` computes it."""
    return float(gram_matrix(np.ravel(x), np.ravel(x_prime), params)[0, 0])


def _sq_dists(a: np.ndarray, b: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """(len(a), len(b)) squared distances between the rows of `a` and `b`,
    sum(a**2) + sum(b**2) - 2 (a @ b.T), clamped at 0 by `_clamp_distances`.
    Computed into `out`, with the sum of the squared norms in `scratch`, when
    the caller gives these two (len(a), len(b)) arrays; else into two new
    ones."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow: see _clamp_distances
        d2 = np.matmul(a, b.T, out=out)
        d2 *= 2.0
        norms = np.add(np.sum(a**2, axis=1)[:, None], np.sum(b**2, axis=1)[None, :], out=scratch)
        np.subtract(norms, d2, out=d2)
    return _clamp_distances(d2)


def _clamp_distances(d2: np.ndarray) -> np.ndarray:
    """Squared distances clamped at 0 in place, or ValueError if any is NaN.

    An infinite distance only zeroes the kernel; a NaN one (inf - inf from an
    input that overflows) would poison the posterior.
    """
    if np.isnan(d2).any():
        raise ValueError("input is too large: its squared distances are NaN")
    return np.maximum(d2, 0.0, out=d2)


def _se_kernel(d2: np.ndarray, divisor, signal_var, out=None) -> np.ndarray:
    """The SE kernel signal_var * exp(d2 / divisor) of squared distances `d2`,
    where `divisor` is -2 sigma_l^2 and `signal_var` is sigma_f^2, computed
    into `out` (which may be `d2`) when given. An exponent that overflows to
    -inf gives the limit 0, under np.errstate(over="ignore") in the caller."""
    k = np.divide(d2, divisor, out=out)
    np.exp(k, out=k)
    k *= signal_var
    return k


def _solve_lower(chol: np.ndarray, b: np.ndarray, trans=0) -> np.ndarray:
    """chol^-1 b, or chol^-T b with `trans` 1, for a lower-triangular
    Fortran-order `chol`, by LAPACK `dtrtrs`."""
    x, info = lapack.dtrtrs(chol, b, lower=1, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
    return x


def gram_matrix(a: np.ndarray, b: np.ndarray, params: SeKernelParams) -> np.ndarray:
    with np.errstate(over="ignore"):  # see _se_kernel
        return _se_kernel(_sq_dists(a, b), -2.0 * params.sigma_l**2, params.sigma_f**2)


def _chol_with_jitter(k_noisy: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, in a new Fortran-order array with a zero upper
    triangle, and the diagonal jitter added to obtain it, escalating the
    jitter on failure. `k_noisy` is left as it is; ValueError if it holds
    inf or NaN, or if its diagonal's mean, the jitter's scale, overflows.
    """
    np.asarray_chkfinite(k_noisy)
    with np.errstate(over="ignore"):
        base = float(np.mean(np.diag(k_noisy)))
    if base == math.inf:
        raise ValueError("the covariance matrix is too large: its diagonal's mean overflows")
    jitter = 0.0
    while True:
        shifted = k_noisy if jitter == 0.0 else k_noisy + jitter * np.eye(k_noisy.shape[0])
        chol, info = lapack.dpotrf(shifted, lower=1, clean=1)
        if info == 0:
            return chol, jitter
        jitter = _JITTER_START * base if jitter == 0.0 else jitter * 10.0
        if jitter > _JITTER_MAX * base:
            raise UnfittableDataError(
                "Cholesky factorization failed even at maximum jitter"
            )


def log_marginal_likelihood(train: TrainingSet, params: SeKernelParams) -> float:
    """Log marginal likelihood of the training outputs under the kernel."""
    return GpModel.from_params(train, params).lml


def _heuristic_lengthscale(x: np.ndarray, d2: np.ndarray | None = None) -> float:
    """Median pairwise distance of the rows of `x`, at least 1e-3; `d2` is
    their squared distances if the caller has them. Above 500 rows the
    distances of a stride subsample stand in."""
    n = x.shape[0]
    if n > 500 or d2 is None:  # heuristic only; above 500 rows, a subsampled pool
        x = x[:: int(math.ceil(n / 500))]
        d2 = _sq_dists(x, x)
    off = d2[np.triu_indices_from(d2, k=1)]
    return max(float(np.sqrt(np.median(off))) if off.size else 1.0, 1e-3)


def _heuristic_center(
    x: np.ndarray, y: np.ndarray, sl: float | None = None
) -> tuple[float, float, float]:
    """Start (sigma_f, sigma_l, sigma_n) of the fit of one kernel to the
    output vector `y`, or to each row of a (p, n) `y`: sigma_f is the mean of
    the outputs' standard deviations, each at least 1e-3. `sl` is
    `_heuristic_lengthscale(x)` if the caller has it."""
    sfs = [max(float(np.std(yk)), 1e-3) for yk in np.atleast_2d(y)]
    sf = sum(sfs) / len(sfs)
    return sf, _heuristic_lengthscale(x) if sl is None else sl, 0.1 * sf


def _factorize(x: np.ndarray, params: SeKernelParams) -> tuple[np.ndarray, float]:
    """`_chol_with_jitter` of K + sigma_n^2 I on the rows of `x`."""
    k = gram_matrix(x, x, params)
    k.reshape(-1)[:: x.shape[0] + 1] += params.sigma_n**2  # the diagonal, as a view
    return _chol_with_jitter(k)


class _FitPass:
    """One fit pass over a training set, whose outputs share one kernel: the
    stride-capped rows, their squared distances, the heuristic lengthscale,
    and each output's mean and centered values, the latter as the rows of a
    (p, n) array; the three n x n buffers that `_neg_lml_and_grad` computes
    in, with the jitter its last factorization added."""

    def __init__(self, train: TrainingSet, search: HyperparamSearchConfig):
        if train.n < 2:
            raise ValueError("fit requires at least 2 training points")
        n, cap = train.n, search.max_points
        self.stride = int(math.ceil(n / cap)) if n > cap else 1
        self.x = train.x[:: self.stride]
        self.d2 = _sq_dists(self.x, self.x)
        self.lengthscale = _heuristic_lengthscale(self.x, self.d2)
        ys = np.atleast_2d(train.y)[:, :: self.stride]
        self.y_mean = [float(np.mean(y)) for y in ys]
        self.y = np.array([y - m for y, m in zip(ys, self.y_mean)])  # (p, n)
        self.kernel, self.noisy, self.w = (np.empty_like(self.d2) for _ in range(3))
        self.jitter = 0.0

    def search(self) -> tuple[SeKernelParams, dict]:
        """The params of one bounded L-BFGS-B search on the summed negative
        LML of every output, and the search's `GpModel` counts.

        The search runs on the analytic gradient, over the log of (sigma_f,
        sigma_l, sigma_n), from ``_heuristic_center``; each log-parameter is
        bounded to +-``_BOUND_DECADES`` decades around its start. It keeps
        the best point evaluated. Deterministic: no RNG. Raises
        ``UnfittableDataError`` when the start point cannot be factorized; a
        trial point that cannot be factorized later counts as infinitely
        unlikely and marks the search as not converged.
        """
        start = np.log(_heuristic_center(self.x, self.y, self.lengthscale))
        span = _BOUND_DECADES * math.log(10.0)
        evals, jittered, best_f, best_x, hit_unfittable = 0, 0, math.inf, start, False

        def objective(log_params):
            nonlocal evals, jittered, best_f, best_x, hit_unfittable
            evals += 1
            try:
                f, g = _neg_lml_and_grad(log_params, self.d2, self.y, self)
            except UnfittableDataError:
                if evals == 1:
                    raise
                hit_unfittable = True
                return math.inf, np.zeros(3)
            jittered += self.jitter > 0.0
            if f < best_f:
                best_f, best_x = f, log_params.copy()
            return f, g

        result = minimize(
            objective, start, jac=True, method="L-BFGS-B",
            bounds=[(c - span, c + span) for c in start],
        )
        counts = dict(
            lml_evals=evals,
            jittered_evals=jittered,
            converged=bool(result.success) and not hit_unfittable,
        )
        return SeKernelParams(*np.exp(best_x)), counts


def _neg_lml_and_grad(
    log_params: np.ndarray, d2: np.ndarray, y: np.ndarray, work: _FitPass
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient with respect to
    log(sigma_f, sigma_l, sigma_n), from one Cholesky factorization, of the
    output vector `y`, or summed over the p rows of a (p, n) `y` under one
    kernel.

    dL/dtheta = 1/2 tr((A A^T - p K^-1) dK/dtheta) with A = K^-1 Y, the
    columns of Y being the outputs (GPML eq. 5.9, summed over outputs), with
    dK/dlog sigma_f = 2 K_f, dK/dlog sigma_l = K_f * D^2 / sigma_l^2 and
    dK/dlog sigma_n = 2 sigma_n^2 I.

    `d2` is the fit pass `work`'s distances, and every n x n step runs in its
    buffers; the factor, inverted in place, is the one n x n float array
    allocated per call.
    """
    ys = np.atleast_2d(y)
    p, n = ys.shape
    k_f, k, w = work.kernel, work.noisy, work.w
    sf2, sl2, sn2 = np.exp(2.0 * log_params)
    _se_kernel(d2, -2.0 * sl2, sf2, out=k_f)
    np.copyto(k, k_f)
    k.reshape(-1)[:: n + 1] += sn2  # the diagonal, as a view
    chol, work.jitter = _chol_with_jitter(k)
    alpha = cho_solve((chol, True), ys.T, check_finite=False)  # (n, p)
    lml = (
        -0.5 * sum(float(np.dot(yk, ak)) for yk, ak in zip(ys, alpha.T))
        - p * float(np.sum(np.log(np.diag(chol))))
        - 0.5 * p * n * math.log(2.0 * math.pi)
    )
    k_inv, info = lapack.dpotri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    # dpotri fills the lower triangle and leaves the factor's zero upper one,
    # so K^-1 + K^-T mirrors it exactly and doubles only the diagonal
    np.add(k_inv, k_inv.T, out=k)
    k.reshape(-1)[:: n + 1] *= 0.5
    k *= p
    np.matmul(alpha, alpha.T, out=w)  # with one output, np.outer(alpha, alpha)
    w -= k
    wk = np.multiply(w, k_f, out=k)
    grad_f = np.sum(wk)
    wk *= d2
    grad = np.array([grad_f, 0.5 * np.sum(wk) / sl2, sn2 * np.trace(w)])
    return -lml, -grad


@_blas.one_thread()
def fit(train: TrainingSet, search: HyperparamSearchConfig | None = None) -> "GpModel":
    """Fit one kernel to every output of `train` by log-marginal-likelihood
    maximization, as `_FitPass.search` describes. A one-output fit is that
    output's own fit, to the bit, whether it stands alone or is a row of a
    (p, n) `train.y`."""
    work = _FitPass(train, search or HyperparamSearchConfig())
    params, counts = work.search()
    y = train.y[..., :: work.stride]
    used = TrainingSet(x=work.x, y=y, standardizer=train.standardizer)
    y_mean = work.y_mean if y.ndim == 2 else work.y_mean[0]
    return replace(GpModel.from_params(used, params, y_mean=y_mean), **counts)


def _archive_array(z: zipfile.ZipFile, key: str) -> np.ndarray:
    """The array `key` of an .npz archive, read by `world.read_npy`;
    ValueError unless it is float64, as `GpModel.save` writes it."""
    info = z.getinfo(f"{key}.npy")
    with z.open(info) as member:
        array = world.read_npy(member, info.file_size)
    if array.dtype != np.float64:
        raise ValueError(f"{key} holds {array.dtype}, not float64")
    return array


def _query_block(n: int) -> int:
    """Columns per block of `GpModel.predict_many` over a model of n training
    rows: the largest of n, 256 and 2^20 / n^2 (a block's product with the
    (n, n) `chol_inv` then has at least 2^20 multiply-adds), rounded up to a
    multiple of 8. On the OpenBLAS x86-64 (AVX-512) kernels it was chosen on,
    blocks of this width, with the last block taking the remainder, gave the
    bits of one product over all the queries for every n from 2 to 1000 and
    every m tried; narrower blocks, or a last block of one or two columns,
    run other kernels, and changed the last bit of some means and variances."""
    return -(-max(n, 256, -(-(1 << 20) // (n * n))) // 8) * 8


@dataclass(frozen=True)
class GpModel:
    """Trained GP with one or more outputs on one kernel: immutable after
    construction, safe for concurrent predict.

    With an (n,) `train.y`, `alpha` is (n,) and `y_mean` and `lml` are
    floats; with a (p, n) one, they hold one row or entry per output.
    """

    train: TrainingSet
    params: SeKernelParams
    chol: np.ndarray = field(repr=False)  # lower factor of K + sigma_n^2 I, Fortran order
    alpha: np.ndarray = field(repr=False)  # solves (K + sigma_n^2 I) alpha = yc, per output
    y_mean: float | np.ndarray = 0.0
    lml: float | np.ndarray = math.nan  # log marginal likelihood of train.y - y_mean, per output
    jitter: float = 0.0  # diagonal jitter added to factorize K + sigma_n^2 I
    lml_evals: int = 0  # objective evaluations of the fit that chose params
    jittered_evals: int = 0  # of those, the ones whose factorization needed jitter
    converged: bool | None = None  # the fit's optimizer success; None if not fitted
    # (n,) squared norms of the train.x rows, for predict's distances
    train_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    # -2 sigma_l^2 and sigma_f^2 as Python floats, for the posterior
    kernel_divisor: float = field(init=False, repr=False, compare=False)
    signal_var: float = field(init=False, repr=False, compare=False)
    # (alpha row, y_mean as a Python float) of each output, for the posterior
    _outputs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "train_sq_norms", np.sum(self.train.x**2, axis=1))
        object.__setattr__(self, "kernel_divisor", float(-2.0 * self.params.sigma_l**2))
        object.__setattr__(self, "signal_var", float(self.params.sigma_f**2))
        object.__setattr__(self, "_outputs", tuple(
            zip(np.atleast_2d(self.alpha), np.atleast_1d(self.y_mean).tolist())
        ))

    @classmethod
    @_blas.one_thread()
    def from_params(
        cls, train: TrainingSet, params: SeKernelParams, y_mean: float | np.ndarray = 0.0
    ) -> "GpModel":
        """Factorize K + sigma_n^2 I once; the factor gives each output's
        alpha, by two triangular solves, and LML. `y_mean` is one float, or
        one per row of a (p, n) `train.y`."""
        y_mean = np.broadcast_to(y_mean, train.y.shape[:-1]).astype(float)
        yc = np.asarray_chkfinite(train.y - y_mean[..., None])
        chol, jitter = _factorize(train.x, params)
        halves = [_solve_lower(chol, y) for y in np.atleast_2d(yc)]
        alpha = np.array([_solve_lower(chol, half, trans=1) for half in halves])
        log_det = np.sum(np.log(np.diag(chol)))  # half the log determinant
        with np.errstate(over="ignore"):  # an output too large to square has LML -inf
            lml = np.array([
                -0.5 * np.dot(half, half) - log_det - 0.5 * train.n * math.log(2.0 * math.pi)
                for half in halves
            ])
        if train.y.ndim == 1:
            alpha, y_mean, lml = alpha[0], float(y_mean), float(lml[0])
        return cls(train=train, params=params, chol=chol, alpha=alpha,
                   y_mean=y_mean, lml=lml, jitter=jitter)

    @cached_property
    @_blas.one_thread()
    def chol_inv(self) -> np.ndarray:
        """chol^-1 for the posterior variance, by one `dtrtri` at the first prediction."""
        inv, info = lapack.dtrtri(self.chol, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtri failed with info={info}")
        return inv

    def output(self, k: int) -> "GpModel":
        """Output `k` as a one-output model that shares this model's factor.
        Each call builds a new model; the predictions do not use it."""
        train = replace(self.train, y=np.atleast_2d(self.train.y)[k])
        return replace(
            self, train=train, alpha=np.atleast_2d(self.alpha)[k],
            y_mean=float(np.atleast_1d(self.y_mean)[k]), lml=float(np.atleast_1d(self.lml)[k]),
        )

    def predict(self, x_star_raw: np.ndarray):
        """Posterior (mean, variance) at one raw (unstandardized) query, a
        (d,) or (1, d) array, as Python floats equal to `predict_many`'s
        one-row values to the bit. The mean is a float, or a list of one per
        output with a (p, n) `train.y`; the variance is every output's.

        For one row numpy's fixed cost per call outweighs the arithmetic, so
        the kernel row is built once; each output takes one dot with it for
        its mean, and one product with `chol_inv` and one reduction give the
        variance.
        """
        x = np.asarray(x_star_raw, dtype=float)
        if x.ndim == 2 and len(x) == 1:
            x = x[0]
        if x.shape != (self.train.d,):
            raise ValueError(
                f"predict takes one query of shape ({self.train.d},),"
                f" got shape {np.shape(x_star_raw)}"
            )
        std = self.train.standardizer
        xs = (x - std.mean) / std.scale
        d2 = _clamp_distances(
            self.train_sq_norms + np.add.reduce(xs * xs) - 2.0 * (self.train.x @ xs)
        )
        # gram_matrix(train.x, xs), over d2
        k_star = _se_kernel(d2, self.kernel_divisor, self.signal_var, out=d2)
        means = [float(k_star @ alpha) + y_mean for alpha, y_mean in self._outputs]
        v = np.dot(self.chol_inv, k_star)  # the gemv of `@`, with less dispatch per call
        v *= v
        variance = max(self.signal_var - float(np.add.reduce(v)), 0.0)
        return means if self.alpha.ndim == 2 else means[0], variance

    def predict_many(self, x_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance over (m, d) raw queries, for any m, as
        arrays on one BLAS thread: the means are (m,), or (p, m) with a (p, n)
        `train.y`, and the (m,) variance is every output's.

        The queries run in blocks of `_query_block(n)` columns, n = `train.n`,
        the last block taking the remainder. Each block's standardization,
        distances, kernel, `chol_inv` product and variance are computed once
        for all outputs, in two (n, width) buffers made once for every block,
        and each output's mean is its own dot with the kernel. The working set
        grows with the model, about n^2 floats for n >= 256 as `chol` and
        `chol_inv` do, not with n m, and the bits are those of one pass over
        all the queries (see `_query_block`)."""
        x = np.atleast_2d(np.asarray(x_raw, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.train.d:
            raise ValueError(f"queries have shape {x.shape}, not (m, {self.train.d})")
        n, m = self.train.n, len(x)
        block = _query_block(n)
        bounds = [block * k for k in range(max(m // block, 1))] + [m]
        width = m - bounds[-2]  # the last block is the widest
        kernel, product = np.empty(n * width), np.empty(n * width)
        means, variance = np.empty((len(self._outputs), m)), np.empty(m)
        with _blas.one_thread():
            for lo, hi in zip(bounds, bounds[1:]):
                k = kernel[: n * (hi - lo)].reshape(n, hi - lo)
                v = product[: n * (hi - lo)].reshape(n, hi - lo)
                with np.errstate(over="ignore", invalid="ignore"):  # see _sq_dists, _se_kernel
                    xs = self.train.standardizer.apply(x[lo:hi])
                    _sq_dists(self.train.x, xs, out=k, scratch=v)
                    _se_kernel(k, self.kernel_divisor, self.signal_var, out=k)
                for mean, (alpha, y_mean) in zip(means, self._outputs):
                    np.add(np.matmul(k.T, alpha, out=mean[lo:hi]), y_mean, out=mean[lo:hi])
                np.matmul(self.chol_inv, k, out=v)
                v *= v
                np.sum(v, axis=0, out=variance[lo:hi])
        np.subtract(self.signal_var, variance, out=variance)
        np.maximum(variance, 0.0, out=variance)
        return means if self.alpha.ndim == 2 else means[0], variance

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
            with zipfile.ZipFile(path) as z:
                x, y, mean, scale, y_mean, hyper = (
                    _archive_array(z, k)
                    for k in ("x", "y", "std_mean", "std_scale", "y_mean", "hyper")
                )
        # zipfile raises NotImplementedError for a flipped flag bit that
        # asks for encryption
        except (zipfile.BadZipFile, KeyError, EOFError, ValueError, NotImplementedError) as exc:
            raise ValueError(f"bad model archive {path}: {exc}") from exc
        try:
            if not (
                x.ndim == 2
                and y.ndim in (1, 2)
                and mean.shape == scale.shape == (x.shape[1],)
                and hyper.shape == (3,)
                and y_mean.shape == y.shape[:-1]
            ):
                raise ValueError(
                    f"x, y, std_mean, std_scale, hyper and y_mean have shapes {x.shape},"
                    f" {y.shape}, {mean.shape}, {scale.shape}, {hyper.shape} and"
                    f" {y_mean.shape}, not (n, d), (n,) or (p, n), (d,), (d,), (3,)"
                    " and () or (p,)"
                )
            train = TrainingSet(x=x, y=y, standardizer=Standardizer(mean=mean, scale=scale))
            params = SeKernelParams(*hyper)
            if not np.all(np.isfinite(y_mean)):
                raise ValueError(f"y_mean must be finite, got {y_mean}")
        except ValueError as exc:
            raise ValueError(f"bad model archive {path}: {exc}") from exc
        return cls.from_params(train, params, y_mean=y_mean)
