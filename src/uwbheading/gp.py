"""Exact scalar-output Gaussian-process regression with the squared
exponential kernel.

Hyperparameters are fitted by maximizing the log marginal likelihood with one
bounded L-BFGS-B run on its analytic gradient (Rasmussen & Williams 2006,
GPML eq. 5.9) over log(sigma_f, sigma_l, sigma_n). The run starts at
data-derived heuristics, and each log-parameter is boxed to a fixed span of
decades around its heuristic. Inputs are standardized internally (the
isotropic lengthscale is meaningless across mixed units); outputs are
centered and the training mean is added back at prediction.

Several output vectors on one training input (`fit_shared_inputs`) share
one kernel: one search maximizes the sum of their log marginal likelihoods,
and one Cholesky factor serves every model (the intrinsic coregionalization
model with an identity output covariance; Alvarez, Rosasco & Lawrence 2012).
One fit-pass object (`_SharedInputs`) holds that search and what it shares:
the rows, their squared distances, the heuristic lengthscale and the buffers
each likelihood evaluation computes in. Prediction has one batch path for
any number of rows (`predict_shared_inputs`) and one online path for a
single row as Python floats (`predict_row`), equal to the bit; each takes
one kernel and one triangular solve for all the models.

Fitting, factorizing and batch prediction run on one BLAS thread (see
`_blas`): threaded OpenBLAS workers keep spinning after a call and slow the
work that follows, and a threaded Cholesky factor depends in its last bits
on the CPU count.
"""

from __future__ import annotations

import math
import numbers
import zipfile
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, lapack
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
    "fit_shared_inputs",
    "predict_shared_inputs",
    "predict_row",
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
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("standardizer means must be finite")

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

    def same_inputs(self, other: "TrainingSet") -> bool:
        """Whether `other` has these inputs and this standardizer, exactly."""
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.standardizer.mean, other.standardizer.mean)
            and np.array_equal(self.standardizer.scale, other.standardizer.scale)
        )


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
    """k(x, x') of two points, as `gram_matrix` computes it."""
    return float(gram_matrix(np.ravel(x), np.ravel(x_prime), params)[0, 0])


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between the rows of `a` and `b`."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    d2 = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
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
    into `out` (which may be `d2`) when given."""
    k = np.divide(d2, divisor, out=out)
    np.exp(k, out=k)
    k *= signal_var
    return k


def _solve_lower(chol: np.ndarray, b: np.ndarray, trans=0, overwrite=False) -> np.ndarray:
    """chol^-1 b, or chol^-T b with `trans` 1, for a lower-triangular
    Fortran-order `chol`, by LAPACK `dtrtrs`. With `overwrite` a contiguous
    1-D `b` is solved in place."""
    x, info = lapack.dtrtrs(chol, b, lower=1, trans=trans, overwrite_b=overwrite)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
    return x


def gram_matrix(a: np.ndarray, b: np.ndarray, params: SeKernelParams) -> np.ndarray:
    return _se_kernel(_sq_dists(a, b), -2.0 * params.sigma_l**2, params.sigma_f**2)


def _chol_with_jitter(k_noisy: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, in a new Fortran-order array with a zero upper
    triangle, and the diagonal jitter added to obtain it, escalating the
    jitter on failure. `k_noisy` is left as it is; ValueError if it holds
    inf or NaN.
    """
    base = float(np.mean(np.diag(k_noisy)))
    np.asarray_chkfinite(k_noisy)
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


class _SharedInputs:
    """One fit pass over a training input and the output vectors on it,
    which share one kernel: the stride-capped rows, their squared distances,
    the heuristic lengthscale and the centered outputs; the three n x n
    buffers that `_neg_lml_and_grad` computes in, with the jitter its last
    factorization added; and `fitted`, the one hyperparameter search."""

    def __init__(
        self,
        train: TrainingSet,
        search: HyperparamSearchConfig,
        outputs: tuple[np.ndarray, ...] | None = None,
    ):
        """`outputs` are the (n,) output vectors on `train`'s inputs, by
        default `train.y` alone."""
        if train.n < 2:
            raise ValueError("fit requires at least 2 training points")
        n, cap = train.n, search.max_points
        self.stride = int(math.ceil(n / cap)) if n > cap else 1
        self.x = train.x[:: self.stride]
        self.d2 = _sq_dists(self.x, self.x)
        self.lengthscale = _heuristic_lengthscale(self.x, self.d2)
        ys = [y[:: self.stride] for y in ((train.y,) if outputs is None else outputs)]
        self.y = np.array([y - np.mean(y) for y in ys])  # (p, n), one output a row
        self.kernel, self.noisy, self.w = (np.empty_like(self.d2) for _ in range(3))
        self.jitter = 0.0

    @cached_property
    def fitted(self) -> tuple[SeKernelParams, tuple[np.ndarray, float], dict]:
        """The params of one bounded L-BFGS-B search on the summed negative
        LML of every output, the factor (chol, jitter) of K + sigma_n^2 I
        at them, and the search's `GpModel` counts.

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
        params = SeKernelParams(*np.exp(best_x))
        counts = dict(
            lml_evals=evals,
            jittered_evals=jittered,
            converged=bool(result.success) and not hit_unfittable,
        )
        return params, _factorize(self.x, params), counts


def _neg_lml_and_grad(
    log_params: np.ndarray, d2: np.ndarray, y: np.ndarray, work: _SharedInputs
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
def fit(
    train: TrainingSet,
    search: HyperparamSearchConfig | None = None,
    shared: _SharedInputs | None = None,
) -> "GpModel":
    """Fit hyperparameters by log-marginal-likelihood maximization, as
    `_SharedInputs.fitted` describes.

    `shared` is `fit_shared_inputs`' fit pass over `train` and the sets
    fitted with it. Its search runs once, at the first `fit` through it, and
    every such fit gets its params and factor. Without it the fit makes its
    own pass.
    """
    if shared is None:
        shared = _SharedInputs(train, search or HyperparamSearchConfig())
    params, factor, counts = shared.fitted
    y = train.y[:: shared.stride]
    used = TrainingSet(x=shared.x, y=y, standardizer=train.standardizer)
    model = GpModel.from_params(used, params, y_mean=float(np.mean(y)), factor=factor)
    return replace(model, **counts)


@_blas.one_thread()
def fit_shared_inputs(
    trainings: tuple[TrainingSet, ...], search: HyperparamSearchConfig | None = None
) -> list["GpModel"]:
    """`fit` each training set, where all share the first one's inputs and
    standardizer and differ only in their outputs, with one kernel: one
    hyperparameter search on the sum of their log marginal likelihoods, whose
    factor every model shares. ValueError if the inputs differ.

    With one training set this is its own `fit`, to the bit. The fit-side
    twin of `predict_shared_inputs`.
    """
    first = trainings[0]
    if not all(first.same_inputs(t) for t in trainings[1:]):
        raise ValueError("training sets differ in their inputs or standardizer")
    search = search or HyperparamSearchConfig()
    shared = _SharedInputs(first, search, tuple(t.y for t in trainings))
    # through the module's `fit`, so that a wrapper of `gp.fit` (as the
    # benchmark's tracer installs) sees every fit
    return [fit(t, search, shared) for t in trainings]


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
    jittered_evals: int = 0  # of those, the ones whose factorization needed jitter
    converged: bool | None = None  # the fit's optimizer success; None if not fitted
    # (n,) squared norms of the train.x rows, for predict_row's distances
    train_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    # -2 sigma_l^2 and sigma_f^2 as Python floats, for the posterior
    kernel_divisor: float = field(init=False, repr=False, compare=False)
    signal_var: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "train_sq_norms", np.sum(self.train.x**2, axis=1))
        object.__setattr__(self, "kernel_divisor", float(-2.0 * self.params.sigma_l**2))
        object.__setattr__(self, "signal_var", float(self.params.sigma_f**2))

    @classmethod
    @_blas.one_thread()
    def from_params(
        cls,
        train: TrainingSet,
        params: SeKernelParams,
        y_mean: float = 0.0,
        factor: tuple[np.ndarray, float] | None = None,
    ) -> "GpModel":
        """Factorize K + sigma_n^2 I once, unless `factor` is its (chol,
        jitter) from `_factorize` on `train.x` and `params`; the factor gives
        alpha and the LML."""
        yc = np.asarray_chkfinite(train.y - y_mean)
        chol, jitter = _factorize(train.x, params) if factor is None else factor
        half = _solve_lower(chol, yc)
        alpha = _solve_lower(chol, half, trans=1)
        lml = float(
            -0.5 * np.dot(half, half)
            - np.sum(np.log(np.diag(chol)))
            - 0.5 * train.n * math.log(2.0 * math.pi)
        )
        return cls(train=train, params=params, chol=chol, alpha=alpha,
                   y_mean=y_mean, lml=lml, jitter=jitter)

    def predict(self, x_star_raw: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at one raw (unstandardized) query, a
        (d,) or (1, d) array, by `predict_row`; `predict_many` predicts more."""
        x = np.atleast_2d(np.asarray(x_star_raw, dtype=float))
        if x.ndim != 2 or len(x) != 1:
            raise ValueError(f"predict takes one query, got shape {np.shape(x_star_raw)}")
        return predict_row((self,), x[0])[0]

    def predict_many(self, x_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized posterior mean and variance over (m, d) raw queries."""
        return predict_shared_inputs((self,), x_raw)[0]

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
    def load(cls, path, factor_of: "GpModel | None" = None) -> "GpModel":
        """ValueError naming `path` if it is not an archive as `save` writes.

        The factor of `factor_of` serves the loaded model too when the archive
        has its inputs, standardizer and params, as the models of one
        `fit_shared_inputs` do; otherwise the model factorizes its own.
        """
        try:
            with np.load(path) as z:
                x, y, mean, scale, y_mean, hyper = (
                    z[k] for k in ("x", "y", "std_mean", "std_scale", "y_mean", "hyper")
                )
            if not (
                x.ndim == 2
                and mean.shape == scale.shape == (x.shape[1],)
                and hyper.shape == (3,)
                and y_mean.shape == ()
            ):
                raise ValueError(
                    f"x, std_mean, std_scale, hyper and y_mean have shapes {x.shape},"
                    f" {mean.shape}, {scale.shape}, {hyper.shape} and {y_mean.shape},"
                    " not (n, d), (d,), (d,), (3,) and ()"
                )
            train = TrainingSet(x=x, y=y, standardizer=Standardizer(mean=mean, scale=scale))
            params, y_mean = SeKernelParams(*hyper.astype(float)), float(y_mean)
            if not math.isfinite(y_mean):
                raise ValueError(f"y_mean must be finite, got {y_mean}")
        except (zipfile.BadZipFile, KeyError, EOFError, ValueError) as exc:
            raise ValueError(f"bad model archive {path}: {exc}") from exc
        factor = None
        same_kernel = factor_of is not None and factor_of.params == params
        if same_kernel and factor_of.train.same_inputs(train):
            factor = factor_of.chol, factor_of.jitter
        return cls.from_params(train, params, y_mean=y_mean, factor=factor)


def predict_shared_inputs(
    models: tuple[GpModel, ...], x_raw: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Posterior mean and variance of each model over (m, d) raw queries, for
    any m, as matrices on one BLAS thread. The models share one kernel, so
    the queries' standardization, kernel, triangular solve and variances are
    computed once for all of them (every model gets the same variance array),
    and each model's mean is its own dot with that kernel.

    Every model must have the first one's `train.x`, standardizer and
    `params`; the caller checks that once, where it pairs the models, not
    per query.
    """
    x = np.atleast_2d(np.asarray(x_raw, dtype=float))
    first = models[0]
    if x.ndim != 2 or x.shape[1] != first.train.d:
        raise ValueError(f"queries have shape {x.shape}, not (m, {first.train.d})")
    xs = first.train.standardizer.apply(x)
    with _blas.one_thread():
        d2 = _sq_dists(first.train.x, xs)
        k_star = _se_kernel(d2, first.kernel_divisor, first.signal_var, out=d2)
        means = [k_star.T @ m.alpha + m.y_mean for m in models]
        v = _solve_lower(first.chol, k_star)
    v *= v
    variances = np.maximum(first.signal_var - np.sum(v, axis=0), 0.0)
    return [(mean, variances) for mean in means]


def predict_row(models: tuple[GpModel, ...], x_raw: np.ndarray) -> list[tuple[float, float]]:
    """Posterior (mean, variance) of each model at one raw (d,) float query,
    as Python floats equal to `predict_shared_inputs`' one-row values to the
    bit.

    For one row numpy's fixed cost per call outweighs the arithmetic, so
    the shared kernel row is built once; each model takes one dot with it
    for its mean, and one triangular solve in its place and one reduction
    give the variance of all. The models must share their training inputs
    and params, as in `predict_shared_inputs`.
    """
    first = models[0]
    if x_raw.shape != (first.train.d,):
        raise ValueError(f"query shape {x_raw.shape} != ({first.train.d},)")
    std = first.train.standardizer
    xs = (x_raw - std.mean) / std.scale
    d2 = _clamp_distances(
        first.train_sq_norms + np.add.reduce(xs * xs) - 2.0 * (first.train.x @ xs)
    )
    # gram_matrix(train.x, xs), over d2
    k_star = _se_kernel(d2, first.kernel_divisor, first.signal_var, out=d2)
    means = [float(k_star @ m.alpha) + m.y_mean for m in models]
    _solve_lower(first.chol, k_star, overwrite=True)  # v = chol^-1 k_star, over k_star
    k_star *= k_star
    variance = max(first.signal_var - float(np.add.reduce(k_star)), 0.0)
    return [(mean, variance) for mean in means]
