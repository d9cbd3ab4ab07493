import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, lapack

from uwbheading import _blas, gp, heading

RNG = np.random.default_rng(1234)


# --- independent dense-inverse oracle -------------------------------------


def dense_lml(x, y, params):
    n = len(y)
    k = gp.gram_matrix(x, x, params) + params.sigma_n**2 * np.eye(n)
    k_inv = np.linalg.inv(k)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    return -0.5 * y @ k_inv @ y - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi)


def dense_predict(x, y, params, x_star):
    n = len(y)
    k = gp.gram_matrix(x, x, params) + params.sigma_n**2 * np.eye(n)
    k_inv = np.linalg.inv(k)
    k_star = gp.gram_matrix(x, np.atleast_2d(x_star), params)[:, 0]
    mean = k_star @ k_inv @ y
    var = params.sigma_f**2 - k_star @ k_inv @ k_star
    return mean, var


def identity_train(x, y):
    std = gp.Standardizer(mean=np.zeros(x.shape[1]), scale=np.ones(x.shape[1]))
    return gp.TrainingSet(x=x, y=y, standardizer=std)


def fit_pass(x, y):
    """The fit pass over unstrided rows `x`: their distances and LML buffers."""
    return gp._FitPass(identity_train(x, y), gp.HyperparamSearchConfig())


# --- kernel ----------------------------------------------------------------


def test_kernel_zero_distance():
    p = gp.SeKernelParams(2.0, 1.5, 0.1)
    assert gp.kernel_eval([1.0, 2.0], [1.0, 2.0], p) == pytest.approx(4.0)


def test_kernel_at_sqrt2_lengthscale():
    p = gp.SeKernelParams(1.0, 0.7, 0.1)
    x = np.zeros(3)
    xp = np.array([0.7 * math.sqrt(2.0), 0.0, 0.0])
    assert gp.kernel_eval(x, xp, p) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_kernel_decay_and_symmetry():
    p = gp.SeKernelParams(1.3, 0.5, 0.1)
    assert gp.kernel_eval([0.0], [60.0], p) < 1e-300 or gp.kernel_eval([0.0], [60.0], p) == 0.0
    a, b = np.array([0.3, -1.0]), np.array([1.1, 0.4])
    assert gp.kernel_eval(a, b, p) == pytest.approx(gp.kernel_eval(b, a, p), rel=1e-15)
    assert gp.kernel_eval(a, b, p) == gp.gram_matrix(a, b, p)[0, 0]


def test_kernel_dimension_mismatch():
    p = gp.SeKernelParams(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        gp.kernel_eval([1.0, 2.0], [1.0], p)


def test_gram_diagonal_and_transpose():
    p = gp.SeKernelParams(0.8, 1.1, 0.1)
    x = RNG.normal(size=(6, 2))
    k = gp.gram_matrix(x, x, p)
    assert np.allclose(np.diag(k), 0.64)
    a, b = RNG.normal(size=(3, 2)), RNG.normal(size=(4, 2))
    assert np.allclose(gp.gram_matrix(a, b, p), gp.gram_matrix(b, a, p).T)


def test_gram_two_point_hand_computed():
    p = gp.SeKernelParams(1.0, 2.0, 0.1)
    x = np.array([[0.0], [3.0]])
    k = gp.gram_matrix(x, x, p)
    off = math.exp(-9.0 / 8.0)
    assert np.allclose(k, [[1.0, off], [off, 1.0]], rtol=1e-14)


# --- log marginal likelihood ------------------------------------------------


def test_lml_single_point_closed_form():
    p = gp.SeKernelParams(1.4, 0.9, 0.3)
    train = identity_train(np.array([[0.5]]), np.array([0.0]))
    sigma_tot = math.sqrt(p.sigma_f**2 + p.sigma_n**2)
    expected = -math.log(sigma_tot) - 0.5 * math.log(2 * math.pi)
    assert gp.log_marginal_likelihood(train, p) == pytest.approx(expected, rel=1e-12)


def test_lml_matches_dense_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    p = gp.SeKernelParams(1.2, 0.8, 0.4)
    train = identity_train(x, y)
    assert gp.log_marginal_likelihood(train, p) == pytest.approx(
        dense_lml(x, y, p), abs=1e-8
    )


def test_lml_permutation_invariant():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    p = gp.SeKernelParams(1.0, 1.0, 0.3)
    perm = rng.permutation(12)
    a = gp.log_marginal_likelihood(identity_train(x, y), p)
    b = gp.log_marginal_likelihood(identity_train(x[perm], y[perm]), p)
    assert a == pytest.approx(b, rel=1e-12)


# --- predict -----------------------------------------------------------------


def test_predict_prior_reversion_far_away():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    p = gp.SeKernelParams(1.5, 0.6, 0.2)
    model = gp.GpModel.from_params(identity_train(x, y), p)
    mean, var = model.predict(np.array([500.0, 500.0]))
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(p.sigma_f**2, rel=1e-12)


def test_predict_single_point_closed_form():
    p = gp.SeKernelParams(1.1, 0.5, 0.3)
    y1 = 0.8
    model = gp.GpModel.from_params(
        identity_train(np.array([[0.2]]), np.array([y1])), p
    )
    mean, _ = model.predict(np.array([0.2]))
    assert mean == pytest.approx(
        p.sigma_f**2 * y1 / (p.sigma_f**2 + p.sigma_n**2), rel=1e-10
    )


def test_predict_matches_dense_oracle_many_instances():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n, d = int(rng.integers(2, 51)), int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        p = gp.SeKernelParams(
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(0.05, 0.5)),
        )
        model = gp.GpModel.from_params(identity_train(x, y), p)
        xq = rng.normal(size=d)
        mean, var = model.predict(xq)
        om, ov = dense_predict(x, y, p, xq)
        assert mean == pytest.approx(om, abs=1e-8)
        assert var == pytest.approx(ov, abs=1e-8)


def test_variance_bounds():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    p = gp.SeKernelParams(1.0, 0.8, 0.2)
    model = gp.GpModel.from_params(identity_train(x, y), p)
    _, variances = model.predict_many(rng.normal(size=(200, 3)) * 2)
    assert np.all(variances >= 0.0)
    assert np.all(variances <= p.sigma_f**2 + 1e-9)


def test_variance_monotone_in_training_data():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    p = gp.SeKernelParams(1.0, 1.0, 1e-4)  # near-noiseless
    queries = rng.normal(size=(50, 2))
    base = gp.GpModel.from_params(identity_train(x, y), p)
    _, v0 = base.predict_many(queries)
    extended = gp.GpModel.from_params(
        identity_train(
            np.vstack([x, rng.normal(size=(1, 2))]), np.append(y, 0.3)
        ),
        p,
    )
    _, v1 = extended.predict_many(queries)
    assert np.all(v1 <= v0 + 1e-9)


def test_predict_dimension_mismatch():
    model = gp.GpModel.from_params(
        identity_train(np.zeros((2, 3)) + [[0, 0, 0], [1, 1, 1]], np.array([0.0, 1.0])),
        gp.SeKernelParams(1.0, 1.0, 0.1),
    )
    with pytest.raises(ValueError):
        model.predict(np.array([1.0, 2.0]))
    # not one query: predict_many predicts those
    for query in (np.ones((2, 3)), np.ones((0, 3)), np.ones((1, 1, 3))):
        with pytest.raises(ValueError, match="one query"):
            model.predict(query)
    assert model.predict(np.ones((1, 3))) == model.predict(np.ones(3))
    # one column would broadcast against the standardizer's (3,) mean
    for query in (np.array([1.0]), np.ones((3, 1))):
        with pytest.raises(ValueError, match="dimension|shape"):
            model.predict_many(query)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_predict_rejects_overflowing_query():
    model = gp.GpModel.from_params(
        identity_train(np.array([[-1.0, 0.5, 0.0], [1.0, 1.0, -2.0]]), np.array([0.0, 1.0])),
        gp.SeKernelParams(1.0, 1.0, 0.1),
    )
    # x**2 and x @ x_train overflow to inf, and inf - inf is NaN
    for rows in (2, 1):  # the batch path and the one-row pass
        with pytest.raises(ValueError, match="too large"):
            model.predict_many(np.full((rows, 3), 1.7e308))
    with pytest.raises(ValueError, match="too large"):
        model.predict(np.full(3, 1.7e308))
    # on 256 training rows, 2 * 256 + 1 queries are two blocks of columns; the
    # one overflowing row is in the first block, then in the last one
    rng = np.random.default_rng(8)
    x = rng.normal(size=(256, 3))
    model = gp.GpModel.from_params(identity_train(x, np.sin(x[:, 0])), gp.SeKernelParams(1.0, 1.0, 0.1))
    assert gp._query_block(256) == 256
    for row in (0, -1):
        queries = np.zeros((2 * 256 + 1, 3))
        queries[row] = 1.7e308
        with pytest.raises(ValueError, match="too large"):
            model.predict_many(queries)


def test_predict_many_working_set_grows_with_n_squared_not_n_m():
    """The traced peak of a batch prediction over m = 20 n queries stays
    within a small multiple of n^2 + m floats: the queries run in blocks of
    n = 256 columns through buffers made once, not as (n, m) arrays."""
    rng = np.random.default_rng(21)
    n = 256
    m = 20 * n
    x = rng.normal(size=(n, 3))
    model = gp.GpModel.from_params(
        identity_train(x, np.array([np.sin(x[:, 0]), np.cos(x[:, 1])])),
        gp.SeKernelParams(1.0, 1.0, 0.1), y_mean=[0.0, 0.0],
    )
    queries = rng.normal(size=(m, 3))
    model.predict_many(queries[:2])  # warm-up: the cached inverse factor
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        means, variance = model.predict_many(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert means.shape == (2, m) and variance.shape == (m,)
    assert peak <= 4 * (n * n + m) * 8


# --- fit ----------------------------------------------------------------------


def test_fit_interpolates_smooth_function():
    x = np.linspace(0.0, 3.0, 10)[:, None]
    y = np.sin(x[:, 0])
    model = gp.fit(gp.TrainingSet.from_raw(x, y))
    means, _ = model.predict_many(x)
    assert np.abs(means - y).max() < 1e-3


def test_fit_recovers_noise_scale_on_pure_noise():
    rng = np.random.default_rng(42)
    x = rng.uniform(size=(60, 2))
    y = rng.normal(size=60)  # unit-variance noise, no signal
    model = gp.fit(gp.TrainingSet.from_raw(x, y))
    assert 0.5 <= model.params.sigma_n <= 2.0


def test_fit_insensitive_to_duplicated_points():
    x = np.linspace(0.0, 4.0, 12)[:, None]
    y = np.cos(x[:, 0])
    a = gp.fit(gp.TrainingSet.from_raw(x, y))
    b = gp.fit(gp.TrainingSet.from_raw(np.vstack([x, x]), np.concatenate([y, y])))
    for attr in ("sigma_f", "sigma_l"):
        ratio = getattr(b.params, attr) / getattr(a.params, attr)
        assert 0.5 <= ratio <= 2.0


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        gp.fit(gp.TrainingSet.from_raw(np.array([[1.0]]), np.array([2.0])))


def test_fit_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 2))
    y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=25)
    a = gp.fit(gp.TrainingSet.from_raw(x, y))
    b = gp.fit(gp.TrainingSet.from_raw(x, y))
    assert a.params == b.params


def test_fit_caps_training_size():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(300, 1))
    y = np.sin(x[:, 0])
    model = gp.fit(
        gp.TrainingSet.from_raw(x, y),
        gp.HyperparamSearchConfig(max_points=50),
    )
    assert model.train.n <= 50


# --- validation and serialization ----------------------------------------------


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        gp.SeKernelParams(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        gp.SeKernelParams(1.0, -1.0, 0.1)


def test_training_set_rejects_bad_data():
    with pytest.raises(ValueError):
        gp.TrainingSet.from_raw(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError):
        gp.TrainingSet.from_raw(np.zeros((2, 1)), np.array([1.0]))
    # (p, n) outputs: n must be the input row count, and p at least 1
    for y in (np.zeros((2, 3)), np.zeros((0, 4))):
        with pytest.raises(ValueError):
            identity_train(np.zeros((4, 2)), y)


def test_chol_rejects_nan_matrix_without_jitter():
    k = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        gp._chol_with_jitter(k)


def test_model_factorization_invariants():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    p = gp.SeKernelParams(1.0, 0.9, 0.2)
    model = gp.GpModel.from_params(identity_train(x, y), p)
    k = gp.gram_matrix(x, x, p) + p.sigma_n**2 * np.eye(20)
    assert np.abs(model.chol @ model.chol.T - k).max() < 1e-8 * np.abs(k).max()
    assert np.abs(k @ model.alpha - y).max() < 1e-8


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(30, 4)) * [1.0, 10.0, 0.1, 5.0]
    y = np.sin(x[:, 0]) + 0.05 * rng.normal(size=30)
    model = gp.fit(gp.TrainingSet.from_raw(x, y))
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = gp.GpModel.load(path)
    with np.load(path) as archive:
        assert "lml" not in archive.files
    assert loaded.lml == model.lml  # recomputed from the rebuilt factor
    # the fit and the archive both hand over np.float64; the params hold floats
    for params in (model.params, loaded.params):
        assert all(type(v) is float for v in (params.sigma_f, params.sigma_l, params.sigma_n))
        assert "np.float64" not in repr(params)
    assert loaded.params == model.params
    queries = rng.normal(size=(40, 4)) * [1.0, 10.0, 0.1, 5.0]
    m0, v0 = model.predict_many(queries)
    m1, v1 = loaded.predict_many(queries)
    assert np.abs(m0 - m1).max() < 1e-10
    assert np.abs(v0 - v1).max() < 1e-10


# --- L-BFGS-B fit against its gradient and the grid search it replaced ---------


def reference_grid_descent_lml(train, max_points, grid_size=5, decades=1.0,
                               descent_rounds=60):
    """Best LML of the log-space grid + coordinate-descent search that the
    L-BFGS-B fit replaced, on the same stride-capped, centered outputs."""
    x, y = train.x, train.y
    if train.n > max_points:
        stride = int(math.ceil(train.n / max_points))
        x, y = x[::stride], y[::stride]
    yc = y - float(np.mean(y))
    centered = gp.TrainingSet(x=x, y=yc, standardizer=train.standardizer)
    axes = [
        np.logspace(math.log10(c) - decades, math.log10(c) + decades, grid_size)
        for c in gp._heuristic_center(x, yc)
    ]
    best_lml, best = -math.inf, None
    for sf, sl, sn in itertools.product(*axes):
        try:
            lml = gp.log_marginal_likelihood(centered, gp.SeKernelParams(sf, sl, sn))
        except gp.UnfittableDataError:
            continue
        if lml > best_lml:
            best_lml, best = lml, np.log([sf, sl, sn])
    step = decades * math.log(10.0) / max(grid_size - 1, 1)
    for _ in range(descent_rounds):
        moved = False
        for i in range(3):
            for sign in (+1.0, -1.0):
                cand = best.copy()
                cand[i] += sign * step
                try:
                    lml = gp.log_marginal_likelihood(
                        centered, gp.SeKernelParams(*np.exp(cand))
                    )
                except gp.UnfittableDataError:
                    continue
                if lml > best_lml:
                    best_lml, best, moved = lml, cand, True
        if not moved:
            step *= 0.5
            if step < 5e-3:
                break
    return best_lml


@pytest.mark.parametrize("seed", range(6))
def test_lml_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(100 + seed)
    n, d = int(rng.integers(5, 30)), int(rng.integers(1, 4))
    x = rng.normal(size=(n, d))
    y = np.sin(x[:, 0]) + 0.3 * rng.normal(size=n)
    log_params = np.log(rng.uniform([0.3, 0.3, 0.05], [2.0, 2.0, 0.8]))
    train = identity_train(x, y)
    work = fit_pass(x, y)
    neg_lml, neg_grad = gp._neg_lml_and_grad(log_params, work.d2, y, work)
    assert -neg_lml == pytest.approx(
        gp.log_marginal_likelihood(train, gp.SeKernelParams(*np.exp(log_params))),
        rel=1e-12,
    )
    h = 1e-5
    numeric = np.empty(3)
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        up, down = (
            gp.log_marginal_likelihood(train, gp.SeKernelParams(*np.exp(log_params + s)))
            for s in (step, -step)
        )
        numeric[i] = (up - down) / (2 * h)
    assert np.abs(-neg_grad - numeric).max() <= 1e-5 * np.abs(numeric).max()


# --- the LML evaluation as it was before its work buffers, as an oracle -------
# (it also returns the jitter its factorization added)


def oracle_chol_with_jitter(k_noisy):
    base = float(np.mean(np.diag(k_noisy)))
    jitter = 0.0
    while True:
        try:
            chol = cholesky(k_noisy + jitter * np.eye(k_noisy.shape[0]), lower=True)
            return chol, jitter
        except np.linalg.LinAlgError:
            pass
        jitter = gp._JITTER_START * base if jitter == 0.0 else jitter * 10.0
        if jitter > gp._JITTER_MAX * base:
            raise gp.UnfittableDataError("Cholesky factorization failed even at maximum jitter")


def oracle_neg_lml_and_grad(log_params, d2, y):
    sf2, sl2, sn2 = np.exp(2.0 * log_params)
    n = y.shape[0]
    k_f = sf2 * np.exp(-d2 / (2.0 * sl2))
    chol, jitter = oracle_chol_with_jitter(k_f + sn2 * np.eye(n))
    alpha = cho_solve((chol, True), y, check_finite=False)
    lml = (
        -0.5 * float(np.dot(y, alpha))
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    k_inv, info = lapack.dpotri(chol, lower=1)
    assert info == 0
    k_inv = np.tril(k_inv) + np.tril(k_inv, -1).T  # dpotri fills one triangle
    w = np.outer(alpha, alpha) - k_inv
    wk = w * k_f
    grad = np.array(
        [np.sum(wk), 0.5 * np.sum(wk * d2) / sl2, sn2 * np.trace(w)]
    )
    return -lml, -grad, jitter


def oracle_summed_neg_lml_and_grad(log_params, d2, ys):
    """`oracle_neg_lml_and_grad` of one kernel on the p outputs that are the
    rows of `ys`: the summed negative LML, with A = K^-1 Y and A A^T - p K^-1
    in place of alpha alpha^T - K^-1 in the gradient."""
    sf2, sl2, sn2 = np.exp(2.0 * log_params)
    p, n = ys.shape
    k_f = sf2 * np.exp(-d2 / (2.0 * sl2))
    chol, jitter = oracle_chol_with_jitter(k_f + sn2 * np.eye(n))
    alpha = cho_solve((chol, True), ys.T, check_finite=False)
    lml = (
        -0.5 * sum(float(np.dot(y, a)) for y, a in zip(ys, alpha.T))
        - p * float(np.sum(np.log(np.diag(chol))))
        - 0.5 * p * n * math.log(2.0 * math.pi)
    )
    k_inv, info = lapack.dpotri(chol, lower=1)
    assert info == 0
    k_inv = np.tril(k_inv) + np.tril(k_inv, -1).T
    w = alpha @ alpha.T - p * k_inv
    wk = w * k_f
    grad = np.array(
        [np.sum(wk), 0.5 * np.sum(wk * d2) / sl2, sn2 * np.trace(w)]
    )
    return -lml, -grad, jitter


@pytest.mark.parametrize("seed", range(4))
def test_summed_lml_gradient_matches_central_differences(seed):
    """Two outputs under one kernel: the objective is the sum of their own
    LMLs, and its gradient matches central differences of that sum."""
    rng = np.random.default_rng(300 + seed)
    n, d = int(rng.integers(5, 30)), int(rng.integers(1, 4))
    x = rng.normal(size=(n, d))
    ys = np.array([np.sin(x[:, 0]), np.cos(x[:, 0])]) + 0.3 * rng.normal(size=(2, n))
    log_params = np.log(rng.uniform([0.3, 0.3, 0.05], [2.0, 2.0, 0.8]))
    trains = [identity_train(x, y) for y in ys]
    work = fit_pass(x, ys[0])

    def summed_lml(lp):
        params = gp.SeKernelParams(*np.exp(lp))
        return sum(gp.log_marginal_likelihood(t, params) for t in trains)

    neg_lml, neg_grad = gp._neg_lml_and_grad(log_params, work.d2, ys, work)
    assert -neg_lml == pytest.approx(summed_lml(log_params), rel=1e-12)
    h = 1e-5
    numeric = np.empty(3)
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        numeric[i] = (summed_lml(log_params + step) - summed_lml(log_params - step)) / (2 * h)
    assert np.abs(-neg_grad - numeric).max() <= 1e-5 * np.abs(numeric).max()


@pytest.mark.parametrize("outputs", [1, 2, 3])
def test_summed_lml_and_grad_equal_oracle_bit_for_bit(outputs):
    rng = np.random.default_rng(400 + outputs)
    x = rng.normal(size=(40, 3))
    ys = np.sin(x[:, :outputs].T) + 0.3 * rng.normal(size=(outputs, 40))
    work = fit_pass(x, ys[0])
    for log_params in (np.log(rng.uniform([0.3, 0.3, 0.05], [2.0, 2.0, 0.8])) for _ in range(3)):
        f0, g0, jitter = oracle_summed_neg_lml_and_grad(log_params, work.d2, ys)
        f, g = gp._neg_lml_and_grad(log_params, work.d2, ys, work)
        assert float(f).hex() == float(f0).hex()
        assert g.tobytes() == g0.tobytes()
        assert work.jitter == jitter
        if outputs == 1:  # the summed oracle of one output is the one-output oracle
            f1, g1, _ = oracle_neg_lml_and_grad(log_params, work.d2, ys[0])
            assert float(f1).hex() == float(f0).hex() and g1.tobytes() == g0.tobytes()


@pytest.mark.parametrize("case", [0, 1, 2, 3, 4, "jitter"])
def test_lml_and_grad_equal_oracle_bit_for_bit(case):
    if case == "jitter":  # duplicated rows and sigma_n 1e-9: K is singular until jittered
        rng = np.random.default_rng(299)
        x = np.tile(rng.normal(size=(12, 2)), (2, 1))
        draws = [np.array([0.0, c, math.log(1e-9)]) for c in (0.0, -0.5, 0.5)]
    else:
        rng = np.random.default_rng(200 + case)
        x = rng.normal(size=(int(rng.integers(5, 60)), int(rng.integers(1, 4))))
        draws = [np.log(rng.uniform([0.3, 0.3, 0.05], [2.0, 2.0, 0.8])) for _ in range(3)]
    y = np.sin(x[:, 0]) + 0.3 * rng.normal(size=len(x))
    work = fit_pass(x, y)  # reused over the draws, as within a fit
    d2 = work.d2
    for log_params in draws:
        f0, g0, jitter = oracle_neg_lml_and_grad(log_params, d2, y)
        f, g = gp._neg_lml_and_grad(log_params, d2, y, work)
        assert float(f).hex() == float(f0).hex()
        assert g.tobytes() == g0.tobytes()
        assert work.jitter == jitter
        assert (jitter > 0) == (case == "jitter")


def test_lml_evaluation_allocates_at_most_two_matrices():
    n = 200
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, 10))
    y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=n)
    work = fit_pass(x, y)
    d2 = work.d2
    log_params = np.log([1.0, 3.0, 0.1])
    gp._neg_lml_and_grad(log_params, d2, y, work)  # warm-up
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        gp._neg_lml_and_grad(log_params, d2, y, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8


@pytest.mark.parametrize("n, calls", [(2, 1), (500, 1), (501, 2)])
def test_fit_pass_computes_distances_once_up_to_500_rows(monkeypatch, n, calls):
    """Up to 500 rows the heuristic lengthscale reads the fit pass's own
    distances; above, it computes those of a stride subsample."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, 3))
    sq_dists, count = gp._sq_dists, 0

    def counted(a, b):
        nonlocal count
        count += 1
        return sq_dists(a, b)

    monkeypatch.setattr(gp, "_sq_dists", counted)
    work = fit_pass(x, np.zeros(n))
    monkeypatch.undo()
    assert count == calls
    sub = x[:: math.ceil(n / 500)]
    d2 = gp._sq_dists(sub, sub)
    median = float(np.sqrt(np.median(d2[np.triu_indices(len(sub), 1)])))
    assert work.lengthscale == max(median, 1e-3)


@pytest.fixture(scope="module")
def bench_world_train(bench_world):
    """The training split of the benchmark-scale world: 3000 rows."""
    from uwbheading import world

    records = world.read_dataset(bench_world["train"])
    feats = np.array([r.feature_vector() for r in records])
    headings = np.array([r.gt_heading for r in records])
    return feats, headings


def _synthetic_set(case):
    rng = np.random.default_rng(21)
    if case == "synthetic-1d":
        x = rng.uniform(0.0, 6.0, size=(50, 1))
        return gp.TrainingSet.from_raw(x, np.sin(x[:, 0]) + 0.05 * rng.normal(size=50))
    x = rng.normal(size=(80, 3))
    y = np.cos(x[:, 0]) * x[:, 1] + 0.2 * rng.normal(size=80)
    return gp.TrainingSet.from_raw(x, y)


@pytest.mark.parametrize("case", ["bench-sin", "bench-cos", "synthetic-1d", "synthetic-3d"])
def test_fit_lml_at_least_grid_descent_reference(case, bench_world_train):
    if case.startswith("bench"):
        feats, headings = bench_world_train
        trig = np.sin if case == "bench-sin" else np.cos
        train = gp.TrainingSet.from_raw(feats, trig(headings))
        max_points = 200
    else:
        train = _synthetic_set(case)
        max_points = 1000
    model = gp.fit(train, gp.HyperparamSearchConfig(max_points=max_points))
    assert model.converged
    assert model.lml >= reference_grid_descent_lml(train, max_points) - 1e-9


# float.hex of (sigma_f, sigma_l, sigma_n, lml), then lml_evals, converged and
# jitter of each heading GP fitted on the bench world; the pair shares its
# kernel, so only the LMLs differ between sin and cos. Recorded on x86-64 with
# AVX-512 (numpy 2.4 and its bundled OpenBLAS); the bits pass through BLAS and
# SIMD kernels, so a host that rounds differently needs its own values, while
# the oracle fit tests below hold on any host.
PINNED_FITS = {
    (120, "sin"): ("0x1.7d662e88f720ap+0", "0x1.bf56366972d25p+1", "0x1.84a3e3e079b82p-3",
                   "-0x1.c8b4e1878ae8dp+5", 18, True, "0x0.0p+0"),
    (120, "cos"): ("0x1.7d662e88f720ap+0", "0x1.bf56366972d25p+1", "0x1.84a3e3e079b82p-3",
                   "-0x1.941297a5263efp+5", 18, True, "0x0.0p+0"),
    (200, "sin"): ("0x1.42e24562359d4p+0", "0x1.7713ccf81d805p+1", "0x1.3b6ac41f942a0p-3",
                   "-0x1.b0989fbb402dcp+5", 17, True, "0x0.0p+0"),
    (200, "cos"): ("0x1.42e24562359d4p+0", "0x1.7713ccf81d805p+1", "0x1.3b6ac41f942a0p-3",
                   "-0x1.59d32aa25d820p+5", 17, True, "0x0.0p+0"),
    (500, "sin"): ("0x1.170dbdf27a975p-1", "0x1.6a1012e91c31bp+0", "0x1.13f29590ace43p-4",
                   "0x1.5a9d4b01325e0p+5", 20, True, "0x0.0p+0"),
    (500, "cos"): ("0x1.170dbdf27a975p-1", "0x1.6a1012e91c31bp+0", "0x1.13f29590ace43p-4",
                   "0x1.297d53c8ba9b8p+6", 20, True, "0x0.0p+0"),
}


def _fingerprint(model):
    p = model.params
    floats = (p.sigma_f, p.sigma_l, p.sigma_n, model.lml)
    return (*(float(v).hex() for v in floats), model.lml_evals, model.converged,
            float(model.jitter).hex())


@pytest.mark.parametrize("max_points", [120, 200, 500])
def test_heading_fit_is_pinned(max_points, bench_world_train):
    feats, headings = bench_world_train
    search = gp.HyperparamSearchConfig(max_points=max_points)
    pair = heading.train_heading_gps(feats, headings, search)
    for name, model in (("sin", pair.gp_sin), ("cos", pair.gp_cos)):
        assert _fingerprint(model) == PINNED_FITS[max_points, name]
        assert model.jittered_evals == 0


def _same_model(a, b):
    return (
        _fingerprint(a) == _fingerprint(b)
        and a.jittered_evals == b.jittered_evals
        and a.chol.tobytes(order="A") == b.chol.tobytes(order="A")
        and a.alpha.tobytes() == b.alpha.tobytes()
        and a.y_mean == b.y_mean
        and np.array_equal(a.train.x, b.train.x)
    )


def _bench_heading_set(bench_world_train):
    """The bench world's sin and cos of heading as the two outputs of one set."""
    feats, headings = bench_world_train
    return gp.TrainingSet.from_raw(feats, np.array([np.sin(headings), np.cos(headings)]))


def test_fit_equals_oracle_fit_bit_for_bit(monkeypatch, bench_world_train):
    """Each output's own `fit`, the `fit` of that output alone as a (1, n)
    row, and `fit` on the oracle evaluation give the same models, factors
    included."""
    both = _bench_heading_set(bench_world_train)
    sets = [replace(both, y=y) for y in both.y]
    search = gp.HyperparamSearchConfig(max_points=200)
    alone = [gp.fit(t, search) for t in sets]
    as_row = [gp.fit(replace(t, y=t.y[None]), search) for t in sets]
    assert all(m.alpha.shape == (1, 200) and m.lml.shape == (1,) for m in as_row)
    # the fit pass holds its one output as a (1, n) row
    monkeypatch.setattr(
        gp, "_neg_lml_and_grad",
        lambda p, d2, y, work: oracle_neg_lml_and_grad(p, d2, y.ravel())[:2],
    )
    oracle = [gp.fit(t, search) for t in sets]
    for one, row, orc in zip(alone, as_row, oracle):
        assert _same_model(one, row.output(0)) and _same_model(one, orc)


def test_joint_fit_equals_oracle_summed_fit_bit_for_bit(monkeypatch, bench_world_train):
    """The two-output `fit` of sin and cos and the same fit on the oracle
    summed evaluation give the same model, factor included; each output's
    LML is its own."""
    both = _bench_heading_set(bench_world_train)
    search = gp.HyperparamSearchConfig(max_points=200)
    joint = gp.fit(both, search)
    monkeypatch.setattr(
        gp, "_neg_lml_and_grad",
        lambda p, d2, y, work: oracle_summed_neg_lml_and_grad(p, d2, y)[:2],
    )
    oracle = gp.fit(both, search)
    monkeypatch.undo()
    assert joint.alpha.shape == (2, 200) and joint.lml.shape == joint.y_mean.shape == (2,)
    assert joint.alpha.tobytes() == oracle.alpha.tobytes()
    assert joint.lml.tobytes() == oracle.lml.tobytes()
    for k in range(2):
        model = joint.output(k)
        assert _same_model(model, oracle.output(k))
        assert model.chol is joint.chol
        own = gp.log_marginal_likelihood(
            gp.TrainingSet(x=model.train.x, y=model.train.y - model.y_mean,
                           standardizer=model.train.standardizer),
            model.params,
        )
        assert float(model.lml).hex() == float(own).hex()


def test_fit_counts_jittered_evaluations(monkeypatch):
    # every odd factorization reports jitter; the search's are calls 1..lml_evals
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 2))
    train = gp.TrainingSet.from_raw(x, np.sin(x[:, 0]) + 0.1 * rng.normal(size=30))
    calls = 0
    chol_with_jitter = gp._chol_with_jitter

    def jitters_on_odd_calls(k):
        nonlocal calls
        calls += 1
        return chol_with_jitter(k)[0], 1e-12 if calls % 2 else 0.0

    monkeypatch.setattr(gp, "_chol_with_jitter", jitters_on_odd_calls)
    model = gp.fit(train)
    assert model.lml_evals >= 2
    assert model.jittered_evals == (model.lml_evals + 1) // 2


def test_fit_raises_when_start_point_cannot_be_factorized(monkeypatch):
    def unfittable(k):
        raise gp.UnfittableDataError("forced")

    monkeypatch.setattr(gp, "_chol_with_jitter", unfittable)
    x = np.linspace(0.0, 3.0, 10)[:, None]
    with pytest.raises(gp.UnfittableDataError):
        gp.fit(gp.TrainingSet.from_raw(x, np.sin(x[:, 0])))


@pytest.mark.parametrize("failing_calls", [(2,), (2, 3)])
def test_fit_survives_unfittable_trial_point(monkeypatch, failing_calls):
    # (2,): L-BFGS-B backs off the unfittable point and reports success at a
    # finite optimum; (2, 3): it reports success on the unfittable point.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    train = gp.TrainingSet.from_raw(x, np.sin(x[:, 0]) + 0.1 * rng.normal(size=40))
    calls = 0
    chol_with_jitter = gp._chol_with_jitter

    def fails_on_chosen_calls(k):
        nonlocal calls
        calls += 1
        if calls in failing_calls:
            raise gp.UnfittableDataError("forced")
        return chol_with_jitter(k)

    monkeypatch.setattr(gp, "_chol_with_jitter", fails_on_chosen_calls)
    model = gp.fit(train)
    monkeypatch.undo()
    yc = train.y - train.y.mean()
    start = gp.SeKernelParams(*gp._heuristic_center(train.x, yc))
    assert model.converged is False
    assert model.lml_evals >= 3
    assert model.lml >= gp.log_marginal_likelihood(
        gp.TrainingSet(x=train.x, y=yc, standardizer=train.standardizer), start
    ) - 1e-9


def test_chol_reports_jitter_added():
    k = np.ones((3, 3))  # rank one: needs jitter
    chol, jitter = gp._chol_with_jitter(k)
    assert jitter > 0
    assert np.abs(chol @ chol.T - (k + jitter * np.eye(3))).max() < 1e-12
    assert gp._chol_with_jitter(np.eye(3))[1] == 0.0


# --- BLAS threads ------------------------------------------------------------


def _set_blas_threads(n):
    """Set every loaded OpenBLAS to n threads; returns their previous counts."""
    return [set_threads(n) for set_threads in _blas._setters()]


def _blas_threads():
    counts = _set_blas_threads(1)
    for set_threads, n in zip(_blas._setters(), counts):
        set_threads(n)
    return counts


needs_openblas = pytest.mark.skipif(
    not _blas._setters(), reason="no OpenBLAS with openblas_set_num_threads_local loaded"
)


@needs_openblas
def test_one_thread_sets_and_restores_every_openblas():
    before = _set_blas_threads(2)
    try:
        with _blas.one_thread():
            assert _blas_threads() == [1] * len(before)
        assert _blas_threads() == [2] * len(before)
        with pytest.raises(RuntimeError), _blas.one_thread():
            raise RuntimeError("inside")
        assert _blas_threads() == [2] * len(before)
    finally:
        for set_threads, n in zip(_blas._setters(), before):
            set_threads(n)


@needs_openblas
def test_fit_and_predict_do_not_depend_on_blas_thread_count():
    # 300 points: large enough that OpenBLAS would split the Cholesky
    # factorization and the batch solve over threads
    rng = np.random.default_rng(7)
    x = rng.normal(size=(300, 4))
    train = gp.TrainingSet.from_raw(x, np.sin(x[:, 0]) + 0.1 * rng.normal(size=300))
    queries = rng.normal(size=(500, 4))
    results = []
    before = _set_blas_threads(2)
    try:
        for n in (2, 1):
            _set_blas_threads(n)
            model = gp.fit(train, gp.HyperparamSearchConfig(max_points=300))
            results.append((model.chol, model.alpha, *model.predict_many(queries)))
    finally:
        for set_threads, n in zip(_blas._setters(), before):
            set_threads(n)
    for threaded, single in zip(*results):
        assert np.array_equal(threaded, single)


@needs_openblas
def test_pair_fit_and_predict_do_not_depend_on_blas_thread_count():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(300, 4))
    y = np.array([f(x[:, 0]) + 0.1 * rng.normal(size=300) for f in (np.sin, np.cos)])
    train = gp.TrainingSet.from_raw(x, y)
    queries = rng.normal(size=(500, 4))
    results = []
    before = _set_blas_threads(2)
    try:
        for n in (2, 1):
            _set_blas_threads(n)
            model = gp.fit(train, gp.HyperparamSearchConfig(max_points=300))
            means, variance = model.predict_many(queries)
            # the one-row pass's product runs outside _blas.one_thread()
            rows = np.array([np.hstack(model.predict(q)) for q in queries])
            results.append([model.chol, model.alpha, means, variance, rows])
    finally:
        for set_threads, n in zip(_blas._setters(), before):
            set_threads(n)
    for threaded, single in zip(*results):
        assert np.array_equal(threaded, single)
