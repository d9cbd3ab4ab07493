import itertools
import math

import numpy as np
import pytest

from uwbheading import _blas, gp

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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_predict_rejects_overflowing_query():
    model = gp.GpModel.from_params(
        identity_train(np.array([[-1.0, 0.5, 0.0], [1.0, 1.0, -2.0]]), np.array([0.0, 1.0])),
        gp.SeKernelParams(1.0, 1.0, 0.1),
    )
    # x**2 and x @ x_train overflow to inf, and inf - inf is NaN
    with pytest.raises(ValueError):
        model.predict_many(np.full((2, 3), 1.7e308))


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
    neg_lml, neg_grad = gp._neg_lml_and_grad(log_params, gp._sq_dists(x, x), y)
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


@pytest.fixture(scope="module")
def bench_world_train(tmp_path_factory):
    """The seed-0 world at benchmark scale: 600 s at 5 Hz, 3000 rows."""
    from uwbheading import pipeline, world

    cfg = pipeline.GenerateConfig(
        seed=0, train_duration_s=600.0, test_duration_s=200.0, rate_hz=5.0
    )
    paths = pipeline.cmd_generate(cfg, tmp_path_factory.mktemp("bench_world"))
    records = world.read_dataset(paths["train"])
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
