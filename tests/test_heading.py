import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, solve_triangular

from uwbheading import _blas, gp, heading, pipeline, so2, world

SMALL_SEARCH = gp.HyperparamSearchConfig(max_points=300)


def unit_circle_trig(theta, var=0.0025):
    return heading.PseudoTrig(s=math.sin(theta), c=math.cos(theta), var=var)


# --- normalize ---------------------------------------------------------------


def test_normalize_identity_point():
    m = heading.normalize(heading.PseudoTrig(s=0.0, c=1.0, var=0.04))
    assert np.allclose(m.rot, np.eye(2), atol=1e-15)
    assert m.var_theta == pytest.approx(0.04, rel=1e-12)


def test_normalize_quarter_turn_swaps_roles():
    # at a quarter turn the tangent of the circle is the c axis; the one
    # variance is both outputs', so the heading takes it as it is at r = 1
    m = heading.normalize(heading.PseudoTrig(s=1.0, c=0.0, var=0.09))
    assert np.allclose(m.rot, so2.exp_so2(math.pi / 2), atol=1e-15)
    assert m.var_theta == pytest.approx(0.09, rel=1e-12)


def test_normalize_radial_scale_shrinks_variance():
    base = heading.normalize(heading.PseudoTrig(s=1.0, c=0.0, var=0.09))
    scaled = heading.normalize(heading.PseudoTrig(s=2.0, c=0.0, var=0.09))
    assert np.allclose(scaled.rot, base.rot, atol=1e-15)
    assert scaled.var_theta == pytest.approx(base.var_theta / 4.0, rel=1e-12)


def test_normalize_angle_is_atan2():
    for s, c in [(0.4, 1.2), (-0.9, 0.2), (2.0, -3.0), (-0.1, -0.1)]:
        m = heading.normalize(heading.PseudoTrig(s=s, c=c, var=0.01))
        assert so2.log_so2(m.rot) == pytest.approx(math.atan2(s, c), abs=1e-12)


def test_normalize_rejects_degenerate_disc():
    with pytest.raises(heading.DegeneratePredictionError):
        heading.normalize(heading.PseudoTrig(s=1e-4, c=1e-4, var=0.01))


def test_normalize_variance_floor():
    m = heading.normalize(heading.PseudoTrig(s=0.0, c=1.0, var=1e-12))
    assert m.var_theta == heading.VAR_FLOOR


@pytest.mark.parametrize("theta", [0.0, 1.0, -2.5, math.pi])
def test_normalize_huge_radius_floors_the_variance(theta):
    """At radius 1e100 the radius squared is 1e200 and its fourth power
    overflows a float: the variance var / r^2 underflows to the floor, with
    no OverflowError, and the angle is still atan2."""
    s, c = 1e100 * math.sin(theta), 1e100 * math.cos(theta)
    m = heading.normalize(heading.PseudoTrig(s=s, c=c, var=0.01))
    assert m.angle == math.atan2(s, c) and m.var_theta == heading.VAR_FLOOR
    assert heading.normalize_values(s, c, 0.01) == (m.angle, heading.VAR_FLOOR)


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=1.01, max_value=50.0),
)
@settings(max_examples=150)
def test_normalize_scale_invariance_and_validity(s, c, a):
    if math.hypot(s, c) < 10 * heading.NORM_EPS:
        return
    m1 = heading.normalize(heading.PseudoTrig(s=s, c=c, var=0.02))
    m2 = heading.normalize(heading.PseudoTrig(s=a * s, c=a * c, var=0.02))
    assert so2.is_rotation(m1.rot, tol=1e-12)
    assert np.abs(m1.rot - m2.rot).max() < 1e-9


def normalize_or_none(s, c, var):
    try:
        return heading.normalize(heading.PseudoTrig(s=s, c=c, var=var))
    except heading.DegeneratePredictionError:
        return None


def assert_normalize_values_matches(s, c, var):
    """normalize_values equals normalize bit for bit, None where it raises."""
    for args in zip(s, c, var):
        m = normalize_or_none(*args)
        got = heading.normalize_values(*args)
        if m is None:
            assert got is None
        else:
            assert np.array(got).tobytes() == np.array([m.angle, m.var_theta]).tobytes()


# radii straddling NORM_EPS, at a few ulps and at 1% either side
EDGE_RADII = [
    heading.NORM_EPS * f for f in (0.99, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.01)
] + [0.0, 1.0, 3.0]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(EDGE_RADII) | st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=-math.pi, max_value=math.pi),
            st.floats(min_value=heading.VAR_FLOOR, max_value=10.0),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=200)
def test_normalize_values_matches_normalize(rows):
    s = [r * math.sin(th) for r, th, _ in rows]
    c = [r * math.cos(th) for r, th, _ in rows]
    assert_normalize_values_matches(s, c, [v for *_, v in rows])


def test_normalize_values_degenerate_at_norm_eps():
    # along an axis the radius is exact, so the result flips exactly at NORM_EPS
    eps = heading.NORM_EPS
    c = [math.nextafter(eps, 0.0), eps, math.nextafter(eps, 1.0), 0.0, -eps]
    s = [0.0] * len(c)
    degenerate = [heading.normalize_values(0.0, ci, 0.02) is None for ci in c]
    assert degenerate == [True, False, False, True, False]
    assert_normalize_values_matches(s, c, [0.02] * 5)


def test_gp_measurements_match_normalize():
    rng = np.random.default_rng(3)
    feats = random_features(rng, 60)
    # 60 equally spaced headings, rising with the first range: both GP means
    # are near 0, so far from the data (where they revert to it) the epochs
    # are degenerate
    headings = np.empty(60)
    headings[np.argsort(feats[:, 0])] = np.linspace(-math.pi, math.pi, 60, endpoint=False)
    pair = heading.train_heading_gps(feats, headings, SMALL_SEARCH)
    queries = np.vstack([feats, random_features(rng, 40) * 1e3])
    zeros = np.zeros(len(queries))
    data = world.Dataset(np.arange(len(queries)), queries[:, :5], queries[:, 5:],
                         zeros, zeros, zeros)
    got = pipeline._measurements_for("gp-iekf", data, pair, None)
    many = heading.predict_pseudo_trig_many(pair, queries)
    assert len(got) == len(many)
    assert got[-1] is None and sum(m is not None for m in got) >= 60
    for m, pt in zip(got, many):
        ref = normalize_or_none(pt.s, pt.c, pt.var)
        if ref is None:
            assert m is None
        else:
            assert all(type(v) is float for v in m)  # Python floats, as the filter takes them
            assert np.array(m).tobytes() == np.array([ref.angle, ref.var_theta]).tobytes()
    s, _, v = heading.predict_pseudo_trig_arrays(pair, queries)
    assert [pt.s for pt in many] == s.tolist() and [pt.var for pt in many] == v.tolist()


def matrix_normalize(pt):
    """Reference: variance from the perturbation matrices D and E of the
    scaled rotation under the (s, c) covariance var I, angle from the
    projected matrix."""
    eye, omega = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    s, c = pt.s, pt.c
    norm = math.hypot(s, c)
    y = np.array([[c, -s], [s, c]]) / norm
    a1, a2, a3 = 1.0 / norm, -c / norm**3, -s / norm**3
    d_mat = (a1 + a2 * c) * eye + (a2 * s) * omega
    e_mat = (a1 + a3 * s) * omega + (a3 * c) * eye

    def skew(m):
        return 0.5 * (m[1, 0] - m[0, 1])

    jac_c = skew(-(y.T @ d_mat))
    jac_s = skew(-(y.T @ e_mat))
    var = jac_c**2 * pt.var + jac_s**2 * pt.var
    return so2.log_so2(so2.project_to_so2(y)), max(var, heading.VAR_FLOOR)


@given(
    st.floats(min_value=heading.NORM_EPS, max_value=100.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=1e-10, max_value=10.0),
)
@settings(max_examples=300)
def test_normalize_matches_matrix_reference(radius, theta, var):
    pt = heading.PseudoTrig(s=radius * math.sin(theta), c=radius * math.cos(theta), var=var)
    if math.hypot(pt.s, pt.c) < heading.NORM_EPS:
        return
    angle, var = matrix_normalize(pt)
    m = heading.normalize(pt)
    assert abs(so2.wrap_angle(m.angle - angle)) < 1e-12
    assert m.var_theta == pytest.approx(var, rel=1e-12)


def test_normalize_radial_perturbation_insensitive():
    # perturbing (s, c) along its own direction leaves the angle unchanged
    # to first order: the D/E jacobians are tangential only
    for theta in np.linspace(-3.0, 3.0, 7):
        s, c = math.sin(theta), math.cos(theta)
        m = heading.normalize(unit_circle_trig(theta))
        eps = 1e-7
        m2 = heading.normalize(
            heading.PseudoTrig(s=s * (1 + eps), c=c * (1 + eps), var=0.0025)
        )
        d = so2.wrap_angle(so2.log_so2(m2.rot) - so2.log_so2(m.rot))
        assert abs(d) < 1e-12


def test_normalize_variance_matches_monte_carlo():
    # scaled-down version of the full acceptance check
    rng = np.random.default_rng(0)
    for theta in (0.0, math.pi / 3, -2.0, 2.9):
        pt = unit_circle_trig(theta)
        m = heading.normalize(pt)
        s_draw = pt.s + math.sqrt(pt.var) * rng.standard_normal(20000)
        c_draw = pt.c + math.sqrt(pt.var) * rng.standard_normal(20000)
        sampled = so2.wrap_angle(np.arctan2(s_draw, c_draw) - theta)
        assert np.var(sampled) == pytest.approx(m.var_theta, rel=0.15)


# --- feature / measurement types ----------------------------------------------


def test_feature_validation():
    with pytest.raises(ValueError):
        heading.UwbFeature(ranges=np.array([1.0, -1.0, 1, 1, 1]), rss=np.zeros(5))
    with pytest.raises(ValueError):
        heading.UwbFeature(ranges=np.ones(5), rss=np.array([np.inf, 0, 0, 0, 0]))
    # ten values, but an RSS value would be read as the fifth range
    for ranges, rss in (
        ([2.0] * 4, [-80.0] * 6),
        ([2.0] * 6, [-80.0] * 4),
        (np.ones((1, 5)), np.zeros((1, 5))),
    ):
        with pytest.raises(ValueError, match="1-D and of equal length"):
            heading.UwbFeature(ranges=ranges, rss=rss)
    for ranges, rss in ((np.ones((1, 5)), np.zeros(5)), (np.ones(5), np.zeros((5, 1))),
                        (2.0, -80.0)):
        with pytest.raises(ValueError, match="dimension"):
            heading.UwbFeature(ranges=ranges, rss=rss)
    f = heading.UwbFeature(ranges=np.ones(5), rss=-80.0 * np.ones(5))
    assert f.as_vector().shape == (10,)


def test_measurement_requires_rotation_and_positive_variance():
    with pytest.raises(ValueError):
        heading.HeadingMeasurement(angle=math.nan, var_theta=0.1)
    for var in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="variance must be finite and positive"):
            heading.HeadingMeasurement(angle=0.0, var_theta=var)


@pytest.mark.parametrize("var", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("split_field", ["var_s", "var_c"])
def test_pseudo_trig_variances_must_be_finite_and_positive(split_field, var):
    # The sin and cos outputs share one posterior variance: a per-output
    # variance is no field, so it cannot stand in for or beside the checked one.
    with pytest.raises(TypeError, match=split_field):
        heading.PseudoTrig(s=0.0, c=1.0, **{split_field: var})
    with pytest.raises(TypeError, match=split_field):
        heading.PseudoTrig(s=0.0, c=1.0, var=1.0, **{split_field: var})
    with pytest.raises(ValueError, match="variance must be finite and positive"):
        heading.PseudoTrig(s=0.0, c=1.0, var=var)


# --- training ------------------------------------------------------------------


def random_features(rng, m):
    return np.hstack(
        [rng.uniform(0.5, 6.0, size=(m, 5)), rng.uniform(-95.0, -70.0, size=(m, 5))]
    )


def test_train_constant_heading():
    rng = np.random.default_rng(1)
    feats = random_features(rng, 40)
    pair = heading.train_heading_gps(
        feats, np.full(40, math.pi / 2), SMALL_SEARCH
    )
    s, vs = pair.gp_sin.predict_many(feats)
    c, vc = pair.gp_cos.predict_many(feats)
    assert np.abs(s - 1.0).max() < 0.05
    assert np.abs(c).max() < 0.05


def test_train_two_separated_clusters():
    rng = np.random.default_rng(2)
    center_a = np.concatenate([np.full(5, 2.0), np.full(5, -75.0)])
    center_b = np.concatenate([np.full(5, 6.0), np.full(5, -90.0)])
    feats = np.vstack(
        [
            center_a + rng.normal(scale=[0.05] * 5 + [0.2] * 5, size=(25, 10)),
            center_b + rng.normal(scale=[0.05] * 5 + [0.2] * 5, size=(25, 10)),
        ]
    )
    gts = np.concatenate([np.zeros(25), np.full(25, math.pi)])
    pair = heading.train_heading_gps(feats, gts, SMALL_SEARCH)
    for center, want_c in ((center_a, 1.0), (center_b, -1.0)):
        pt = heading.predict_pseudo_trig(
            pair, heading.UwbFeature(ranges=center[:5], rss=center[5:])
        )
        assert abs(pt.s) < 0.1
        assert pt.c == pytest.approx(want_c, abs=0.1)


def test_predict_prior_reversion_far_from_training():
    rng = np.random.default_rng(3)
    feats = random_features(rng, 30)
    gts = rng.uniform(-math.pi, math.pi, size=30)
    pair = heading.train_heading_gps(feats, gts, SMALL_SEARCH)
    far = heading.UwbFeature(ranges=np.full(5, 500.0), rss=np.full(5, 300.0))
    pt = heading.predict_pseudo_trig(pair, far)
    assert pt.s == pytest.approx(np.mean(np.sin(gts)), abs=1e-6)
    assert pt.c == pytest.approx(np.mean(np.cos(gts)), abs=1e-6)
    assert pt.var >= 0.5 * pair.gp_sin.params.sigma_f**2


def test_predict_is_deterministic():
    rng = np.random.default_rng(4)
    feats = random_features(rng, 20)
    gts = rng.uniform(-math.pi, math.pi, size=20)
    pair = heading.train_heading_gps(feats, gts, SMALL_SEARCH)
    f = heading.UwbFeature(ranges=feats[0, :5], rss=feats[0, 5:])
    assert heading.predict_pseudo_trig(pair, f) == heading.predict_pseudo_trig(pair, f)


def test_variance_floor_on_predictions():
    rng = np.random.default_rng(5)
    feats = random_features(rng, 20)
    pair = heading.train_heading_gps(feats, np.zeros(20), SMALL_SEARCH)
    pt = heading.predict_pseudo_trig(
        pair, heading.UwbFeature(ranges=feats[0, :5], rss=feats[0, 5:])
    )
    assert pt.var >= heading.VAR_FLOOR


def reference_posterior(model, x_raw, floor=heading.VAR_FLOOR):
    """Posterior by gram_matrix and the inverse of the Cholesky factor from
    LAPACK dtrtri, each GP on its own, with the variance floored (by default,
    as the pseudo-trig outputs are)."""
    xs = model.train.standardizer.apply(np.atleast_2d(x_raw))
    with _blas.one_thread():
        k_star = gp.gram_matrix(model.train.x, xs, model.params)
        mean = k_star.T @ model.alpha + model.y_mean
        chol_inv, info = lapack.dtrtri(model.chol, lower=1)
        assert info == 0
        v = chol_inv @ k_star
    var = np.maximum(model.params.sigma_f**2 - np.sum(v * v, axis=0), 0.0)
    return mean, np.maximum(var, floor)


def test_shared_distance_prediction_matches_reference_bits():
    rng = np.random.default_rng(7)
    feats = random_features(rng, 80)
    pair = heading.train_heading_gps(feats, rng.uniform(-math.pi, math.pi, 80), SMALL_SEARCH)
    queries = random_features(rng, 50)

    def reference(rows):
        (s, vs), (c, vc) = (reference_posterior(m, rows) for m in (pair.gp_sin, pair.gp_cos))
        return np.array([s, c, vs, vc])

    # the one variance is each GP's own, bit for bit
    s, c, v = heading.predict_pseudo_trig_arrays(pair, queries)
    assert np.array([s, c, v, v]).tobytes() == reference(queries).tobytes()
    for row in queries:
        pt = heading.predict_pseudo_trig(pair, heading.UwbFeature(ranges=row[:5], rss=row[5:]))
        got = np.array([[pt.s], [pt.c], [pt.var], [pt.var]])
        assert got.tobytes() == reference(row).tobytes()


@pytest.fixture(scope="module")
def bench_pair(bench_world):
    """The pair trained as the benchmark trains it (200 points) on the
    benchmark-scale world, and that world's test split."""
    train = world.read_dataset(bench_world["train"])
    pair = heading.train_heading_gps(
        train.features, train.gt_heading, gp.HyperparamSearchConfig(max_points=200)
    )
    return pair, world.read_dataset(bench_world["test"])


def test_one_row_prediction_matches_reference_bits_on_bench_world(bench_pair):
    """On every test-split row of the benchmark-scale world, the one-row
    pass and the batch path on that one row give the pair's and each GP's
    reference posterior to the bit."""
    pair, test = bench_pair
    assert len(test) == 1000
    for ranges, rss in zip(test.ranges, test.rss):
        pt = heading.predict_pseudo_trig(pair, heading.UwbFeature(ranges=ranges, rss=rss))
        assert all(type(v) is float for v in (pt.s, pt.c, pt.var))
        row = np.concatenate([ranges, rss])
        (s, vs), (c, vc) = (reference_posterior(m, row) for m in (pair.gp_sin, pair.gp_cos))
        reference = np.concatenate([s, c, vs, vc]).tobytes()
        assert np.array([pt.s, pt.c, pt.var, pt.var]).tobytes() == reference
        s, c, v = heading.predict_pseudo_trig_arrays(pair, row[None])
        assert np.concatenate([s, c, v, v]).tobytes() == reference
        means, variance = pair.model.predict(row)
        for k, model in enumerate((pair.gp_sin, pair.gp_cos)):
            expected = np.concatenate(reference_posterior(model, row, floor=0.0)).tobytes()
            assert np.array(model.predict(row)).tobytes() == expected
            assert np.array([means[k], variance]).tobytes() == expected
            assert np.concatenate(model.predict_many(row[None])).tobytes() == expected


def solve_variance(model, x_raw):
    """Posterior variance by a triangular solve, v = solve_triangular(chol,
    k_star), with no floor: the formula the inverse factor replaced."""
    xs = model.train.standardizer.apply(np.atleast_2d(x_raw))
    v = solve_triangular(model.chol, gp.gram_matrix(model.train.x, xs, model.params), lower=True)
    return np.maximum(model.params.sigma_f**2 - np.sum(v * v, axis=0), 0.0)


def test_inverse_factor_variance_matches_triangular_solve_on_bench_world(bench_pair):
    """On every test row of the benchmark-scale world, the variance from the
    cached inverse factor, batch and one row at a time, is within 1e-12
    relative of the triangular solve's (4.2e-13 measured)."""
    pair, test = bench_pair
    model, rows = pair.model, test.features
    want = solve_variance(model, rows)
    assert want.min() > 0.0
    one_row = np.array([model.predict(row)[1] for row in rows])
    for got in (model.predict_many(rows)[1], one_row):
        assert (np.abs(got - want) <= 1e-12 * want).all()


def jittered_model(rng):
    """A two-output model whose factorization needed jitter: 60 training
    rows, 20 of them duplicates, and sigma_n far below the jitter."""
    x = rng.normal(size=(40, 4))
    x = np.vstack([x, x[:20]])
    train = gp.TrainingSet.from_raw(x, np.array([np.sin(x[:, 0]), np.cos(x[:, 0])]))
    model = gp.GpModel.from_params(train, gp.SeKernelParams(1.0, 1.0, 1e-9), y_mean=[0.0, 0.0])
    assert model.jitter > 0.0
    return model, x


def test_inverse_factor_variance_matches_triangular_solve_with_jitter():
    """On a model whose factorization needed jitter (duplicate training rows,
    sigma_n far below the jitter), the variance from the inverse factor is
    within 1e-12 relative of the triangular solve's at fresh queries (7.4e-14
    measured). At the training rows the posterior variance is down at the
    jitter, 1e-10 sigma_f^2, where both formulas subtract two numbers near
    sigma_f^2: there they agree within 1e-14 sigma_f^2 (1.2e-15 measured)."""
    rng = np.random.default_rng(3)
    model, x = jittered_model(rng)
    queries = rng.normal(size=(1000, 4))
    want = solve_variance(model, queries)
    one_row = np.array([model.predict(q)[1] for q in queries])
    for got in (model.predict_many(queries)[1], one_row):
        assert (np.abs(got - want) <= 1e-12 * want).all()
    got, want = model.predict_many(x)[1], solve_variance(model, x)
    assert np.abs(got - want).max() <= 1e-14 * model.params.sigma_f**2


def assert_batch_is_reference_bits(model, queries):
    """`predict_many` over `queries` equals `reference_posterior`, which
    makes one call of each product over all of them, byte for byte, for
    every output of `model`."""
    means, variance = model.predict_many(queries)
    for k, mean in enumerate(np.atleast_2d(means)):
        want_mean, want_variance = reference_posterior(model.output(k), queries, floor=0.0)
        assert mean.tobytes() == want_mean.tobytes()
        assert variance.tobytes() == want_variance.tobytes()


def block_edge_sizes(n):
    """Query counts at the edges of predict_many's blocks over n training
    rows: around n, and around one, two and three blocks of columns."""
    w = gp._query_block(n)
    return (1, n - 1, n, n + 1, 2 * n + 1, w - 1, w, w + 1, 2 * w - 1, 2 * w, 2 * w + 1, 3 * w + 7)


def test_batch_block_edges_match_reference_bits_on_bench_world(bench_pair):
    """At query counts around the blocks of the benchmark-scale model
    (n = 200, blocks of 256 columns), on that world's test rows, the batch
    path gives the bits of the reference's one call over all the rows."""
    pair, test = bench_pair
    n = pair.model.train.n
    assert n == 200 and gp._query_block(n) == 256
    assert len(test.features) > max(block_edge_sizes(n))
    for m in block_edge_sizes(n):
        assert_batch_is_reference_bits(pair.model, test.features[:m])


def test_batch_block_edges_match_reference_bits_with_jitter():
    """As above, on the jittered model (n = 60, blocks of 296 columns) at
    fresh queries."""
    rng = np.random.default_rng(5)
    model, _ = jittered_model(rng)
    assert gp._query_block(model.train.n) == 296
    for m in block_edge_sizes(model.train.n):
        assert_batch_is_reference_bits(model, rng.normal(size=(m, 4)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_predict_rejects_overflowing_query():
    rng = np.random.default_rng(8)
    feats = random_features(rng, 20)
    pair = heading.train_heading_gps(feats, rng.uniform(-math.pi, math.pi, 20), SMALL_SEARCH)
    huge = heading.UwbFeature(ranges=np.full(5, 1.7e308), rss=np.zeros(5))
    with pytest.raises(ValueError):
        heading.predict_pseudo_trig(pair, huge)
    for rows in (1, 2):  # the one-row pass and the batch path
        with pytest.raises(ValueError, match="too large"):
            heading.predict_pseudo_trig_arrays(pair, np.tile(huge.as_vector(), (rows, 1)))


def test_train_rejects_bad_input():
    with pytest.raises(ValueError):
        heading.train_heading_gps(np.ones((1, 10)), np.array([0.0]))
    with pytest.raises(ValueError):
        heading.train_heading_gps(np.ones((3, 10)), np.array([0.0, np.nan, 1.0]))


def test_pair_load_factorizes_once(tmp_path, monkeypatch):
    """A pair is saved as one archive, and loading it factorizes its shared
    kernel once; both GPs hold that factor, equal to the trained pair's."""
    rng = np.random.default_rng(12)
    feats = random_features(rng, 30)
    pair = heading.train_heading_gps(feats, rng.uniform(-math.pi, math.pi, 30), SMALL_SEARCH)
    pair.save(tmp_path / "model")
    chol_with_jitter, calls = gp._chol_with_jitter, 0

    def counted(k):
        nonlocal calls
        calls += 1
        return chol_with_jitter(k)

    monkeypatch.setattr(gp, "_chol_with_jitter", counted)
    loaded = heading.HeadingGpPair.load(tmp_path / "model")
    assert calls == 1
    assert [p.name for p in (tmp_path / "model").iterdir()] == ["heading_model.npz"]
    assert loaded.gp_sin.chol is loaded.gp_cos.chol
    assert np.array_equal(loaded.gp_sin.chol, pair.gp_sin.chol)
    for orig, back in ((pair.gp_sin, loaded.gp_sin), (pair.gp_cos, loaded.gp_cos)):
        assert back.alpha.tobytes() == orig.alpha.tobytes() and back.lml == orig.lml


def test_inverse_factor_is_computed_once_per_model_at_first_prediction(tmp_path, monkeypatch):
    """Neither the fit nor `train` computes the inverse Cholesky factor; a
    model computes it by one dtrtri at its first prediction and keeps it for
    every later one, batch or one row."""
    dtrtri, calls = gp.lapack.dtrtri, 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return dtrtri(*args, **kwargs)

    monkeypatch.setattr(gp.lapack, "dtrtri", counted)
    rng = np.random.default_rng(13)
    feats = random_features(rng, 30)
    pair = heading.train_heading_gps(feats, rng.uniform(-math.pi, math.pi, 30), SMALL_SEARCH)
    gen = pipeline.GenerateConfig(seed=3, train_duration_s=60.0, test_duration_s=10.0, rate_hz=5.0)
    paths = pipeline.cmd_generate(gen, tmp_path / "data")
    pipeline.cmd_train(paths["train"], pipeline.TrainConfig(max_points=100), tmp_path / "models")
    loaded = heading.HeadingGpPair.load(tmp_path / "models")
    assert calls == 0
    queries = random_features(rng, 5)
    for model in (pair.model, loaded.model):
        before = calls
        for _ in range(2):
            model.predict_many(queries)
            for q in queries:
                model.predict(q)
        assert calls == before + 1
        assert model.chol_inv is model.chol_inv
    assert calls == 2


def test_pair_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    feats = random_features(rng, 25)
    gts = rng.uniform(-math.pi, math.pi, size=25)
    pair = heading.train_heading_gps(feats, gts, SMALL_SEARCH)
    pair.save(tmp_path / "model")
    loaded = heading.HeadingGpPair.load(tmp_path / "model")
    queries = random_features(rng, 10)
    for orig, back in zip(
        heading.predict_pseudo_trig_many(pair, queries),
        heading.predict_pseudo_trig_many(loaded, queries),
    ):
        assert orig.s == pytest.approx(back.s, abs=1e-10)
        assert orig.var == pytest.approx(back.var, abs=1e-10)
