import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from uwbheading import _blas, gp, heading, pipeline, so2, world

SMALL_SEARCH = gp.HyperparamSearchConfig(max_points=300)


def unit_circle_trig(theta, r_s=0.0025, r_c=0.0025):
    return heading.PseudoTrig(
        s=math.sin(theta), c=math.cos(theta), var_s=r_s, var_c=r_c
    )


# --- normalize ---------------------------------------------------------------


def test_normalize_identity_point():
    m = heading.normalize(heading.PseudoTrig(s=0.0, c=1.0, var_s=0.04, var_c=0.09))
    assert np.allclose(m.rot, np.eye(2), atol=1e-15)
    assert m.var_theta == pytest.approx(0.04, rel=1e-12)


def test_normalize_quarter_turn_swaps_roles():
    m = heading.normalize(heading.PseudoTrig(s=1.0, c=0.0, var_s=0.77, var_c=0.09))
    assert np.allclose(m.rot, so2.exp_so2(math.pi / 2), atol=1e-15)
    assert m.var_theta == pytest.approx(0.09, rel=1e-12)


def test_normalize_radial_scale_shrinks_variance():
    base = heading.normalize(heading.PseudoTrig(s=1.0, c=0.0, var_s=0.3, var_c=0.09))
    scaled = heading.normalize(heading.PseudoTrig(s=2.0, c=0.0, var_s=0.3, var_c=0.09))
    assert np.allclose(scaled.rot, base.rot, atol=1e-15)
    assert scaled.var_theta == pytest.approx(base.var_theta / 4.0, rel=1e-12)


def test_normalize_angle_is_atan2():
    for s, c in [(0.4, 1.2), (-0.9, 0.2), (2.0, -3.0), (-0.1, -0.1)]:
        m = heading.normalize(heading.PseudoTrig(s=s, c=c, var_s=0.01, var_c=0.01))
        assert so2.log_so2(m.rot) == pytest.approx(math.atan2(s, c), abs=1e-12)


def test_normalize_rejects_degenerate_disc():
    with pytest.raises(heading.DegeneratePredictionError):
        heading.normalize(heading.PseudoTrig(s=1e-4, c=1e-4, var_s=0.01, var_c=0.01))


def test_normalize_variance_floor():
    m = heading.normalize(heading.PseudoTrig(s=0.0, c=1.0, var_s=1e-12, var_c=1e-12))
    assert m.var_theta == heading.VAR_FLOOR


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=1.01, max_value=50.0),
)
@settings(max_examples=150)
def test_normalize_scale_invariance_and_validity(s, c, a):
    if math.hypot(s, c) < 10 * heading.NORM_EPS:
        return
    m1 = heading.normalize(heading.PseudoTrig(s=s, c=c, var_s=0.01, var_c=0.02))
    m2 = heading.normalize(heading.PseudoTrig(s=a * s, c=a * c, var_s=0.01, var_c=0.02))
    assert so2.is_rotation(m1.rot, tol=1e-12)
    assert np.abs(m1.rot - m2.rot).max() < 1e-9


def normalize_or_none(s, c, var_s, var_c):
    try:
        return heading.normalize(heading.PseudoTrig(s=s, c=c, var_s=var_s, var_c=var_c))
    except heading.DegeneratePredictionError:
        return None


def assert_normalize_values_matches(s, c, var_s, var_c):
    """normalize_values equals normalize bit for bit, None where it raises."""
    for args in zip(s, c, var_s, var_c):
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
            st.floats(min_value=heading.VAR_FLOOR, max_value=10.0),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=200)
def test_normalize_values_matches_normalize(rows):
    s = [r * math.sin(th) for r, th, _, _ in rows]
    c = [r * math.cos(th) for r, th, _, _ in rows]
    assert_normalize_values_matches(
        s, c, [v for *_, v, _ in rows], [v for *_, v in rows]
    )


def test_normalize_values_degenerate_at_norm_eps():
    # along an axis the radius is exact, so the result flips exactly at NORM_EPS
    eps = heading.NORM_EPS
    c = [math.nextafter(eps, 0.0), eps, math.nextafter(eps, 1.0), 0.0, -eps]
    s = [0.0] * len(c)
    degenerate = [heading.normalize_values(0.0, ci, 0.01, 0.02) is None for ci in c]
    assert degenerate == [True, False, False, True, False]
    assert_normalize_values_matches(s, c, [0.01] * 5, [0.02] * 5)


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
        ref = normalize_or_none(pt.s, pt.c, pt.var_s, pt.var_c)
        if ref is None:
            assert m is None
        else:
            assert np.array([m.angle, m.var_theta]).tobytes() == (
                np.array([ref.angle, ref.var_theta]).tobytes()
            )
    s, _, _, vc = heading.predict_pseudo_trig_arrays(pair, queries)
    assert [pt.s for pt in many] == s.tolist() and [pt.var_c for pt in many] == vc.tolist()


def matrix_normalize(pt):
    """Reference: variance from the perturbation matrices D and E of the
    scaled rotation, angle from the projected matrix."""
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
    var = jac_c**2 * pt.var_c + jac_s**2 * pt.var_s
    return so2.log_so2(so2.project_to_so2(y)), max(var, heading.VAR_FLOOR)


@given(
    st.floats(min_value=heading.NORM_EPS, max_value=100.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=1e-10, max_value=10.0),
    st.floats(min_value=1e-10, max_value=10.0),
)
@settings(max_examples=300)
def test_normalize_matches_matrix_reference(radius, theta, var_s, var_c):
    pt = heading.PseudoTrig(
        s=radius * math.sin(theta), c=radius * math.cos(theta), var_s=var_s, var_c=var_c
    )
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
            heading.PseudoTrig(
                s=s * (1 + eps), c=c * (1 + eps), var_s=0.0025, var_c=0.0025
            )
        )
        d = so2.wrap_angle(so2.log_so2(m2.rot) - so2.log_so2(m.rot))
        assert abs(d) < 1e-12


def test_normalize_variance_matches_monte_carlo():
    # scaled-down version of the full acceptance check
    rng = np.random.default_rng(0)
    for theta in (0.0, math.pi / 3, -2.0, 2.9):
        pt = unit_circle_trig(theta)
        m = heading.normalize(pt)
        s_draw = pt.s + math.sqrt(pt.var_s) * rng.standard_normal(20000)
        c_draw = pt.c + math.sqrt(pt.var_c) * rng.standard_normal(20000)
        sampled = so2.wrap_angle(np.arctan2(s_draw, c_draw) - theta)
        assert np.var(sampled) == pytest.approx(m.var_theta, rel=0.15)


# --- feature / measurement types ----------------------------------------------


def test_feature_validation():
    with pytest.raises(ValueError):
        heading.UwbFeature(ranges=np.array([1.0, -1.0, 1, 1, 1]), rss=np.zeros(5))
    with pytest.raises(ValueError):
        heading.UwbFeature(ranges=np.ones(5), rss=np.array([np.inf, 0, 0, 0, 0]))
    f = heading.UwbFeature(ranges=np.ones(5), rss=-80.0 * np.ones(5))
    assert f.as_vector().shape == (10,)


def test_measurement_requires_rotation_and_positive_variance():
    with pytest.raises(ValueError):
        heading.HeadingMeasurement(angle=math.nan, var_theta=0.1)
    with pytest.raises(ValueError):
        heading.HeadingMeasurement(angle=0.0, var_theta=0.0)


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
    assert pt.var_s >= 0.5 * pair.gp_sin.params.sigma_f**2


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
    assert pt.var_s >= heading.VAR_FLOOR
    assert pt.var_c >= heading.VAR_FLOOR


def reference_posterior(model, x_raw):
    """Posterior by gram_matrix and solve_triangular, each GP on its own,
    with the variance floor of the pseudo-trig outputs."""
    xs = model.train.standardizer.apply(np.atleast_2d(x_raw))
    with _blas.one_thread():
        k_star = gp.gram_matrix(model.train.x, xs, model.params)
        mean = k_star.T @ model.alpha + model.y_mean
        v = solve_triangular(model.chol, k_star, lower=True)
    var = np.maximum(model.params.sigma_f**2 - np.sum(v * v, axis=0), 0.0)
    return mean, np.maximum(var, heading.VAR_FLOOR)


def test_shared_distance_prediction_matches_reference_bits():
    rng = np.random.default_rng(7)
    feats = random_features(rng, 80)
    pair = heading.train_heading_gps(feats, rng.uniform(-math.pi, math.pi, 80), SMALL_SEARCH)
    queries = random_features(rng, 50)

    def reference(rows):
        (s, vs), (c, vc) = (reference_posterior(m, rows) for m in (pair.gp_sin, pair.gp_cos))
        return np.array([s, c, vs, vc])

    got = np.array(heading.predict_pseudo_trig_arrays(pair, queries))
    assert got.tobytes() == reference(queries).tobytes()
    for row in queries:
        pt = heading.predict_pseudo_trig(pair, heading.UwbFeature(ranges=row[:5], rss=row[5:]))
        got = np.array([[pt.s], [pt.c], [pt.var_s], [pt.var_c]])
        assert got.tobytes() == reference(row).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_predict_rejects_overflowing_query():
    rng = np.random.default_rng(8)
    feats = random_features(rng, 20)
    pair = heading.train_heading_gps(feats, rng.uniform(-math.pi, math.pi, 20), SMALL_SEARCH)
    huge = heading.UwbFeature(ranges=np.full(5, 1.7e308), rss=np.zeros(5))
    with pytest.raises(ValueError):
        heading.predict_pseudo_trig(pair, huge)


@pytest.mark.parametrize("field", ["x", "rows", "mean", "scale"])
def test_pair_rejects_gps_with_different_inputs(field):
    rng = np.random.default_rng(9)
    feats = random_features(rng, 20)
    pair = heading.train_heading_gps(feats, rng.uniform(-math.pi, math.pi, 20), SMALL_SEARCH)
    train = pair.gp_cos.train
    std = train.standardizer
    x, y, mean, scale = train.x, train.y, std.mean, std.scale
    if field == "x":
        x = x[::-1]
    elif field == "rows":
        x, y = x[:-1], y[:-1]
    elif field == "mean":
        mean = mean + 1.0
    else:
        scale = 2.0 * scale
    other = gp.GpModel.from_params(
        gp.TrainingSet(x=x, y=y, standardizer=gp.Standardizer(mean=mean, scale=scale)),
        pair.gp_cos.params,
        y_mean=pair.gp_cos.y_mean,
    )
    with pytest.raises(ValueError, match="training inputs or standardizer"):
        heading.HeadingGpPair(gp_sin=pair.gp_sin, gp_cos=other)


def test_train_rejects_bad_input():
    with pytest.raises(ValueError):
        heading.train_heading_gps(np.ones((1, 10)), np.array([0.0]))
    with pytest.raises(ValueError):
        heading.train_heading_gps(np.ones((3, 10)), np.array([0.0, np.nan, 1.0]))


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
        assert orig.var_s == pytest.approx(back.var_s, abs=1e-10)
