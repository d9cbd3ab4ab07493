import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2  # a test-side oracle only: the package must not import it

from uwbheading import heading, iekf, pipeline, so2


def state(theta, cov):
    return iekf.FilterState.from_angle(theta, cov)


def meas(theta, var):
    return heading.HeadingMeasurement(angle=theta, var_theta=var)


# --- predict -------------------------------------------------------------------


def test_predict_stationary_grows_covariance():
    s0 = state(0.7, 0.1)
    s1 = iekf.predict(s0, iekf.GyroSample(rate=0.0, dt=0.5), iekf.ProcessNoise(2e-3))
    assert s1.angle == pytest.approx(0.7, abs=1e-12)
    assert s1.cov == pytest.approx(0.1 + 2e-3 * 0.5, rel=1e-12)


def test_predict_quarter_turn():
    s1 = iekf.predict(
        state(0.0, 0.1),
        iekf.GyroSample(rate=math.pi / 2, dt=1.0),
        iekf.ProcessNoise(1e-5),
    )
    assert s1.angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_predict_thousand_small_steps_exact():
    s = state(0.0, 1e-6)
    noise = iekf.ProcessNoise(1e-9)
    g = iekf.GyroSample(rate=0.01, dt=0.01)
    for _ in range(1000):
        s = iekf.predict(s, g, noise)
    assert s.angle == pytest.approx(0.1, abs=1e-9)


# --- correct -------------------------------------------------------------------


def test_correct_zero_innovation():
    s0 = state(1.1, 0.2)
    s1, stats = iekf.correct(s0, meas(1.1, 0.1))
    assert stats.innovation == pytest.approx(0.0, abs=1e-12)
    assert s1.angle == pytest.approx(1.1, abs=1e-12)
    gain = 0.2 / 0.3
    assert s1.cov == pytest.approx((1 - gain) ** 2 * 0.2 + gain**2 * 0.1, rel=1e-12)
    assert s1.cov < s0.cov


def test_correct_perfect_measurement_limit():
    s1, _ = iekf.correct(state(2.0, 0.5), meas(0.4, 1e-15))
    assert s1.angle == pytest.approx(0.4, abs=1e-7)


def test_correct_scalar_arithmetic_example():
    s1, stats = iekf.correct(state(0.5, 0.04), meas(0.3, 0.04))
    assert stats.innovation == pytest.approx(0.2, abs=1e-12)
    assert stats.innovation_var == pytest.approx(0.08, rel=1e-12)
    assert s1.angle == pytest.approx(0.4, abs=1e-12)
    assert s1.cov == pytest.approx(0.02, rel=1e-12)


def test_correct_wrap_immune_innovation():
    _, stats = iekf.correct(state(3.1, 0.04), meas(-3.1, 0.04))
    assert stats.innovation == pytest.approx(-(2 * math.pi - 6.2), abs=1e-12)


def test_correct_left_invariance():
    shift = 1.9
    s0 = state(0.8, 0.1)
    m0 = meas(0.2, 0.05)
    _, stats0 = iekf.correct(s0, m0)
    s_shift = iekf.FilterState(angle=shift + s0.angle, cov=0.1)
    m_shift = heading.HeadingMeasurement(angle=shift + m0.angle, var_theta=0.05)
    _, stats1 = iekf.correct(s_shift, m_shift)
    assert stats1.innovation == pytest.approx(stats0.innovation, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-3.0, max_value=3.0),
            st.floats(min_value=1e-4, max_value=2.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_covariance_stays_positive(steps):
    s = state(0.0, 1.0)
    noise = iekf.ProcessNoise(1e-4)
    for theta, var, do_correct in steps:
        s = iekf.predict(s, iekf.GyroSample(rate=theta, dt=0.1), noise)
        if do_correct:
            s, _ = iekf.correct(s, meas(theta, var))
        assert s.cov > 0.0


def matrix_predict(rot, cov, rate, dt, psd):
    rot = rot @ so2.exp_so2(rate * dt)
    return so2.project_to_so2(rot), cov + psd * dt


def matrix_correct(rot, cov, meas_rot, var):
    """Matrix-form reference: innovation log(Y^-1 X), update X exp(-K z)."""
    z = so2.log_so2(meas_rot.T @ rot)
    gain = cov / (cov + var)
    rot = rot @ so2.exp_so2(-gain * z)
    cov = (1.0 - gain) ** 2 * cov + gain**2 * var
    return so2.project_to_so2(rot), cov, z


@given(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.lists(
        st.tuples(
            st.floats(min_value=-40.0, max_value=40.0),
            st.floats(min_value=-10.0, max_value=10.0),
            st.floats(min_value=1e-6, max_value=2.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=100, deadline=None)
def test_angle_form_matches_matrix_reference(theta0, steps):
    s = state(theta0, 0.5)
    rot, cov = so2.exp_so2(theta0), 0.5
    noise = iekf.ProcessNoise(1e-3)
    for rate, theta_meas, var, do_correct in steps:
        s = iekf.predict(s, iekf.GyroSample(rate=rate, dt=0.1), noise)
        rot, cov = matrix_predict(rot, cov, rate, 0.1, 1e-3)
        if do_correct:
            s, stats = iekf.correct(s, meas(theta_meas, var))
            rot, cov, z = matrix_correct(rot, cov, so2.exp_so2(theta_meas), var)
            if abs(abs(z) - math.pi) < 1e-9:
                return  # antipodal measurement: the innovation's sign is a branch choice
            assert abs(so2.wrap_angle(stats.innovation - z)) < 1e-12
        assert -math.pi < s.angle <= math.pi
        assert abs(so2.wrap_angle(s.angle - so2.log_so2(rot))) < 1e-12
        assert s.cov == pytest.approx(cov, rel=1e-12)


def test_converges_within_twenty_corrections():
    # noiseless measurements with small variance from 1 rad initial error
    true = 0.3
    s = state(true + 1.0, 1.0)
    noise = iekf.ProcessNoise(1e-6)
    for _ in range(20):
        s = iekf.predict(s, iekf.GyroSample(rate=0.0, dt=0.1), noise)
        s, _ = iekf.correct(s, meas(true, 1e-4))
    err = so2.wrap_angle(s.angle - true)
    assert abs(err) < 3.0 * math.sqrt(s.cov)


def test_steady_state_matches_riccati_fixed_point():
    q_c, dt, r = 2e-4, 0.1, 0.03
    s = state(0.0, 1.0)
    noise = iekf.ProcessNoise(q_c)
    for _ in range(10_000):
        s = iekf.predict(s, iekf.GyroSample(rate=0.0, dt=dt), noise)
        s, _ = iekf.correct(s, meas(0.0, r))
    # independent oracle: iterate the scalar covariance map to its fixed point
    p = 1.0
    for _ in range(10_000):
        pp = p + q_c * dt
        k = pp / (pp + r)
        p = (1 - k) ** 2 * pp + k**2 * r
    assert s.cov == pytest.approx(p, abs=1e-6)


# --- dead reckoning ---------------------------------------------------------------


def predict_only(s, gyros, noise):
    traj = []
    for g in gyros:
        s = iekf.predict(s, g, noise)
        traj.append(s)
    return traj


def test_dead_reckon_zero_rates():
    s0 = state(0.5, 0.01)
    traj = predict_only(
        s0, [iekf.GyroSample(rate=0.0, dt=0.1)] * 50, iekf.ProcessNoise(1e-3)
    )
    assert len(traj) == 50
    assert traj[-1].angle == pytest.approx(0.5, abs=1e-12)
    covs = [s.cov for s in traj]
    assert np.allclose(np.diff(covs), 1e-3 * 0.1)


def test_dead_reckon_constant_rate():
    s0 = state(0.0, 0.01)
    traj = predict_only(
        s0, [iekf.GyroSample(rate=0.7, dt=0.1)] * 100, iekf.ProcessNoise(1e-6)
    )
    assert traj[-1].angle == pytest.approx(so2.wrap_angle(0.7 * 10.0), abs=1e-9)


def test_dead_reckon_random_walk_statistics():
    # ensemble error std at time T is sqrt(q_c * T) for integrated white noise
    q_c, dt, steps = 1e-3, 0.1, 100
    final = []
    for seed in range(400):
        rng = np.random.default_rng(seed)
        rates = math.sqrt(q_c / dt) * rng.standard_normal(steps)
        s = state(0.0, 1e-9)
        for w in rates:
            s = iekf.predict(s, iekf.GyroSample(rate=w, dt=dt), iekf.ProcessNoise(q_c))
        final.append(s.angle)
    assert np.std(final) == pytest.approx(math.sqrt(q_c * dt * steps), rel=0.15)


# --- consistency bound ---------------------------------------------------------------


def chi2_1dof_cdf(x):
    return math.erf(math.sqrt(x / 2.0))


def chi2_1dof_quantile_bisect(p):
    lo, hi = 0.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_1dof_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_mahalanobis_bound_against_bisection_oracle():
    bound = pipeline.MAHALANOBIS_BOUND_997
    assert bound == pytest.approx(chi2_1dof_quantile_bisect(0.997), abs=1e-6)
    assert bound == pytest.approx(8.807, abs=5e-4)


def test_mahalanobis_bound_equals_chi2_ppf_bit_for_bit():
    bound = pipeline.MAHALANOBIS_BOUND_997
    assert type(bound) is float
    assert bound.hex() == float(chi2.ppf(0.997, df=1)).hex()


def test_pipeline_gate_bound_is_pinned():
    # metrics.json and the report's mahalanobis.csv carry this repr
    assert repr(pipeline.MAHALANOBIS_BOUND_997) == "8.807468393511947"


def test_package_import_does_not_load_scipy_stats():
    """A fresh interpreter that imports uwbheading and every submodule does
    not load scipy.stats (about 20 MiB and 0.5 s of import)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import importlib, pkgutil, sys\n"
        "import uwbheading\n"
        "for m in pkgutil.iter_modules(uwbheading.__path__):\n"
        "    importlib.import_module('uwbheading.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('uwbheading.')))\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert "'uwbheading.pipeline'" in out[0] and "'uwbheading._blas'" in out[0]
    assert out[1] == "False"


def test_iekf_imports_only_the_standard_library_numpy_and_so2():
    """The filter owns its measurement: it depends on no GP code and no scipy."""
    tree = ast.parse(Path(iekf.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:  # from [.]x import ...
            imported.add("." * node.level + node.module)
        elif isinstance(node, ast.ImportFrom):  # from . import x
            imported.update("." + alias.name for alias in node.names)
    assert imported <= {"__future__", "math", "dataclasses", "numpy", ".so2"}
    assert heading.HeadingMeasurement is iekf.HeadingMeasurement


# --- state validation -------------------------------------------------------------------


def test_state_validation():
    with pytest.raises(ValueError):
        iekf.FilterState(angle=0.0, cov=0.0)
    with pytest.raises(ValueError):
        iekf.FilterState(angle=math.nan, cov=1.0)
    for dt in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite dt > 0"):
            iekf.GyroSample(rate=0.1, dt=dt)
    with pytest.raises(ValueError):
        iekf.ProcessNoise(psd=0.0)
    for psd in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            iekf.ProcessNoise(psd=psd)


def test_filter_runs_shapes_and_gate_bound():
    starts = [0.0, 0.1]
    meas_pairs = [None, (3.0, 1e-4), (0.0, 1e-4)]
    angle, cov, mahal = iekf.filter_runs(starts, 1e-2, [0.0, 0.0], [1e-6, 1e-6], meas_pairs)
    assert angle.shape == cov.shape == mahal.shape == (2, 3)
    assert np.isnan(mahal[:, 0]).all() and np.isfinite(mahal[:, 1:]).all()
    assert not cov.flags.writeable  # one shared row, broadcast to every run
    assert np.abs(angle[:, 1] - 3.0).max() < 0.1  # the wild fix is applied: there is no gate
    empty = iekf.filter_runs(starts, 1e-2, [], [], [])
    assert all(a.shape == (2, 0) for a in empty)
    with pytest.raises(ValueError):
        iekf.filter_runs(starts, 1e-2, [0.0], [1e-6, 1e-6], meas_pairs)
    # the starts are checked, and wrapped, as FilterStates
    for bad_starts, init_cov in (([0.0, math.nan], 1e-2), (starts, 0.0), (starts, math.inf)):
        with pytest.raises(ValueError):
            iekf.filter_runs(bad_starts, init_cov, [0.0, 0.0], [1e-6, 1e-6], meas_pairs)
    wrapped, _, _ = iekf.filter_runs([3 * math.pi], 1e-2, [], [], [None])
    assert wrapped[0, 0] == so2.wrap_float(3 * math.pi)


def online_runs(starts, init_cov, increments, process_vars, measurements):
    """`filter_runs` as a loop of the online `predict` and `correct`, one run
    after another. A step of dt = 1 turns each increment and process variance
    into a GyroSample rate and a ProcessNoise PSD unchanged."""
    out = []
    for theta0 in starts:
        s = state(theta0, init_cov)
        run = []
        for k, m in enumerate(measurements):
            if k:
                s = iekf.predict(s, iekf.GyroSample(rate=increments[k - 1], dt=1.0),
                                 iekf.ProcessNoise(psd=process_vars[k - 1]))
            mahal = math.nan
            if m is not None:
                s, stats = iekf.correct(s, meas(*m))
                mahal = stats.mahalanobis
            run.append((s.angle, s.cov, mahal))
        out.append(run)
    return tuple(np.array(v, dtype=float).reshape(len(starts), len(measurements))
                 for v in zip(*(e for run in out for e in run)))


@pytest.mark.parametrize("runs", [1, 2, 100])
def test_filter_runs_shared_pass_matches_per_run_loop_bit_for_bit(runs):
    """The runs share one covariance pass; a loop of the online predict and
    correct over each run gives the same bits."""
    rng = np.random.default_rng(runs)
    n = 400
    increments = (0.1 * rng.normal(0.0, 0.5, n - 1)).tolist()
    process_vars = rng.uniform(1e-6, 1e-3, n - 1).tolist()
    measurements = [
        None if skip else (a, v)
        for a, v, skip in zip(
            rng.uniform(-math.pi, math.pi, n).tolist(),
            (10.0 ** rng.uniform(-6.0, 0.0, n)).tolist(),
            rng.random(n) < 0.2,
        )
    ]
    measurements[0] = measurements[-1] = None
    starts = [math.pi, -math.pi, *rng.uniform(-10.0, 10.0, runs).tolist()][:runs]
    shared = iekf.filter_runs(starts, 0.7, increments, process_vars, measurements)
    looped = online_runs(starts, 0.7, increments, process_vars, measurements)
    for got, want in zip(shared, looped):
        assert got.shape == want.shape == (runs, n)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    skipped = sum(m is None for m in measurements)
    assert skipped > 2 and np.isfinite(shared[2]).sum() == runs * (n - skipped)
