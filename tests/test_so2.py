import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbheading import so2

angles = st.floats(min_value=-10.0, max_value=10.0)


def test_exp_identity_and_quarter_turn():
    assert np.allclose(so2.exp_so2(0.0), np.eye(2))
    assert np.allclose(so2.exp_so2(math.pi / 2), [[0.0, -1.0], [1.0, 0.0]])


def test_exp_is_abelian_homomorphism():
    lhs = so2.exp_so2(0.4) @ so2.exp_so2(1.1)
    assert np.allclose(lhs, so2.exp_so2(1.5), atol=1e-12)


def test_log_identity_and_round_trip():
    assert so2.log_so2(np.eye(2)) == 0.0
    assert so2.log_so2(so2.exp_so2(2.9)) == pytest.approx(2.9, abs=1e-12)


def test_log_wraps_into_principal_branch():
    assert so2.log_so2(so2.exp_so2(3.5)) == pytest.approx(3.5 - 2 * math.pi, abs=1e-12)


def test_log_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        so2.log_so2(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_compose_inverse_examples():
    a = so2.exp_so2(0.7)
    assert np.allclose(a @ a.T, np.eye(2), atol=1e-15)
    assert np.allclose(so2.exp_so2(1.2).T, so2.exp_so2(-1.2), atol=1e-15)
    double = so2.exp_so2(3.0) @ so2.exp_so2(3.0)
    assert so2.log_so2(double) == pytest.approx(6.0 - 2 * math.pi, abs=1e-12)


def test_wrap_angle_branch_convention():
    assert so2.wrap_angle(math.pi) == pytest.approx(math.pi)
    assert so2.wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert -math.pi < so2.wrap_angle(np.nextafter(math.pi, 4.0)) <= math.pi
    assert so2.wrap_angle(0.0) == 0.0
    assert float(so2.wrap_angle(3.5)) == pytest.approx(3.5 - 2 * math.pi, abs=1e-12)


def same_float(a: float, b: float) -> bool:
    """Bit-for-bit equality (distinguishes -0.0 from 0.0; NaN equals NaN)."""
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


WRAP_EDGES = [
    math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(math.pi, 0.0),
    math.nextafter(-math.pi, -4.0), math.nextafter(-math.pi, 0.0),
    0.0, -0.0, 2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi, 1e-300, -1e-300,
    1e15, -1e15,
]


@pytest.mark.parametrize("theta", WRAP_EDGES, ids=repr)
def test_wrap_float_matches_wrap_angle_on_edges(theta):
    assert same_float(so2.wrap_float(theta), float(so2.wrap_angle(theta)))
    assert type(so2.wrap_float(theta)) is float


def test_wrap_float_matches_wrap_angle_on_random_batch():
    rng = np.random.default_rng(0)
    xs = np.concatenate([rng.uniform(-20.0, 20.0, 20000), rng.normal(0.0, 1e4, 20000)])
    assert [so2.wrap_float(x) for x in xs.tolist()] == so2.wrap_angle(xs).tolist()


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12))
@settings(max_examples=500)
def test_wrap_float_matches_wrap_angle(theta):
    assert same_float(so2.wrap_float(theta), float(so2.wrap_angle(theta)))


@given(angles)
@settings(max_examples=200)
def test_exp_log_round_trip_mod_2pi(theta):
    back = so2.log_so2(so2.exp_so2(theta))
    assert abs(so2.wrap_angle(back - theta)) < 1e-12


@given(angles, angles, angles)
@settings(max_examples=100)
def test_group_axioms(a, b, c):
    ra, rb, rc = so2.exp_so2(a), so2.exp_so2(b), so2.exp_so2(c)
    assoc = (ra @ rb) @ rc - ra @ (rb @ rc)
    assert np.abs(assoc).max() < 1e-12
    assert np.abs(ra @ np.eye(2) - ra).max() == 0.0
    assert np.abs(ra @ ra.T - np.eye(2)).max() < 1e-12


@given(angles)
@settings(max_examples=200)
def test_exp_output_is_rotation(theta):
    assert so2.is_rotation(so2.exp_so2(theta))


def test_project_restores_drifted_rotation():
    r = so2.exp_so2(0.8) + 1e-7 * np.ones((2, 2))
    p = so2.project_to_so2(r)
    assert so2.is_rotation(p, tol=1e-12)
    assert so2.log_so2(p) == pytest.approx(0.8, abs=1e-6)


def test_batch_maps_match_scalar():
    thetas = np.linspace(-7.0, 7.0, 101)
    rots = so2.exp_so2_many(thetas)
    logs = so2.log_so2_many(rots)
    for th, r, lg in zip(thetas, rots, logs):
        assert np.allclose(r, so2.exp_so2(th), atol=1e-15)
        assert lg == pytest.approx(so2.log_so2(r), abs=1e-15)
