import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbdkit.kinematics import (
    MassPair,
    SingularProjectorError,
    check_rest_frame,
    minkowski_dot,
    minkowski_sq,
    projector,
    x_perp,
)

def boost(axis, rapidity):
    """Lorentz boost along spatial axis 1, 2 or 3, on contravariant
    components."""
    m = np.eye(4)
    m[0, 0] = m[axis, axis] = np.cosh(rapidity)
    m[0, axis] = m[axis, 0] = np.sinh(rapidity)
    return m


def timelike_momenta(rng, count):
    for _ in range(count):
        P = np.zeros(4)
        P[0] = rng.uniform(1.0, 5.0)
        P[1:] = rng.uniform(-0.4, 0.4, 3) * P[0]
        yield P


def test_minkowski_dot_signature():
    assert minkowski_dot([1, 2, 3, 4], [1, 0, 0, 0]) == pytest.approx(1.0)
    assert minkowski_sq([2, 0, 0, 0]) == pytest.approx(4.0)
    assert minkowski_sq([0, 1, 1, 1]) == pytest.approx(-3.0)


def test_projector_rest_frame():
    assert np.allclose(projector([2.0, 0, 0, 0]), np.diag([0.0, 1.0, 1.0, 1.0]))


def test_projector_idempotent_and_annihilates_P(rng):
    for P in timelike_momenta(rng, 25):
        pi = projector(P)
        assert np.allclose(pi @ pi, pi, atol=1e-12)
        assert np.allclose(pi @ P, 0.0, atol=1e-12)


def test_projector_spacelike_axis_also_welldefined():
    pi = projector([0.0, 3.0, 0, 0])
    assert np.allclose(pi @ pi, pi, atol=1e-13)


def test_projector_rejects_lightlike():
    with pytest.raises(SingularProjectorError):
        projector([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(SingularProjectorError):
        projector([1.0, 1.0 + 1e-12, 0.0, 0.0])


def test_x_perp_orthogonal_to_P(rng):
    for P in timelike_momenta(rng, 25):
        x = rng.standard_normal(4)
        xp = x_perp(x, P)
        assert abs(minkowski_dot(xp, P)) < 1e-12 * np.linalg.norm(x) * np.linalg.norm(P)


def test_x_perp_projection_identity(rng):
    # x.x_perp = x_perp.x_perp because the projector is metric-symmetric
    for P in timelike_momenta(rng, 25):
        x = rng.standard_normal(4)
        xp = x_perp(x, P)
        assert minkowski_dot(x, xp) == pytest.approx(minkowski_dot(xp, xp), abs=1e-12)


def test_x_perp_idempotent(rng):
    for P in timelike_momenta(rng, 10):
        x = rng.standard_normal(4)
        assert np.allclose(x_perp(x_perp(x, P), P), x_perp(x, P), atol=1e-12)


def test_x_perp_rest_frame_strips_time():
    xp = x_perp([7.0, 1.0, 2.0, 3.0], [2.0, 0, 0, 0])
    assert np.allclose(xp, [0.0, 1.0, 2.0, 3.0])


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    axis=st.sampled_from([1, 2, 3]),
)
def test_x_perp_boost_covariant(eta, axis):
    rng = np.random.default_rng(7)
    P = np.array([3.0, 0.2, -0.3, 0.5])
    x = rng.standard_normal(4)
    lam = boost(axis, eta)
    lhs = x_perp(lam @ x, lam @ P)
    rhs = lam @ x_perp(x, P)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_mass_pair_validation():
    mp = MassPair(1.0, 1.3)
    assert mp.m1 == 1.0 and mp.m2 == 1.3
    with pytest.raises(ValueError):
        MassPair(-1.0, 1.0)
    with pytest.raises(ValueError):
        MassPair(1.0, 0.0)


def test_check_rest_frame():
    P = check_rest_frame([2.0, 0.0, 0.0, 0.0])
    assert isinstance(P, np.ndarray) and P.dtype == float
    with pytest.raises(ValueError, match="vanishing spatial total momentum"):
        check_rest_frame([2.0, 0.0, 0.3, 0.0])
    with pytest.raises(ValueError, match="must be timelike"):
        check_rest_frame([0.0, 0.0, 0.0, 0.0])
