import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from tbdkit.operators import Grid
from tbdkit.positivity import scan
from tbdkit.potentials import (
    FOUR_PI,
    Constant,
    ConstantG,
    GaussianG,
    PolynomialG,
    Potential,
    PotentialDomainError,
    SingularOriginError,
    TanhOfG,
    YukawaTanh,
    Zero,
    eval_ddelta_dP2,
    eval_delta,
    eval_dV_dxperp_sq,
    eval_V,
)
from tbdkit.scalar_product import build_kernel

GAUSS_BUMP = TanhOfG(g=GaussianG(amplitude=-0.25, width=1.0))
YUKAWA = YukawaTanh(g1=math.sqrt(FOUR_PI), g2=math.sqrt(FOUR_PI), mu=1.0)


def sample_points(rng, count=100):
    xps = -rng.uniform(0.01, 9.0, count)
    P2 = rng.uniform(1.0, 16.0, count)
    return xps, P2


def test_value_at_unit_radius_frozen():
    # tanh(-e^{-1}/4), the gaussian bump at r = 1
    assert eval_V(GAUSS_BUMP, -1.0, 4.0) == pytest.approx(
        -0.0917114269885170163, abs=1e-16
    )


def test_zero_and_constant_values():
    assert eval_V(Zero(), -1.0, 4.0) == 0.0
    assert eval_V(Constant(v=0.3), -2.5, 9.0) == 0.3
    arr = eval_V(Constant(v=0.3), np.array([-1.0, -2.0]), 4.0)
    assert np.array_equal(arr, [0.3, 0.3])


def test_yukawa_value_matches_formula(rng):
    xps, P2 = sample_points(rng)
    r = np.sqrt(-xps)
    c = 0.5 * (YUKAWA.g1 * YUKAWA.g2 / FOUR_PI) * np.exp(-r) / r
    expect = np.tanh(-c / np.sqrt(P2))
    got = np.array([eval_V(YUKAWA, x, p) for x, p in zip(xps, P2)])
    assert np.allclose(got, expect, rtol=0.0, atol=1e-15)


def test_values_strictly_bounded(rng):
    xps, P2 = sample_points(rng, 10_000)
    for spec in (GAUSS_BUMP, YUKAWA, TanhOfG(g=PolynomialG(coeffs=(0.2, -1.0, 0.5)))):
        vals = np.array([eval_V(spec, x, p) for x, p in zip(xps, P2)])
        deltas = np.array([spec.delta(x, p) for x, p in zip(xps, P2)])
        # |V| <= 1 everywhere; strictly below 1 wherever tanh has not
        # saturated to 1.0 in double precision (|arg| beyond ~19)
        assert np.all(np.abs(vals) <= 1.0)
        moderate = np.abs(deltas) < 18.0
        assert np.all(np.abs(vals[moderate]) < 1.0)


def test_delta_inverts_tanh(rng):
    xps, P2 = sample_points(rng)
    for spec in (GAUSS_BUMP, YUKAWA):
        for x, p in zip(xps[:30], P2[:30]):
            v = eval_V(spec, x, p)
            d = spec.delta(x, p)
            assert math.tanh(d) == pytest.approx(v, abs=1e-14)


def test_delta_survives_deep_core():
    # at tiny r the Yukawa tanh saturates and 1 - V^2 underflows, but
    # the closed-form Delta stays finite
    strong = YukawaTanh(g1=40.0, g2=40.0, mu=1.0)
    d = strong.delta(-(1e-4) ** 2, 4.0)
    assert np.isfinite(d)
    assert d < -100.0


def test_dV_dP2_matches_finite_difference(rng, reference_dV_dP2):
    xps, P2 = sample_points(rng, 40)
    for x, p in zip(xps, P2):
        h = 1e-5 * p
        fd = (eval_V(YUKAWA, x, p + h) - eval_V(YUKAWA, x, p - h)) / (2.0 * h)
        an = reference_dV_dP2(YUKAWA, x, p)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_dV_dP2_zero_for_momentum_independent_variants(rng, reference_dV_dP2):
    xps, P2 = sample_points(rng, 10)
    for spec in (Zero(), Constant(v=0.2), GAUSS_BUMP):
        for x, p in zip(xps, P2):
            assert reference_dV_dP2(spec, x, p) == 0.0


def test_dV_dxperp_sq_matches_finite_difference(rng):
    xps, P2 = sample_points(rng, 40)
    for spec in (GAUSS_BUMP, YUKAWA, TanhOfG(g=PolynomialG(coeffs=(0.0, 0.3)))):
        for x, p in zip(xps, P2):
            h = 1e-6 * max(1.0, abs(x))
            fd = (eval_V(spec, x + h, p) - eval_V(spec, x - h, p)) / (2.0 * h)
            an = eval_dV_dxperp_sq(spec, x, p)
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_ddelta_dP2_matches_finite_difference(rng):
    xps, P2 = sample_points(rng, 40)
    for x, p in zip(xps, P2):
        h = 1e-5 * p
        fd = (YUKAWA.delta(x, p + h) - YUKAWA.delta(x, p - h)) / (2.0 * h)
        an = eval_ddelta_dP2(YUKAWA, x, p)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-12)
    for spec in (Zero(), Constant(v=0.2), GAUSS_BUMP):
        assert eval_ddelta_dP2(spec, -1.0, 4.0) == 0.0


def test_vectorized_evaluation_matches_scalar(rng):
    xps, _ = sample_points(rng, 50)
    batch = eval_V(YUKAWA, xps, 4.0)
    single = np.array([eval_V(YUKAWA, x, 4.0) for x in xps])
    assert np.array_equal(batch, single)


def test_complex_P_sq_continuation():
    v = eval_V(YUKAWA, -1.0, 4.0 + 0.1j)
    assert isinstance(v, complex)
    assert v.imag != 0.0
    # continuation agrees with the real formula on the real axis
    assert eval_V(YUKAWA, -1.0, 4.0 + 0.0j) == pytest.approx(eval_V(YUKAWA, -1.0, 4.0))
    with pytest.raises(PotentialDomainError):
        eval_V(YUKAWA, -1.0, -4.0 + 0.1j)


def test_complex_step_matches_analytic_P2_derivatives(rng, reference_dV_dP2):
    # Im f(P^2 + ih)/h has no subtractive cancellation, so at h = 1e-20
    # it differs from f'(P^2) only by the formulas' own rounding
    h = 1e-20
    xps, P2 = sample_points(rng, 200)
    for x, p in zip(xps, P2):
        dV = eval_V(YUKAWA, x, p + 1j * h).imag / h
        assert dV == pytest.approx(reference_dV_dP2(YUKAWA, x, p), rel=1e-14, abs=0.0)
        dD = YUKAWA.delta(x, p + 1j * h).imag / h
        assert dD == pytest.approx(eval_ddelta_dP2(YUKAWA, x, p), rel=1e-14, abs=0.0)


EVALUATORS = (eval_V, eval_delta, eval_dV_dxperp_sq, eval_ddelta_dP2)


@pytest.mark.parametrize("evaluator", EVALUATORS, ids=lambda f: f.__name__)
def test_evaluators_reject_non_spec(evaluator):
    with pytest.raises(TypeError, match="not a potential spec"):
        evaluator(object(), -1.0, 4.0)


@pytest.mark.parametrize("evaluator", EVALUATORS, ids=lambda f: f.__name__)
def test_complex_P_sq_gives_complex_scalar_and_full_arrays(evaluator):
    for spec in (Zero(), GAUSS_BUMP, YUKAWA):
        assert isinstance(evaluator(spec, -1.0, 4.0 + 1e-3j), complex)
        assert isinstance(evaluator(spec, -1.0, 4.0), float)
        assert evaluator(spec, -np.ones((2, 3)), 4.0).shape == (2, 3)


@pytest.mark.parametrize("P_sq", [4.0, 4.0 + 1e-3j], ids=["real", "complex"])
def test_ddelta_dP2_is_its_formula_bit_for_bit(P_sq):
    # the Yukawa dDelta/dP^2 is (c(r)/2) (P^2)^{-3/2}; the other kinds have none
    xps = -np.linspace(0.01, 9.0, 37)
    for spec in (Zero(), Constant(v=0.3), GAUSS_BUMP, YUKAWA):
        expect = 0.5 * spec.core(np.sqrt(-xps)) * P_sq ** (-1.5) if spec is YUKAWA else np.zeros_like(xps)
        assert eval_ddelta_dP2(spec, xps, P_sq).tobytes() == expect.tobytes()


def test_constant_value_only_for_constant_potentials():
    assert Constant(v=0.3).constant_value() == 0.3
    assert Zero().constant_value() == 0.0
    for spec in (GAUSS_BUMP, YUKAWA):
        with pytest.raises(TypeError, match="plane-wave states require"):
            spec.constant_value()


@pytest.mark.parametrize("v", [1.0, -1.0, 1.5])
def test_constant_outside_the_unit_interval_is_rejected(v):
    # every potential is tanh(Delta), and Delta = artanh v needs |v| < 1
    with pytest.raises(ValueError, match=r"must satisfy \|v\| < 1"):
        Constant(v=v)


def test_constant_rapidity_is_artanh_v():
    for v in (0.0, 0.3, -0.9, 1.0 - 2.0**-40):
        spec = Constant(v=v)
        assert eval_delta(spec, -1.0, 4.0) == math.atanh(v)
        assert np.array_equal(eval_delta(spec, -np.ones(3), 4.0), np.full(3, math.atanh(v)))
        # V is v itself, not tanh(artanh v), so the grid and the plane
        # waves read the same number
        assert eval_V(spec, -1.0, 4.0) == spec.constant_value() == v
    assert eval_delta(Zero(), -1.0, 4.0) == 0.0


def test_every_kind_supplies_delta_and_inherits_tanh_of_it():
    # V = tanh(Delta) and dV/dx_perp^2 are written once, on Potential,
    # which has no delta of its own; Constant alone keeps V = v (above)
    assert not hasattr(Potential, "delta")
    for cls in (Zero, Constant, TanhOfG, YukawaTanh):
        assert callable(cls.delta)
        assert cls.dV_dxperp_sq is Potential.dV_dxperp_sq
    assert TanhOfG.V is YukawaTanh.V is Potential.V


@dataclass(frozen=True)
class MomentumTanh(Potential):
    """tanh(a e^{x_perp^2} / P^2): a P^2-dependent variant that exists
    only in this test, to show a variant needs no edit of the module and
    supplies only its rapidity and the derivative the kernels read."""

    a: float

    def delta(self, xps, P_sq):
        return self.a * np.exp(xps) / P_sq

    def ddelta_dP2(self, xps, P_sq):
        return -self.delta(xps, P_sq) / P_sq


def test_subclass_outside_the_module_runs_through_kernel_and_scan(reference_dV_dP2):
    spec = MomentumTanh(a=0.2)
    assert eval_V(spec, -1.0, 4.0) == math.tanh(0.2 * math.exp(-1.0) / 4.0)
    assert reference_dV_dP2(spec, -1.0, 4.0) == pytest.approx(
        eval_V(spec, -1.0, 4.0 + 1e-20j).imag / 1e-20, rel=1e-14
    )
    assert eval_dV_dxperp_sq(spec, -1.0, 4.0) == 0.0  # the base default
    grid = Grid(n=8, L=6.0)
    kernel = build_kernel("sazdjian", spec, 4.0, grid)
    V = np.tanh(0.2 * np.exp(-grid.radius_sq) / 4.0)
    assert np.allclose(kernel.A, 1.0 - V**2, rtol=0.0, atol=1e-15)
    assert np.all(kernel.B < 0.0)  # dV/dP^2 < 0 for a > 0
    rep = scan("sazdjian", spec, [4.0, 9.0], grid)
    assert rep.passed
    assert rep.min_eigenvalue <= float(np.min(kernel.A - np.abs(kernel.B)))


def test_domain_validation():
    with pytest.raises(PotentialDomainError):
        eval_V(GAUSS_BUMP, 1.0, 4.0)  # timelike separation
    with pytest.raises(PotentialDomainError):
        eval_V(GAUSS_BUMP, -1.0, -4.0)  # spacelike total momentum
    with pytest.raises(SingularOriginError):
        eval_V(YUKAWA, 0.0, 4.0)
    # non-singular variants are fine at the origin
    assert eval_V(GAUSS_BUMP, 0.0, 4.0) == pytest.approx(math.tanh(-0.25))


def test_yukawa_requires_positive_mu():
    with pytest.raises(ValueError):
        YukawaTanh(g1=1.0, g2=1.0, mu=-1.0)


def test_yukawa_rejects_overflowing_coupling():
    # g1 g2 overflows to inf, which the violation-radius bisection would
    # halve forever
    with pytest.raises(ValueError, match="finite"):
        YukawaTanh(g1=1e300, g2=1e300, mu=1.0)


def test_gaussian_requires_positive_width():
    with pytest.raises(ValueError):
        GaussianG(amplitude=1.0, width=0.0)


@pytest.mark.parametrize("width", [1e200, 1e-200])
def test_gaussian_rejects_a_width_whose_square_leaves_the_float_range(width):
    # 1e200**2 raised OverflowError when the potential was first evaluated
    with pytest.raises(ValueError, match="positive finite square"):
        GaussianG(amplitude=1.0, width=width)


def test_polynomial_g_derivative():
    g = PolynomialG(coeffs=(1.0, 2.0, 3.0))
    assert g.value(2.0) == pytest.approx(1.0 + 4.0 + 12.0)
    assert g.derivative(2.0) == pytest.approx(2.0 + 12.0)


def test_constant_g_flat():
    g = ConstantG(c=0.7)
    assert g.value(3.0) == 0.7
    assert g.derivative(3.0) == 0.0


def test_yukawa_y_matches_formula():
    # the positivity variable y = c(r)/|P^0|, read from the core
    y = float(YukawaTanh(g1=2.0, g2=3.0, mu=0.5).core(1.5)) / 4.0
    expect = (6.0 / FOUR_PI) * math.exp(-0.75) / (2.0 * 4.0 * 1.5)
    assert y == pytest.approx(expect, rel=1e-15)


def test_yukawa_y_is_half_at_omega_radius():
    # with unit couplings g1 g2 = 4 pi, mu = 1, P0 = 1 the y = 1/2
    # radius is the omega constant, root of r e^r = 1
    omega = float(lambertw(1.0).real)
    assert float(YUKAWA.core(omega)) / 1.0 == pytest.approx(0.5, abs=1e-15)


def test_y_of_validation():
    # the coupling y is computed from is checked once, when the
    # potential is built
    with pytest.raises(ValueError):
        YukawaTanh(g1=1.0, g2=1.0, mu=0.0)
    with pytest.raises(ValueError, match="finite"):
        YukawaTanh(g1=1e300, g2=-1e300, mu=1.0)
    # a repulsive coupling is a valid potential whose y = c(r)/|P^0| is
    # negative at every radius
    repulsive = YukawaTanh(g1=1.0, g2=-1.0, mu=1.0)
    assert float(repulsive.core(1.0)) / 2.0 == pytest.approx(
        -math.exp(-1.0) / (4.0 * FOUR_PI), rel=1e-15
    )
    for r in (1e-12, 0.5, 50.0):
        assert float(repulsive.core(r)) / 2.0 < 0.0


@settings(max_examples=50, deadline=None)
@given(
    xps=st.floats(min_value=-9.0, max_value=-0.01),
    P2=st.floats(min_value=0.5, max_value=25.0),
)
def test_yukawa_sign_is_attractive(xps, P2):
    # positive g1 g2 always gives a strictly negative potential
    assert eval_V(YUKAWA, xps, P2) < 0.0
