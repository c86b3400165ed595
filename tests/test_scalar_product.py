import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbdkit import scalar_product
from tbdkit.kinematics import MassPair, minkowski_sq
from tbdkit.operators import (
    Grid,
    InternalField,
    field_from_modes,
    random_band_limited_field,
)
from tbdkit.potentials import (
    Constant,
    FOUR_PI,
    GaussianG,
    TanhOfG,
    YukawaTanh,
    Zero,
    eval_delta,
    eval_V,
)
from tbdkit.positivity import violation_radius
from tbdkit.scalar_product import build_kernel, densities, form_pair, form_value
from tbdkit.spinor_algebra import GammaSet, build_gammas, gamma0_pair

P2 = np.array([2.0, 0.0, 0.0, 0.0])
P2_SQ = 4.0  # minkowski_sq(P2)
YUKAWA = YukawaTanh(g1=math.sqrt(FOUR_PI), g2=math.sqrt(FOUR_PI), mu=1.0)


@pytest.fixture(scope="module")
def gam():
    return build_gammas("dirac")


def unit_mode(grid, m, component=0, p0=0.1, P=P2):
    u = np.zeros(16)
    u[component] = 1.0
    return field_from_modes(P, grid, [(p0, [(tuple(m), u)])])


def equal_time_profile(fld):
    """phi(0, x) of a field as the sum of its mode profiles (every
    relative-energy phase is 1 at t = 0)."""
    return sum(chi for _, chi in fld.modes)


def form(kernel, field_a, field_b, gammas):
    """The kernel's quadratic form between two fields at equal time: the
    form value on the densities of their equal-time profiles."""
    pa, pb = equal_time_profile(field_a), equal_time_profile(field_b)
    return form_value(kernel, *densities(gammas, pa, pb))


def free_product(field_a, field_b, gammas):
    """The free flavor's form at the fields' grid and P^2."""
    kernel = build_kernel("free", Zero(), minkowski_sq(field_a.P), field_a.grid)
    return form(kernel, field_a, field_b, gammas)


def gaussian_profile_field(grid, width, component, P=P2):
    chi = np.zeros((16,) + (grid.n,) * 3, dtype=complex)
    chi[component] = np.exp(-grid.radius_sq / (2.0 * width**2))
    return InternalField(P=P, grid=grid, modes=((0.0, chi),))


# ---------------------------------------------------------------------------
# Free product


def test_free_product_of_harmonics_is_orthonormal(gam):
    grid = Grid(n=8, L=6.0)
    a = unit_mode(grid, (1, 0, 0))
    b = unit_mode(grid, (0, 2, 0))
    # same harmonic: exactly |u|^2 L^3; distinct harmonics: exactly 0
    assert free_product(a, a, gam) == pytest.approx(grid.L**3, rel=1e-13)
    assert abs(free_product(a, b, gam)) < 1e-12


def test_free_product_gaussian_oracle(gam):
    # analytic integral of a spherical gaussian against the Riemann sum
    grid = Grid(n=32, L=10.5)
    width = 1.0
    fld = gaussian_profile_field(grid, width, component=3)
    expect = (math.pi * width**2) ** 1.5
    assert free_product(fld, fld, gam) == pytest.approx(expect, rel=1e-8)


def test_free_product_is_sesquilinear(gam, rng):
    grid = Grid(n=8, L=6.0)
    a = random_band_limited_field(P2, grid, rng, max_index=1)
    b = random_band_limited_field(P2, grid, rng, max_index=1)
    c = random_band_limited_field(P2, grid, rng, max_index=1)
    combined = replace(
        b, modes=tuple((p0, (0.3 + 1j) * chi_b - 2.0 * chi_c) for (p0, chi_b), (_, chi_c) in zip(b.modes, c.modes))
    )
    lhs = free_product(a, combined, gam)
    rhs = (0.3 + 1j) * free_product(a, b, gam) - 2.0 * free_product(a, c, gam)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert free_product(a, b, gam) == pytest.approx(
        np.conj(free_product(b, a, gam)), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Kernel construction


def test_free_kernel_coefficients():
    grid = Grid(n=8, L=6.0)
    kernel = build_kernel("free", Zero(), P2_SQ, grid)
    # the written bracket gamma_1^0 gamma_2^0 sits swapped in the form:
    # the quadratic form of the bar convention is the identity
    assert np.all(kernel.B == 0.0)
    assert np.all(kernel.A == 1.0)


def test_sazdjian_kernel_reduces_to_free_for_zero_potential():
    grid = Grid(n=8, L=6.0)
    kernel = build_kernel("sazdjian", Zero(), P2_SQ, grid)
    free = build_kernel("free", Zero(), P2_SQ, grid)
    assert np.allclose(kernel.B, free.B)
    assert np.allclose(kernel.A, free.A)


def test_sazdjian_kernel_constant_potential():
    grid = Grid(n=8, L=6.0)
    kernel = build_kernel("sazdjian", Constant(v=0.3), P2_SQ, grid)
    # written 4 P^2 dV/dP^2 1 + (1 - V^2) gamma_1^0 gamma_2^0, swapped
    assert np.allclose(kernel.B, 0.0)
    assert np.allclose(kernel.A, 1.0 - 0.09)


def test_crater_kernel_is_identity_for_momentum_independent_potentials():
    grid = Grid(n=8, L=6.0)
    for pot in (Zero(), Constant(v=0.4), TanhOfG(g=GaussianG(amplitude=0.5, width=1.0))):
        # the crater bracket is written against psi^dagger: no swap
        kernel = build_kernel("crater", pot, P2_SQ, grid)
        assert np.allclose(kernel.A, 1.0)
        assert np.allclose(kernel.B, 0.0)


def test_yukawa_kernels_match_potential_evaluations(reference_dV_dP2):
    grid = Grid(n=8, L=4.0)
    P_sq = 2.25
    saz = build_kernel("sazdjian", YUKAWA, P_sq, grid)
    cra = build_kernel("crater", YUKAWA, P_sq, grid)
    i, j, k = 2, 5, 1
    xps = -grid.radius_sq[i, j, k]
    V = eval_V(YUKAWA, xps, P_sq)
    dV = reference_dV_dP2(YUKAWA, xps, P_sq)
    # the written sazdjian pair sits swapped in the form, crater's does not
    assert saz.B[i, j, k] == pytest.approx(4.0 * P_sq * dV, rel=1e-14)
    assert saz.A[i, j, k] == pytest.approx(1.0 - V**2, rel=1e-14)
    assert cra.A[i, j, k] == 1.0
    # for this potential Delta and V have the same P^2 slope scaled by
    # cosh^2, checked through the closed forms
    assert cra.B[i, j, k] == pytest.approx(
        -4.0 * P_sq * dV * math.cosh(math.atanh(V)) ** 2, rel=1e-12
    )


EPS = 2.0**-52
TINY = 5e-324  # the smallest subnormal, the absolute rounding error of each operation


@settings(max_examples=200, deadline=None)
@given(
    log_g1=st.floats(-3.0, 5.0),
    log_g2=st.floats(-3.0, 5.0),
    sign=st.sampled_from([1.0, -1.0]),
    log_mu=st.floats(-9.0, 2.0),
    log_P0=st.floats(-3.0, 3.0),
)
def test_sazdjian_form_eigenvalue_is_sech_sq_times_crater(log_g1, log_g2, sign, log_mu, log_P0):
    # With b = 4 P^2 dDelta/dP^2, sazdjian A - |B| = sech^2(Delta) (1 - |b|)
    # and crater A - |B| = 1 - |b|. Both flavors read the same float b
    # and the sazdjian A is the float s = sech^2(Delta), so
    # saz = fl(s - fl(s |b|)) and ref = fl(s fl(1 - |b|)) differ by at
    # most s |b| u + 3 s |1 - |b|| u <= 4 u s (1 + |b|) to first order in
    # the unit roundoff u = EPS / 2, plus the absolute error of the four
    # operations where s is subnormal; the bound below is twice that.
    pot = YukawaTanh(g1=sign * 10.0**log_g1, g2=10.0**log_g2, mu=10.0**log_mu)
    P0 = 10.0**log_P0
    r = violation_radius(pot, P0) * np.logspace(-3.0, 3.0, 401)
    s, B_saz = form_pair("sazdjian", pot, P0 * P0, -r * r)
    A_cra, B_cra = form_pair("crater", pot, P0 * P0, -r * r)
    assert np.all(A_cra == 1.0)
    b = np.abs(B_cra)
    assert np.all(np.isfinite(b))
    saz = s - np.abs(B_saz)
    cra = A_cra - b
    assert np.all(np.abs(saz - s * cra) <= 4.0 * EPS * s * (1.0 + b) + 8.0 * TINY)
    # fl is monotone and s > 0, so fl(s |b|) < s only where |b| < 1: the
    # signs never disagree where the sazdjian value is nonzero
    nonzero = saz != 0.0
    assert np.array_equal(np.sign(saz[nonzero]), np.sign(cra[nonzero]))
    assert np.any(cra < 0.0) and np.any(cra > 0.0)  # the radii straddle the ball's edge


def test_sazdjian_A_does_not_cancel_in_the_core():
    # radius defaults (Delta = -c(r) at P^0 = 1): at r = 0.05, 1 - V^2 is
    # off by 2.8e-9 relative, and at r = 0.02 it is 0.0; sech^2(Delta)
    # against its form 4 e^{-2|Delta|} / (1 + e^{-2|Delta|})^2
    for r, max_ulps in ((0.05, 4), (0.02, 4)):
        A, _ = form_pair("sazdjian", YUKAWA, 1.0, np.array(-r * r))
        delta = abs(eval_delta(YUKAWA, -r * r, 1.0))
        q = math.exp(-2.0 * delta)
        assert abs(float(A) - 4.0 * q / (1.0 + q) ** 2) <= max_ulps * EPS * float(A)
    assert 1.0 - eval_V(YUKAWA, -0.02**2, 1.0) ** 2 == 0.0


def test_kernel_form_matrix_is_hermitian(gam):
    # A 1 + B gamma_1^0 gamma_2^0 is Hermitian when A and B are real
    g = gamma0_pair(gam)
    assert np.array_equal(g, g.conj().T)
    grid = Grid(n=8, L=4.0)
    for flavor in ("free", "sazdjian", "crater"):
        kernel = build_kernel(flavor, YUKAWA, P2_SQ, grid)
        assert np.isrealobj(kernel.A) and np.isrealobj(kernel.B)


def test_build_kernel_validation(rng):
    grid = Grid(n=8, L=4.0)
    with pytest.raises(ValueError):
        build_kernel("euclidean", Zero(), P2_SQ, grid)
    # a moving total momentum is outside the domain of the rest-frame
    # kernel even at the kernel's own P^2; no such field can be built
    with pytest.raises(ValueError, match="rest frame"):
        replace(random_band_limited_field(P2, grid, rng, max_index=1), P=np.array([2.0, 0.3, 0.0, 0.0]))
    with pytest.raises(ValueError):
        build_kernel("free", Zero(), 0.0, grid)


# ---------------------------------------------------------------------------
# Interacting product


@pytest.mark.parametrize(
    "flavor, expect", [("sazdjian", (1, 1)), ("crater", (0, 1)), ("free", (0, 0))], ids=["sazdjian", "crater", "free"]
)
def test_form_pair_calls_each_evaluator_at_most_once(monkeypatch, flavor, expect):
    # b = 4 P^2 dDelta/dP^2 is formed once; only sazdjian reads Delta, so
    # crater never evaluates a Delta it does not use
    calls = {"eval_delta": 0, "eval_ddelta_dP2": 0}
    for name in calls:
        original = getattr(scalar_product, name)

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(scalar_product, name, counted)
    form_pair(flavor, YUKAWA, P2_SQ, -np.linspace(0.1, 2.0, 64) ** 2)
    assert (calls["eval_delta"], calls["eval_ddelta_dP2"]) == expect


def test_free_flavor_reproduces_free_product(gam):
    grid = Grid(n=8, L=6.0)
    kernel = build_kernel("free", Zero(), P2_SQ, grid)
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_band_limited_field(P2, grid, rng, max_index=1)
        b = random_band_limited_field(P2, grid, rng, max_index=1)
        lhs = form(kernel, a, b, gam)
        # the plain product h^3 sum over components and points of conj(phi_a) phi_b
        pa, pb = equal_time_profile(a), equal_time_profile(b)
        rhs = complex(np.sum(pa.conj() * pb) * grid.h**3)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_interacting_self_product_is_real(gam, rng):
    grid = Grid(n=8, L=6.0)
    for flavor in ("sazdjian", "crater"):
        kernel = build_kernel(flavor, YUKAWA, P2_SQ, grid)
        fld = random_band_limited_field(P2, grid, rng, max_index=1)
        val = form(kernel, fld, fld, gam)
        assert abs(val.imag) < 1e-10 * abs(val.real)


def test_negative_norm_state_inside_violation_ball(gam):
    # a state concentrated well inside the Yukawa violation radius with
    # the gamma_1^0 gamma_2^0 = -1 spinor orientation has negative
    # Sazdjian norm
    grid = Grid(n=32, L=4.0)
    P = np.array([1.0, 0.0, 0.0, 0.0])
    kernel = build_kernel("sazdjian", YUKAWA, minkowski_sq(P), grid)
    gp = np.real(np.diag(gamma0_pair(gam)))
    component = int(np.argmin(gp))
    assert gp[component] == -1.0
    fld = gaussian_profile_field(grid, width=0.15, component=component, P=P)
    val = form(kernel, fld, fld, gam)
    assert val.real < -1e-4
    # the same profile on the +1 orientation keeps a positive norm
    plus = gaussian_profile_field(grid, width=0.15, component=int(np.argmax(gp)), P=P)
    assert form(kernel, plus, plus, gam).real > 0.0


def _dense_gammas(seed):
    # U gamma^mu U^dagger for a QR-drawn unitary U: a representation in
    # which gamma_1^0 gamma_2^0 has no zero entries
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    dirac = build_gammas("dirac")
    return GammaSet("dense", np.stack([U @ g @ U.conj().T for g in dirac.gamma]))


def _per_component_form(kernel, gammas, pa, pb):
    """The per-component formula h^3 sum_{c,x} conj(pa) (A pb + B Gamma pb)
    that the density form replaced, with Gamma = gamma_1^0 gamma_2^0,
    and the magnitude sum S = h^3 sum |pa| (|A| |pb| + |B| |Gamma| |pb|)
    of its terms."""
    A, B = kernel.A, kernel.B
    g = gamma0_pair(gammas)
    g_pb = (g @ pb.reshape(16, -1)).reshape(pb.shape)
    terms = pa.conj() * (A[None] * pb + B[None] * g_pb)
    abs_g_pb = (np.abs(g) @ np.abs(pb).reshape(16, -1)).reshape(pb.shape)
    scale = np.sum(np.abs(pa) * (np.abs(A)[None] * np.abs(pb) + np.abs(B)[None] * abs_g_pb))
    h3 = kernel.grid.h**3
    return complex(np.sum(terms) * h3), float(scale * h3)


def _rounding_bound(n, scale):
    """Both routes sum the same 16 n^3 products and differ only in
    rounding. A term passing through at most D floating-point operations
    (a complex product counting 2) carries an error of at most
    sqrt(2) gamma_D of its magnitude, gamma_D = D u / (1 - D u), so the
    routes differ by at most sqrt(2) gamma_(D_new + D_old) S. numpy's
    pairwise sum of N complex values has depth at most 14 + ceil(log2 N)
    (8 interleaved accumulators over blocks of 128 scalars, their
    remainder and combination, then one level per halving)."""
    u = np.finfo(float).eps / 2
    gamma_pb = 2 + 15  # one row of Gamma pb: 16 complex products, 15 adds
    # density route: Gamma pb, the conjugating dot with pa over 16
    # components (a product and at most 15 adds, in any order), times A
    # or B, A rho + B sigma, sum over n^3 points, times h^3
    d_new = gamma_pb + 2 + 15 + 1 + 1 + 14 + math.ceil(math.log2(n**3)) + 1
    # per-component route: Gamma pb, times B, plus A pb, times conj(pa),
    # sum over 16 n^3 terms, times h^3
    d_old = gamma_pb + 1 + 1 + 2 + 14 + math.ceil(math.log2(16 * n**3)) + 1
    d = d_new + d_old
    return math.sqrt(2.0) * d * u / (1.0 - d * u) * scale


@pytest.mark.parametrize("flavor", ["free", "sazdjian", "crater"])
@pytest.mark.parametrize("representation", ["dirac", "weyl", "dense"])
def test_density_form_matches_per_component_formula(flavor, representation):
    gam = _dense_gammas(5) if representation == "dense" else build_gammas(representation)
    grid = Grid(n=8, L=4.0)
    kernel = build_kernel(flavor, YUKAWA, P2_SQ, grid)
    rng = np.random.default_rng(23)
    a = random_band_limited_field(P2, grid, rng, max_index=1)
    b = random_band_limited_field(P2, grid, rng, max_index=1)
    pa, pb = (sum(chi for _, chi in f.modes) for f in (a, b))
    for fa, fb, qa, qb in ((a, b, pa, pb), (a, a, pa, pa)):
        expect, scale = _per_component_form(kernel, gam, qa, qb)
        got = form(kernel, fa, fb, gam)
        assert abs(got - expect) <= _rounding_bound(grid.n, scale)
