import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbdkit import currents
from tbdkit.currents import (
    PlaneWaveCurrent,
    coincidence_limit_term,
    conservation_sweep,
    defects,
    divergence1,
    divergence2,
    gauge_check,
    green_multiplier,
    j_add,
    j_free_current,
    surviving_divergence_term,
)
from tbdkit.kinematics import MassPair, minkowski_sq
from tbdkit.operators import (
    Grid,
    TwoBodyDiracSystem,
    equal_time_profile,
    free_product_state,
    plane_wave_solutions,
    plane_wave_state,
    state_residuals,
    field_from_modes,
    random_band_limited_spec,
)
from tbdkit.potentials import (
    Constant,
    FOUR_PI,
    YukawaTanh,
    Zero,
)
from tbdkit.scalar_product import build_kernel, densities, form_value
from tbdkit.spinor_algebra import build_gammas, gamma0_pair, lift1, lift2

MASSES = MassPair(1.0, 1.3)
P_REST = np.array([3.0, 0.0, 0.0, 0.0])
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@pytest.fixture(scope="module")
def gam():
    return build_gammas("dirac")


@pytest.fixture(scope="module")
def constant_v_system(gam):
    return TwoBodyDiracSystem(MASSES, Constant(v=0.3), gam)


def first_equation_state(system, p_spatial, which=0, P=P_REST):
    p0, basis = plane_wave_solutions(system, P, p_spatial, (-1.2, 0.5))[which]
    return plane_wave_state(P, p_spatial, p0, basis[:, 0])


@pytest.fixture(scope="module")
def state_pair(constant_v_system):
    # two first-equation solutions at different relative momenta; all
    # three defects are nonzero for this pair
    a = first_equation_state(constant_v_system, (0.0, 0.0, 0.0))
    b = first_equation_state(constant_v_system, (0.6, 0.0, 0.0))
    return a, b


@pytest.fixture(scope="module")
def free_pair(gam):
    free = TwoBodyDiracSystem(MASSES, Zero(), gam)
    a = free_product_state(gam, MASSES, (0.3, 0.0, 0.0))
    b = free_product_state(gam, MASSES, (0.0, 0.0, 0.0))
    return free, a, b


# ---------------------------------------------------------------------------
# Tensor current basics


def test_j_free_matches_manual_bilinear(gam, state_pair):
    a, b = state_pair
    ubar = a.u.conj() @ gamma0_pair(gam)
    J = j_free_current(gam, a, b).J
    for mu in range(4):
        for nu in range(4):
            manual = ubar @ lift1(gam, mu) @ lift2(gam, nu) @ b.u
            assert J[mu, nu] == pytest.approx(manual, abs=1e-14)


def test_j_free_current_collects_matrix_and_momenta(gam, state_pair):
    a, b = state_pair
    j = j_free_current(gam, a, b)
    assert j.J.shape == (4, 4)
    assert np.allclose(j.k1, a.p1 - b.p1)
    assert np.allclose(j.k2, a.p2 - b.p2)


def test_diagonal_time_component_is_unity(gam, state_pair):
    # ubar gamma_1^0 gamma_2^0 u collapses to u^dagger u = 1 for any
    # normalized state
    a, b = state_pair
    assert j_free_current(gam, a, a).J[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert j_free_current(gam, b, b).J[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_divergences_are_metric_contractions(gam, state_pair):
    a, b = state_pair
    j = j_free_current(gam, a, b)
    k1_lower = METRIC @ j.k1
    k2_lower = METRIC @ j.k2
    assert np.allclose(divergence1(j), 1j * k1_lower @ j.J, atol=1e-15)
    assert np.allclose(divergence2(j), 1j * j.J @ k2_lower, atol=1e-15)


def test_current_addition_requires_matching_momenta(gam, state_pair, free_pair):
    a, b = state_pair
    _, fa, fb = free_pair
    j1 = j_free_current(gam, a, b)
    j2 = j_free_current(gam, fa, fb)
    with pytest.raises(ValueError):
        j1 + j2
    total = j1 + j1
    assert np.allclose(total.J, 2.0 * j1.J)


# ---------------------------------------------------------------------------
# The dichotomy: free solutions conserve, interacting ones do not


def test_free_pair_conserves_both_indices(gam, free_pair):
    _, a, b = free_pair
    j = j_free_current(gam, a, b)
    assert np.max(np.abs(divergence1(j))) < 1e-12
    assert np.max(np.abs(divergence2(j))) < 1e-12


def test_interacting_pair_violates_conservation(gam, constant_v_system):
    a = first_equation_state(constant_v_system, (0.0, 0.0, 0.0), which=0)
    b = first_equation_state(constant_v_system, (0.0, 0.0, 0.0), which=1)
    j = j_free_current(gam, a, b)
    d1 = divergence1(j)
    assert np.max(np.abs(d1)) > 1e-3


def test_divergence_matches_closed_form_surviving_term(gam, constant_v_system):
    a = first_equation_state(constant_v_system, (0.0, 0.0, 0.0), which=0)
    b = first_equation_state(constant_v_system, (0.0, 0.0, 0.0), which=1)
    d_direct = divergence1(j_free_current(gam, a, b))
    d_closed = surviving_divergence_term(constant_v_system, a, b)
    assert np.max(np.abs(d_direct - d_closed)) < 1e-12


def test_closed_form_vanishes_for_free_states(free_pair):
    free, a, b = free_pair
    assert np.max(np.abs(surviving_divergence_term(free, a, b))) < 1e-12


# ---------------------------------------------------------------------------
# Defects


def test_defect_consistency_relations(constant_v_system, state_pair):
    a, b = state_pair
    df = defects(constant_v_system, a, b)
    k1_lower = METRIC @ df.k1
    k2_lower = METRIC @ df.k2
    # f = i k2.f1 = i k1.f2, all three built independently inside
    assert df.f == pytest.approx(1j * (k2_lower @ df.f1), abs=1e-13)
    assert df.f == pytest.approx(1j * (k1_lower @ df.f2), abs=1e-13)
    assert np.max(np.abs(df.f1)) > 1e-3
    assert np.max(np.abs(df.f2)) > 1e-3
    assert abs(df.f) > 1e-4


def test_defects_reject_non_solutions(constant_v_system, rng):
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    bogus = plane_wave_state(P_REST, (0, 0, 0), 0.1, u)
    good = first_equation_state(constant_v_system, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        defects(constant_v_system, good, bogus)


@pytest.mark.parametrize("p", [(0.3, 0.0, 0.0), (0.2, -0.7, 1.1)])
def test_free_product_states_have_zero_defects(gammas, p):
    # both states solve both free equations, in either representation,
    # so every defect of their free current vanishes
    free = TwoBodyDiracSystem(MASSES, Zero(), gammas)
    a = free_product_state(gammas, MASSES, p)
    b = free_product_state(gammas, MASSES, (0.0, 0.0, 0.0))
    for s in (a, b):
        assert max(state_residuals(free, s)) <= currents.RESIDUAL_TOL
    df = defects(free, a, b)
    assert np.max(np.abs(df.f1)) < 1e-12
    assert np.max(np.abs(df.f2)) < 1e-12
    assert abs(df.f) < 1e-12


def test_zero_defects_for_free_solutions(free_pair):
    free, a, b = free_pair
    df = defects(free, a, b)
    assert np.max(np.abs(df.f1)) < 1e-12
    assert np.max(np.abs(df.f2)) < 1e-12
    assert abs(df.f) < 1e-12


# ---------------------------------------------------------------------------
# Green multipliers and the completed current


def test_green_multiplier_defining_property(rng):
    for _ in range(20):
        k = rng.standard_normal(4)
        eps = 10.0 ** rng.uniform(-5, -1)
        k_sq = minkowski_sq(k)
        m_adv = green_multiplier(k, eps, "advanced")
        m_ret = green_multiplier(k, eps, "retarded")
        assert (k_sq + 2j * k[0] * eps) * m_adv == pytest.approx(-1.0, abs=1e-13)
        assert (k_sq - 2j * k[0] * eps) * m_ret == pytest.approx(-1.0, abs=1e-13)


def test_green_multiplier_validation():
    with pytest.raises(ValueError):
        green_multiplier([1.0, 0, 0, 0], -0.1, "advanced")
    with pytest.raises(ValueError):
        green_multiplier([1.0, 0, 0, 0], 0.1, "principal")


def test_green_multiplier_at_zero_epsilon_is_unregulated():
    for choice in ("advanced", "retarded"):
        assert green_multiplier([1.0, 0, 0, 0], 0.0, choice) == -1.0


def test_green_multiplier_rejects_lightlike_transfer_at_zero_epsilon():
    with pytest.raises(ValueError, match="lightlike momentum transfer"):
        green_multiplier([1.0, 1.0, 0, 0], 0.0, "advanced")
    with pytest.raises(ValueError, match=r"zero momentum transfer k = \[0.0, 0.0, 0.0, 0.0\]"):
        green_multiplier([0.0, 0, 0, 0], 0.0, "retarded")


def test_added_current_from_zero_defects_is_zero(free_pair):
    free, a, b = free_pair
    df = defects(free, a, b)
    j = j_add(df, "advanced", 1e-3)
    assert np.max(np.abs(j.J)) < 1e-11


def test_finite_epsilon_divergence_identity(gam, constant_v_system, state_pair):
    # before the regulator limit, div1 of the completed current equals
    # delta_1 (f1 - i m(k2) k2 f) with delta_1 = 2 i k1^0 eps / (k1^2 +
    # 2 i k1^0 eps); this pins the whole construction at finite eps
    a, b = state_pair
    df = defects(constant_v_system, a, b)
    for eps in (1e-2, 1e-3, 1e-4):
        total = j_free_current(gam, a, b) + j_add(df, "advanced", eps)
        d1 = divergence1(total)
        k1sq = minkowski_sq(df.k1)
        delta1 = 2j * df.k1[0] * eps / (k1sq + 2j * df.k1[0] * eps)
        m2 = green_multiplier(df.k2, eps, "advanced")
        predicted = delta1 * (df.f1 - 1j * m2 * df.k2 * df.f)
        assert np.max(np.abs(d1 - predicted)) < 1e-14


def test_conservation_sweep_converges_linearly_in_epsilon(constant_v_system, state_pair):
    a, b = state_pair
    sweep = conservation_sweep(constant_v_system, a, b)
    r1 = sweep.residuals1
    assert r1[0] > r1[1] > r1[2]
    # leading residual is linear in eps: one decade in eps buys one
    # decade in residual
    assert r1[0] / r1[1] == pytest.approx(10.0, rel=0.05)
    assert sweep.residual < 1e-8


def test_conservation_sweep_builds_one_free_current(constant_v_system, state_pair, monkeypatch):
    # the defects carry the free current they were computed from, and the
    # sweep completes that current
    built = []

    def counted(*args):
        built.append(j_free_current(*args))
        return built[-1]

    monkeypatch.setattr(currents, "j_free_current", counted)
    a, b = state_pair
    conservation_sweep(constant_v_system, a, b)
    assert len(built) == 1
    assert defects(constant_v_system, a, b).j_free is built[-1]


def test_conservation_sweep_retarded_choice(constant_v_system, state_pair):
    a, b = state_pair
    sweep = conservation_sweep(constant_v_system, a, b, green_choice="retarded")
    assert sweep.residual < 1e-8


@settings(max_examples=50, deadline=None)
@given(
    v=st.floats(0.15, 0.3),
    P0=st.floats(2.8, 3.1),
    pbx=st.floats(0.3, 0.6),
    choice=st.sampled_from(["advanced", "retarded"]),
)
def test_conservation_residual_is_rounding(gam, v, P0, pbx, choice):
    # at epsilon = 0 the completed divergences vanish identically, so
    # over perfbench's conserve draw ranges only rounding is left
    system = TwoBodyDiracSystem(MASSES, Constant(v=v), gam)
    P = np.array([P0, 0.0, 0.0, 0.0])
    a = first_equation_state(system, (0.0, 0.0, 0.0), P=P)
    b = first_equation_state(system, (pbx, 0.0, 0.0), P=P)
    assert conservation_sweep(system, a, b, choice).residual <= 1e-15


# ---------------------------------------------------------------------------
# Coincidence limit of the interaction term


def test_coincidence_term_quadratic_in_epsilon(reference_dV_dP2):
    pot = YukawaTanh(g1=math.sqrt(FOUR_PI), g2=math.sqrt(FOUR_PI), mu=1.0)
    exact = 4.0 * 4.0 * reference_dV_dP2(pot, -0.64, 4.0)
    errs = [
        abs(coincidence_limit_term(pot, -0.64, 2.0, eps) - exact) for eps in (1e-2, 1e-3)
    ]
    assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.05)


def test_coincidence_term_complex_step_gives_dV_dP2(reference_dV_dP2):
    pot = YukawaTanh(g1=math.sqrt(FOUR_PI), g2=math.sqrt(FOUR_PI), mu=1.0)
    for r in (0.4, 0.9, 1.7):
        term = coincidence_limit_term(pot, -(r**2), 2.0, 1e-20)
        exact = 4.0 * 4.0 * reference_dV_dP2(pot, -(r**2), 4.0)
        assert term == pytest.approx(exact, rel=1e-10)


def test_coincidence_term_requires_positive_epsilon():
    pot = YukawaTanh(g1=1.0, g2=1.0, mu=1.0)
    with pytest.raises(ValueError):
        coincidence_limit_term(pot, -1.0, 2.0, 0.0)


# ---------------------------------------------------------------------------
# Gauge restriction


@pytest.fixture(scope="module")
def gauge_setup(gam):
    system = TwoBodyDiracSystem(
        MASSES, YukawaTanh(g1=math.sqrt(FOUR_PI), g2=math.sqrt(FOUR_PI), mu=1.0), gam
    )
    grid = Grid(n=16, L=8.0)
    P = np.array([2.0, 0.0, 0.0, 0.0])
    spec = random_band_limited_spec(np.random.default_rng(7))
    return system, P, grid, spec


def _mode_sum(fld):
    """The equal-time profile as the sum of the field's mode profiles
    (every relative-energy phase is 1 at t = 0), an oracle for the one
    product over all waves that gauge_check builds."""
    out = np.zeros((16,) + (fld.grid.n,) * 3, dtype=complex)
    for _, chi in fld.modes:
        out += chi
    return out


def _phase_rounding(system, P, grid, parts):
    """Magnitude sum S = h^3 sum_x [|A| R + |B| R_sigma] of the terms of
    the sazdjian form on a profile pair, the depth d_sigma of sigma's
    chain and the depth of numpy's pairwise sum over the n^3 points.

    The profile is the sum of the M arrays in parts (M = 1 for the one
    array that gauge_check builds; its own rounding is shared by both
    densities), so rho and sigma expand into terms conj(q_m,c) q_m',c
    and conj(q_m,c) Gamma_cd q_m',d (Gamma = gamma_1^0 gamma_2^0) whose
    magnitudes, with Q_c = sum_m |q_m,c|, sum to R = sum_c Q_c^2 and
    R_sigma = sum_c Q_c (|Gamma| Q)_c. Depths count the operations a
    term passes through, a complex product counting 2:

    - rho: M - 1 additions in each of the two profile factors, the
      product (2), at most 15 component additions in the conjugating
      dot, in any order: 2M + 15;
    - sigma: as rho, plus one row of Gamma pb (16 complex products, 15
      additions: 17): 2M + 32;
    - numpy's pairwise sum of n^3 points: depth at most 14 +
      ceil(log2 n^3).
    """
    kernel = build_kernel("sazdjian", system.potential, minkowski_sq(P), grid)
    Q = sum(np.abs(q) for q in parts)
    abs_gamma_Q = (np.abs(gamma0_pair(system.gammas)) @ Q.reshape(16, -1)).reshape(Q.shape)
    R = np.sum(Q**2, axis=0)
    R_sigma = np.sum(Q * abs_gamma_Q, axis=0)
    S = float(np.sum(np.abs(kernel.A) * R + np.abs(kernel.B) * R_sigma) * grid.h**3)
    M, n = len(parts), grid.n
    return S, 2 * M + 32, 14 + math.ceil(math.log2(n**3))


def _gamma_bound(d, S):
    """sqrt(2) gamma_d S, gamma_d = d u / (1 - d u): the error of a sum
    of terms of magnitude sum S, each through at most d operations."""
    u = np.finfo(float).eps / 2
    return math.sqrt(2.0) * d * u / (1.0 - d * u) * S


def _relative_phase_bound(system, P, grid, parts):
    """Rounding bound on the sazdjian relative-phase difference
    h^3 sum_x [A (rho' - rho) + B (sigma' - sigma)] of the profile that
    sums parts, which is 0 in exact arithmetic for any phase of unit
    modulus (see _phase_rounding for S and the depths):

    - primed densities: the phase multiplies the summed profile once,
      after its M - 1 additions (2 per factor), and its modulus np.exp
      leaves within 2u of 1 (cos and sin each within one ulp; counted 2
      per factor): d_sigma + 8. Multiplying each part before the sum,
      as the per-mode route does, has the same count;
    - the tail, on the density differences: the subtraction, times A or
      B, A d_rho + B d_sigma, the pairwise sum and times h^3: 4 + the
      sum's depth.

    With D the sum of sigma's two depths and the tail (it exceeds rho's),
    |difference| <= sqrt(2) gamma_D S. This is a worst case: it assumes
    the rounding errors of all n^3 points align.
    """
    S, d_sigma, d_sum = _phase_rounding(system, P, grid, parts)
    return _gamma_bound(d_sigma + (d_sigma + 8) + 4 + d_sum, S)


def _mesh_phase(grid, c):
    """e^{+i c_spatial . x} from the grid's coordinate mesh."""
    mesh = np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij")
    return np.exp(1j * (c[1] * mesh[0] + c[2] * mesh[1] + c[3] * mesh[2]))


def _per_mode_transformed_profile(fld, c):
    """The equal-time profile of the relative transform by the per-mode
    route: every mode's relative energy shifted by c^0 and its profile
    multiplied by e^{+i c_spatial . x}, then the modes summed."""
    phase = _mesh_phase(fld.grid, c)
    modes = tuple((p0 + c[0], chi * phase[None]) for p0, chi in fld.modes)
    return _mode_sum(replace(fld, modes=modes))


@pytest.mark.parametrize("c", [(0.37, 0.21, -0.4, 0.11), (-0.5, 0.5, 0.5, -0.5), (0.0, 0.0, 0.0, 0.0)])
def test_gauge_profile_phase_matches_per_mode_route(gauge_setup, c):
    system, P, grid, spec = gauge_setup
    c = np.array(c)
    rep, _ = gauge_check(system, P, grid, spec, c, np.array([0.5, 0.0, 0.0, 0.0]))
    kernel = build_kernel("sazdjian", system.potential, minkowski_sq(P), grid)
    fld = field_from_modes(P, grid, spec)
    parts = [chi for _, chi in fld.modes]
    profile = _mode_sum(fld)
    rho, sigma = densities(system.gammas, profile, profile)
    moved = _per_mode_transformed_profile(fld, c)
    rho_out, sigma_out = densities(system.gammas, moved, moved)
    drift = form_value(kernel, rho_out - rho, sigma_out - sigma)
    assert abs(drift) <= _relative_phase_bound(system, P, grid, parts)
    assert abs(rep.difference) <= _relative_phase_bound(system, P, grid, [equal_time_profile(grid, spec)])
    after = form_value(kernel, rho_out, sigma_out)
    # Two routes that sum the same mode arrays and multiply by the same
    # phase array differ in value_after only by their own primed chains
    # (d_sigma + 4 each, the phase's modulus counted once: 4) and tails
    # (the product with A or B, the addition, the pairwise sum and h^3:
    # 3 + the sum's depth). gauge_check also groups the wave sum apart
    # from the per-mode route, as one sum of all W waves against M sums of
    # W_m waves and M - 1 additions; this bound leaves that uncharged, and
    # the gap reads 0.0 on each c here.
    S, d_sigma, d_sum = _phase_rounding(system, P, grid, parts)
    assert abs(rep.value_after - after) <= _gamma_bound(2 * (d_sigma + 4) + 4 + 2 * (3 + d_sum), S)
    # on gauge_check's own profile, the phase from the coordinate mesh
    # and a product into a new array give value_after bit for bit
    same = equal_time_profile(grid, spec) * _mesh_phase(grid, c)
    assert rep.value_after == form_value(kernel, *densities(system.gammas, same, same))


def test_gauge_relative_phase_leaves_norm_invariant(gauge_setup):
    system, P, grid, spec = gauge_setup
    rep, _ = gauge_check(system, P, grid, spec, np.array([0.37, 0.21, -0.4, 0.11]), np.array([0.5, 0.0, 0.0, 0.0]))
    assert rep.kind == "relative_only"
    assert rep.passed
    assert abs(rep.difference) <= _relative_phase_bound(system, P, grid, [equal_time_profile(grid, spec)])
    assert rep.independent_difference is None
    assert np.allclose(rep.P_before, rep.P_after)


def test_gauge_relative_phase_difference_is_pointwise(gammas):
    # A draw whose two rounded form values (~3.2e5) differed by 2 ulps,
    # 1.16e-10 > tol, when the difference was taken between them.
    system = TwoBodyDiracSystem(
        MASSES, YukawaTanh(g1=math.sqrt(FOUR_PI), g2=math.sqrt(FOUR_PI), mu=1.0), gammas
    )
    P = np.array([2.0, 0.0, 0.0, 0.0])
    spec = random_band_limited_spec(np.random.default_rng(964932733))
    c = np.array(
        [0.09367493294533591, -0.4474814800116277, -0.37937426040692157, 0.31878626448227454]
    )
    rep, _ = gauge_check(system, P, Grid(n=16, L=8.0), spec, c, np.array([0.5, 0.0, 0.0, 0.0]))
    assert rep.passed


def test_gauge_total_phase_shifts_kernel(gauge_setup):
    system, P, grid, spec = gauge_setup
    _, rep = gauge_check(system, P, grid, spec, np.array([0.37, 0.21, -0.4, 0.11]), np.array([0.5, 0.0, 0.0, 0.0]))
    assert rep.kind == "total_dependent"
    assert rep.passed
    # the kernel value genuinely changes...
    assert abs(rep.difference) > 1e-2
    # ...and by exactly the amount an independent kernel rebuild predicts
    assert abs(rep.difference - rep.independent_difference) < 1e-10
    assert rep.P_after[0] == pytest.approx(2.5)


def test_gauge_check_validation(gauge_setup, monkeypatch):
    # P + a must be a rest-frame momentum; it is config input, so it is
    # checked before any kernel is built
    def must_not_run(*args, **kwargs):
        raise AssertionError("a kernel was built before P + a was checked")

    monkeypatch.setattr(currents, "build_kernel", must_not_run)
    system, P, grid, spec = gauge_setup
    with pytest.raises(ValueError, match="rest frame"):
        gauge_check(system, P, grid, spec, np.zeros(4), np.array([0.5, 0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="timelike"):
        gauge_check(system, P, grid, spec, np.zeros(4), np.array([-2.0, 0.0, 0.0, 0.0]))
