import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbdkit import operators
from tbdkit.currents import RESIDUAL_TOL
from tbdkit.kinematics import MassPair, minkowski_sq
from tbdkit.operators import (
    SV_TOL,
    AliasingWarning,
    Grid,
    TwoBodyDiracSystem,
    compatibility_residual,
    field_from_modes,
    free_product_state,
    plane_wave_solutions,
    plane_wave_state,
    random_band_limited_field,
    state_residuals,
)
from tbdkit.potentials import (
    Constant,
    GaussianG,
    TanhOfG,
    Zero,
    eval_dV_dxperp_sq,
    eval_V,
)
from tbdkit.spinor_algebra import GammaSet, build_gammas, slash1, slash2

MASSES = MassPair(1.0, 1.3)
BUMP = TanhOfG(g=GaussianG(amplitude=0.03, width=1.2))
P_REST = np.array([3.0, 0.0, 0.0, 0.0])


def single_mode(grid, p0, m, u, P=P_REST):
    return field_from_modes(P, grid, [(p0, [(tuple(m), u)])])


def combine(*terms):
    """The field sum of c * fld over the (c, fld) terms, mode by mode;
    every fld has the first one's grid and relative energies."""
    first = terms[0][1]
    modes = []
    for i, (p0, _) in enumerate(first.modes):
        assert all(fld.modes[i][0] == p0 for _, fld in terms)
        modes.append((p0, sum(c * fld.modes[i][1] for c, fld in terms)))
    return replace(first, modes=tuple(modes))


def apply_D(system, fld, which):
    """D_which on every mode, from the pieces compatibility_residual runs:
    the potential, the wavenumber table, the transforms and the D
    spectrum."""
    P0 = fld.P[0]
    V = eval_V(system.potential, -fld.grid.radius_sq, minkowski_sq(fld.P))
    table = operators._gamma_table(system.gammas, np.ix_(*[fld.grid.wavenumbers] * 3))
    modes = []
    for p0, chi in fld.modes:
        chi4 = chi.reshape(4, 4, *chi.shape[1:])
        Vchi = V * chi4
        F_chi, F_Vchi = operators._fft(chi4), operators._fft(Vchi, out=Vchi)
        spec = operators._D_spectrum(system, which, P0 / 2 + p0, P0 / 2 - p0, table, F_chi, F_Vchi)
        modes.append((p0, operators._ifft(spec, out=spec).reshape(chi.shape)))
    return replace(fld, modes=tuple(modes))


def coord_mesh(grid):
    """Shape (3, n, n, n): the spatial coordinates of every grid point."""
    return np.stack(np.meshgrid(grid.axis, grid.axis, grid.axis, indexing="ij"))


def mode_phase(grid, m):
    mesh = coord_mesh(grid)
    return np.exp(
        2j * np.pi / grid.L * (m[0] * mesh[0] + m[1] * mesh[1] + m[2] * mesh[2])
    )


# ---------------------------------------------------------------------------
# Grid


def test_grid_axis_has_half_cell_offset():
    grid = Grid(n=8, L=8.0)
    assert grid.h == pytest.approx(1.0)
    assert 0.0 not in grid.axis
    assert np.allclose(grid.axis, -grid.axis[::-1])
    assert grid.axis[0] == pytest.approx(-3.5)


def test_grid_rejects_odd_or_tiny_n():
    with pytest.raises(ValueError):
        Grid(n=9, L=4.0)
    with pytest.raises(ValueError):
        Grid(n=0, L=4.0)
    with pytest.raises(ValueError):
        Grid(n=8, L=0.0)


@pytest.mark.parametrize("L", [1e120, 1e-120, 5e-324])
def test_grid_rejects_a_cell_volume_outside_the_float_range(L):
    # (L/n)^3 raised OverflowError, or underflowed to a zero field norm
    with pytest.raises(ValueError, match=r"grid.L = .* cell volume \(L/n\)\^3"):
        Grid(n=8, L=L)


def test_grid_wavenumbers_are_fft_frequencies():
    grid = Grid(n=8, L=4.0)
    assert np.allclose(grid.wavenumbers, 2.0 * np.pi * np.fft.fftfreq(8, d=0.5))


def test_grid_radius_never_vanishes():
    grid = Grid(n=8, L=6.0)
    assert np.min(grid.radius_sq) > 0.0


# ---------------------------------------------------------------------------
# Fields


def test_single_mode_norm():
    grid = Grid(n=8, L=6.0)
    u = np.zeros(16)
    u[3] = 2.0
    fld = single_mode(grid, 0.1, (1, 0, 0), u)
    assert fld.norm() == pytest.approx(2.0 * grid.L**1.5, rel=1e-13)


def test_field_from_modes_warns_on_aliasing():
    grid = Grid(n=8, L=6.0)
    u = np.zeros(16)
    u[0] = 1.0
    with pytest.warns(AliasingWarning):
        single_mode(grid, 0.1, (5, 0, 0), u)


def _per_wave_field(grid, waves):
    """A mode built by the per-wave accumulation that field_from_modes
    replaced: each wave's amp * phase added into chi in turn. Returns
    chi and the magnitude sum sum_w |amp_w| |phase_w| of its terms."""
    n = grid.n
    chi = np.zeros((16, n, n, n), dtype=complex)
    scale = np.zeros((16, n, n, n))
    for m, amp in waves:
        ex, ey, ez = np.exp(2j * np.pi / grid.L * np.outer(np.asarray(m, dtype=int), grid.axis))
        phase = ex[:, None, None] * ey[None, :, None] * ez[None, None, :]
        amp = np.asarray(amp, dtype=complex).reshape(16, 1, 1, 1)
        chi += amp * phase
        scale += np.abs(amp) * np.abs(phase)
    return chi, scale


def _wave_sum_bound(n_waves, scale):
    """Both routes form the axes' factors e^x, e^y, e^z of each wave by
    the same operations and multiply them with amp in different groupings:
    this oracle as amp ((e^x e^y) e^z), field_from_modes as
    (amp e^x)(e^y e^z). Each takes three complex products (2 each) per
    term and the n_waves - 1 additions of the W-term sum, in either order:
    per route a depth of W + 5, so at most sqrt(2) gamma_(2(W + 5)) of the
    terms' magnitude sum, gamma_d = d u / (1 - d u)."""
    u = np.finfo(float).eps / 2
    d = 2 * (n_waves + 5)
    return math.sqrt(2.0) * d * u / (1.0 - d * u) * scale


def _dirac_amplitudes():
    """The null spinors of the first equation at a constant potential in
    the Dirac representation, columns of the roots' bases."""
    system = TwoBodyDiracSystem(MASSES, Constant(0.3), build_gammas("dirac"))
    roots = plane_wave_solutions(system, P_REST, (0.2, 0.0, 0.0), p0_window=(-1.2, 0.5))
    return [basis[:, k] for _, basis in roots for k in range(basis.shape[1])]


@pytest.mark.parametrize("n", [8, 16])
def test_field_from_modes_matches_per_wave_sum(n):
    grid = Grid(n=n, L=6.0)
    rng = np.random.default_rng(n)
    amps = _dirac_amplitudes()
    waves = [(rng.integers(-2, 3, size=3), amps[w % len(amps)] * rng.standard_normal()) for w in range(5)]
    # one index outside [-n/2, n/2): it aliases, and still warns once
    waves.append(((n // 2, 0, -1), rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    spec = [(0.17, waves), (-0.4, []), (0.33, waves[:1])]
    with pytest.warns(AliasingWarning, match="outside the grid's representable range") as caught:
        fld = field_from_modes(P_REST, grid, spec)
    assert len(caught) == 1 and caught[0].filename == __file__
    for (p0, chi), (q0, ws) in zip(fld.modes, spec):
        expect, scale = _per_wave_field(grid, ws)
        assert p0 == q0
        assert np.all(np.abs(chi - expect) <= _wave_sum_bound(len(ws), scale))
    # a mode with no waves is the zero field
    assert not np.any(fld.modes[1][1])


def test_random_field_is_deterministic_and_band_limited():
    grid = Grid(n=16, L=10.5)
    f1 = random_band_limited_field(P_REST, grid, np.random.default_rng(3))
    f2 = random_band_limited_field(P_REST, grid, np.random.default_rng(3))
    assert combine((1.0, f1), (-1.0, f2)).norm() == 0.0
    assert f1.norm() > 0.0
    assert len(f1.modes) == 3
    for _, chi in f1.modes:
        spec = np.fft.fftn(chi, axes=(1, 2, 3))
        mask = np.ones((16, 16, 16), dtype=bool)
        for axis_modes in np.meshgrid(*[np.fft.fftfreq(16, d=1 / 16)] * 3, indexing="ij"):
            mask &= np.abs(axis_modes) <= 2
        leak = np.max(np.abs(spec[:, ~mask]))
        peak = np.max(np.abs(spec[:, mask]))
        assert leak <= 1e-12 * peak
    # the separable plane waves agree with e^{i 2 pi m.x / L} taken over
    # the full mesh, for the same draws
    rng = np.random.default_rng(3)
    for p0, chi in f1.modes:
        expect = np.zeros_like(chi)
        for _ in range(6):
            m = rng.integers(-2, 3, size=3)
            amp = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            expect += amp.reshape(16, 1, 1, 1) * mode_phase(grid, m)
        assert np.linalg.norm(chi - expect) <= 1e-14 * np.linalg.norm(expect)


# ---------------------------------------------------------------------------
# Operator application


def test_apply_matches_per_mode_matrix(rng):
    # on a single harmonic both operators act as explicit 16x16
    # matrices in the constituent momenta; build those independently
    gam = build_gammas("dirac")
    system = TwoBodyDiracSystem(MASSES, Constant(v=0.3), gam)
    grid = Grid(n=8, L=6.0)
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    p0, m = 0.21, (1, -2, 0)
    fld = single_mode(grid, p0, m, u)
    kappa = 2.0 * np.pi * np.asarray(m) / grid.L
    p1 = np.array([P_REST[0] / 2 + p0, *kappa])
    p2 = np.array([P_REST[0] / 2 - p0, *(-kappa)])
    eye = np.eye(16)
    M1 = slash1(gam, p1) - MASSES.m1 * eye + (slash2(gam, p2) - MASSES.m2 * eye) * 0.3
    M2 = slash2(gam, p2) + MASSES.m2 * eye + (slash1(gam, p1) + MASSES.m1 * eye) * 0.3
    phase = mode_phase(grid, m)
    for which, M in ((1, M1), (2, M2)):
        out = apply_D(system, fld, which)
        assert out.modes[0][0] == p0
        expect = (M @ u).reshape(16, 1, 1, 1) * phase
        assert np.max(np.abs(out.modes[0][1] - expect)) < 1e-13


def test_apply_is_linear(rng):
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    grid = Grid(n=8, L=6.0)
    a = random_band_limited_field(P_REST, grid, rng, max_index=1)
    b = random_band_limited_field(P_REST, grid, rng, max_index=1)
    lhs = apply_D(system, combine((2.0, a), (-0.5j, b)), 1)
    rhs = combine((2.0, apply_D(system, a, 1)), (-0.5j, apply_D(system, b, 1)))
    assert combine((1.0, lhs), (-1.0, rhs)).norm() < 1e-12 * max(lhs.norm(), 1.0)


def test_apply_requires_rest_frame():
    # a moving total momentum is rejected when the field is built, so
    # no operator sees one
    grid = Grid(n=8, L=6.0)
    u = np.zeros(16)
    u[0] = 1.0
    with pytest.raises(ValueError, match="rest frame"):
        single_mode(grid, 0.1, (1, 0, 0), u, P=np.array([3.0, 0.1, 0.0, 0.0]))
    fld = single_mode(grid, 0.1, (1, 0, 0), u, P=np.array([3.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="rest frame"):
        replace(fld, P=np.array([3.0, 0.1, 0.0, 0.0]))


def test_on_shell_mode_is_annihilated():
    # a first-equation dispersion root built into a grid harmonic must
    # be killed by D1 acting on the field
    gam = build_gammas("dirac")
    system = TwoBodyDiracSystem(MASSES, Constant(v=0.3), gam)
    grid = Grid(n=8, L=6.0)
    kappa = 2.0 * np.pi / grid.L
    roots = plane_wave_solutions(system, P_REST, (kappa, 0, 0), (-1.2, 0.5))
    assert roots
    p0, basis = roots[0]
    fld = single_mode(grid, p0, (1, 0, 0), basis[:, 0])
    out = apply_D(system, fld, 1)
    assert out.norm() < 1e-10 * fld.norm()


# ---------------------------------------------------------------------------
# Compatibility residual


def test_compatibility_zero_potential():
    system = TwoBodyDiracSystem(MASSES, Zero(), build_gammas("dirac"))
    grid = Grid(n=16, L=10.5)
    fld = random_band_limited_field(P_REST, grid, np.random.default_rng(11))
    assert compatibility_residual(system, fld) < 1e-13


def test_compatibility_composed_realization_is_discrete_identity():
    # with both commutators composed from the same discrete operators
    # the residual is pure roundoff at any resolution
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    for n in (8, 16):
        grid = Grid(n=n, L=10.5)
        fld = random_band_limited_field(P_REST, grid, np.random.default_rng(21))
        assert compatibility_residual(system, fld, "composed") < 1e-12


def test_compatibility_analytic_realization_converges():
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    rng = np.random.default_rng(31)
    res = {}
    for n in (16, 24):
        fld = random_band_limited_field(P_REST, Grid(n=n, L=10.5), np.random.default_rng(31))
        res[n] = compatibility_residual(system, fld, "analytic")
    assert res[16] < 1e-3
    assert res[24] < res[16] / 50.0


def test_compatibility_rejects_unknown_realization():
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    fld = random_band_limited_field(P_REST, Grid(n=8, L=10.5), np.random.default_rng(1), max_index=1)
    with pytest.raises(ValueError):
        compatibility_residual(system, fld, "exact")


def test_compatibility_representation_covariance():
    # the residual of a transformed field in the transformed
    # representation is identical; the intertwiner is built here from
    # scratch
    U4 = np.array(
        [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex
    ) / math.sqrt(2.0)
    dirac = build_gammas("dirac")
    weyl = build_gammas("weyl")
    for mu in range(4):
        assert np.allclose(U4 @ dirac.gamma[mu] @ U4.conj().T, weyl.gamma[mu], atol=1e-14)
    U16 = np.kron(U4, U4)
    grid = Grid(n=16, L=10.5)
    fld = random_band_limited_field(P_REST, grid, np.random.default_rng(41))
    rotated = replace(
        fld,
        modes=tuple(
            (p0, np.einsum("ab,bxyz->axyz", U16, chi)) for p0, chi in fld.modes
        ),
    )
    sys_d = TwoBodyDiracSystem(MASSES, BUMP, dirac)
    sys_w = TwoBodyDiracSystem(MASSES, BUMP, weyl)
    rd = compatibility_residual(sys_d, fld)
    rw = compatibility_residual(sys_w, rotated)
    assert rw == pytest.approx(rd, rel=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_residual_does_not_depend_on_a_dense_representation(seed):
    # a random unitary U makes U gamma^mu U^dagger a representation with
    # no zero entries, so the symbol tables cannot lean on a sparsity
    # pattern; the field rotates with kron(U, U)
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    dirac = build_gammas("dirac")
    dense = GammaSet("dense", np.stack([U @ g @ U.conj().T for g in dirac.gamma]))
    assert np.all(dense.gamma != 0)
    U16 = np.kron(U, U)
    fld = random_band_limited_field(P_REST, Grid(n=8, L=10.5), rng, max_index=1)
    rotated = replace(fld, modes=tuple((p0, np.einsum("ab,bxyz->axyz", U16, chi)) for p0, chi in fld.modes))
    sys_d = TwoBodyDiracSystem(MASSES, BUMP, dirac)
    sys_u = TwoBodyDiracSystem(MASSES, BUMP, dense)
    rd = compatibility_residual(sys_d, fld)
    assert compatibility_residual(sys_u, rotated) == pytest.approx(rd, rel=1e-12)
    assert compatibility_residual(sys_u, rotated, "composed") <= 1e-12


# The residual before transform sharing, rebuilt from mode-wise field
# sums (combine) alone; K_i, D_i and the commutators are written out
# here with the full wavenumber mesh and einsum contractions, sharing no
# code with the operators under test.


def _kinetic_oracle(gammas, particle, fld):
    """K_i psi: p_i^0 gamma_i^0 psi -+ sum_k gamma_i^k d(psi)/(i dx^k)."""
    k = fld.grid.wavenumbers
    kap = np.stack(np.meshgrid(k, k, k, indexing="ij"))
    sign = 1.0 if particle == 1 else -1.0
    sub = "ac,cbxyz->abxyz" if particle == 1 else "bc,acxyz->abxyz"
    modes = []
    for p0, chi in fld.modes:
        F = np.fft.fftn(chi.reshape(4, 4, *chi.shape[1:]), axes=(-3, -2, -1))
        p_0 = fld.P[0] / 2 + sign * p0
        spec = p_0 * np.einsum(sub, gammas.gamma[0], F)
        for j in range(3):
            spec -= sign * np.einsum(sub, gammas.gamma[j + 1], kap[j] * F)
        modes.append((p0, np.fft.ifftn(spec, axes=(-3, -2, -1)).reshape(chi.shape)))
    return replace(fld, modes=tuple(modes))


def _times(fld, f):
    return replace(fld, modes=tuple((p0, f * chi) for p0, chi in fld.modes))


def _D_oracle(system, psi, which):
    """D_1 psi = K_1 psi - m_1 psi + K_2(V psi) - m_2 V psi, and
    D_2 psi = K_2 psi + m_2 psi + K_1(V psi) + m_1 V psi."""
    Vpsi = _times(psi, eval_V(system.potential, -psi.grid.radius_sq, minkowski_sq(psi.P)))
    m1, m2 = system.masses.m1, system.masses.m2

    def K(particle, f):
        return _kinetic_oracle(system.gammas, particle, f)

    if which == 1:
        return combine((1.0, K(1, psi)), (-m1, psi), (1.0, K(2, Vpsi)), (-m2, Vpsi))
    return combine((1.0, K(2, psi)), (m2, psi), (1.0, K(1, Vpsi)), (m1, Vpsi))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("which", [1, 2])
def test_apply_D_matches_dense_oracle(gammas, which, n):
    system = TwoBodyDiracSystem(MASSES, BUMP, gammas)
    fld = random_band_limited_field(P_REST, Grid(n=n, L=10.5), np.random.default_rng(71))
    out = apply_D(system, fld, which)
    oracle = _D_oracle(system, fld, which)
    scale = max(np.max(np.abs(chi)) for _, chi in oracle.modes)
    for (_, got), (_, want) in zip(out.modes, oracle.modes):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _commutator_oracle(system, psi, particle, realization):
    """[K_i, V] psi, composed from the grid operators or from the gradient."""
    grid = psi.grid
    V = eval_V(system.potential, -grid.radius_sq, minkowski_sq(psi.P))
    if realization == "composed":
        return combine(
            (1.0, _kinetic_oracle(system.gammas, particle, _times(psi, V))),
            (-1.0, _times(_kinetic_oracle(system.gammas, particle, psi), V)),
        )
    dV = eval_dV_dxperp_sq(system.potential, -grid.radius_sq, minkowski_sq(psi.P))
    sub = "ac,cbxyz->abxyz" if particle == 1 else "bc,acxyz->abxyz"
    mesh = coord_mesh(grid)
    modes = []
    for p0, chi in psi.modes:
        chi4 = chi.reshape(4, 4, *chi.shape[1:])
        acc = sum(
            np.einsum(sub, system.gammas.gamma[j + 1], -2.0 * mesh[j] * dV * chi4)
            for j in range(3)
        )
        modes.append((p0, (1j if particle == 1 else -1j) * acc.reshape(chi.shape)))
    return replace(psi, modes=tuple(modes))


def _residual_oracle(system, fld, realization):
    d1 = _D_oracle(system, fld, 1)
    d2 = _D_oracle(system, fld, 2)
    lhs = combine((1.0, _D_oracle(system, d2, 1)), (-1.0, _D_oracle(system, d1, 2)))
    rhs = combine((-1.0, _commutator_oracle(system, d1, 1, realization)), (1.0, _commutator_oracle(system, d2, 2, realization)))
    return combine((1.0, lhs), (-1.0, rhs)).norm() / fld.norm()


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("realization", ["analytic", "composed"])
def test_compatibility_residual_matches_unshared_oracle(gammas, realization, n):
    system = TwoBodyDiracSystem(MASSES, BUMP, gammas)
    fld = random_band_limited_field(P_REST, Grid(n=n, L=10.5), np.random.default_rng(51))
    fused = compatibility_residual(system, fld, realization)
    oracle = _residual_oracle(system, fld, realization)
    assert fused == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("realization, per_mode", [("analytic", 7), ("composed", 8)])
def test_compatibility_residual_transform_and_potential_counts(monkeypatch, realization, per_mode):
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    fld = random_band_limited_field(P_REST, Grid(n=8, L=10.5), np.random.default_rng(61))
    assert len(fld.modes) == 3
    calls = {"fft": 0, "eval_V": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.fft, "fftn", counted("fft", np.fft.fftn))
    monkeypatch.setattr(np.fft, "ifftn", counted("fft", np.fft.ifftn))
    monkeypatch.setattr(operators, "eval_V", counted("eval_V", operators.eval_V))
    compatibility_residual(system, fld, realization)
    assert calls == {"fft": per_mode * 3, "eval_V": 1}


def test_operators_leave_the_input_field_unchanged():
    # the transforms run in place on temporaries, never on the field's modes
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    fld = random_band_limited_field(P_REST, Grid(n=8, L=10.5), np.random.default_rng(62))
    before = [chi.copy() for _, chi in fld.modes]
    for run in (
        lambda: compatibility_residual(system, fld, "analytic"),
        lambda: compatibility_residual(system, fld, "composed"),
        lambda: apply_D(system, fld, 1),
        lambda: apply_D(system, fld, 2),
    ):
        run()
        assert all(chi.tobytes() == old.tobytes() for (_, chi), old in zip(fld.modes, before))


def test_compatibility_warns_on_spectrally_full_field():
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    grid = Grid(n=8, L=6.0)
    u = np.zeros(16)
    u[0] = 1.0
    fld = single_mode(grid, 0.1, (3, 0, 0), u)
    with pytest.warns(AliasingWarning):
        compatibility_residual(system, fld)


# ---------------------------------------------------------------------------
# Plane-wave dispersion


def test_free_equal_mass_threshold_root():
    # the first equation constrains particle 1 alone: at threshold its
    # root p0 = 0 has an 8-dimensional null space, which holds the
    # closed-form product state
    masses = MassPair(1.0, 1.0)
    gam = build_gammas("dirac")
    free = TwoBodyDiracSystem(masses, Zero(), gam)
    roots = plane_wave_solutions(free, np.array([2.0, 0, 0, 0.0]), (0, 0, 0), (-0.5, 0.5))
    assert len(roots) == 1
    p0, basis = roots[0]
    assert p0 == pytest.approx(0.0, abs=1e-11)
    assert basis.shape == (16, 8)
    state = plane_wave_state(np.array([2.0, 0, 0, 0.0]), (0, 0, 0), p0, basis[:, 0])
    assert state_residuals(free, state)[0] < 1e-10
    u = free_product_state(gam, masses, (0, 0, 0)).u
    assert np.linalg.norm(u - basis @ (basis.conj().T @ u)) < 1e-12


def test_free_off_shell_momentum_has_no_roots():
    # at P0 = 2.5 particle 1 is on shell only at p0 = -0.25; a window
    # that keeps p_1^0 = 1.25 + p0 off 1 holds no root
    free = TwoBodyDiracSystem(MassPair(1.0, 1.0), Zero(), build_gammas("dirac"))
    P = np.array([2.5, 0, 0, 0.0])
    assert plane_wave_solutions(free, P, (0, 0, 0), (-0.2, 0.5)) == []
    assert [round(p0, 12) for p0, _ in plane_wave_solutions(free, P, (0, 0, 0), (-0.5, 0.5))] == [-0.25]


def test_free_moving_pair_root_at_energy_split():
    m1, m2, p = 1.0, 1.3, 0.4
    e1 = math.sqrt(m1**2 + p**2)
    e2 = math.sqrt(m2**2 + p**2)
    free = TwoBodyDiracSystem(MassPair(m1, m2), Zero(), build_gammas("dirac"))
    P = np.array([e1 + e2, 0, 0, 0.0])
    roots = plane_wave_solutions(free, P, (p, 0, 0), (-1.0, 1.0))
    split = 0.5 * (e1 - e2)
    assert any(abs(r[0] - split) < 1e-10 for r in roots)


FREE_MOMENTA = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.2, -0.7, 1.1), (5.0, 0.0, 0.0)]


@pytest.mark.parametrize("p", FREE_MOMENTA)
def test_free_product_state_solves_both_equations(gammas, p):
    # the closed-form u_1 x u_2 is a null vector of M_1 and of M_2
    free = TwoBodyDiracSystem(MASSES, Zero(), gammas)
    state = free_product_state(gammas, MASSES, p)
    assert np.linalg.norm(state.u) == pytest.approx(1.0, abs=1e-15)
    r1, r2 = state_residuals(free, state)
    assert r1 <= RESIDUAL_TOL and r2 <= RESIDUAL_TOL


def test_free_product_state_momenta_are_on_shell():
    # p_1 = (E_1, p), p_2 = (E_2, -p): P = (E_1 + E_2, 0), and the state is
    # the one plane_wave_state packages at p0 = (E_1 - E_2)/2
    p = (0.2, -0.7, 1.1)
    state = free_product_state(build_gammas("dirac"), MASSES, p)
    k = math.hypot(*p)
    e1, e2 = math.hypot(MASSES.m1, k), math.hypot(MASSES.m2, k)
    assert state.p1.tolist() == [e1, *p]
    assert state.p2.tolist() == [e2, *(-np.asarray(p))]
    assert minkowski_sq(state.p1) == pytest.approx(MASSES.m1**2, rel=1e-14)
    assert minkowski_sq(state.p2) == pytest.approx(MASSES.m2**2, rel=1e-14)
    packaged = plane_wave_state(state.p1 + state.p2, p, (e1 - e2) / 2, state.u)
    assert np.allclose(packaged.p1, state.p1, rtol=0, atol=1e-15)
    assert np.allclose(packaged.p2, state.p2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("m", [1e-300, 1e200, 1e300])
def test_free_product_state_is_finite_at_extreme_masses(m):
    # E_i = hypot(m_i, |p|) and each matrix divided by its E_i: no square
    # of a mass, and no norm of the factors, leaves the float range
    masses = MassPair(m, m)
    gam = build_gammas("dirac")
    state = free_product_state(gam, masses, (0.3, 0.0, 0.0))
    assert np.all(np.isfinite(state.u))
    assert np.linalg.norm(state.u) == pytest.approx(1.0, abs=1e-15)
    assert np.isfinite(state.p1[0]) and state.p1[0] >= m


def test_first_equation_roots_frozen():
    # constant v = 0.3, masses (1, 1.3), P0 = 3, zero relative momentum:
    # the two roots in (-1.2, 0.5) are exactly -4/5 and 17/65
    system = TwoBodyDiracSystem(MASSES, Constant(v=0.3), build_gammas("dirac"))
    roots = plane_wave_solutions(system, P_REST, (0, 0, 0), (-1.2, 0.5))
    assert len(roots) == 2
    assert roots[0][0] == pytest.approx(-0.8, abs=1e-11)
    assert roots[1][0] == pytest.approx(17.0 / 65.0, abs=1e-11)
    for p0, basis in roots:
        assert basis.shape == (16, 4)
        state = plane_wave_state(P_REST, (0, 0, 0), p0, basis[:, 0])
        r1, _ = state_residuals(system, state)
        assert r1 < 1e-10


def _first_equation_matrices(system, P, p_spatial, p0s):
    """M_1 = (p1.gamma_1 - m1) + v (p2.gamma_2 - m2) at p1 = P/2 + p,
    p2 = P/2 - p, p = (p0, p_spatial), for every p0 of p0s at once. The
    elementwise operations are those of slash1/slash2 and the solver's
    per-p0 build, in the same order, so each matrix is bit-equal to the
    one built for its p0 alone."""
    g = system.gammas.gamma
    v = system.potential.constant_value()
    P = np.asarray(P, dtype=float)
    p_spatial = np.asarray(p_spatial, dtype=float)

    def slash4(q0, q_spatial):
        out = q0[:, None, None] * g[0].astype(complex)
        for k in (1, 2, 3):
            out = out - q_spatial[k - 1] * g[k]
        return out

    eye4 = np.eye(4)[None]
    S1 = np.kron(slash4(P[0] / 2 + p0s, P[1:] / 2 + p_spatial), eye4)
    S2 = np.kron(eye4, slash4(P[0] / 2 - p0s, P[1:] / 2 - p_spatial))
    eye = np.eye(16)
    return S1 - system.masses.m1 * eye + (S2 - system.masses.m2 * eye) * v


def test_first_equation_roots_against_brute_scan(gammas):
    # independent check: dense sigma_min scan with step 1e-4 brackets
    # the same roots the solver returns
    system = TwoBodyDiracSystem(MASSES, Constant(v=0.3), gammas)
    p_spatial = (0.5, 0.0, 0.0)
    roots = plane_wave_solutions(system, P_REST, p_spatial, (-1.2, 0.5))
    assert roots
    grid_p0 = np.arange(-1.2, 0.5, 1e-4)
    matrices = _first_equation_matrices(system, P_REST, p_spatial, grid_p0)
    sig = np.linalg.svd(matrices, compute_uv=False)[:, -1]
    brute = grid_p0[
        [i for i in range(1, len(sig) - 1) if sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1] and sig[i] < 1e-3]
    ]
    assert len(brute) == len(roots)
    for (p0, _), b in zip(roots, brute):
        assert abs(p0 - b) < 2e-4


def _golden_minimum(f, lo, hi, steps=60):
    """Golden-section search for the minimum of f on [lo, hi]: f is
    V-shaped near a root of the pencil, so the bracket closes on it."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1.0 - ratio) * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(steps):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = lo + (1.0 - ratio) * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = f(b)
    return (a, fa) if fa <= fb else (b, fb)


SCAN_STEP = 5e-3


@settings(max_examples=15, deadline=None)
@given(
    v=st.floats(-0.9, 0.9),
    m1=st.floats(0.3, 2.0),
    m2=st.floats(0.3, 2.0),
    P0=st.floats(0.5, 5.0),
    p=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
)
# at v = 2^-24 the two roots near 3/4 lie 6e-8 apart, closer than ROOT_TOL
@example(v=2.0**-24, m1=1.0, m2=1.0, P0=0.5, p=(0.0, 0.0, 0.0))
def test_first_equation_roots_match_a_brute_scan(v, m1, m2, P0, p):
    # every returned root is a null direction of M_1, and a dense p0 scan
    # of sigma_min(M_1), each of its dips refined, finds no other: a root
    # r lies within half a step of a scan point, where sigma_min <=
    # |p0 - r| ||B|| < SCAN_STEP (||B|| <= 1 + |v|), so every dip below
    # that is refined, and one that reaches SV_TOL must be a root
    system = TwoBodyDiracSystem(MassPair(m1, m2), Constant(v=v), build_gammas("dirac"))
    P = np.array([P0, 0.0, 0.0, 0.0])
    lo, hi = -3.0, 3.0
    roots = np.array([p0 for p0, _ in plane_wave_solutions(system, P, p, (lo, hi))])

    def sigma_min(p0s):
        return np.linalg.svd(_first_equation_matrices(system, P, p, np.atleast_1d(p0s)), compute_uv=False)[:, -1]

    if roots.size:
        assert np.all(sigma_min(roots) < SV_TOL)
    grid_p0 = np.linspace(lo, hi, int(round((hi - lo) / SCAN_STEP)) + 1)
    sig = sigma_min(grid_p0)
    dips = []
    for i in range(1, len(sig) - 1):
        if sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1] and sig[i] < SCAN_STEP:
            at, depth = _golden_minimum(lambda x: sigma_min(x)[0], grid_p0[i - 1], grid_p0[i + 1])
            if depth < SV_TOL:
                dips.append(at)
    for at in dips:
        assert np.min(np.abs(roots - at), initial=np.inf) < 1e-6
    # the premise, at every returned root: its nearest scan point reads
    # below SCAN_STEP (roots closer than a few steps can share one dip)
    for r in roots:
        assert sig[np.argmin(np.abs(grid_p0 - r))] < SCAN_STEP


def test_plane_wave_state_is_normalized(rng):
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = plane_wave_state(np.array([2.4, 0, 0, 0.0]), (0.1, 0, 0), 0.05, u)
    assert np.linalg.norm(state.u) == pytest.approx(1.0, abs=1e-14)
    assert state.p1[0] == pytest.approx(1.25)
    assert state.p2[0] == pytest.approx(1.15)
    assert np.allclose(state.p1[1:], [0.1, 0, 0])
    assert np.allclose(state.p2[1:], [-0.1, 0, 0])
