import hashlib
import math
import tracemalloc
import warnings
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
    InternalField,
    TwoBodyDiracSystem,
    compatibility_residual,
    equal_time_profile,
    free_product_state,
    plane_wave_solutions,
    plane_wave_state,
    first_equation_residual,
    random_band_limited_field,
)
from tbdkit.potentials import (
    Constant,
    GaussianG,
    TanhOfG,
    eval_dV_dxperp_sq,
    eval_V,
)
from tbdkit.spinor_algebra import GammaSet, build_gammas

MASSES = MassPair(1.0, 1.3)
BUMP = TanhOfG(g=GaussianG(amplitude=0.03, width=1.2))
P_REST = np.array([3.0, 0.0, 0.0, 0.0])


def single_mode(grid, p0, m, u, P=P_REST):
    return InternalField(P=P, grid=grid, modes=((p0, [m], [u]),))


def samples(fld):
    """The field's relative-energy modes as plain (p0, chi) pairs, chi
    the samples (16, n, n, n) of the mode's waves."""
    return [(p0, operators._wave_sum(fld.grid, m, amps)) for p0, m, amps in fld.modes]


def superpose(*terms):
    """The field sum of c * fld over the (c, fld) terms, as one field
    whose modes hold every term's waves; every fld has the first one's
    grid and relative energies."""
    first = terms[0][1]
    modes = []
    for i, (p0, _, _) in enumerate(first.modes):
        assert all(fld.modes[i][0] == p0 for _, fld in terms)
        m = np.concatenate([fld.modes[i][1] for _, fld in terms])
        modes.append((p0, m, np.concatenate([c * fld.modes[i][2] for c, fld in terms])))
    return replace(first, modes=tuple(modes))


def combine(*terms):
    """The mode list sum of c * modes over the (c, modes) terms, mode by
    mode; every list has the first one's relative energies."""
    first = terms[0][1]
    out = []
    for i, (p0, _) in enumerate(first):
        assert all(modes[i][0] == p0 for _, modes in terms)
        out.append((p0, sum(c * modes[i][1] for c, modes in terms)))
    return out


def modes_norm(grid, modes):
    """sqrt(sum_modes ||chi||^2 h^3) of a mode list, from its samples."""
    return math.sqrt(sum(np.sum(np.abs(chi) ** 2) for _, chi in modes) * grid.h**3)


def apply_D(system, fld, which):
    """D_which on every mode as a mode list, from the pieces
    compatibility_residual runs: the potential, the dictionary of scalar
    fields shared by the modes, each mode's points and basis, and the
    product of D's coefficients with the basis."""
    grid, n, P0 = fld.grid, fld.grid.n, fld.P[0]
    r2, index = grid.radial
    V = eval_V(system.potential, -r2, minkowski_sq(fld.P))[index]
    points = [operators._mode_points(grid, m, amps) for _, m, amps in fld.modes]
    h, rows = operators._dictionary(V, points, operators._axis_matrices(grid))
    out = []
    for (p0, _, _), (k, c) in zip(fld.modes, points):
        U = len(k)
        terms = operators._D_terms(system, P0 / 2 + p0, P0 / 2 - p0)[which - 1]
        coefficients = operators._coefficients(terms, grid.wavenumbers[k], c.reshape(U, 4, 4))
        basis = operators._basis(grid, V, h, rows, k, slice(None), np.empty((5 * U, n, n, n), complex))
        out.append((p0, (coefficients.transpose(2, 3, 0, 1).reshape(16, 5 * U) @ basis.reshape(5 * U, n**3)).reshape(16, n, n, n)))
    return out


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
    r2, _ = Grid(n=8, L=6.0).radial
    assert r2[0] > 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24).map(lambda m: 2 * m), L=st.floats(-100.0, 100.0).map(lambda e: 10.0**e))
@example(n=24, L=5.0)
@example(n=10, L=10.5)
def test_grid_radial_groups_points_by_integer_shell(reference_radius_sq, n, L):
    grid = Grid(n=n, L=L)
    r2, index = grid.radial
    assert index.shape == (n, n, n)
    assert np.all(np.diff(r2) > 0)  # sorted and distinct
    assert np.unique(index).size == r2.size  # every radius is a grid point's
    assert np.array_equal(r2[index].view(np.int64), reference_radius_sq(grid).view(np.int64))


@pytest.mark.parametrize("n, L", [(16, 10.5), (24, 10.5), (32, 10.5), (32, 4.0), (16, 8.0), (8, 6.0)])
def test_grid_radial_is_the_axis_sum_on_dyadic_grids(n, L):
    # h is dyadic, so every coordinate, square and sum is exact and
    # (h/2)^2 q is the float sum (s_i + s_j) + s_k of the squared axis
    # coordinates, bit for bit
    grid = Grid(n=n, L=L)
    r2, index = grid.radial
    s = grid.axis**2
    assert np.array_equal(r2[index].view(np.int64), (s[:, None, None] + s[None, :, None] + s).view(np.int64))


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
    # the warning names the line that builds the field
    with pytest.warns(AliasingWarning, match=r"index \(5, 0, 0\) outside") as caught:
        single_mode(grid, 0.1, (5, 0, 0), u)
    assert len(caught) == 1 and caught[0].filename == __file__


def _per_wave_field(grid, waves):
    """A mode's samples by per-wave accumulation: each wave's
    amp * phase added into chi in turn. Returns
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
    this oracle as amp ((e^x e^y) e^z), _wave_sum as
    (amp e^x)(e^y e^z). Each takes three complex products (2 each) per
    term and the n_waves - 1 additions of the W-term sum, in either order:
    per route a depth of W + 5, so at most sqrt(2) gamma_(2(W + 5)) of the
    terms' magnitude sum, gamma_d = d u / (1 - d u)."""
    u = np.finfo(float).eps / 2
    d = 2 * (n_waves + 5)
    return math.sqrt(2.0) * d * u / (1.0 - d * u) * scale


def _null_amplitudes(gammas):
    """The null spinors of the first equation at a constant potential in
    the representation gammas, columns of the roots' bases."""
    system = TwoBodyDiracSystem(MASSES, Constant(0.3), gammas)
    roots = plane_wave_solutions(system, P_REST, (0.2, 0.0, 0.0), p0_window=(-1.2, 0.5))
    return [basis[:, k] for _, basis in roots for k in range(basis.shape[1])]


@pytest.mark.parametrize("n", [8, 16])
def test_field_from_modes_matches_per_wave_sum(n):
    grid = Grid(n=n, L=6.0)
    rng = np.random.default_rng(n)
    amps = _null_amplitudes(build_gammas("dirac"))
    waves = [(rng.integers(-2, 3, size=3), amps[w % len(amps)] * rng.standard_normal()) for w in range(5)]
    # one index outside [-n/2, n/2): it aliases, and still warns once
    waves.append(((n // 2, 0, -1), rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    spec = [(0.17, waves), (-0.4, []), (0.33, waves[:1])]
    modes = tuple(
        (p0, np.array([idx for idx, _ in ws], dtype=int).reshape(-1, 3), np.array([a for _, a in ws]).reshape(-1, 16))
        for p0, ws in spec
    )
    with pytest.warns(AliasingWarning, match="outside the grid's representable range") as caught:
        fld = InternalField(P=P_REST, grid=grid, modes=modes)
    assert len(caught) == 1 and caught[0].filename == __file__
    # the field keeps the given waves, and their samples are the per-wave sum
    for (p0, m, amps), (q0, ws) in zip(fld.modes, spec, strict=True):
        assert p0 == q0
        assert m.shape == (len(ws), 3) and amps.shape == (len(ws), 16)
        assert all(np.array_equal(mw, idx) and np.array_equal(aw, amp) for mw, aw, (idx, amp) in zip(m, amps, ws))
        expect, scale = _per_wave_field(grid, ws)
        assert np.all(np.abs(operators._wave_sum(grid, m, amps) - expect) <= _wave_sum_bound(len(ws), scale))
    # a mode with no waves is the zero field
    assert not np.any(samples(fld)[1][1]) and fld.modes[1][1].shape == (0, 3)


def test_internal_field_rejects_malformed_waves():
    grid = Grid(n=8, L=6.0)
    # float indices, two indices a wave, and more amplitudes than waves
    for m, amps in (([(0.5, 0.0, 1.0)], np.zeros((1, 16))), ([(1, 0)], np.zeros((1, 16))), ([(1, 0, 0)], np.zeros((2, 16)))):
        with pytest.raises(ValueError, match="integer indices of shape"):
            operators.InternalField(P=P_REST, grid=grid, modes=((0.1, np.asarray(m), amps),))


def _gamma(d):
    """gamma_d = d u / (1 - d u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return d * u / (1.0 - d * u)


def _transform(n):
    """Relative 2-norm error bound of a length-n transform, taken as one
    pass per prime factor p of n (pocketfft's radix-4 and radix-8
    passes are two and three radix-2 stages), each a p-term sum of
    products with twiddles taken as accurate to u:
    eta_p = u + gamma_(p + 2) (sqrt p + u). For p = 2 it is Higham's eta
    (Accuracy and Stability of Numerical Algorithms, 2nd ed., thm 24.2),
    so a power of two reads log2(n) eta. Below length 50 pocketfft runs
    these passes and no Bluestein transform."""
    u = np.finfo(float).eps / 2
    total, p = 0.0, 2
    while n > 1:
        while n % p == 0:
            total += u + _gamma(p + 2) * (math.sqrt(p) + u)
            n //= p
        p += 1
    return total


def _axis_matrix_bound(n):
    """Bound, in units of max|kappa| ||x||_2, on the 2-norm gap between
    _along(_axis_matrices(grid)[s], x, k) and the exact
    F^-1 diag(kappa(. + s)) F along axis k. The build: each column is
    the transform of a unit vector (norm sqrt n, off by _transform(n)
    of it), the product with the shifted kappa (u) and the inverse
    transform with its 1/n (_transform(n) + u), so a column of norm at
    most max|kappa| is off by 2 (_transform(n) + u) max|kappa| and the
    matrix, in its Frobenius norm, by sqrt(n) times that. The product:
    n-term complex dot products, sqrt(2) gamma_(n + 2) |M| |x| each
    (Higham, sec. 3.6, in any summation order), with ||M||_F at most
    sqrt(n) max|kappa|."""
    build = 2 * (_transform(n) + np.finfo(float).eps / 2)
    return math.sqrt(n) * (build + math.sqrt(2.0) * _gamma(n + 2))


def _spectrum_bounds(grid, m, amps):
    """Relative bounds, as multiples of a scale, on 2-norm gaps. First,
    in units of N ||A||_2 (N = n^3, A_c = sum_w |amp_wc|, F chi's 2-norm
    is at most N ||A||_2), between the mode's spectrum from its waves
    and the transform of its samples. Then, in units of
    max|kappa_j| sqrt(N) ||V||_2 (||kappa_j F V||_2 at most), between the
    transform of a basis field e_u h_{j,s} and kappa_j F V(. - k_u) taken
    from the transform of V. With Theta = pi max_w ||m_w||_1:

    - samples (_wave_sum): each axis's phase argument 2 pi m x_j / L
      carries the rounding of x_j (at most gamma_4 L) and of its three
      products, so it is off by at most gamma_11 pi |m|, and exp adds 2u
      (cos and sin within an ulp each): gamma_11 Theta + 6u a wave; then
      three complex products and W - 1 sums, gamma_(W + 5);
    - points (_mode_points): the argument pi (1/n - 1) sum(m) has four
      roundings, gamma_4 Theta + 2u, then the product with amp and the
      merging sums, gamma_(W + 1);
    - each transform of length n per axis, as three passes of a
      Cooley-Tukey FFT (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., thm 24.2): 3 log2(n) eta with
      eta = u + gamma_4 (sqrt 2 + u), twiddles taken as accurate to u;
    - the shift theorem (_dictionary, _basis): h_{j,s} is the axis
      matrix of kappa_j(. + s) applied to V along axis j
      (_axis_matrix_bound, in units of max|kappa_j| ||V||_2, which the
      transform's sqrt(N) carries into these units), e_u from three
      roots of unity exp(i theta), theta = 2 pi m / n off by gamma_5 2 pi
      and each root by 2 sqrt(2) u more (an ulp of cos and of sin),
      multiplied by two complex products, 2 sqrt(2) gamma_2, then the
      product e_u h (sqrt(2) gamma_2) and its transform; on the other
      side F V and the product with kappa_j (u).

    A transform's 2-norm error carries over unscaled and a sample
    error's by sqrt(N) times sqrt(N) samples, so each term is a
    multiple of the scale."""
    u = np.finfo(float).eps / 2
    W = len(m)
    theta = math.pi * np.max(np.sum(np.abs(m), axis=1))
    fft = 3 * math.log2(grid.n) * (u + _gamma(4) * (math.sqrt(2.0) + u))
    sampled = _gamma(11) * theta + 6 * u + _gamma(W + 5)
    pointwise = _gamma(4) * theta + 2 * u + _gamma(W + 1)
    F_chi = sampled + fft + pointwise
    e_u = 3 * (2 * math.pi * _gamma(5) + 2 * math.sqrt(2.0) * u) + 2 * math.sqrt(2.0) * _gamma(2)
    shifted = _axis_matrix_bound(grid.n) + 2 * fft + u + e_u + math.sqrt(2.0) * _gamma(2)
    return F_chi, shifted, sampled + pointwise


@settings(max_examples=40, deadline=None)
@given(
    # an even n in [2, 48] and a shift s in [-n/2, n/2)
    n_s=st.integers(1, 24).flatmap(lambda h: st.tuples(st.just(2 * h), st.integers(-h, h - 1))),
    L=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_s=(10, -5), L=10.5, seed=1)  # the Nyquist entry moves to index 0
@example(n_s=(46, 0), L=0.01, seed=2)  # a radix-23 pass
def test_axis_matrix_is_the_shifted_spectral_multiplier(n_s, L, seed):
    # on every axis k, the n x n matrix of kappa(. + s) applied along k is
    # the 3-D transform pair with kappa rolled by -s on axis k
    n, s = n_s
    grid = Grid(n=n, L=L)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    M = operators._axis_matrices(grid)[s]
    kappa = np.roll(grid.wavenumbers, -s)
    u = np.finfo(float).eps / 2
    # the transform pair: two 3-D transforms (3 _transform(n) each), the
    # product with kappa (u) and the 1/n of each axis's inverse (3u)
    bound = (_axis_matrix_bound(n) + 6 * _transform(n) + 4 * u) * np.max(np.abs(kappa)) * np.linalg.norm(x)
    for k in range(3):
        want = np.fft.ifftn(kappa.reshape([-1 if a == k else 1 for a in range(3)]) * np.fft.fftn(x))
        got = operators._along(M, x, k, np.empty_like(x))
        assert np.linalg.norm(got - want) <= bound


def test_mode_spectrum_matches_transform_of_samples(gammas, reference_radius_sq):
    # a repeated wavevector and an index (5 on n = 8) that aliases onto
    # -3: both merge, so the mode has two grid points, not four
    grid = Grid(n=8, L=10.5)
    n, N = grid.n, grid.n**3
    system = TwoBodyDiracSystem(MASSES, BUMP, gammas)
    rng = np.random.default_rng(28)
    amps = _null_amplitudes(gammas)
    noise = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    waves = [((1, -2, 0), amps[0]), ((5, 0, -1), noise[0]), ((1, -2, 0), 0.5j * amps[1]), ((-3, 0, -1), noise[1])]
    with pytest.warns(AliasingWarning) as caught:
        fld = InternalField(P=P_REST, grid=grid, modes=((0.17, [m for m, _ in waves], [a for _, a in waves]),))
    assert len(caught) == 1 and caught[0].filename == __file__
    chi = equal_time_profile(fld)
    ((_, m, a),) = fld.modes
    k, c = operators._mode_points(grid, m, a)
    assert sorted(map(tuple, k)) == [(1, 6, 0), (5, 0, 7)]
    scale = N * np.linalg.norm(np.sum(np.abs(a), axis=0))
    F_chi_bound, shifted_bound, norm_bound = _spectrum_bounds(grid, m, a)

    scattered = np.zeros((16, n, n, n), complex)
    scattered[:, k[:, 0], k[:, 1], k[:, 2]] = N * c.T
    assert np.linalg.norm(scattered - np.fft.fftn(chi, axes=(1, 2, 3))) <= F_chi_bound * scale

    # the shift theorem on each point's basis fields:
    # F(e_u h_{j,(k_u)_j}) = kappa_j F V(. - k_u) on every axis j
    V = eval_V(system.potential, -reference_radius_sq(grid), minkowski_sq(fld.P))
    FV = np.fft.fftn(V)
    h, rows = operators._dictionary(V, [(k, c)], operators._axis_matrices(grid))
    U = len(k)
    basis = operators._basis(grid, V, h, rows, k, slice(None), np.empty((5 * U, n, n, n), complex))
    for j in range(3):
        kappa = grid.wavenumbers.reshape([-1 if axis == j else 1 for axis in range(3)])
        bound = shifted_bound * np.max(np.abs(kappa)) * math.sqrt(N) * np.linalg.norm(V)
        for u, point in enumerate(k):
            want = kappa * np.roll(FV, tuple(point), axis=(0, 1, 2))
            assert np.linalg.norm(np.fft.fftn(basis[(2 + j) * U + u]) - want) <= bound

    # norm by Parseval against the samples' sum of squares, each rounded
    # to within gamma_(log2(16 N) + 16) of its square (pairwise sums)
    sampled_norm = math.sqrt(np.sum(np.abs(chi) ** 2) * grid.h**3)
    rounding = _gamma(math.ceil(math.log2(16 * N)) + 16)
    assert abs(fld.norm() - sampled_norm) <= (norm_bound + 2 * rounding) * scale / math.sqrt(N) * grid.h**1.5


def test_random_field_is_deterministic_and_band_limited():
    grid = Grid(n=16, L=10.5)
    f1 = random_band_limited_field(P_REST, grid, np.random.default_rng(3))
    f2 = random_band_limited_field(P_REST, grid, np.random.default_rng(3))
    for (p0, m, amps), (q0, m2, amps2) in zip(f1.modes, f2.modes, strict=True):
        assert p0 == q0 and np.array_equal(m, m2) and np.array_equal(amps, amps2)
    assert f1.norm() > 0.0
    assert len(f1.modes) == 3
    for _, chi in samples(f1):
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
    for p0, chi in samples(f1):
        expect = np.zeros_like(chi)
        for _ in range(6):
            m = rng.integers(-2, 3, size=3)
            amp = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            expect += amp.reshape(16, 1, 1, 1) * mode_phase(grid, m)
        assert np.linalg.norm(chi - expect) <= 1e-14 * np.linalg.norm(expect)


def test_random_field_draw_is_pinned():
    # compat, gauge, selfcheck and every benchmark seed read the test
    # field through the rng's call order: per wave the indices, then the
    # amplitudes' real parts, then their imaginary parts. These are the
    # waves that order draws from seed 7.
    fld = random_band_limited_field(P_REST, Grid(n=16, L=8.0), np.random.default_rng(7))
    assert [p0 for p0, _, _ in fld.modes] == [0.17, -0.4, 0.33]
    m = np.concatenate([m for _, m, _ in fld.modes])
    amps = np.concatenate([amps for _, _, amps in fld.modes])
    assert m.tolist() == [
        [2, 1, 1], [2, 2, -1], [0, 2, 2], [-1, 1, 0], [-1, 0, -1], [2, -1, 1],
        [1, 0, -1], [-2, -2, 0], [-2, 0, -2], [2, -2, -1], [-1, -1, 0], [1, 2, -1],
        [0, 2, 0], [1, -1, 2], [-1, 0, -1], [0, 0, 2], [2, 0, -2], [0, -2, -2],
    ]
    digest = hashlib.sha256(amps.astype("<c16").tobytes()).hexdigest()
    assert digest == "9d9fba1c33ef52d41ee7575c3f826514a1e7341bffd851a07ba4dca519c5e03e"


# ---------------------------------------------------------------------------
# Operator application


def test_apply_matches_per_mode_matrix(rng, reference_first_equation_matrices, reference_second_equation_matrix):
    # on a single harmonic both operators act as explicit 16x16
    # matrices in the constituent momenta: the test oracles' M_1 and M_2
    system = TwoBodyDiracSystem(MASSES, Constant(v=0.3), build_gammas("dirac"))
    grid = Grid(n=8, L=6.0)
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    p0, m = 0.21, (1, -2, 0)
    fld = single_mode(grid, p0, m, u)
    kappa = 2.0 * np.pi * np.asarray(m) / grid.L
    p1 = np.array([P_REST[0] / 2 + p0, *kappa])
    p2 = np.array([P_REST[0] / 2 - p0, *(-kappa)])
    M1 = reference_first_equation_matrices(system, P_REST, kappa, np.array([p0]))[0]
    M2 = reference_second_equation_matrix(system, p1, p2)
    phase = mode_phase(grid, m)
    for which, M in ((1, M1), (2, M2)):
        ((q0, got),) = apply_D(system, fld, which)
        assert q0 == p0
        expect = (M @ u).reshape(16, 1, 1, 1) * phase
        assert np.max(np.abs(got - expect)) < 1e-13


def test_apply_is_linear(rng):
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    grid = Grid(n=8, L=6.0)
    a = random_band_limited_field(P_REST, grid, rng, max_index=1)
    b = random_band_limited_field(P_REST, grid, rng, max_index=1)
    lhs = apply_D(system, superpose((2.0, a), (-0.5j, b)), 1)
    rhs = combine((2.0, apply_D(system, a, 1)), (-0.5j, apply_D(system, b, 1)))
    assert modes_norm(grid, combine((1.0, lhs), (-1.0, rhs))) < 1e-12 * max(modes_norm(grid, lhs), 1.0)


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
    assert modes_norm(grid, apply_D(system, fld, 1)) < 1e-10 * fld.norm()


# ---------------------------------------------------------------------------
# Compatibility residual


def test_compatibility_zero_potential():
    system = TwoBodyDiracSystem(MASSES, Constant(v=0.0), build_gammas("dirac"))
    grid = Grid(n=16, L=10.5)
    fld = random_band_limited_field(P_REST, grid, np.random.default_rng(11))
    assert compatibility_residual(system, fld) < 1e-13


def test_compatibility_residual_is_unchanged_by_a_mode_with_no_waves():
    # an empty mode is the zero field: it adds nothing to either sum
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    fld = random_band_limited_field(P_REST, Grid(n=8, L=10.5), np.random.default_rng(12), max_index=1)
    padded = replace(fld, modes=(fld.modes[0], (0.2, np.zeros((0, 3), int), np.zeros((0, 16))), *fld.modes[1:]))
    for realization in ("analytic", "composed"):
        assert compatibility_residual(system, padded, realization) == compatibility_residual(system, fld, realization)


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
    rotated = replace(fld, modes=tuple((p0, m, amps @ U16.T) for p0, m, amps in fld.modes))
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
    rotated = replace(fld, modes=tuple((p0, m, amps @ U16.T) for p0, m, amps in fld.modes))
    sys_d = TwoBodyDiracSystem(MASSES, BUMP, dirac)
    sys_u = TwoBodyDiracSystem(MASSES, BUMP, dense)
    rd = compatibility_residual(sys_d, fld)
    assert compatibility_residual(sys_u, rotated) == pytest.approx(rd, rel=1e-12)
    assert compatibility_residual(sys_u, rotated, "composed") <= 1e-12


# The residual before transform sharing, rebuilt from mode-wise sums of
# sample lists (combine) alone: the field's modes are sampled first and
# K_i, D_i and the commutators are written out here with the full
# wavenumber mesh, einsum contractions and transforms of the samples,
# sharing no code with the operators under test.


def _kinetic_oracle(gammas, particle, fld, psi):
    """K_i psi: p_i^0 gamma_i^0 psi -+ sum_k gamma_i^k d(psi)/(i dx^k)."""
    k = fld.grid.wavenumbers
    kap = np.stack(np.meshgrid(k, k, k, indexing="ij"))
    sign = 1.0 if particle == 1 else -1.0
    sub = "ac,cbxyz->abxyz" if particle == 1 else "bc,acxyz->abxyz"
    out = []
    for p0, chi in psi:
        F = np.fft.fftn(chi.reshape(4, 4, *chi.shape[1:]), axes=(-3, -2, -1))
        p_0 = fld.P[0] / 2 + sign * p0
        spec = p_0 * np.einsum(sub, gammas.gamma[0], F)
        for j in range(3):
            spec -= sign * np.einsum(sub, gammas.gamma[j + 1], kap[j] * F)
        out.append((p0, np.fft.ifftn(spec, axes=(-3, -2, -1)).reshape(chi.shape)))
    return out


def _times(psi, f):
    return [(p0, f * chi) for p0, chi in psi]


def _D_oracle(system, fld, psi, which, r_sq):
    """D_1 psi = K_1 psi - m_1 psi + K_2(V psi) - m_2 V psi, and
    D_2 psi = K_2 psi + m_2 psi + K_1(V psi) + m_1 V psi, for a mode list
    psi on fld's grid and total momentum, with V evaluated at each
    point's squared radius r_sq."""
    Vpsi = _times(psi, eval_V(system.potential, -r_sq, minkowski_sq(fld.P)))
    m1, m2 = system.masses.m1, system.masses.m2

    def K(particle, f):
        return _kinetic_oracle(system.gammas, particle, fld, f)

    if which == 1:
        return combine((1.0, K(1, psi)), (-m1, psi), (1.0, K(2, Vpsi)), (-m2, Vpsi))
    return combine((1.0, K(2, psi)), (m2, psi), (1.0, K(1, Vpsi)), (m1, Vpsi))


# n = 10: n/2 is odd and the transforms are mixed-radix
@pytest.mark.parametrize("n", [8, 10, 16])
@pytest.mark.parametrize("which", [1, 2])
def test_apply_D_matches_dense_oracle(gammas, which, n, reference_radius_sq):
    system = TwoBodyDiracSystem(MASSES, BUMP, gammas)
    fld = random_band_limited_field(P_REST, Grid(n=n, L=10.5), np.random.default_rng(71))
    out = apply_D(system, fld, which)
    oracle = _D_oracle(system, fld, samples(fld), which, reference_radius_sq(fld.grid))
    scale = max(np.max(np.abs(chi)) for _, chi in oracle)
    for (_, got), (_, want) in zip(out, oracle, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


# wave indices at the wrap edges of the band, per axis: 0, n/2 - 1,
# -n/2 and n - 1 (which aliases onto -1)
@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([8, 10, 16]),
    edges=st.lists(st.tuples(*[st.sampled_from([0, 1, 2, 3])] * 3), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    which=st.sampled_from([1, 2]),
)
def test_D_from_the_dictionary_matches_dense_oracle_at_band_edges(n, edges, seed, which, reference_radius_sq):
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    rng = np.random.default_rng(seed)
    m = np.array([[(0, n // 2 - 1, -n // 2, n - 1)[e] for e in edge] for edge in edges])
    amps = rng.standard_normal((len(m), 16)) + 1j * rng.standard_normal((len(m), 16))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        fld = InternalField(P=P_REST, grid=Grid(n=n, L=10.5), modes=((0.17, m, amps), (-0.4, m[::-1], 0.5j * amps)))
    out = apply_D(system, fld, which)
    oracle = _D_oracle(system, fld, samples(fld), which, reference_radius_sq(fld.grid))
    scale = max(np.max(np.abs(chi)) for _, chi in oracle)
    for (_, got), (_, want) in zip(out, oracle, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _commutator_oracle(system, fld, psi, particle, realization, r_sq):
    """[K_i, V] psi, composed from the grid operators or from the gradient."""
    grid = fld.grid
    V = eval_V(system.potential, -r_sq, minkowski_sq(fld.P))
    if realization == "composed":
        return combine(
            (1.0, _kinetic_oracle(system.gammas, particle, fld, _times(psi, V))),
            (-1.0, _times(_kinetic_oracle(system.gammas, particle, fld, psi), V)),
        )
    dV = eval_dV_dxperp_sq(system.potential, -r_sq, minkowski_sq(fld.P))
    sub = "ac,cbxyz->abxyz" if particle == 1 else "bc,acxyz->abxyz"
    mesh = coord_mesh(grid)
    out = []
    for p0, chi in psi:
        chi4 = chi.reshape(4, 4, *chi.shape[1:])
        acc = sum(
            np.einsum(sub, system.gammas.gamma[j + 1], -2.0 * mesh[j] * dV * chi4)
            for j in range(3)
        )
        out.append((p0, (1j if particle == 1 else -1j) * acc.reshape(chi.shape)))
    return out


def _residual_oracle(system, fld, realization, r_sq):
    psi = samples(fld)
    d1 = _D_oracle(system, fld, psi, 1, r_sq)
    d2 = _D_oracle(system, fld, psi, 2, r_sq)
    lhs = combine((1.0, _D_oracle(system, fld, d2, 1, r_sq)), (-1.0, _D_oracle(system, fld, d1, 2, r_sq)))
    rhs = combine(
        (-1.0, _commutator_oracle(system, fld, d1, 1, realization, r_sq)),
        (1.0, _commutator_oracle(system, fld, d2, 2, realization, r_sq)),
    )
    return modes_norm(fld.grid, combine((1.0, lhs), (-1.0, rhs))) / modes_norm(fld.grid, psi)


# n = 10 as in test_apply_D_matches_dense_oracle: a slip in the axis
# matrices' Nyquist column or in the axis order shows there. n = 12 splits
# into a partial last slab of planes and a partial last column block
@pytest.mark.parametrize("n", [8, 10, 12, 16])
@pytest.mark.parametrize("realization", ["analytic", "composed"])
def test_compatibility_residual_matches_unshared_oracle(gammas, realization, n, reference_radius_sq):
    if n == 12:
        planes, cols = operators._slab_sizes(n)
        assert n % planes and (n * n) % cols
    system = TwoBodyDiracSystem(MASSES, BUMP, gammas)
    fld = random_band_limited_field(P_REST, Grid(n=n, L=10.5), np.random.default_rng(51))
    fused = compatibility_residual(system, fld, realization)
    oracle = _residual_oracle(system, fld, realization, reference_radius_sq(fld.grid))
    assert fused == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("realization", ["analytic", "composed"])
def test_compatibility_residual_does_not_depend_on_the_slab_size(monkeypatch, realization):
    # one plane per slab and one column per block, then the whole grid
    # as one slab and one block: the same sums in another order
    n = 12
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    fld = random_band_limited_field(P_REST, Grid(n=n, L=10.5), np.random.default_rng(52))
    default = compatibility_residual(system, fld, realization)
    for points, sizes in ((1, (1, 1)), (n**3, (n, n * n))):
        monkeypatch.setattr(operators, "_SLAB_POINTS", points)
        assert operators._slab_sizes(n) == sizes
        assert compatibility_residual(system, fld, realization) == pytest.approx(default, rel=1e-12)


def test_compatibility_residual_working_set():
    # the mode's product lives in slabs; what spans the grid is V, its
    # gradient, the dictionary and the two arrays that the axis-0 product
    # joins, about 3.5 arrays of 16 x n^3 complex (7.2 for whole-grid passes)
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    grid = Grid(n=32, L=10.5)
    fld = random_band_limited_field(P_REST, grid, np.random.default_rng(53))
    tracemalloc.start()
    try:
        compatibility_residual(system, fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * grid.n**3 * 16


@pytest.mark.parametrize("realization", ["analytic", "composed"])
def test_compatibility_residual_transform_and_potential_counts(monkeypatch, realization):
    # no 3-D transform: every spectral derivative is an n x n axis matrix
    # applied as a matrix product; the potential is evaluated once, and
    # its gradient once for the analytic commutators only
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    fld = random_band_limited_field(P_REST, Grid(n=8, L=10.5), np.random.default_rng(61))
    assert len(fld.modes) == 3
    calls = {"fft": 0, "eval_V": 0, "eval_dV_dxperp_sq": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.fft, "fftn", counted("fft", np.fft.fftn))
    monkeypatch.setattr(np.fft, "ifftn", counted("fft", np.fft.ifftn))
    monkeypatch.setattr(operators, "eval_V", counted("eval_V", operators.eval_V))
    monkeypatch.setattr(operators, "eval_dV_dxperp_sq", counted("eval_dV_dxperp_sq", operators.eval_dV_dxperp_sq))
    compatibility_residual(system, fld, realization)
    assert calls == {"fft": 0, "eval_V": 1, "eval_dV_dxperp_sq": int(realization == "analytic")}


def test_operators_leave_the_input_field_unchanged():
    # the products run on work arrays, never on the field's waves
    system = TwoBodyDiracSystem(MASSES, BUMP, build_gammas("dirac"))
    fld = random_band_limited_field(P_REST, Grid(n=8, L=10.5), np.random.default_rng(62))
    before = [(m.tobytes(), amps.tobytes()) for _, m, amps in fld.modes]
    for run in (
        lambda: compatibility_residual(system, fld, "analytic"),
        lambda: compatibility_residual(system, fld, "composed"),
        lambda: apply_D(system, fld, 1),
        lambda: apply_D(system, fld, 2),
    ):
        run()
        assert [(m.tobytes(), amps.tobytes()) for _, m, amps in fld.modes] == before


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
    free = TwoBodyDiracSystem(masses, Constant(v=0.0), gam)
    roots = plane_wave_solutions(free, np.array([2.0, 0, 0, 0.0]), (0, 0, 0), (-0.5, 0.5))
    assert len(roots) == 1
    p0, basis = roots[0]
    assert p0 == pytest.approx(0.0, abs=1e-11)
    assert basis.shape == (16, 8)
    state = plane_wave_state(np.array([2.0, 0, 0, 0.0]), (0, 0, 0), p0, basis[:, 0])
    assert first_equation_residual(free, state) < 1e-10
    u = free_product_state(gam, masses, (0, 0, 0)).u
    assert np.linalg.norm(u - basis @ (basis.conj().T @ u)) < 1e-12


def test_free_off_shell_momentum_has_no_roots():
    # at P0 = 2.5 particle 1 is on shell only at p0 = -0.25; a window
    # that keeps p_1^0 = 1.25 + p0 off 1 holds no root
    free = TwoBodyDiracSystem(MassPair(1.0, 1.0), Constant(v=0.0), build_gammas("dirac"))
    P = np.array([2.5, 0, 0, 0.0])
    assert plane_wave_solutions(free, P, (0, 0, 0), (-0.2, 0.5)) == []
    assert [round(p0, 12) for p0, _ in plane_wave_solutions(free, P, (0, 0, 0), (-0.5, 0.5))] == [-0.25]


def test_free_moving_pair_root_at_energy_split():
    m1, m2, p = 1.0, 1.3, 0.4
    e1 = math.sqrt(m1**2 + p**2)
    e2 = math.sqrt(m2**2 + p**2)
    free = TwoBodyDiracSystem(MassPair(m1, m2), Constant(v=0.0), build_gammas("dirac"))
    P = np.array([e1 + e2, 0, 0, 0.0])
    roots = plane_wave_solutions(free, P, (p, 0, 0), (-1.0, 1.0))
    split = 0.5 * (e1 - e2)
    assert any(abs(r[0] - split) < 1e-10 for r in roots)


FREE_MOMENTA = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.2, -0.7, 1.1), (5.0, 0.0, 0.0)]


@pytest.mark.parametrize("p", FREE_MOMENTA)
def test_free_product_state_solves_both_equations(gammas, p, reference_second_equation_residual):
    # the closed-form u_1 x u_2 is a null vector of M_1 and of M_2
    free = TwoBodyDiracSystem(MASSES, Constant(v=0.0), gammas)
    state = free_product_state(gammas, MASSES, p)
    assert np.linalg.norm(state.u) == pytest.approx(1.0, abs=1e-15)
    assert first_equation_residual(free, state) <= RESIDUAL_TOL
    assert reference_second_equation_residual(free, state) <= RESIDUAL_TOL


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
        assert first_equation_residual(system, state) < 1e-10


def test_first_equation_roots_against_brute_scan(gammas, reference_first_equation_matrices):
    # independent check: dense sigma_min scan with step 1e-4 brackets
    # the same roots the solver returns
    system = TwoBodyDiracSystem(MASSES, Constant(v=0.3), gammas)
    p_spatial = (0.5, 0.0, 0.0)
    roots = plane_wave_solutions(system, P_REST, p_spatial, (-1.2, 0.5))
    assert roots
    grid_p0 = np.arange(-1.2, 0.5, 1e-4)
    matrices = reference_first_equation_matrices(system, P_REST, p_spatial, grid_p0)
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
def test_first_equation_roots_match_a_brute_scan(v, m1, m2, P0, p, reference_first_equation_matrices):
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
        matrices = reference_first_equation_matrices(system, P, p, np.atleast_1d(p0s))
        return np.linalg.svd(matrices, compute_uv=False)[:, -1]

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
