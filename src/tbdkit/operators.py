"""The coupled first-order operators of the two-body system and their
compatibility identity, on internal fields at fixed total momentum.

State representation. A wave function at total momentum eigenvalue P is
psi = phi(x) e^{-i P.X} with phi an internal field of the relative
coordinate. Because the potential is x^0-independent in the rest frame,
phi is carried as a finite list of relative-energy modes,

    phi(x) = sum_m e^{-i p0_m x^0} chi_m(bold x),

each chi_m a C^16-valued field on a periodic spatial grid, held as its
waves: integer wavevector indices and 16-component amplitudes. Time
derivatives then act analytically on the mode labels and only the three
spatial derivatives are spectral. The grid is offset by half a cell so
the origin (where the Yukawa core blows up) is never sampled; n must be
even or the offset pattern would put a point at r = 0. An InternalField
is built from its waves directly and warns once per wave outside the
grid's band; random_band_limited_field draws the one random test field
that compat and gauge share, and equal_time_profile samples a field's
t = 0 slice.

Operators. With K_i = gamma_i . p_i (kinetic contractions) and V acting
first as pointwise multiplication,

    D_1 = K_1 - m_1 - (-K_2 + m_2) V
    D_2 = K_2 + m_2 + ( K_1 + m_1) V

Momenta: p_1 = P/2 + p, p_2 = P/2 - p; on the grid modes e^{+i kappa.x}
the relative spatial momentum operator p^k acts as +kappa^k, so
particle 1 carries +kappa and particle 2 carries -kappa. Each K_i is
therefore a Fourier multiplier with the 4x4 symbol

    K_1(kappa) = p_1^0 gamma_1^0 - sum_k gamma_1^k kappa_k
    K_2(kappa) = p_2^0 gamma_2^0 + sum_k gamma_2^k kappa_k

and a mode of D_1 chi is IFFT[(K_1 - m_1) F chi + (K_2 - m_2) F(V chi)]
(D_2 likewise). kappa_k acts along axis k alone, so the 3-D transforms
of the other two axes cancel: IFFT[kappa_k F f] is the n x n matrix
F^-1 diag(kappa) F (Trefethen, Spectral Methods in MATLAB, ch. 3)
applied along axis k, a matrix product, with the grid's wavenumbers,
Nyquist entry included, so it is the same discrete operator. On a mode
the gamma^0, mass and gamma^k parts of a symbol are 4x4 matrices acting
on the coefficients of its waves, never on a field.

Compatibility. The necessary consistency condition for the pair is the
operator identity

    [D_1, D_2] = -[K_1, V] D_1 + [K_2, V] D_2 ,

whose residual on smooth fields is measured by compatibility_residual.
The right-hand commutators can be realized two ways: "composed" applies
the grid operators literally, IFFT[K_i F(V psi)] - V IFFT[K_i F psi],
which reproduces the identity to roundoff at any resolution (the
discrete operators satisfy the same algebra as the continuum ones);
"analytic" substitutes the exact gradient form
[K_1, V] = +i sum_k gamma_1^k (d_k V), [K_2, V] = -i sum_k gamma_2^k
(d_k V), which differs from the composed form by the spectral aliasing
of the product V phi and therefore converges to it at spectral rate
under grid refinement. The analytic realization is the default since it
is the one with a measurable discretization error.

The residual is built from one dictionary of scalar fields. On the
half-cell-offset grid a wave e^{+i 2 pi m.x / L} is
e^{i pi m (1/n - 1)} e^{+i 2 pi m.j / n} per axis at sample j, so a mode
is chi = sum_u c_u e_u with e_u = e^{+i 2 pi k_u.j / n} at its distinct
indices k_u = m mod n, and F(V chi) = sum_u c_u F V(. - k_u). By the DFT
shift theorem IFFT[kappa_k F V(. - k_u)] = e_u h_{k,(k_u)_k} with
h_{k,s} = IFFT[kappa_k(. + s e_k) F V], the axis matrix of the shifted
multiplier applied to V along axis k; so D_1 chi and D_2 chi are sums
over the basis [e_u, e_u V, e_u h_1, e_u h_2, e_u h_3] with coefficients
from the gammas. There is one h per axis and index value that the
modes' points take on it (15 for the test field's indices in [-2, 2]),
made once per residual. Both sides of the identity reach the spatial
symbol only through Q_k = gamma_1^k d_1 + gamma_2^k d_2 (d_i = D_i chi):
because K_1 and K_2 commute and K_1^2 - K_2^2 = (p_1^0)^2 - (p_2^0)^2 =
2 P0 p0 (Sazdjian, Phys. Rev. D 33 (1986) 3401), the left side is

    [D_1, D_2] chi = V T + sum_k IFFT[kappa_k F(V Q_k)],
    T = (p_2^0 gamma_2^0 - m_2) d_2 - (p_1^0 gamma_1^0 + m_1) d_1
        + (2 P0 p0 + m_2^2 - m_1^2) chi,

and the analytic right side is -i sum_k (d_k V) Q_k. The composed one
is sum_k (IFFT[kappa_k F(V Q_k)] - V IFFT[kappa_k F Q_k]): the
kappa_k (V Q_k) terms cancel exactly and the difference is
V (T + sum_k IFFT[kappa_k F Q_k]). T and the three Q_k are coefficient
rows times the mode's basis, and each Q_k takes one axis matrix product
along axis k; no 3-D transform runs in either realization. The mode is
worked in two stages, each in pieces small enough for their basis and
product to stay in cache, and the basis is built on each piece: slabs
of whole axis-0 planes take T and the axis-1 and axis-2 terms into one
array of the mode's size, then blocks of columns across all planes
take the axis-0 terms, which need whole columns, and finish the sum.
That array is the only one of the mode's size; the factor i of the
gradient term rides in the Q_k rows, so d_k V enters as a real
multiplier formed per slab and block.

Plane waves. For a constant potential v the first equation is the
linear matrix pencil M_1(p0) = A + p0 B with B = gamma_1^0 - v gamma_2^0,
whose eigenvalues +-1 +- v make it invertible for |v| < 1. The
dispersion roots are the real eigenvalues of -B^{-1} A. No certificate
reads the second equation, so M_1 is the only equation matrix built.
The free pair needs no search: its on-shell product states u_1 x u_2
solve both equations in closed form (free_product_state).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kinematics import FourVector, MassPair, as_four_vector, check_rest_frame, minkowski_sq
from .potentials import eval_V, eval_dV_dxperp_sq
from .spinor_algebra import GammaSet, lift, on, slash

__all__ = [
    "AliasingWarning",
    "Grid",
    "InternalField",
    "PlaneWaveState",
    "TwoBodyDiracSystem",
    "compatibility_residual",
    "equal_time_profile",
    "first_equation_residual",
    "free_product_state",
    "random_band_limited_field",
    "plane_wave_solutions",
    "plane_wave_state",
]


class AliasingWarning(UserWarning):
    """A spectral operation was asked to represent modes the grid cannot."""


@dataclass(frozen=True)
class Grid:
    """Periodic spatial grid of n^3 points in a box of side L, offset by
    half a cell: x_j = -L/2 + (j + 1/2) h = (h/2) o_j with the odd offset
    o_j = 2j + 1 - n. The offset keeps r = 0 out of the sample set, which
    the Yukawa core requires. A point's squared radius is (h/2)^2 q with
    the integer q = o_i^2 + o_j^2 + o_k^2, so points on one radius share
    q exactly on every grid. A radial function (the potential, a form
    pair) is evaluated once per distinct q, the entries of radial, and
    read at each point's radius."""

    n: int
    L: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError("n must be even and >= 2 (odd grids sample the origin)")
        if not self.L > 0:
            raise ValueError("L must be positive")
        try:
            cell = self.h**3
        except OverflowError:  # a float power raises where a product would give inf
            cell = math.inf
        if not 0 < cell < math.inf:
            raise ValueError(f"grid.L = {self.L!r} puts the cell volume (L/n)^3 outside the float range")

    @property
    def h(self) -> float:
        return self.L / self.n

    @cached_property
    def axis(self) -> np.ndarray:
        return -self.L / 2 + (np.arange(self.n) + 0.5) * self.h

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def radial(self) -> tuple[np.ndarray, np.ndarray]:
        """(r2, index): r2 = (h/2)^2 q over the sorted distinct integers q
        of the grid's points, and index an (n, n, n) array with q[index]
        the q of each point. The distinct inner sums o_i^2 + o_j^2 come
        first (n^2 values), then the distinct sums of those with o_k^2;
        neither pass sorts n^3 values."""
        s = np.arange(1 - self.n, self.n, 2) ** 2
        inner, inner_index = np.unique(s[:, None] + s, return_inverse=True)
        q, outer_index = np.unique(inner[:, None] + s, return_inverse=True)
        return (self.h / 2) ** 2 * q, outer_index.reshape(inner.size, self.n)[inner_index.reshape(self.n, self.n)]


@dataclass(frozen=True)
class InternalField:
    """Internal field at fixed total momentum: modes is a tuple of
    (p0, m, amps), one per relative-energy mode, whose profile is the sum
    of its waves amps[w] e^{+i 2 pi m[w].x / L}: m an int (W, 3) array of
    wavevector indices, amps a complex (W, 16) array; lists are
    converted. No samples are stored; _wave_sum makes them. P is a
    timelike rest-frame four-vector; construction (replace included)
    rejects anything else, so no operator checks it again.

    Indices outside the grid's representable range [-n/2, n/2) alias
    onto other modes. Construction reports each such wave as an
    AliasingWarning that names the line building the field, not as an
    error, because convergence studies evaluate one set of waves on
    several grids on purpose.

    The field norm treats distinct relative-energy modes as orthogonal
    channels (they are, under time averaging), so ||phi||^2 =
    sum_modes ||chi||^2 h^3, each ||chi||^2 h^3 read by Parseval from
    the coefficients of the mode's distinct grid indices (_mode_points):
    repeated and aliased wavevectors count once.
    """

    P: FourVector
    grid: Grid
    modes: tuple

    def __post_init__(self):
        object.__setattr__(self, "P", check_rest_frame(self.P))
        half = self.grid.n // 2
        checked = []
        for p0, m, amps in self.modes:
            m, amps = np.asarray(m), np.asarray(amps, dtype=complex)
            if m.dtype.kind not in "iu" or m.ndim != 2 or m.shape[1] != 3 or amps.shape != (len(m), 16):
                raise ValueError("a mode's waves must be integer indices of shape (W, 3) and amplitudes of shape (W, 16)")
            for row in m[np.any((m < -half) | (m >= half), axis=1)]:
                warnings.warn(
                    f"wavevector index {tuple(row.tolist())} outside the grid's "
                    f"representable range [{-half}, {half}); it will alias",
                    AliasingWarning,
                    stacklevel=3,  # past __post_init__ and __init__
                )
            checked.append((float(p0), m, amps))
        object.__setattr__(self, "modes", tuple(checked))

    def norm(self) -> float:
        return _points_norm(self.grid, [_mode_points(self.grid, m, amps) for _, m, amps in self.modes])


@dataclass(frozen=True)
class PlaneWaveState:
    """Spinor amplitude, normalized to unit length, with the two
    particle momenta. Every state is meant to solve the first equation;
    currents.defects checks that it does."""

    u: np.ndarray
    p1: FourVector
    p2: FourVector

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex).reshape(16)
        nrm = np.linalg.norm(u)
        if nrm == 0:
            raise ValueError("cannot normalize the zero spinor")
        object.__setattr__(self, "u", u / nrm)
        object.__setattr__(self, "p1", as_four_vector(self.p1))
        object.__setattr__(self, "p2", as_four_vector(self.p2))


@dataclass(frozen=True)
class TwoBodyDiracSystem:
    masses: MassPair
    potential: object
    gammas: GammaSet


# ---------------------------------------------------------------------------
# Grid application of the operators


def _axis_matrices(grid: Grid) -> np.ndarray:
    """M (n, n, n) with M[s] = F^-1 diag(kappa(. + s)) F along one axis as
    an n x n matrix, for every shift s mod n (M[0] is kappa itself, and
    M[-s] the shift -s): the grid's spectral multiplier, Nyquist entry
    included. Two 1-D transforms: F of the identity, and one inverse
    over all the shifted products."""
    n = grid.n
    kappa = grid.wavenumbers[(np.arange(n) + np.arange(n)[:, None]) % n]  # kappa[s, m] = kappa(m + s)
    return np.fft.ifft(kappa[:, :, None] * np.fft.fft(np.eye(n), axis=0), axis=1)


def _along(M, x, axis: int, out):
    """M applied along the grid axis (0, 1 or 2) of x, whose last three
    axes are the grid's: out[..., i, ...] = sum_j M[i, j] x[..., j, ...],
    as matrix products on views of x and out. out must be contiguous,
    or its reshape may be a copy that takes the product in its place.
    Returns out."""
    n = len(M)
    if axis == 2:
        np.matmul(x.reshape(-1, n), M.T, out=out.reshape(-1, n))
    else:
        shape = (-1, n, n ** (2 - axis))
        np.matmul(M, x.reshape(shape), out=out.reshape(shape))
    return out


def _symbol_parts(gammas: GammaSet, particle: int, p_0: float, shift: float) -> np.ndarray:
    """The symbol of K_i + shift as parts S (4, 4, 4): S(kappa) =
    S[0] + sum_k kappa_k S[k] with S[0] = p_i^0 gamma^0 + shift and
    S[k] = -+ gamma^k, minus for particle 1 (momentum P/2 + p), plus for
    particle 2."""
    sign = -1.0 if particle == 1 else 1.0
    return np.concatenate([[p_0 * gammas.gamma[0] + shift * np.eye(4)], sign * gammas.gamma[1:]])


def _D_terms(system: TwoBodyDiracSystem, p1_0: float, p2_0: float):
    """The terms (see _coefficients) of D_1 = (K_1 - m_1) + (K_2 - m_2) V
    and of D_2 = (K_2 + m_2) + (K_1 + m_1) V at one relative energy."""
    m1, m2, g = system.masses.m1, system.masses.m2, system.gammas
    return (
        [(1, _symbol_parts(g, 1, p1_0, -m1), False), (2, _symbol_parts(g, 2, p2_0, -m2), True)],
        [(2, _symbol_parts(g, 2, p2_0, m2), False), (1, _symbol_parts(g, 1, p1_0, m1), True)],
    )


def _coefficients(terms, kappa, c) -> np.ndarray:
    """Coefficients (5, U, 4, 4) on the mode's basis (see _basis) of the
    sum over terms (particle, S, times_V) of S chi or, with times_V,
    S (V chi), S acting on the particle's spinor index; the
    mode is chi = sum_u c_u e_u, c (U, 4, 4), at wavevectors kappa (U, 3).
    S chi takes S(kappa_u) c_u on e_u. S (V chi) takes S[0] c_u on e_u V
    and S[k] c_u on e_u h_k, because IFFT[kappa_k F V(. - k_u)] = e_u h_k
    (see _dictionary)."""
    out = np.zeros((5, *c.shape), complex)
    for particle, S, times_V in terms:
        if times_V:
            S, block = S[:, None], out[1:]
        else:
            S, block = S[0] + np.tensordot(kappa, S[1:], axes=1), out[0]
        block += on(particle, S, c)
    return out


def _dictionary(V, points, M):
    """The scalar fields that every mode's basis shares: h (H, n, n, n)
    with h_{k,s} = IFFT[kappa_k(. + s e_k) F V] for each axis k and each
    index s that a point of the modes has on that axis, and rows (3, n),
    rows[k, s] the row of h_{k,s}. By the shift theorem
    IFFT[kappa_k F V(. - k_u)] = e_u h_{k,(k_u)_k}, e_u = e^{+i 2 pi k_u.j / n}.
    The shifted multiplier acts along axis k alone, so the 3-D transforms
    of the other two axes cancel and h_{k,s} is M[s] (_axis_matrices)
    applied to V along axis k: no 3-D transform."""
    n = len(M)
    used = np.zeros((3, n), bool)
    for k, _ in points:
        used[np.arange(3), k] = True
    rows = np.cumsum(used).reshape(3, n) - 1
    h = np.empty((np.count_nonzero(used), n, n, n), complex)
    for (axis, s), row in zip(np.argwhere(used), h):
        _along(M[s], V, axis, row)
    return h, rows


def _phases(n: int, k):
    """The factors of e_u = e^{+i 2 pi k_u.j / n} at a mode's grid indices
    k (U, 3) on the grid's (n, n^2) view: ex (U, n) along axis 0 and
    eyz (U, n^2) over the flattened columns (axes 1 and 2), each read
    from the n-th roots of unity at k_u j mod n."""
    roots = np.exp(2j * np.pi / n * np.arange(n))
    ex, ey, ez = roots[k.T[:, :, None] * np.arange(n) % n]  # each (U, n)
    return ex, (ey[:, :, None] * ez[:, None, :]).reshape(len(k), n * n)


def _basis(V, h, rows, k, phases, planes: slice, cols: slice, out):
    """A mode's basis on the rectangle planes x cols of the grid's (n, n^2)
    view (axis-0 planes by flattened columns), into out (5U, p, c), in
    blocks of U rows in the order of its grid indices k (U, 3): e_u,
    e_u V, then e_u h_{j,(k_u)_j} for the axes j (h and rows from
    _dictionary, phases from _phases). Returns out."""
    n, U = len(V), len(k)
    ex, eyz = phases
    e = np.multiply(ex[:, planes, None], eyz[:, None, cols], out=out[:U])
    np.multiply(e, V.reshape(n, -1)[planes, cols], out=out[U : 2 * U])
    h = h.reshape(len(h), n, -1)
    for axis in range(3):
        np.multiply(e, h[rows[axis, k[:, axis]], planes, cols], out=out[(2 + axis) * U : (3 + axis) * U])
    return out


# ---------------------------------------------------------------------------
# Field constructors


def _wave_sum(grid: Grid, m, amps) -> np.ndarray:
    """The samples sum_w amps_w e^{+i 2 pi m_w.x / L} on the grid,
    shape (16, n, n, n).

    Each phase factors over the axes, so the field is one product
    chi[c, x, (y, z)] = sum_w (amp_wc e^x_w[x]) (e^y_w[y] e^z_w[z]) of a
    (16 n x W) by a (W x n^2) matrix: no per-wave or (W, n^3) phase
    array is made. No waves give the zero field.
    """
    n = grid.n
    ex, ey, ez = np.exp(2j * np.pi / grid.L * (m.T[:, :, None] * grid.axis))  # each (W, n)
    left = (amps.T[:, None, :] * ex.T).reshape(16 * n, len(m))
    right = (ey[:, :, None] * ez[:, None, :]).reshape(len(m), n * n)
    return (left @ right).reshape(16, n, n, n)


def _mode_points(grid: Grid, m, amps):
    """The distinct grid indices k (U, 3), in [0, n), of a mode's waves
    and its coefficients c (U, 16) there, so that its samples are
    chi_j = sum_u c_u e^{+i 2 pi k_u.j / n} and F chi = n^3 c at k.

    At x_j = -L/2 + (j + 1/2) h a wave e^{+i 2 pi m x / L} is
    e^{i pi m (1/n - 1)} e^{+i 2 pi m j / n} per axis, so each amplitude
    takes the product of its axes' phases and waves with the same index
    mod n (repeated or aliased) add, in wave order."""
    n = grid.n
    phase = np.exp(1j * np.pi * (1.0 / n - 1.0) * m.sum(axis=1))
    flat, which = np.unique(np.ravel_multi_index((m % n).T, (n, n, n)), return_inverse=True)
    c = np.zeros((len(flat), 16), complex)
    np.add.at(c, which, phase[:, None] * amps)
    return np.stack(np.unravel_index(flat, (n, n, n)), axis=1), c


def _points_norm(grid: Grid, points) -> float:
    """The field norm sqrt(sum_modes ||chi||^2 h^3) from each mode's
    points (k, c) of _mode_points: ||chi||^2 = n^3 sum_u |c_u|^2 by
    Parseval."""
    total = sum(np.sum(np.abs(c) ** 2) for _, c in points)
    return float(np.sqrt(total * grid.n**3 * grid.h**3))


def equal_time_profile(fld: InternalField) -> np.ndarray:
    """phi(0, x) of the field sampled on its grid: every relative-energy
    phase is 1 at t = 0, so it is the sum of all the field's waves, one
    product over all of them. The array is new and the caller's to
    overwrite."""
    m = np.concatenate([m for _, m, _ in fld.modes])
    amps = np.concatenate([amps for _, _, amps in fld.modes])
    return _wave_sum(fld.grid, m, amps)


# The test field's relative energies and its waves per mode.
_TEST_P0 = (0.17, -0.4, 0.33)
_TEST_WAVES = 6


def random_band_limited_field(P, grid: Grid, rng: np.random.Generator, max_index: int = 2) -> InternalField:
    """A random smooth test field: three relative-energy modes, each a
    superposition of six plane waves of integer wavevector indices in
    [-max_index, max_index] with gaussian complex amplitudes. Per wave
    the rng draws the indices, then the amplitudes' real parts, then
    their imaginary parts."""
    modes = []
    for p0 in _TEST_P0:
        m = np.empty((_TEST_WAVES, 3), dtype=int)
        amps = np.empty((_TEST_WAVES, 16), dtype=complex)
        for w in range(_TEST_WAVES):
            m[w] = rng.integers(-max_index, max_index + 1, size=3)
            amps[w].real = rng.standard_normal(16)
            amps[w].imag = rng.standard_normal(16)
        modes.append((p0, m, amps))
    return InternalField(P=P, grid=grid, modes=tuple(modes))


# ---------------------------------------------------------------------------
# Compatibility identity


# The residual runs over slabs of whole axis-0 planes of about
# _SLAB_POINTS points each, then over blocks of about as many columns
# across all planes: a slab's product of 48 rows (0.75 MiB of complex
# numbers) or a block's of 16, with its basis (0.5 MiB at 6 waves), fits
# a 2 MiB L2 cache.
_SLAB_POINTS = 1024

# A mode with more than this fraction of its spectral weight in the top
# third of the band warns that its residual is aliasing-dominated.
_BAND_EDGE_WEIGHT = 1e-10


def _slab_sizes(n: int) -> tuple[int, int]:
    """Axis-0 planes per slab and columns (axes 1 and 2 flattened) per
    block of the residual on an n^3 grid."""
    return min(n, max(1, round(_SLAB_POINTS / n**2))), min(n**2, max(1, round(_SLAB_POINTS / n)))


def _prefix(buf, shape):
    """The first prod(shape) entries of the flat buffer buf, shaped."""
    return buf[: math.prod(shape)].reshape(shape)


def _band_limit_guard(n: int, k, c):
    """Warn if a mode carries noticeable weight in the top third of the
    band, read from its coefficients c at its grid indices k; the
    residual measurement presumes smoothness."""
    power = np.sum(np.abs(c) ** 2, axis=1)
    total = np.sum(power)
    if total == 0:
        return
    signed = np.where(k >= n // 2, k - n, k)  # fftfreq's signed index
    frac = np.sum(power[np.any(np.abs(signed) > n / 3.0, axis=1)]) / total
    if frac > _BAND_EDGE_WEIGHT:
        warnings.warn(
            f"field has fraction {frac:.2e} of spectral weight in the "
            "top third of the band; residual will be aliasing-dominated",
            AliasingWarning,
            stacklevel=3,
        )


def compatibility_residual(
    system: TwoBodyDiracSystem,
    fld: InternalField,
    commutator_realization: str = "analytic",
) -> float:
    """Relative residual of [D_1, D_2] phi = -[K_1, V] D_1 phi + [K_2, V] D_2 phi.

    With commutator_realization="composed" the right-hand side uses the
    same grid operators as the left and the identity holds to roundoff
    by construction. With "analytic" (default) the commutators come from
    the exact potential gradient, so the residual is the discretization
    error of the product spectra and decays at spectral rate on smooth
    band-limited fields.

    With d_i = D_i chi and Q_k = gamma_1^k d_1 + gamma_2^k d_2, T and the
    three Q_k (see the module docstring) are 64 coefficient rows per
    relative-energy mode, made from the D_i coefficients of
    _coefficients by the 4x4 gammas, times the mode's basis (_basis),
    whose scalar fields are built from the dictionary h that _dictionary
    makes once. With kappa_k the axis matrix F^-1 diag(kappa) F along
    axis k (_axis_matrices, _along) the difference of the two sides is

        analytic:  V T + sum_k [(i d_k V) Q_k + kappa_k (V Q_k)]
        composed:  V (T + sum_k kappa_k Q_k),

    three axis products per mode and no 3-D transform. The factor i sits
    in the Q_k rows, so the gradient multipliers d_k V = dV/dxperp^2
    (-2 x^k) are real and the axis matrix is -i kappa_k.

    A mode runs in two stages over the grid's (n, n^2) view (gamma^k
    pairs with grid axis k - 1). Over slabs of whole axis-0 planes
    (_slab_sizes): each slab's basis and 48-row product, T and Q_2, Q_3,
    then the V T term and every term of Q_2 and Q_3 (T and the kappa
    terms for composed), written into the one array of the mode's size.
    Then over blocks of columns, all planes: each block's basis and
    16-row product Q_1, its terms added to the block's part of that
    array (the sum multiplied by V for composed), squared and summed.
    The norm is read from the points the
    residual already holds (_points_norm). Masses and P0 that overflow
    the sum raise a ValueError naming them.
    """
    if commutator_realization not in ("analytic", "composed"):
        raise ValueError(f"unknown commutator realization: {commutator_realization!r}")
    composed = commutator_realization == "composed"
    m1, m2 = system.masses.m1, system.masses.m2
    g = system.gammas.gamma
    grid = fld.grid
    n = grid.n
    P0, P_sq = fld.P[0], minkowski_sq(fld.P)
    # V and dV/dxperp^2 on the grid's distinct radii, taken at each point's radius
    r2, index = grid.radial
    V = eval_V(system.potential, -r2, P_sq)[index]
    if not composed:
        # d_k V = dV/dxperp^2 (-2 x^k), formed per slab and block
        dV = eval_dV_dxperp_sq(system.potential, -r2, P_sq)[index]
        minus_2x = -2.0 * grid.axis
    points = [_mode_points(grid, m, amps) for _, m, amps in fld.modes]
    M = _axis_matrices(grid)
    K = -1j * M[0]  # kappa_k Q_k = (-i kappa_k)(i Q_k)
    h, rows = _dictionary(V, points, M)
    planes, cols = _slab_sizes(n)
    # a slab's or block's basis, spent after its product and then
    # scratch for each term, and the product: T and i Q_2, i Q_3 of a
    # slab, or i Q_1 of a block with the block's sum; every array is a
    # prefix of its buffer, so it is contiguous
    basis_buf = np.empty(max(5 * max((len(k) for k, _ in points), default=0), 16) * max(planes * n * n, n * cols), complex)
    work_buf = np.empty(max(48 * planes * n * n, 32 * n * cols), complex)
    diff = np.empty((16, n, n, n), complex)  # the difference but for Q_1's terms
    eye = np.eye(4)
    total = 0.0
    for (p0, _, _), (k, c) in zip(fld.modes, points):
        _band_limit_guard(n, k, c)
        U = len(k)
        p1_0, p2_0 = P0 / 2 + p0, P0 / 2 - p0
        c = c.reshape(U, 4, 4)
        # the coefficients of d_1 and d_2 on the basis, then of T and the
        # i Q_k: Q_2, Q_3 (axes 1 and 2) for the slabs, Q_1 (axis 0) for the blocks
        d1, d2 = (_coefficients(terms, grid.wavenumbers[k], c) for terms in _D_terms(system, p1_0, p2_0))
        T = on(2, p2_0 * g[0] - m2 * eye, d2) - on(1, p1_0 * g[0] + m1 * eye, d1)
        T[0] += (2 * P0 * p0 + (m2 - m1) * (m2 + m1)) * c
        iQ = [1j * (on(1, g[j], d1) + on(2, g[j], d2)) for j in (2, 3, 1)]
        coefficients = np.stack([T, *iQ]).transpose(0, 3, 4, 1, 2).reshape(64, 5 * U)
        phases = _phases(n, k)
        for a in range(0, n, planes):
            s = slice(a, min(a + planes, n))
            p = s.stop - a
            basis = _basis(V, h, rows, k, phases, s, slice(None), _prefix(basis_buf, (5 * U, p, n * n)))
            work = _prefix(work_buf, (3, 16, p, n, n))
            np.matmul(coefficients[:48], basis.reshape(5 * U, p * n * n), out=work.reshape(48, -1))
            t, qs = work[0], work[1:]  # T and i Q_2, i Q_3 on the slab
            scratch = _prefix(basis_buf, t.shape)
            if not composed:
                t *= V[s]
                for q, xk in zip(qs, (minus_2x[:, None], minus_2x)):
                    t += np.multiply(q, dV[s] * xk, out=scratch)
                qs *= V[s]
            t += _along(K, qs[0], 1, scratch)
            np.add(t, _along(K, qs[1], 2, scratch), out=diff[:, s])
        # Q_1's terms in blocks of columns (axes 1 and 2 flattened) across
        # all planes, each added to its part of diff, then squared and summed
        for a in range(0, n * n, cols):
            s = slice(a, min(a + cols, n * n))
            basis = _basis(V, h, rows, k, phases, slice(None), s, _prefix(basis_buf, (5 * U, n, s.stop - a)))
            q, block = _prefix(work_buf, (2, 16, n, s.stop - a))
            np.matmul(coefficients[48:], basis.reshape(5 * U, q[0].size), out=q.reshape(16, -1))
            scratch = _prefix(basis_buf, q.shape)
            V_s = V.reshape(n, -1)[:, s]
            np.matmul(K, q if composed else np.multiply(q, V_s, out=scratch), out=block)
            block += diff.reshape(16, n, -1)[:, :, s]
            if composed:
                block *= V_s
            else:
                block += np.multiply(q, dV.reshape(n, -1)[:, s] * minus_2x[:, None], out=scratch)
            total += np.sum(np.square(block.view(float), out=block.view(float)))
    if not math.isfinite(total):
        raise ValueError(f"masses ({m1!r}, {m2!r}) and P0 = {float(P0)!r} overflow the compatibility residual")
    return float(np.sqrt(total * grid.h**3)) / _points_norm(grid, points)


# ---------------------------------------------------------------------------
# Plane-wave solutions for constant potentials


# Singular values below SV_TOL count as null directions. Eigenvalues of
# the pencil closer than ROOT_TOL are one root, and eigenvalues with an
# imaginary part above ROOT_TOL are not real.
SV_TOL = 1e-8
ROOT_TOL = 1e-7


def _first_equation_matrix(system, p1, p2):
    """The 16x16 matrix M_1 of the first equation at particle momenta
    p1, p2: D_1 with V replaced by its constant value."""
    v = system.potential.constant_value()
    m1, m2 = system.masses.m1, system.masses.m2
    eye = np.eye(16)
    return lift(1, slash(system.gammas, p1)) - m1 * eye + (lift(2, slash(system.gammas, p2)) - m2 * eye) * v


def _dispersion_matrix(system, P, p_spatial, p0):
    """M_1 at relative energy p0 and relative momentum p_spatial."""
    p = np.array([p0, *p_spatial])
    return _first_equation_matrix(system, P / 2 + p, P / 2 - p)


def plane_wave_solutions(system: TwoBodyDiracSystem, P, p_spatial, p0_window=(-3.0, 3.0)):
    """Relative energies p0 at which the first equation's matrix M_1
    is singular, with a basis of its null space at each root: the
    setting in which the current-divergence analysis is nontrivial.

    M_1 is the pencil M_1(p0) = A + p0 B with invertible
    B = gamma_1^0 - v gamma_2^0, so its roots are the real eigenvalues of
    -B^{-1} A. Coincident eigenvalues (roots found so far have
    multiplicity 4 or 8) are grouped into one root, and one SVD of M_1
    there gives the null-space basis; a group with no null vector at its
    mean that spans two roots (at small |v| they can lie closer than
    ROOT_TOL) is split at its widest gap and retried. Roots are returned
    in increasing order; an empty window is not an error. Masses, P0 and
    v large enough to overflow -B^{-1} A raise a ValueError naming them.
    """
    lo, hi = p0_window
    P = as_four_vector(P)
    v = system.potential.constant_value()
    A = _dispersion_matrix(system, P, p_spatial, 0.0)
    B = lift(1, system.gammas.gamma[0]) - v * lift(2, system.gammas.gamma[0])
    pencil = np.linalg.solve(B, -A)
    if not np.isfinite(pencil).all():
        m1, m2, P0 = system.masses.m1, system.masses.m2, float(P[0])
        raise ValueError(f"masses ({m1!r}, {m2!r}), P0 = {P0!r} and v = {v!r} overflow the dispersion pencil -B^-1 A")
    eigs = np.linalg.eigvals(pencil)
    real = np.sort(eigs.real[np.abs(eigs.imag) <= ROOT_TOL])
    real = real[(real >= lo) & (real <= hi)]
    groups = np.split(real, np.flatnonzero(np.diff(real) > ROOT_TOL) + 1) if real.size else []

    out = []
    while groups:
        group = groups.pop(0)
        p0 = float(np.mean(group))
        _, s, vh = np.linalg.svd(_dispersion_matrix(system, P, p_spatial, p0))
        basis = vh[s < SV_TOL].conj().T
        if basis.shape[1]:
            out.append((p0, basis))
        elif group.size > 1 and np.max(np.diff(group)) > SV_TOL:
            # two roots closer than ROOT_TOL, too far from their mean to
            # be null there: each side of the widest gap is tried alone
            cut = int(np.argmax(np.diff(group))) + 1
            groups[:0] = [group[:cut], group[cut:]]
    return out


def plane_wave_state(P, p_spatial, p0, u) -> PlaneWaveState:
    """Package a null vector as a plane-wave state with its momenta."""
    P = as_four_vector(P)
    p = np.array([p0, *p_spatial])
    return PlaneWaveState(u=u, p1=P / 2 + p, p2=P / 2 - p)


def free_product_state(gammas: GammaSet, masses: MassPair, p_spatial) -> PlaneWaveState:
    """The on-shell product state of the free pair with particle 1 at
    p_1 = (E_1, p) and particle 2 at p_2 = (E_2, -p), E_i = hypot(m_i, |p|),
    so P = (E_1 + E_2, 0) and p0 = (E_1 - E_2)/2.

    u = u_1 x u_2 with u_1 the largest column of (p_1.gamma + m_1) and
    u_2 that of (p_2.gamma - m_2). On shell (p.gamma)^2 = m^2, so
    (p_1.gamma - m_1) u_1 = 0 and (p_2.gamma + m_2) u_2 = 0: u solves
    both free equations (Peskin & Schroeder, ch. 3). Each matrix is
    divided by its E_i, so its entries are at most 2 for any finite mass.
    """
    p = np.asarray(p_spatial, dtype=float)
    k = math.hypot(*p)
    p1 = np.array([math.hypot(masses.m1, k), *p])
    p2 = np.array([math.hypot(masses.m2, k), *(-p)])
    c1 = slash(gammas, p1 / p1[0]) + masses.m1 / p1[0] * np.eye(4)
    c2 = slash(gammas, p2 / p2[0]) - masses.m2 / p2[0] * np.eye(4)
    u1, u2 = (c[:, np.argmax(np.linalg.norm(c, axis=0))] for c in (c1, c2))
    return PlaneWaveState(u=np.outer(u1, u2), p1=p1, p2=p2)


def first_equation_residual(system: TwoBodyDiracSystem, state: PlaneWaveState) -> float:
    """Norm ||M_1 u|| of the first equation's residual on the state, each
    term applied to the state by on, not by the pencil's matrix M_1."""
    g, v, eye = system.gammas, system.potential.constant_value(), np.eye(4)
    u, m1, m2 = state.u.reshape(4, 4), system.masses.m1, system.masses.m2
    return float(np.linalg.norm(on(1, slash(g, state.p1) - m1 * eye, u) + v * on(2, slash(g, state.p2) - m2 * eye, u)))
