"""The coupled first-order operators of the two-body system and their
compatibility identity, on internal fields at fixed total momentum.

State representation. A wave function at total momentum eigenvalue P is
psi = phi(x) e^{-i P.X} with phi an internal field of the relative
coordinate. Because the potential is x^0-independent in the rest frame,
phi is carried as a finite list of relative-energy modes,

    phi(x) = sum_m e^{-i p0_m x^0} chi_m(bold x),

each chi_m a C^16-valued field on a periodic spatial grid. Time
derivatives then act analytically on the mode labels and only the three
spatial derivatives are spectral. The grid is offset by half a cell so
the origin (where the Yukawa core blows up) is never sampled; n must be
even or the offset pattern would put a point at r = 0.

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
(D_2 likewise). A symbol is applied entry by entry on one spinor index
of a (4, 4, n, n, n) view of the spectrum: out[a] = sum_b S[a, b] x[b]
over the nonzero entries only. The entries of sum_k gamma^k kappa_k are
read off the gammas (two per row for Dirac and Weyl) and broadcast
over the wavenumber grid; the gamma^0 and mass part is a constant.

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

The residual shares transforms: a spectrum that is known is never
transformed again. Per relative-energy mode, F chi and F(V chi) give the
spectra of D_1 chi and D_2 chi, whose inverses d_1, d_2 give F(V d_1)
and F(V d_2), and one inverse transform of the left side follows. That
is 7 FFTs per mode for the analytic realization (its commutators act
pointwise on d_1, d_2) and 8 for the composed one; V is evaluated once
per residual, and the symbol tables and the band-limit guard's mask
once. The guard reads F chi from the same pass; the analytic
commutators are tables of i gamma^k d_k V applied to d_1 and d_2.

Plane waves. For a constant potential v the first equation is the
linear matrix pencil M_1(p0) = A + p0 B with B = gamma_1^0 - v gamma_2^0,
whose eigenvalues +-1 +- v make it invertible for |v| < 1. The
dispersion roots are the real eigenvalues of -B^{-1} A. The free pair
needs no search: its on-shell product states u_1 x u_2 solve both
equations in closed form (free_product_state).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kinematics import FourVector, MassPair, as_four_vector, check_rest_frame, minkowski_sq
from .potentials import eval_V, eval_dV_dxperp_sq
from .spinor_algebra import GammaSet, lift1, lift2, slash, slash1, slash2

__all__ = [
    "AliasingWarning",
    "Grid",
    "InternalField",
    "PlaneWaveState",
    "TwoBodyDiracSystem",
    "compatibility_residual",
    "equal_time_profile",
    "field_from_modes",
    "free_product_state",
    "random_band_limited_field",
    "random_band_limited_spec",
    "plane_wave_solutions",
    "plane_wave_state",
    "state_residuals",
]


class AliasingWarning(UserWarning):
    """A spectral operation was asked to represent modes the grid cannot."""


@dataclass(frozen=True)
class Grid:
    """Periodic spatial grid of n^3 points in a box of side L, offset by
    half a cell: x_j = -L/2 + (j + 1/2) h. The offset keeps r = 0 out of
    the sample set, which the Yukawa core requires."""

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
    def radius_sq(self) -> np.ndarray:
        # x^2 + y^2 + z^2 broadcast from the axis, without the mesh
        s = self.axis**2
        return s[:, None, None] + s[None, :, None] + s


@dataclass(frozen=True)
class InternalField:
    """Internal field at fixed total momentum: modes is a tuple of
    (p0, chi) with chi of shape (16, n, n, n). P is a timelike
    rest-frame four-vector; construction (replace included) rejects
    anything else, so no operator checks it again.

    The field norm treats distinct relative-energy modes as orthogonal
    channels (they are, under time averaging), so ||phi||^2 =
    sum_modes ||chi||^2 h^3.
    """

    P: FourVector
    grid: Grid
    modes: tuple

    def __post_init__(self):
        object.__setattr__(self, "P", check_rest_frame(self.P))
        n = self.grid.n
        checked = []
        for p0, chi in self.modes:
            chi = np.asarray(chi, dtype=complex)
            if chi.shape != (16, n, n, n):
                raise ValueError(f"mode field must have shape (16, {n}, {n}, {n})")
            checked.append((float(p0), chi))
        object.__setattr__(self, "modes", tuple(checked))

    def norm(self) -> float:
        total = sum(np.sum(np.abs(chi) ** 2) for _, chi in self.modes)
        return float(np.sqrt(total * self.grid.h**3))


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


_AXES = (-3, -2, -1)  # the spatial axes of a (4, 4, n, n, n) field


# numpy allocates a fresh output on each axis pass of fftn unless it is
# given one: every transform gets an out, a new array or (for a complex
# temporary) its own input, which transforms it in place.
def _fft(x, out=None):
    return np.fft.fftn(x, axes=_AXES, out=np.empty(x.shape, complex) if out is None else out)


def _ifft(x, out=None):
    return np.fft.ifftn(x, axes=_AXES, out=np.empty(x.shape, complex) if out is None else out)


def _gamma_table(gammas: GammaSet, c):
    """Nonzero entries of sum_k gamma^k[a, b] c_k as rows: table[a]
    lists (b, entry), each entry in the broadcast shape of its c_k. The
    pattern comes from the gammas: 2 entries a row for Dirac and Weyl,
    4 for a dense representation."""
    g = gammas.gamma[1:]
    return [
        [(b, sum(g[j, a, b] * c[j] for j in np.flatnonzero(g[:, a, b]))) for b in range(4) if g[:, a, b].any()]
        for a in range(4)
    ]


def _apply_rows(rows, x, particle: int, out=None):
    """out[a] = sum of s x[b] over (b, s) in rows[a], on the particle's
    spinor index (axis 0 of x, or 1 for particle 2); added to out when
    it is given."""
    fresh = out is None
    out = np.empty_like(x) if fresh else out
    xv, ov = (x, out) if particle == 1 else (x.swapaxes(0, 1), out.swapaxes(0, 1))
    tmp = np.empty_like(xv[0])
    for a, row in enumerate(rows):
        if fresh and not row:
            ov[a] = 0
        for j, (b, s) in enumerate(row):
            if fresh and j == 0:
                np.multiply(xv[b], s, out=ov[a])
            else:
                ov[a] += np.multiply(xv[b], s, out=tmp)
    return out


def _kinetic(gammas: GammaSet, particle: int, p_0: float, spec, table, shift: float = 0.0):
    """(K_i + shift) acting on a spectrum through its symbol
    S = p_i^0 gamma^0 + shift -+ sum_k gamma^k kappa_k, minus for
    particle 1 (momentum P/2 + p), plus for particle 2. The constant
    4x4 part is merged into the rows of the kappa table."""
    const = p_0 * gammas.gamma[0] + shift * np.eye(4)
    sign = 1.0 if particle == 1 else -1.0
    rows = []
    for a, row in enumerate(table):
        merged = {b: const[a, b] for b in np.flatnonzero(const[a])}
        for b, t in row:
            merged[b] = merged.get(b, 0.0) - sign * t
        rows.append(list(merged.items()))
    return _apply_rows(rows, spec, particle)


def _D_spectrum(system: TwoBodyDiracSystem, which: int, p1_0, p2_0, table, F_chi, F_Vchi):
    """Spectrum of D_which chi for one relative-energy mode, four symbol
    applications to the spectra of chi and V chi:
    F D_1 chi = (K_1 - m_1) F chi + (K_2 - m_2) F(V chi),
    F D_2 chi = (K_2 + m_2) F chi + (K_1 + m_1) F(V chi)."""
    m1, m2 = system.masses.m1, system.masses.m2
    g = system.gammas
    if which == 1:
        out = _kinetic(g, 1, p1_0, F_chi, table, -m1)
        out += _kinetic(g, 2, p2_0, F_Vchi, table, -m2)
    else:
        out = _kinetic(g, 2, p2_0, F_chi, table, m2)
        out += _kinetic(g, 1, p1_0, F_Vchi, table, m1)
    return out


# ---------------------------------------------------------------------------
# Field constructors


def _wave_sum(grid: Grid, waves) -> np.ndarray:
    """The field sum_w amp_w e^{+i 2 pi m_w.x / L} of waves (m, amp) on
    the grid, shape (16, n, n, n), warning once per wave in order whose
    index lies outside [-n/2, n/2), on behalf of the caller of the
    public function that calls this one directly.

    Each phase factors over the axes, so the field is one product
    chi[c, x, (y, z)] = sum_w (amp_wc e^x_w[x]) (e^y_w[y] e^z_w[z]) of a
    (16 n x W) by a (W x n^2) matrix: no per-wave or (W, n^3) phase
    array is made. No waves give the zero field.
    """
    n = grid.n
    m = np.array([idx for idx, _ in waves], dtype=int).reshape(-1, 3)
    amps = np.array([np.asarray(amp, dtype=complex).reshape(16) for _, amp in waves]).reshape(-1, 16)
    for row in m[np.any((m < -n // 2) | (m >= n // 2), axis=1)]:
        warnings.warn(
            f"wavevector index {tuple(row)} outside the grid's "
            f"representable range [{-n // 2}, {n // 2}); it will alias",
            AliasingWarning,
            stacklevel=3,
        )
    ex, ey, ez = np.exp(2j * np.pi / grid.L * (m.T[:, :, None] * grid.axis))  # each (W, n)
    left = (amps.T[:, None, :] * ex.T).reshape(16 * n, len(m))
    right = (ey[:, :, None] * ez[:, None, :]).reshape(len(m), n * n)
    return (left @ right).reshape(16, n, n, n)


def field_from_modes(P, grid: Grid, mode_spec) -> InternalField:
    """Build an internal field from integer wavevector data.

    mode_spec: list of (p0, waves); each wave is (m, amp) with m three
    integers indexing the Fourier mode e^{+i 2 pi m.x / L} and amp a
    16-component amplitude. Indices outside the representable range
    [-n/2, n/2) alias onto other modes; that is reported as an
    AliasingWarning, not an error, because convergence studies evaluate
    one spec on several grids on purpose. Each mode is one product of
    per-axis factors (see _wave_sum); a mode with no waves is the zero
    field.
    """
    modes = []
    for p0, waves in mode_spec:  # not a comprehension: its frame would take the warnings
        modes.append((p0, _wave_sum(grid, waves)))
    return InternalField(P=P, grid=grid, modes=tuple(modes))


def equal_time_profile(grid: Grid, mode_spec) -> np.ndarray:
    """phi(0, x) of the field that field_from_modes would build from
    mode_spec, without building its modes: every relative-energy phase
    is 1 at t = 0, so it is the sum of all the spec's waves, one product
    over all of them. The array is new and the caller's to overwrite."""
    return _wave_sum(grid, [wave for _, waves in mode_spec for wave in waves])


def random_band_limited_spec(rng, p0_values=(0.17, -0.4, 0.33), waves_per_mode=6, max_index=2):
    """Mode spec of a random smooth test field: a few relative-energy
    modes, each a superposition of low-wavevector plane waves with
    gaussian complex amplitudes."""
    return [
        (p0, [
            (rng.integers(-max_index, max_index + 1, size=3), rng.standard_normal(16) + 1j * rng.standard_normal(16))
            for _ in range(waves_per_mode)
        ])
        for p0 in p0_values
    ]


def random_band_limited_field(P, grid: Grid, rng: np.random.Generator, **spec) -> InternalField:
    """The field of random_band_limited_spec(rng, **spec)."""
    return field_from_modes(P, grid, random_band_limited_spec(rng, **spec))


# ---------------------------------------------------------------------------
# Compatibility identity


def _band_limit_guard(F_chi, mask, threshold: float = 1e-10):
    """Warn if a mode spectrum carries noticeable weight where mask is
    set (the top third of the band); the residual measurement presumes
    smoothness."""
    power = np.sum(np.abs(F_chi) ** 2, axis=(0, 1))
    total = np.sum(power)
    if total == 0:
        return
    frac = np.sum(power[mask]) / total
    if frac > threshold:
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

    One pass per relative-energy mode transforms every field once. With
    s_i the spectrum of D_i chi and d_i = IFFT s_i, the left side's
    spectrum is K_1 (s_2 - F(V d_1)) + K_2 (F(V d_2) - s_1)
    - m_1 (s_2 + F(V d_1)) - m_2 (F(V d_2) + s_1); the composed
    difference lhs - rhs is IFFT[lhs + K_1 F(V d_1) - K_2 F(V d_2)]
    - V IFFT[K_1 s_1 - K_2 s_2]. The squared difference is summed mode
    by mode.
    """
    if commutator_realization not in ("analytic", "composed"):
        raise ValueError(f"unknown commutator realization: {commutator_realization!r}")
    m1, m2 = system.masses.m1, system.masses.m2
    g = system.gammas
    grid = fld.grid
    P0, P_sq = fld.P[0], minkowski_sq(fld.P)
    V = eval_V(system.potential, -grid.radius_sq, P_sq)
    table = _gamma_table(g, np.ix_(*[grid.wavenumbers] * 3))
    shell = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n)) > grid.n / 3.0  # top third of the band
    mask = shell[:, None, None] | shell[None, :, None] | shell[None, None, :]
    if commutator_realization == "analytic":
        # [K_1, V] = +i gamma_1^k (d_k V), [K_2, V] = -i gamma_2^k (d_k V),
        # with d_k V = dV/dxperp^2 * (-2 x^k); the table holds i gamma^k d_k V,
        # x^k broadcast along its own axis
        idV = 1j * eval_dV_dxperp_sq(system.potential, -grid.radius_sq, P_sq)
        x = grid.axis
        commutator = _gamma_table(g, [idV * (-2.0 * xk) for xk in (x[:, None, None], x[:, None], x)])
    total = 0.0
    for p0, chi in fld.modes:
        p1_0, p2_0 = P0 / 2 + p0, P0 / 2 - p0
        chi4 = chi.reshape(4, 4, *chi.shape[1:])
        F_chi = _fft(chi4)
        _band_limit_guard(F_chi, mask)
        Vchi = V * chi4
        F_Vchi = _fft(Vchi, out=Vchi)
        s1 = _D_spectrum(system, 1, p1_0, p2_0, table, F_chi, F_Vchi)
        s2 = _D_spectrum(system, 2, p1_0, p2_0, table, F_chi, F_Vchi)
        del F_chi, F_Vchi, Vchi
        d1, d2 = _ifft(s1), _ifft(s2)
        Vd1, Vd2 = V * d1, V * d2
        F_Vd1, F_Vd2 = _fft(Vd1, out=Vd1), _fft(Vd2, out=Vd2)
        lhs = _kinetic(g, 1, p1_0, s2 - F_Vd1, table)
        lhs += _kinetic(g, 2, p2_0, F_Vd2 - s1, table)
        lhs -= m1 * (s2 + F_Vd1)
        lhs -= m2 * (F_Vd2 + s1)
        if commutator_realization == "analytic":
            # lhs - rhs with rhs = -[K_1, V] d_1 + [K_2, V] d_2
            diff = _apply_rows(commutator, d2, 2, _apply_rows(commutator, d1, 1, _ifft(lhs, out=lhs)))
        else:
            lhs += _kinetic(g, 1, p1_0, F_Vd1, table)
            lhs -= _kinetic(g, 2, p2_0, F_Vd2, table)
            diff = _ifft(lhs, out=lhs)
            kin = _kinetic(g, 1, p1_0, s1, table)
            kin -= _kinetic(g, 2, p2_0, s2, table)
            diff -= V * _ifft(kin, out=kin)
        total += np.sum(np.abs(diff) ** 2)
    return float(np.sqrt(total * grid.h**3)) / fld.norm()


# ---------------------------------------------------------------------------
# Plane-wave solutions for constant potentials


# Singular values below SV_TOL count as null directions. Eigenvalues of
# the pencil closer than ROOT_TOL are one root, and eigenvalues with an
# imaginary part above ROOT_TOL are not real.
SV_TOL = 1e-8
ROOT_TOL = 1e-7


def _equation_matrices(system, p1, p2):
    """The 16x16 matrices (M_1, M_2) of the two equations at particle
    momenta p1, p2: D_1 and D_2 with V replaced by its constant value."""
    v = system.potential.constant_value()
    m1, m2 = system.masses.m1, system.masses.m2
    S1 = slash1(system.gammas, p1)
    S2 = slash2(system.gammas, p2)
    eye = np.eye(16)
    M1 = S1 - m1 * eye + (S2 - m2 * eye) * v
    M2 = S2 + m2 * eye + (S1 + m1 * eye) * v
    return M1, M2


def _dispersion_matrix(system, P, p_spatial, p0):
    """M_1 at relative energy p0 and relative momentum p_spatial."""
    P = as_four_vector(P)
    p = np.array([p0, *p_spatial])
    return _equation_matrices(system, P / 2 + p, P / 2 - p)[0]


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
    in increasing order; an empty window is not an error.
    """
    lo, hi = p0_window
    v = system.potential.constant_value()
    A = _dispersion_matrix(system, P, p_spatial, 0.0)
    B = lift1(system.gammas, 0) - v * lift2(system.gammas, 0)
    eigs = np.linalg.eigvals(np.linalg.solve(B, -A))
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


def state_residuals(system: TwoBodyDiracSystem, state: PlaneWaveState):
    """Norms (||M_1 u||, ||M_2 u||) of the two equation residuals."""
    M1, M2 = _equation_matrices(system, state.p1, state.p2)
    return float(np.linalg.norm(M1 @ state.u)), float(np.linalg.norm(M2 @ state.u))
