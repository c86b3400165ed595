"""Tensor currents of the pair: the free bilinear, its divergence
defects under interaction, the Green's-function completion that restores
conservation, and the gauge-restriction checks.

Plane-wave closed forms are the primary path. For two states
psi_a = u_a e^{-i(p1a.x1 + p2a.x2)}, psi_b likewise, every bilinear
psi_bar_a (...) psi_b carries the phase e^{+i(k1.x1 + k2.x2)} with
k1 = p1a - p1b, k2 = p2a - p2b, so derivatives act as multiplication:
d/dx1^mu -> +i (k1)_mu. A current is stored as its 4x4 coefficient
tensor J^{mu nu} together with (k1, k2).

The completion inverts the wave operator per particle coordinate. A
Green's function with Box G = delta^4 acts on our e^{+ik.x} phases as
multiplication by m(k) = -1/(k^2 +- 2ik^0 eps), the sign of the shift
selecting advanced (+, poles in the upper half plane, support at
x^0 <= 0) or retarded (-). The advanced choice is the default, being
the completion that switches off with the interaction; both conserve.

The eps -> 0 limit is taken exactly: at eps = 0 both choices give
m(k) = -1/k^2, so 1 + m(k) k^2 = 0, and with f = i (k1.f2) the completed
divergences vanish identically for any J, not only the free current.
That is what conservation_sweep certifies; its finite regulators show
the O(eps) approach, where the Green choice matters.

The gauge checks certify both restricted phases in one pass
(gauge_check) on the compat test field: the form pairs at P and at
P + a, the field's equal-time profile (one product over all its waves)
and its densities are built once each; a relative phase must leave the
norm invariant, and a total-momentum phase shifts it by the kernel at
P + a.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .kinematics import FourVector, as_four_vector, check_rest_frame, minkowski_sq
from .operators import InternalField, PlaneWaveState, TwoBodyDiracSystem, equal_time_profile, first_equation_residual
from .potentials import eval_V
from .scalar_product import densities, form_pair, form_value
from .spinor_algebra import GammaSet, on, slash

__all__ = [
    "PlaneWaveCurrent",
    "DefectFields",
    "ConservationSweep",
    "GaugeReport",
    "j_free_current",
    "divergence1",
    "divergence2",
    "surviving_divergence_term",
    "defects",
    "green_multiplier",
    "j_add",
    "conservation_sweep",
    "coincidence_limit_term",
    "gauge_check",
]


def _lower(k):
    k = as_four_vector(k)
    return np.array([k[0], -k[1], -k[2], -k[3]])


@dataclass(frozen=True)
class PlaneWaveCurrent:
    """Closed-form tensor current: coefficient J[mu, nu] of the phase
    e^{+i(k1.x1 + k2.x2)}."""

    J: np.ndarray
    k1: FourVector
    k2: FourVector

    def __post_init__(self):
        J = np.asarray(self.J, dtype=complex)
        if J.shape != (4, 4):
            raise ValueError("current coefficient must be 4x4")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "k1", as_four_vector(self.k1))
        object.__setattr__(self, "k2", as_four_vector(self.k2))

    def __add__(self, other):
        if not (np.allclose(self.k1, other.k1) and np.allclose(self.k2, other.k2)):
            raise ValueError("currents with different momentum transfer cannot be added")
        return replace(self, J=self.J + other.J)


@dataclass(frozen=True)
class DefectFields:
    """Divergence defects of the free current j_free: coefficients of
    F1^nu = d_{1 mu} j^{mu nu}, F2^mu = d_{2 nu} j^{mu nu} and the
    double divergence F, all on the same phase as the current."""

    f1: np.ndarray
    f2: np.ndarray
    f: complex
    k1: FourVector
    k2: FourVector
    j_free: PlaneWaveCurrent


def _ubar(gammas: GammaSet, state: PlaneWaveState):
    """u_bar = u^dagger gamma_1^0 gamma_2^0 as a flat 16-vector: the
    conjugate of gamma_1^0 gamma_2^0 u, gamma^0 being Hermitian."""
    g0 = gammas.gamma[0]
    return on(1, g0, on(2, g0, state.u.reshape(4, 4))).conj().reshape(16)


def j_free_current(gammas: GammaSet, state_a: PlaneWaveState, state_b: PlaneWaveState) -> PlaneWaveCurrent:
    """Full 4x4 coefficient tensor of the free current for the pair of
    plane-wave states, with its momentum transfers: J[mu, nu] is u_bar_a
    times gamma_1^mu gamma_2^nu u_b, for all mu, nu in one broadcast."""
    g = gammas.gamma
    J = on(1, g[:, None], on(2, g, state_b.u.reshape(4, 4))).reshape(4, 4, 16) @ _ubar(gammas, state_a)
    return PlaneWaveCurrent(
        J=J, k1=state_a.p1 - state_b.p1, k2=state_a.p2 - state_b.p2
    )


def divergence1(j: PlaneWaveCurrent) -> np.ndarray:
    """Coefficient of d_{1 mu} j^{mu nu}: i (k1)_mu J^{mu nu}."""
    return 1j * (_lower(j.k1) @ j.J)


def divergence2(j: PlaneWaveCurrent) -> np.ndarray:
    """Coefficient of d_{2 nu} j^{mu nu}: i (k2)_nu J^{mu nu}."""
    return 1j * (j.J @ _lower(j.k2))


def surviving_divergence_term(
    system: TwoBodyDiracSystem, state_a: PlaneWaveState, state_b: PlaneWaveState
) -> np.ndarray:
    """Closed form of d_{1 mu} j^{mu nu} for first-equation solutions at
    constant potential v: after the free parts cancel against the mass
    terms, what survives is

        -i v u_bar_a [ -(m_2 - slash_2(p2_a)) gamma_2^nu
                       + gamma_2^nu (m_2 - slash_2(p2_b)) ] u_b .

    The m_1 terms drop entirely; only the second-particle structure
    remains. This is an independent route to the same vector as
    divergence1(j_free_current(...)) and the pair is compared to 1e-10
    in the acceptance checks.
    """
    v = system.potential.constant_value()
    g = system.gammas
    m2 = system.masses.m2
    eye = np.eye(4)
    Qa = m2 * eye - slash(g, state_a.p2)
    Qb = m2 * eye - slash(g, state_b.p2)
    bracket = -Qa @ g.gamma + g.gamma @ Qb
    return -1j * v * (on(2, bracket, state_b.u.reshape(4, 4)).reshape(4, 16) @ _ubar(g, state_a))


# Equation residual above which a state is not accepted as a solution.
RESIDUAL_TOL = 1e-8


def defects(system: TwoBodyDiracSystem, state_a: PlaneWaveState, state_b: PlaneWaveState) -> DefectFields:
    """Divergence defects of the free current for a solution pair.

    The defect formulas presuppose that both states solve the first
    equation; a state whose first_equation_residual ||M_1 u|| exceeds
    RESIDUAL_TOL is rejected. No formula here reads the second equation.
    """
    for s in (state_a, state_b):
        r1 = first_equation_residual(system, s)
        if r1 > RESIDUAL_TOL:
            raise ValueError(
                f"state has first-equation residual {r1:.2e} above {RESIDUAL_TOL:.0e}; "
                "defect formulas presuppose solutions"
            )
    j = j_free_current(system.gammas, state_a, state_b)
    f1 = divergence1(j)
    f2 = divergence2(j)
    f = complex(-_lower(j.k1) @ j.J @ _lower(j.k2))
    return DefectFields(f1=f1, f2=f2, f=f, k1=j.k1, k2=j.k2, j_free=j)


def green_multiplier(k, epsilon: float, choice: str = "advanced") -> complex:
    """Fourier multiplier of the inverse wave operator on the e^{+ik.x}
    phase: -1/(k^2 + 2ik^0 eps) advanced, minus sign retarded. At eps = 0
    both choices give the unregulated -1/k^2, which a lightlike transfer
    (k^2 = 0) leaves undefined; no eps helps a zero transfer k = 0. Both
    are rejected."""
    if not epsilon >= 0:
        raise ValueError("the inverse wave operator needs epsilon >= 0")
    ksq = minkowski_sq(k)
    k = as_four_vector(k)
    if choice == "advanced":
        denominator = ksq + 2j * k[0] * epsilon
    elif choice == "retarded":
        denominator = ksq - 2j * k[0] * epsilon
    else:
        raise ValueError(f"unknown Green choice: {choice!r}")
    if denominator == 0:
        kind = "lightlike" if np.any(k) else "zero"
        raise ValueError(f"{kind} momentum transfer k = {k.tolist()}: the Green multiplier is undefined")
    return -1.0 / denominator


def j_add(defect: DefectFields, green_choice: str = "advanced", epsilon: float = 1e-3) -> PlaneWaveCurrent:
    """The three-term completion built from the defects:

        j_add^{mu nu} = -d_1^mu (G1 * F1^nu) - d_2^nu (G2 * F2^mu)
                        + d_1^mu d_2^nu (G1 * G2 * F)

    realized on the plane-wave phase as multiplication by the regulated
    Green multipliers. Zero defects give the zero current.
    """
    m1 = green_multiplier(defect.k1, epsilon, green_choice)
    m2 = green_multiplier(defect.k2, epsilon, green_choice)
    k1 = defect.k1
    k2 = defect.k2
    J = (
        -1j * m1 * np.outer(k1, defect.f1)
        - 1j * m2 * np.outer(defect.f2, k2)
        - m1 * m2 * defect.f * np.outer(k1, k2)
    )
    return PlaneWaveCurrent(J=J, k1=k1, k2=k2)


# Regulators at which conservation_sweep reports the O(eps) approach.
EPSILONS = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class ConservationSweep:
    epsilons: tuple
    green_choice: str
    residuals1: tuple  # max |divergence1| of j_int at each regulator
    residuals2: tuple
    residual: float  # max |divergence1|, |divergence2| of j_int at epsilon = 0


def _divergence_maxima(dfs: DefectFields, green_choice: str, epsilon: float):
    j_int = dfs.j_free + j_add(dfs, green_choice, epsilon)
    return float(np.max(np.abs(divergence1(j_int)))), float(np.max(np.abs(divergence2(j_int))))


def conservation_sweep(
    system: TwoBodyDiracSystem,
    state_a: PlaneWaveState,
    state_b: PlaneWaveState,
    green_choice: str = "advanced",
) -> ConservationSweep:
    """Divergences of the completed current j_int = j_free + j_add.

    residual is read at epsilon = 0, where they vanish identically for
    any J (see the module docstring), so it measures rounding alone.
    residuals1/2 are read at the regulators EPSILONS, where they shrink
    as O(eps)."""
    dfs = defects(system, state_a, state_b)
    residual = max(_divergence_maxima(dfs, green_choice, 0.0))
    r1s, r2s = zip(*(_divergence_maxima(dfs, green_choice, eps) for eps in EPSILONS))
    return ConservationSweep(
        epsilons=EPSILONS,
        green_choice=green_choice,
        residuals1=r1s,
        residuals2=r2s,
        residual=residual,
    )


def coincidence_limit_term(potential, x_perp_sq, P0: float, epsilon: float) -> float:
    """Complex-step value of the equal-total-momentum limit term of the
    interacting norm:

        t(eps) = 2 P^0 [V((P^0 + i eps)^2) - V((P^0 - i eps)^2)] / (2 i eps)
               = 2 P^0 Im V((P^0 + i eps)^2) / eps
               = 4 (P^0)^2 dV/dP^2 + O(eps^2) .

    No difference of nearly equal values is formed, so eps can be as
    small as 1e-20, where the O(eps^2) error is far below one ulp
    (Squire & Trapp, SIAM Review 40, 1998).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    vplus = eval_V(potential, x_perp_sq, (P0 + 1j * epsilon) ** 2)
    return float(2.0 * P0 * np.imag(vplus) / epsilon)


# ---------------------------------------------------------------------------
# Gauge restriction checks


@dataclass(frozen=True)
class GaugeReport:
    """Outcome of gauge_check. For kind "relative_only", difference is
    the quadrature of the pointwise density difference,
    h^3 sum_x [A (rho' - rho) + B (sigma' - sigma)], so it can differ
    from value_after - value_before by about one ulp of the values."""

    kind: str
    P_before: FourVector
    P_after: FourVector
    value_before: complex
    value_after: complex
    difference: complex
    independent_difference: complex | None
    tolerance: float
    passed: bool


def _relative_phase(grid, c):
    """e^{+i c_spatial . x} on the grid: the factor by which
    psi -> e^{-i theta} psi, theta = c.x in the relative coordinate,
    multiplies the equal-time profile. The shift of every relative
    energy by c^0 leaves the t = 0 slice as it is."""
    c = as_four_vector(c)
    x = grid.axis
    return np.exp(1j * ((c[1] * x)[:, None, None] + (c[2] * x)[None, :, None] + (c[3] * x)[None, None, :]))


GAUGE_TOLERANCE = 1e-10  # bound on each gauge_check verdict's difference


def gauge_check(
    potential,
    gammas: GammaSet,
    fld: InternalField,
    c,
    a,
    flavor: str = "sazdjian",
) -> tuple[GaugeReport, GaugeReport]:
    """Effect of the two restricted gauge phases on the interacting norm
    of the field fld, at its total momentum P and on its grid, as the
    reports (relative_only, total_dependent).

    The form pairs (A, B) at P and P + a (scalar_product.form_pair on
    the grid's distinct radii, taken at each point's radius), the field's
    equal-time profile and its densities rho, sigma (see scalar_product)
    are built once each and serve both phases. The profile is one product over all the field's waves
    (operators.equal_time_profile). The field has checked that P is a
    rest-frame momentum; P + a is checked before anything is built.

    relative_only: theta = c.x depends on the relative coordinate alone.
    P is untouched and the norm must be invariant (the phase cancels
    pointwise inside the sesquilinear form). On the t = 0 slice the
    transformed profile is e^{i c.x} times the untransformed one (the
    shift of p0 by c^0 does not reach it), so the phase multiplies the
    profile, which this function owns, in place after its densities are
    taken, and the result is reduced to its own densities. The reported
    difference is the pointwise sum h^3 sum_x [A (rho' - rho) + B
    (sigma' - sigma)]; it can differ from value_after - value_before by
    about one ulp of the values.

    total_dependent: theta = a.X shifts the total momentum to P + a and
    leaves the profile as it is, so the kernel at P + a is read on the
    same densities; with a P^2-dependent potential the value genuinely
    changes. independent_difference reads that same kernel again, so it
    repeats the main route bit for bit and its agreement cannot fail
    (ROADMAP item 2).

    A value that overflows raises a ValueError naming the inputs that
    can cause it.
    """
    P, grid, a = fld.P, fld.grid, as_four_vector(a)
    try:
        P_after = check_rest_frame(P + a)
    except ValueError as e:
        raise ValueError(f"a = {a.tolist()} shifts the total momentum to P + a = {(P + a).tolist()}: {e}") from None
    r2, index = grid.radial
    kernel_before = tuple(x[index] for x in form_pair(flavor, potential, minkowski_sq(P), -r2))
    kernel_after = tuple(x[index] for x in form_pair(flavor, potential, minkowski_sq(P_after), -r2))
    profile = equal_time_profile(fld)
    rho, sigma = densities(gammas, profile, profile)
    profile *= _relative_phase(grid, c)
    rho_out, sigma_out = densities(gammas, profile, profile)
    value_before = form_value(kernel_before, grid, rho, sigma)
    value_relative = form_value(kernel_before, grid, rho_out, sigma_out)
    # The invariance is pointwise, so the difference is summed from the
    # density differences: subtracting the two rounded totals leaves a
    # whole number of their ulps, set by numpy's summation order.
    rho_out -= rho
    sigma_out -= sigma
    drift = form_value(kernel_before, grid, rho_out, sigma_out)
    value_total = form_value(kernel_after, grid, rho, sigma)
    shift = value_total - value_before
    # independent_difference: the same kernel read again (see above)
    indep = form_value(kernel_after, grid, rho, sigma) - value_before
    if not cmath.isfinite(value_before):
        raise ValueError(f"the potential, grid.L and P0 = {float(P[0])!r} overflow the norm at P")
    if not (cmath.isfinite(value_relative) and cmath.isfinite(drift)):
        raise ValueError(f"c = {[float(x) for x in as_four_vector(c)]} and grid.L overflow the relative phase")
    if not (cmath.isfinite(value_total) and cmath.isfinite(shift)):
        raise ValueError(f"the potential and a = {a.tolist()} overflow the norm at P + a")
    relative = GaugeReport(
        kind="relative_only",
        P_before=P,
        P_after=P,
        value_before=value_before,
        value_after=value_relative,
        difference=drift,
        independent_difference=None,
        tolerance=GAUGE_TOLERANCE,
        passed=bool(abs(drift) <= GAUGE_TOLERANCE),
    )
    total = GaugeReport(
        kind="total_dependent",
        P_before=P,
        P_after=P_after,
        value_before=value_before,
        value_after=value_total,
        difference=shift,
        independent_difference=indep,
        tolerance=GAUGE_TOLERANCE,
        passed=bool(abs(shift - indep) <= GAUGE_TOLERANCE),
    )
    return relative, total
