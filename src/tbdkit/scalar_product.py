"""Equal-time inner products: the free baseline and the interacting
norm kernels.

A kernel is the pointwise 16x16 matrix K(x) whose sesquilinear form
defines the product of two internal fields on the t = 0 slice. All
implemented kernels have the two-coefficient structure

    K(x) = ident_coef(x) 1_16 + gamma_coef(x) gamma_1^0 gamma_2^0

with real coefficients, hence are Hermitian pointwise. The three
flavors:

  free      K = gamma_1^0 gamma_2^0
  sazdjian  K = (1 - V^2) gamma_1^0 gamma_2^0 + 4 P^2 (dV/dP^2) 1
  crater    K = 1 - 4 P^2 (dDelta/dP^2) gamma_1^0 gamma_2^0

The flavors do not share one conjugation convention: free and sazdjian
are written against psi_bar = psi^dagger gamma_1^0 gamma_2^0, crater
against psi^dagger directly. interacting_inner_product absorbs this so
that the free flavor reproduces free_inner_product up to the order of
summation, and the positivity scans act on the resulting quadratic-form
matrix (for the bar flavors that is gamma_1^0 gamma_2^0 K, whose
coefficient pair is the kernel's swapped).

Because every kernel is A 1 + B gamma_1^0 gamma_2^0 in its quadratic
form, a pair of equal-time profiles pa, pb enters any kernel only
through two pointwise densities (_densities), each of shape (n, n, n):

    rho   = sum_c conj(pa_c) pb_c
    sigma = sum_c conj(pa_c) (gamma_1^0 gamma_2^0 pb)_c

and the form value is h^3 sum_x [A rho + B sigma]. The densities of a
profile pair are computed once and serve every kernel evaluated on it.

Quadrature is the plain Riemann sum over the periodic grid, spectrally
accurate for smooth periodic integrands; summation uses numpy's
pairwise reduction, which is deterministic for fixed shapes on one numpy
build only: its rounding order varies across numpy versions. A small
difference of two nearly equal forms is therefore the form of the
density differences (the form is linear in the densities), summed
pointwise, not taken between the two rounded totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import FourVector, check_rest_frame, minkowski_sq
from .operators import Grid, InternalField
from .potentials import eval_V, eval_dV_dP2, eval_ddelta_dP2
from .spinor_algebra import GammaSet, gamma0_pair

FLAVORS = ("free", "sazdjian", "crater")

# Flavors whose written bracket multiplies psi_bar rather than psi^dagger.
_BAR_FLAVORS = ("free", "sazdjian")


@dataclass(frozen=True)
class NormKernel:
    flavor: str
    P: FourVector
    grid: Grid
    ident_coef: np.ndarray  # coefficient of 1_16, shape (n, n, n)
    gamma_coef: np.ndarray  # coefficient of gamma_1^0 gamma_2^0
    gammas: GammaSet

    def form_coefficients(self):
        """Coefficient pair (A, B) of the quadratic-form matrix
        A 1 + B gamma_1^0 gamma_2^0, after absorbing the flavor's
        conjugation convention."""
        if self.flavor in _BAR_FLAVORS:
            # psi_bar K psi = psi^dagger (gamma_1^0 gamma_2^0 K) psi and
            # (gamma_1^0 gamma_2^0)^2 = 1, so the coefficients swap.
            return self.gamma_coef, self.ident_coef
        return self.ident_coef, self.gamma_coef


def build_kernel(flavor: str, potential, P, grid: Grid, gammas: GammaSet) -> NormKernel:
    """Pointwise norm kernel of the requested flavor on the grid."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown kernel flavor: {flavor!r}")
    P = check_rest_frame(P)
    P_sq = minkowski_sq(P)
    shape = (grid.n,) * 3
    x_perp_sq = -grid.radius_sq
    if flavor == "free":
        ident = np.zeros(shape)
        gamma = np.ones(shape)
    elif flavor == "sazdjian":
        V = eval_V(potential, x_perp_sq, P_sq)
        ident = 4.0 * P_sq * eval_dV_dP2(potential, x_perp_sq, P_sq)
        gamma = 1.0 - V**2
    else:
        ident = np.ones(shape)
        gamma = -4.0 * P_sq * eval_ddelta_dP2(potential, x_perp_sq, P_sq)
    return NormKernel(
        flavor=flavor, P=P, grid=grid, ident_coef=ident, gamma_coef=gamma, gammas=gammas
    )


def _equal_time_profile(fld: InternalField) -> np.ndarray:
    """phi(0, x) = sum of the mode profiles (the relative-energy phases
    are all 1 on the t = 0 slice)."""
    out = np.zeros((16,) + (fld.grid.n,) * 3, dtype=complex)
    for _, chi in fld.modes:
        out += chi
    return out


def _check_same(field_a: InternalField, field_b: InternalField):
    if field_a.grid != field_b.grid:
        raise ValueError("fields live on different grids")
    if not np.allclose(field_a.P, field_b.P, rtol=0.0, atol=1e-12):
        raise ValueError("fields carry different total momenta")


def free_inner_product(field_a: InternalField, field_b: InternalField) -> complex:
    """Baseline product: integral of phi_a^dagger phi_b over the t = 0
    slice, as the Riemann sum times the cell volume."""
    _check_same(field_a, field_b)
    pa = _equal_time_profile(field_a)
    pb = _equal_time_profile(field_b)
    return complex(np.sum(pa.conj() * pb) * field_a.grid.h**3)


def _apply_gamma_pair(gammas: GammaSet, profile: np.ndarray) -> np.ndarray:
    return (gamma0_pair(gammas) @ profile.reshape(16, -1)).reshape(profile.shape)


def _densities(gammas: GammaSet, pa: np.ndarray, pb: np.ndarray):
    """The pointwise densities (rho, sigma) of two raw equal-time
    profiles, through which every kernel's quadratic form reads them."""
    pa_conj = pa.conj()
    rho = np.sum(pa_conj * pb, axis=0)
    sigma = np.sum(pa_conj * _apply_gamma_pair(gammas, pb), axis=0)
    return rho, sigma


def _form_value(kernel: NormKernel, rho: np.ndarray, sigma: np.ndarray) -> complex:
    """Quadratic form h^3 sum_x [A rho + B sigma] of the kernel on a
    profile pair's densities."""
    A, B = kernel.form_coefficients()
    return complex(np.sum(A * rho + B * sigma) * kernel.grid.h**3)


def _check_domain(kernel: NormKernel, field_a: InternalField, field_b: InternalField):
    """The two fields share a grid and a momentum, and both are the
    kernel's."""
    _check_same(field_a, field_b)
    if field_a.grid != kernel.grid:
        raise ValueError("fields and kernel live on different grids")
    if not np.allclose(field_a.P, kernel.P, rtol=0.0, atol=1e-12):
        raise ValueError(
            "field momentum differs from the kernel's; cross-momentum "
            "products are outside the equal-time kernel's domain"
        )


def interacting_inner_product(
    kernel: NormKernel, field_a: InternalField, field_b: InternalField
) -> complex:
    """Quadratic form of the kernel between two fields at equal time,
    with the flavor's conjugation convention absorbed (the free flavor
    reproduces free_inner_product up to the order of summation)."""
    _check_domain(kernel, field_a, field_b)
    pa = _equal_time_profile(field_a)
    pb = _equal_time_profile(field_b)
    return _form_value(kernel, *_densities(kernel.gammas, pa, pb))
