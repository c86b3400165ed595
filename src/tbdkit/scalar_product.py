"""Equal-time norm kernels and the quadratic forms they define.

A norm kernel is its form pair (A, B): the pointwise quadratic-form
matrix A(x) 1_16 + B(x) gamma_1^0 gamma_2^0 at one scalar P^2, with real
A, B, hence Hermitian pointwise. On a grid, A and B are evaluated at
x_perp^2 = -r2 of the grid's distinct squared radii (grid.radial); a
grid point reads the pair of its radius. The sesquilinear
form of two internal fields on the t = 0 slice reads the pair, and the
positivity scans certify its eigenvalues A +- B. The three flavors, as
the paper writes their brackets:

  free      K = gamma_1^0 gamma_2^0
  sazdjian  K = (1 - V^2) gamma_1^0 gamma_2^0 + 4 P^2 (dV/dP^2) 1
  crater    K = 1 - 4 P^2 (dDelta/dP^2) gamma_1^0 gamma_2^0

form_pair, the one place these formulas live, reads them through the
rapidity Delta of V = tanh(Delta), so the two flavors' A - |B| differ by
the positive factor sech^2(Delta) (see its docstring). The gauge
checks, the positivity scan and the radius routes all read it directly.
The free flavor's form is the plain product h^3 sum_x phi_a^dagger
phi_b.

A pair of equal-time profiles pa, pb (the t = 0 slices phi(0, x) of two
fields, of shape (16, n, n, n); operators.equal_time_profile builds one
from an internal field) enters any kernel only through two pointwise densities
(densities), each of shape (n, n, n):

    rho   = sum_c conj(pa_c) pb_c
    sigma = sum_c conj(pa_c) (gamma_1^0 gamma_2^0 pb)_c

and the form value is h^3 sum_x [A rho + B sigma] (form_value). rho and sigma
are conjugating dots over the spinor axis (np.vecdot), so no conjugate
or product of the profiles is stored. The densities of a profile pair
are computed once and serve every kernel evaluated on it.

Quadrature is the plain Riemann sum over the periodic grid, spectrally
accurate for smooth periodic integrands; summation uses numpy's
pairwise reduction, which is deterministic for fixed shapes on one numpy
build only: its rounding order varies across numpy versions. A small
difference of two nearly equal forms is therefore the form of the
density differences (the form is linear in the densities), summed
pointwise, not taken between the two rounded totals.
"""

from __future__ import annotations

import numpy as np

from .operators import Grid
from .potentials import eval_ddelta_dP2, eval_delta
from .spinor_algebra import GammaSet, lift

FLAVORS = ("free", "sazdjian", "crater")


def form_pair(flavor: str, potential, P_sq: float, x_perp_sq):
    """Quadratic-form pair (A, B) of the requested flavor at a timelike
    P^2 > 0, pointwise over an array of x_perp^2 <= 0.

    The free and sazdjian brackets multiply psi_bar = psi^dagger
    gamma_1^0 gamma_2^0, so their form matrix is gamma_1^0 gamma_2^0 K;
    as (gamma_1^0 gamma_2^0)^2 = 1, the written pair appears swapped:
    free (A, B) = (1, 0), sazdjian (A, B) = (1 - V^2, 4 P^2 dV/dP^2)
    = sech^2(Delta) (1, b) with b = 4 P^2 dDelta/dP^2, whose A does not
    cancel where V saturates. The crater bracket multiplies psi^dagger
    and is taken as written: (A, B) = (1, -b). Each flavor reads
    dDelta/dP^2 from one eval_ddelta_dP2 call; only sazdjian also
    evaluates Delta (one eval_delta call), so crater never forms a Delta
    it does not read.

    An overflow in the potential either drops out of the pair (1/cosh^2
    of an overflowed cosh is 0) or leaves it non-finite, which its
    callers reject or read as not positive; numpy's warnings add nothing.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown kernel flavor: {flavor!r}")
    if not P_sq > 0:
        raise ValueError("total momentum must be timelike")
    if flavor == "free":
        return np.ones_like(x_perp_sq), np.zeros_like(x_perp_sq)
    with np.errstate(over="ignore", invalid="ignore"):
        ddelta = eval_ddelta_dP2(potential, x_perp_sq, P_sq)
        if flavor == "crater":
            return np.ones_like(x_perp_sq), -4.0 * P_sq * ddelta  # -b in one pass
        sech_sq = 1.0 / np.cosh(eval_delta(potential, x_perp_sq, P_sq)) ** 2
        return sech_sq, sech_sq * (4.0 * P_sq * ddelta)


def densities(gammas: GammaSet, pa: np.ndarray, pb: np.ndarray):
    """The pointwise densities (rho, sigma) of two raw equal-time
    profiles, through which every kernel's quadratic form reads them."""
    a, b = pa.reshape(16, -1), pb.reshape(16, -1)
    rho = np.vecdot(a, b, axis=0)
    sigma = np.vecdot(a, lift(1, gammas.gamma[0]) @ lift(2, gammas.gamma[0]) @ b, axis=0)
    return rho.reshape(pa.shape[1:]), sigma.reshape(pa.shape[1:])


def form_value(pair, grid: Grid, rho: np.ndarray, sigma: np.ndarray) -> complex:
    """Quadratic form h^3 sum_x [A rho + B sigma] of the form pair
    (A, B) on the grid, read on a profile pair's densities."""
    A, B = pair
    return complex(np.sum(A * rho + B * sigma) * grid.h**3)

