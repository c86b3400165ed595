"""Two-dimensional indefinite-metric counterexample suite.

The space is C^2 with the indefinite product <v, w> = v^dagger A w,
A = diag(1, -1), and the evolution generated by the A-non-Hermitian
B = [[0, i], [-i, 0]]. Restricting to the cone of positive-norm vectors
does not survive the dynamics: no initial datum with |a| > |b| keeps a
positive norm at both quarter-period times t = pi/4 and t = 3 pi/4,
because those two values are +-2 Re(conj(a) b) with opposite signs.
positivity_breakdown_search demonstrates this on a fixed (rho, phi) grid
of initial data (1, rho e^{i phi}), built by sweep_samples, and checks
the whole grid in array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

A = np.diag([1.0, -1.0]).astype(complex)
B = np.array([[0.0, 1j], [-1j, 0.0]])


def a_product(v, w) -> complex:
    """Indefinite product v^dagger A w."""
    v = np.asarray(v, dtype=complex).reshape(2)
    w = np.asarray(w, dtype=complex).reshape(2)
    return complex(v.conj() @ A @ w)


def evolve(u0, t: float) -> np.ndarray:
    """Solution u(t) = cos(t) u0 - i sin(t) B u0 of the toy wave
    equation with initial datum u0."""
    u0 = np.asarray(u0, dtype=complex).reshape(2)
    return np.cos(t) * u0 - 1j * np.sin(t) * (B @ u0)


def norm_along_evolution(a: complex, b: complex, t: float) -> float:
    """Closed form of <u(t), u(t)> for u0 = (a, b):
    (|a|^2 - |b|^2)(cos^2 t - sin^2 t) + 4 Re(conj(a) b) cos t sin t."""
    a = complex(a)
    b = complex(b)
    c, s = np.cos(t), np.sin(t)
    return float((abs(a) ** 2 - abs(b) ** 2) * (c * c - s * s) + 4.0 * (a.conjugate() * b).real * c * s)


@dataclass(frozen=True)
class BreakdownReport:
    n_samples: int
    n_positive_initially: int
    n_survivors: int
    witness: tuple | None  # a sample failing at the quarter periods, for the record


def sweep_samples(n_rho: int, n_phi: int) -> np.ndarray:
    """The (rho, phi) sweep as an (n_rho n_phi, 2) array of initial data
    (1, rho e^{i phi}): n_rho radii evenly from 0 to 0.99, n_phi angles
    evenly over [0, 2 pi), rho-major."""
    rhos = np.linspace(0.0, 0.99, n_rho)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    b = (rhos[:, None] * np.exp(1j * phis)).ravel()
    return np.stack([np.ones_like(b), b], axis=1)


def positivity_breakdown_search(samples=None) -> BreakdownReport:
    """Sweep initial data (a, b) with |a| > |b| and test positivity of
    the evolved norm at t = pi/4 and t = 3 pi/4.

    At those times cos^2 - sin^2 vanishes identically, so the closed
    form reduces to +2 Re(conj(a) b) and -2 Re(conj(a) b): the exact
    quarter-period values used here (evaluating cos/sin at pi/4 in
    floating point would leave a spurious residue of the first term).
    Positivity at both times would need Re(conj(a) b) to be positive
    and negative at once, so the survivor count is zero; the report
    carries the first non-survivor as a witness.

    samples is a sequence of (a, b) pairs or an (m, 2) array, by default
    the 100 x 100 sweep_samples grid; all of it is evaluated at once.
    """
    samples = sweep_samples(100, 100) if samples is None else samples
    ab = np.asarray(samples, dtype=complex).reshape(len(samples), 2)
    a, b = ab[:, 0], ab[:, 1]
    if not np.all(np.abs(a) > np.abs(b)):
        raise ValueError("samples must satisfy |a| > |b|")
    # Re(conj(a) b), spelled out in the operation order of Python's
    # complex product; numpy's complex multiply can differ in the last bit
    re_ab = a.real * b.real + a.imag * b.imag
    at_quarter = 2.0 * re_ab
    at_three_quarters = -2.0 * re_ab
    survives = (at_quarter > 0) & (at_three_quarters > 0)
    failing = np.flatnonzero(~survives)
    witness = None
    if failing.size:
        i = failing[0]
        witness = (complex(a[i]), complex(b[i]), float(at_quarter[i]), float(at_three_quarters[i]))
    return BreakdownReport(
        n_samples=len(ab),
        n_positive_initially=len(ab),  # |a| > |b| puts every (a, b) in the positive cone
        n_survivors=int(np.count_nonzero(survives)),
        witness=witness,
    )
