"""Positivity certification and violation finding for the norm kernels.

The scan evaluates the smallest eigenvalue of a kernel flavor's
quadratic-form matrix A 1 + B gamma_1^0 gamma_2^0 at every grid point
and every requested P^2, in closed form as A - |B| (gamma_1^0 gamma_2^0
is an involution with eigenvalues +-1), and reports the global minimum
eigenvalue and the set of violating points. For the Yukawa-tanh
potential the violation region is a ball whose analytic radius r*
solves r e^{mu r} = g1 g2 / (4 pi |P^0|); the scan's empirical boundary
is cross-checked against it.

h_function is the pair of eigenvalue branches of the Sazdjian-flavor
form for the Yukawa-tanh potential as a function of the dimensionless
variable y; its minus branch changes sign at y = 1/2, which is the same
boundary the Crater-flavor branches 1 -+ 2y produce. Both boundaries
are recovered numerically by flavor_boundary_radius without assuming
that coincidence.

The radius routes read the coupling and y(r, P^0) of the YukawaTanh they
are given, which checked mu > 0 and a finite g1 g2 when it was built;
they check only what depends on P^0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import FOUR_PI, YukawaTanh
from .scalar_product import build_kernel

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class PositivityReport:
    flavor: str
    potential: str  # repr of the spec, for serialization
    P2_values: tuple
    min_eigenvalue: float
    argmin_index: tuple  # (i, j, k) grid index of the minimum
    argmin_radius: float
    argmin_P2: float
    violation_count: int
    violation_points: tuple  # (i, j, k, P2) of every violating point
    violation_radius_max: float | None
    analytic_radius: float | None
    tolerance: float
    passed: bool
    # min_eigenvalue_map at argmin_P2, for the kernel CSV; not in the JSON
    argmin_map: np.ndarray = field(repr=False, compare=False, metadata={"serialize": False})


def scan(
    flavor: str,
    potential,
    P2_set,
    grid,
    tol: float = DEFAULT_TOL,
) -> PositivityReport:
    """Smallest eigenvalue of the kernel's quadratic form over the grid
    and a set of P^2 values. The report keeps the eigenvalue map of the
    P^2 that holds the minimum."""
    P2_values = tuple(float(p) for p in P2_set)
    if not P2_values:
        raise ValueError("P2_set must be nonempty")
    min_eig = math.inf
    argmin = (0, 0, 0)
    argmin_P2 = P2_values[0]
    violations = []
    for P2 in P2_values:
        # an overflow in the potential either drops out of the eigenvalue
        # (1/cosh^2 of an overflowed cosh is 0) or leaves it non-finite,
        # which is rejected below with its P^2; numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            eigs = min_eigenvalue_map(flavor, potential, P2, grid)
        if not np.all(np.isfinite(eigs)):
            raise ValueError(f"the form eigenvalue is not finite at every grid point for P^2 = {P2!r}")
        idx = np.unravel_index(np.argmin(eigs), eigs.shape)
        if eigs[idx] < min_eig:
            min_eig = float(eigs[idx])
            argmin = tuple(int(i) for i in idx)
            argmin_P2 = P2
            argmin_map = eigs
        bad = np.argwhere(eigs < -tol)
        violations.extend((int(i), int(j), int(k), P2) for i, j, k in bad)
    radius = np.sqrt(grid.radius_sq)
    vr_max = max((float(radius[i, j, k]) for i, j, k, _ in violations), default=None)
    analytic = None
    if isinstance(potential, YukawaTanh):
        analytic = violation_radius(potential, math.sqrt(argmin_P2))
    passed = min_eig >= -tol
    return PositivityReport(
        flavor=flavor,
        potential=repr(potential),
        P2_values=P2_values,
        min_eigenvalue=min_eig,
        argmin_index=argmin,
        argmin_radius=float(radius[argmin]),
        argmin_P2=argmin_P2,
        violation_count=len(violations),
        violation_points=tuple(violations),
        violation_radius_max=vr_max,
        analytic_radius=analytic,
        tolerance=tol,
        passed=passed,
        argmin_map=argmin_map,
    )


def min_eigenvalue_map(flavor: str, potential, P2: float, grid):
    """Smallest form eigenvalue at every grid point for a single P^2,
    shape (n, n, n). This is the per-point data behind scan().

    The form matrix is A 1 + B gamma_1^0 gamma_2^0 per point. Since
    gamma_1^0 gamma_2^0 is a Hermitian involution with both signs in its
    spectrum, the eigenvalues are exactly A + B and A - B, and the
    smallest is A - |B|.
    """
    kernel = build_kernel(flavor, potential, P2, grid)
    return kernel.A - np.abs(kernel.B)


def h_function(y: float, branch: str) -> float:
    """Eigenvalue branch of the Sazdjian-form positivity condition,
    written exactly as the condition reads: 1 - tanh^2(-y) +- 2y/cosh^2(-y)."""
    if branch == "plus":
        sign = 1.0
    elif branch == "minus":
        sign = -1.0
    else:
        raise ValueError(f"unknown branch: {branch!r}")
    return 1.0 - math.tanh(-y) ** 2 + sign * 2.0 * y / math.cosh(-y) ** 2


def _bisect(below, lo, hi, tol):
    """Midpoint of [lo, hi] after halving it until narrower than tol or
    until no double lies between lo and hi (past 2^13 they are spaced
    wider than 1e-12), moving lo up where below(mid) holds and hi down
    elsewhere."""
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def violation_radius(potential: YukawaTanh, P0: float) -> float:
    """The radius r* > 0 solving r e^{mu r} = g1 g2 / (4 pi |P^0|), found
    by bisection (the left side is strictly increasing). Nonpositive
    coupling product means no violation anywhere: returns 0. A right
    side that overflows to infinity is rejected."""
    if P0 == 0:
        raise ValueError("P0 must be nonzero")
    mu = potential.mu
    rhs = potential.g1 * potential.g2 / (FOUR_PI * abs(P0))
    if not math.isfinite(rhs):
        raise ValueError(f"g1 g2 / (4 pi |P0|) = {rhs} is not a finite number")
    if rhs <= 0:
        return 0.0
    log_rhs = math.log(rhs)

    def below(r):
        # e^{mu r} overflows past mu r = 709.78; compare logarithms there
        if mu * r > 700.0:
            return math.log(r) + mu * r < log_rhs
        return r * math.exp(mu * r) < rhs

    # r e^{mu r} >= r, so the root is at most rhs
    return _bisect(below, 0.0, rhs, 1e-12)


def _critical_y(flavor: str) -> float:
    """Zero crossing of the flavor's smallest form eigenvalue as a
    function of y, located by bisection without using the analytic
    simplifications."""
    if flavor == "sazdjian":
        def worst(y):
            return min(h_function(y, "plus"), h_function(y, "minus"))
    elif flavor == "crater":
        def worst(y):
            return min(1.0 - 2.0 * y, 1.0 + 2.0 * y)
    else:
        raise ValueError(f"no closed eigenvalue branches for flavor {flavor!r}")
    if not (worst(0.0) > 0 > worst(8.0)):
        raise RuntimeError("eigenvalue branch does not change sign on [0, 8]")
    return _bisect(lambda y: worst(y) > 0, 0.0, 8.0, 1e-14)


def flavor_boundary_radius(flavor: str, potential: YukawaTanh, P0: float) -> float:
    """Empirical violation boundary of a kernel flavor for the
    Yukawa-tanh potential: finds the critical y of that flavor's
    eigenvalue branches, then inverts y(r) by bisection. Agreement of
    the flavors (and with violation_radius) is a result, not an input.
    With a finite coupling y(r) <= g1 g2 / (8 pi |P^0| r), so doubling ends."""
    y_c = _critical_y(flavor)
    if not potential.g1 * potential.g2 > 0:
        return 0.0
    lo = 1e-12
    if potential.y(lo, P0) <= y_c:
        return 0.0
    hi = 1.0
    while potential.y(hi, P0) > y_c:
        hi *= 2.0
    return _bisect(lambda r: potential.y(r, P0) > y_c, lo, hi, 1e-12)


def empirical_boundary_consistent(report: PositivityReport, grid) -> bool:
    """One-grid-cell consistency between a scan's empirical violation
    boundary and the analytic radius in its report."""
    if report.analytic_radius is None:
        return False
    cell = math.sqrt(3.0) * grid.h
    if report.violation_radius_max is None:
        # nothing violated: consistent only if the analytic ball is
        # smaller than one cell (nothing to resolve)
        return report.analytic_radius <= cell
    if report.violation_radius_max > report.analytic_radius + cell:
        return False
    return report.violation_radius_max >= report.analytic_radius - cell
