"""Positivity certification and violation finding for the norm kernels.

The scan evaluates the smallest eigenvalue of a kernel flavor's
quadratic-form matrix A 1 + B gamma_1^0 gamma_2^0 at every grid point
and every requested P^2, in closed form as A - |B| (gamma_1^0 gamma_2^0
is an involution with eigenvalues +-1), and reports the global minimum
eigenvalue and the violating radii. The form depends on the point only
through r^2, so it is evaluated once per radius of the grid (grid.radial:
276 radii for the 32768 points of n = 32), and the report is kept per
radius too: a radius stands for the grid points on it. grid.radial
groups the points by the integer q of r^2 = (h/2)^2 q, so each radius
is one entry on every grid, whether or not h squares exactly.

For the Yukawa-tanh potential the violation region is a ball whose
radius r* solves r e^{mu r} = C with C = |g1 g2| / (4 pi |P^0|);
violation_radius gives it in closed form, r* = W(mu C) / mu with W the
principal Lambert W, and empirical_boundary_consistent cross-checks a
scan's boundary against it.

flavor_boundary_radius finds a flavor's edge of that ball from the form
pair the scan reads, scalar_product.form_pair: the radius where the
smallest eigenvalue lambda_-(r) = A - |B| turns positive, bisected down
to two adjacent doubles. Agreement of the flavors, and with r*, is a
result, not an input: a wrong (A, B) moves the flavor's root.

The radius routes read the coupling of the YukawaTanh they are given,
which checked mu > 0 and a finite g1 g2 when it was built; they check
only what depends on P^0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .potentials import FOUR_PI, YukawaTanh
from .scalar_product import form_pair

EIGENVALUE_TOLERANCE = 1e-12  # a point violates where A - |B| < -this
_BATCH = 256  # radii tested per bisection round
_HALLEY_STEPS = 8  # Halley steps for W; 5 suffice for every x tried across the double range
RADIUS_FLOOR = 2.0**-511  # the smallest radius whose square is a normal double


@dataclass(frozen=True)
class PositivityReport:
    flavor: str
    potential: str  # repr of the spec, for serialization
    P2_values: tuple
    min_eigenvalue: float
    argmin_index: tuple  # (i, j, k) grid index of the minimum
    argmin_radius: float
    argmin_P2: float
    violation_count: int  # grid points that violate, summed over P2_values
    violation_radii: tuple  # (r, points, P2) of each violating radius of grid.radial at each P2
    violation_radius_max: float | None
    tolerance: float
    passed: bool
    # per radius of grid.radial, for the kernel CSV; not in the JSON: the
    # number of grid points at the radius, and the smallest eigenvalue
    # there for argmin_P2
    radius_points: np.ndarray = field(repr=False, compare=False, metadata={"serialize": False})
    argmin_map: np.ndarray = field(repr=False, compare=False, metadata={"serialize": False})


def scan(flavor: str, potential, P2_set, grid) -> PositivityReport:
    """Smallest eigenvalue of the kernel's quadratic form over the grid
    and a set of P^2 values, evaluated on the grid's distinct radii. The
    argmin is the first grid point, in C order, that holds the minimum.
    The report keeps the number of grid points at each radius and the
    per-radius eigenvalues of the P^2 that holds the minimum."""
    P2_values = tuple(float(p) for p in P2_set)
    if not P2_values:
        raise ValueError("P2_set must be nonempty")
    r2, index = grid.radial
    points = np.bincount(index.ravel())
    min_eig = math.inf
    argmin = (0, 0, 0)
    argmin_P2 = P2_values[0]
    violations = []
    for P2 in P2_values:
        eigs = _radial_min_eigenvalues(flavor, potential, P2, r2)
        if not np.all(np.isfinite(eigs)):
            raise ValueError(f"the form eigenvalue is not finite at every grid point for P^2 = {P2!r}")
        if eigs.min() < min_eig:
            point = np.unravel_index(np.argmin(eigs[index]), index.shape)
            min_eig = float(eigs[index[point]])
            argmin = tuple(int(i) for i in point)
            argmin_P2 = P2
            argmin_map = eigs
        bad = eigs < -EIGENVALUE_TOLERANCE
        violations.extend((r, c, P2) for r, c in zip(np.sqrt(r2[bad]).tolist(), points[bad].tolist()))
    return PositivityReport(
        flavor=flavor,
        potential=repr(potential),
        P2_values=P2_values,
        min_eigenvalue=min_eig,
        argmin_index=argmin,
        argmin_radius=math.sqrt(r2[index[argmin]]),
        argmin_P2=argmin_P2,
        violation_count=sum(c for _, c, _ in violations),
        violation_radii=tuple(violations),
        violation_radius_max=max((r for r, _, _ in violations), default=None),
        tolerance=EIGENVALUE_TOLERANCE,
        passed=min_eig >= -EIGENVALUE_TOLERANCE,
        radius_points=points,
        argmin_map=argmin_map,
    )


def _radial_min_eigenvalues(flavor: str, potential, P2: float, r2):
    """A - |B| of the form pair at each squared radius of r2."""
    A, B = form_pair(flavor, potential, P2, -r2)
    return A - np.abs(B)


def _first_false(mask) -> int:
    """Index of the first False in a boolean array, or its length."""
    return int(np.concatenate((mask, [False])).argmin())


def _bisect(below, lo, hi):
    """Midpoint of [lo, hi], where below(lo) holds and below(hi) does
    not, after narrowing it round by round to the cell of _BATCH evenly
    spaced radii in which the array predicate below first fails, until
    no double lies strictly inside it: the result is lo or hi, within
    one ulp of where below changes."""
    while np.nextafter(lo, hi) < hi:
        r = np.linspace(lo, hi, _BATCH + 2)
        i = 1 + _first_false(below(r[1:-1]))
        lo, hi = r[i - 1], r[i]
    return float(0.5 * (lo + hi))


def _lambert_w(mu: float, C: float) -> float:
    """The principal Lambert W of x = mu C > 0, by Halley's iteration
    (Corless et al., Adv. Comput. Math. 5 (1996), eq. 5.9). Up to x = e
    it solves w e^w = x from w = x; past that it solves w + log w = log x
    from log x - log log x, taking log x as log mu + log C where mu C
    overflows, so that neither x nor e^w does."""
    x = mu * C
    log_x = math.log(x) if x < math.inf else math.log(mu) + math.log(C)
    w = x if x <= math.e else log_x - math.log(log_x)
    for _ in range(_HALLEY_STEPS):
        if x <= math.e:
            e_w = math.exp(w)
            f, df, d2f = w * e_w - x, e_w * (w + 1.0), e_w * (w + 2.0)
        else:
            f, df, d2f = w + math.log(w) - log_x, 1.0 + 1.0 / w, -1.0 / (w * w)
        dw = 2.0 * f * df / (2.0 * df * df - f * d2f)
        if w - dw == w:
            break
        w -= dw
    return w


def violation_radius(potential: YukawaTanh, P0: float) -> float:
    """The radius r* solving r e^{mu r} = C = |g1 g2| / (4 pi |P^0|), in
    closed form: r* = W(mu C) / mu. A - |B| is even in the sign of the
    coupling for both flavors, so a repulsive coupling has the ball of
    its absolute value; a zero coupling has none and gives 0. A C that
    overflows to infinity is rejected."""
    if P0 == 0:
        raise ValueError("P0 must be nonzero")
    mu = potential.mu
    C = abs(potential.g1 * potential.g2) / (FOUR_PI * abs(P0))
    if not math.isfinite(C):
        raise ValueError(f"|g1 g2| / (4 pi |P0|) = {C} is not a finite number")
    if mu * C < sys.float_info.min:
        # mu C is zero or subnormal, so W(mu C) = mu C and r* = C e^{-W}
        # is C to double precision (this includes C = 0)
        return C
    return _lambert_w(mu, C) / mu


def flavor_boundary_radius(flavor: str, potential: YukawaTanh, P0: float) -> float:
    """Violation boundary of a kernel flavor for the Yukawa-tanh
    potential: the radius past which the smallest form eigenvalue
    lambda_-(r) = A - |B| of form_pair is positive, bracketed on the
    ladder r = RADIUS_FLOOR = 2^-511 ... 2^511 (the radii whose squares
    are normal doubles) and then bisected. A radius counts as outside
    only where lambda_- > 0 strictly: near the core A - |B| underflows
    to 0.0 or to a tiny negative. Gives 0.0 when lambda_- is already
    positive at 2^-511, as for the free flavor, a zero coupling or a
    ball below the ladder (which the radius command rejects by its r*)."""
    P_sq = P0 * P0

    def inside(r):
        return ~(_radial_min_eigenvalues(flavor, potential, P_sq, r * r) > 0)

    ladder = np.ldexp(RADIUS_FLOOR, np.arange(1023))
    k = _first_false(inside(ladder))
    if k == 0:
        return 0.0
    if k == ladder.size:
        raise ValueError(f"the {flavor} form eigenvalue A - |B| is positive at no radius up to 2^511")
    return _bisect(inside, ladder[k - 1], ladder[k])


def empirical_boundary_consistent(report: PositivityReport, r_star: float, grid) -> bool:
    """One-grid-cell consistency between a scan's empirical violation
    boundary and the radius r* of the ball it should find."""
    cell = math.sqrt(3.0) * grid.h
    if report.violation_radius_max is None:
        # nothing violated: consistent only if the ball is smaller than
        # one cell (nothing to resolve)
        return r_star <= cell
    return r_star - cell <= report.violation_radius_max <= r_star + cell
