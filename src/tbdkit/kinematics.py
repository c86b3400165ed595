"""Four-vector algebra, the mass pair, and the transverse projector.

Four-vectors are plain length-4 float arrays (t, x, y, z) in natural
units. The Minkowski square uses the metric of spinor_algebra,
diag(+1, -1, -1, -1).

The transverse projector pi(P) projects onto the subspace orthogonal to
the total momentum P; x_perp = pi(P) x is the covariant relative
separation that the potentials depend on. In the rest frame of P this
reduces to stripping the time component: x_perp = (0, x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance below which P.P is treated as lightlike and the
# projector refused. The degenerate case is never meaningful here.
SINGULAR_PROJECTOR_RTOL = 1e-10

FourVector = np.ndarray


class SingularProjectorError(ValueError):
    """Raised when P.P is too close to zero for the projector to exist."""


def as_four_vector(q) -> FourVector:
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"four-vector expected, got shape {q.shape}")
    return q


def minkowski_dot(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return float(a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3])


def minkowski_sq(a) -> float:
    return minkowski_dot(a, a)


def check_rest_frame(P) -> FourVector:
    """P as a four-vector, checked to be a timelike total momentum in
    its rest frame: spatial P = 0 and P^2 > 0."""
    P = as_four_vector(P)
    if np.any(P[1:] != 0):
        raise ValueError("rest frame requires vanishing spatial total momentum")
    if minkowski_sq(P) <= 0:
        raise ValueError("total momentum must be timelike")
    return P


@dataclass(frozen=True)
class MassPair:
    m1: float
    m2: float

    def __post_init__(self):
        if not (self.m1 > 0 and self.m2 > 0):
            raise ValueError("masses must be positive")


def projector(P) -> np.ndarray:
    """Matrix of the transverse projector, acting on contravariant
    components: (pi x)^mu = x^mu - P^mu (P.x)/(P.P).

    Idempotent, annihilates P. Requires |P.P| above a relative
    tolerance; the lightlike case has no transverse decomposition.
    """
    P = as_four_vector(P)
    Psq = minkowski_sq(P)
    scale = float(np.dot(P, P))  # Euclidean norm squared, sets the tolerance scale
    if abs(Psq) < SINGULAR_PROJECTOR_RTOL * max(scale, 1.0):
        raise SingularProjectorError(f"P.P = {Psq} too close to lightlike")
    P_lower = np.array([P[0], -P[1], -P[2], -P[3]])
    return np.eye(4) - np.outer(P, P_lower) / Psq


def x_perp(x, P) -> FourVector:
    """Transverse part of x with respect to P: x_perp.P = 0."""
    return projector(P) @ as_four_vector(x)

