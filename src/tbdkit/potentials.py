"""The scalar potential family V(x_perp^2, P^2).

Every variant is a real scalar multiplying the identity in spin space,
depends on position only through the invariant x_perp^2 <= 0 and on
momenta only through P^2 > 0. That already buys two structural
properties used downstream: hermiticity under the gamma_1^0 gamma_2^0
conjugation, and the particle-antiparticle exchange symmetry.

Variants:

  * Constant(v), with Zero() the constant 0
  * TanhOfG(g): tanh(g(r^2)) for a built-in smooth g, bounded in (-1, 1)
  * YukawaTanh(g1, g2, mu): tanh of a Yukawa core over sqrt(P^2),
      V = tanh( -(1/(2 sqrt(P^2))) (g1 g2 / 4 pi) e^{-mu r} / r )

All evaluators are vectorized over x_perp_sq (grids pass the whole
array). x_perp_sq must be <= 0; the Yukawa core additionally requires
r > 0 strictly, and grids are laid out to never sample the origin.

eval_V accepts a complex P_sq with positive real part: the tanh forms
are analytic there, which is what the regulator limits in the current
construction rely on. The derivative evaluators are real-argument only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

FOUR_PI = 4.0 * math.pi


class PotentialDomainError(ValueError):
    """Arguments outside the domain of the potential family."""


class SingularOriginError(PotentialDomainError):
    """The Yukawa core was evaluated at r = 0."""


@dataclass(frozen=True)
class YVariable:
    """The dimensionless combination y = (1/(2|P^0|)) (g1 g2/4 pi) e^{-mu r}/r."""

    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError("y must be positive")


# ---------------------------------------------------------------------------
# Built-in g functions for TanhOfG, as functions of s = r^2 = -x_perp^2 >= 0.
# Kept to a small closed set so potential specs stay serializable.


@dataclass(frozen=True)
class ConstantG:
    c: float

    def value(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.c)

    def derivative(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class PolynomialG:
    """g(s) = sum_j coeffs[j] s^j."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def value(self, s):
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), self.coeffs)

    def derivative(self, s):
        dcoeffs = [j * c for j, c in enumerate(self.coeffs)][1:] or [0.0]
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), dcoeffs)


@dataclass(frozen=True)
class GaussianG:
    """g(s) = amplitude * exp(-s / width^2)."""

    amplitude: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")

    def value(self, s):
        return self.amplitude * np.exp(-np.asarray(s, dtype=float) / self.width**2)

    def derivative(self, s):
        return self.value(s) * (-1.0 / self.width**2)


# ---------------------------------------------------------------------------
# Potential variants


@dataclass(frozen=True)
class Constant:
    v: float


@dataclass(frozen=True)
class Zero(Constant):
    """The constant 0; v is a class constant, so Zero() takes no argument."""

    v: ClassVar[float] = 0.0


@dataclass(frozen=True)
class TanhOfG:
    g: object  # one of the built-in g functions above


@dataclass(frozen=True)
class YukawaTanh:
    g1: float
    g2: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")

    def core(self, r):
        """c(r) = (1/2) (g1 g2 / 4 pi) e^{-mu r} / r."""
        r = np.asarray(r, dtype=float)
        return 0.5 * (self.g1 * self.g2 / FOUR_PI) * np.exp(-self.mu * r) / r

    def core_derivative(self, r):
        r = np.asarray(r, dtype=float)
        return -self.core(r) * (self.mu + 1.0 / r)


def _validate_args(spec, x_perp_sq, P_sq):
    xps = np.asarray(x_perp_sq, dtype=float)
    if np.any(xps > 0):
        raise PotentialDomainError("x_perp_sq must be <= 0 (spacelike transverse separation)")
    if np.iscomplexobj(np.asarray(P_sq)):
        if not np.real(P_sq) > 0:
            raise PotentialDomainError("P_sq must have positive real part")
    elif not P_sq > 0:
        raise PotentialDomainError("P_sq must be positive (timelike total momentum)")
    if isinstance(spec, YukawaTanh) and np.any(xps == 0):
        raise SingularOriginError("Yukawa core is singular at r = 0; use an offset grid")
    return xps


def _radius(xps):
    return np.sqrt(-xps)


def eval_V(spec, x_perp_sq, P_sq):
    """Value of the potential at the invariants (x_perp^2, P^2).

    Vectorized over x_perp_sq. Complex P_sq (positive real part) is
    evaluated by analytic continuation of the same formula.
    """
    xps = _validate_args(spec, x_perp_sq, P_sq)
    if isinstance(spec, Constant):
        out = np.full_like(xps, spec.v)
        return out if xps.ndim else float(spec.v)
    if isinstance(spec, TanhOfG):
        out = np.tanh(spec.g.value(-xps))
        return out if xps.ndim else float(out)
    if isinstance(spec, YukawaTanh):
        out = np.tanh(-spec.core(_radius(xps)) / np.sqrt(P_sq))
        return out if xps.ndim else complex(out) if np.iscomplexobj(out) else float(out)
    raise TypeError(f"not a potential spec: {spec!r}")


def eval_dV_dP2(spec, x_perp_sq, P_sq):
    """Analytic derivative of eval_V with respect to P^2."""
    xps = _validate_args(spec, x_perp_sq, P_sq)
    if isinstance(spec, (Constant, TanhOfG)):
        return np.zeros_like(xps) if xps.ndim else 0.0
    if isinstance(spec, YukawaTanh):
        c = spec.core(_radius(xps))
        u = -c / np.sqrt(P_sq)
        out = 0.5 * c * P_sq ** (-1.5) / np.cosh(u) ** 2
        return out if xps.ndim else float(out)
    raise TypeError(f"not a potential spec: {spec!r}")


def eval_dV_dxperp_sq(spec, x_perp_sq, P_sq):
    """Analytic derivative of eval_V with respect to x_perp^2.

    This feeds the gradient realization of the kinetic-potential
    commutators: d_k V = eval_dV_dxperp_sq * (-2 x^k) in the rest frame.
    """
    xps = _validate_args(spec, x_perp_sq, P_sq)
    if isinstance(spec, Constant):
        return np.zeros_like(xps) if xps.ndim else 0.0
    if isinstance(spec, TanhOfG):
        s = -xps
        out = -spec.g.derivative(s) / np.cosh(spec.g.value(s)) ** 2
        return out if xps.ndim else float(out)
    if isinstance(spec, YukawaTanh):
        r = _radius(xps)
        u = -spec.core(r) / np.sqrt(P_sq)
        out = spec.core_derivative(r) / (2.0 * r * np.sqrt(P_sq) * np.cosh(u) ** 2)
        return out if xps.ndim else float(out)
    raise TypeError(f"not a potential spec: {spec!r}")


def delta_of(spec, x_perp_sq, P_sq):
    """Hyperbolic parameter Delta = arctanh(V).

    For YukawaTanh this is evaluated from the closed form (the inner
    argument of the tanh), which stays finite where 1 - V^2 underflows.
    """
    xps = _validate_args(spec, x_perp_sq, P_sq)
    if isinstance(spec, YukawaTanh):
        out = -spec.core(_radius(xps)) / np.sqrt(P_sq)
        return out if xps.ndim else float(out)
    if isinstance(spec, TanhOfG):
        out = spec.g.value(-xps)
        return out if xps.ndim else float(out)
    v = eval_V(spec, x_perp_sq, P_sq)
    if np.any(np.abs(v) >= 1):
        raise PotentialDomainError("arctanh domain requires |V| < 1")
    return np.arctanh(v)


def eval_ddelta_dP2(spec, x_perp_sq, P_sq):
    """Analytic derivative of Delta = arctanh(V) with respect to P^2.

    Zero for every P^2-independent variant; for YukawaTanh the closed
    form (c(r)/2) (P^2)^{-3/2} (no tanh factors, so no underflow near
    the core).
    """
    xps = _validate_args(spec, x_perp_sq, P_sq)
    if isinstance(spec, (Constant, TanhOfG)):
        return np.zeros_like(xps) if xps.ndim else 0.0
    if isinstance(spec, YukawaTanh):
        out = 0.5 * spec.core(_radius(xps)) * P_sq ** (-1.5)
        return out if xps.ndim else float(out)
    raise TypeError(f"not a potential spec: {spec!r}")


def y_of(g1: float, g2: float, mu: float, P0: float, r: float) -> YVariable:
    """The positivity variable y = (1/(2|P^0|)) (g1 g2/4 pi) e^{-mu r}/r."""
    if not r > 0:
        raise ValueError("r must be positive")
    if P0 == 0:
        raise ValueError("P0 must be nonzero")
    if not g1 * g2 > 0:
        raise ValueError("attractive coupling g1*g2 > 0 expected")
    y = (g1 * g2 / FOUR_PI) * math.exp(-mu * r) / (2.0 * abs(P0) * r)
    return YVariable(y=y)
