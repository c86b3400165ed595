"""The scalar potential family V(x_perp^2, P^2).

Every variant is a real scalar multiplying the identity in spin space,
depends on position only through the invariant x_perp^2 <= 0 and on
momenta only through P^2 > 0. That already buys two structural
properties used downstream: hermiticity under the gamma_1^0 gamma_2^0
conjugation, and the particle-antiparticle exchange symmetry.

Every variant is V = tanh(Delta) of a rapidity Delta(x_perp^2, P^2)
and supplies only Delta and the derivatives of Delta it has:

  * Constant(v), |v| < 1, with Zero() the constant 0: Delta = artanh v
  * TanhOfG(g): Delta = g(r^2) for a built-in smooth g
  * YukawaTanh(g1, g2, mu): Delta = -c(r) / sqrt(P^2) of the Yukawa core
      c(r) = (1/2) (g1 g2 / 4 pi) e^{-mu r} / r,
    built only with mu > 0 and a finite g1 g2; the kernel forms built
    on it turn negative where |y| = |c(r)|/|P^0| exceeds 1/2, a ball
    around the core that the radius routes locate

Each formula is written once: the sazdjian kernel reads Delta and
dDelta/dP^2 through two evaluators, so a Yukawa kernel evaluates the
core c(r) twice, by decision (ROADMAP item 13). All evaluators are
vectorized over x_perp_sq (grids pass the whole array). x_perp_sq must
be <= 0; the Yukawa core additionally requires r > 0 strictly, and
grids are laid out to never sample the origin.
Every evaluator accepts a complex P_sq with positive real part by
analytic continuation of the same formula, which regulator limits and
complex-step derivatives rely on. The formulas are methods of the
variant classes: adding a variant means subclassing Potential with its
delta and adding its kind to cli._SPECS. The config checker types a
spec field by its annotation, float or tuple (a list of numbers), and a
field named g by the g records.
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
        if not self.coeffs:
            raise ValueError("coeffs must be nonempty")

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
        # width**2 of a float raises OverflowError where the product gives inf
        if not 0 < self.width * self.width < math.inf:
            raise ValueError(f"width = {self.width!r} must have a positive finite square")

    def value(self, s):
        return self.amplitude * np.exp(-np.asarray(s, dtype=float) / self.width**2)

    def derivative(self, s):
        return self.value(s) * (-1.0 / self.width**2)


# ---------------------------------------------------------------------------
# Potential variants


class Potential:
    """Base of the potential specs: V = tanh(Delta) and dV/dx_perp^2 of
    the delta a subclass defines, whose derivatives default to zero.
    Formulas get x_perp_sq as a float array already checked to be <= 0
    and a validated P_sq, and return an array of x_perp_sq's shape.
    """

    def V(self, xps, P_sq):
        return np.tanh(self.delta(xps, P_sq))

    def dV_dxperp_sq(self, xps, P_sq):
        return self.ddelta_dxperp_sq(xps, P_sq) / np.cosh(self.delta(xps, P_sq)) ** 2

    def ddelta_dP2(self, xps, P_sq):
        return np.zeros_like(xps)

    ddelta_dxperp_sq = ddelta_dP2

    def constant_value(self) -> float:
        """The value v of a constant potential, the only potentials with
        plane-wave solutions."""
        raise TypeError("plane-wave states require a Zero or Constant potential")


@dataclass(frozen=True)
class Constant(Potential):
    v: float

    def __post_init__(self):
        if not abs(self.v) < 1:
            raise ValueError(f"constant potential v = {self.v!r} must satisfy |v| < 1")

    def V(self, xps, P_sq):
        # v itself, not tanh(artanh v): the grid and constant_value() read one number
        return np.full_like(xps, self.v)

    def delta(self, xps, P_sq):
        return np.full_like(xps, math.atanh(self.v))

    def constant_value(self) -> float:
        return self.v


@dataclass(frozen=True)
class Zero(Constant):
    """The constant 0; v is a class constant, so Zero() takes no argument."""

    v: ClassVar[float] = 0.0


@dataclass(frozen=True)
class TanhOfG(Potential):
    g: object  # one of the built-in g functions above

    def delta(self, xps, P_sq):
        return self.g.value(-xps)

    def ddelta_dxperp_sq(self, xps, P_sq):
        return -self.g.derivative(-xps)


@dataclass(frozen=True)
class YukawaTanh(Potential):
    g1: float
    g2: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not math.isfinite(self.g1 * self.g2):
            raise ValueError(f"coupling product g1 g2 = {self.g1 * self.g2} is not a finite number")

    def core(self, r):
        """c(r) = (1/2) (g1 g2 / 4 pi) e^{-mu r} / r."""
        r = np.asarray(r, dtype=float)
        return 0.5 * (self.g1 * self.g2 / FOUR_PI) * np.exp(-self.mu * r) / r

    def _radius(self, xps):
        if np.any(xps == 0):
            raise SingularOriginError("Yukawa core is singular at r = 0; use an offset grid")
        return np.sqrt(-xps)

    def delta(self, xps, P_sq):
        return -self.core(self._radius(xps)) / np.sqrt(P_sq)

    def ddelta_dP2(self, xps, P_sq):
        # (c / 2) (P^2)^{-3/2}
        c = self.core(self._radius(xps))
        try:
            scale = P_sq ** (-1.5)
        except OverflowError:  # a Python float or complex P_sq raises where numpy gives inf
            raise ValueError(f"P^2 = {P_sq!r} is too small: P^2 ** -1.5 overflows") from None
        return 0.5 * c * scale

    def ddelta_dxperp_sq(self, xps, P_sq):
        # c'(r) / (2 r sqrt(P^2)) with c' = -c (mu + 1/r)
        r = self._radius(xps)
        return -self.core(r) * (self.mu + 1.0 / r) / (2.0 * r * np.sqrt(P_sq))


def _evaluate(formula, spec, x_perp_sq, P_sq):
    """One formula of a spec at validated arguments. An array x_perp_sq
    gives an array of its shape; a scalar gives a float, or a complex
    for a complex P_sq."""
    if not isinstance(spec, Potential):
        raise TypeError(f"not a potential spec: {spec!r}")
    xps = np.asarray(x_perp_sq, dtype=float)
    if np.any(xps > 0):
        raise PotentialDomainError("x_perp_sq must be <= 0 (spacelike transverse separation)")
    if np.iscomplexobj(P_sq):
        if not np.real(P_sq) > 0:
            raise PotentialDomainError("P_sq must have positive real part")
    elif not P_sq > 0:
        raise PotentialDomainError("P_sq must be positive (timelike total momentum)")
    out = getattr(spec, formula)(xps, P_sq)
    if xps.ndim:
        return out
    return complex(out) if np.iscomplexobj(P_sq) else float(out)


def eval_V(spec, x_perp_sq, P_sq):
    """Value of the potential at the invariants (x_perp^2, P^2).

    Vectorized over x_perp_sq. Complex P_sq (positive real part) is
    evaluated by analytic continuation of the same formula.
    """
    return _evaluate("V", spec, x_perp_sq, P_sq)


def eval_delta(spec, x_perp_sq, P_sq):
    """The rapidity Delta = artanh(V), finite where V saturates to +-1."""
    return _evaluate("delta", spec, x_perp_sq, P_sq)


def eval_dV_dxperp_sq(spec, x_perp_sq, P_sq):
    """Analytic derivative of eval_V with respect to x_perp^2.

    This feeds the gradient realization of the kinetic-potential
    commutators: d_k V = eval_dV_dxperp_sq * (-2 x^k) in the rest frame.
    """
    return _evaluate("dV_dxperp_sq", spec, x_perp_sq, P_sq)


def eval_ddelta_dP2(spec, x_perp_sq, P_sq):
    """Analytic derivative of Delta with respect to P^2; for YukawaTanh
    (c(r)/2) (P^2)^{-3/2}."""
    return _evaluate("ddelta_dP2", spec, x_perp_sq, P_sq)

