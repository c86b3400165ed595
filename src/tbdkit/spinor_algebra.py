"""Gamma matrix algebra on the tensor product of two Dirac spinor spaces.

Conventions, fixed once here and relied on everywhere else:

  * metric eta = diag(+1, -1, -1, -1)
  * Clifford relations  gamma^mu gamma^nu + gamma^nu gamma^mu = 2 eta^{mu nu} 1_4
  * hermiticity pattern (gamma^mu)^dagger = gamma^0 gamma^mu gamma^0
  * metric contraction  q.gamma = q^0 gamma^0 - sum_k q^k gamma^k

Two representations are provided behind the same tag interface so that
representation independence can be asserted by re-running checks under a
second tag. All matrices are dense complex 4x4; nothing here is large
enough to warrant sparsity.

Two-body spinors: this module alone knows their layout. A 16-component
spinor u is held as the row-major 4x4 array U[a, b] = u[4 a + b], particle
1's index on the rows. on(particle, S, U) applies a one-particle operator
S (S U or U S^T, batched); lift(particle, S) is its 16x16 matrix, for a
solve, an SVD or a product with a (16, ...) grid array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_ID2 = np.eye(2)
_ID4 = np.eye(4)
_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def _kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices: each entry a[i, j] * b[k, l] of
    np.kron by the same single multiply, without its generic set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


@dataclass(frozen=True)
class GammaSet:
    """The four gamma matrices of one representation, plus the metric.

    gamma has shape (4, 4, 4): gamma[mu] is the 4x4 matrix gamma^mu.
    """

    tag: str
    gamma: np.ndarray
    metric: np.ndarray = field(default_factory=lambda: METRIC.copy())

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=complex)
        if g.shape != (4, 4, 4):
            raise ValueError("gamma must have shape (4, 4, 4)")
        object.__setattr__(self, "gamma", g)


def build_gammas(representation_tag: str = "dirac") -> GammaSet:
    """Build the gamma matrices for a named representation.

    Supported tags: "dirac" (standard representation, gamma^0 diagonal)
    and "weyl" (chiral representation, gamma^0 off-diagonal). Both
    satisfy the Clifford and hermiticity invariants exactly, with
    integer or unit-modulus entries.
    """
    # 2x2 blocks written into zeros: gamma^k = [[0, s_k], [-s_k, 0]] in both
    g = np.zeros((4, 4, 4), dtype=complex)
    if representation_tag == "dirac":
        g[0, :2, :2], g[0, 2:, 2:] = _ID2, -_ID2
    elif representation_tag == "weyl":
        g[0, :2, 2:], g[0, 2:, :2] = _ID2, _ID2
    else:
        raise ValueError(f"unknown representation tag: {representation_tag!r}")
    g[1:, :2, 2:], g[1:, 2:, :2] = _SIGMA, -_SIGMA
    return GammaSet(tag=representation_tag, gamma=g)


def slash(gammas: GammaSet, q) -> np.ndarray:
    """The 4x4 contraction q.gamma on one spinor factor."""
    q = np.asarray(q)
    if q.shape != (4,):
        raise ValueError("four-vector expected")
    out = q[0] * gammas.gamma[0].astype(complex)
    for k in (1, 2, 3):
        out = out - q[k] * gammas.gamma[k]
    return out


def on(particle: int, S, x):
    """S (..., 4, 4) acting on the particle's spinor index of two-body
    spinors x (..., 4, 4) in the row-major 4x4 form: S x for particle 1,
    x S^T for particle 2."""
    return S @ x if particle == 1 else x @ np.swapaxes(S, -1, -2)


def lift(particle: int, S) -> np.ndarray:
    """The 16x16 matrix of on(particle, S, .) on the flat 16-vector:
    S x 1_4 for particle 1, 1_4 x S for particle 2."""
    return _kron(S, _ID4) if particle == 1 else _kron(_ID4, S)
