"""Gamma matrix algebra on the tensor product of two Dirac spinor spaces.

Conventions, fixed once here and relied on everywhere else:

  * metric eta = diag(+1, -1, -1, -1)
  * Clifford relations  gamma^mu gamma^nu + gamma^nu gamma^mu = 2 eta^{mu nu} 1_4
  * hermiticity pattern (gamma^mu)^dagger = gamma^0 gamma^mu gamma^0
  * metric contraction  q.gamma = q^0 gamma^0 - sum_k q^k gamma^k

Two representations are provided behind the same tag interface so that
representation independence can be asserted by re-running checks under a
second tag. All matrices are dense complex 4x4 (or 16x16 after lifting);
nothing here is large enough to warrant sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# TwoBodySpinOp is a plain 16x16 complex ndarray; no wrapper class is
# needed because every consumer treats it as a matrix.
TwoBodySpinOp = np.ndarray

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


def kron(a, b) -> np.ndarray:
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


def lift1(gammas: GammaSet, mu: int) -> TwoBodySpinOp:
    """gamma^mu acting on the first spinor factor: gamma^mu x 1_4."""
    if mu not in range(4):
        raise IndexError(f"Lorentz index out of range: {mu}")
    return kron(gammas.gamma[mu], _ID4)


def lift2(gammas: GammaSet, nu: int) -> TwoBodySpinOp:
    """gamma^nu acting on the second spinor factor: 1_4 x gamma^nu."""
    if nu not in range(4):
        raise IndexError(f"Lorentz index out of range: {nu}")
    return kron(_ID4, gammas.gamma[nu])


def slash(gammas: GammaSet, q) -> np.ndarray:
    """The 4x4 contraction q.gamma on one spinor factor."""
    q = np.asarray(q)
    if q.shape != (4,):
        raise ValueError("four-vector expected")
    out = q[0] * gammas.gamma[0].astype(complex)
    for k in (1, 2, 3):
        out = out - q[k] * gammas.gamma[k]
    return out


def slash1(gammas: GammaSet, q) -> TwoBodySpinOp:
    """Contraction q.gamma_1 = q^0 gamma_1^0 - sum_k q^k gamma_1^k."""
    return kron(slash(gammas, q), _ID4)


def slash2(gammas: GammaSet, q) -> TwoBodySpinOp:
    """Contraction q.gamma_2 on the second factor."""
    return kron(_ID4, slash(gammas, q))


def gamma0_pair(gammas: GammaSet) -> TwoBodySpinOp:
    """The frequently needed product gamma_1^0 gamma_2^0."""
    return kron(gammas.gamma[0], gammas.gamma[0])
