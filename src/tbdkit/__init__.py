"""tbdkit: numerical toolkit for the fermion-antifermion two-body Dirac
constraint equations.

Submodules (import what you need; this package root stays import-light
so the CLI can configure threading before numpy loads):

  spinor_algebra   gamma matrices, one-particle operators on two-body spinors
  kinematics       four-vectors, transverse projector, rest frame
  potentials       the scalar V(x_perp^2, P^2) family
  operators        D_1/D_2 on internal fields, compatibility identity
  currents         tensor currents, conservation repair, gauge checks
  scalar_product   norm kernels and their equal-time forms
  positivity       kernel eigenvalue scans and violation radii
  toy_model        C^2 indefinite-metric counterexample
  cli              command-line driver
"""

__version__ = "0.1.0"

__all__ = [
    "spinor_algebra",
    "kinematics",
    "potentials",
    "operators",
    "currents",
    "scalar_product",
    "positivity",
    "toy_model",
    "serialize",
    "cli",
]
