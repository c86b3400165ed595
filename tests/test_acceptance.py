"""End-to-end acceptance battery.

Each test exercises one headline guarantee of the toolkit at its stated
tolerance and prints a single PASS/FAIL line (run with -s to see them
all). The configurations here are deliberately frozen: they are the
reference workloads the package is expected to sustain.
"""

import math
import time

import numpy as np
import pytest

from tbdkit.cli import AGREEMENT_TOLERANCE
from tbdkit.cli import main as cli_main
from tbdkit.currents import (
    coincidence_limit_term,
    conservation_sweep,
    divergence1,
    divergence2,
    gauge_check,
    j_free_current,
    surviving_divergence_term,
)
from tbdkit.kinematics import MassPair, minkowski_dot, projector, x_perp
from tbdkit.operators import (
    Grid,
    TwoBodyDiracSystem,
    compatibility_residual,
    free_product_state,
    plane_wave_solutions,
    plane_wave_state,
    random_band_limited_field,
)
from tbdkit.positivity import (
    empirical_boundary_consistent,
    flavor_boundary_radius,
    scan,
    violation_radius,
)
from tbdkit.potentials import (
    Constant,
    FOUR_PI,
    GaussianG,
    TanhOfG,
    YukawaTanh,
)
from tbdkit.scalar_product import form_pair
from tbdkit.spinor_algebra import build_gammas, lift
from tbdkit.toy_model import a_product, evolve, positivity_breakdown_search

MASSES = MassPair(1.0, 1.3)
P_REST = np.array([3.0, 0.0, 0.0, 0.0])
G_UNIT = math.sqrt(FOUR_PI)
OMEGA = 0.5671432904097838


def _line(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} [{status}] {label}: {detail}")
    assert passed, f"criterion {num:02d} {label}: {detail}"


def first_equation_state(system, p_spatial, which=0):
    p0, basis = plane_wave_solutions(system, P_REST, p_spatial, (-1.2, 0.5))[which]
    return plane_wave_state(P_REST, p_spatial, p0, basis[:, 0])


def test_criterion_01_algebra_foundations():
    # Clifford relations, hermiticity pattern, lifted-copy commutation,
    # and projector identities in both representations, at 1e-12, in
    # under a second
    start = time.perf_counter()
    worst = 0.0
    for tag in ("dirac", "weyl"):
        gam = build_gammas(tag)
        eye4 = np.eye(4)
        for mu in range(4):
            for nu in range(4):
                anti = gam.gamma[mu] @ gam.gamma[nu] + gam.gamma[nu] @ gam.gamma[mu]
                worst = max(worst, float(np.max(np.abs(anti - 2.0 * gam.metric[mu, nu] * eye4))))
                a, b = lift(1, gam.gamma[mu]), lift(2, gam.gamma[nu])
                lifted = a @ b - b @ a
                worst = max(worst, float(np.max(np.abs(lifted))))
            herm = gam.gamma[mu].conj().T - gam.gamma[0] @ gam.gamma[mu] @ gam.gamma[0]
            worst = max(worst, float(np.max(np.abs(herm))))
    rng = np.random.default_rng(3)
    for _ in range(50):
        P = np.zeros(4)
        P[0] = rng.uniform(1.5, 4.0)
        P[1:] = rng.uniform(-0.4, 0.4, 3) * P[0]
        pi = projector(P)
        worst = max(worst, float(np.max(np.abs(pi @ pi - pi))))
        x = rng.standard_normal(4)
        worst = max(worst, abs(minkowski_dot(x_perp(x, P), P)))
    elapsed = time.perf_counter() - start
    _line(
        1,
        "spinor algebra and kinematics",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_compatibility_identity():
    # residual of the compatibility identity on 10 random band-limited
    # fields at n = 32 stays under 1e-8, and the spectral convergence
    # order estimated over n in {16, 24, 32} is at least 4
    start = time.perf_counter()
    system = TwoBodyDiracSystem(
        MASSES, TanhOfG(g=GaussianG(amplitude=0.03, width=1.2)), build_gammas("dirac")
    )
    rng = np.random.default_rng(20240817)
    grid32 = Grid(n=32, L=10.5)
    residuals = [
        compatibility_residual(
            system, random_band_limited_field(P_REST, grid32, rng)
        )
        for _ in range(10)
    ]
    worst = max(residuals)
    by_n = {}
    for n in (16, 24, 32):
        fld = random_band_limited_field(
            P_REST, Grid(n=n, L=10.5), np.random.default_rng(7)
        )
        by_n[n] = compatibility_residual(system, fld)
    order_a = math.log(by_n[16] / by_n[24]) / math.log(24.0 / 16.0)
    order_b = math.log(by_n[24] / by_n[32]) / math.log(32.0 / 24.0)
    elapsed = time.perf_counter() - start
    _line(
        2,
        "compatibility identity",
        worst <= 1e-8 and order_a >= 4.0 and order_b >= 4.0 and elapsed < 120.0,
        f"max residual {worst:.3e}, orders ({order_a:.1f}, {order_b:.1f}), {elapsed:.1f}s",
    )


def test_criterion_03_free_current_dichotomy():
    gam = build_gammas("dirac")
    # free arm: two on-shell product states at different momenta
    sa = free_product_state(gam, MASSES, (0.0, 0.0, 0.0))
    sb = free_product_state(gam, MASSES, (0.3, 0.0, 0.0))
    jf = j_free_current(gam, sa, sb)
    free_max = float(max(np.max(np.abs(divergence1(jf))), np.max(np.abs(divergence2(jf)))))
    # interacting arm: constant v, divergence nonzero and equal to the
    # closed-form surviving term
    sysv = TwoBodyDiracSystem(MASSES, Constant(v=0.3), gam)
    a = first_equation_state(sysv, (0.0, 0.0, 0.0), which=0)
    b = first_equation_state(sysv, (0.0, 0.0, 0.0), which=1)
    d_direct = divergence1(j_free_current(gam, a, b))
    d_closed = surviving_divergence_term(sysv, a, b)
    magnitude = float(np.max(np.abs(d_direct)))
    mismatch = float(np.max(np.abs(d_direct - d_closed)))
    _line(
        3,
        "tensor current dichotomy",
        free_max <= 1e-12 and magnitude >= 1e-3 and mismatch <= 1e-10,
        f"free {free_max:.3e}, interacting {magnitude:.3e}, closed-form gap {mismatch:.3e}",
    )


def test_criterion_04_completed_current_conservation(reference_dV_dP2):
    gam = build_gammas("dirac")
    sysv = TwoBodyDiracSystem(MASSES, Constant(v=0.3), gam)
    a = first_equation_state(sysv, (0.0, 0.0, 0.0))
    b = first_equation_state(sysv, (0.6, 0.0, 0.0))
    residual = max(
        conservation_sweep(sysv, a, b, green_choice=choice).residual
        for choice in ("advanced", "retarded")
    )
    # coincidence limit of the interaction term against the analytic
    # momentum derivative of the potential
    pot = YukawaTanh(g1=G_UNIT, g2=G_UNIT, mu=1.0)
    worst_rel = 0.0
    for r in (0.4, 0.8, 1.6):
        term = coincidence_limit_term(pot, -(r**2), 2.0, 1e-20)
        exact = 4.0 * 2.0**2 * reference_dV_dP2(pot, -(r**2), 4.0)
        worst_rel = max(worst_rel, abs(term - exact) / abs(exact))
    _line(
        4,
        "replacement current conservation",
        residual <= 1e-8 and worst_rel <= 1e-6,
        f"residual at epsilon = 0 {residual:.3e}, coincidence term rel err {worst_rel:.3e}",
    )


def test_criterion_05_bounded_potential_positivity():
    rep = scan(
        "sazdjian",
        TanhOfG(g=GaussianG(amplitude=0.9, width=1.0)),
        [4.0, 6.25, 9.0],
        Grid(n=32, L=10.5),
    )
    _line(
        5,
        "bounded potential keeps a positive kernel",
        rep.min_eigenvalue >= -1e-12 and rep.passed,
        f"min form eigenvalue {rep.min_eigenvalue:.3e} over {len(rep.P2_values)} momenta",
    )


def test_criterion_06_yukawa_violation_ball():
    grid = Grid(n=32, L=4.0)
    pot = YukawaTanh(g1=G_UNIT, g2=G_UNIT, mu=1.0)
    rep = scan("sazdjian", pot, [1.0], grid)
    r_star = violation_radius(pot, 1.0)
    radius_ok = abs(r_star - OMEGA) <= math.ulp(OMEGA)
    boundary_ok = empirical_boundary_consistent(rep, r_star, grid)
    # the smallest form eigenvalue A - |B| of the kernel pair vanishes at
    # r* and is negative inside it
    A, B = form_pair("sazdjian", pot, 1.0, np.array(-(r_star**2)))
    lam_zero = abs(float(A - abs(B)))
    inside = np.linspace(0.05, 0.9999, 200) * r_star
    A, B = form_pair("sazdjian", pot, 1.0, -(inside**2))
    lam_sign_ok = bool(np.all(A - np.abs(B) < 0))
    _line(
        6,
        "Yukawa violation ball",
        (not rep.passed) and radius_ok and boundary_ok and lam_zero <= 1e-12 and lam_sign_ok,
        f"r* {r_star:.10f}, empirical edge {rep.violation_radius_max:.4f} "
        f"(cell {math.sqrt(3) * grid.h:.4f}), lambda_-(r*) {lam_zero:.1e}",
    )


def test_criterion_07_flavor_boundaries_agree():
    pot = YukawaTanh(g1=G_UNIT, g2=G_UNIT, mu=1.0)
    r_saz = flavor_boundary_radius("sazdjian", pot, 1.0)
    r_cra = flavor_boundary_radius("crater", pot, 1.0)
    r_star = violation_radius(pot, 1.0)
    gap = abs(r_saz - r_cra)
    off = max(abs(r_saz - r_star), abs(r_cra - r_star))
    _line(
        7,
        "both kernel flavors share the boundary",
        gap <= AGREEMENT_TOLERANCE * r_star and off <= AGREEMENT_TOLERANCE * r_star,
        f"flavors differ by {gap:.2e}, off analytic by {off:.2e}",
    )


def test_criterion_08_indefinite_metric_toy():
    exact = (
        a_product((1, 0), (1, 0)) == 1.0
        and a_product((0, 1), (0, 1)) == -1.0
        and a_product((1, 1), (1, 1)) == 0.0
        and np.array_equal(evolve((1, 0), 0.7), [math.cos(0.7), -math.sin(0.7)])
    )
    sweep = positivity_breakdown_search()
    _line(
        8,
        "indefinite metric toy model",
        exact and sweep.n_samples == 10_000 and sweep.n_survivors == 0,
        f"exact values {exact}, {sweep.n_survivors} survivors of {sweep.n_samples}",
    )


def test_criterion_09_gauge_restriction():
    P = np.array([2.0, 0.0, 0.0, 0.0])
    fld = random_band_limited_field(P, Grid(n=16, L=8.0), np.random.default_rng(7))
    rel, tot = gauge_check(
        YukawaTanh(g1=G_UNIT, g2=G_UNIT, mu=1.0),
        build_gammas("dirac"),
        fld,
        np.array([0.37, 0.21, -0.4, 0.11]),
        np.array([0.5, 0.0, 0.0, 0.0]),
    )
    route_gap = abs(tot.difference - tot.independent_difference)
    _line(
        9,
        "restricted gauge behavior",
        rel.passed and tot.passed and abs(rel.difference) <= 1e-10 and route_gap <= 1e-10,
        f"relative drift {abs(rel.difference):.2e}, route gap {route_gap:.2e}, "
        f"kernel shift {abs(tot.difference):.3f}",
    )


def test_criterion_10_deterministic_selfcheck(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = cli_main(["selfcheck", "--out", str(out_a), "--quiet"])
    code_b = cli_main(["selfcheck", "--out", str(out_b), "--quiet"])
    bytes_a = (out_a / "selfcheck.json").read_bytes()
    bytes_b = (out_b / "selfcheck.json").read_bytes()
    _line(
        10,
        "deterministic selfcheck artifact",
        code_a == 0 and code_b == 0 and bytes_a == bytes_b and len(bytes_a) > 0,
        f"{len(bytes_a)} bytes, identical {bytes_a == bytes_b}",
    )
