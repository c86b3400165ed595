import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from tbdkit import positivity
from tbdkit.cli import AGREEMENT_TOLERANCE, DEFAULTS
from tbdkit.operators import Grid
from tbdkit.positivity import (
    PositivityReport,
    _bisect,
    _lambert_w,
    empirical_boundary_consistent,
    flavor_boundary_radius,
    scan,
    violation_radius,
)
from tbdkit.potentials import (
    FOUR_PI,
    GaussianG,
    TanhOfG,
    YukawaTanh,
    eval_ddelta_dP2,
    eval_delta,
)
from tbdkit.scalar_product import form_pair

G_UNIT = math.sqrt(FOUR_PI)
YUKAWA = YukawaTanh(g1=G_UNIT, g2=G_UNIT, mu=1.0)
OMEGA = 0.5671432904097838  # root of r e^r = 1
EPS = 2.0**-52
# near the smallest P0 (1.77e-103) whose P0^2 ** -1.5, in the Yukawa
# dDelta/dP^2, is finite: the kernel rejects anything smaller
SMALLEST_P0 = 1.8e-103


# ---------------------------------------------------------------------------
# The h branches: the form eigenvalues A +- |B| as functions of
# y = c(r)/|P^0|


def h_closed(y, branch):
    """The simplified form of the sazdjian branches, (1 +- 2y)/cosh^2 y."""
    sign = {"plus": 1.0, "minus": -1.0}[branch]
    return (1.0 + sign * 2.0 * y) / math.cosh(y) ** 2


def y_of(pot, r, P0):
    """The positivity variable y = c(r)/|P^0| of a Yukawa-tanh potential."""
    return float(pot.core(r)) / abs(P0)


def branches_at_y(flavor, y):
    """(A - |B|, A + |B|) of form_pair at r = 1, P^0 = 1 and mu = 1, with
    the coupling g1 g2 = 8 pi e y that puts the core at y there."""
    pot = YukawaTanh(g1=8.0 * math.pi * math.e * y, g2=1.0, mu=1.0)
    A, B = form_pair(flavor, pot, 1.0, np.array(-1.0))
    return float(A - abs(B)), float(A + abs(B))


def test_h_minus_vanishes_at_half():
    for flavor in ("sazdjian", "crater"):
        assert branches_at_y(flavor, 0.5)[0] == pytest.approx(0.0, abs=1e-15)
    assert h_closed(0.5, "minus") == 0.0


def test_h_minus_negative_beyond_half():
    for flavor in ("sazdjian", "crater"):
        for y in (0.5001, 0.6, 1.0, 3.0, 8.0):
            assert branches_at_y(flavor, y)[0] < 0.0


def test_h_plus_positive():
    for flavor in ("sazdjian", "crater"):
        for y in np.linspace(0.0, 8.0, 50):
            assert branches_at_y(flavor, y)[1] > 0.0


def test_h_direct_and_closed_forms_agree():
    # the sazdjian pair, read through form_pair, against (1 -+ 2y)/cosh^2 y;
    # the crater pair is 1 -+ 2y itself
    for y in np.linspace(0.0, 10.0, 500):
        minus, plus = branches_at_y("sazdjian", y)
        assert minus == pytest.approx(h_closed(y, "minus"), abs=1e-14)
        assert plus == pytest.approx(h_closed(y, "plus"), abs=1e-14)
        minus, plus = branches_at_y("crater", y)
        assert minus == pytest.approx(1.0 - 2.0 * y, abs=1e-14)
        assert plus == pytest.approx(1.0 + 2.0 * y, abs=1e-14)


# ---------------------------------------------------------------------------
# Violation radius


def test_violation_radius_omega_constant():
    # unit coupling, unit screening, unit energy: the radius is the
    # root of r e^r = 1
    assert abs(violation_radius(YUKAWA, 1.0) - OMEGA) <= math.ulp(OMEGA)


def _roadmap_draw(rng):
    """A Yukawa coupling and energy drawn log-uniformly from g in
    [1e-3, 1e5], mu in [1e-9, 100] and P0 in [1e-3, 1e3], each coupling
    of either sign."""
    g1, g2 = np.exp(rng.uniform(math.log(1e-3), math.log(1e5), 2)) * rng.choice((-1.0, 1.0), 2)
    mu = math.exp(rng.uniform(math.log(1e-9), math.log(100.0)))
    P0 = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
    return YukawaTanh(g1=float(g1), g2=float(g2), mu=mu), P0


def test_violation_radius_against_lambert_w(rng):
    # all three routes against scipy's W(mu C) / mu: each lies a few ulps
    # from the exact r*, and the oracle rounds C, mu C and W once each;
    # the worst of these draws is 2.5 eps
    for _ in range(100):
        pot, P0 = _roadmap_draw(rng)
        C = abs(pot.g1 * pot.g2) / (FOUR_PI * abs(P0))
        expect = float(lambertw(pot.mu * C).real) / pot.mu
        for r in (
            violation_radius(pot, P0),
            flavor_boundary_radius("sazdjian", pot, P0),
            flavor_boundary_radius("crater", pot, P0),
        ):
            assert abs(r - expect) <= 4 * EPS * expect


def test_lambert_w_across_the_double_range(rng):
    for x in np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 2000)):
        expect = float(lambertw(x).real)
        assert abs(_lambert_w(1.0, float(x)) - expect) <= 4 * EPS * expect


def test_violation_radius_solves_its_equation(rng):
    for _ in range(20):
        g1, g2 = rng.uniform(0.5, 6.0, 2)
        mu = rng.uniform(0.1, 3.0)
        P0 = rng.uniform(0.3, 4.0)
        pot = YukawaTanh(g1=g1, g2=g2, mu=mu)
        r = violation_radius(pot, P0)
        assert r * math.exp(mu * r) == pytest.approx(
            g1 * g2 / (FOUR_PI * abs(P0)), rel=1e-10
        )
        # the boundary radius is exactly the y = 1/2 locus
        assert y_of(pot, r, P0) == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize(
    "mu, P0", [(1.0, 1e-300), (1.0, 1e-307), (1e10, 1e-300)], ids=["1e-300", "1e-307", "mu_C_overflows"]
)
def test_violation_radius_where_exp_overflows(mu, P0):
    # W(mu C) is about 684, 700 and 707, so e^{mu r} = e^W is within a few
    # decades of the largest double, and at mu = 1e10 mu C = 1e310 itself
    # overflows; the iteration on w + log w = log mu + log C needs neither
    w = mu * violation_radius(YukawaTanh(g1=G_UNIT, g2=G_UNIT, mu=mu), P0)
    log_x = math.log(mu) - math.log(P0)
    assert abs(w + math.log(w) - log_x) <= 4 * EPS * log_x
    if mu / P0 < math.inf:
        expect = float(lambertw(mu / P0).real)
        assert abs(w - expect) <= 4 * EPS * expect


def test_violation_radius_where_mu_C_underflows():
    # mu C = 1e-310 is subnormal, where it has lost bits, and 1e-330 is
    # 0; W(mu C) = mu C to double precision, so r* = C e^{-W} = C
    for mu, C in ((1e-300, 1e-10), (1e-300, 1e-30)):
        pot = YukawaTanh(g1=math.sqrt(FOUR_PI * C), g2=math.sqrt(FOUR_PI * C), mu=mu)
        assert violation_radius(pot, 1.0) == abs(pot.g1 * pot.g2) / FOUR_PI


def test_violation_radius_is_even_in_the_coupling_sign():
    # A - |B| is even in the sign of g1 g2 for both flavors, so a
    # repulsive coupling has the ball of its absolute value; a zero
    # coupling has none
    attractive = YukawaTanh(g1=1.0, g2=2.0, mu=1.0)
    repulsive = YukawaTanh(g1=1.0, g2=-2.0, mu=1.0)
    r_star = violation_radius(attractive, 1.0)
    assert r_star > 0.0
    assert violation_radius(repulsive, 1.0) == r_star
    for flavor in ("sazdjian", "crater"):
        assert flavor_boundary_radius(flavor, repulsive, 1.0) == flavor_boundary_radius(flavor, attractive, 1.0)
        assert abs(flavor_boundary_radius(flavor, repulsive, 1.0) - r_star) <= AGREEMENT_TOLERANCE * r_star
    zero = YukawaTanh(g1=0.0, g2=2.0, mu=1.0)
    assert violation_radius(zero, 1.0) == 0.0
    assert flavor_boundary_radius("sazdjian", zero, 1.0) == 0.0
    assert flavor_boundary_radius("crater", zero, 1.0) == 0.0


def test_violation_radius_validation():
    with pytest.raises(ValueError):
        violation_radius(YUKAWA, 0.0)
    # a finite coupling over a subnormal |P0| overflows to inf, which has
    # no radius
    with pytest.raises(ValueError, match="finite"):
        violation_radius(YUKAWA, 5e-324)


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=1.1, max_value=3.0),
    P0=st.floats(min_value=0.5, max_value=3.0),
)
def test_violation_radius_monotone_in_coupling_and_energy(scale, P0):
    base = violation_radius(YUKAWA, P0)
    stronger = violation_radius(YukawaTanh(g1=scale * G_UNIT, g2=G_UNIT, mu=1.0), P0)
    faster = violation_radius(YUKAWA, scale * P0)
    assert stronger > base
    assert faster < base


# ---------------------------------------------------------------------------
# Bisection to adjacent doubles


def test_bisect_of_adjacent_doubles_returns_one_of_them():
    # no double lies inside, so the predicate is never evaluated
    lo = 1.0
    hi = float(np.nextafter(lo, 2.0))

    def below(r):
        raise AssertionError("a bracket of adjacent doubles needs no round")

    assert _bisect(below, lo, hi) in (lo, hi)


@pytest.mark.parametrize("root", [OMEGA, 1.3, 1e-300, 4.88e8, 3e200])
@pytest.mark.parametrize("lo_scale, hi_scale", [(0.0, 2.0), (0.5, 4.0)])
def test_bisect_ends_within_one_ulp_of_where_its_predicate_flips(root, lo_scale, hi_scale):
    rounds = []

    def below(r):
        rounds.append(r.size)
        return r < root

    r = _bisect(below, lo_scale * root, hi_scale * root)
    assert abs(r - root) <= math.ulp(root)
    # 256 radii a round shrink the bracket 257-fold, so 7 rounds take a
    # bracket at most 4 root wide below root 2^-54, under one ulp of root
    # (257^7 > 2^56); the loop then ends on adjacent doubles without
    # evaluating another round
    assert len(rounds) <= 7


@pytest.mark.parametrize("flavor", ["sazdjian", "crater"])
def test_flavor_route_reads_form_pair_eight_times_at_the_radius_defaults(monkeypatch, flavor):
    # one call on the ladder and 7 bisection rounds to adjacent doubles
    calls = []
    original = positivity.form_pair

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(positivity, "form_pair", counted)
    cfg = DEFAULTS["radius"]
    pot = YukawaTanh(g1=cfg["g1"], g2=cfg["g2"], mu=cfg["mu"])
    r = flavor_boundary_radius(flavor, pot, cfg["P0"])
    assert calls == [flavor] * 8
    assert abs(r - OMEGA) <= math.ulp(OMEGA)


# ---------------------------------------------------------------------------
# Flavor boundaries found without the closed form


def test_flavor_boundaries_coincide_with_analytic_radius():
    for g1, g2, mu, P0 in (
        (G_UNIT, G_UNIT, 1.0, 1.0),
        (2.0, 3.0, 0.7, 1.3),
        (4.0, 1.5, 2.0, 0.6),
        # e^{-mu r} underflows while bracketing
        (G_UNIT, G_UNIT, 1.0, SMALLEST_P0),
        # r* ~ 1e4, where adjacent doubles are 1.8e-12 apart
        (1.0, 1.0, 1e-9, 1.0 / (FOUR_PI * 1e4)),
        # r* ~ 4.88e8, where they are 6e-8 apart
        (1e5, 1e5, 1e-9, 1.0),
        # r* ~ 7.96e-11
        (1e-3, 1e-3, 100.0, 1e3),
        # r* ~ 7.96e-15 and 7.96e-152, near the ladder's 2^-511 = 1.49e-154
        (1e-5, 1e-5, 100.0, 1e3),
        (1e-75, 1e-75, 1.0, 1.0),
    ):
        pot = YukawaTanh(g1=g1, g2=g2, mu=mu)
        r_star = violation_radius(pot, P0)
        r_saz = flavor_boundary_radius("sazdjian", pot, P0)
        r_cra = flavor_boundary_radius("crater", pot, P0)
        assert max(r_star, r_saz, r_cra) - min(r_star, r_saz, r_cra) <= AGREEMENT_TOLERANCE * r_star


def test_flavor_boundary_rejects_unknown_flavor():
    with pytest.raises(ValueError):
        flavor_boundary_radius("euclidean", YUKAWA, 1.0)


def test_free_flavor_has_no_boundary():
    # the free form is the identity: positive at every radius
    assert flavor_boundary_radius("free", YUKAWA, 1.0) == 0.0


@pytest.mark.parametrize("g", [0.0, 1e-80, 1e-75, 1.0])
def test_flavor_boundary_radius_is_a_float(g):
    # no ball, one below the ladder's first rung (read as none), one just
    # above it and one of order 1
    pot = YukawaTanh(g1=g, g2=g, mu=1.0)
    for flavor in ("free", "sazdjian", "crater"):
        assert type(flavor_boundary_radius(flavor, pot, 1.0)) is float


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


@settings(max_examples=60, deadline=None)
@given(
    g1=_log_uniform(1e-3, 1e5),
    g2=_log_uniform(1e-3, 1e5),
    signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    mu=_log_uniform(1e-9, 100.0),
    P0=_log_uniform(1e-3, 1e3),
)
def test_flavor_routes_agree_with_violation_radius(g1, g2, signs, mu, P0):
    pot = YukawaTanh(g1=signs[0] * g1, g2=signs[1] * g2, mu=mu)
    r_star = violation_radius(pot, P0)
    for flavor in ("sazdjian", "crater"):
        assert abs(flavor_boundary_radius(flavor, pot, P0) - r_star) <= AGREEMENT_TOLERANCE * r_star


# ---------------------------------------------------------------------------
# Grid scans


def _eigenvalue_map(flavor, potential, P2, grid):
    """The smallest form eigenvalue at every grid point for one P^2,
    read from the values on the grid's distinct radii."""
    r2, index = grid.radial
    return positivity._radial_min_eigenvalues(flavor, potential, P2, r2)[index]


def test_scan_keeps_the_eigenvalue_map_of_its_argmin_P2(reference_radius_sq):
    # argmin_map holds one eigenvalue per distinct radius of the grid, and
    # radius_points the number of grid points at each
    grid = Grid(n=8, L=4.0)
    r2, index = grid.radial
    rep = scan("sazdjian", YUKAWA, [4.0, 1.0, 9.0], grid)
    assert rep.argmin_P2 == 1.0
    assert rep.argmin_map.shape == rep.radius_points.shape == r2.shape
    r_sq = reference_radius_sq(grid)
    A, B = form_pair("sazdjian", YUKAWA, 1.0, -r_sq)
    assert np.array_equal(rep.argmin_map[index], A - np.abs(B))
    assert rep.argmin_map[index[rep.argmin_index]] == rep.min_eigenvalue
    assert rep.radius_points.tolist() == [int(np.sum(r_sq == v)) for v in r2]


def _point_scan(flavor, potential, P2_values, r_sq):
    """The scan evaluated at every grid point, at its squared radius
    r_sq, the oracle for scan's evaluation on the distinct radii: the
    fields of its report, the per-radius arrays left out. The violating
    points are grouped by squared radius, in increasing order at each
    P^2, into (r, points, P2)."""
    radius = np.sqrt(r_sq)
    min_eig, argmin, argmin_P2, violations, edges = math.inf, None, None, [], []
    n_bad = 0
    for P2 in P2_values:
        A, B = form_pair(flavor, potential, P2, -r_sq)
        eigs = A - np.abs(B)
        idx = np.unravel_index(np.argmin(eigs), eigs.shape)
        if eigs[idx] < min_eig:
            min_eig, argmin, argmin_P2 = float(eigs[idx]), tuple(int(i) for i in idx), P2
        bad = eigs < -positivity.EIGENVALUE_TOLERANCE
        n_bad += int(bad.sum())
        groups = collections.Counter(r_sq[bad].tolist())
        violations.extend((math.sqrt(r2), groups[r2], P2) for r2 in sorted(groups))
        if bad.any():
            edges.append(float(radius[bad].max()))
    return {
        "min_eigenvalue": min_eig,
        "argmin_index": argmin,
        "argmin_radius": float(radius[argmin]),
        "argmin_P2": argmin_P2,
        "violation_count": n_bad,
        "violation_radii": tuple(violations),
        "violation_radius_max": max(edges, default=None),
    }


@pytest.mark.parametrize("flavor, potential, P2_values, grid", [
    ("sazdjian", YUKAWA, [4.0, 1.0, 0.5], Grid(n=16, L=4.0)),
    ("crater", YUKAWA, [1.0, 2.0], Grid(n=12, L=3.0)),
    ("sazdjian", TanhOfG(g=GaussianG(amplitude=0.9, width=1.0)), [4.0, 6.25, 9.0], Grid(n=16, L=10.5)),
    # every point ties at 1: the argmin is the first point
    ("free", YUKAWA, [1.0, 2.0], Grid(n=8, L=4.0)),
    # h = 5/24 squares inexactly: the points of one radius still share
    # (h/2)^2 q, so each violating radius is one entry
    ("crater", YUKAWA, [1.0], Grid(n=24, L=5.0)),
], ids=["yukawa_sazdjian", "yukawa_crater", "tanh_gaussian", "free_ties", "inexact_squares"])
def test_scan_on_distinct_radii_matches_a_point_by_point_scan(reference_radius_sq, flavor, potential, P2_values, grid):
    rep = scan(flavor, potential, P2_values, grid)
    expected = _point_scan(flavor, potential, P2_values, reference_radius_sq(grid))
    assert {key: getattr(rep, key) for key in expected} == expected


def test_scan_certifies_bounded_tanh_potential():
    pot = TanhOfG(g=GaussianG(amplitude=0.9, width=1.0))
    rep = scan("sazdjian", pot, [4.0, 6.25, 9.0], Grid(n=8, L=6.0))
    assert rep.passed
    assert rep.min_eigenvalue >= -1e-12
    assert rep.violation_count == 0
    assert rep.P2_values == (4.0, 6.25, 9.0)


def test_scan_finds_yukawa_violation_ball():
    grid = Grid(n=16, L=4.0)
    rep = scan("sazdjian", YUKAWA, [1.0], grid)
    assert not rep.passed
    assert rep.min_eigenvalue < -0.1
    assert rep.violation_count > 0
    # every violating radius lies inside the ball (step tolerance one cell)
    cell = math.sqrt(3.0) * grid.h
    for r, points, P2 in rep.violation_radii:
        assert r < OMEGA + cell
    assert empirical_boundary_consistent(rep, OMEGA, grid)


def test_scan_min_matches_eigenvalue_map(reference_radius_sq):
    grid = Grid(n=16, L=4.0)
    rep = scan("sazdjian", YUKAWA, [1.0], grid)
    emap = _eigenvalue_map("sazdjian", YUKAWA, 1.0, grid)
    assert rep.min_eigenvalue == pytest.approx(float(np.min(emap)), abs=1e-15)
    assert emap[rep.argmin_index] == rep.min_eigenvalue
    radius = np.sqrt(reference_radius_sq(grid))
    assert rep.argmin_radius == pytest.approx(float(radius[rep.argmin_index]))


@pytest.mark.parametrize("flavor", ["sazdjian", "crater"])
@pytest.mark.parametrize(
    "potential, P2",
    [(TanhOfG(g=GaussianG(amplitude=0.9, width=1.0)), 4.0), (YUKAWA, 1.0)],
    ids=["tanh_gaussian", "yukawa_ball"],
)
def test_eigenvalue_map_matches_dense_eigensolve(gammas, reference_radius_sq, flavor, potential, P2):
    # oracle: the full 16x16 form matrix A 1 + B gamma_1^0 gamma_2^0 at
    # every point, diagonalized densely
    grid = Grid(n=8, L=4.0)
    emap = _eigenvalue_map(flavor, potential, P2, grid)
    A, B = (x.reshape(-1) for x in form_pair(flavor, potential, P2, -reference_radius_sq(grid)))
    gp = np.kron(gammas.gamma[0], gammas.gamma[0])
    dense = np.linalg.eigvalsh(A[:, None, None] * np.eye(16) + B[:, None, None] * gp)[:, 0]
    scale = np.maximum(1.0, np.abs(A) + np.abs(B))
    assert np.all(np.abs(emap.reshape(-1) - dense) <= 1e-13 * scale)
    if potential is YUKAWA:
        assert np.min(dense) < -0.1  # the violation ball is sampled


def test_eigenvalue_map_is_evaluated_at_the_requested_P2(reference_radius_sq):
    # P^2 = 3.0 is not the square of its rounded square root; the map is
    # A - |B| of the coefficients at P_sq = 3.0 exactly, bit for bit:
    # A = sech^2(Delta) and B = A b, b = 4 P^2 dDelta/dP^2
    grid = Grid(n=8, L=4.0)
    x_perp_sq = -reference_radius_sq(grid)
    A = 1.0 / np.cosh(eval_delta(YUKAWA, x_perp_sq, 3.0)) ** 2
    B = A * (4.0 * 3.0 * eval_ddelta_dP2(YUKAWA, x_perp_sq, 3.0))
    assert np.array_equal(_eigenvalue_map("sazdjian", YUKAWA, 3.0, grid), A - np.abs(B))


def test_eigenvalue_map_agrees_with_h_branch(reference_radius_sq):
    # the closed-form form eigenvalue lands exactly on the analytic
    # minus branch at every sampled point
    grid = Grid(n=8, L=4.0)
    emap = _eigenvalue_map("sazdjian", YUKAWA, 1.0, grid)
    radius = np.sqrt(reference_radius_sq(grid))
    for idx in ((0, 0, 0), (3, 4, 5), (4, 4, 4), (7, 1, 2)):
        y = y_of(YUKAWA, float(radius[idx]), 1.0)
        assert emap[idx] == pytest.approx(h_closed(y, "minus"), abs=1e-12)


def test_crater_scan_finds_the_same_ball():
    grid = Grid(n=16, L=4.0)
    rep = scan("crater", YUKAWA, [1.0], grid)
    assert not rep.passed
    assert empirical_boundary_consistent(rep, OMEGA, grid)


def test_scan_rejects_empty_P2_set():
    with pytest.raises(ValueError):
        scan("sazdjian", YUKAWA, [], Grid(n=8, L=4.0))


def test_boundary_consistency_rejects_fabricated_report():
    grid = Grid(n=16, L=4.0)
    rep = scan("sazdjian", YUKAWA, [1.0], grid)
    from dataclasses import replace

    assert empirical_boundary_consistent(rep, OMEGA, grid)
    shifted = replace(rep, violation_radius_max=OMEGA + 1.0)
    assert not empirical_boundary_consistent(shifted, OMEGA, grid)
    # and the other way round: a wrong radius against the scan's boundary
    assert not empirical_boundary_consistent(rep, OMEGA + 1.0, grid)
