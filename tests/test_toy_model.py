import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbdkit.toy_model import (
    B,
    BreakdownReport,
    a_product,
    evolve,
    norm_along_evolution,
    positivity_breakdown_search,
    sweep_samples,
)

bounded_complex = st.builds(
    complex,
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


def test_basis_norms_are_exact():
    assert a_product((1, 0), (1, 0)) == 1.0
    assert a_product((0, 1), (0, 1)) == -1.0
    assert a_product((1, 1), (1, 1)) == 0.0
    assert a_product((1, 0), (0, 1)) == 0.0


def test_near_null_family_norm():
    for n in (2, 3, 10, 100):
        b = 1.0 - 1.0 / n
        assert a_product((1, b), (1, b)).real == pytest.approx(1.0 - b * b, abs=1e-15)


def test_evolution_of_first_basis_vector_is_rotation():
    for t in (0.0, 0.3, 0.7, 2.0, -1.1):
        ut = evolve((1, 0), t)
        assert ut[0] == math.cos(t)
        assert ut[1] == -math.sin(t)


def test_evolution_satisfies_the_equation():
    # central difference of u(t) against -i B u(t)
    u0 = (0.8, 0.35j)
    h = 1e-6
    for t in (0.0, 0.4, 1.3):
        du = (evolve(u0, t + h) - evolve(u0, t - h)) / (2.0 * h)
        rhs = -1j * (B @ evolve(u0, t))
        assert np.allclose(du, rhs, atol=1e-9)


def test_evolution_is_euclidean_unitary_but_not_a_isometric():
    u0 = np.array([1.0, 0.0], dtype=complex)
    t = 0.9
    ut = evolve(u0, t)
    assert np.linalg.norm(ut) == pytest.approx(1.0, abs=1e-14)
    # the indefinite norm genuinely moves
    assert a_product(ut, ut).real == pytest.approx(math.cos(2.0 * t), abs=1e-14)
    assert a_product(ut, ut).real != pytest.approx(1.0, abs=1e-3)


def test_positive_norm_is_lost_within_a_period():
    # (1, 0) starts strictly positive and reaches norm -1 at t = pi/2
    u_half = evolve((1, 0), math.pi / 2.0)
    assert a_product(u_half, u_half).real == pytest.approx(-1.0, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(a=bounded_complex, b=bounded_complex, t=st.floats(min_value=-7.0, max_value=7.0))
def test_closed_form_matches_direct_evolution(a, b, t):
    direct = a_product(evolve((a, b), t), evolve((a, b), t)).real
    assert norm_along_evolution(a, b, t) == pytest.approx(direct, abs=1e-10)


def test_breakdown_search_default_sweep():
    report = positivity_breakdown_search()
    assert isinstance(report, BreakdownReport)
    assert report.n_samples == 10_000
    assert report.n_positive_initially == 10_000
    assert report.n_survivors == 0
    assert report.witness is not None
    a, b, q1, q3 = report.witness
    # the witness fails at one of the quarter periods by construction
    assert not (q1 > 0 and q3 > 0)
    assert q1 == pytest.approx(2.0 * (a.conjugate() * b).real)


def test_breakdown_search_explicit_samples():
    report = positivity_breakdown_search([(1.0, 0.0), (1.0, 0.5j)])
    assert report.n_samples == 2
    assert report.n_survivors == 0


def test_breakdown_search_rejects_nonpositive_initial_data():
    with pytest.raises(ValueError):
        positivity_breakdown_search([(0.5, 1.0)])


def test_quarter_period_values_are_opposite():
    # the mechanism of the breakdown: the two quarter-period norms are
    # exact negatives, so both positive is impossible
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = complex(*rng.uniform(-1, 1, 2))
        b = 0.5 * complex(*rng.uniform(-1, 1, 2))
        if not abs(a) > abs(b):
            continue
        q1 = 2.0 * (a.conjugate() * b).real
        q3 = -q1
        assert not (q1 > 0 and q3 > 0)
        # and they agree with the closed form at the exact angles up to
        # the floating residue of cos^2 - sin^2 at pi/4
        assert norm_along_evolution(a, b, math.pi / 4.0) == pytest.approx(q1, abs=1e-15)


def _loop_search(samples):
    """The sample-by-sample sweep the array version replaced, kept as
    its oracle."""
    survivors = 0
    witness = None
    for a, b in samples:
        if not abs(a) > abs(b):
            raise ValueError("samples must satisfy |a| > |b|")
        re_ab = (complex(a).conjugate() * complex(b)).real
        at_quarter = 2.0 * re_ab
        at_three_quarters = -2.0 * re_ab
        if at_quarter > 0 and at_three_quarters > 0:
            survivors += 1
        elif witness is None:
            witness = (complex(a), complex(b), at_quarter, at_three_quarters)
    return BreakdownReport(len(samples), len(samples), survivors, witness)


def _bits(report):
    """A report with every witness number as its exact bits, so that
    -0.0 and 0.0 compare unequal."""
    if report.witness is None:
        return report
    a, b, q1, q3 = report.witness
    witness = (a.real.hex(), a.imag.hex(), b.real.hex(), b.imag.hex(), q1.hex(), q3.hex())
    return BreakdownReport(report.n_samples, report.n_positive_initially, report.n_survivors, witness)


_pairs = st.lists(st.tuples(st.one_of(st.just(1.0), bounded_complex), bounded_complex), max_size=30)


@settings(max_examples=200, deadline=None)
@given(pairs=_pairs)
def test_breakdown_search_matches_the_sample_loop(pairs):
    valid = [(a, b) for a, b in pairs if abs(a) > abs(b)]
    assert _bits(positivity_breakdown_search(valid)) == _bits(_loop_search(valid))
    if len(valid) < len(pairs):
        with pytest.raises(ValueError):
            positivity_breakdown_search(pairs)


@pytest.mark.parametrize("n_rho, n_phi", [(7, 13), (1, 1), (100, 100)])
def test_sweep_grid_matches_the_sample_loop(n_rho, n_phi):
    rhos = np.linspace(0.0, 0.99, n_rho)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    listed = [(1.0, rho * np.exp(1j * phi)) for rho in rhos for phi in phis]
    grid = sweep_samples(n_rho, n_phi)
    assert grid.shape == (n_rho * n_phi, 2)
    assert grid.tobytes() == np.array(listed, dtype=complex).tobytes()
    assert _bits(positivity_breakdown_search(grid)) == _bits(_loop_search(listed))
