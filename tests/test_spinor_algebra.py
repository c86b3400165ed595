import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbdkit.spinor_algebra import (
    build_gammas,
    gamma0_pair,
    lift1,
    lift2,
    slash1,
    slash2,
)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

four_vectors = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=4, max_size=4
)


def test_metric_signature(gammas):
    assert np.array_equal(gammas.metric, METRIC)


def test_clifford_relations(gammas):
    for mu in range(4):
        for nu in range(4):
            anti = gammas.gamma[mu] @ gammas.gamma[nu] + gammas.gamma[nu] @ gammas.gamma[mu]
            assert np.allclose(anti, 2.0 * METRIC[mu, nu] * np.eye(4), atol=1e-14)


def test_hermiticity_pattern(gammas):
    g0 = gammas.gamma[0]
    for mu in range(4):
        gm = gammas.gamma[mu]
        assert np.allclose(gm.conj().T, g0 @ gm @ g0, atol=1e-14)
    # equivalent statement: gamma^0 hermitian, gamma^k anti-hermitian
    assert np.allclose(g0.conj().T, g0, atol=1e-14)
    for k in range(1, 4):
        gk = gammas.gamma[k]
        assert np.allclose(gk.conj().T, -gk, atol=1e-14)


def test_dirac_representation_diagonal_gamma0(dirac):
    assert np.allclose(dirac.gamma[0], np.diag([1.0, 1.0, -1.0, -1.0]))


def test_weyl_representation_offdiagonal_gamma0(weyl):
    assert np.allclose(np.diag(weyl.gamma[0]), 0.0)


def test_representations_share_spatial_blocks(dirac, weyl):
    for k in range(1, 4):
        assert np.allclose(dirac.gamma[k], weyl.gamma[k], atol=1e-14)


def _block_gammas(tag):
    """The np.block construction that build_gammas replaced, kept as its
    oracle: four 2x2-block matrices, stacked."""
    zero = np.zeros((2, 2))
    eye = np.eye(2)
    sigma = [
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]

    def block(a, b, c, d):
        return np.block([[a, b], [c, d]]).astype(complex)

    g0 = block(eye, zero, zero, -eye) if tag == "dirac" else block(zero, eye, eye, zero)
    return np.stack([g0] + [block(zero, s, -s, zero) for s in sigma])


@pytest.mark.parametrize("tag", ["dirac", "weyl"])
def test_gammas_match_the_block_oracle_bit_for_bit(tag):
    # bytes, not values: the signs of the zeros are the oracle's too
    g = build_gammas(tag).gamma
    assert g.dtype == complex and g.flags.c_contiguous
    assert g.tobytes() == _block_gammas(tag).tobytes()


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        build_gammas("euclidean")


def test_lifted_copies_commute(gammas):
    for mu in range(4):
        for nu in range(4):
            a = lift1(gammas, mu)
            b = lift2(gammas, nu)
            assert np.allclose(a @ b - b @ a, 0.0, atol=1e-14)


def test_lifted_copies_satisfy_clifford(gammas):
    eye = np.eye(16)
    for lift in (lift1, lift2):
        for mu in range(4):
            for nu in range(4):
                a, b = lift(gammas, mu), lift(gammas, nu)
                assert np.allclose(a @ b + b @ a, 2.0 * METRIC[mu, nu] * eye, atol=1e-14)


def test_lift_index_range(gammas):
    with pytest.raises(IndexError):
        lift1(gammas, 4)
    with pytest.raises(IndexError):
        lift2(gammas, -5)


def test_trace_normalization(gammas):
    # a quarter of the 16x16 trace plays the single-particle spinor trace
    assert np.trace(np.eye(16)) / 4 == pytest.approx(4.0)
    for mu in range(4):
        assert np.trace(lift1(gammas, mu)) / 4 == pytest.approx(0.0, abs=1e-14)
        for nu in range(4):
            # Tr(Gamma_1^mu Gamma_1^nu)/4 = 4 eta^{mu nu}; mixed lifts trace to zero
            t11 = np.trace(lift1(gammas, mu) @ lift1(gammas, nu)) / 4
            assert t11 == pytest.approx(4.0 * METRIC[mu, nu], abs=1e-13)
            t12 = np.trace(lift1(gammas, mu) @ lift2(gammas, nu)) / 4
            assert t12 == pytest.approx(0.0, abs=1e-13)


def test_gamma0_pair_is_product_of_lifts(gammas):
    assert np.allclose(
        gamma0_pair(gammas), lift1(gammas, 0) @ lift2(gammas, 0), atol=1e-14
    )


@settings(max_examples=30, deadline=None)
@given(q=four_vectors)
def test_slash_squares_to_invariant(q):
    gam = build_gammas("dirac")
    q = np.asarray(q)
    q_sq = q[0] ** 2 - np.sum(q[1:] ** 2)
    for slash in (slash1, slash2):
        s = slash(gam, q)
        assert np.allclose(s @ s, q_sq * np.eye(16), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(q=four_vectors, r=four_vectors)
def test_slash_different_particles_commute(q, r):
    gam = build_gammas("dirac")
    a = slash1(gam, q)
    b = slash2(gam, r)
    assert np.allclose(a @ b, b @ a, atol=1e-10)


def test_slash_is_linear_contraction(gammas, rng):
    q = rng.standard_normal(4)
    expect = q[0] * lift1(gammas, 0)
    for k in range(1, 4):
        expect = expect - q[k] * lift1(gammas, k)
    assert np.allclose(slash1(gammas, q), expect, atol=1e-14)
