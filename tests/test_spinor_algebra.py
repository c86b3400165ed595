import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbdkit.spinor_algebra import build_gammas, lift, on, slash

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
EPS = 2.0**-52

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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["dirac", "weyl"]),
    batch=st.integers(min_value=1, max_value=3),
)
def test_lift_is_the_matrix_of_on(seed, tag, batch):
    # lift(p, S) @ x.ravel() is on(p, S, x).ravel() for a random S, the
    # representation's gammas and a random slash, on a batch of random
    # two-body spinors x in the row-major 4x4 form; both sides sum the
    # same four complex products per entry (the lift's other twelve are
    # exact zeros), each within 8 ulps of their magnitude sum
    rng = np.random.default_rng(seed)
    gammas = build_gammas(tag)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x = cplx(batch, 4, 4)
    for S in (cplx(4, 4), *gammas.gamma, slash(gammas, rng.standard_normal(4))):
        for particle in (1, 2):
            want = on(particle, S, x).reshape(batch, 16)
            got = x.reshape(batch, 16) @ lift(particle, S).T
            scale = on(particle, np.abs(S), np.abs(x)).reshape(batch, 16)
            assert np.all(np.abs(got - want) <= 16 * EPS * scale)


def test_lifted_copies_commute(gammas):
    for mu in range(4):
        for nu in range(4):
            a = lift(1, gammas.gamma[mu])
            b = lift(2, gammas.gamma[nu])
            assert np.allclose(a @ b - b @ a, 0.0, atol=1e-14)


def test_lifted_copies_satisfy_clifford(gammas):
    eye = np.eye(16)
    for particle in (1, 2):
        for mu in range(4):
            for nu in range(4):
                a, b = lift(particle, gammas.gamma[mu]), lift(particle, gammas.gamma[nu])
                assert np.allclose(a @ b + b @ a, 2.0 * METRIC[mu, nu] * eye, atol=1e-14)


def test_trace_normalization(gammas):
    # a quarter of the 16x16 trace plays the single-particle spinor trace
    assert np.trace(np.eye(16)) / 4 == pytest.approx(4.0)
    for mu in range(4):
        assert np.trace(lift(1, gammas.gamma[mu])) / 4 == pytest.approx(0.0, abs=1e-14)
        for nu in range(4):
            # Tr(Gamma_1^mu Gamma_1^nu)/4 = 4 eta^{mu nu}; mixed lifts trace to zero
            t11 = np.trace(lift(1, gammas.gamma[mu]) @ lift(1, gammas.gamma[nu])) / 4
            assert t11 == pytest.approx(4.0 * METRIC[mu, nu], abs=1e-13)
            t12 = np.trace(lift(1, gammas.gamma[mu]) @ lift(2, gammas.gamma[nu])) / 4
            assert t12 == pytest.approx(0.0, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(q=four_vectors)
def test_slash_squares_to_invariant(q):
    gam = build_gammas("dirac")
    q = np.asarray(q)
    q_sq = q[0] ** 2 - np.sum(q[1:] ** 2)
    for particle in (1, 2):
        s = lift(particle, slash(gam, q))
        assert np.allclose(s @ s, q_sq * np.eye(16), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(q=four_vectors, r=four_vectors)
def test_slash_different_particles_commute(q, r):
    gam = build_gammas("dirac")
    a = lift(1, slash(gam, q))
    b = lift(2, slash(gam, r))
    assert np.allclose(a @ b, b @ a, atol=1e-10)


def test_slash_is_linear_contraction(gammas, rng):
    q = rng.standard_normal(4)
    expect = q[0] * lift(1, gammas.gamma[0])
    for k in range(1, 4):
        expect = expect - q[k] * lift(1, gammas.gamma[k])
    assert np.allclose(lift(1, slash(gammas, q)), expect, atol=1e-14)
