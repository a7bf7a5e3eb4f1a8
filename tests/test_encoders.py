import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gradcoding as gc
from gradcoding import encoders
from gradcoding.errors import ConstructionError, ParameterError


def test_sample_diagonal_sign_only_law():
    rng = np.random.default_rng(0)
    d = gc.sample_diagonal(1000, gc.DiagonalLaw(0.0), rng)
    assert set(np.unique(d)) == {-1.0, 1.0}


def test_sample_diagonal_magnitude_range():
    rng = np.random.default_rng(1)
    d = gc.sample_diagonal(2000, gc.DiagonalLaw(0.3), rng)
    mags = np.abs(d)
    assert np.all((mags >= 0.7) & (mags <= 1.3))
    assert (d > 0).any() and (d < 0).any()


def test_diagonal_law_domain():
    with pytest.raises(ParameterError):
        gc.DiagonalLaw(1.0)
    with pytest.raises(ParameterError):
        gc.DiagonalLaw(-0.1)


def test_random_diagonal_blocks_scale_columns(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.2), seed=3)
    assert B.mat.shape == (14, 7)
    assert gc.verify_support(B)
    for i in range(2):
        d = B.randomness.diagonals[i]
        assert np.allclose(B.block(i), fano.mat * d[None, :])


def test_random_diagonal_draws_each_diagonal_in_turn(bireg40):
    # block i is A D_i exactly, with d_i the i-th sample_diagonal draw of
    # the seed's stream
    for m, eps in ((1, 0.0), (3, 0.2)):
        B = gc.encode_random_diagonal(bireg40, m, gc.DiagonalLaw(eps), seed=7)
        rng = np.random.default_rng(7)
        drawn = [gc.sample_diagonal(40, gc.DiagonalLaw(eps), rng) for _ in range(m)]
        assert np.array_equal(B.randomness.diagonals, np.array(drawn))
        assert np.array_equal(B.mat, np.vstack([bireg40.mat * d for d in drawn]))


def _identity_design(n):
    """The n-worker design in which worker j holds subset j alone."""
    return gc.AssignmentMatrix(mat=np.eye(n), delta=1, gamma=1, family="identity", params=None)


_DRAW_SIZES = list(range(1, 14)) + [27, 40, 54, 91]


def _assert_draw_reads_the_stream(n, m, eps, seed):
    law = gc.DiagonalLaw(eps)
    rng = np.random.default_rng(seed)
    want = np.array([gc.sample_diagonal(n, law, rng) for _ in range(m)])
    got = gc.draw_diagonals(_identity_design(n), m, law, seed).diagonals
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_DRAW_SIZES),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.1, 0.5]),
    st.integers(0, 2**64 - 1),
)
@example(n=3, m=2, eps=0.1, seed=0)
@example(n=91, m=3, eps=0.5, seed=2**64 - 1)
def test_property_draw_diagonals_is_the_sample_diagonal_draws(n, m, eps, seed):
    # one raw read gives m sample_diagonal draws on default_rng(seed), bit
    # for bit; at odd n with eps > 0 the last sign word's high half waits
    # through the magnitudes for the next diagonal's first sign
    _assert_draw_reads_the_stream(n, m, eps, seed)


@pytest.mark.parametrize("seed", [0, 2**63 + 1])
def test_draw_diagonals_on_every_size_and_law(seed):
    for n in _DRAW_SIZES:
        for m in (1, 2, 3):
            for eps in (0.0, 0.1, 0.5):
                _assert_draw_reads_the_stream(n, m, eps, seed)


@pytest.mark.parametrize("eps", [5e-324, 1e-17, 2.0**-54, 2.0**-53, 1e-9, np.nextafter(1.0, 0.0)])
def test_draw_diagonals_at_extreme_epsilon(eps):
    # the magnitudes' width 2 eps rounds to 0 or to at least 2^-53, so
    # folding the 2^-53 of u into it stays exact
    for n, seed in itertools.product((1, 7, 54), range(5)):
        _assert_draw_reads_the_stream(n, 3, eps, seed)


def test_random_diagonal_reproducible(fano):
    a = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=5)
    b = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=5)
    c = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=6)
    assert np.array_equal(a.mat, b.mat)
    assert not np.array_equal(a.mat, c.mat)


def test_baseline_stacks_plain_copies(fano):
    B = gc.encode_baseline(fano, 3)
    assert B.mat.shape == (21, 7)
    for i in range(3):
        assert np.array_equal(B.block(i), fano.mat)
    assert B.seed is None and B.randomness is None


def test_encoders_reject_nonpositive_m(fano):
    with pytest.raises(ParameterError):
        gc.encode_baseline(fano, 0)
    with pytest.raises(ParameterError):
        gc.encode_random_diagonal(fano, 0, gc.DiagonalLaw(0.0), seed=0)


# each library entry point that takes a seed, called with it on the
# fixtures fano and bireg40
_SEEDED = {
    "encode_random_diagonal": lambda fano, bireg40, seed: gc.encode_random_diagonal(
        fano, 2, gc.DiagonalLaw(0.1), seed=seed
    ).mat,
    "draw_diagonals": lambda fano, bireg40, seed: gc.draw_diagonals(fano, 2, gc.DiagonalLaw(0.1), seed=seed).diagonals,
    "encode_nullspace_hadamard": lambda fano, bireg40, seed: gc.encode_nullspace_hadamard(bireg40, 2, seed=seed).mat,
    "estimate_unbiasedness": lambda fano, bireg40, seed: gc.estimate_unbiasedness(
        fano, gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1), 2, 0.25, 3, seed=seed
    ).beta_hat,
    "biregular_random": lambda fano, bireg40, seed: gc.biregular_random(n=40, k=20, delta=3, gamma=6, seed=seed).mat,
}


@pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, np.bool_(True), "3"])
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_library_seeds_refuse_a_non_count(name, seed, fano, bireg40):
    # -1 raised numpy's ValueError, 2.5 its TypeError, and
    # encode_random_diagonal drew seed 1's stream for True
    with pytest.raises(ParameterError, match=r"^seed must be an integer >= 0, got "):
        _SEEDED[name](fano, bireg40, seed)


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_library_seeds_take_a_numpy_integer(name, fano, bireg40):
    assert np.array_equal(_SEEDED[name](fano, bireg40, np.int64(3)), _SEEDED[name](fano, bireg40, 3))


@pytest.mark.parametrize("policy", [gc.V1_ALL_ONES, gc.V1_GAUSSIAN])
def test_nullspace_encoding_recovers_exactly(bireg40, policy):
    B = gc.encode_nullspace_hadamard(bireg40, 2, v1_policy=policy, seed=0)
    assert gc.verify_support(B)
    vectors = B.randomness.vectors
    for i in range(2):
        want = np.zeros(40)
        want[i * 20 : (i + 1) * 20] = 1.0
        assert np.max(np.abs(B.mat @ vectors[i] - want)) < 1e-10


def test_nullspace_encoding_requires_square_total(fano):
    with pytest.raises(ParameterError):
        gc.encode_nullspace_hadamard(fano, 2)  # n=7 != m*k=14


def test_nullspace_pm1_search_fails_gracefully(bireg40):
    # no +/-1 vector annihilates block 1 here; the record says so and the
    # unconstrained fallback still satisfies the recovery identity
    B = gc.encode_nullspace_hadamard(bireg40, 2, constrain_pm1=True, seed=0)
    assert not B.randomness.pm1_found
    v2 = B.randomness.vectors[1]
    want = np.zeros(40)
    want[20:] = 1.0
    assert np.max(np.abs(B.mat @ v2 - want)) < 1e-10


def test_nullspace_pm1_search_succeeds_on_disjoint_supports():
    # disjoint row supports of even size admit sign-balanced +/-1 vectors
    A = gc.biregular_random(n=4, k=2, delta=1, gamma=2, seed=0)
    B = gc.encode_nullspace_hadamard(A, 2, constrain_pm1=True, seed=0)
    assert B.randomness.pm1_found
    v2 = B.randomness.vectors[1]
    assert np.all(np.abs(v2) == 1.0)


def _float_search(first_block, n, rng):
    # the search as first written: draw each batch, accept max|first_block @ v| <= 1e-9
    tried = 0
    while tried < 100_000:
        size = min(2_000, 100_000 - tried)
        cand = rng.integers(0, 2, size=(size, n)) * 2.0 - 1.0
        score = np.max(np.abs(first_block @ cand.T), axis=0)
        hits = np.nonzero(score <= 1e-9)[0]
        if hits.size:
            return cand[hits[0]]
        tried += size
    return None


def _assert_search_matches_the_float_search(A, seed):
    supports = encoders._row_supports(A)
    first_block = encoders._rows_from_vector(np.ones(A.n), supports, A.n)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _float_search(first_block, A.n, want_rng)
    got = encoders._search_pm1_null_vector(supports, A.n, got_rng)
    if want is None:
        assert got is None
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(got_rng.standard_normal(4), want_rng.standard_normal(4))
    return want is not None


# (n, k, delta): n = 2k as the null-space chain with m = 2 needs, plus two odd
# n, where candidates start on either half of a raw word. With every worker in
# delta rows, the row sums of a balanced v add up to delta * sum(v) != 0 for
# odd n, so those compare the whole budget.
_PM1_SHAPES = [(4, 2, 1), (6, 3, 2), (8, 4, 2), (8, 4, 3), (12, 6, 3), (16, 8, 3), (7, 7, 2), (9, 3, 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_PM1_SHAPES), st.integers(0, 2**16), st.integers(0, 2**32))
def test_property_pm1_search_matches_the_float_search(shape, design_seed, seed):
    n, k, delta = shape
    try:
        A = gc.biregular_random(n=n, k=k, delta=delta, gamma=n * delta // k, seed=design_seed)
    except ConstructionError:
        assume(False)
    _assert_search_matches_the_float_search(A, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_pm1_search_matches_the_float_search_over_the_whole_budget(bireg40, seed):
    assert not _assert_search_matches_the_float_search(bireg40, seed)


@pytest.mark.parametrize("seed", [0, 1, 2718])
@pytest.mark.parametrize("size, n", [(2_000, 40), (3, 4), (1, 2), (4, 7), (6, 5)])
def test_candidate_bytes_are_the_integer_draw(seed, size, n):
    # pins numpy's layout of rng.integers(0, 2): one 32-bit half per entry,
    # low half first, the entry its top bit
    drawn, read = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        want = drawn.integers(0, 2, size=(size, n))
        assert np.array_equal(encoders._candidate_bytes(read, size, n) >> 7, want)
        # uinteger keeps a stale half once has_uint32 is 0; nothing reads it
        for key in ("state", "has_uint32"):
            assert read.bit_generator.state[key] == drawn.bit_generator.state[key]


def test_pm1_search_refuses_a_buffered_half(bireg40):
    rng = np.random.default_rng(0)
    rng.integers(0, 2)  # one 32-bit half drawn, the other kept
    with pytest.raises(ConstructionError, match="search"):
        encoders._search_pm1_null_vector(encoders._row_supports(bireg40), 40, rng)
    with pytest.raises(ConstructionError, match="search"):
        encoders._search_pm1_null_vector(
            encoders._row_supports(bireg40), 40, np.random.Generator(np.random.MT19937(0))
        )


def test_nullspace_gaussian_policy_randomizes(bireg40):
    a = gc.encode_nullspace_hadamard(bireg40, 2, v1_policy=gc.V1_GAUSSIAN, seed=0)
    b = gc.encode_nullspace_hadamard(bireg40, 2, v1_policy=gc.V1_GAUSSIAN, seed=1)
    assert not np.array_equal(a.mat, b.mat)


def test_nullspace_rejects_unknown_policy(bireg40):
    with pytest.raises(ParameterError):
        gc.encode_nullspace_hadamard(bireg40, 2, v1_policy="sparse")


def test_verify_support_detects_off_support_entry(fano):
    B = gc.encode_baseline(fano, 2)
    mat = B.mat.copy()
    i, j = np.argwhere(mat == 0.0)[0]
    mat[i, j] = 0.5
    tampered = gc.EncodingMatrix(
        mat=mat, m=2, scheme=B.scheme, parent=fano, seed=None, randomness=None
    )
    assert not gc.verify_support(tampered)


def test_encoding_block_slices(fano):
    B = gc.encode_baseline(fano, 2)
    assert np.array_equal(B.block(1), B.mat[7:14])
    assert B.k == 7 and B.n == 7
