import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gradcoding as gc
from gradcoding import decoding
from gradcoding.errors import NumericalError, ParameterError, ShapeError
from gradcoding.linalg import certified_cholesky, project, rank_of


def test_target_columns_indicate_blocks():
    F = gc.build_target(3, 2)
    assert F.mat.shape == (6, 2)
    assert np.array_equal(F.mat[:, 0], [1, 1, 1, 0, 0, 0])
    assert np.array_equal(F.mat[:, 1], [0, 0, 0, 1, 1, 1])
    assert np.array_equal(F.mat.T @ F.mat, 3 * np.eye(2))


def test_target_validation():
    with pytest.raises(ParameterError):
        gc.build_target(0, 2)


def test_nonstraggler_set_invariants():
    w = gc.NonStragglerSet(n=5, members=(3, 0))
    assert w.members == (0, 3)
    assert w.s == 3
    assert gc.NonStragglerSet.full(4).s == 0
    with pytest.raises(ParameterError):
        gc.NonStragglerSet(n=3, members=(0, 3))
    with pytest.raises(ParameterError):
        gc.NonStragglerSet(n=3, members=(1, 1))


def test_empty_set_decodes_to_total_mass(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    res = gc.decode(B, gc.NonStragglerSet(n=7, members=()))
    assert res.err == 14.0
    assert np.all(res.coeffs == 0.0)


def test_full_invertible_set_decodes_exactly(coset27):
    B = gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.1), seed=0)
    res = gc.decode(B, gc.NonStragglerSet.full(54))
    assert res.err <= 1e-8
    F = gc.build_target(27, 2).mat
    assert np.allclose(B.mat @ res.coeffs, F, atol=1e-6)


def test_coefficients_vanish_on_stragglers(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=1)
    workers = gc.NonStragglerSet(n=7, members=(0, 2, 5))
    res = gc.decode(B, workers)
    gone = [j for j in range(7) if j not in workers.members]
    assert np.all(res.coeffs[gone, :] == 0.0)


def test_error_never_increases_with_more_workers(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.3), seed=2)
    rng = np.random.default_rng(0)
    order = rng.permutation(7)
    prev = gc.decode(B, gc.NonStragglerSet(n=7, members=())).err
    for t in range(1, 8):
        cur = gc.decode(B, gc.NonStragglerSet(n=7, members=tuple(order[:t]))).err
        assert cur <= prev + 1e-9
        prev = cur


def test_single_block_error_depends_only_on_set_size(fano):
    # m = 1: the sign diagonal cancels in the projection, and the design
    # symmetry makes every survivor set of one size equally good
    expected = 7.0 - 9.0 * 5.0 / (3.0 + 4.0 * 1.0)
    for seed in (0, 1):
        B = gc.encode_random_diagonal(fano, 1, gc.DiagonalLaw(0.0), seed=seed)
        errs = [
            gc.decode(B, gc.NonStragglerSet(n=7, members=members)).err
            for members in itertools.combinations(range(7), 5)
        ]
        assert np.ptp(errs) <= 1e-9
        assert errs[0] == pytest.approx(expected, abs=1e-9)


def test_sign_flipping_a_block_preserves_error(fano):
    # negating one row block is an orthogonal change absorbable by the
    # decoder, so the realized error is identical draw by draw
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.2), seed=4)
    flipped = B.mat.copy()
    flipped[7:14] *= -1.0
    workers = gc.NonStragglerSet(n=7, members=(0, 1, 4, 6))
    a = gc.decode(B, workers).err
    b = gc.decode_matrix(flipped, 2, workers).err
    assert abs(a - b) <= 1e-8


def test_residual_orthogonal_to_survivor_columns(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.1), seed=5)
    workers = gc.NonStragglerSet(n=7, members=(1, 2, 3, 6))
    res = gc.decode(B, workers)
    F = gc.build_target(7, 2).mat
    resid = B.mat @ res.coeffs - F
    sub = B.mat[:, list(workers.members)]
    assert np.max(np.abs(sub.T @ resid)) <= 1e-9


def test_error_matches_direct_residual(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=6)
    workers = gc.NonStragglerSet(n=7, members=(0, 3, 4))
    res = gc.decode(B, workers)
    F = gc.build_target(7, 2).mat
    direct = float(np.sum((B.mat @ res.coeffs - F) ** 2))
    assert res.err == pytest.approx(direct, abs=1e-9)


def test_decode_matrix_shape_errors():
    with pytest.raises(ShapeError):
        gc.decode_matrix(np.ones((5, 3)), 2, gc.NonStragglerSet.full(3))
    with pytest.raises(ShapeError):
        gc.decode_matrix(np.ones((4, 3)), 2, gc.NonStragglerSet.full(5))


def test_split_arranges_blocks_and_sums(fano):
    rng = np.random.default_rng(7)
    partials = [rng.standard_normal(7) for _ in range(5)]
    Z = gc.split_gradients(partials, 2)
    assert Z.mat.shape == (4, 10)  # ceil(7/2) = 4 rows, m*k columns
    assert Z.d == 8 and Z.d_orig == 7
    F = gc.build_target(5, 2).mat
    total = gc.merge_blocks(Z.mat @ F, 7)
    assert np.allclose(total, np.sum(partials, axis=0), atol=1e-12)


def test_split_column_layout():
    g = [np.arange(6.0) + 10 * i for i in range(3)]
    Z = gc.split_gradients(g, 2)
    # column u*k + i holds block u of subset i
    assert np.array_equal(Z.mat[:, 1], [10.0, 11.0, 12.0])
    assert np.array_equal(Z.mat[:, 3 + 1], [13.0, 14.0, 15.0])


def test_split_validation():
    with pytest.raises(ParameterError):
        gc.split_gradients([], 2)
    with pytest.raises(ShapeError):
        gc.split_gradients([np.zeros(3), np.zeros(4)], 2)


def test_reconstruct_gap_bounded_by_decode_error(fano):
    rng = np.random.default_rng(8)
    partials = [rng.standard_normal(11) for _ in range(7)]
    Z = gc.split_gradients(partials, 2)
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=9)
    workers = gc.NonStragglerSet(n=7, members=(0, 2, 3, 5))
    approx, gap = gc.reconstruct(Z, B, workers)
    assert approx.shape == (6, 2)
    err = gc.decode(B, workers).err
    znorm = np.linalg.norm(Z.mat, 2)
    assert gap * gap <= znorm * znorm * err * (1 + 1e-8) + 1e-8


def test_reconstruct_exact_with_full_recovery(bireg40):
    rng = np.random.default_rng(10)
    partials = [rng.standard_normal(9) for _ in range(20)]
    Z = gc.split_gradients(partials, 2)
    B = gc.encode_nullspace_hadamard(bireg40, 2, seed=0)
    approx, gap = gc.reconstruct(Z, B, gc.NonStragglerSet.full(40))
    assert gap <= 1e-8
    total = gc.merge_blocks(approx, 9)
    assert np.allclose(total, np.sum(partials, axis=0), atol=1e-8)


def test_reconstruct_rejects_mismatched_shapes(fano, coset_small):
    Z = gc.split_gradients([np.zeros(4)] * 7, 2)
    B = gc.encode_baseline(coset_small, 2)
    with pytest.raises(ShapeError):
        gc.reconstruct(Z, B, gc.NonStragglerSet.full(6))


# ---------------------------------------------------------------------------
# the certified Gram path against the single-SVD reference


FAMILIES = ("fano", "paley13", "coset27", "bireg40")
SCHEMES = (gc.RANDOM_DIAGONAL, gc.NULLSPACE_HADAMARD, gc.BASELINE)


def _encode(A, scheme, seed=0):
    """Encode A with m = 2, except the null-space chain, which needs n = m*k."""
    if scheme == gc.NULLSPACE_HADAMARD:
        return gc.encode_nullspace_hadamard(A, A.n // A.k, seed=seed)
    if scheme == gc.RANDOM_DIAGONAL:
        return gc.encode_random_diagonal(A, 2, gc.DiagonalLaw(0.1), seed=seed)
    return gc.encode_baseline(A, 2)


def _survivor_gram(B, members):
    G, _ = B.gram
    return G[np.ix_(members, members)]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", FAMILIES)
def test_gram_decode_matches_svd_projection(request, family, scheme):
    A = request.getfixturevalue(family)
    B = _encode(A, scheme)
    F = gc.build_target(B.k, B.m).mat
    mk = B.m * B.k
    rng = np.random.default_rng(0)
    sets = [tuple(range(A.n))]
    for size in np.linspace(1, A.n - 1, 12).astype(int):
        sets.append(tuple(np.sort(rng.choice(A.n, size=size, replace=False))))
    certified = 0
    for members in sets:
        members = list(members)
        got = gc.decode(B, gc.NonStragglerSet(n=A.n, members=members))
        ref_coeffs, ref_err = project(B.mat[:, members], F)
        assert abs(got.err - ref_err) <= 1e-9 * mk
        resid = B.mat[:, members] @ got.coeffs[members] - F
        ref_resid = B.mat[:, members] @ ref_coeffs - F
        assert np.allclose(resid, ref_resid, rtol=0.0, atol=1e-8)
        certified += certified_cholesky(_survivor_gram(B, members)) is not None
    # the fast path runs wherever the survivor columns are well conditioned
    assert certified > 0


def test_rank_deficient_baseline_is_never_certified(bireg40):
    # [A; A] has rank at most k = 20, so every set of more than 20 workers
    # is rank-deficient and must go through the SVD projection
    B = gc.encode_baseline(bireg40, 2)
    rng = np.random.default_rng(1)
    for s in range(0, 17, 2):
        for _ in range(10):
            members = list(np.sort(rng.choice(40, size=40 - s, replace=False)))
            assert certified_cholesky(_survivor_gram(B, members)) is None
            assert rank_of(B.mat[:, members]) < len(members)


# The designs come from session fixtures through `request`; nothing in them
# is reset between examples, so the function-scoped-fixture check is moot.
_PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def encoded_sets(draw):
    family = draw(st.sampled_from(FAMILIES))
    scheme = draw(st.sampled_from(SCHEMES))
    seed = draw(st.integers(0, 2**16))
    return family, scheme, seed, draw(st.data())


def _draw_members(data, n, min_size=0):
    return sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=min_size, max_size=n)))


@_PROPERTY_SETTINGS
@given(encoded_sets())
def test_property_error_within_zero_and_total_mass(request, case):
    family, scheme, seed, data = case
    B = _encode(request.getfixturevalue(family), scheme, seed)
    members = _draw_members(data, B.n)
    err = gc.decode(B, gc.NonStragglerSet(n=B.n, members=members)).err
    assert 0.0 <= err <= B.m * B.k


@_PROPERTY_SETTINGS
@given(encoded_sets())
def test_property_error_does_not_rise_with_an_added_survivor(request, case):
    family, scheme, seed, data = case
    B = _encode(request.getfixturevalue(family), scheme, seed)
    members = _draw_members(data, B.n)
    extra = data.draw(st.sampled_from([j for j in range(B.n) if j not in members] or [None]))
    if extra is None:
        return
    before = gc.decode(B, gc.NonStragglerSet(n=B.n, members=members)).err
    after = gc.decode(B, gc.NonStragglerSet(n=B.n, members=members + [extra])).err
    assert after <= before + 1e-9 * B.m * B.k


@_PROPERTY_SETTINGS
@given(
    st.sampled_from(FAMILIES),
    st.sampled_from((gc.V1_ALL_ONES, gc.V1_GAUSSIAN)),
    st.integers(0, 2**16),
)
def test_property_nullspace_full_set_is_exact(request, family, policy, seed):
    A = request.getfixturevalue(family)
    B = gc.encode_nullspace_hadamard(A, A.n // A.k, v1_policy=policy, seed=seed)
    assert gc.decode(B, gc.NonStragglerSet.full(A.n)).err <= 1e-9 * B.m * B.k


@_PROPERTY_SETTINGS
@given(encoded_sets())
def test_property_certificate_never_clears_a_deficient_set(request, case):
    family, scheme, seed, data = case
    B = _encode(request.getfixturevalue(family), scheme, seed)
    members = _draw_members(data, B.n, min_size=1)
    if certified_cholesky(_survivor_gram(B, members)) is not None:
        assert rank_of(B.mat[:, members]) == len(members)


@_PROPERTY_SETTINGS
@given(st.integers(2, 12), st.integers(0, 2**16), st.floats(-14.0, 0.0))
def test_property_certificate_rejects_numerically_singular_columns(cols, seed, log_sigma):
    # columns with singular values spanning [10^log_sigma, 1]: certified only
    # when every one survives the rank rule
    rng = np.random.default_rng(seed)
    q_left, _ = np.linalg.qr(rng.standard_normal((cols + 3, cols)))
    q_right, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    sigma = np.logspace(0.0, log_sigma, cols)
    mat = (q_left * sigma) @ q_right
    if certified_cholesky(mat.T @ mat) is not None:
        assert rank_of(mat) == cols
        assert np.linalg.cond(mat) <= 1e4 * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# runtime checks survive python -O


def test_residual_consistency_check_raises(fano, monkeypatch):
    # a bogus "certified" factor makes the Gram-path error disagree with the
    # directly computed residual
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    workers = gc.NonStragglerSet(n=7, members=(0, 2, 5))
    monkeypatch.setattr(decoding, "certified_cholesky", lambda g: (np.eye(len(g)), np.eye(len(g))))
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode(B, workers)


def test_operator_norm_check_raises(fano, monkeypatch):
    # claiming zero error on a straggling set breaks gap^2 <= ||Z||^2 err
    rng = np.random.default_rng(12)
    Z = gc.split_gradients([rng.standard_normal(6) for _ in range(7)], 2)
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=3)
    workers = gc.NonStragglerSet(n=7, members=(0, 1, 4))
    true = gc.decode(B, workers)
    assert true.err > 0.1
    monkeypatch.setattr(
        decoding, "decode", lambda *a: gc.DecodeResult(coeffs=true.coeffs, err=0.0)
    )
    with pytest.raises(NumericalError, match="operator-norm"):
        gc.reconstruct(Z, B, workers)
