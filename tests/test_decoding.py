import collections
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gradcoding as gc
from gradcoding import decoding
from gradcoding.errors import NumericalError, ParameterError, ShapeError
from gradcoding.linalg import certify_gram, project, rank_of


def test_target_columns_indicate_blocks():
    F = gc.build_target(3, 2)
    assert F.shape == (6, 2)
    assert np.array_equal(F[:, 0], [1, 1, 1, 0, 0, 0])
    assert np.array_equal(F[:, 1], [0, 0, 0, 1, 1, 1])
    assert np.array_equal(F.T @ F, 3 * np.eye(2))


def test_target_is_built_once_and_read_only():
    F = gc.build_target(4, 3)
    assert gc.build_target(4, 3) is F
    assert not F.flags.writeable
    with pytest.raises(ValueError):
        F[0, 0] = 2.0


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


def test_nonstraggler_set_takes_integer_arrays():
    w = gc.NonStragglerSet(n=6, members=np.array([5, 1, 3], dtype=np.int32))
    assert w.members == (1, 3, 5)
    assert all(type(i) is int for i in w.members)
    assert gc.NonStragglerSet(n=6, members=np.array([], dtype=np.intp)).members == ()
    assert gc.NonStragglerSet(n=6, members=(np.int64(2), 0)).members == (0, 2)


@pytest.mark.parametrize(
    "members",
    [
        (1.5, 3.9),
        np.array([0.7, 2.2]),
        (1.0, 2.0),
        (True,),
        (True, 2),
        np.array([True, False]),
        (np.bool_(True), 3),
        ("1", "2"),
        True,
        np.array([[0, 1]]),
    ],
    ids=[
        "fractional-tuple",
        "fractional-array",
        "float-tuple",
        "bool",
        "bool-with-int",
        "bool-array",
        "numpy-bool",
        "strings",
        "scalar",
        "2-d",
    ],
)
def test_nonstraggler_set_refuses_non_integer_members(members):
    with pytest.raises(ParameterError):
        gc.NonStragglerSet(n=5, members=members)


def _members_checked_as_before(n, raw):
    """NonStragglerSet's checks as they ran on np.sort and numpy
    comparisons: the stored members, or the ParameterError's message."""
    mem = np.asarray(raw)
    if mem.ndim != 1:
        return f"members must be a flat sequence, got shape {mem.shape}"
    if mem.size and (
        mem.dtype.kind not in "iu"
        or (not isinstance(raw, np.ndarray) and any(type(x) in (bool, np.bool_) for x in raw))
    ):
        return f"member indices must be integers, got {raw!r}"
    mem = np.sort(mem)
    if mem.size and not (mem[0] >= 0 and mem[-1] < n):
        return "member index out of range"
    if np.any(mem[1:] == mem[:-1]):
        return "duplicate member index"
    return tuple(mem.tolist())


_MEMBER_FORMS = {
    "tuple": tuple,
    "list": list,
    "numpy-ints": lambda v: [np.int64(x) for x in v],
    "int8": lambda v: np.array(v, dtype=np.int8),
    "int32": lambda v: np.array(v, dtype=np.int32),
    "intp": lambda v: np.array(v, dtype=np.intp),
    "uint8": lambda v: np.array([abs(x) for x in v], dtype=np.uint8),
    "uint64": lambda v: np.array([abs(x) for x in v], dtype=np.uint64),
    "float-array": lambda v: np.array(v, dtype=float),
    "float-list": lambda v: [float(x) for x in v],
    "bool-array": lambda v: np.array(v, dtype=bool),
    "bool-in-list": lambda v: [*v, True],
    "2-d": lambda v: np.array(v, dtype=np.intp).reshape(1, -1),
    "0-d": lambda v: np.array(v[0] if v else 0, dtype=np.intp),
    "reversed-view": lambda v: np.array(v, dtype=np.int64)[::-1],
}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 12),
    st.lists(st.integers(-3, 15), max_size=10),
    st.sampled_from(sorted(_MEMBER_FORMS)),
)
def test_property_nonstraggler_set_checks_every_input_as_before(n, values, form):
    # the members are sorted as a list of ints rather than by np.sort; every
    # input is still accepted, refused and stored as before, with the same
    # message
    raw = _MEMBER_FORMS[form](values)
    expected = _members_checked_as_before(n, raw)
    try:
        got = gc.NonStragglerSet(n=n, members=raw).members
    except ParameterError as exc:
        got = str(exc)
    assert got == expected
    if isinstance(got, tuple):
        assert all(type(i) is int for i in got)


def test_empty_set_decodes_to_total_mass(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    res = gc.decode(B, gc.NonStragglerSet(n=7, members=()))
    assert res.err == 14.0
    assert np.all(res.coeffs == 0.0)


def test_full_invertible_set_decodes_exactly(coset27):
    B = gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.1), seed=0)
    res = gc.decode(B, gc.NonStragglerSet.full(54))
    assert res.err <= 1e-8
    F = gc.build_target(27, 2)
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
    b = gc.decode(dataclasses.replace(B, mat=flipped), workers).err
    assert abs(a - b) <= 1e-8


def test_residual_orthogonal_to_survivor_columns(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.1), seed=5)
    workers = gc.NonStragglerSet(n=7, members=(1, 2, 3, 6))
    res = gc.decode(B, workers)
    F = gc.build_target(7, 2)
    resid = B.mat @ res.coeffs - F
    sub = B.mat[:, list(workers.members)]
    assert np.max(np.abs(sub.T @ resid)) <= 1e-9


def test_error_matches_direct_residual(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=6)
    workers = gc.NonStragglerSet(n=7, members=(0, 3, 4))
    res = gc.decode(B, workers)
    F = gc.build_target(7, 2)
    direct = float(np.sum((B.mat @ res.coeffs - F) ** 2))
    assert res.err == pytest.approx(direct, abs=1e-9)


def test_decode_shape_errors(fano):
    B = gc.encode_baseline(fano, 2)
    with pytest.raises(ShapeError):  # 13 rows are not m*k = 14
        gc.decode(dataclasses.replace(B, mat=B.mat[:13]), gc.NonStragglerSet.full(7))
    with pytest.raises(ShapeError):
        gc.decode(B, gc.NonStragglerSet.full(5))


def test_split_arranges_blocks_and_sums():
    rng = np.random.default_rng(7)
    partials = rng.standard_normal((5, 7))
    Z = gc.split_gradients(partials, 2)
    assert Z.shape == (4, 10)  # ceil(7/2) = 4 rows, m*k columns
    padded = np.zeros((5, 8))
    padded[:, :7] = partials
    for u in range(2):
        for i in range(5):
            assert np.array_equal(Z[:, u * 5 + i], padded[i, u * 4 : (u + 1) * 4])
    F = gc.build_target(5, 2)
    total = np.ravel(Z @ F, order="F")[:7]
    assert np.allclose(total, partials.sum(axis=0), atol=1e-12)


def test_split_column_layout():
    g = [np.arange(6.0) + 10 * i for i in range(3)]
    Z = gc.split_gradients(g, 2)
    # column u*k + i holds block u of subset i
    assert np.array_equal(Z[:, 1], [10.0, 11.0, 12.0])
    assert np.array_equal(Z[:, 3 + 1], [13.0, 14.0, 15.0])
    assert np.array_equal(gc.split_gradients(np.array(g), 2), Z)


def test_split_validation():
    with pytest.raises(ParameterError):
        gc.split_gradients([], 2)
    with pytest.raises(ParameterError):
        gc.split_gradients([np.zeros(3)], 0)
    with pytest.raises(ShapeError):
        gc.split_gradients([np.zeros(3), np.zeros(4)], 2)
    with pytest.raises(ShapeError):
        gc.split_gradients(np.zeros((2, 3, 4)), 2)


def test_reconstruct_gap_bounded_by_decode_error(fano):
    rng = np.random.default_rng(8)
    partials = [rng.standard_normal(11) for _ in range(7)]
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=9)
    workers = gc.NonStragglerSet(n=7, members=(0, 2, 3, 5))
    approx, gap = gc.reconstruct(partials, B, workers)
    assert approx.shape == (11,)
    # the gap is the returned gradient's distance to the sum, padding left out
    assert abs(np.linalg.norm(approx - np.sum(partials, axis=0)) - gap) <= 1e-12
    err = gc.decode(B, workers).err
    znorm = np.linalg.norm(gc.split_gradients(partials, 2), 2)
    assert gap * gap <= znorm * znorm * err * (1 + 1e-8) + 1e-8


def test_reconstruct_exact_with_full_recovery(bireg40):
    rng = np.random.default_rng(10)
    partials = rng.standard_normal((20, 9))
    B = gc.encode_nullspace_hadamard(bireg40, 2, seed=0)
    approx, gap = gc.reconstruct(partials, B, gc.NonStragglerSet.full(40))
    assert gap <= 1e-8
    assert np.allclose(approx, partials.sum(axis=0), atol=1e-8)


def test_reconstruct_rejects_mismatched_shapes(fano, coset_small):
    B = gc.encode_baseline(coset_small, 2)
    with pytest.raises(ShapeError):
        gc.reconstruct([np.zeros(4)] * 7, B, gc.NonStragglerSet.full(6))


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
    F = gc.build_target(B.k, B.m)
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
        certified += certify_gram(_survivor_gram(B, members))
    # the fast path runs wherever the survivor columns are well conditioned
    assert certified > 0


def test_gram_decode_matches_svd_projection_near_the_threshold(coset27):
    # Bernoulli(0.25) survivors of the coset design (k = 27, delta = 5) with
    # the epsilon = 0.1 diagonal: certified Grams with cond_2 from 1e6 up to
    # the 1e8 threshold still decode within 1e-9 * mk of the SVD projection
    F = gc.build_target(27, 2)
    mk = 54
    near_threshold = 0
    for seed in (0, 2):
        B = gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.1), seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            workers = gc.sample_straggler_set(gc.Bernoulli(0.25), B.n, rng)
            members = list(workers.members)
            got = gc.decode(B, workers)
            ref_coeffs, ref_err = project(B.mat[:, members], F)
            assert abs(got.err - ref_err) <= 1e-9 * mk
            resid = B.mat[:, members] @ got.coeffs[members] - F
            assert np.allclose(resid, B.mat[:, members] @ ref_coeffs - F, rtol=0.0, atol=1e-8)
            gram = _survivor_gram(B, members)
            near_threshold += certify_gram(gram) and 1e6 <= np.linalg.cond(gram) <= 1e8
    assert near_threshold >= 10


def test_rank_deficient_baseline_is_never_certified(bireg40):
    # [A; A] has rank at most k = 20, so every set of more than 20 workers
    # is rank-deficient and must go through the SVD projection
    B = gc.encode_baseline(bireg40, 2)
    rng = np.random.default_rng(1)
    for s in range(0, 17, 2):
        for _ in range(10):
            members = list(np.sort(rng.choice(40, size=40 - s, replace=False)))
            assert not certify_gram(_survivor_gram(B, members))
            assert rank_of(B.mat[:, members]) < len(members)


# ---------------------------------------------------------------------------
# the stacked-copies baseline, decoded on its k-row block


def _check_against_projection(B, members):
    """decode(B, S) against project(B_S, F): error, fitted combination and
    the minimum-norm coefficients themselves."""
    F = gc.build_target(B.k, B.m)
    mk = B.m * B.k
    got = gc.decode(B, gc.NonStragglerSet(n=B.n, members=members))
    ref_coeffs, ref_err = project(B.mat[:, members], F)
    assert abs(got.err - ref_err) <= 1e-9 * mk
    assert np.allclose(B.mat @ got.coeffs, B.mat[:, members] @ ref_coeffs, rtol=0.0, atol=1e-9)
    scale = max(1.0, float(np.abs(ref_coeffs).max(initial=0.0)))
    assert np.allclose(got.coeffs[members], ref_coeffs, rtol=0.0, atol=1e-9 * scale)


def test_stacked_baseline_decode_matches_svd_projection(fano, coset27, bireg40, monkeypatch):
    # every stacked-copies set is decoded on its block A_S, merged where
    # survivors share a column of A: by the column Gram certificate (at
    # most k columns), the row Gram certificate or the SVD of A_S, each on
    # some of these sets. The column certificate is never tried on more
    # than k columns, whose B_S has rank <= k < |S|
    paths, certs = [], []
    stacked, proj, cert = decoding._decode_stacked, decoding.project, decoding.certify_gram

    def spy_stacked(a_s, m):
        _, k, cols = a_s.shape
        paths.append(None)
        certs.clear()
        solved = stacked(a_s, m)
        if paths[-1] is None:
            paths[-1] = "column" if cols <= k and certs[0] == (cols, True) else "row"
        if cols > k:
            assert cols not in [size for size, _ in certs]
        return solved

    def spy_project(mat, rhs):
        if np.ndim(rhs) == 1:
            paths[-1] = "svd"
        return proj(mat, rhs)

    def spy_cert(gram):
        ok = cert(gram)
        certs.append((gram.shape[-1], ok))
        return ok

    monkeypatch.setattr(decoding, "_decode_stacked", spy_stacked)
    monkeypatch.setattr(decoding, "project", spy_project)
    monkeypatch.setattr(decoding, "certify_gram", spy_cert)
    for A in (fano, coset27, bireg40):
        for m in (2, 3):
            B = gc.encode_baseline(A, m)
            rng = np.random.default_rng(m)
            for size in list(range(1, A.n + 1)) * 2:
                members = list(np.sort(rng.choice(A.n, size=size, replace=False)))
                before = len(paths)
                _check_against_projection(B, members)
                assert len(paths) == before + 1
    assert {"column", "row", "svd"} <= set(paths)


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_baseline_set_of_at_most_k_never_reaches_the_svd(request, family, monkeypatch):
    # a set of at most k survivors whose Gram G_S = m A_S^T A_S the Gram
    # solve would certify is cleared by the column Gram A_S^T A_S of its
    # block instead, and never reaches the SVD
    A = request.getfixturevalue(family)
    routes = _spy_routes(monkeypatch)
    rng = np.random.default_rng(23)
    cleared = 0
    for m in (2, 3):
        B = gc.encode_baseline(A, m)
        for size in range(1, A.k + 1):
            for _ in range(3):
                members = list(np.sort(rng.choice(A.n, size=size, replace=False)))
                if not certify_gram(_survivor_gram(B, members)):
                    continue
                routes.clear()
                _check_against_projection(B, members)
                assert routes == []
                cleared += 1
    assert cleared >= A.k


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
    if certify_gram(_survivor_gram(B, members)):
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
    if certify_gram(mat.T @ mat):
        assert rank_of(mat) == cols
        assert np.linalg.cond(mat) <= 1e4 * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# many sets of one encoding through the whole-Gram inverse


def _mixed_sets(n, rng):
    """Sets of mixed sizes, the empty and the full set among them, shuffled."""
    sizes = [0, n, n, n - 1] + list(np.linspace(1, n - 1, 9).astype(int)) * 2
    rng.shuffle(sizes)
    return [gc.NonStragglerSet(n=n, members=rng.choice(n, size=size, replace=False)) for size in sizes]


def _support(coeffs):
    return np.any(coeffs != 0.0, axis=1)


def _check_sets_against_decode(B, sets):
    mk = B.m * B.k
    got = gc.decode_each([B] * len(sets), sets)
    assert len(got) == len(sets)
    for workers, res in zip(sets, got):
        ref = gc.decode(B, workers)
        assert abs(res.err - ref.err) <= 1e-9 * mk
        assert res.coeffs.shape == (B.n, B.m)
        assert np.array_equal(_support(res.coeffs), _support(ref.coeffs))
        assert np.allclose(B.mat @ res.coeffs, B.mat @ ref.coeffs, rtol=0.0, atol=1e-8)
    return got


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", ("fano", "bibd91", "coset27", "bireg40"))
def test_recurring_encoding_matches_decode(request, family, scheme):
    A = request.getfixturevalue(family)
    rng = np.random.default_rng(7)
    for seed in range(3):
        B = _encode(A, scheme, seed)
        _check_sets_against_decode(B, _mixed_sets(A.n, rng))


def test_recurring_encoding_covers_certified_and_uncertified_encodings(fano, bibd91, coset27, bireg40):
    # the cases above take both paths: the whole-Gram inverse and the route table
    for A in (fano, bibd91):
        for scheme in SCHEMES:
            assert _encode(A, scheme).gram_inverse is not None
    assert _encode(coset27, gc.NULLSPACE_HADAMARD).gram_inverse is not None
    assert _encode(coset27, gc.BASELINE).gram_inverse is None
    assert _encode(bireg40, gc.BASELINE).gram_inverse is None
    K, R = _encode(fano, gc.RANDOM_DIAGONAL).gram_inverse
    assert not K.flags.writeable and not R.flags.writeable


@pytest.mark.parametrize(
    "family,scheme,seed",
    [
        ("coset27", gc.RANDOM_DIAGONAL, 0),
        ("coset27", gc.RANDOM_DIAGONAL, 2),
        ("bireg40", gc.NULLSPACE_HADAMARD, 1),
        ("bireg40", gc.NULLSPACE_HADAMARD, 4),
    ],
)
def test_recurring_encoding_near_the_threshold(request, family, scheme, seed):
    # whole Grams with cond_2 between 1e6 and the 1e8 threshold: every set
    # still decodes within 1e-9 * mk of the SVD projection
    A = request.getfixturevalue(family)
    B = _encode(A, scheme, seed)
    G, _ = B.gram
    assert B.gram_inverse is not None
    assert 1e6 <= np.linalg.cond(G) <= 1e8
    F = gc.build_target(B.k, B.m)
    rng = np.random.default_rng(seed)
    sets = [gc.sample_straggler_set(gc.Bernoulli(0.25), B.n, rng) for _ in range(40)]
    for workers, res in zip(sets, _check_sets_against_decode(B, sets)):
        members = list(workers.members)
        ref_coeffs, ref_err = project(B.mat[:, members], F)
        assert abs(res.err - ref_err) <= 1e-9 * B.m * B.k
        assert np.allclose(B.mat @ res.coeffs, B.mat[:, members] @ ref_coeffs, rtol=0.0, atol=1e-8)


def test_recurring_encoding_keeps_order_across_sizes(bireg40):
    B = _encode(bireg40, gc.NULLSPACE_HADAMARD, 1)
    assert B.gram_inverse is not None
    full = gc.NonStragglerSet.full(40)
    empty = gc.NonStragglerSet(n=40, members=())
    sets = [full, gc.NonStragglerSet(n=40, members=range(5)), empty, full]
    sets += [gc.NonStragglerSet(n=40, members=range(i, 40)) for i in (3, 1, 3, 20)]
    got = _check_sets_against_decode(B, sets)
    assert got[2].err == 40.0 and not got[2].coeffs.any()
    assert got[0].err == got[3].err <= 1e-9 * 40
    # more survivors, no more error; one set twice, one error
    assert got[7].err >= got[4].err >= got[5].err - 1e-12
    assert got[4].err == got[6].err
    assert gc.decode_each([], []) == []
    # any iterables of encodings and sets are taken, in order
    again = gc.decode_each(itertools.repeat(B, len(sets)), iter(sets))
    assert [r.err for r in again] == [r.err for r in got]


def _spy_stacks(monkeypatch, name):
    """Record the survivor indices (g x |S|) of each stack decoding.<name>
    is handed, with whether it solved the stack (False: the stack went set
    by set through the route table)."""
    stacks = []
    stack = getattr(decoding, name)

    def spy(B_, idx, **kwargs):
        solved = stack(B_, idx, **kwargs)
        stacks.append((idx.copy(), solved is not None))
        return solved

    monkeypatch.setattr(decoding, name, spy)
    return stacks


def _block_certified(B, members):
    """Whether route 1 clears the stacked-copies set by a Gram certificate:
    the column Gram of A_S for |S| <= k, else its row Gram."""
    a_s = B.block(0)[:, list(members)]
    return certify_gram(a_s.T @ a_s if len(members) <= B.k else a_s @ a_s.T)


def test_recurring_baseline_without_a_certified_gram_decodes_in_capped_stacks(bireg40, monkeypatch):
    # the bi-regular baseline has rank k = 20 < n, so its whole Gram clears
    # no tier. Each size's sets are decoded in stacks of its k-row blocks,
    # none over STACK_ELEMENTS gathered entries; a stack of more than one set
    # solves in one go exactly when every member clears its block
    # certificate, and otherwise goes set by set through the route table, as
    # does the empty set. A stack of one set takes the route table's chain
    # itself. Every result is exactly decode's
    B = gc.encode_baseline(bireg40, 2)
    assert B.gram_tier is None and B.gram_inverse is None and B.column_classes is None
    routed, grouped = [], []
    route, group = decoding._route, decoding._decode_group

    def spy_route(B_, workers):
        routed.append(workers.members)
        return route(B_, workers)

    def spy_group(B_, inverse, members, size):
        grouped.append(len(members))
        return group(B_, inverse, members, size)

    monkeypatch.setattr(decoding, "_route", spy_route)
    monkeypatch.setattr(decoding, "_decode_group", spy_group)
    stacks = _spy_stacks(monkeypatch, "_stack_copies")
    rng = np.random.default_rng(3)
    sets = _mixed_sets(40, rng)
    for s in (4, 16):  # at s = 16 some of the 24-worker blocks fail the row Gram certificate
        sets += [gc.sample_straggler_set(gc.FixedCount(s), 40, rng) for _ in range(60)]
    got = gc.decode_each([B] * len(sets), sets)
    assert grouped == []
    for idx, solved in stacks:
        g, size = idx.shape
        assert g * max(B.k, size) * size <= decoding.STACK_ELEMENTS or g == 1
        assert solved == (g == 1 or all(_block_certified(B, members) for members in idx.tolist()))
    assert {True, False} <= {solved for _, solved in stacks}
    fell_back = [tuple(members) for idx, solved in stacks if not solved for members in idx.tolist()]
    assert sorted(routed) == sorted(fell_back + [()])
    for workers, res in zip(sets, got):
        ref = gc.decode(B, workers)
        assert res.err == ref.err and np.array_equal(res.coeffs, ref.coeffs)
    # a certified encoding that recurs never takes the route table
    routed.clear()
    gc.decode_each([_encode(bireg40, gc.NULLSPACE_HADAMARD, 1)] * len(sets), sets)
    assert routed == [] and sum(grouped) == len(sets)


def test_recurring_encoding_between_the_whole_gram_tiers_decodes_in_stacks(bireg40, monkeypatch):
    # a null-space encoding whose whole Gram has 1e8 < cond_2(G) < 1e12:
    # each stack whose survivor Grams all clear the 1e8 certificate is one
    # Gram solve, each set's result exactly decode's; any other stack is one
    # Householder QR, within 1e-9 * mk of the SVD projection, exactly
    # decode's for the members decode also solves by QR. No set reaches
    # the route table or the SVD
    B = gc.encode_nullspace_hadamard(bireg40, 2, v1_policy=gc.V1_GAUSSIAN, seed=18)
    G, _ = B.gram
    assert B.gram_tier == gc.QR_COND_MAX and B.gram_inverse is None
    assert 1e8 < np.linalg.cond(G) < 1e12
    routes = _spy_routes(monkeypatch)
    stacks = _spy_stacks(monkeypatch, "_solve_survivors")
    route = decoding._route
    monkeypatch.setattr(decoding, "_route", lambda B_, w: routes.append("route") or route(B_, w))
    rng = np.random.default_rng(8)
    sets = [gc.sample_straggler_set(gc.FixedCount(s), 40, rng) for s in (0, 1, 2, 6) for _ in range(25)]
    got = gc.decode_each([B] * len(sets), sets)
    assert "route" not in routes and "svd" not in routes
    by_members = {w.members: res for w, res in zip(sets, got)}
    cleared = {True: 0, False: 0}
    for idx, _ in list(stacks):  # decode below adds its own stacks of one
        g, size = idx.shape
        assert g * max(B.m * B.k, size) * size <= decoding.STACK_ELEMENTS
        grams = [_survivor_gram(B, members) for members in idx.tolist()]
        gram_solved = all(certify_gram(gram) for gram in grams)
        cleared[gram_solved] += 1
        for members, gram in zip(idx.tolist(), grams):
            workers = gc.NonStragglerSet(n=40, members=members)
            exact = gram_solved or not certify_gram(gram)
            _check_against_route_references(B, workers, by_members[tuple(members)], exact=exact)
    assert cleared[True] and cleared[False]


def test_rank_deficient_encoding_never_takes_a_stacked_tier(fano, bireg40, monkeypatch):
    # a whole Gram that clears neither tier, from a short encoding (mk = 20
    # rows for n = 40 workers) or from a repeated column: every set of the
    # recurring encoding goes through the route table, exactly as decode
    short = gc.encode_random_diagonal(bireg40, 1, gc.DiagonalLaw(0.1), seed=2)
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.1), seed=1)
    mat = B.mat.copy()
    mat[:, 4] = mat[:, 2]
    twin = dataclasses.replace(B, mat=mat)
    capped = []
    monkeypatch.setattr(decoding, "_decode_capped", lambda *args: capped.append(args))
    for enc in (short, twin):
        assert enc.gram_tier is None and not enc.stacked_copies
        rng = np.random.default_rng(enc.n)
        sets = [gc.sample_straggler_set(gc.FixedCount(s), enc.n, rng) for s in (0, 1, 3) for _ in range(6)]
        for workers, res in zip(sets, gc.decode_each([enc] * len(sets), sets)):
            _check_against_route_references(enc, workers, res)
    assert capped == []


def test_gram_tier_is_the_tightest_whole_gram_certificate(fano, bireg40):
    for B in (
        _encode(fano, gc.RANDOM_DIAGONAL),
        gc.encode_nullspace_hadamard(bireg40, 2, v1_policy=gc.V1_GAUSSIAN, seed=18),
        gc.encode_baseline(bireg40, 2),
    ):
        G, _ = B.gram
        tiers = [t for t in (gc.CERT_COND_MAX, gc.QR_COND_MAX) if certify_gram(G, t)]
        assert B.gram_tier == (tiers[0] if tiers else None)
        assert (B.gram_inverse is not None) == (B.gram_tier == gc.CERT_COND_MAX)
    assert _encode(fano, gc.RANDOM_DIAGONAL).gram_tier == gc.CERT_COND_MAX


def test_recurring_encoding_checks_shapes(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    with pytest.raises(ShapeError):
        gc.decode_each([B, B], [gc.NonStragglerSet.full(7), gc.NonStragglerSet.full(6)])


@_PROPERTY_SETTINGS
@given(encoded_sets())
def test_property_recurring_encoding_matches_projection(request, case):
    family, scheme, seed, data = case
    B = _encode(request.getfixturevalue(family), scheme, seed)
    F = gc.build_target(B.k, B.m)
    sets = [
        gc.NonStragglerSet(n=B.n, members=_draw_members(data, B.n))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    for workers, res in zip(sets, gc.decode_each([B] * len(sets), sets)):
        members = list(workers.members)
        ref_coeffs, ref_err = project(B.mat[:, members], F)
        assert abs(res.err - ref_err) <= 1e-9 * B.m * B.k
        assert np.allclose(B.mat @ res.coeffs, B.mat[:, members] @ ref_coeffs, rtol=0.0, atol=1e-8)
        assert not res.coeffs[np.setdiff1d(np.arange(B.n), members)].any()


# ---------------------------------------------------------------------------
# runtime checks survive python -O


def test_residual_consistency_check_raises(fano):
    # a cached Gram doubled behind the decode's back still certifies, so the
    # Gram path returns half the coefficients with an error that disagrees
    # with the directly computed residual
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    workers = gc.NonStragglerSet(n=7, members=(0, 2, 5))
    gram, image = B.gram
    B.__dict__["gram"] = (2.0 * gram, image)
    assert certify_gram(_survivor_gram(B, list(workers.members)))
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode(B, workers)


def test_recurring_encoding_residual_check_raises(fano):
    # the cached inverse of the doubled Gram, behind the decode's back: the
    # coefficients it yields are not the survivors' optimum, and their
    # error disagrees with the directly computed residual. Sets of 7 and 5
    # survivors go through the inverse; one of 3 solves its own Gram, and
    # a doubled cached Gram trips it the same way. Each set is handed in
    # twice, so that the encoding recurs and takes the whole-Gram inverse
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    K, R = B.gram_inverse
    B.__dict__["gram_inverse"] = (K / 2.0, R / 2.0)
    for members in (tuple(range(7)), (0, 1, 3, 4, 6)):
        with pytest.raises(NumericalError, match="direct residual"):
            gc.decode_each([B, B], [gc.NonStragglerSet(n=7, members=members)] * 2)
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    gram, image = B.gram
    B.__dict__["gram"] = (2.0 * gram, image)
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode_each([B, B], [gc.NonStragglerSet(n=7, members=(0, 2, 5))] * 2)


def test_operator_norm_check_raises(fano, monkeypatch):
    # claiming zero error on a straggling set breaks gap^2 <= ||Z||^2 err
    rng = np.random.default_rng(12)
    partials = rng.standard_normal((7, 6))
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=3)
    workers = gc.NonStragglerSet(n=7, members=(0, 1, 4))
    true = gc.decode(B, workers)
    assert true.err > 0.1
    # reconstruct decodes through decode_each, one result per set
    monkeypatch.setattr(
        decoding,
        "decode_each",
        lambda encodings, sets: [gc.DecodeResult(coeffs=true.coeffs, err=0.0)],
    )
    with pytest.raises(NumericalError, match="operator-norm"):
        gc.reconstruct(partials, B, workers)


@_PROPERTY_SETTINGS
@given(st.sampled_from(FAMILIES), st.integers(1, 3), st.data())
def test_property_stacked_baseline_decode_matches_svd_projection(request, family, m, data):
    B = gc.encode_baseline(request.getfixturevalue(family), m)
    _check_against_projection(B, _draw_members(data, B.n, min_size=1))


def test_stacked_copies_needs_equal_blocks(fano):
    B = gc.encode_baseline(fano, 2)
    assert B.stacked_copies
    mat = B.mat.copy()
    mat[7:] *= 2.0
    altered = gc.EncodingMatrix(mat=mat, m=2, scheme=B.scheme, parent=fano, seed=None, randomness=None)
    assert not altered.stacked_copies
    assert not gc.encode_random_diagonal(fano, 1, gc.DiagonalLaw(0.0), seed=0).stacked_copies
    # an altered baseline takes the general path and still decodes
    _check_against_projection(altered, [0, 2, 3, 5])


@pytest.mark.parametrize(
    "Z",
    [
        np.random.default_rng(0).standard_normal((15, 54)),
        np.random.default_rng(1).standard_normal((40, 6)),
        np.outer(np.arange(1.0, 8.0), np.linspace(-1.0, 2.0, 20)),
        np.zeros((5, 14)),
    ],
    ids=["random", "tall", "rank-one", "zero"],
)
def test_spectral_norm_from_the_gram_matches_the_svd(Z):
    expected = float(np.linalg.norm(Z, 2)) ** 2
    assert abs(decoding._spectral_norm_sq(Z) - expected) <= 1e-12 * expected


# ---------------------------------------------------------------------------
# one survivor set per encoding, the QR tier and merged stacked copies


def _check_against_route_references(B, workers, res, exact=True):
    """res against decode(B, workers), exactly, or when not exact within
    1e-9 * mk with the same coefficient support; and against the SVD
    projection within 1e-9 * mk."""
    ref = gc.decode(B, workers)
    if exact:
        assert res.err == ref.err and np.array_equal(res.coeffs, ref.coeffs)
    else:
        assert abs(res.err - ref.err) <= 1e-9 * B.m * B.k
        assert np.array_equal(_support(res.coeffs), _support(ref.coeffs))
    members = list(workers.members)
    F = gc.build_target(B.k, B.m)
    ref_coeffs, ref_err = project(B.mat[:, members], F)
    assert abs(res.err - ref_err) <= 1e-9 * B.m * B.k
    assert np.allclose(B.mat @ res.coeffs, B.mat[:, members] @ ref_coeffs, rtol=0.0, atol=1e-8)
    assert not res.coeffs[np.setdiff1d(np.arange(B.n), members)].any()


def _exact_positions(encodings):
    """Whether decode_each's result at each position is exactly decode's:
    every set but those of a recurring encoding solved through its
    whole-Gram inverse or, at the 1e12 tier, perhaps by a stacked QR."""
    counts = collections.Counter(map(id, encodings))
    return [
        counts[id(B)] == 1 or B.gram_tier is None or B.stacked_copies and B.gram_inverse is None
        for B in encodings
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", FAMILIES)
def test_decode_each_matches_decode_and_projection(request, family, scheme):
    # results are exactly decode's for a single set and for an encoding
    # whose Gram is not certified, and within 1e-9 * mk of it for a
    # recurring certified encoding
    A = request.getfixturevalue(family)
    rng = np.random.default_rng(11)
    sets = _mixed_sets(A.n, rng)  # the empty and the full set among them
    assert {len(w.members) for w in sets} >= {0, A.n}
    # three encodings, each recurring, in an order that interleaves them,
    # then three that each carry one set
    pool = [_encode(A, scheme, seed) for seed in range(3)]
    encodings = [pool[j % 3] for j in range(len(sets) - 3)]
    encodings += [_encode(A, scheme, seed) for seed in range(3, 6)]
    got = gc.decode_each(encodings, sets)
    assert len(got) == len(sets)
    exact = _exact_positions(encodings)
    assert exact[-3:] == [True] * 3
    for B, workers, res, bit_equal in zip(encodings, sets, got, exact):
        _check_against_route_references(B, workers, res, exact=bit_equal)


def test_decode_each_mixed_call_keeps_order(fano, bibd91, bireg40, coset27):
    # a recurring certified encoding, a recurring uncertified one and
    # single encodings of other designs, interleaved in one call
    certified = _encode(fano, gc.RANDOM_DIAGONAL, 1)
    uncertified = gc.encode_baseline(bireg40, 2)
    assert certified.gram_inverse is not None and uncertified.gram_inverse is None
    singles = [_encode(bibd91, gc.NULLSPACE_HADAMARD), _encode(coset27, gc.RANDOM_DIAGONAL, 2)]
    rng = np.random.default_rng(17)
    fano_sets, bireg_sets = _mixed_sets(7, rng)[:6], _mixed_sets(40, rng)[:6]
    encodings, sets = [], []
    for j in range(6):
        encodings += [certified, uncertified]
        sets += [fano_sets[j], bireg_sets[j]]
        if j < len(singles):
            encodings.append(singles[j])
            sets.append(gc.sample_straggler_set(gc.Bernoulli(0.25), singles[j].n, rng))
    got = gc.decode_each(encodings, sets)
    assert len(got) == len(sets) == 14
    for B, workers, res, bit_equal in zip(encodings, sets, got, _exact_positions(encodings)):
        assert bit_equal == (B is not certified)
        assert res.coeffs.shape == (B.n, B.m)
        _check_against_route_references(B, workers, res, exact=bit_equal)


def test_decode_each_checks_its_inputs(fano):
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    assert gc.decode_each([], []) == []
    with pytest.raises(ShapeError):
        gc.decode_each([B, B], [gc.NonStragglerSet.full(7)])
    with pytest.raises(ShapeError):
        gc.decode_each([B], [gc.NonStragglerSet.full(6)])


def test_decode_each_residual_check_raises(fano):
    # a doubled cached Gram behind the decode's back, on the second of
    # three sets: the batched direct residual catches that one
    good = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    bad = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    gram, image = bad.gram
    bad.__dict__["gram"] = (2.0 * gram, image)
    workers = gc.NonStragglerSet(n=7, members=(0, 2, 5))
    gc.decode_each([good, good], [workers, workers])
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode_each([good, bad, good], [workers] * 3)


def _spy_routes(monkeypatch):
    """Record the route each decode takes past the Gram solve: 'qr' or
    'svd' for the general routes."""
    routes = []
    qr, proj = decoding._solve_qr, decoding.project

    def spy_qr(b_s, target):
        routes.append("qr")
        return qr(b_s, target)

    def spy_project(mat, rhs):
        routes.append("svd")
        return proj(mat, rhs)

    monkeypatch.setattr(decoding, "_solve_qr", spy_qr)
    monkeypatch.setattr(decoding, "project", spy_project)
    return routes


def test_qr_tier_matches_projection_between_the_certificates(coset27, monkeypatch):
    # Bernoulli(0.25) survivors of the coset design with the epsilon = 0.1
    # diagonal: the sets that the 1e8 certificate refuses and the 1e12 one
    # clears are solved by QR, within 1e-9 * mk of the SVD projection. On
    # these two draws 46 of the 80 sets fall between the certificates, 31
    # of them with cond_2(G_S) above 1e8 (the certificate bounds the
    # larger tr(G_S) / lambda_min)
    routes = _spy_routes(monkeypatch)
    F = gc.build_target(27, 2)
    between = 0
    for seed in (1, 5):
        B = gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.1), seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            workers = gc.sample_straggler_set(gc.Bernoulli(0.25), B.n, rng)
            members = list(workers.members)
            gram = _survivor_gram(B, members)
            routes.clear()
            got = gc.decode(B, workers)
            tier = certify_gram(gram), certify_gram(gram, gc.QR_COND_MAX)
            assert routes == ([] if tier[0] else ["qr"] if tier[1] else ["svd"])
            if routes != ["qr"]:
                continue
            cond = np.linalg.cond(gram)
            assert cond < 1e12
            between += cond > 1e8
            ref_coeffs, ref_err = project(B.mat[:, members], F)
            assert abs(got.err - ref_err) <= 1e-9 * 54
            fitted = B.mat[:, members] @ ref_coeffs
            assert np.allclose(B.mat @ got.coeffs, fitted, rtol=0.0, atol=1e-9)
            scale = float(np.abs(ref_coeffs).max())
            assert np.allclose(got.coeffs[members], ref_coeffs, rtol=0.0, atol=1e-9 * scale)
    assert between >= 20


def test_rank_deficient_set_never_takes_the_qr_tier(fano, monkeypatch):
    # a random-diagonal encoding with one column repeated: every set that
    # holds both copies is rank-deficient and goes to the SVD
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.1), seed=1)
    mat = B.mat.copy()
    mat[:, 4] = mat[:, 2]
    twin = dataclasses.replace(B, mat=mat)
    routes = _spy_routes(monkeypatch)
    rng = np.random.default_rng(4)
    for size in range(2, 8):
        for _ in range(5):
            rest = rng.choice([0, 1, 3, 5, 6], size=size - 2, replace=False)
            workers = gc.NonStragglerSet(n=7, members=[2, 4, *rest])
            assert rank_of(mat[:, list(workers.members)]) < size
            assert not certify_gram(_survivor_gram(twin, list(workers.members)), gc.QR_COND_MAX)
            routes.clear()
            _check_against_route_references(twin, workers, gc.decode(twin, workers))
            assert "qr" not in routes and "svd" in routes


@_PROPERTY_SETTINGS
@given(st.integers(2, 12), st.integers(0, 2**16), st.floats(-14.0, 0.0))
def test_property_qr_certificate_rejects_numerically_singular_columns(cols, seed, log_sigma):
    # the 1e12 certificate clears only columns with cond_2 < 1e6, full rank
    # under the rank rule
    rng = np.random.default_rng(seed)
    q_left, _ = np.linalg.qr(rng.standard_normal((cols + 3, cols)))
    q_right, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    sigma = np.logspace(0.0, log_sigma, cols)
    mat = (q_left * sigma) @ q_right
    if certify_gram(mat.T @ mat, gc.QR_COND_MAX):
        assert rank_of(mat) == cols
        assert np.linalg.cond(mat) <= 1e6 * (1.0 + 1e-6)


@pytest.mark.parametrize("k,delta", [(27, 5), (25, 4), (7, 3)])
@pytest.mark.parametrize("copies", [2, 3])
def test_merged_stacked_baseline_matches_svd_projection(k, delta, copies, monkeypatch):
    # the coset design repeats every column `copies` times: sets holding
    # two equal columns are merged and decode like the SVD projection
    A = gc.coset_bipartite(gc.CosetParams(k=k, m=copies, delta=delta, generating_set=tuple(range(delta))))
    stacked, merged = decoding._decode_stacked, []
    monkeypatch.setattr(
        decoding, "_decode_stacked", lambda a_s, m: merged.append(a_s.shape[2]) or stacked(a_s, m)
    )
    for m in (2, 3):
        B = gc.encode_baseline(A, m)
        labels, firsts = B.column_classes
        assert firsts.size == k and np.array_equal(A.mat[:, firsts[labels]], A.mat)
        rng = np.random.default_rng(k + m)
        for size in range(1, A.n + 1):
            members = list(np.sort(rng.choice(A.n, size=size, replace=False)))
            merged.clear()
            _check_against_projection(B, members)
            classes = np.unique(labels[members]).size
            if classes < size:
                assert merged == [classes]


def test_column_classes_only_where_copies_repeat_a_column(fano, bireg40, coset27):
    assert gc.encode_baseline(fano, 2).column_classes is None
    assert gc.encode_baseline(bireg40, 2).column_classes is None
    assert gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.0), seed=0).column_classes is None
    labels, firsts = gc.encode_baseline(coset27, 2).column_classes
    assert np.array_equal(labels, np.tile(labels[:27], 2)) and firsts.size == 27
    assert not labels.flags.writeable


@_PROPERTY_SETTINGS
@given(
    st.sampled_from(FAMILIES + ("coset25",)),
    st.sampled_from(SCHEMES),
    st.lists(st.integers(0, 3), min_size=1, max_size=5),
    st.data(),
)
def test_property_decode_each_matches_decode_and_projection(request, family, scheme, picks, data):
    if family == "coset25":
        A = gc.coset_bipartite(gc.CosetParams(k=25, m=2, delta=4, generating_set=(0, 1, 2, 3)))
    else:
        A = request.getfixturevalue(family)
    # a seed drawn twice names one encoding object, recurring in the list
    pool = {seed: _encode(A, scheme, seed) for seed in set(picks)}
    encodings = [pool[seed] for seed in picks]
    sets = [gc.NonStragglerSet(n=A.n, members=_draw_members(data, A.n)) for _ in picks]
    got = gc.decode_each(encodings, sets)
    for B, workers, res, exact in zip(encodings, sets, got, _exact_positions(encodings)):
        _check_against_route_references(B, workers, res, exact=exact)


def test_reconstruct_each_matches_reconstruct(coset27):
    rng = np.random.default_rng(5)
    partials = rng.standard_normal((4, 27, 11))
    encodings = [gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.1), seed=s) for s in range(3)]
    encodings.append(encodings[1])
    sets = [gc.sample_straggler_set(gc.Bernoulli(0.25), 54, rng) for _ in range(4)]
    approx, gaps = gc.reconstruct_each(partials, encodings, sets)
    assert approx.shape == (4, 11) and gaps.shape == (4,)
    for j in range(4):
        one, gap = gc.reconstruct(partials[j], encodings[j], sets[j])
        assert np.allclose(approx[j], one, rtol=1e-12, atol=1e-14)
        assert abs(gaps[j] - gap) <= 1e-12 * max(1.0, gap)
    empty_approx, empty_gaps = gc.reconstruct_each(np.zeros((0, 27, 11)), [], [])
    assert empty_approx.shape == (0, 11) and empty_gaps.shape == (0,)
    with pytest.raises(ShapeError):
        gc.reconstruct_each(partials[:3], encodings, sets)
    with pytest.raises(ShapeError):
        gc.reconstruct_each(partials, [encodings[0], gc.encode_baseline(coset27, 3)] * 2, sets)
