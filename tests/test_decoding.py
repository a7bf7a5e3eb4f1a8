import collections
import dataclasses
import functools
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gradcoding as gc
from gradcoding import decoding, experiments
from gradcoding.errors import NonFiniteError, NumericalError, ParameterError, ShapeError, SingularMatrixError
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


@pytest.mark.parametrize(
    "n",
    [-1, 2.5, np.float64(4.0), True, np.bool_(True), "3", None],
    ids=["negative", "fractional", "numpy-float", "bool", "numpy-bool", "string", "none"],
)
def test_nonstraggler_set_refuses_a_worker_count_that_is_not_a_count(n):
    with pytest.raises(ParameterError):
        gc.NonStragglerSet(n=n, members=())


def test_nonstraggler_set_stores_a_numpy_worker_count_as_int():
    w = gc.NonStragglerSet(n=np.int64(5), members=(1,))
    assert type(w.n) is int
    assert w == gc.NonStragglerSet(n=5, members=(1,))
    assert hash(w) == hash(gc.NonStragglerSet(n=5, members=(1,)))
    assert type(gc.NonStragglerSet(n=np.uint8(0), members=()).n) is int


def test_nonstraggler_set_index_is_built_once_read_only():
    w = gc.NonStragglerSet(n=6, members=(4, 1))
    assert "index" not in vars(w)  # built on first use
    assert w.index is w.index
    assert w.index.dtype == np.intp
    assert w.index.tolist() == [1, 4]
    with pytest.raises(ValueError):
        w.index[0] = 5
    assert w.members == (1, 4)


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


def test_stacked_baseline_decode_matches_svd_projection(paley13, coset27, bireg40, monkeypatch):
    # every stacked-copies set is decoded on its block A_S: by the column
    # Gram certificate (at most k columns) or the row Gram certificate
    # (more than k), and a set that clears neither by the SVD of B_S
    # itself, each on some of these sets; on the coset design, whose classes have an inverse, a set the
    # class-inverse certificate clears goes to the straggler side instead.
    # The column certificate is never tried on more than k columns, whose
    # B_S has rank <= k < |S|
    paths, certs = [], []
    stacked, proj, cert = decoding._decode_stacked, decoding.project, decoding.certify_each
    class_copies = decoding._class_copies

    def spy_class(A_, m, sets, coeffs, errs):
        ok = class_copies(A_, m, sets, coeffs, errs)
        paths.extend("class" for _ in np.flatnonzero(ok))
        return ok

    def spy_stacked(a_s, m):
        _, k, cols = a_s.shape
        certs.clear()
        x, err, ok = stacked(a_s, m)
        assert certs == [(cols if cols <= k else k, bool(ok[0]))]
        paths.append(("column" if cols <= k else "row") if ok[0] else None)
        return x, err, ok

    def spy_project(mat, rhs):
        assert paths[-1] is None and mat.shape == (B.m * B.k, len(members))
        paths[-1] = "svd"
        return proj(mat, rhs)

    def spy_cert(grams, *args):
        ok = cert(grams, *args)
        certs.append((grams.shape[-1], bool(ok.all())))
        return ok

    monkeypatch.setattr(decoding, "_decode_stacked", spy_stacked)
    monkeypatch.setattr(decoding, "project", spy_project)
    monkeypatch.setattr(decoding, "certify_each", spy_cert)
    monkeypatch.setattr(decoding, "_class_copies", spy_class)
    for A in (paley13, coset27, bireg40):
        for m in (2, 3):
            B = gc.encode_baseline(A, m)
            rng = np.random.default_rng(m)
            for size in list(range(1, A.n + 1)) * 2:
                members = list(np.sort(rng.choice(A.n, size=size, replace=False)))
                before = len(paths)
                _check_against_projection(B, members)
                assert len(paths) == before + 1
                assert (paths[-1] == "class") is (A is coset27)
    assert set(paths) == {"class", "column", "row", "svd"}


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
@pytest.mark.parametrize("family", ("fano", "paley13", "bibd91", "coset27", "bireg40"))
def test_recurring_encoding_matches_decode(request, family, scheme):
    A = request.getfixturevalue(family)
    rng = np.random.default_rng(7)
    for seed in range(3):
        B = _encode(A, scheme, seed)
        _check_sets_against_decode(B, _mixed_sets(A.n, rng))


def test_recurring_encoding_covers_certified_and_uncertified_encodings(fano, paley13, bibd91, coset27, bireg40):
    # the cases above take every path: the closed form of the BIBD
    # transposes' draws and copies, the whole-Gram inverse and the route
    # table
    for A in (fano, bibd91):
        assert A.overlap is not None
        assert _encode(A, gc.NULLSPACE_HADAMARD).gram_inverse is not None
    for scheme in SCHEMES:
        assert _encode(paley13, scheme).gram_inverse is not None
    assert _encode(coset27, gc.NULLSPACE_HADAMARD).gram_inverse is not None
    assert _encode(coset27, gc.BASELINE).gram_inverse is None
    assert _encode(bireg40, gc.BASELINE).gram_inverse is None
    K, R = _encode(paley13, gc.RANDOM_DIAGONAL).gram_inverse
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
    """Record the survivors (one member list per set) of each stack
    decoding.<name> is handed, with which members it solved (the others go
    to the SVD of their B_S)."""
    stacks = []
    stack = getattr(decoding, name)

    def spy(B_, members):
        coeffs, errs, solved = stack(B_, members)
        stacks.append((members.tolist(), solved.tolist()))
        return coeffs, errs, solved

    monkeypatch.setattr(decoding, name, spy)
    return stacks


def _spy_projected(monkeypatch):
    """Record the matrix B_S of each projection decoding runs (route 4, the
    fallback of every stack)."""
    projected = []
    proj = decoding.project
    monkeypatch.setattr(decoding, "project", lambda b_s, rhs: projected.append(b_s) or proj(b_s, rhs))
    return projected


def _columns(B, sets):
    """B_S of each set (a list of members), as bytes, sorted: what
    _spy_projected records for those sets."""
    return sorted(B.mat[:, list(members)].tobytes() for members in sets)


def _block_certified(B, members):
    """Whether route 1 clears the stacked-copies set by a Gram certificate:
    the column Gram of A_S for |S| <= k, else its row Gram."""
    a_s = B.block(0)[:, list(members)]
    return certify_gram(a_s.T @ a_s if len(members) <= B.k else a_s @ a_s.T)


def test_recurring_baseline_without_a_certified_gram_decodes_in_capped_stacks(bireg40, monkeypatch):
    # the bi-regular baseline has rank k = 20 < n, so its whole Gram clears
    # no tier. Each size's sets are decoded in stacks of its k-row blocks,
    # none over STACK_ELEMENTS gathered entries; a stack, of one set or
    # more, solves each member that clears its block certificate, and the
    # others each go to the SVD of their own B_S, as does the empty set.
    # Every result is exactly decode's
    B = gc.encode_baseline(bireg40, 2)
    assert B.gram_tier is None and B.gram_inverse is None and bireg40.column_classes is None
    grouped = []
    group = decoding._decode_group

    def spy_group(B_, inverse, idx):
        grouped.append(len(idx))
        return group(B_, inverse, idx)

    projected = _spy_projected(monkeypatch)
    monkeypatch.setattr(decoding, "_decode_group", spy_group)
    stacks = _spy_stacks(monkeypatch, "_copies_stack")
    rng = np.random.default_rng(3)
    sets = _mixed_sets(40, rng)
    for s in (4, 16):  # at s = 16 some of the 24-worker blocks fail the row Gram certificate
        sets += [gc.sample_straggler_set(gc.FixedCount(s), 40, rng) for _ in range(60)]
    got = gc.decode_each([B] * len(sets), sets)
    assert grouped == []
    for rows, solved in stacks:
        g, size = len(rows), len(rows[0])
        assert g * max(B.k, size) * size <= decoding.STACK_ELEMENTS or g == 1
        assert solved == [_block_certified(B, members) for members in rows]
    assert {True, False} <= {ok for _, solved in stacks for ok in solved}
    fell_back = [members for rows, solved in stacks for members, ok in zip(rows, solved) if not ok]
    assert sorted(b_s.tobytes() for b_s in projected) == _columns(B, fell_back + [[]])
    for workers, res in zip(sets, got):
        ref = gc.decode(B, workers)
        assert res.err == ref.err and np.array_equal(res.coeffs, ref.coeffs)
    # a certified encoding that recurs never takes the SVD
    projected.clear()
    gc.decode_each([_encode(bireg40, gc.NULLSPACE_HADAMARD, 1)] * len(sets), sets)
    assert projected == [] and sum(grouped) == len(sets)


def test_recurring_encoding_between_the_whole_gram_tiers_decodes_in_stacks(bireg40, monkeypatch):
    # a null-space encoding whose whole Gram has 1e8 < cond_2(G) < 1e12, so
    # it has no whole-Gram inverse: each size's sets are decoded in stacks,
    # each member by its own certificate, the Gram solve where it clears
    # 1e8 and the QR otherwise, and every result is exactly decode's. No
    # set reaches the fallback, the SVD
    B = gc.encode_nullspace_hadamard(bireg40, 2, v1_policy=gc.V1_GAUSSIAN, seed=18)
    G, _ = B.gram
    assert B.gram_tier == gc.QR_COND_MAX and B.gram_inverse is None
    assert 1e8 < np.linalg.cond(G) < 1e12
    routes = _spy_routes(monkeypatch)
    stacks = _spy_stacks(monkeypatch, "_survivor_stack")
    rng = np.random.default_rng(8)
    sets = [gc.sample_straggler_set(gc.FixedCount(s), 40, rng) for s in (0, 1, 2, 6) for _ in range(25)]
    got = gc.decode_each([B] * len(sets), sets)
    assert "svd" not in routes and "qr" in routes
    assert max(len(rows) for rows, _ in stacks) > 1
    cleared = set()
    for rows, solved in stacks:
        g, size = len(rows), len(rows[0])
        assert g * max(B.m * B.k, size) * size <= decoding.STACK_ELEMENTS
        assert all(solved)
        cleared |= {certify_gram(_survivor_gram(B, members)) for members in rows}
    assert cleared == {True, False}
    for workers, res in zip(sets, got):
        _check_against_route_references(B, workers, res, exact=True)


def test_rank_deficient_encoding_never_takes_a_stacked_tier(fano, bireg40, monkeypatch):
    # a whole Gram that clears neither tier, from a short encoding (mk = 20
    # rows for n = 40 workers) or from a repeated column: no set of the
    # recurring encoding goes through a whole-Gram inverse, and each gets
    # exactly decode's result. The short encoding is a draw, decoded with
    # the other draws of its design as decode decodes it alone
    short = gc.encode_random_diagonal(bireg40, 1, gc.DiagonalLaw(0.1), seed=2)
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.1), seed=1)
    mat = B.mat.copy()
    mat[:, 4] = mat[:, 2]
    twin = dataclasses.replace(B, mat=mat)
    assert short.diagonals is not None and twin.diagonals is None
    grouped = []
    group = decoding._decode_group
    monkeypatch.setattr(decoding, "_decode_group", lambda *args: grouped.append(args) or group(*args))
    for enc in (short, twin):
        assert enc.gram_tier is None and not enc.stacked_copies
        rng = np.random.default_rng(enc.n)
        sets = [gc.sample_straggler_set(gc.FixedCount(s), enc.n, rng) for s in (0, 1, 3) for _ in range(6)]
        got = gc.decode_each([enc] * len(sets), sets)
        for workers, res in zip(sets, got):
            _check_against_route_references(enc, workers, res, exact=True)
    assert grouped == []


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


def test_residual_consistency_check_raises(paley13, monkeypatch):
    # a cached Gram doubled behind the decode's back still certifies, so the
    # Gram path returns half the coefficients with an error that disagrees
    # with the directly computed residual. A draw without its diagonals (a
    # stored encoding) takes the route table, which reads the cached Gram;
    # a draw decoded from A and its diagonals is tripped the same way by
    # halved stacked coefficients
    drawn = gc.encode_random_diagonal(paley13, 2, gc.DiagonalLaw(0.0), seed=0)
    B = dataclasses.replace(drawn, randomness=None)
    workers = gc.NonStragglerSet(n=13, members=(0, 2, 5))
    gram, image = B.gram
    B.__dict__["gram"] = (2.0 * gram, image)
    assert B.diagonals is None and certify_gram(_survivor_gram(B, list(workers.members)))
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode(B, workers)
    _halve_draw_stacks(monkeypatch)
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode(drawn, workers)


def _halve_draw_stacks(monkeypatch):
    """Halve the coefficients of every stack of draws behind the decode's
    back, leaving their errors."""
    stack = decoding._draw_stack

    def halved(*args):
        coeffs, errs, solved = stack(*args)
        return coeffs / 2.0, errs, solved

    monkeypatch.setattr(decoding, "_draw_stack", halved)


def test_recurring_encoding_residual_check_raises(paley13):
    # the cached inverse of the doubled Gram, behind the decode's back: the
    # coefficients it yields are not the survivors' optimum, and their
    # error disagrees with the directly computed residual. Sets of 13 and
    # 10 survivors go through the inverse; one of 3 solves its own Gram,
    # and a doubled cached Gram trips it the same way. Each set is handed
    # in twice, so that the encoding recurs and takes the whole-Gram inverse
    B = gc.encode_random_diagonal(paley13, 2, gc.DiagonalLaw(0.0), seed=0)
    K, R = B.gram_inverse
    B.__dict__["gram_inverse"] = (K / 2.0, R / 2.0)
    for members in (tuple(range(13)), (0, 1, 3, 4, 6, 7, 8, 10, 11, 12)):
        with pytest.raises(NumericalError, match="direct residual"):
            gc.decode_each([B, B], [gc.NonStragglerSet(n=13, members=members)] * 2)
    B = gc.encode_random_diagonal(paley13, 2, gc.DiagonalLaw(0.0), seed=0)
    gram, image = B.gram
    B.__dict__["gram"] = (2.0 * gram, image)
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode_each([B, B], [gc.NonStragglerSet(n=13, members=(0, 2, 5))] * 2)


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
        lambda encodings, sets: [gc.DecodeResult(coeffs=true.coeffs, err=0.0, fitted=true.fitted)],
    )
    with pytest.raises(NumericalError, match="operator-norm"):
        gc.reconstruct(partials, B, workers)


def _partials_of(Z, m):
    """The k per-subset gradients whose blockwise split is the sub x mk
    matrix Z: block u of gradient i is column u k + i."""
    sub, mk = Z.shape
    return Z.reshape(sub, m, mk // m).transpose(2, 1, 0).reshape(mk // m, m * sub)


def _eigensolve_check(grads, fitted, errs):
    """apply_fitted's operator-norm check with every member's ||Z_j||_2^2
    from _spectral_norm_sq: raises as it raises."""
    g, k, _ = grads.shape
    m = fitted.shape[-1]
    Z = decoding._split(grads, m)
    diff = Z @ fitted - Z.reshape(g, -1, m, k).sum(axis=3)
    gap_sq = np.einsum("jum,jum->j", diff, diff)
    limit = decoding._spectral_norm_sq(Z) * np.asarray(errs, dtype=float)
    bad = ~(gap_sq <= limit * (1.0 + 1e-8) + 1e-8)
    if bad.any():
        j = int(np.argmax(bad))
        raise NumericalError(f"operator-norm bound violated: gap^2={gap_sq[j]} > {limit[j]}")


def _outcome(check, *args):
    """The type and message of the error check(*args) raises, or None."""
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _spy_eigensolves(monkeypatch):
    """The stack sizes _spectral_norm_sq is called on."""
    sizes = []
    solve = decoding._spectral_norm_sq

    def spy(Z):
        sizes.append(len(Z))
        return solve(Z)

    monkeypatch.setattr(decoding, "_spectral_norm_sq", spy)
    return sizes


def _norm_check_stack(Zs, ratios, m=2):
    """grads, fitted and errs of one member per sub x mk matrix in Zs, each
    member's err set so that gap^2 = ratio ||Z||_2^2 err for its ratio
    (err = 0 for ratio inf)."""
    rng = np.random.default_rng(5)
    grads = np.array([_partials_of(Z, m) for Z in Zs])
    k = grads.shape[1]
    fitted = rng.standard_normal((len(Zs), m * k, m))
    Z = decoding._split(grads, m)
    assert np.array_equal(Z, np.array(Zs))
    diff = Z @ fitted - Z.reshape(len(Zs), -1, m, k).sum(axis=3)
    gap_sq = np.einsum("jum,jum->j", diff, diff)
    norm_sq = np.array([np.linalg.norm(z, 2) ** 2 for z in Zs])
    with np.errstate(divide="ignore", invalid="ignore"):
        errs = np.where(np.isinf(ratios), 0.0, gap_sq / (np.asarray(ratios) * norm_sq))
    return grads, fitted, errs


def _near_tie(gap):
    """A 4 x 6 matrix whose two largest singular values squared are 1 and
    1 - gap, with the ones vector orthogonal to the top left singular
    vector, so power steps from it reach only the second."""
    U = np.linalg.qr(np.array([[1.0, 1, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1], [1, 1, -1, -1]]).T)[0]
    U[:, [0, 1]] = U[:, [1, 0]]  # the first column is now orthogonal to ones
    V = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 4)))[0]
    return U @ np.diag(np.sqrt([1.0, 1.0 - gap, 0.3, 0.1])) @ V.T


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(-150, 150))
def test_property_norm_floor_is_below_the_eigensolve(rows, cols, seed, scale):
    # the shrunk Rayleigh floor never exceeds the eigensolve's ||Z||_2^2,
    # at any scale short of overflow
    Z = np.random.default_rng(seed).standard_normal((3, rows, cols)) * 2.0**scale
    floor = decoding._norm_sq_floor(decoding._small_gram(Z)) * (1.0 - 1e-12)
    assert np.all(floor <= decoding._spectral_norm_sq(Z))


def test_near_tie_defeats_the_power_steps():
    Z = _near_tie(1e-3)
    floor = decoding._norm_sq_floor(decoding._small_gram(Z[None]))[0]
    assert floor <= (1 - 1e-3) * (1 + 1e-12) and abs(np.linalg.norm(Z, 2) ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize(
    "members, failing",
    [
        ([("random", 0.01), ("random", 0.2), ("random", 0.5)], None),
        ([("random", 0.999), ("random", 0.999)], None),
        ([("random", 0.5), ("random", 1.001), ("random", 0.999), ("random", 1.001)], 1),
        ([("random", 0.3), ("random", np.inf)], 1),
        ([("tie", 1 - 1e-7)], None),
        ([("random", 0.2), ("tie", 1 + 1e-7)], 1),
    ],
    ids=["far inside", "just inside", "just outside", "err zero", "near tie inside", "near tie outside"],
)
def test_operator_norm_check_verdict_is_the_eigensolves(monkeypatch, members, failing):
    # the Rayleigh floor only clears members the eigensolve's test passes:
    # on a hand-built stack whose members sit at the given ratios of gap^2
    # to ||Z||_2^2 err (inf: err = 0), apply_fitted passes or raises exactly
    # as the test on every member's eigensolve, its message naming the
    # first failing member's gap and eigensolve limit. The power steps on a
    # near-tie member fall short of ||Z||_2^2 by a relative 1e-6, so only
    # the eigensolve decides it
    rng = np.random.default_rng(len(members))
    Zs = [
        _near_tie(1e-6) if kind == "tie" else rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-2, 3)
        for kind, _ in members
    ]
    grads, fitted, errs = _norm_check_stack(Zs, [ratio for _, ratio in members])
    want = _outcome(_eigensolve_check, grads, fitted, errs)
    if failing is None:
        assert want is None
    else:
        assert want[0] is NumericalError
        alone = _outcome(_eigensolve_check, *(a[failing : failing + 1] for a in (grads, fitted, errs)))
        assert alone == want
    sizes = _spy_eigensolves(monkeypatch)
    assert _outcome(gc.apply_fitted, grads, fitted, errs) == want
    if max(ratio for _, ratio in members) <= 0.5:
        assert sizes == []
    ties = sum(kind == "tie" for kind, _ in members)
    if ties:
        assert sizes == [ties]


@pytest.mark.parametrize(
    "kind, rows, error",
    [("zero", 4, None), ("nan", 4, np.linalg.LinAlgError), ("nan", 2, NumericalError)],
)
def test_operator_norm_check_on_a_zero_or_nan_member(monkeypatch, kind, rows, error):
    # Z = 0 passes, as the eigensolve's test does: it clears no floor and
    # goes to the eigensolve. A NaN entry would fail that test with an error
    # of its size (LAPACK refuses the 4 x 4 Gram with a NaN and returns NaN
    # for the 2 x 2 one, whose NaN gap then fails the test), LinAlgError not
    # being a CodingError; apply_fitted, reconstruct and reconstruct_each
    # refuse the non-finite gradients up front, before any eigensolve
    rng = np.random.default_rng(8)
    Zs = [rng.standard_normal((rows, 6)), np.zeros((rows, 6))]
    if kind == "nan":
        Zs[1][1, 3] = np.nan
    grads = np.array([_partials_of(Z, 2) for Z in Zs])
    fitted = rng.standard_normal((2, 6, 2))
    errs = np.array([50.0, 1.0])
    want = _outcome(_eigensolve_check, grads, fitted, errs)
    assert (want and want[0]) is error
    sizes = _spy_eigensolves(monkeypatch)
    got = _outcome(gc.apply_fitted, grads, fitted, errs)
    if kind == "nan":
        assert got == (NonFiniteError, "partial gradients contain NaN or Inf")
        assert sizes == []
        B = gc.encode_baseline(gc.bibd_transpose_from_difference_set([0, 1, 3], 7), 2)
        partials = np.zeros((1, 7, 4))
        partials[0, 2, 1] = np.nan
        with pytest.raises(NonFiniteError):
            gc.reconstruct(partials[0], B, gc.NonStragglerSet.full(7))
        with pytest.raises(NonFiniteError):
            gc.reconstruct_each(partials, [B], [gc.NonStragglerSet.full(7)])
    else:
        assert got == want
        assert sizes == [1]


def test_train_coset_iteration_runs_no_eigensolve(coset27, monkeypatch):
    # one train-coset-shaped iteration (8 repetitions, m = 2, Bernoulli
    # survivors at q = 0.25, gradients of a 10-feature, 3-class softmax on
    # 600 samples): every member clears the Rayleigh floor
    sizes = _spy_eigensolves(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: pytest.fail("eigensolve ran"))
    cfg = gc.TrainConfig(
        schemes=(gc.SchemeSpec(gc.RANDOM_DIAGONAL, epsilon=0.1), gc.SchemeSpec(gc.BASELINE)),
        m=2,
        q=0.25,
        iterations=1,
        repetitions=8,
        dataset=gc.DatasetSpec(samples=600, dim=10, classes=3, seed=0),
    )
    floors = []
    floor = decoding._norm_sq_floor
    monkeypatch.setattr(decoding, "_norm_sq_floor", lambda gram: floors.append(len(gram)) or floor(gram))
    gc.simulate_training(coset27, cfg)
    assert floors == [8, 8] and sizes == []


@_PROPERTY_SETTINGS
@given(st.sampled_from(FAMILIES), st.integers(1, 3), st.data())
def test_property_stacked_baseline_decode_matches_svd_projection(request, family, m, data):
    B = gc.encode_baseline(request.getfixturevalue(family), m)
    _check_against_projection(B, _draw_members(data, B.n, min_size=1))


def test_stacked_copies_needs_equal_blocks(fano):
    # stacked copies are 1_m (x) A: every block equals the parent A. A
    # baseline with a block altered, or with every block altered alike,
    # takes the general path and still decodes
    B = gc.encode_baseline(fano, 2)
    assert B.stacked_copies
    mat = B.mat.copy()
    mat[7:] *= 2.0
    altered = gc.EncodingMatrix(mat=mat, m=2, scheme=B.scheme, parent=fano, seed=None, randomness=None)
    scaled = dataclasses.replace(altered, mat=2.0 * B.mat)
    assert not altered.stacked_copies and not scaled.stacked_copies
    assert not gc.encode_random_diagonal(fano, 1, gc.DiagonalLaw(0.0), seed=0).stacked_copies
    assert decoding._blocks_diagonals(scaled) is None
    for enc in (altered, scaled):
        _check_against_projection(enc, [0, 2, 3, 5])


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
# one survivor set per encoding, the QR tier and stacked copies with equal columns


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
    every set but those of a group of more than one set solved through its
    whole-Gram inverse. A group is one encoding, or equal stacked copies;
    the draws and copies of a design of constant overlap take the closed
    form in any group."""

    def group(B):
        return (B.m, B.mat.shape, B.block(0).tobytes()) if B.stacked_copies else id(B)

    counts = collections.Counter(map(group, encodings))
    return [
        counts[group(B)] == 1
        or B.gram_inverse is None
        or B.parent.overlap is not None and decoding._blocks_diagonals(B) is not None
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
    if scheme != gc.BASELINE:  # equal baselines join the recurring copies' group
        assert exact[-3:] == [True] * 3
    for B, workers, res, bit_equal in zip(encodings, sets, got, exact):
        _check_against_route_references(B, workers, res, exact=bit_equal)


def test_decode_each_mixed_call_keeps_order(paley13, bibd91, bireg40, coset27):
    # a recurring certified encoding, a recurring uncertified one and
    # single encodings of other designs, interleaved in one call
    certified = _encode(paley13, gc.RANDOM_DIAGONAL, 1)
    uncertified = gc.encode_baseline(bireg40, 2)
    assert certified.gram_inverse is not None and uncertified.gram_inverse is None
    singles = [_encode(bibd91, gc.NULLSPACE_HADAMARD), _encode(coset27, gc.RANDOM_DIAGONAL, 2)]
    rng = np.random.default_rng(17)
    paley_sets, bireg_sets = _mixed_sets(13, rng)[:6], _mixed_sets(40, rng)[:6]
    encodings, sets = [], []
    for j in range(6):
        encodings += [certified, uncertified]
        sets += [paley_sets[j], bireg_sets[j]]
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


def test_decode_each_residual_check_raises(paley13, monkeypatch):
    # a doubled cached Gram behind the decode's back, on the second of
    # three sets: the batched direct residual catches that one. The draws
    # that carry one set each are caught the same way
    good = gc.encode_random_diagonal(paley13, 2, gc.DiagonalLaw(0.0), seed=0)
    bad = dataclasses.replace(gc.encode_random_diagonal(paley13, 2, gc.DiagonalLaw(0.0), seed=0), randomness=None)
    gram, image = bad.gram
    bad.__dict__["gram"] = (2.0 * gram, image)
    workers = gc.NonStragglerSet(n=13, members=(0, 2, 5))
    gc.decode_each([good, good], [workers, workers])
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode_each([good, bad, good], [workers] * 3)
    draws = [gc.encode_random_diagonal(paley13, 2, gc.DiagonalLaw(0.0), seed=s) for s in range(3)]
    gc.decode_each(draws, [workers] * 3)
    _halve_draw_stacks(monkeypatch)
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode_each(draws, [workers] * 3)


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


def test_qr_tier_matches_projection_between_the_certificates(bireg40, monkeypatch):
    # Bernoulli(0.1) survivors of the bi-regular design, which repeats no
    # column, with the epsilon = 0.001 diagonal: the sets that the 1e8
    # certificate refuses and the 1e12 one clears are solved by QR, within
    # 1e-9 * mk of the SVD projection. On these two draws 41 of the 80 sets
    # fall between the certificates, 39 of them with cond_2(G_S) above 1e8
    # (the certificate bounds the larger tr(G_S) / lambda_min)
    routes = _spy_routes(monkeypatch)
    F = gc.build_target(20, 2)
    between = 0
    for seed in (1, 5):
        B = gc.encode_random_diagonal(bireg40, 2, gc.DiagonalLaw(0.001), seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            workers = gc.sample_straggler_set(gc.Bernoulli(0.1), B.n, rng)
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
            assert abs(got.err - ref_err) <= 1e-9 * 40
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
    # the coset design repeats every column `copies` times, and its k
    # distinct columns have a class inverse: every set decodes from its
    # straggler side like the SVD projection, none on its block A_S
    A = gc.coset_bipartite(gc.CosetParams(k=k, m=copies, delta=delta, generating_set=tuple(range(delta))))
    assert A.class_inverse is not None
    assert _check_copies(A, monkeypatch) == []


@pytest.mark.parametrize("k,gen", [(27, (0, 1, 2)), (9, (0, 1, 2)), (4, (0, 1))])
@pytest.mark.parametrize("copies", [2, 3])
def test_merged_stacked_baseline_without_a_class_inverse_matches_svd_projection(k, gen, copies, monkeypatch):
    # a singular circulant block: no class inverse, so every set, sets
    # holding two equal columns among them, is decoded on its own block A_S
    # or B_S and agrees with the SVD projection
    A = gc.coset_bipartite(gc.CosetParams(k=k, m=copies, delta=len(gen), generating_set=gen))
    assert A.class_inverse is None
    assert _check_copies(A, monkeypatch) == list(range(1, A.n + 1)) * 2


def _check_copies(A, monkeypatch):
    """decode of the stacked copies of A at m = 2 and 3, for one set of each
    size, against the SVD projection: the widths of the blocks A_S decoded
    on the k-row block (route 1), in order."""
    k = A.k
    stacked, widths = decoding._decode_stacked, []
    monkeypatch.setattr(
        decoding, "_decode_stacked", lambda a_s, m: widths.append(a_s.shape[2]) or stacked(a_s, m)
    )
    for m in (2, 3):
        B = gc.encode_baseline(A, m)
        labels, firsts = A.column_classes
        assert firsts.size == k and np.array_equal(A.mat[:, firsts[labels]], A.mat)
        rng = np.random.default_rng(k + m)
        for size in range(1, A.n + 1):
            members = list(np.sort(rng.choice(A.n, size=size, replace=False)))
            _check_against_projection(B, members)
    return widths


def test_column_classes_only_where_copies_repeat_a_column(fano, bireg40, coset27):
    # the table is the design's, computed once: a design with no two equal
    # columns has none
    assert fano.column_classes is None and bireg40.column_classes is None
    labels, firsts = coset27.column_classes
    assert coset27.column_classes[0] is labels
    assert np.array_equal(labels, np.tile(labels[:27], 2)) and firsts.size == 27
    assert np.array_equal(firsts[labels[:27]], np.arange(27))
    assert not labels.flags.writeable and not firsts.flags.writeable
    # the design pairs its equal columns; three equal columns pair none
    assert fano.partners is None and bireg40.partners is None
    partner = coset27.partners
    assert np.array_equal(partner, np.r_[np.arange(27, 54), np.arange(27)])
    assert np.array_equal(coset27.mat[:, partner], coset27.mat) and not partner.flags.writeable
    assert gc.coset_bipartite(gc.CosetParams(k=7, m=3, delta=3, generating_set=(0, 1, 2))).partners is None


def _planted_design(mat, delta):
    """An AssignmentMatrix holding mat, a 0/1 matrix whose columns all
    weigh delta, without the constructor's check of equal row sums, which
    random matrices with planted equal columns rarely pass: column_classes,
    partners and the decode read only mat, delta and their Gram."""
    A = object.__new__(gc.AssignmentMatrix)
    A.__dict__.update(mat=mat, delta=delta, gamma=None, family="planted", params=None)
    return A


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.lists(st.integers(1, 3), min_size=1, max_size=7))
def test_property_column_classes_of_planted_equal_columns(k, seed, sizes):
    # distinct columns of weight delta, each repeated 1 to 3 times, in a
    # random order: the design's table finds the planted classes, partners
    # pairs exactly the classes of two, and stacked copies of the design
    # decode every set as project on B_S does
    rng = np.random.default_rng(seed)
    delta = int(rng.integers(1, k + 1))
    distinct = set()
    while len(distinct) < min(len(sizes), math.comb(k, delta)):
        distinct.add(tuple(sorted(rng.choice(k, size=delta, replace=False).tolist())))
    sizes = sizes[: len(distinct)]
    cls = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))  # each worker's planted class
    n = cls.size
    mat = np.zeros((k, n))
    for j, c in enumerate(cls):
        mat[list(sorted(distinct)[c]), j] = 1.0
    A = _planted_design(mat, delta)
    table = A.column_classes
    _, firsts, labels = np.unique(mat.T, axis=0, return_index=True, return_inverse=True)
    if max(sizes) == 1:
        assert table is None
    else:
        assert np.array_equal(table[0], labels.reshape(-1)) and np.array_equal(table[1], firsts)
        same = table[0][:, None] == table[0][None, :]
        assert np.array_equal(same, cls[:, None] == cls[None, :])
        assert np.array_equal(table[1][table[0]], [np.flatnonzero(cls == c)[0] for c in cls])
    partner = A.partners
    if max(sizes) != 2:
        assert partner is None
    else:
        assert np.array_equal(partner[partner], np.arange(n))
        assert np.array_equal(cls[partner], cls)
        assert np.array_equal(partner != np.arange(n), np.bincount(cls)[cls] == 2)
    for m in (1, 2, 3):
        B = gc.encode_baseline(A, m)
        assert B.stacked_copies
        F = gc.build_target(k, m)
        sets = [gc.NonStragglerSet(n=n, members=np.flatnonzero(rng.random(n) < q)) for q in (0.3, 0.6, 0.9, 1.0)]
        sets += [gc.NonStragglerSet(n=n, members=np.flatnonzero(cls == cls[0]))]  # one whole class
        for got in (gc.decode_each([B] * len(sets), sets), gc.decode_exact([B] * len(sets), sets)):
            for workers, res in zip(sets, got):
                members = list(workers.members)
                ref_coeffs, ref_err = project(B.mat[:, members], F)
                assert abs(res.err - ref_err) <= 1e-9 * m * k
                assert np.allclose(res.fitted, B.mat[:, members] @ ref_coeffs, rtol=0.0, atol=1e-8)
                scale = max(1.0, float(np.abs(ref_coeffs).max(initial=0.0)))
                assert np.allclose(res.coeffs[members], ref_coeffs, rtol=0.0, atol=1e-9 * scale)


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
    # each set as reconstruct gives it, bit for bit: the draws that carry
    # one set, and the recurring draw (positions 1 and 3), whose whole Gram
    # clears only the 1e12 tier, are decoded as decode_draws decodes them on
    # the coset design's column classes
    rng = np.random.default_rng(5)
    partials = rng.standard_normal((4, 27, 11))
    encodings = [gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.1), seed=s) for s in range(3)]
    encodings.append(encodings[1])
    sets = [gc.sample_straggler_set(gc.Bernoulli(0.25), 54, rng) for _ in range(4)]
    approx, gaps = gc.reconstruct_each(partials, encodings, sets)
    assert approx.shape == (4, 11) and gaps.shape == (4,)
    for j in range(4):
        one, gap = gc.reconstruct(partials[j], encodings[j], sets[j])
        assert np.array_equal(approx[j], one) and gaps[j] == gap
    empty_approx, empty_gaps = gc.reconstruct_each(np.zeros((0, 27, 11)), [], [])
    assert empty_approx.shape == (0, 11) and empty_gaps.shape == (0,)
    with pytest.raises(ShapeError):
        gc.reconstruct_each(partials[:3], encodings, sets)
    with pytest.raises(ShapeError):
        gc.reconstruct_each(partials, [encodings[0], gc.encode_baseline(coset27, 3)] * 2, sets)


# ---------------------------------------------------------------------------
# random-diagonal draws decoded from A^T A, and stacked copies, in stacks


def test_stacked_draws_match_decode_and_projection(coset27, bireg40, monkeypatch):
    # draws of two designs, one set each and interleaved: the bi-regular
    # draws are solved by size as stacks built from A^T A and the
    # diagonals, the coset draws from the class inverse on the design's
    # column classes. Each result is exactly decode's, and within 1e-9 * mk
    # of the SVD projection: sets that clear the 1e8 certificate, the
    # bi-regular sets of the epsilon = 0.001 draws that clear only the 1e12
    # one (QR), the rank-deficient sets of the short draws (the SVD) and the
    # empty set
    routes = _spy_routes(monkeypatch)
    stacked = []
    stack = decoding._draw_stack

    def spy(*args):
        stacked.append(len(args[-1]))
        return stack(*args)

    monkeypatch.setattr(decoding, "_draw_stack", spy)
    rng = np.random.default_rng(21)
    coset = [gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.1), seed=s) for s in range(40)]
    short = [gc.encode_random_diagonal(bireg40, 1, gc.DiagonalLaw(0.1), seed=s) for s in range(20)]
    coset_sets = [gc.sample_straggler_set(gc.Bernoulli(0.25), 54, rng) for _ in coset]
    coset_sets[3] = gc.NonStragglerSet(n=54, members=())
    short_sets = [gc.sample_straggler_set(gc.FixedCount(s), 40, rng) for s in (5, 15, 25, 35) for _ in range(5)]
    close = [gc.encode_random_diagonal(bireg40, 2, gc.DiagonalLaw(0.001), seed=s) for s in range(20)]
    close_sets = [gc.sample_straggler_set(gc.Bernoulli(0.1), 40, rng) for _ in close]
    order = rng.permutation(80)
    encodings = [(coset + short + close)[j] for j in order]
    sets = [(coset_sets + short_sets + close_sets)[j] for j in order]
    got = gc.decode_each(encodings, sets)
    assert max(stacked) > 1 and {"qr", "svd"} <= set(routes)
    for B, workers, res in zip(encodings, sets, got):
        _check_against_route_references(B, workers, res)
        assert np.allclose(res.fitted, B.mat @ res.coeffs, rtol=0.0, atol=1e-12)
    assert got[list(order).index(3)].err == 54.0
    # decode_draws, handed the draws alone, gives the same bits
    again = gc.decode_draws(coset27, [B.randomness for B in coset], coset_sets)
    for one, res in zip(again, [got[list(order).index(j)] for j in range(40)]):
        assert one.err == res.err and np.array_equal(one.coeffs, res.coeffs)
        assert np.array_equal(one.fitted, res.fitted)


def test_draws_on_column_classes_match_projection_at_ties(coset27):
    # at epsilon = 0 two surviving partners' diagonals are exactly equal or
    # opposite (rank 1) or orthogonal (rank 2): every set agrees with
    # project(B_S) within 1e-9 * mk, and the summed class ranks (the kept
    # columns of the reduced system) equal rank_of(B_S)
    rng = np.random.default_rng(3)
    draws = [gc.draw_diagonals(coset27, 2, gc.DiagonalLaw(0.0), seed=s) for s in range(60)]
    sets = [gc.sample_straggler_set(gc.Bernoulli(q), 54, rng) for q in (0.1, 0.25, 0.5) for _ in range(20)]
    got = gc.decode_draws(coset27, draws, sets)
    survives = np.zeros((60, 54), dtype=bool)
    for j, workers in enumerate(sets):
        survives[j, list(workers.members)] = True
    _, kept, _, _ = decoding._class_factors(
        coset27.partners, np.array([d.diagonals for d in draws]), survives
    )
    assert (kept.sum(axis=1) < survives.sum(axis=1)).sum() >= 50
    F = gc.build_target(27, 2)
    for draw, workers, res, reduced in zip(draws, sets, got, kept):
        members = list(workers.members)
        b_s = (coset27.mat[:, members] * draw.diagonals[:, None, members]).reshape(54, -1)
        ref_coeffs, ref_err = project(b_s, F)
        assert abs(res.err - ref_err) <= 1e-9 * 54
        assert np.allclose(res.coeffs[members], ref_coeffs, rtol=0.0, atol=1e-9)
        assert reduced.sum() == rank_of(b_s)


# coset designs and their class inverse: (k, generating set); the last two
# have a singular circulant block (the mask vanishes at a k-th root of
# unity), so they have no class inverse and today's routes decode them
_COSETS = [
    (27, (0, 1, 2, 3, 4)),
    (7, (0, 1, 3)),
    (13, (0, 1, 3, 9)),
    (9, (0, 1, 3)),
    (25, (0, 1, 2, 3)),
    (16, (0, 1, 2)),
    (11, (0, 2, 5)),
    (27, (0, 1, 2)),
    (4, (0, 1)),
]


@functools.lru_cache(maxsize=None)
def _coset(k, gen, copies):
    return gc.coset_bipartite(gc.CosetParams(k=k, m=copies, delta=len(gen), generating_set=gen))


def _spy_class_side(mp, labels):
    """Record, for each set the straggler side of the class inverse solves,
    the rank its reduction implies: the kept columns of a draw, the classes
    present among a stacked-copies set's survivors."""
    implied = {}
    class_draws, class_copies = decoding._class_draws, decoding._class_copies

    def spy_draws(A, diagonals, survives, coeffs, errs):
        ok = class_draws(A, diagonals, survives, coeffs, errs)
        kept = decoding._class_factors(A.partners, diagonals, survives)[1]
        implied.update((j, int(kept[j].sum())) for j in np.flatnonzero(ok).tolist())
        return ok

    def spy_copies(A, m, sets, coeffs, errs):
        ok = class_copies(A, m, sets, coeffs, errs)
        implied.update((j, np.unique(labels[sets[j].index]).size) for j in np.flatnonzero(ok).tolist())
        return ok

    mp.setattr(decoding, "_class_draws", spy_draws)
    mp.setattr(decoding, "_class_copies", spy_copies)
    return implied


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_COSETS),
    st.sampled_from([2, 3]),
    st.sampled_from(["draws", "copies"]),
    st.sampled_from([0.0, 0.1, 0.5]),
    st.floats(0.05, 0.9),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_property_class_inverse_straggler_side_matches_projection(coset, copies, kind, eps, q, m, seed):
    # every set of coset draws (m = 2) and stacked copies (m = 1 to 3) the
    # straggler side of the class inverse decodes agrees with project on
    # its B_S within 1e-9 * mk, and the rank its reduction implies is the
    # rank rule's, ties at epsilon = 0 included; the other sets, and every
    # set of a design without a class inverse, take today's routes
    k, gen = coset
    A = _coset(k, gen, copies)
    labels, _ = A.column_classes
    m = 2 if kind == "draws" else m
    rng = np.random.default_rng(seed)
    sets = [gc.sample_straggler_set(gc.Bernoulli(q), A.n, rng) for _ in range(8)]
    with pytest.MonkeyPatch.context() as mp:
        implied = _spy_class_side(mp, labels)
        if kind == "draws":
            draws = [gc.draw_diagonals(A, m, gc.DiagonalLaw(eps), seed=int(s)) for s in rng.integers(2**31, size=8)]
            got = gc.decode_draws(A, draws, sets)
            columns = [(A.mat[None] * d.diagonals[:, None, :]).reshape(m * k, A.n) for d in draws]
        else:
            B = gc.encode_baseline(A, m)
            got = gc.decode_each([B] * len(sets), sets)
            columns = [B.mat] * len(sets)
    side = A.class_inverse is not None and (kind == "copies" or (copies == 2 and m == 2))
    F = gc.build_target(k, m)
    for j, (workers, res, mat) in enumerate(zip(sets, got, columns)):
        b_s = mat[:, workers.index]
        _, ref_err = project(b_s, F)
        assert abs(res.err - ref_err) <= 1e-9 * m * k
        if j in implied:
            assert implied[j] == rank_of(b_s)
        else:
            assert not side or not len(workers.members)
    assert bool(implied) is (side and any(len(w.members) for w in sets))


@pytest.mark.parametrize("kind", ["draw", "copies"])
def test_one_coset_set_decodes_alike_through_every_entry_point(coset27, kind, monkeypatch):
    # decode, decode_each (alone and with the set twice, a group that once
    # took the whole-Gram inverse), decode_exact and, for a draw,
    # decode_draws give one coset set the same bits, from the straggler side
    # of the class inverse
    labels, _ = coset27.column_classes
    implied = _spy_class_side(monkeypatch, labels)
    rng = np.random.default_rng(12)
    workers = gc.sample_straggler_set(gc.Bernoulli(0.25), 54, rng)
    if kind == "draw":
        B = gc.encode_random_diagonal(coset27, 2, gc.DiagonalLaw(0.1), seed=2)
        assert B.gram_inverse is not None
    else:
        B = gc.encode_baseline(coset27, 2)
    want = gc.decode(B, workers)
    assert implied == {0: rank_of(B.mat[:, workers.index])}
    got = [gc.decode_each([B], [workers])[0], *gc.decode_each([B, B], [workers, workers])]
    got.append(gc.decode_exact([B], [workers])[0])
    if kind == "draw":
        got.append(gc.decode_draws(coset27, [B.randomness], [workers])[0])
    for res in got:
        assert res.err == want.err
        assert np.array_equal(res.coeffs, want.coeffs) and np.array_equal(res.fitted, want.fitted)


def test_tiny_lone_diagonal_keeps_todays_route(coset27, monkeypatch):
    # a lone survivor whose diagonal has norm 1e-9 would take the reduced
    # system's cond far past 1e8: the class-inverse certificate refuses it,
    # and today's route, the SVD of B_S, drops its column by the rank rule
    labels, _ = coset27.column_classes
    implied = _spy_class_side(monkeypatch, labels)
    projected = _spy_projected(monkeypatch)
    members = [j for j in range(54) if j != coset27.partners[3]]
    d = gc.draw_diagonals(coset27, 2, gc.DiagonalLaw(0.1), seed=0).diagonals.copy()
    d[:, 3] *= 1e-9 / np.linalg.norm(d[:, 3])
    res = gc.decode_draws(coset27, [gc.DiagonalDraws(d)], [gc.NonStragglerSet(n=54, members=members)])[0]
    b_s = (coset27.mat[None] * d[:, None, :]).reshape(54, 54)[:, members]
    assert implied == {}
    assert len(projected) == 1 and np.array_equal(projected[0], b_s)
    ref_coeffs, ref_err = project(b_s, gc.build_target(27, 2))
    assert res.err == ref_err and np.array_equal(res.coeffs[members], ref_coeffs)
    assert rank_of(b_s) == len(members) - 1


def test_coset_draws_and_copies_reach_no_general_stack(coset27, monkeypatch):
    # the coset design's classes have an inverse: its draws at m = 2, tied
    # (epsilon = 0) or not, in decode_draws and in decode_each, and every
    # set of its stacked copies are solved from the straggler side of that
    # inverse. None reaches a general stack or the SVD but the empty set
    reached = []
    for name in ("_draw_stack", "_copies_stack", "_survivor_stack", "_decode_group"):
        solve = getattr(decoding, name)
        monkeypatch.setattr(decoding, name, lambda *args, name=name, solve=solve: reached.append(name) or solve(*args))
    projected = _spy_projected(monkeypatch)
    rng = np.random.default_rng(6)
    sets = [gc.sample_straggler_set(gc.Bernoulli(q), 54, rng) for q in (0.1, 0.25, 0.5, 0.9) for _ in range(6)]
    sets += [gc.NonStragglerSet(n=54, members=()), gc.NonStragglerSet.full(54)]
    empty = 0
    for eps in (0.0, 0.1):
        law = gc.DiagonalLaw(eps)
        gc.decode_draws(coset27, [gc.draw_diagonals(coset27, 2, law, seed=s) for s in range(len(sets))], sets)
        recurring = gc.encode_random_diagonal(coset27, 2, law, seed=0)
        gc.decode_each([recurring] * len(sets), sets)
        empty += 2
    for m in (1, 2, 3):
        gc.decode_each([gc.encode_baseline(coset27, m)] * len(sets), sets)
        empty += 1
    assert reached == []
    assert len(projected) == empty and all(b_s.shape[1] == 0 for b_s in projected)


@pytest.mark.parametrize("k,gen", [(27, (0, 1, 2)), (9, (0, 1, 2)), (4, (0, 1))])
@pytest.mark.parametrize("copies", [2, 3])
def test_singular_block_cosets_decode_on_their_survivor_columns(k, gen, copies, monkeypatch):
    # a coset design whose block is singular has no class inverse: its draws
    # (epsilon 0 and 0.1, m = 2 and 3) and stacked copies are solved on B_S.
    # Each set agrees with project(B_S) within 1e-9 * mk, a set a stack
    # solves has the full rank its route implies (rank_of(B_S) = |S|, or k
    # on the row Gram of more than k copies), and decode_each gives decode's
    # bits
    A = _coset(k, gen, copies)
    assert A.class_inverse is None
    projected = _spy_projected(monkeypatch)
    rng = np.random.default_rng(k + copies)
    sets = [gc.sample_straggler_set(gc.Bernoulli(q), A.n, rng) for q in (0.1, 0.3, 0.6) for _ in range(4)]
    sets += [gc.NonStragglerSet(n=A.n, members=()), gc.NonStragglerSet.full(A.n)]
    for m in (2, 3):
        encodings = [gc.encode_baseline(A, m)] * len(sets)
        for eps in (0.0, 0.1):
            encodings += [gc.encode_random_diagonal(A, m, gc.DiagonalLaw(eps), seed=j) for j in range(len(sets))]
        cases = list(zip(encodings, sets * 3))
        projected.clear()
        got = gc.decode_each([B for B, _ in cases], [w for _, w in cases])
        fell_back = {b_s.tobytes() for b_s in projected}
        F = gc.build_target(k, m)
        for (B, workers), res in zip(cases, got):
            b_s = B.mat[:, workers.index]
            _, ref_err = project(b_s, F)
            assert abs(res.err - ref_err) <= 1e-9 * m * k
            if b_s.tobytes() not in fell_back:
                assert rank_of(b_s) == min(b_s.shape[1], k if B.stacked_copies else b_s.shape[1])
            ref = gc.decode(B, workers)
            assert res.err == ref.err and np.array_equal(res.coeffs, ref.coeffs)
            assert np.array_equal(res.fitted, ref.fitted)


def test_class_inverse_only_on_invertible_class_blocks(fano, paley13, bibd91, bireg40, coset27):
    # the k x k block of distinct columns and its inverse, once per design
    # and read-only; none where no two columns are equal, where the classes
    # are not k, or where the block is singular
    for A in (fano, paley13, bibd91, bireg40, _coset(27, (0, 1, 2), 2), _coset(4, (0, 1), 3)):
        assert A.class_inverse is None
    K, c1, cond = coset27.class_inverse
    assert coset27.class_inverse[0] is K
    C = coset27.mat[:, coset27.column_classes[1]]
    assert np.allclose(K @ (C.T @ C), np.eye(27), atol=1e-12) and np.array_equal(K, K.T)
    assert np.allclose(C @ c1, 1.0, atol=1e-13)
    assert abs(cond - np.linalg.cond(C.T @ C)) <= 1e-9 * cond
    assert not K.flags.writeable and not c1.flags.writeable


def test_draws_on_column_classes_get_the_same_bits_alone_as_in_a_stack(coset27, monkeypatch):
    # tied (epsilon = 0) and untied (epsilon = 0.1) draws of the coset
    # design in one call, with the empty and the full set, and a draw with a
    # zero diagonal whose reduced system clears no certificate, so it takes
    # the route table on B_S: each set gets exactly its result alone, within
    # 1e-9 * mk of the SVD projection
    routes = _spy_routes(monkeypatch)
    rng = np.random.default_rng(8)
    draws = [gc.draw_diagonals(coset27, 2, gc.DiagonalLaw(eps), seed=s) for s in range(12) for eps in (0.0, 0.1)]
    zeroed = draws[5].diagonals.copy()
    zeroed[:, 3] = 0.0
    draws[5] = gc.DiagonalDraws(diagonals=zeroed)
    sets = [gc.sample_straggler_set(gc.Bernoulli(0.25), 54, rng) for _ in draws]
    sets[5] = gc.NonStragglerSet(n=54, members=range(10))
    sets[7], sets[8] = gc.NonStragglerSet(n=54, members=()), gc.NonStragglerSet.full(54)
    got = gc.decode_draws(coset27, draws, sets)
    assert "svd" in routes
    F = gc.build_target(27, 2)
    for draw, workers, res in zip(draws, sets, got):
        one = gc.decode_draws(coset27, [draw], [workers])[0]
        assert one.err == res.err and np.array_equal(one.coeffs, res.coeffs)
        assert np.array_equal(one.fitted, res.fitted)
        members = list(workers.members)
        b_s = (coset27.mat[:, members] * draw.diagonals[:, None, members]).reshape(54, -1)
        assert abs(res.err - project(b_s, F)[1]) <= 1e-9 * 54


@pytest.mark.parametrize("family", ("bireg40", "paley13"))
def test_draws_of_a_design_without_repeated_columns_skip_the_classes(request, family, monkeypatch):
    # every set gets the route table's result on B_S itself, bit for bit
    A = request.getfixturevalue(family)
    monkeypatch.setattr(decoding, "_class_factors", None)
    rng = np.random.default_rng(2)
    draws = [gc.draw_diagonals(A, m, gc.DiagonalLaw(eps), seed=s) for s in range(6) for m, eps in ((1, 0.0), (2, 0.1))]
    sets = [gc.sample_straggler_set(gc.Bernoulli(0.3), A.n, rng) for _ in draws]
    gram_a, colsum = A.mat.T @ A.mat, A.mat.sum(axis=0)
    for m in (1, 2):
        pick = [j for j, draw in enumerate(draws) if len(draw.diagonals) == m]
        got = gc.decode_draws(A, [draws[j] for j in pick], [sets[j] for j in pick])
        for j, res in zip(pick, got):
            idx = np.array([sets[j].members], dtype=np.intp)
            solved, err, ok = decoding._draw_stack(A, gram_a, colsum, idx, draws[j].diagonals[None][:, :, idx[0]])
            coeffs = np.zeros((A.n, m))
            if ok[0]:
                coeffs[idx[0]], err = solved[0], err[0]
            else:
                coeffs[idx[0]], err = project(_block_columns(A, draws[j].diagonals, idx[0]), gc.build_target(A.k, m))
            assert res.err == err and np.array_equal(res.coeffs, coeffs)


def test_decode_exact_decodes_equal_copies_as_one_group(coset27, monkeypatch):
    # distinct stacked-copies encodings of one design and m (a training run
    # builds one per repetition) decode as one group, each set exactly as
    # decode; a baseline whose blocks are equal but not A, and one whose
    # blocks differ, are not copies and keep their own groups, in
    # decode_each too. Every encoding of a group has its shapes checked
    calls = []
    one = decoding._decode_one
    monkeypatch.setattr(decoding, "_decode_one", lambda B, sets, whole: calls.append(len(sets)) or one(B, sets, whole))
    equal = [gc.encode_baseline(coset27, 2) for _ in range(3)]
    mat = equal[0].mat.copy()
    mat[:, 4] *= 2.0
    copies = dataclasses.replace(equal[0], mat=mat)
    mat = mat.copy()
    mat[:27, 6] = 0.0
    uneven = dataclasses.replace(equal[0], mat=mat)
    assert not copies.stacked_copies and not uneven.stacked_copies
    rng = np.random.default_rng(4)
    encodings = [B for _ in range(4) for B in (*equal, copies, uneven)]
    sets = [gc.sample_straggler_set(gc.Bernoulli(0.25), 54, rng) for _ in encodings]
    got = gc.decode_exact(encodings, sets)
    assert calls == [12, 4, 4]
    for B, workers, res in zip(encodings, sets, got):
        ref = gc.decode(B, workers)
        assert res.err == ref.err and np.array_equal(res.coeffs, ref.coeffs)
        assert np.array_equal(res.fitted, ref.fitted)
    calls.clear()
    gc.decode_each(encodings, sets)
    assert calls == [12, 4, 4]
    # an equal copy whose parent has k = 27 but n = 27 is refused behind a
    # valid one, as alone
    other = gc.AssignmentMatrix(np.eye(27), delta=1, gamma=1, family="identity", params=None)
    wrong = dataclasses.replace(equal[1], parent=other)
    for pair in ([equal[0], wrong], [wrong, equal[0]]):
        with pytest.raises(ShapeError):
            gc.decode_exact(pair, sets[:2])


def test_decode_draws_checks_its_inputs(fano, coset27):
    draws = [gc.draw_diagonals(fano, 2, gc.DiagonalLaw(0.0), seed=s) for s in range(2)]
    full = gc.NonStragglerSet.full(7)
    assert gc.decode_draws(fano, [], []) == []
    with pytest.raises(ShapeError):
        gc.decode_draws(fano, draws, [full])
    with pytest.raises(ShapeError):
        gc.decode_draws(fano, draws, [full, gc.NonStragglerSet.full(6)])
    with pytest.raises(ShapeError):
        gc.decode_draws(coset27, draws, [gc.NonStragglerSet.full(54)] * 2)
    with pytest.raises(ShapeError):
        gc.decode_draws(fano, [draws[0], gc.draw_diagonals(fano, 3, gc.DiagonalLaw(0.0), seed=0)], [full] * 2)
    # the diagonals are those encode_random_diagonal draws from the seed
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.3), seed=4)
    assert np.array_equal(gc.draw_diagonals(fano, 2, gc.DiagonalLaw(0.3), seed=4).diagonals, B.diagonals)


def test_recurring_merged_copies_decode_in_stacks_exactly_as_decode(coset27_singular, monkeypatch):
    # the coset baseline repeats columns of A (its A is m equal circulant
    # blocks); with a singular block there is no class inverse, so its sets
    # are grouped by size, and each group is decoded in stacks of their
    # blocks A_S: every result is bitwise decode's, and only a member that
    # fails its stack's certificate goes to the SVD of its B_S, as does the
    # empty set
    coset27 = coset27_singular
    B = gc.encode_baseline(coset27, 2)
    assert coset27.column_classes is not None and B.gram_tier is None and coset27.class_inverse is None
    stacks = _spy_stacks(monkeypatch, "_copies_stack")
    projected = _spy_projected(monkeypatch)
    rng = np.random.default_rng(9)
    sets = [gc.sample_straggler_set(gc.Bernoulli(q), 54, rng) for q in (0.1, 0.25, 0.5, 0.8) for _ in range(40)]
    sets += [gc.NonStragglerSet(n=54, members=()), gc.NonStragglerSet.full(54)]
    got = gc.decode_each([B] * len(sets), sets)
    assert max(len(rows) for rows, _ in stacks) > 1
    for rows, solved in stacks:
        assert len({len(members) for members in rows}) == 1
    failed = [members for rows, solved in stacks for members, ok in zip(rows, solved) if not ok]
    assert sorted(b_s.tobytes() for b_s in projected) == _columns(B, failed + [[]])
    for workers, res in zip(sets, got):
        ref = gc.decode(B, workers)
        assert res.err == ref.err and np.array_equal(res.coeffs, ref.coeffs)
        assert np.array_equal(res.fitted, ref.fitted)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", FAMILIES)
def test_decode_exact_is_decode_bit_for_bit(request, family, scheme):
    # recurring encodings of every tier (the 1e8 whole-Gram inverse and the
    # 1e12 stacks of decode_each are not taken) and draws carrying one set
    # each: every result is exactly decode's
    A = request.getfixturevalue(family)
    rng = np.random.default_rng(13)
    sets = _mixed_sets(A.n, rng) * 2
    pool = [_encode(A, scheme, seed) for seed in range(2)]
    encodings = [pool[j % 2] for j in range(len(sets) - 3)] + [_encode(A, scheme, seed) for seed in (2, 3, 4)]
    extra = []
    if family == "bireg40":
        extra = [
            gc.encode_nullspace_hadamard(A, 2, v1_policy=gc.V1_GAUSSIAN, seed=18),  # the 1e12 tier
            gc.encode_random_diagonal(A, 1, gc.DiagonalLaw(0.1), seed=2),  # no tier
        ]
    for B in extra:
        encodings += [B] * 6
        sets += [gc.sample_straggler_set(gc.FixedCount(s), A.n, rng) for s in (0, 2, 5, 20, 25, 30)]
    got = gc.decode_exact(encodings, sets)
    for B, workers, res in zip(encodings, sets, got):
        ref = gc.decode(B, workers)
        assert res.err == ref.err and np.array_equal(res.coeffs, ref.coeffs)
        assert np.array_equal(res.fitted, ref.fitted)


# ---------------------------------------------------------------------------
# designs of constant overlap: draws and stacked copies in closed form

BIBDS = ("fano", "biplane11", "bibd13", "bibd91")


def _spy_closed_form(monkeypatch):
    """Record the verdicts of every closed-form stack."""
    verdicts = []
    closed = decoding._closed_form

    def spy(*args):
        ok = closed(*args)
        verdicts.append(ok.copy())
        return ok

    monkeypatch.setattr(decoding, "_closed_form", spy)
    return verdicts


def _block_columns(A, diagonals, members):
    """B_S of the encoding whose blocks are A D_u, for the m x n diagonals."""
    m = len(diagonals)
    return (A.mat[:, members] * diagonals[:, None, members]).reshape(m * A.k, len(members))


def test_overlap_only_on_bibd_transposes(fano, biplane11, bibd13, bibd91, coset27, bireg40, paley13):
    for A in (fano, biplane11, bibd13, bibd91):
        lam = A.params.lam
        assert A.overlap == lam == (2 if A is biplane11 else 1)
        assert np.array_equal(A.gram, (A.delta - lam) * np.eye(A.n) + lam * np.ones((A.n, A.n)))
        assert not A.gram.flags.writeable
    for A in (coset27, bireg40, paley13):
        assert A.overlap is None
    # disjoint supports overlap in nothing
    assert gc.AssignmentMatrix(np.eye(4), delta=1, gamma=1, family="identity", params=None).overlap == 0


@pytest.mark.parametrize("family", BIBDS)
def test_closed_form_matches_projection_on_bibd_transposes(request, family, monkeypatch):
    # random-diagonal draws (epsilon 0, 0.3 and 0.9) and stacked copies of
    # a BIBD transpose (lambda = 1, and 2 on the biplane), m = 1 to 3,
    # recurring or carrying one set, with the empty and the full set:
    # within 1e-9 * mk of project(B_S). The closed form clears every set
    # but the empty one, and the rank rule finds each of those B_S of full
    # column rank. No whole Gram is computed
    A = request.getfixturevalue(family)
    verdicts = _spy_closed_form(monkeypatch)
    rng = np.random.default_rng(A.n)
    for m in (1, 2, 3):
        mk = m * A.k
        pool = [gc.encode_baseline(A, m)]
        pool += [gc.encode_random_diagonal(A, m, gc.DiagonalLaw(eps), seed=s) for eps in (0.0, 0.3, 0.9) for s in range(2)]
        pool += [gc.encode_random_diagonal(A, m, gc.DiagonalLaw(0.3), seed=s) for s in (7, 8)]
        encodings = [pool[j % 7] for j in range(21)] + pool[7:]
        sizes = rng.integers(0, A.n + 1, size=len(encodings))
        sizes[:2] = 0, A.n
        sets = [gc.NonStragglerSet(n=A.n, members=rng.choice(A.n, size=size, replace=False)) for size in sizes]
        verdicts.clear()
        got = gc.decode_each(encodings, sets)
        assert sum(int((~ok).sum()) for ok in verdicts) == int((sizes == 0).sum())
        F = gc.build_target(A.k, m)
        for B, workers, res in zip(encodings, sets, got):
            members = list(workers.members)
            diagonals = np.ones((m, A.n)) if B.diagonals is None else B.diagonals
            b_s = _block_columns(A, diagonals, members)
            ref_coeffs, ref_err = project(b_s, F)
            assert abs(res.err - ref_err) <= 1e-9 * mk
            assert np.allclose(res.coeffs[members], ref_coeffs, rtol=0.0, atol=1e-9)
            assert np.allclose(res.fitted, B.mat @ res.coeffs, rtol=0.0, atol=1e-12)
            assert rank_of(b_s) == len(members)
        for B in pool:
            assert not {"gram", "gram_tier", "gram_inverse"} & B.__dict__.keys()


@pytest.mark.parametrize("family", BIBDS)
def test_closed_form_gives_the_same_bits_alone_as_in_a_stack(request, family):
    # each set of a recurring draw or copies, of draws carrying one set, in
    # decode_each, decode_exact and decode_draws: exactly decode's result
    A = request.getfixturevalue(family)
    rng = np.random.default_rng(1)
    for m in (1, 2, 3):
        pool = [gc.encode_baseline(A, m)] + [gc.encode_random_diagonal(A, m, gc.DiagonalLaw(0.3), seed=s) for s in range(3)]
        encodings = [pool[j % 4] for j in range(20)] + [gc.encode_random_diagonal(A, m, gc.DiagonalLaw(0.0), seed=9)]
        sets = [gc.sample_straggler_set(gc.Bernoulli(0.3), A.n, rng) for _ in encodings]
        drawn = [j for j, B in enumerate(encodings) if B.diagonals is not None]
        alone = [gc.decode(B, workers) for B, workers in zip(encodings, sets)]
        draws = gc.decode_draws(A, [encodings[j].randomness for j in drawn], [sets[j] for j in drawn])
        for stacked in (gc.decode_each(encodings, sets), gc.decode_exact(encodings, sets), draws):
            ref = alone if stacked is not draws else [alone[j] for j in drawn]
            for one, res in zip(ref, stacked):
                assert res.err == one.err and np.array_equal(res.coeffs, one.coeffs)
                assert np.array_equal(res.fitted, one.fitted)


def test_closed_form_refusals_fall_back_and_match_projection(fano, bibd91, monkeypatch):
    # hand-built draws that the closed-form certificate refuses: a survivor
    # with a zero diagonal (Lambda_j = 0, B_S rank-deficient) and one whose
    # diagonal entries are 1e-9 (cond_2(G_SS) near 1e18). They take the
    # stacks of _draw_stack, then the SVD of B_S, and match project(B_S)
    # within 1e-9 * mk
    verdicts = _spy_closed_form(monkeypatch)
    routes = _spy_routes(monkeypatch)
    for A, m in ((fano, 1), (fano, 2), (bibd91, 2)):
        base = gc.draw_diagonals(A, m, gc.DiagonalLaw(0.3), seed=0).diagonals
        zero, tiny = base.copy(), base.copy()
        zero[:, 2] = 0.0
        tiny[:, 2] = 1e-9
        # at m = 1 the tiny draw's SVD error can miss its direct residual
        # (README, Known limits), so only m = 2 takes it
        draws = [gc.DiagonalDraws(diagonals=d) for d in (base, zero, tiny)[: m + 1]] * 2
        sets = [gc.NonStragglerSet(n=A.n, members=range(0, A.n, 2))] * len(draws)
        verdicts.clear()
        routes.clear()
        got = gc.decode_draws(A, draws, sets)
        assert verdicts[0].tolist() == [draw.diagonals is base for draw in draws]
        assert "svd" in routes
        F = gc.build_target(A.k, m)
        for draw, workers, res in zip(draws, sets, got):
            members = list(workers.members)
            assert abs(res.err - project(_block_columns(A, draw.diagonals, members), F)[1]) <= 1e-9 * m * A.k


def test_closed_form_with_a_wrong_overlap_raises(fano, monkeypatch):
    # lambda = 2 injected behind the decode's back on a design whose
    # overlap is 1: the coefficients are not the survivors' optimum, and
    # the error disagrees with the directly computed residual
    workers = gc.NonStragglerSet(n=7, members=(0, 2, 3, 5))
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.3), seed=0)
    gc.decode(B, workers)
    monkeypatch.setitem(fano.__dict__, "overlap", 2)
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode(B, workers)
    with pytest.raises(NumericalError, match="direct residual"):
        gc.decode_each([gc.encode_baseline(fano, 2)] * 2, [workers] * 2)


@pytest.mark.parametrize("family", ("fano", "bibd91"))
def test_closed_form_makes_the_bibd_closed_forms_exact_per_set(request, family):
    # the baseline's error is baseline_bibd_error(p, m, s) for every set of
    # n - s survivors; at m = 1 and epsilon = 0, every random-diagonal set's
    # error is bound_bibd(p, 1, s): the paper's bound holds with equality
    A = request.getfixturevalue(family)
    p = A.params
    rng = np.random.default_rng(5)
    sizes = list(range(A.n + 1)) * 2
    sets = [gc.NonStragglerSet(n=A.n, members=rng.choice(A.n, size=size, replace=False)) for size in sizes]
    for m in (1, 2, 3):
        got = gc.decode_each([gc.encode_baseline(A, m)] * len(sets), sets)
        for workers, res in zip(sets, got):
            assert abs(res.err - gc.baseline_bibd_error(p, m, workers.s).value) <= 1e-12 * m * A.k
    draws = [gc.draw_diagonals(A, 1, gc.DiagonalLaw(0.0), seed=s) for s in range(len(sets))]
    for workers, res in zip(sets, gc.decode_draws(A, draws, sets)):
        assert abs(res.err - gc.bound_bibd(p, 1, workers.s).value) <= 1e-12 * A.k


def _drawn_sets(n, rng):
    """Sets the library draws, of mixed sizes, the full and the empty set
    among them: FixedCount, Bernoulli and exhaustive draws."""
    drawn = [gc.sample_straggler_set(gc.FixedCount(s), n, rng) for s in (0, n, 1, n // 3, n // 2, n - 1)]
    drawn += [gc.sample_straggler_set(gc.Bernoulli(q), n, rng) for q in (0.1, 0.3, 0.6)]
    every = experiments._iter_sets(types.SimpleNamespace(set_draws="all"), n, 2, rng)
    return drawn + next(every)[:3]


def _same_bits(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.coeffs.tobytes() == y.coeffs.tobytes()
        assert x.fitted.tobytes() == y.fitted.tobytes()
        assert np.float64(x.err).tobytes() == np.float64(y.err).tobytes()


def _bound_or_singular(B, workers):
    try:
        return np.float64(gc.bound_diag_dominant(B, workers).value).tobytes()
    except SingularMatrixError:
        return "singular"


@pytest.mark.parametrize("family", ("fano", "coset27", "bireg40"))
def test_drawn_and_hand_built_sets_give_the_same_bits(request, family):
    # a drawn set carries its draw's index array; the same members built by
    # hand build theirs from the tuple on first use. Every reader of the
    # index gives both the same bits, alone or mixed in one call
    A = request.getfixturevalue(family)
    drawn = _drawn_sets(A.n, np.random.default_rng(23))
    assert {len(w.members) for w in drawn} >= {0, A.n}
    built = [gc.NonStragglerSet(n=A.n, members=w.members) for w in drawn]
    assert built == drawn
    assert all("index" not in vars(w) for w in built)
    mixed = [(w, v)[j % 2] for j, (w, v) in enumerate(zip(drawn, built))]
    law = gc.DiagonalLaw(0.1)
    fixed = [gc.encode_random_diagonal(A, 2, law, seed=0), gc.encode_baseline(A, 2)]
    if family == "bireg40":
        fixed += [
            gc.encode_nullspace_hadamard(A, 2, constrain_pm1=True, seed=0),
            gc.encode_nullspace_hadamard(A, 2, v1_policy=gc.V1_GAUSSIAN, seed=0),
        ]
    one_each = [gc.encode_random_diagonal(A, 2, law, seed=j) for j in range(len(drawn))]
    draws = [B.randomness for B in one_each]
    for decode in (gc.decode_each, gc.decode_exact):
        for B in fixed:
            want = decode([B] * len(built), built)
            _same_bits(decode([B] * len(drawn), drawn), want)
            _same_bits(decode([B] * len(mixed), mixed), want)
            _same_bits([gc.decode(B, w) for w in drawn], [gc.decode(B, w) for w in built])
        _same_bits(decode(one_each, mixed), decode(one_each, built))
    _same_bits(gc.decode_draws(A, draws, drawn), gc.decode_draws(A, draws, built))
    _same_bits(gc.decode_draws(A, draws, mixed), gc.decode_draws(A, draws, built))
    for B in fixed:
        assert [_bound_or_singular(B, w) for w in drawn] == [_bound_or_singular(B, w) for w in built]
