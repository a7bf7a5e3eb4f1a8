import dataclasses
import itertools
from math import sqrt

import numpy as np
import pytest

import gradcoding as gc
from gradcoding import bounds
from gradcoding.errors import ParameterError, SingularMatrixError
from gradcoding.linalg import rank_of

FANO = gc.BibdParams(n=7, k=7, gamma=3, delta=3, lam=1)
BIG = gc.BibdParams(n=91, k=91, gamma=10, delta=10, lam=1)
PALEY13 = gc.SrgParams(n=13, delta=6, lam=2, mu=3)


def _closed_forms_at(m):
    """Each closed form that takes m, called at that m."""
    fano = gc.bibd_transpose_from_difference_set([0, 1, 3], 7)
    return {
        "bound_expected": lambda: gc.bound_expected(fano, gc.NonStragglerSet(n=7, members=(0, 2, 4)), m, 1.0),
        "bound_bibd": lambda: gc.bound_bibd(FANO, m, 2),
        "bound_srg": lambda: gc.bound_srg(PALEY13, m, 2),
        "baseline_bibd_error": lambda: gc.baseline_bibd_error(FANO, m, 2),
        "lower_bound": lambda: gc.lower_bound(7, 7, 3, m, 2),
    }


@pytest.mark.parametrize("m", [2.5, 2.0, True, np.bool_(True), "2", None, 0, -1])
@pytest.mark.parametrize("name", sorted(_closed_forms_at(2)))
def test_closed_forms_refuse_a_non_integer_m(name, m):
    # a fractional or float m gave a value, True the m = 1 value, and
    # lower_bound a TypeError from range
    with pytest.raises(ParameterError, match=r"^m must be an integer >= 1, got "):
        _closed_forms_at(m)[name]()


@pytest.mark.parametrize("name", sorted(_closed_forms_at(2)))
def test_closed_forms_take_a_numpy_integer_m(name):
    assert _closed_forms_at(np.int64(2))[name]() == _closed_forms_at(2)[name]()


def test_c_frozen_values():
    assert gc.compute_c(0.0) == 1.0
    assert gc.compute_c(0.1) == pytest.approx(1.0134680134680136, abs=1e-15)
    assert gc.compute_c(0.5) == pytest.approx(13.0 / 9.0, abs=1e-15)


def test_c_strictly_increasing_and_bounded_domain():
    grid = np.linspace(0.0, 0.95, 40)
    vals = [gc.compute_c(e) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ParameterError):
        gc.compute_c(1.0)
    with pytest.raises(ParameterError):
        gc.compute_c(-0.01)


def test_design_bound_frozen_values():
    assert gc.bound_bibd(BIG, 2, 0).value == pytest.approx(16.545454545454547, abs=1e-12)
    assert gc.bound_bibd(FANO, 2, 0).value == pytest.approx(3.5, abs=1e-12)
    assert gc.bound_bibd(FANO, 2, 1).value == pytest.approx(46.0 / 11.0, abs=1e-12)
    # one block: the combination is recovered exactly with no stragglers
    assert gc.bound_bibd(FANO, 1, 0).value == pytest.approx(0.0, abs=1e-12)


def test_design_bound_domain():
    with pytest.raises(ParameterError):
        gc.bound_bibd(FANO, 2, 8)
    with pytest.raises(ParameterError):
        gc.bound_bibd(FANO, 2, -1)
    with pytest.raises(ParameterError):
        gc.bound_bibd(FANO, 0, 0)


def test_repetition_error_frozen_values():
    assert gc.baseline_bibd_error(BIG, 2, 0).value == pytest.approx(91.0, abs=1e-12)
    assert gc.baseline_bibd_error(FANO, 2, 0).value == pytest.approx(7.0, abs=1e-12)
    assert gc.baseline_bibd_error(FANO, 2, 7).value == 14.0
    assert gc.baseline_bibd_error(FANO, 1, 2).value == pytest.approx(
        7.0 - 45.0 / 7.0, abs=1e-12
    )


def test_gram_bound_equals_design_closed_form(fano):
    # cross-oracle: the general Gram-form bound must reproduce the design
    # closed form on every survivor-set size (the Gram there is
    # (delta-lam) I + lam J restricted, making the solve analytic); at s = n
    # both are mk
    for s in range(8):
        want = gc.bound_bibd(FANO, 2, s).value
        for members in itertools.combinations(range(7), 7 - s):
            got = gc.bound_expected(
                fano, gc.NonStragglerSet(n=7, members=members), 2, c=1.0
            ).value
            assert got == pytest.approx(want, abs=1e-9)


def test_adjacency_theta_branches():
    assert gc.srg_theta(PALEY13) == pytest.approx(-(1.0 + sqrt(13.0)) / 2.0, abs=1e-12)
    assert gc.srg_theta(gc.SrgParams(n=5, delta=2, lam=1, mu=0)) == 2.0


def test_adjacency_bound_frozen_value():
    got = gc.bound_srg(PALEY13, 1, 0).value
    want = 13.0 - 468.0 / (42.0 + (1.0 + sqrt(13.0)) / 2.0)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(2.4363, abs=1e-4)


def test_adjacency_bound_domain():
    with pytest.raises(ParameterError):
        gc.bound_srg(PALEY13, 2, 14)


def test_coset_bound_frozen_values():
    p27 = gc.CosetParams(k=27, m=2, delta=5, generating_set=tuple(range(5)))
    got = gc.bound_coset(p27, 0, gc.compute_c(0.1))
    assert got.value == pytest.approx(4.969122592479366, abs=1e-12)
    tiny = gc.CosetParams(k=3, m=2, delta=1, generating_set=(0,))
    assert gc.bound_coset(tiny, 0, 1.0).value == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ParameterError):
        gc.bound_coset(tiny, 7, 1.0)


def test_fixed_encoding_bound_dominates_error(bireg40):
    B = gc.encode_nullspace_hadamard(bireg40, 2, seed=0)
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(20):
        members = tuple(int(j) for j in np.sort(rng.choice(40, size=34, replace=False)))
        workers = gc.NonStragglerSet(n=40, members=members)
        try:
            limit = gc.bound_diag_dominant(B, workers).value
        except SingularMatrixError:
            continue
        assert gc.decode(B, workers).err <= limit + 1e-8
        checked += 1
    assert checked > 0


def test_fixed_encoding_bound_empty_set(bireg40):
    B = gc.encode_nullspace_hadamard(bireg40, 2, seed=0)
    empty = gc.NonStragglerSet(n=40, members=())
    assert gc.bound_diag_dominant(B, empty).value == 40.0


def test_fixed_encoding_bound_requires_invertible_gram(coset_small):
    # stacked copies over more survivors than rows: the Gram is singular
    B = gc.encode_baseline(coset_small, 2)
    with pytest.raises(SingularMatrixError):
        gc.bound_diag_dominant(B, gc.NonStragglerSet.full(6))


def test_stacked_baseline_shortcut_agrees_with_the_rank_rule(bireg40, coset27, monkeypatch):
    # more than k survivors of 1_m (x) A are refused without a rank_of call,
    # and the rank rule on B_S agrees that each such set is deficient
    calls = []
    monkeypatch.setattr(bounds, "rank_of", lambda mat: calls.append(1) or rank_of(mat))
    for A in (bireg40, coset27):
        for m in (1, 2):
            B = gc.encode_baseline(A, m)
            rng = np.random.default_rng(m)
            for size in range(A.k + 1, A.n + 1):
                members = list(np.sort(rng.choice(A.n, size=size, replace=False)))
                calls.clear()
                with pytest.raises(SingularMatrixError):
                    gc.bound_diag_dominant(B, gc.NonStragglerSet(n=A.n, members=members))
                assert not calls
                assert rank_of(B.mat[:, members]) < size


def _reference_diag_dominant(B, workers):
    """bound_diag_dominant's value on a set it certifies, its reductions
    taken by numpy's functions: the reference its method reductions match
    bit for bit."""
    idx = np.array(workers.members, dtype=np.intp)
    full_gram, full_image = B.gram
    gram = full_gram.take(idx, axis=0).take(idx, axis=1)
    majorant = np.sum(np.abs(gram), axis=1)
    image = full_image.take(idx, axis=0)
    return B.m * B.k - float(np.sum(image * image / majorant[:, None]))


def test_stacked_copies_bound_refuses_before_reading_the_gram(bireg40, coset27):
    # more than k survivors of 1_m (x) A are refused before B.gram is even
    # computed; every set the bound certifies, of copies or of a null-space
    # encoding, keeps its value bit for bit
    for A in (bireg40, coset27):
        for m in (1, 2):
            B = gc.encode_baseline(A, m)
            rng = np.random.default_rng(m)
            for size in (A.k + 1, (A.k + A.n) // 2, A.n):
                workers = gc.NonStragglerSet(n=A.n, members=rng.choice(A.n, size=size, replace=False))
                with pytest.raises(SingularMatrixError):
                    gc.bound_diag_dominant(B, workers)
            assert "gram" not in vars(B)
    rng = np.random.default_rng(0)
    certified = 0
    for B in (gc.encode_baseline(bireg40, 2), gc.encode_nullspace_hadamard(bireg40, 2, seed=1)):
        for size in range(1, B.n + 1, 3):
            workers = gc.NonStragglerSet(n=B.n, members=rng.choice(B.n, size=size, replace=False))
            try:
                value = gc.bound_diag_dominant(B, workers).value
            except SingularMatrixError:
                continue
            assert value == _reference_diag_dominant(B, workers)
            certified += 1
    assert certified > 10


def test_fixed_encoding_bound_skips_the_certificate_under_a_certified_gram(bireg40, monkeypatch):
    # a whole Gram that certify_gram clears certifies every survivor block
    # by interlacing: no per-set certificate runs, and each bound is the
    # one the per-set certificate gives
    B = gc.encode_nullspace_hadamard(bireg40, 2, seed=1)
    assert B.gram_inverse is not None
    per_set = gc.encode_nullspace_hadamard(bireg40, 2, seed=1)
    per_set.__dict__["gram_tier"] = None
    rng = np.random.default_rng(2)
    sets = [gc.NonStragglerSet(n=40, members=rng.choice(40, size=size, replace=False)) for size in range(1, 41, 3)]
    expected = [gc.bound_diag_dominant(per_set, workers).value for workers in sets]
    calls = []
    monkeypatch.setattr(bounds, "certify_gram", lambda gram: calls.append(1) or True)
    monkeypatch.setattr(bounds, "rank_of", lambda mat: calls.append(1) or 0)
    assert [gc.bound_diag_dominant(B, workers).value for workers in sets] == expected
    assert not calls


def test_fixed_encoding_bound_skips_the_rank_checks_under_a_qr_tier_gram(bireg40, monkeypatch):
    # a whole Gram that clears only the 1e12 tier gives every survivor block
    # cond_2 < 1e12 by interlacing, so every B_S has full column rank:
    # neither certify_gram nor rank_of runs, and each bound is the one the
    # per-set checks give, which call rank_of on the sets whose own Gram
    # fails the 1e8 certificate (the full set among them)
    B = gc.encode_nullspace_hadamard(bireg40, 2, v1_policy=gc.V1_GAUSSIAN, seed=18)
    assert B.gram_tier == gc.QR_COND_MAX
    per_set = gc.encode_nullspace_hadamard(bireg40, 2, v1_policy=gc.V1_GAUSSIAN, seed=18)
    per_set.__dict__["gram_tier"] = None
    rng = np.random.default_rng(5)
    sets = [gc.NonStragglerSet(n=40, members=rng.choice(40, size=size, replace=False)) for size in range(1, 41, 3)]
    sets += [gc.NonStragglerSet.full(40)] + [gc.sample_straggler_set(gc.FixedCount(1), 40, rng) for _ in range(5)]
    ranks = []
    monkeypatch.setattr(bounds, "rank_of", lambda mat: ranks.append(1) or rank_of(mat))
    expected = [gc.bound_diag_dominant(per_set, workers).value for workers in sets]
    assert ranks
    calls = []
    monkeypatch.setattr(bounds, "certify_gram", lambda gram: calls.append(1) or True)
    monkeypatch.setattr(bounds, "rank_of", lambda mat: calls.append(1) or 0)
    assert [gc.bound_diag_dominant(B, workers).value for workers in sets] == expected
    assert not calls


def test_fixed_encoding_bound_uses_the_decode_rank_rule(fano):
    # two survivor columns parallel to within 1e-7: full rank under the rank
    # rule on B_S (singular values 1e-8 apart), singular on G_S (1e-16)
    B = gc.encode_random_diagonal(fano, 2, gc.DiagonalLaw(0.0), seed=0)
    mat = B.mat.copy()
    mat[:, 1] = mat[:, 0] + 1e-7 * np.random.default_rng(0).standard_normal(14)
    near = dataclasses.replace(B, mat=mat)
    workers = gc.NonStragglerSet(n=7, members=(0, 1))
    assert rank_of(mat[:, :2]) == 2
    assert rank_of(near.gram[0][:2, :2]) == 1
    assert gc.bound_diag_dominant(near, workers).value >= gc.decode(near, workers).err


@pytest.mark.parametrize("design", ["paley13", "coset27_m1"])
def test_random_diagonal_m1_error_is_the_expected_formula(request, design):
    # For m = 1 the diagonal cancels from the decode, so with epsilon = 0 the
    # realized error equals the expected-error formula on every set.
    if design == "paley13":
        A = request.getfixturevalue("paley13")
    else:
        A = gc.coset_bipartite(gc.CosetParams(k=27, m=1, delta=5, generating_set=tuple(range(5))))
    B = gc.encode_random_diagonal(A, 1, gc.DiagonalLaw(0.0), seed=0)
    rng = np.random.default_rng(0)
    sets = [gc.NonStragglerSet.full(A.n)]
    sets += [gc.sample_straggler_set(gc.FixedCount(s), A.n, rng) for s in range(1, 6) for _ in range(4)]
    for workers in sets:
        expected = gc.bound_expected(A, workers, 1, 1.0).value
        assert abs(gc.decode(B, workers).err - expected) <= 1e-8, workers.s


def test_gram_bound_empty_and_singular(fano, coset_small):
    empty = gc.NonStragglerSet(n=7, members=())
    assert gc.bound_expected(fano, empty, 2, c=1.0).value == 14.0
    with pytest.raises(SingularMatrixError):
        gc.bound_expected(coset_small, gc.NonStragglerSet.full(6), 1, c=1.0)


def test_worst_case_floor_frozen_integer_values():
    assert gc.lower_bound(8, 8, 4, 2, 5).value == 2.0
    assert gc.lower_bound(8, 8, 4, 2, 3).value == 1.0
    assert gc.lower_bound(8, 8, 4, 2, 0).value == 0.0
    assert gc.lower_bound(7, 7, 3, 1, 0).value == 0.0
    for s in range(9):
        v = gc.lower_bound(8, 8, 4, 2, s).value
        assert v == float(int(v))


def _floor_by_loop(n, k, delta, m, s):
    # the definition: one product per u = 1..m, the count clipped at k
    return max(0, *(min(k * (s + m - u) // (n * delta), k) * u for u in range(1, m + 1)))


@pytest.mark.parametrize("design", ["fano", "paley13", "coset_small", "coset27", "bireg40", "bibd91"])
def test_worst_case_floor_matches_the_loop(request, design):
    A = request.getfixturevalue(design)
    for m, s in itertools.product(range(1, 25), range(A.n + 1)):
        got = gc.lower_bound(A.n, A.k, A.delta, m, s).value
        assert got == float(_floor_by_loop(A.n, A.k, A.delta, m, s)), (m, s)


def test_worst_case_floor_validation():
    with pytest.raises(ParameterError):
        gc.lower_bound(8, 8, 4, 2, 9)
    with pytest.raises(ParameterError):
        gc.lower_bound(0, 8, 4, 2, 1)


def _best_adversarial_err(A, m, s, seed=0):
    B = gc.encode_random_diagonal(A, m, gc.DiagonalLaw(0.0), seed=seed)
    best = 0.0
    for u in range(1, m + 1):
        workers = gc.adversarial_straggler_set(A, m, s, u)
        assert workers.s == s
        best = max(best, gc.decode(B, workers).err)
    return best


def test_adversarial_set_achieves_floor(fano, paley13, coset27):
    cases = [(fano, (3, 5)), (paley13, (10, 12)), (coset27, (10, 20))]
    for A, s_values in cases:
        for s in s_values:
            floor_val = gc.lower_bound(A.n, A.k, A.delta, 2, s).value
            assert floor_val > 0.0
            assert _best_adversarial_err(A, 2, s) >= floor_val - 1e-8


@pytest.mark.parametrize("s", [0, 3, 7])
def test_worst_case_floor_stays_below_mk_and_the_adversarial_error(fano, s):
    # at m = 100 the unclipped count would exceed k: 833 > mk = 700 at s = 0
    m = 100
    floor_val = gc.lower_bound(fano.n, fano.k, fano.delta, m, s).value
    assert floor_val <= m * fano.k
    assert floor_val <= _best_adversarial_err(fano, m, s) + 1e-8


def test_adversarial_set_pads_to_exact_size(fano):
    # u = m leaves a small neighborhood; padding must still erase exactly s
    workers = gc.adversarial_straggler_set(fano, 2, 6, 2)
    assert workers.s == 6
    with pytest.raises(ParameterError):
        gc.adversarial_straggler_set(fano, 2, 3, 0)
    with pytest.raises(ParameterError):
        gc.adversarial_straggler_set(fano, 2, 8, 1)


def test_bound_report_rejects_nonfinite():
    with pytest.raises(ParameterError):
        gc.BoundReport(kind=gc.LOWER, value=float("nan"))


def test_bound_reports_carry_kind_tags():
    assert gc.bound_bibd(FANO, 2, 0).kind == gc.BIBD_UPPER
    assert gc.bound_srg(PALEY13, 1, 0).kind == gc.SRG_UPPER
    assert gc.lower_bound(8, 8, 4, 2, 5).kind == gc.LOWER
    assert gc.baseline_bibd_error(FANO, 2, 0).kind == gc.BASELINE_BIBD


def test_closed_form_table_applies_by_family_epsilon_and_s(fano, paley13, coset27, bireg40):
    kinds = gc.bounds.applicable_kinds
    assert kinds(fano.family, 0.0) == ["bibd_upper", "baseline_bibd", "lower"]
    assert kinds(fano.family, 0.1) == ["baseline_bibd", "lower"]
    assert kinds(paley13.family, 0.1) == ["lower"]
    assert kinds(coset27.family, 0.1) == ["coset_upper", "lower"]
    assert kinds(bireg40.family, 0.0) == ["lower"]
    assert gc.closed_form("bibd_upper", fano, 2, 1, 0.0) == gc.bound_bibd(FANO, 2, 1).value
    assert gc.closed_form("bibd_upper", fano, 2, 7, 0.0) == 14.0  # s = n: mk, no survivor
    assert gc.closed_form("bibd_upper", fano, 2, 1, 0.1) is None  # sign-only form
    assert gc.closed_form("srg_upper", fano, 2, 1, 0.0) is None  # another family
    assert gc.closed_form("lower", bireg40, 2, 8, 0.0) == gc.lower_bound(40, 20, 3, 2, 8).value
    with pytest.raises(ParameterError):
        gc.closed_form("no_such_kind", fano, 2, 1, 0.0)
