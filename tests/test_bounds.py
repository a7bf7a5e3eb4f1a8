import itertools
from math import sqrt

import numpy as np
import pytest

import gradcoding as gc
from gradcoding.errors import ParameterError, SingularMatrixError

FANO = gc.BibdParams(n=7, k=7, gamma=3, delta=3, lam=1)
BIG = gc.BibdParams(n=91, k=91, gamma=10, delta=10, lam=1)
PALEY13 = gc.SrgParams(n=13, delta=6, lam=2, mu=3)


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
        gc.bound_bibd(FANO, 2, 7)
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
    # (delta-lam) I + lam J restricted, making the solve analytic)
    for s in range(7):
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
        gc.BoundReport(kind=gc.LOWER, value=float("nan"), inputs={})


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
    assert gc.closed_form("bibd_upper", fano, 2, 7, 0.0) is None  # s = n
    assert gc.closed_form("bibd_upper", fano, 2, 1, 0.1) is None  # sign-only form
    assert gc.closed_form("srg_upper", fano, 2, 1, 0.0) is None  # another family
    assert gc.closed_form("lower", bireg40, 2, 8, 0.0) == gc.lower_bound(40, 20, 3, 2, 8).value
    with pytest.raises(ParameterError):
        gc.closed_form("no_such_kind", fano, 2, 1, 0.0)
