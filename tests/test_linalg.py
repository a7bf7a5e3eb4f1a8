import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcoding.errors import NonFiniteError, ShapeError
from gradcoding.linalg import (
    CERT_COND_MAX,
    QR_COND_MAX,
    certify_gram,
    circulant_eigenvalues,
    null_space_basis,
    project,
    rank_of,
)


def test_rank_known_matrices():
    assert rank_of(np.eye(5)) == 5
    u = np.arange(1.0, 5.0)
    assert rank_of(np.outer(u, u)) == 1
    assert rank_of(np.zeros((3, 4))) == 0


def test_rank_empty_shapes():
    assert rank_of(np.zeros((0, 4))) == 0
    assert rank_of(np.zeros((4, 0))) == 0


def test_lstsq_matches_numpy_overdetermined():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((12, 5))
    y = rng.standard_normal((12, 3))
    got = project(m, y)[0]
    want, *_ = np.linalg.lstsq(m, y, rcond=None)
    assert np.allclose(got, want, atol=1e-10)


def test_lstsq_min_norm_underdetermined():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 9))
    y = rng.standard_normal((4, 2))
    got = project(m, y)[0]
    want = np.linalg.pinv(m) @ y
    assert np.allclose(got, want, atol=1e-10)


def test_lstsq_vector_rhs_stays_vector():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    got = project(m, y)[0]
    assert got.shape == (4,)
    assert np.allclose(got, project(m, y[:, None])[0][:, 0])


def test_lstsq_input_errors():
    with pytest.raises(ShapeError):
        project(np.eye(3), np.zeros((4, 1)))
    with pytest.raises(NonFiniteError):
        project(np.array([[np.nan, 0.0]]), np.zeros((1, 1)))


def test_residual_zero_on_exact_fit():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 3))
    y = m @ rng.standard_normal((3, 2))
    assert project(m, y)[1] >= 0.0
    assert project(m, y)[1] <= 1e-10


def test_residual_known_value():
    # col(M) = span(e1): projection keeps one unit of each column of ones
    m = np.array([[1.0], [0.0], [0.0]])
    y = np.ones((3, 2))
    assert project(m, y)[1] == pytest.approx(4.0, abs=1e-12)


def test_residual_empty_matrix_is_total_mass():
    y = np.arange(6.0).reshape(3, 2)
    assert project(np.zeros((3, 0)), y)[1] == float(np.sum(y * y))


def test_residual_matches_direct_minimum():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((10, 6))
    y = rng.standard_normal((10, 4))
    r = project(m, y)[0]
    direct = float(np.sum((m @ r - y) ** 2))
    assert project(m, y)[1] == pytest.approx(direct, abs=1e-9)


def test_project_returns_solution_and_residual_together():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((9, 4))
    y = rng.standard_normal((9, 2))
    coeffs, err = project(m, y)
    assert err == pytest.approx(float(np.sum((m @ coeffs - y) ** 2)), abs=1e-12)


def test_certify_gram_clears_well_conditioned_gram():
    # a tall Gaussian matrix has cond_2(G) in the tens; the certificate reads
    # G alone and leaves it untouched
    rng = np.random.default_rng(8)
    m = rng.standard_normal((20, 6))
    gram = m.T @ m
    before = gram.copy()
    assert certify_gram(gram) is True
    assert np.array_equal(gram, before)
    assert np.linalg.cond(gram) < 1e3


def test_certificate_bounds_condition_number():
    # cond_2(G) = 1e6 passes; 1e9 fails the 1e8 threshold; singular fails
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((5, 5)))
    for cond, accepted in ((1e6, True), (1e9, False)):
        gram = (q * np.logspace(0.0, -np.log10(cond), 5)) @ q.T
        assert certify_gram(gram) is accepted
    assert not certify_gram(np.ones((3, 3)))
    assert not certify_gram(np.zeros((2, 2)))
    assert CERT_COND_MAX == 1e8


@pytest.mark.parametrize("ratio, certified", [(0.5e8, True), (2e8, False)])
def test_certificate_threshold_is_trace_over_smallest_eigenvalue(ratio, certified):
    # tr(G) / lambda_min(G) on either side of CERT_COND_MAX, with the other
    # eigenvalues equal so that cond_2(G) stays close to the ratio
    n = 6
    q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((n, n)))
    eig = np.full(n, (ratio - 1.0) / (n - 1))
    eig[0] = 1.0
    gram = (q * eig) @ q.T
    gram = (gram + gram.T) / 2.0
    assert np.trace(gram) / np.linalg.eigvalsh(gram)[0] == pytest.approx(ratio, rel=1e-6)
    assert certify_gram(gram) is certified


def test_certificate_refuses_rank_one_and_zero_grams():
    u = np.arange(1.0, 6.0)
    assert not certify_gram(np.outer(u, u))
    assert not certify_gram(np.zeros((4, 4)))
    assert not certify_gram(np.zeros((1, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**16), st.floats(6.0, 10.0))
def test_property_certified_gram_is_within_the_condition_bound(n, seed, log_cond):
    # spectra from cond 1e6 to 1e10 straddle the threshold; whatever the
    # certificate clears has cond_2(G) <= 1e8 up to the SVD's own rounding
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.sort(10.0 ** -rng.uniform(0.0, log_cond, n))
    eig[0], eig[-1] = 10.0**-log_cond, 1.0
    gram = (q * eig) @ q.T
    gram = (gram + gram.T) / 2.0
    if certify_gram(gram):
        assert np.linalg.cond(gram) <= CERT_COND_MAX * (1.0 + 1e-6)


def test_certify_gram_rejects_non_square():
    with pytest.raises(ShapeError):
        certify_gram(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        certify_gram(np.ones((4, 2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**16), st.lists(st.floats(6.0, 14.0), min_size=1, max_size=6))
def test_property_stack_is_certified_when_every_member_is(n, seed, log_conds):
    # a stack of Grams with cond_2 from 1e6 to 1e14, on either side of
    # both tiers: the stack clears a tier exactly when each member does
    rng = np.random.default_rng(seed)
    grams = []
    for log_cond in log_conds:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = np.sort(10.0 ** -rng.uniform(0.0, log_cond, n))
        eig[0] = 10.0**-log_cond
        gram = (q * eig) @ q.T
        grams.append((gram + gram.T) / 2.0)
    stack = np.array(grams)
    before = stack.copy()
    for cond_max in (CERT_COND_MAX, QR_COND_MAX):
        assert certify_gram(stack, cond_max) == all(certify_gram(gram, cond_max) for gram in grams)
    assert np.array_equal(stack, before)


def test_certify_gram_refuses_a_non_finite_stack():
    stack = np.array([np.eye(3), np.eye(3)])
    stack[1, 0, 2] = np.nan
    with pytest.raises(NonFiniteError):
        certify_gram(stack)


def test_null_space_basis_properties():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 8))
    basis = null_space_basis(m)
    assert basis.shape == (8, 5)
    assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-10)
    assert np.max(np.abs(m @ basis)) <= 1e-9


def test_null_space_trivial_for_full_rank_square():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((5, 5))
    assert null_space_basis(m).shape == (5, 0)


def test_circulant_eigenvalues_match_dense():
    row = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    k = row.size
    dense = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            dense[i, j] = row[(j - i) % k]
    got = np.sort_complex(circulant_eigenvalues(row))
    want = np.sort_complex(np.linalg.eigvals(dense))
    assert np.allclose(got, want, atol=1e-8)


def test_circulant_dc_term_is_exact_sum():
    row = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    eig = circulant_eigenvalues(row)
    assert eig[0] == 3.0
    assert eig[0].imag == 0.0


def test_circulant_input_errors():
    with pytest.raises(ShapeError):
        circulant_eigenvalues(np.eye(2))
    with pytest.raises(NonFiniteError):
        circulant_eigenvalues(np.array([1.0, np.nan]))
