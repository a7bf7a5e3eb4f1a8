import numpy as np
import pytest

from gradcoding.errors import NonFiniteError, ShapeError
from gradcoding.linalg import (
    CERT_COND_MAX,
    certified_cholesky,
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


def test_certified_cholesky_factors_well_conditioned_gram():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((20, 6))
    gram = m.T @ m
    chol, chol_inv = certified_cholesky(gram)
    assert np.allclose(chol @ chol.T, gram, atol=1e-10)
    assert np.allclose(chol_inv @ chol, np.eye(6), atol=1e-10)


def test_certificate_bounds_condition_number():
    # cond_2(G) = 1e6 passes; 1e9 fails the 1e8 threshold; singular fails
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((5, 5)))
    for cond, accepted in ((1e6, True), (1e9, False)):
        gram = (q * np.logspace(0.0, -np.log10(cond), 5)) @ q.T
        assert (certified_cholesky(gram) is not None) is accepted
    assert certified_cholesky(np.ones((3, 3))) is None
    assert certified_cholesky(np.zeros((2, 2))) is None
    assert CERT_COND_MAX == 1e8


def test_certified_cholesky_rejects_non_square():
    with pytest.raises(ShapeError):
        certified_cholesky(np.ones((2, 3)))


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
