"""Dense linear-algebra kernel shared by the encoding and decoding layers.

Numerical contract:

  * Rank. Every rank decision goes through one rule: singular values below
    RANK_EPS * sigma_max (RANK_EPS = 1e-10) count as zero.
  * Certified Gram factor. certified_cholesky accepts the Cholesky factor L
    of a Gram matrix G = M^T M only when ||L^{-1}||_F^2 * tr(G) <= 1e8
    (CERT_COND_MAX). The left side bounds cond_2(G) from above, so an
    accepted factor proves cond_2(M) <= 1e4: M has full column rank under
    the rank rule with a wide margin, and solving the normal equations
    through L loses at most about eight digits of the sixteen.
  * Reference projection. project solves min ||M R - Y||_F with one SVD and
    the rank rule above; it is the path for every matrix the certificate
    cannot clear, and the reference the Gram path is tested against
    (decode errors agree within 1e-9 * ||Y||_F^2).

Complex arithmetic appears only in circulant_eigenvalues.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError

# The rank rule: singular values below RANK_EPS * sigma_max count as zero.
RANK_EPS = 1e-10

# Largest certified bound on cond_2(G) for which the Gram path is trusted:
# cond_2(M) <= 1e4, six orders inside the 1e-10 rank rule.
CERT_COND_MAX = 1e8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising structured errors."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return arr


def _svd(mat: np.ndarray):
    # Empty matrices (zero rows or columns) get an explicit empty SVD so that
    # every caller handles the empty non-straggler set through one code path.
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        u = np.zeros((mat.shape[0], 0))
        vt = np.zeros((0, mat.shape[1]))
        return u, np.zeros(0), vt
    return np.linalg.svd(mat, full_matrices=False)


def _rank_from_singulars(s: np.ndarray) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_EPS * s[0]))


def rank_of(mat) -> int:
    """Numerical rank: count of singular values above RANK_EPS * sigma_max."""
    m = as_matrix(mat)
    _, s, _ = _svd(m)
    return _rank_from_singulars(s)


def project(mat, rhs) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares by one SVD: (R, min_R ||M R - Y||_F^2).

    R is the Moore-Penrose solution, well defined even when M^T M is
    singular; the residual is ||Y||_F^2 - ||P Y||_F^2 with P the orthogonal
    projector onto col(M), so an a x 0 matrix leaves all of ||Y||_F^2.
    A 1-D rhs yields a 1-D R.
    """
    m = as_matrix(mat, "M")
    rhs_arr = np.asarray(rhs, dtype=float)
    vector_rhs = rhs_arr.ndim == 1
    y = as_matrix(rhs_arr.reshape(-1, 1) if vector_rhs else rhs_arr, "Y")
    if y.shape[0] != m.shape[0]:
        raise ShapeError(f"row counts differ: M has {m.shape[0]}, Y has {y.shape[0]}")
    total = float(np.sum(y * y))
    u, s, vt = _svd(m)
    r = _rank_from_singulars(s)
    if r == 0:
        out, err = np.zeros((m.shape[1], y.shape[1])), total
    else:
        proj = u[:, :r].T @ y
        out = vt[:r].T @ (proj / s[:r, None])
        err = max(total - float(np.sum(proj * proj)), 0.0)
    return (out[:, 0] if vector_rhs else out), err


def certified_cholesky(gram) -> tuple[np.ndarray, np.ndarray] | None:
    """Cholesky factor L of a symmetric Gram matrix and its inverse, or None.

    The pair is returned only when ||L^{-1}||_F^2 * tr(G) <= CERT_COND_MAX.
    Since lambda_max(G) <= tr(G) and 1/lambda_min(G) = ||L^{-1}||_2^2 <=
    ||L^{-1}||_F^2, that product bounds cond_2(G) from above; None means
    the factorization failed or could not be certified, not that G is
    singular (rank_of decides that).
    """
    g = as_matrix(gram, "G")
    if g.shape[0] != g.shape[1]:
        raise ShapeError(f"Gram matrix must be square, got shape {g.shape}")
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    chol_inv = np.linalg.inv(chol)
    if not float(np.sum(chol_inv * chol_inv)) * float(np.trace(g)) <= CERT_COND_MAX:
        return None
    return chol, chol_inv


def null_space_basis(mat) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as columns.

    Each column x satisfies ||M x|| <= 10 * RANK_EPS * sigma_max * ||x||.
    Returns an empty-width matrix when the null space is trivial.
    """
    m = as_matrix(mat)
    if m.shape[0] == 0 or m.shape[1] == 0:
        return np.eye(m.shape[1])
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    r = _rank_from_singulars(s)
    return vt[r:].T.copy()


def circulant_eigenvalues(first_row) -> np.ndarray:
    """Eigenvalues of the circulant matrix with the given first row.

    lambda_r = sum_j row[j] * omega^(r j) with omega = exp(-2 pi i / k),
    which is exactly the DFT of the row.
    """
    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or row.size < 1:
        raise ShapeError("first_row must be a nonempty 1-D vector")
    if not np.all(np.isfinite(row)):
        raise NonFiniteError("first_row contains NaN or Inf")
    eig = np.fft.fft(row)
    # The r=0 eigenvalue is the plain entry sum; keep it exact (integer for
    # 0/1 indicator rows) rather than trusting transform rounding.
    eig[0] = row.sum()
    return eig
