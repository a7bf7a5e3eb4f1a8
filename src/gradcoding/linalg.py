"""Dense linear-algebra kernel shared by the encoding and decoding layers.

Numerical contract:

  * Rank. Every rank decision goes through one rule: singular values below
    RANK_EPS * sigma_max (RANK_EPS = 1e-10) count as zero.
  * Certified Gram matrix. certify_gram(G) needs one Cholesky factorization
    of G - tau I, tau = tr(G) * (1/CERT_COND_MAX + (n+2) eps), to complete;
    by Rump's theorem that proves cond_2(G) < 1e8 (CERT_COND_MAX), so a
    certified G = M^T M has cond_2(M) < 1e4: M has full column rank under
    the rank rule with a wide margin, and solving the normal equations
    G R = M^T Y loses at most about eight digits of the sixteen.
  * One verdict per member. certify_each(stack) runs the same test on
    every member of a g x n x n stack with one stacked Cholesky, each
    member factored as it is alone, and returns one verdict each; a stack's
    certify_gram is their conjunction.
  * Whole-Gram certificate. When certify_gram clears an encoding's whole
    Gram G, Cauchy interlacing (Horn & Johnson, Matrix Analysis, Thm
    4.3.28) carries it to every principal block: lambda_min(G_SS) >=
    lambda_min(G) > tr(G) / 1e8 >= tr(G_SS) / 1e8, which is what the
    certificate proves for G_SS itself. decoding.decode_each relies on this
    to decode many survivor sets of one encoding from one inverse of G.
    A whole Gram that clears only the QR tier below carries cond_2(G_SS) <
    1e12 to every block the same way, so every B_S has cond_2(B_S) < 1e6
    and full column rank: bounds.bound_diag_dominant then runs neither a
    certificate nor rank_of.
  * Class-inverse certificate. When certify_gram clears C^T C, the Gram of
    a design's k distinct columns, and P has orthonormal columns, the
    eigenvalues of W = P^T (I_m (x) K) P, K = (C^T C)^-1, lie within K's
    spectrum (the same interlacing theorem, for an orthonormal
    compression), so cond_2(W) <= cond_2(C^T C) < 1e8 for every P: one
    certificate per design covers the t x t solve of every survivor set.
    A reduced survivor matrix (I_m (x) C) Q diag(scale), Q orthonormal,
    has its Gram's eigenvalues in [lambda_min(C^T C) min scale^2,
    lambda_max(C^T C) max scale^2], so cond_2(C^T C) max scale^2 < 1e8
    min scale^2 gives it cond_2 < 1e4 and full column rank under the rank
    rule; a set that fails this takes the routes below
    (designs.AssignmentMatrix.class_inverse, decoding._clears).
  * QR tier. certify_gram(G, QR_COND_MAX) runs the same test with the shift
    1/QR_COND_MAX = 1e-12 and proves cond_2(G) < 1e12, so cond_2(M) < 1e6:
    M still has full column rank under the rank rule, four orders inside
    it. Such an M is solved by Householder QR, whose residual carries a
    relative error of about cond_2(M) eps, not the cond_2(M)^2 eps of the
    normal equations (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 19-20); that is why the Gram solve keeps the
    1e8 tier. A set this tier clears changes no rank decision.
  * Reference projection. project solves min ||M R - Y||_F with one SVD and
    the rank rule above; it is the path for every matrix the certificate
    cannot clear, and the reference the Gram and QR paths are tested against
    (decode errors agree within 1e-9 * ||Y||_F^2).

Complex arithmetic appears only in circulant_eigenvalues.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonFiniteError, ShapeError

# The rank rule: singular values below RANK_EPS * sigma_max count as zero.
RANK_EPS = 1e-10

# Largest certified bound on cond_2(G) for which the Gram path is trusted:
# cond_2(M) <= 1e4, six orders inside the 1e-10 rank rule.
CERT_COND_MAX = 1e8

# Largest certified bound on cond_2(G) for which a set is solved by QR of M:
# cond_2(M) < 1e6, four orders inside the rank rule.
QR_COND_MAX = 1e12

_EPS = float(np.finfo(float).eps)


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


def certify_gram(gram, cond_max: float = CERT_COND_MAX) -> bool:
    """True when a Cholesky factorization of G - tau I completes, with
    tau = tr(G) * (1/cond_max + (n+2) eps); this proves cond_2(G) <
    cond_max for the symmetric n x n matrix G. cond_max is CERT_COND_MAX
    (1e8) for the Gram solve or QR_COND_MAX (1e12) for the QR tier.
    A g x n x n stack is certified when every member is:
    certify_each(stack, cond_max).all().

    Rump's bound (BIT 46, 2006, after Demmel): a floating-point Cholesky of
    a symmetric A that runs to completion is the exact factor of A + E with
    ||E||_2 <= alpha tr(A), alpha = gamma_{n+1} / (1 - gamma_{n+1}) =
    (n+1) u (1 + O(n u)) and u = eps / 2. For A = fl(G - tau I) this gives
    lambda_min(G) >= tau - (alpha + u) tr(G), u tr(G) covering the rounded
    shifted diagonal. tau carries 2 (n+2) u of tr(G) and is itself computed
    to relative accuracy (n+3) u, so a completed factorization proves
    lambda_min(G) > tr(G) / cond_max >= lambda_max(G) / cond_max with about
    (n+2) u tr(G) to spare (barring underflow). False means G could not be
    certified, not that it is singular (rank_of decides that). Up to
    O(n eps) at the threshold, every G with tr(G^{-1}) tr(G) <= cond_max is
    certified, since tr(G^{-1}) >= 1 / lambda_min(G).
    """
    if np.ndim(gram) == 3:
        return bool(certify_each(gram, cond_max).all())
    return bool(certify_each(as_matrix(gram, "G")[None], cond_max)[0])


def certify_each(grams, cond_max: float = CERT_COND_MAX) -> np.ndarray:
    """certify_gram(grams[j], cond_max) for every member j of a g x n x n
    stack, as one boolean array, from one stacked Cholesky.

    The factorization is numpy's LAPACK gufunc behind np.linalg.cholesky,
    which factors each member exactly as it factors that matrix alone.
    np.linalg.cholesky raises when any member fails; under
    np.errstate(invalid="ignore") the gufunc instead returns NaN for each
    member it cannot factor and the factor of every other one, so a member
    is certified when its factor's diagonal is finite. Raises
    NonFiniteError when any member holds NaN or Inf, as certify_gram does
    on that member.
    """
    g = np.asarray(grams, dtype=float)
    if g.ndim != 3 or g.shape[-2] != g.shape[-1]:
        raise ShapeError(f"Gram matrices must form a g x n x n stack, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("G contains NaN or Inf")
    n = g.shape[-1]
    shifted = g.copy()
    shift = 1.0 / cond_max + (n + 2) * _EPS
    shifted.reshape(len(g), n * n)[:, :: n + 1] -= g.trace(axis1=1, axis2=2)[:, None] * shift
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        factor = _umath_linalg.cholesky_lo(shifted, signature="d->d")
    return np.isfinite(np.diagonal(factor, axis1=1, axis2=2)).all(axis=1)


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
