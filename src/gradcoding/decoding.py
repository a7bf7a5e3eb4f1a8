"""Server-side decoding: target matrix, optimal decoding coefficients,
approximation error, and gradient block assembly.

The target matrix F is mk x m with column i the indicator of gradient block
i's rows; the exact aggregate gradient is Z F. For a set of surviving
workers S, decoding solves a minimum-norm least-squares fit of F by the
surviving columns B_S; the approximation error is the squared Frobenius
residual.

Each set is solved once. When linalg.certified_cholesky certifies the
survivor Gram matrix G_S = B_S^T B_S (cond_2(G_S) <= 1e8), the normal
equations are solved through its factor L: with Y = L^{-1} B_S^T F the
error is mk - ||Y||_F^2 and the coefficients are L^{-T} Y. Any other set,
rank-deficient ones included, goes through the single-SVD projection
linalg.project under the 1e-10 rank rule. The two agree within
1e-9 * mk on every certified set, and each decode is checked against the
directly computed residual ||B R - F||_F^2, raising NumericalError on a
disagreement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoders import EncodingMatrix
from .errors import NumericalError, ParameterError, ShapeError
from .linalg import certified_cholesky, project

_ERR_CONSISTENCY_EPS = 1e-8


@dataclass(frozen=True)
class TargetMatrix:
    mat: np.ndarray
    k: int
    m: int


@dataclass(frozen=True)
class NonStragglerSet:
    """Sorted 0-based indices of workers that returned their result."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        mem = tuple(int(i) for i in self.members)
        if any(not (0 <= i < self.n) for i in mem):
            raise ParameterError("member index out of range")
        if len(set(mem)) != len(mem):
            raise ParameterError("duplicate member index")
        object.__setattr__(self, "members", tuple(sorted(mem)))

    @property
    def s(self) -> int:
        """Number of stragglers."""
        return self.n - len(self.members)

    @classmethod
    def full(cls, n: int) -> "NonStragglerSet":
        return cls(n=n, members=tuple(range(n)))

    def to_dict(self) -> dict:
        return {"members": list(self.members), "s": self.s}


@dataclass(frozen=True)
class DecodeResult:
    """Decoding coefficients (n x m, zero off the surviving workers) and the
    squared-Frobenius approximation error."""

    coeffs: np.ndarray
    err: float

    def to_dict(self, workers: NonStragglerSet) -> dict:
        return {"members": list(workers.members), "s": workers.s, "err": self.err}


@dataclass(frozen=True)
class GradientBlockMatrix:
    """Blocks of the per-subset gradients: column u*k + i holds block u of
    g_i. d is the padded length (a multiple of m), d_orig the length before
    zero-padding."""

    mat: np.ndarray
    k: int
    m: int
    d: int
    d_orig: int


def build_target(k: int, m: int) -> TargetMatrix:
    """F with column i indicating rows ik..(i+1)k-1; F^T F = k I."""
    if k < 1 or m < 1:
        raise ParameterError("k and m must be positive")
    mat = np.zeros((m * k, m))
    for i in range(m):
        mat[i * k : (i + 1) * k, i] = 1.0
    return TargetMatrix(mat=mat, k=k, m=m)


def _check_shapes(bmat: np.ndarray, m: int, workers: NonStragglerSet) -> None:
    rows, n = bmat.shape
    if rows % m != 0:
        raise ShapeError(f"row count {rows} is not a multiple of m={m}")
    if workers.n != n:
        raise ShapeError(f"worker count {workers.n} does not match n={n}")


def _decode_survivors(
    bmat: np.ndarray,
    m: int,
    members: list[int],
    gram: np.ndarray,
    image: np.ndarray,
) -> DecodeResult:
    """Decode a nonempty survivor set given G_S = B_S^T B_S and H_S = B_S^T F."""
    rows, n = bmat.shape
    target = build_target(rows // m, m).mat
    coeffs = np.zeros((n, m))
    factor = certified_cholesky(gram)
    if factor is not None:
        _, chol_inv = factor
        y = chol_inv @ image
        coeffs[members, :] = chol_inv.T @ y
        err = max(float(rows) - float(np.sum(y * y)), 0.0)  # ||F||_F^2 = mk = rows
    else:
        coeffs[members, :], err = project(bmat[:, members], target)
    direct = float(np.sum((bmat @ coeffs - target) ** 2))
    if not abs(err - direct) <= _ERR_CONSISTENCY_EPS * max(1.0, direct):
        raise NumericalError(
            f"projection residual {err} disagrees with direct residual {direct}"
        )
    return DecodeResult(coeffs=coeffs, err=err)


def decode_matrix(bmat: np.ndarray, m: int, workers: NonStragglerSet) -> DecodeResult:
    """Core decode on a raw mk x n encoding matrix."""
    _check_shapes(bmat, m, workers)
    members = list(workers.members)
    if not members:
        return DecodeResult(coeffs=np.zeros((bmat.shape[1], m)), err=float(bmat.shape[0]))
    sub = bmat[:, members]
    image = sub.reshape(m, -1, len(members)).sum(axis=1).T
    return _decode_survivors(bmat, m, members, sub.T @ sub, image)


def decode(B: EncodingMatrix, workers: NonStragglerSet) -> DecodeResult:
    """Optimal decoding of B against its target for the given survivors,
    reading the survivor Gram matrix from B's cached Gram."""
    _check_shapes(B.mat, B.m, workers)
    members = list(workers.members)
    if not members:
        return DecodeResult(coeffs=np.zeros((B.n, B.m)), err=float(B.mat.shape[0]))
    gram, image = B.gram
    return _decode_survivors(
        B.mat, B.m, members, gram[np.ix_(members, members)], image[members]
    )


def split_gradients(partials: Sequence[np.ndarray], m: int) -> GradientBlockMatrix:
    """Arrange k per-subset gradient vectors into the block matrix Z.

    Each vector is zero-padded at the tail to d' = m * ceil(d / m) and cut
    into m blocks of length d'/m; Z has shape (d'/m) x (mk) with column
    u*k + i equal to block u of g_i, so that Z F sums the subset gradients
    blockwise.
    """
    k = len(partials)
    if k == 0:
        raise ParameterError("need at least one partial gradient")
    if m < 1:
        raise ParameterError("m must be positive")
    vecs = [np.asarray(g, dtype=float).ravel() for g in partials]
    d = vecs[0].size
    if any(v.size != d for v in vecs):
        raise ShapeError("partial gradients differ in length")
    sub = -(-d // m)  # ceil
    padded = np.zeros((k, m * sub))
    for i, v in enumerate(vecs):
        padded[i, :d] = v
    mat = np.zeros((sub, m * k))
    for u in range(m):
        mat[:, u * k : (u + 1) * k] = padded[:, u * sub : (u + 1) * sub].T
    return GradientBlockMatrix(mat=mat, k=k, m=m, d=m * sub, d_orig=d)


def reconstruct(
    Z: GradientBlockMatrix, B: EncodingMatrix, workers: NonStragglerSet
) -> tuple[np.ndarray, float]:
    """Approximate aggregate gradient blocks Z B R and the Frobenius gap to
    the exact Z F. The operator-norm bound gap^2 <= ||Z||_2^2 * err is
    checked, raising NumericalError when it fails."""
    if Z.k != B.k or Z.m != B.m:
        raise ShapeError("gradient blocks and encoding disagree on (k, m)")
    dec = decode(B, workers)
    target = build_target(B.k, B.m).mat
    approx = Z.mat @ (B.mat @ dec.coeffs)
    exact = Z.mat @ target
    gap = float(np.linalg.norm(approx - exact))
    if Z.mat.size:
        znorm = float(np.linalg.norm(Z.mat, 2))
        limit = znorm * znorm * dec.err
        if not gap * gap <= limit * (1.0 + 1e-8) + 1e-8:
            raise NumericalError(f"operator-norm bound violated: gap^2={gap * gap} > {limit}")
    return approx, gap


def merge_blocks(approx: np.ndarray, d_orig: int) -> np.ndarray:
    """Stack the m block columns back into one vector and drop the padding."""
    return np.ravel(approx, order="F")[:d_orig]
