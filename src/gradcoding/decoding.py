"""Server-side decoding: target matrix, optimal decoding coefficients,
approximation error, and the coded aggregation of per-subset gradients.

The target matrix F is mk x m with column i the indicator of gradient block
i's rows; the exact aggregate gradient is Z F. For a set of surviving
workers S, decoding solves a minimum-norm least-squares fit of F by the
surviving columns B_S; the approximation error is the squared Frobenius
residual.

Each set is solved once. When linalg.certify_gram certifies the survivor
Gram matrix G_S = B_S^T B_S (one shifted Cholesky proving cond_2(G_S) <
1e8), the normal equations G_S R = H_S, H_S = B_S^T F, are solved by one
LU solve: the coefficients are R and the error is mk - <H_S, R>, clamped
to [0, mk]. Any other set, rank-deficient ones included, goes through the
single-SVD projection linalg.project under the 1e-10 rank rule. The two
agree within 1e-9 * mk on every certified set.

The stacked-copies baseline B = 1_m (x) A is decoded on its k-row block
A_S: B_S^+ = (1_m^T / m) (x) A_S^+, so every column of R is x / m with
x = A_S^+ 1_k, and the error is mk - ||A_S x||^2. A set of more than k
survivors has rank(B_S) <= k < |S| and skips the column certificate. A set
the column certificate does not clear takes x = A_S^T y with
A_S A_S^T y = 1_k when certify_gram clears that k x k row Gram (x lies in
the row space of A_S, so it is the minimum-norm solution), and otherwise
x from project(A_S, 1_k), whose rank rule decides as on B_S because
sigma(B_S) = sqrt(m) sigma(A_S).

Each decode is checked against the directly computed residual
||B R - F||_F^2, raising NumericalError on a disagreement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import EncodingMatrix
from .errors import NumericalError, ParameterError, ShapeError
from .linalg import certify_gram, project

_ERR_CONSISTENCY_EPS = 1e-8

_BOOLS = frozenset((bool, np.bool_))


@dataclass(frozen=True)
class NonStragglerSet:
    """Sorted 0-based indices of workers that returned their result.

    members may be any flat sequence or array of integers and is stored as
    a sorted tuple of ints; fractional, float and bool entries are refused
    rather than truncated."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        raw = self.members
        mem = np.asarray(raw)
        if mem.ndim != 1:
            raise ParameterError(f"members must be a flat sequence, got shape {mem.shape}")
        # np.asarray folds bools into an integer array, so look at the items
        # of a plain sequence; an array shows its kind in its dtype
        if mem.size and (
            mem.dtype.kind not in "iu"
            or (not isinstance(raw, np.ndarray) and not _BOOLS.isdisjoint(map(type, raw)))
        ):
            raise ParameterError(f"member indices must be integers, got {raw!r}")
        mem = np.sort(mem)
        if mem.size and not (mem[0] >= 0 and mem[-1] < self.n):
            raise ParameterError("member index out of range")
        if np.any(mem[1:] == mem[:-1]):
            raise ParameterError("duplicate member index")
        object.__setattr__(self, "members", tuple(mem.tolist()))

    @property
    def s(self) -> int:
        """Number of stragglers."""
        return self.n - len(self.members)

    @classmethod
    def full(cls, n: int) -> "NonStragglerSet":
        return cls(n=n, members=tuple(range(n)))


@dataclass(frozen=True)
class DecodeResult:
    """Decoding coefficients (n x m, zero off the surviving workers) and the
    squared-Frobenius approximation error."""

    coeffs: np.ndarray
    err: float


def build_target(k: int, m: int) -> np.ndarray:
    """The mk x m target F, column i indicating rows ik..(i+1)k-1; F^T F = k I."""
    if k < 1 or m < 1:
        raise ParameterError("k and m must be positive")
    return np.repeat(np.eye(m), k, axis=0)


def decode(B: EncodingMatrix, workers: NonStragglerSet) -> DecodeResult:
    """Optimal decoding of B against its target for the given survivors,
    reading the survivor Gram block G_S and image H_S from B's cached Gram."""
    rows, n = B.mat.shape
    if (rows, n) != (B.m * B.k, B.n):
        raise ShapeError(f"encoding has shape {B.mat.shape}, not mk x n = {(B.m * B.k, B.n)}")
    if workers.n != n:
        raise ShapeError(f"worker count {workers.n} does not match n={n}")
    coeffs = np.zeros((n, B.m))
    if not workers.members:
        return DecodeResult(coeffs=coeffs, err=float(rows))
    idx = np.array(workers.members, dtype=np.intp)
    target = build_target(B.k, B.m)
    gram, image = B.gram
    gram_s = gram.take(idx, axis=0).take(idx, axis=1)
    # a stacked-copies set of more than k survivors has rank(B_S) <= k < |S|,
    # so its column certificate would fail: it is not tried
    doomed = B.stacked_copies and idx.size > B.k
    if not doomed and certify_gram(gram_s):
        image_s = image.take(idx, axis=0)
        solved = np.linalg.solve(gram_s, image_s)
        coeffs[idx] = solved
        # ||F||_F^2 = mk = rows, and <H_S, R> = ||P_S F||_F^2
        err = min(max(float(rows) - float(np.sum(image_s * solved)), 0.0), float(rows))
    elif B.stacked_copies:
        coeffs[idx], err = _decode_stacked(B.block(0).take(idx, axis=1), B.m)
    else:
        coeffs[idx], err = project(B.mat.take(idx, axis=1), target)
    direct = float(np.sum((B.mat @ coeffs - target) ** 2))
    if not abs(err - direct) <= _ERR_CONSISTENCY_EPS * max(1.0, direct):
        raise NumericalError(
            f"projection residual {err} disagrees with direct residual {direct}"
        )
    return DecodeResult(coeffs=coeffs, err=err)


def _decode_stacked(a_s: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """The minimum-norm decode of B_S = 1_m (x) A_S on its k-row block
    A_S, as set out above: (R_S, err), every column of R_S being
    A_S^+ 1_k / m. The row Gram A_S A_S^T can be certified only for
    |S| >= k."""
    k, size = a_s.shape
    ones = np.ones(k)
    row_gram = a_s @ a_s.T
    if size >= k and certify_gram(row_gram):
        x = a_s.T @ np.linalg.solve(row_gram, ones)
    else:
        x, _ = project(a_s, ones)
    fit = a_s @ x
    total = float(m * k)
    err = min(max(total - float(fit @ fit), 0.0), total)
    return np.repeat(x[:, None] / m, m, axis=1), err


def _spectral_norm_sq(Z: np.ndarray) -> float:
    """||Z||_2^2 as the largest eigenvalue of the smaller Gram of Z, which a
    symmetric eigensolver finds to O(eps) relative accuracy."""
    gram = Z @ Z.T if Z.shape[0] <= Z.shape[1] else Z.T @ Z
    return max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)


def split_gradients(partials, m: int) -> np.ndarray:
    """Arrange the k per-subset gradients, a k x d array or k vectors of
    length d, into the block matrix Z.

    Each gradient is zero-padded at the tail to m * ceil(d / m) and cut into
    m blocks; Z has shape ceil(d / m) x mk with column u*k + i equal to block
    u of g_i, so that Z F sums the subset gradients blockwise.
    """
    if len(partials) == 0:
        raise ParameterError("need at least one partial gradient")
    if m < 1:
        raise ParameterError("m must be positive")
    try:
        grads = np.asarray(partials, dtype=float)
    except ValueError:
        raise ShapeError("partial gradients are not k numeric vectors of one length") from None
    if grads.ndim != 2:
        raise ShapeError(f"partial gradients must form a k x d array, got shape {grads.shape}")
    k, d = grads.shape
    sub = -(-d // m)  # ceil
    padded = np.zeros((k, m * sub))
    padded[:, :d] = grads
    return padded.reshape(k, m, sub).transpose(2, 1, 0).reshape(sub, m * k)


def reconstruct(
    partials, B: EncodingMatrix, workers: NonStragglerSet
) -> tuple[np.ndarray, float]:
    """The decoded aggregate of the k per-subset gradients and its gap.

    The server forms Z B R, the survivors' approximation of the blockwise
    sum Z F (Z from split_gradients); its m blocks are stacked back into one
    length-d vector, dropping the zero padding. The gap is that vector's
    Euclidean distance to the exact sum. The operator-norm bound
    ||Z B R - Z F||_F^2 <= ||Z||_2^2 * err is checked on the full blockwise
    matrix, raising NumericalError when it fails.
    """
    Z = split_gradients(partials, B.m)
    if len(partials) != B.k:
        raise ShapeError(f"{len(partials)} partial gradients for an encoding of k={B.k} subsets")
    dec = decode(B, workers)
    approx = Z @ (B.mat @ dec.coeffs)
    diff = approx - Z @ build_target(B.k, B.m)
    if Z.size:
        full_gap = float(np.linalg.norm(diff))
        limit = _spectral_norm_sq(Z) * dec.err
        if not full_gap * full_gap <= limit * (1.0 + 1e-8) + 1e-8:
            raise NumericalError(f"operator-norm bound violated: gap^2={full_gap * full_gap} > {limit}")
    d = len(partials[0])
    gap = float(np.linalg.norm(np.ravel(diff, order="F")[:d]))
    return np.ravel(approx, order="F")[:d], gap
