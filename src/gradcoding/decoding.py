"""Server-side decoding: target matrix, optimal decoding coefficients,
approximation error, and the coded aggregation of per-subset gradients.

The target matrix F is mk x m with column i the indicator of gradient block
i's rows; the exact aggregate gradient is Z F. For a set of surviving
workers S, decoding solves a minimum-norm least-squares fit of F by the
surviving columns B_S; the approximation error is the squared Frobenius
residual.

decode_each is the one batch decoder, and decode is its one-set case. It
groups its positions by distinct encoding. The sets of an encoding that
carries more than one set in the call and whose whole Gram is certified
(EncodingMatrix.gram_inverse) are solved together through that Gram's
inverse (below): a sweep hands it many sets of one encoding. Every other
set is solved once, by the first route of this table that it clears: a
training iteration and the estimator hand it one set per encoding, which
never pays for the n x n inverse.

  1. Stacked copies, decoded on the k-row block of A (below).
  2. Gram solve. When linalg.certify_gram certifies the survivor Gram
     matrix G_S = B_S^T B_S (one shifted Cholesky proving cond_2(G_S) <
     1e8), the normal equations G_S R = H_S, H_S = B_S^T F, are solved by
     one LU solve: the coefficients are R and the error is mk - <H_S, R>,
     clamped to [0, mk].
  3. QR. When certify_gram(G_S, QR_COND_MAX) proves cond_2(G_S) < 1e12,
     so cond_2(B_S) < 1e6, B_S = QU is factored by Householder QR: R =
     U^-1 Q^T F and the error is mk - ||Q^T F||_F^2. This keeps the
     residual's relative error near cond_2(B_S) eps where the normal
     equations would square it.
  4. Any other set, rank-deficient ones included, goes through the
     single-SVD projection linalg.project under the 1e-10 rank rule.

Routes 1 to 3 agree with route 4 within 1e-9 * mk on every set they
clear, and none changes a rank decision: each certificate leaves B_S of
full column rank with orders of magnitude to spare.

The stacked-copies baseline B = 1_m (x) A is decoded on its k-row block
A_S: B_S^+ = (1_m^T / m) (x) A_S^+, so every column of R is x / m with
x = A_S^+ 1_k, and the error is mk - ||A_S x||^2. Equal columns of A
among the survivors are merged first: with U the column classes among S,
c_u their sizes and E the |U| x |S| matrix whose column j indicates the
class of worker j, A_S = A_U E = (A_U C^1/2) Q with C = diag(c_u) and
Q = C^-1/2 E, whose rows are orthonormal, so A_S^+ = Q^T (A_U C^1/2)^+.
When A_U has full column rank this is E^T (E E^T)^-1 A_U^+: each of the
c_u copies of u gets x_U / c_u. The classes are computed once per
encoding (EncodingMatrix.column_classes); where no two survivors share a
column, every class is one survivor and the block is A_S itself. The
block takes x from its column Gram when certify_gram clears it (at most
k columns; this is the certificate of G_S = m A_S^T A_S up to rounding),
else x = A_S^T y with A_S A_S^T y = 1_k when certify_gram clears that
k x k row Gram (x lies in the row space of A_S, so it is the minimum-norm
solution), and otherwise x from project(A_S, 1_k), whose rank rule
decides as on B_S because sigma(B_S) = sqrt(m) sigma(A_S).

When certify_gram clears the whole n x n Gram G, Cauchy interlacing gives
lambda_min(G_SS) >= lambda_min(G) > tr(G) / 1e8 >= tr(G_SS) / 1e8 for
every survivor set S: the certificate each G_SS would earn on its own.
With K = G^-1 and R = K H, the block-inverse (Schur complement) identity
gives, for the stragglers T (s = |T|),

    R_S = R[S] - K[S, T] K[T, T]^-1 R[T],
    err = err_0 + <R[T], K[T, T]^-1 R[T]>,  err_0 = mk - <H, R>,

an s x s solve per set, with cond(K[T, T]) <= cond(G) < 1e8. An explicit
inverse is backward stable only to about cond(G) eps, not eps, so R_S is
refined by one step: the residual H_S - G_SS R_S, read from the cached
Gram, is solved through the same identity and added, and the error is
mk - <H_S, R_S> as on the Gram solve. Where the survivors' own system is
no larger than these two s x s solves (|S|^3 <= 2 s^3), G_SS R_S = H_S
is solved directly instead. Sets of one size are solved as one batched
stack.

Each decode is checked against the directly computed residual
||B R - F||_F^2, one product per distinct encoding, raising
NumericalError on a disagreement. reconstruct_each builds on decode_each
the decoded gradients of every set at once.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoders import EncodingMatrix
from .errors import NumericalError, ParameterError, ShapeError
from .linalg import QR_COND_MAX, certify_gram, project

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
    """The mk x m target F, column i indicating rows ik..(i+1)k-1; F^T F = k I.
    Built once per (k, m) and read-only."""
    if k < 1 or m < 1:
        raise ParameterError("k and m must be positive")
    return _target(int(k), int(m))


@lru_cache(maxsize=None)
def _target(k: int, m: int) -> np.ndarray:
    target = np.repeat(np.eye(m), k, axis=0)
    target.setflags(write=False)
    return target


def _check_shapes(B: EncodingMatrix, sets) -> None:
    """Refuse an encoding that is not mk x n, or a set drawn for another
    worker count."""
    rows, n = B.mat.shape
    if (rows, n) != (B.m * B.k, B.n):
        raise ShapeError(f"encoding has shape {B.mat.shape}, not mk x n = {(B.m * B.k, B.n)}")
    for workers in sets:
        if workers.n != n:
            raise ShapeError(f"worker count {workers.n} does not match n={n}")


def decode(B: EncodingMatrix, workers: NonStragglerSet) -> DecodeResult:
    """Optimal decoding of B against its target for the given survivors, by
    the route table above: decode_each([B], [workers])[0]."""
    return decode_each((B,), (workers,))[0]


def decode_each(
    encodings: Iterable[EncodingMatrix], sets: Iterable[NonStragglerSet]
) -> list[DecodeResult]:
    """The decode of encodings[j] for sets[j], for every j, in order.

    The sets of an encoding that recurs in the call and whose whole Gram is
    certified (B.gram_inverse) are solved by size as batched stacks,
    through K = G^-1 by s x s systems in their stragglers or through their
    own survivor Grams, as set out above. Their errors match decode(B, w)
    within 1e-9 * mk, with the same coefficient support (the survivors'
    rows); the coefficients come from another solve, so they agree only to
    rounding. Every other set takes the route table, and its result is
    exactly decode's. Every set is checked against its direct residual,
    with one product per distinct encoding."""
    encodings, sets = list(encodings), list(sets)
    if len(encodings) != len(sets):
        raise ShapeError(f"{len(encodings)} encodings for {len(sets)} survivor sets")
    results: list = [None] * len(sets)
    direct = np.empty(len(sets))
    for picked in _by_encoding(encodings):
        B = encodings[picked[0]]
        _check_shapes(B, [sets[j] for j in picked])
        inverse = B.gram_inverse if len(picked) > 1 else None
        if inverse is None:
            for j in picked:
                results[j] = DecodeResult(*_route(B, sets[j]))
        else:
            by_size: dict[int, list[int]] = {}
            for j in picked:
                by_size.setdefault(len(sets[j].members), []).append(j)
            for size, same in by_size.items():
                coeffs, errs = _decode_group(B, inverse, [sets[j].members for j in same], size)
                for j, one, err in zip(same, coeffs, errs.tolist()):
                    results[j] = DecodeResult(coeffs=one, err=err)
        diff = _fitted(B, [results[j].coeffs for j in picked]) - build_target(B.k, B.m)
        direct[picked] = np.einsum("jrm,jrm->j", diff, diff)
    _check_residuals([res.err for res in results], direct)
    return results


def _route(B: EncodingMatrix, workers: NonStragglerSet) -> tuple[np.ndarray, float]:
    """(coefficients n x m, error) of one set, by the route table above."""
    rows, n = B.mat.shape
    total = float(rows)
    coeffs = np.zeros((n, B.m))
    if not workers.members:
        return coeffs, total
    idx = np.array(workers.members, dtype=np.intp)
    if B.stacked_copies:
        firsts, inverse, counts = _column_merge(B, idx)
        root = np.sqrt(counts)
        merged, err = _decode_stacked(B.block(0).take(firsts, axis=1) * root, B.m)
        coeffs[idx] = (merged / root[:, None])[inverse]
        return coeffs, err
    gram, image = B.gram
    gram_s = gram.take(idx, axis=0).take(idx, axis=1)
    if certify_gram(gram_s):
        image_s = image.take(idx, axis=0)
        solved = np.linalg.solve(gram_s, image_s)
        coeffs[idx] = solved
        # ||F||_F^2 = mk = rows, and <H_S, R> = ||P_S F||_F^2
        err = total - float(np.sum(image_s * solved))
    elif certify_gram(gram_s, QR_COND_MAX):
        coeffs[idx], err = _solve_qr(B.mat.take(idx, axis=1), build_target(B.k, B.m))
    else:
        coeffs[idx], err = project(B.mat.take(idx, axis=1), build_target(B.k, B.m))
    return coeffs, min(max(err, 0.0), total)


def _column_merge(B: EncodingMatrix, idx: np.ndarray):
    """(the first column of each class among the survivors idx, each
    survivor's position among those classes, the class sizes); the
    identity classes (idx, 0..|S|-1, ones) when no two survivors have equal
    columns of A."""
    classes = B.column_classes
    if classes is not None:
        labels, firsts = classes
        lab = labels.take(idx)
        counts = np.bincount(lab, minlength=firsts.size)
        present = np.flatnonzero(counts)
        if present.size < idx.size:
            position = np.empty(firsts.size, dtype=np.intp)
            position[present] = np.arange(present.size)
            return firsts.take(present), position.take(lab), counts.take(present).astype(float)
    return idx, np.arange(idx.size), np.ones(idx.size)


def _solve_qr(b_s: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """min ||B_S R - F||_F by Householder QR, for B_S of full column rank:
    (R, ||F||_F^2 - ||Q^T F||_F^2). The triangular factor has exact zeros
    below its diagonal, so the LU solve with it never pivots and is back
    substitution."""
    q, upper = np.linalg.qr(b_s)
    proj = q.T @ target
    err = float(np.sum(target * target)) - float(np.sum(proj * proj))
    return np.linalg.solve(upper, proj), err


def _by_encoding(encodings: list) -> list[list[int]]:
    """The positions of each distinct encoding, in order of first
    appearance: the sets of one encoding share one product, so an encoding
    that recurs is never copied per set."""
    groups: dict[int, list[int]] = {}
    for j, B in enumerate(encodings):
        groups.setdefault(id(B), []).append(j)
    return list(groups.values())


def _fitted(B: EncodingMatrix, coeffs: list) -> np.ndarray:
    """B R for each n x m coefficient matrix R of B's sets, as one batched
    product (g x mk x m)."""
    return np.matmul(B.mat, np.array(coeffs))


def _check_residuals(errs, direct: np.ndarray) -> None:
    """Raise NumericalError where a decode's error disagrees with its
    directly computed residual (a NaN disagrees with everything)."""
    for err, res in zip(errs, direct.tolist()):
        if not abs(err - res) <= _ERR_CONSISTENCY_EPS * max(1.0, res):
            raise NumericalError(f"projection residual {err} disagrees with direct residual {res}")


def _decode_group(
    B: EncodingMatrix, inverse: tuple[np.ndarray, np.ndarray], members: list, size: int
):
    """(coefficients g x n x m, errors g) of g survivor sets of one size,
    each set in the cheaper of two stacked solves, as set out above."""
    rows, n = B.mat.shape
    g, m = len(members), B.m
    s = n - size
    total = float(rows)
    gram, image = B.gram
    col = np.arange(g)[:, None]
    # the survivor systems G_SS R_S = H_S when they are no larger than the
    # two s x s solves of the straggler route. Timed per route (BENCH_9.json),
    # the straggler route is the faster below this size and the slower above
    # it, the crossover lying near s = 40 at n = 91 and s = 18 at n = 40
    if size**3 <= 2 * s**3:
        idx = np.array(members, dtype=np.intp).reshape(g, size)
        coeffs = np.zeros((n, g, m))  # set j in column j
        if size:
            coeffs[idx, col] = np.linalg.solve(gram[idx[:, :, None], idx[:, None, :]], image[idx])
    else:
        K, full = inverse
        coeffs = np.repeat(full[:, None, :], g, axis=1)
        if s:
            straggles = np.ones((g, n), dtype=bool)
            straggles[col, np.array(members, dtype=np.intp)] = False
            t = np.nonzero(straggles)[1].reshape(g, s)
            k_tt = K[t[:, :, None], t[:, None, :]]

            def drop_stragglers(v: np.ndarray) -> np.ndarray:
                """v - K[:, T] K[T, T]^-1 v[T], zero on T: for v = K u, the
                solution of G_SS x = u[S], lifted to n rows."""
                lifted = np.zeros((n, g, m))
                lifted[t, col] = np.linalg.solve(k_tt, v[t, col])
                v -= (K @ lifted.reshape(n, g * m)).reshape(n, g, m)
                v[t, col] = 0.0
                return v

            coeffs = drop_stragglers(coeffs)
            resid = image[:, None, :] - (gram @ coeffs.reshape(n, g * m)).reshape(n, g, m)
            resid[t, col] = 0.0
            coeffs += drop_stragglers((K @ resid.reshape(n, g * m)).reshape(n, g, m))
    # mk - <H_S, R_S>, the straggler rows of R being zero
    err = np.clip(total - np.einsum("ngm,nm->g", coeffs, image), 0.0, total)
    return np.ascontiguousarray(coeffs.transpose(1, 0, 2)), err


def _decode_stacked(a_s: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """The minimum-norm decode of B_S = 1_m (x) A_S on its k-row block
    A_S, as set out above: (R_S, err), every column of R_S being
    A_S^+ 1_k / m. The column Gram A_S^T A_S can be certified only for
    |S| <= k, the row Gram A_S A_S^T only for |S| >= k."""
    k, size = a_s.shape
    ones = np.ones(k)
    if size <= k and certify_gram(col_gram := a_s.T @ a_s):
        x = np.linalg.solve(col_gram, a_s.sum(axis=0))
    elif size >= k and certify_gram(row_gram := a_s @ a_s.T):
        x = a_s.T @ np.linalg.solve(row_gram, ones)
    else:
        x, _ = project(a_s, ones)
    fit = a_s @ x
    total = float(m * k)
    err = min(max(total - float(fit @ fit), 0.0), total)
    return np.repeat(x[:, None] / m, m, axis=1), err


def _spectral_norm_sq(Z: np.ndarray) -> np.ndarray:
    """||Z||_2^2 as the largest eigenvalue of the smaller Gram of Z, which a
    symmetric eigensolver finds to O(eps) relative accuracy; a stack of
    matrices gives one value each, from one stacked eigensolve."""
    Zt = np.swapaxes(Z, -1, -2)
    gram = Z @ Zt if Z.shape[-2] <= Z.shape[-1] else Zt @ Z
    return np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)


def _as_gradients(partials) -> np.ndarray:
    """The k per-subset gradients, a k x d array or k vectors of length d,
    as a k x d float array."""
    if len(partials) == 0:
        raise ParameterError("need at least one partial gradient")
    try:
        grads = np.asarray(partials, dtype=float)
    except ValueError:
        raise ShapeError("partial gradients are not k numeric vectors of one length") from None
    if grads.ndim != 2:
        raise ShapeError(f"partial gradients must form a k x d array, got shape {grads.shape}")
    return grads


def _split(grads: np.ndarray, m: int) -> np.ndarray:
    """split_gradients of each k x d slice of a g x k x d stack."""
    g, k, d = grads.shape
    sub = -(-d // m)  # ceil
    padded = np.zeros((g, k, m * sub))
    padded[..., :d] = grads
    return padded.reshape(g, k, m, sub).transpose(0, 3, 2, 1).reshape(g, sub, m * k)


def split_gradients(partials, m: int) -> np.ndarray:
    """Arrange the k per-subset gradients, a k x d array or k vectors of
    length d, into the block matrix Z.

    Each gradient is zero-padded at the tail to m * ceil(d / m) and cut into
    m blocks; Z has shape ceil(d / m) x mk with column u*k + i equal to block
    u of g_i, so that Z F sums the subset gradients blockwise.
    """
    grads = _as_gradients(partials)
    if m < 1:
        raise ParameterError("m must be positive")
    return _split(grads[None], m)[0]


def reconstruct(
    partials, B: EncodingMatrix, workers: NonStragglerSet
) -> tuple[np.ndarray, float]:
    """The decoded aggregate of the k per-subset gradients and its gap:
    reconstruct_each of the one set.

    The server forms Z B R, the survivors' approximation of the blockwise
    sum Z F (Z from split_gradients); its m blocks are stacked back into one
    length-d vector, dropping the zero padding. The gap is that vector's
    Euclidean distance to the exact sum. The operator-norm bound
    ||Z B R - Z F||_F^2 <= ||Z||_2^2 * err is checked on the full blockwise
    matrix, raising NumericalError when it fails.
    """
    grads = _as_gradients(partials)
    approx, gaps = reconstruct_each(grads[None], (B,), (workers,))
    return approx[0], float(gaps[0])


def reconstruct_each(
    partials, encodings: Iterable[EncodingMatrix], sets: Iterable[NonStragglerSet]
) -> tuple[np.ndarray, np.ndarray]:
    """reconstruct for every j, in order: the k per-subset gradients
    partials[j] (a g x k x d array) decoded through encodings[j] and the
    survivors sets[j]. Returns the g x d decoded aggregates and the g gaps.

    Every encoding has the same k and m. One decode_each call decodes all
    the sets; the blockwise split, the fitted combinations, the gaps and
    the operator-norm check, with one stacked eigensolve for the ||Z_j||_2,
    each run once for the whole stack.
    """
    encodings, sets = list(encodings), list(sets)
    try:
        grads = np.asarray(partials, dtype=float)
    except ValueError:
        raise ShapeError("partial gradients are not g x k x d numbers") from None
    if grads.ndim != 3 or grads.shape[0] != len(encodings):
        raise ShapeError(
            f"partial gradients of shape {grads.shape} for {len(encodings)} encodings"
        )
    g, k, d = grads.shape
    if not g:
        return np.zeros((0, d)), np.zeros(0)
    m = encodings[0].m
    for B in encodings:
        if (B.k, B.m) != (k, m):
            raise ShapeError(
                f"{k} partial gradients with m={m} for an encoding of k={B.k} subsets, m={B.m}"
            )
    Z = _split(grads, m)
    decs = decode_each(encodings, sets)
    fitted = np.empty((g, m * k, m))
    for picked in _by_encoding(encodings):
        fitted[picked] = _fitted(encodings[picked[0]], [decs[j].coeffs for j in picked])
    approx = Z @ fitted
    diff = approx - Z.reshape(g, -1, m, k).sum(axis=3)  # Z F
    if Z.size:
        gap_sq = np.einsum("jum,jum->j", diff, diff)
        limit = _spectral_norm_sq(Z) * np.array([dec.err for dec in decs])
        bad = ~(gap_sq <= limit * (1.0 + 1e-8) + 1e-8)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise NumericalError(f"operator-norm bound violated: gap^2={gap_sq[j]} > {limit[j]}")
    # column-major within each set: block u of the gradient, then block u+1
    gaps = np.linalg.norm(diff.transpose(0, 2, 1).reshape(g, -1)[:, :d], axis=1)
    return approx.transpose(0, 2, 1).reshape(g, -1)[:, :d], gaps
