"""Server-side decoding: target matrix, optimal decoding coefficients,
approximation error, and the coded aggregation of per-subset gradients.

The target matrix F is mk x m with column i the indicator of gradient block
i's rows; the exact aggregate gradient is Z F. For a set of surviving
workers S, decoding solves a minimum-norm least-squares fit of F by the
surviving columns B_S; the approximation error is the squared Frobenius
residual.

decode_each is the one batch decoder, and decode is its one-set case. It
groups its positions by distinct encoding. The sets of an encoding that
carries more than one set in the call (a sweep hands it many sets of one
encoding) are solved by size in batched stacks, by the tier its whole
Gram clears (EncodingMatrix.gram_tier):

  * 1e8: together through that Gram's inverse (EncodingMatrix.gram_inverse,
    below);
  * stacked copies with no repeated column, short of 1e8: route 1 on each
    set's k-row block, stacked, under one certificate of the stack;
  * any other encoding at 1e12 only: one stacked Gram solve, or one stacked
    Householder QR when a member's survivor Gram fails the 1e8
    certificate (below);
  * any other (a whole Gram that clears neither tier, or stacked copies
    that repeat a column): set by set, by the table below.

Every other set is solved once, by the first route of this table that it
clears: a training iteration and the estimator hand it one set per
encoding, which never pays for a whole-Gram certificate.

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

The other stacks gather at most STACK_ELEMENTS entries each, or one set
where a single set needs more. Routes 1 to 3 are written once, over a
leading stack axis, and the route table runs them on a stack of one set.
A batched LAPACK gufunc (cholesky, solve, qr) runs on each member the
routine it runs on that matrix alone, so a stack certificate that clears
is the certificate each member would earn, and each member gets exactly
decode's result. A stack of more than one set of copies tries only its
first Gram, and one that any member fails goes set by set through the
table. At the 1e12 tier, interlacing gives every block cond_2(G_SS) <
1e12, so cond_2(B_S) < 1e6: the QR of route 3 is valid for every member
of a stack whose 1e8 certificate fails, without a per-set certificate,
and the SVD is never needed. Those members agree with decode within
1e-9 * mk, and exactly where decode also takes the QR.

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

# Most float64 entries of the largest array one stack of _decode_capped
# gathers (g x rows x |S| survivor columns, g x k x |S| blocks of stacked
# copies, or g x |S| x |S| survivor Grams): 2**14, 128 KiB, about ten
# 40 x 40 blocks. On the fig5-fast sweep, uncapped 100-set stacks took the
# peak RSS from 39.5 to 44.8 MB and a cap of 2**16 to 41.2 MB; this cap
# keeps it at 39.5 MB, and runs faster than a cap of 2**12.
STACK_ELEMENTS = 2**14

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
        arr = np.asarray(raw)
        if arr.ndim != 1:
            raise ParameterError(f"members must be a flat sequence, got shape {arr.shape}")
        # np.asarray folds bools into an integer array, so look at the
        # items of a plain sequence; an array shows its kind in its dtype
        if arr.size and (
            arr.dtype.kind not in "iu"
            or (not isinstance(raw, np.ndarray) and not _BOOLS.isdisjoint(map(type, raw)))
        ):
            raise ParameterError(f"member indices must be integers, got {raw!r}")
        # one sorted list of ints costs a fraction of np.sort and numpy
        # comparisons on the few dozen members of a drawn set
        mem = sorted(arr.tolist())
        if mem and not (mem[0] >= 0 and mem[-1] < self.n):
            raise ParameterError("member index out of range")
        if len(set(mem)) < len(mem):
            raise ParameterError("duplicate member index")
        object.__setattr__(self, "members", tuple(mem))

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

    The sets of an encoding that recurs in the call are solved by size as
    batched stacks, by its whole-Gram tier, as set out above. Through
    K = G^-1 (the 1e8 tier) and by stacked QR (the 1e12 tier), errors match
    decode(B, w) within 1e-9 * mk, with the same coefficient support (the
    survivors' rows); the coefficients come from another solve, so they
    agree only to rounding. Every other set, in a stack whose certificate
    clears or through the route table, gets exactly decode's result. Every
    set is checked against its direct residual, with one product per
    distinct encoding."""
    encodings, sets = list(encodings), list(sets)
    if len(encodings) != len(sets):
        raise ShapeError(f"{len(encodings)} encodings for {len(sets)} survivor sets")
    results: list = [None] * len(sets)
    direct = np.empty(len(sets))
    for picked in _by_encoding(encodings):
        B = encodings[picked[0]]
        _check_shapes(B, [sets[j] for j in picked])
        recurs = len(picked) > 1
        inverse = B.gram_inverse if recurs else None
        if inverse is None and not (recurs and _stacks(B)):
            for j in picked:
                results[j] = DecodeResult(*_route(B, sets[j]))
        else:
            by_size: dict[int, list[int]] = {}
            for j in picked:
                by_size.setdefault(len(sets[j].members), []).append(j)
            for size, same in by_size.items():
                if inverse is None:
                    coeffs, errs = _decode_capped(B, [sets[j] for j in same], size)
                else:
                    coeffs, errs = _decode_group(B, inverse, [sets[j].members for j in same], size)
                for j, one, err in zip(same, coeffs, errs.tolist()):
                    results[j] = DecodeResult(coeffs=one, err=err)
        diff = _fitted(B, [results[j].coeffs for j in picked]) - build_target(B.k, B.m)
        direct[picked] = np.einsum("jrm,jrm->j", diff, diff)
    _check_residuals([res.err for res in results], direct)
    return results


def _route(B: EncodingMatrix, workers: NonStragglerSet) -> tuple[np.ndarray, float]:
    """(coefficients n x m, error) of one set, by the route table above:
    routes 1 to 3 as stacks of one set, route 4 by project."""
    rows, n = B.mat.shape
    total = float(rows)
    coeffs = np.zeros((n, B.m))
    if not workers.members:
        return coeffs, total
    idx = np.array(workers.members, dtype=np.intp)
    if B.stacked_copies:
        firsts, inverse, counts = _column_merge(B, idx)
        root = np.sqrt(counts)
        x, err = _decode_stacked((B.block(0).take(firsts, axis=1) * root)[None], B.m)
        coeffs[idx] = (x[0] / B.m / root)[inverse, None]
        return coeffs, float(err[0])
    solved = _solve_survivors(B, idx[None], qr_valid=False)
    if solved is not None:
        return solved[0][0], float(solved[1][0])
    coeffs[idx], err = project(B.mat.take(idx, axis=1), build_target(B.k, B.m))
    return coeffs, min(max(float(err), 0.0), total)


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


def _solve_qr(b_s: np.ndarray, target: np.ndarray):
    """min ||B_S R - F||_F by Householder QR for each B_S of a stack (g x
    mk x |S|) of full column rank: (R, ||F||_F^2 - ||Q^T F||_F^2) per
    member. The triangular factor has exact zeros below its diagonal, so
    the LU solve with it never pivots and is back substitution."""
    q, upper = np.linalg.qr(b_s)
    proj = np.swapaxes(q, -1, -2) @ target
    err = (target * target).sum() - (proj * proj).sum(axis=(-2, -1))
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
            coeffs[idx, col] = np.linalg.solve(*_survivor_system(B, idx))
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


def _stacks(B: EncodingMatrix) -> bool:
    """Whether the sets of a recurring encoding without a 1e8 whole-Gram
    certificate are decoded in capped stacks (_decode_capped): stacked
    copies with no repeated column, or any other encoding whose whole Gram
    clears the 1e12 tier."""
    if B.stacked_copies:
        return B.column_classes is None
    return B.gram_tier == QR_COND_MAX


def _decode_capped(B: EncodingMatrix, sets: list, size: int):
    """(coefficients g x n x m, errors g) of g survivor sets of one size of
    an encoding that _stacks, in stacks of at most STACK_ELEMENTS gathered
    entries: each stack by _stack_copies or by _solve_survivors with the
    QR valid for every member, or set by set through _route where a stack
    of copies fails its certificate."""
    rows, n = B.mat.shape
    height = B.k if B.stacked_copies else rows
    step = max(1, STACK_ELEMENTS // max(1, max(height, size) * size))
    coeffs = np.empty((len(sets), n, B.m))
    errs = np.empty(len(sets))
    for lo in range(0, len(sets), step):
        part = sets[lo : lo + step]
        idx = np.array([w.members for w in part], dtype=np.intp).reshape(len(part), size)
        if not size:
            solved = None
        elif B.stacked_copies:
            solved = _stack_copies(B, idx)
        else:
            solved = _solve_survivors(B, idx, qr_valid=True)
        if solved is None:
            routed = [_route(B, w) for w in part]
            solved = [c for c, _ in routed], [e for _, e in routed]
        coeffs[lo : lo + len(part)], errs[lo : lo + len(part)] = solved
    return coeffs, errs


def _stack_copies(B: EncodingMatrix, idx: np.ndarray):
    """_decode_stacked of the blocks A_S of g sets of stacked copies (idx,
    g x |S|, no two survivors sharing a column), as one stack:
    (coefficients g x n x m, errors g), or None when the stack fails its
    certificate."""
    a = np.ascontiguousarray(B.block(0)[:, idx].transpose(1, 0, 2))  # g x k x |S|
    solved = _decode_stacked(a, B.m)
    if solved is None:
        return None
    x, err = solved
    coeffs = np.zeros((len(idx), B.n, B.m))
    coeffs[np.arange(len(idx))[:, None], idx] = (x / B.m)[..., None]
    return coeffs, err


def _decode_stacked(a: np.ndarray, m: int):
    """The minimum-norm decode of B_S = 1_m (x) A_S on the k-row block A_S
    of each set of a stack (a, g x k x |S|), as set out above: (x, errors)
    with x (g x |S|) = A_S^+ 1_k, every column of R_S being x / m. The
    column Gram A_S^T A_S can be certified only for |S| <= k, the row Gram
    A_S A_S^T only for |S| >= k. One block tries the column Gram, then the
    row Gram, then the SVD; a stack of more blocks tries only the column
    Gram for |S| <= k or the row Gram for |S| > k, certified for the whole
    stack at once, and gives None when any member fails it."""
    g, k, size = a.shape
    a_t = a.transpose(0, 2, 1)
    if size <= k and certify_gram(col_gram := a_t @ a):
        x = np.linalg.solve(col_gram, a.sum(axis=1)[..., None])
    elif (size > k or size == k and g == 1) and certify_gram(row_gram := a @ a_t):
        x = a_t @ np.linalg.solve(row_gram, np.ones((g, k, 1)))
    elif g == 1:
        x = project(a[0], np.ones(k))[0][None, :, None]
    else:
        return None
    fit = a @ x
    total = float(m * k)
    return x[..., 0], (total - (fit.transpose(0, 2, 1) @ fit)[:, 0, 0]).clip(0.0, total)


def _survivor_system(B: EncodingMatrix, idx: np.ndarray):
    """(G_SS, H_S) of each set of a stack (idx, g x |S|), gathered from B's
    cached Gram: g x |S| x |S| and g x |S| x m."""
    gram, image = B.gram
    if len(idx) == 1:  # the route table's one set: two takes cost a third of the fancy index
        return gram.take(idx[0], axis=0).take(idx[0], axis=1)[None], image.take(idx, axis=0)
    return gram[idx[:, :, None], idx[:, None, :]], image.take(idx, axis=0)


def _solve_survivors(B: EncodingMatrix, idx: np.ndarray, qr_valid: bool):
    """(coefficients g x n x m, errors g) of g survivor sets of one size
    (idx, g x |S|, |S| >= 1) by route 2 or 3 of the table, as one stacked
    solve: the Gram solve when the stack of survivor Grams clears the 1e8
    certificate, else Householder QR when qr_valid (B's whole Gram clears
    the 1e12 tier, which interlacing carries to every member) or when the
    stack clears certify_gram(., QR_COND_MAX); else None."""
    g = len(idx)
    rows, n = B.mat.shape
    total = float(rows)
    col = np.arange(g)[:, None]
    coeffs = np.zeros((g, n, B.m))
    gram_s, image_s = _survivor_system(B, idx)
    if certify_gram(gram_s):
        solved = np.linalg.solve(gram_s, image_s)
        coeffs[col, idx] = solved
        # ||F||_F^2 = mk = rows, and <H_S, R> = ||P_S F||_F^2
        err = total - np.sum(image_s * solved, axis=(1, 2))
    elif qr_valid or certify_gram(gram_s, QR_COND_MAX):
        b_s = B.mat.T[idx].transpose(0, 2, 1)  # g x mk x |S|
        coeffs[col, idx], err = _solve_qr(b_s, build_target(B.k, B.m))
    else:
        return None
    return coeffs, err.clip(0.0, total)


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
