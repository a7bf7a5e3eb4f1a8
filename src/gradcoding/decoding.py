"""Server-side decoding: target matrix, optimal decoding coefficients,
approximation error, and the coded aggregation of per-subset gradients.

The target matrix F is mk x m with column i the indicator of gradient block
i's rows; the exact aggregate gradient is Z F. For a set of surviving
workers S, decoding solves a minimum-norm least-squares fit of F by the
surviving columns B_S; the approximation error is the squared Frobenius
residual.

decode_each is the one batch decoder, and decode is its one-set case. It
groups its positions by distinct encoding, stacked copies of one design
and m together: the baseline B = 1_m (x) A whose every block is A
(EncodingMatrix.stacked_copies). On a design of constant overlap (below)
its random-diagonal draws and stacked copies are decoded in closed form.
On a design whose distinct columns have a class inverse (below) its
draws at m = 2 and stacked copies are decoded from that one inverse.
Every other group is solved by size in stacks that give each set
decode's result (below), but for one shortcut: a group of more than one
set (a sweep hands decode_each many sets of one encoding) whose whole
Gram clears the 1e8 certificate is solved together through that Gram's
inverse (EncodingMatrix.gram_inverse, below), within 1e-9 * mk of decode.
decode_exact is decode_each without that shortcut.

Random-diagonal draws (EncodingMatrix.diagonals, blocks A D_u) that the
whole-Gram inverse does not solve, the estimator's trials among them, are
decoded together per design by decode_draws, which also takes the
diagonals alone, with no encoding built: a training run draws and decodes
a block of iterations ahead that way. They are solved by size in stacks,
by routes 2 and 3 of the table below, each member by its own certificate
(linalg.certify_each), from survivor systems built from A^T A and the
diagonals with no mk x n matrix: G_SS = (A^T A)_SS o sum_u d_u d_u^T and
H_S[:, u] = (d_u o 1^T A)_S. The members that clear 1e8 get one stacked
Gram solve, the rest one stacked QR where their 1e12 certificate clears,
and what is left (and the empty set) route 4, the SVD of B_S. No member's result depends
on the rest of its stack, so a draw gets the same bits alone, from
decode, as in any stack; they agree with the route table on B's cached
Gram (the reference for any other encoding) within 1e-9 * mk.

Which workers hold the same subsets is one table per design,
AssignmentMatrix.column_classes. Where A's k distinct columns form a
matrix C whose Gram clears certify_gram (AssignmentMatrix.class_inverse:
K = (C^T C)^-1 and c1 = C^-1 1_k; the coset graph's circulant block), two
kinds of decode share that one inverse and solve each set from its
straggler side: the draws at m = 2 on paired workers (_class_draws), and
the stacked copies of A (_class_copies). This is the one decode on
column classes: every other set, of these designs or of a design with
equal columns and no class inverse, is solved on B_S itself, as on any
other design.

On paired workers (AssignmentMatrix.partners: every class has at most
two, as in the coset graph), a draw at m = 2 is first reduced to A's
column classes: the survivors of a class U share the column a_U, so B_S
restricted to them is (I_m (x) a_U) D_U, D_U the m x c matrix of their
diagonals. Factor D_U = P_U T_U, P_U of full column rank with its rank
from the rank rule (two partners by Gram-Schmidt, a lone survivor as
P_U = d, T_U = 1). Then B_S = M_S T with T block diagonal of full row
rank, and M_S has P's columns in place of the diagonals. Where M_S has
full column rank, R = T^+ Y, for M_S's solution Y, is B_S's minimum-norm
solution, with M_S's error. Nearly parallel partner diagonals make B_S
ill-conditioned and exact ties (epsilon = 0) rank-deficient; M_S is
neither. The reduced survivor columns are (I_m (x) C) Q diag(scale),
Q's columns q (x) e_U orthonormal, one per kept direction q of class U,
each scaled by the norm of its column of P_U (1 for a Gram-Schmidt q,
||d|| for a lone survivor).
With P an orthonormal basis of col(Q)'s complement, t columns p_a = v_a
(x) e_{u_a} (per class: nothing, the unit normal of the one kept
direction, or e_1 and e_2), the residual of F lies in the span of
(I_m (x) C^-T) P, so

    W = P^T (I_m (x) K) P,       W[a, b] = (v_a . v_b) K[u_a, u_b],
    H = P^T (I_m (x) C^-1) F,    H[a, i] = (v_a)_i c1[u_a],
    err = <H, W^-1 H>,

one t x t solve per set (the straggler identity of the whole-Gram inverse
below, on C). The fit's preimage Y = (I_m (x) C^-1) F - (I_m (x) K) P
W^-1 H gives each kept column q^T Y_U / scale, and R = T^+ of that as
above. Stacked copies are the case m = 1 on the k-row block: P holds e_u
of each absent class u, ||r||^2 = c1_T^T K_TT^-1 c1_T, err = mk - k +
||r||^2, and y = c1 - K[:, T] w (w = K_TT^-1 c1_T) gives each of the c_u
survivors of class u the coefficient y_u / (c_u m). P is orthonormal, so
W's eigenvalues lie within K's spectrum (Cauchy interlacing):
cond(W) <= cond(C^T C) < 1e8 for every set, certified once per design.
Each member's own certificate needs no factorization either: the reduced
Gram's eigenvalues lie in [lambda_min(C^T C) min scale^2,
lambda_max(C^T C) max scale^2] (scale^2 = c_u, the survivors of class u,
for stacked copies), so where cond(C^T C) max scale^2 < 1e8 min scale^2
(_clears) the reduced system has cond_2 < 1e8, full column rank under
the rank rule, and the rank of the reduction. A member it refuses (a lone
diagonal of tiny norm, whose column the rank rule may drop, and the
empty set) is solved on its B_S, as on a design without the class
inverse. The sets are solved by t in stacks of at most STACK_ELEMENTS
gathered entries; no member's result depends on its stack. These draws
never take the whole-Gram inverse.

Where every two workers share exactly lambda < delta subsets
(AssignmentMatrix.overlap: A^T A = (delta - lambda) I + lambda J, a BIBD
transpose), every encoding whose blocks are A D_u, a random-diagonal draw
or stacked copies (D_u = I, diagonals of ones), goes with the draws of its
design and m, in any call. Its survivor Gram is diagonal plus rank m:
with D_S the m x |S| survivors' diagonals, G_SS = L_S + lambda D_S^T D_S,
L_S = diag((delta - lambda) ||d_j||^2), and H_S = delta D_S^T. By the
push-through (Woodbury) identity (Hager, "Updating the inverse of a
matrix", SIAM Review 31(2), 1989), with N = D_S L_S^-1 D_S^T (m x m),

    R_S = delta L_S^-1 D_S^T (I_m + lambda N)^-1,
    err = mk - delta^2 tr(N (I_m + lambda N)^-1),

one m x m inverse per set, for the whole stack at once. At D_S = 1 this
error is bounds.baseline_bibd_error, and at m = 1 with D_S = +/-1
bounds.bound_bibd, for every set. Its certificate needs no
factorization: min L_S bounds lambda_min(G_SS) from below and max L_S +
lambda sum_S ||d_j||^2 bounds lambda_max(G_SS) from above, so when the
second is below 1e8 min L_S, cond_2(G_SS) < 1e8, the Gram solve's tier,
and B_S has full column rank under the rank rule. Then
cond(I_m + lambda N) <= 1 + lambda |S| / (delta - lambda) for any
diagonals, so the explicit inverse is accurate. A member the certificate
refuses (a zero or tiny diagonal entry, or the empty set) is decoded as a
draw of any other design. No whole Gram of these encodings is formed.

Every other set is solved once, by the first route of this table that it
clears, which never pays for a whole-Gram certificate.

  1. Stacked copies, decoded on the k-row block of A (below); a set
     whose block clears no certificate goes to route 4.
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
x = A_S^+ 1_k, and the error is mk - ||A_S x||^2. A block
of at most k columns takes x from its column Gram when certify_gram
clears it (this is the certificate of G_S = m A_S^T A_S up to rounding);
a block of more than k columns takes x = A_S^T y with A_S A_S^T y = 1_k
when certify_gram clears that k x k row Gram (x lies in the row space of
A_S, so it is the minimum-norm solution). A set whose block clears
neither goes to route 4 on its own B_S: so does a set of at most k
survivors two of which share a column of A, whose column Gram is
singular.

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
where a single set needs more; a set decoded alone is a stack of one.
Routes 1 to 3 are written once, over a leading stack axis. A batched
LAPACK gufunc (cholesky, solve, qr) runs on each member the routine it
runs on that matrix alone, so a member's certificate in a stack is the
one it would earn alone, and each member gets exactly decode's result. A
stack of copies tries its blocks' one Gram; any other stack gives the
members that clear 1e8 the Gram solve and the rest the QR where their
own 1e12 certificate clears. A member its stack does not solve, and the
empty set, goes to route 4, project on its own B_S: the one fallback of
every stack, the draws' included.

Each decode is checked against the directly computed residual
||B R - F||_F^2, one product per group of one encoding or of stacked
copies and one per design for the draws (block u of B R is A (d_u o R)),
raising NumericalError on a disagreement; the result keeps B R (DecodeResult.fitted). apply_fitted
turns the fitted combinations into decoded gradients: Z B R, the
operator-norm check and the gaps, for a stack of sets at once. The check
||Z B R - Z F||_F^2 <= ||Z||_2^2 err first takes a lower bound on each
||Z_j||_2^2, the Rayleigh quotient of a few power steps on its small
Gram: a member within the bound there is within it at ||Z_j||_2^2, and
only the members it leaves open go to one stacked eigensolve and the
test on it, so the verdict is the eigensolve's. reconstruct_each is
decode_each followed by apply_fitted. A training run decodes its fixed
encodings a block of iterations ahead by decode_exact, its draws by
decode_draws, and applies each iteration's slice of the block.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .designs import AssignmentMatrix
from .encoders import DiagonalDraws, EncodingMatrix
from .errors import NonFiniteError, NumericalError, ParameterError, ShapeError, check_count
from .linalg import CERT_COND_MAX, QR_COND_MAX, RANK_EPS, certify_each, project

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

    The constructor checks its input: n must be a non-negative integer, not
    a bool, and is stored as an int; members may be any flat sequence or
    array of integers and is stored as a sorted tuple of ints; fractional,
    float and bool entries are refused rather than truncated. The sets the
    library draws itself (sample_straggler_set and the exhaustive sweep)
    are built unchecked from their index arrays, which are distinct, sorted
    and in range by construction. index, the members as a read-only intp
    array, is what the decoders and bounds read: a drawn set carries its
    draw's array, any other set builds it once on first use."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_count(self.n, "worker count n"))
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

    @classmethod
    def _drawn(cls, n: int, index: np.ndarray) -> "NonStragglerSet":
        """The set of a library draw, without the constructor's checks: n an
        int, index a 1-d intp array of distinct sorted indices below n,
        which becomes the set's read-only index."""
        index.setflags(write=False)
        workers = object.__new__(cls)
        workers.__dict__.update(n=n, members=tuple(index.tolist()), index=index)
        return workers

    @cached_property
    def index(self) -> np.ndarray:
        """The members as a read-only 1-d intp array."""
        index = np.array(self.members, dtype=np.intp)
        index.setflags(write=False)
        return index

    @property
    def s(self) -> int:
        """Number of stragglers."""
        return self.n - len(self.members)

    @classmethod
    def full(cls, n: int) -> "NonStragglerSet":
        return cls(n=n, members=tuple(range(n)))


@dataclass(frozen=True)
class DecodeResult:
    """Decoding coefficients R (n x m, zero off the surviving workers), the
    squared-Frobenius approximation error, and the fitted combination B R
    (mk x m) whose residual ||B R - F||_F^2 the error was checked against."""

    coeffs: np.ndarray
    err: float
    fitted: np.ndarray


def build_target(k: int, m: int) -> np.ndarray:
    """The mk x m target F, column i indicating rows ik..(i+1)k-1; F^T F = k I.
    Built once per (k, m) and read-only."""
    return _target(check_count(k, "k", 1), check_count(m, "m", 1))


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

    The sets of each group (one encoding, or the stacked copies or the
    draws of one design and m) are solved by size as batched stacks, as
    set out above, and each gets exactly decode's result, but in a group
    of more than one set solved through its whole-Gram inverse
    (EncodingMatrix.gram_inverse, the 1e8 tier). There errors match
    decode(B, w) within 1e-9 * mk, with the same coefficient support (the
    survivors' rows); the coefficients come from another solve, so they
    agree only to rounding. Every set is checked against its direct
    residual, with one product per group and one per design for the
    draws."""
    return _decode_calls(encodings, sets, whole_gram=True)


def decode_exact(
    encodings: Iterable[EncodingMatrix], sets: Iterable[NonStragglerSet]
) -> list[DecodeResult]:
    """decode(encodings[j], sets[j]) for every j, in order, bit for bit:
    decode_each without the whole-Gram inverse, grouped and stacked as
    decode_each groups and stacks in every other way. A training run
    decodes its fixed encodings a block of iterations ahead this way, so
    the block changes no bit."""
    return _decode_calls(encodings, sets, whole_gram=False)


def _decode_calls(encodings, sets, whole_gram: bool) -> list[DecodeResult]:
    """decode_each, or with whole_gram False decode_exact."""
    encodings, sets = list(encodings), list(sets)
    if len(encodings) != len(sets):
        raise ShapeError(f"{len(encodings)} encodings for {len(sets)} survivor sets")
    results: list = [None] * len(sets)
    for picked, draws in _groups(encodings, whole_gram):
        group = [encodings[j] for j in picked]
        same = [sets[j] for j in picked]
        distinct = {id(B): B for B in group}
        for B in distinct.values():
            _check_shapes(B, ())
        _check_shapes(group[0], same)
        if draws:  # one parent: every encoding has the same n
            diagonals = {key: _blocks_diagonals(B) for key, B in distinct.items()}
            decoded = _decode_draws(group[0].parent, np.array([diagonals[id(B)] for B in group]), same)
        else:
            decoded = _decode_one(group[0], same, whole_gram)
        for j, res in zip(picked, decoded):
            results[j] = res
    return results


def decode_draws(
    A: AssignmentMatrix, draws: Iterable[DiagonalDraws], sets: Iterable[NonStragglerSet]
) -> list[DecodeResult]:
    """The decode of the random-diagonal encoding of A with the diagonals
    draws[j] for sets[j], for every j, in order, without building the
    encodings: decode's result for each, as decode_exact gives it in any
    call and decode_each wherever the whole-Gram inverse does not solve the
    encoding's sets. Every draw has the same m.

    The sets are solved in closed form on a design of constant overlap,
    at m = 2 on paired workers from the straggler side of the design's
    class inverse, and otherwise by size in stacks, their survivor
    systems built from A^T A and the diagonals, as set out above."""
    draws, sets = list(draws), list(sets)
    if len(draws) != len(sets):
        raise ShapeError(f"{len(draws)} diagonal draws for {len(sets)} survivor sets")
    if not draws:
        return []
    shapes = sorted({d.diagonals.shape for d in draws})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][1] != A.n:
        raise ShapeError(f"diagonal draws of shapes {shapes} for n={A.n} workers")
    for workers in sets:
        if workers.n != A.n:
            raise ShapeError(f"worker count {workers.n} does not match n={A.n}")
    return _decode_draws(A, np.array([d.diagonals for d in draws]), sets)


def _groups(encodings: list, whole_gram: bool) -> list[tuple[list[int], bool]]:
    """(positions, draws) of each group decoded together, in order of first
    appearance: the positions of each distinct encoding (the sets of one
    encoding share one product, so an encoding that recurs is never copied
    per set), except that stacked copies of one design and m are one
    group, and the random-diagonal draws (EncodingMatrix.diagonals) are
    gathered by design and m, with draws True: on a design of constant
    overlap every draw and stacked copies of the design, elsewhere every
    draw the class inverse solves (_class_side) or whose sets _inverse
    does not solve."""
    groups: list[tuple[list[int], bool]] = []
    shared: dict[tuple, list[int]] = {}
    for _, picked in _by_key(list(map(id, encodings))):
        B = encodings[picked[0]]
        if B.parent.overlap is not None:
            draws = _blocks_diagonals(B) is not None
        else:
            draws = B.diagonals is not None and (
                _class_side(B.parent, B.m) or _inverse(B, len(picked), whole_gram) is None
            )
        if not (draws or B.stacked_copies):
            groups.append((picked, False))
            continue
        key = (id(B.parent), B.m, draws)
        if key in shared:
            shared[key].extend(picked)
        else:
            groups.append((shared.setdefault(key, picked), draws))
    return groups


def _inverse(B: EncodingMatrix, count: int, whole_gram: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The whole-Gram inverse (B.gram_inverse) that a group of count sets of
    B is solved through, or None: decode_each's one shortcut (whole_gram),
    for more than one set, which decode_exact never takes."""
    return B.gram_inverse if whole_gram and count > 1 else None


def _blocks_diagonals(B: EncodingMatrix) -> np.ndarray | None:
    """The m x n diagonals d_u of B's blocks A D_u: a random-diagonal
    encoding's draws (EncodingMatrix.diagonals), ones for stacked copies of
    its parent A, None for any other encoding."""
    if B.diagonals is not None:
        return B.diagonals
    return np.ones((B.m, B.n)) if B.stacked_copies else None


def _by_key(keys: list) -> list[tuple]:
    """(key, the positions holding it) for each distinct key, in order of
    first appearance."""
    groups: dict = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    return list(groups.items())


def _decode_one(B: EncodingMatrix, sets: list, whole_gram: bool) -> list[DecodeResult]:
    """The decodes of sets of one encoding (or of stacked copies of one
    design and m): stacked copies from the straggler side of the design's
    class inverse where its certificate clears them (_class_copies);
    through the whole-Gram inverse where _inverse gives it; else by size
    in stacks that give each set decode's result, stacked copies on their
    k-row blocks (_copies_stack) and any other encoding from its cached
    Gram (_survivor_stack)."""
    rows, n = B.mat.shape
    target = build_target(B.k, B.m)
    coeffs = np.empty((len(sets), n, B.m))
    errs = np.empty(len(sets))
    inverse = _inverse(B, len(sets), whole_gram)
    rest = np.arange(len(sets))
    if B.stacked_copies and B.parent.class_inverse is not None:
        rest = rest[~_class_copies(B.parent, B.m, sets, coeffs, errs)]
    left = [sets[j] for j in rest.tolist()]
    stack = _copies_stack if B.stacked_copies else _survivor_stack
    for width, at in _by_key([len(w.members) for w in left]):
        part = [left[j] for j in at]
        pos = rest[at]
        if inverse is not None:
            coeffs[pos], errs[pos] = _decode_group(B, inverse, _members(part, width))
            continue

        def solve(lo: int, hi: int):
            return stack(B, _members(part[lo:hi], width))

        def columns(j: int):
            idx = part[j].index
            return idx, B.mat.take(idx, axis=1)

        height = B.k if B.stacked_copies else rows
        coeffs[pos], errs[pos] = _decode_capped(target, n, len(part), width, height, solve, columns)
    return _checked(coeffs, errs, np.matmul(B.mat, coeffs), target)


def _decode_draws(A: AssignmentMatrix, diagonals: np.ndarray, sets: list) -> list[DecodeResult]:
    """The decodes of random-diagonal draws of A (diagonals, g x m x n), set
    j through draw j: on a design of constant overlap (A.overlap) in closed
    form (_closed_form); at m = 2 on paired workers (_class_side) from the
    straggler side of A.class_inverse where its certificate clears them
    (_class_draws); the other members by size in stacks of their own
    survivor systems by _draw_stack; a member a stack does not solve, and
    the empty set, by route 4 on its B_S. B R comes from A and the
    diagonals: block u of it is A (d_u o R)."""
    g, m, n = diagonals.shape
    mk = m * A.k
    target = build_target(A.k, m)
    colsum = A.mat.sum(axis=0)
    survives = _survivors(n, sets)
    coeffs = np.empty((g, n, m))
    errs = np.empty(g)
    rest = np.arange(g)
    if A.overlap is not None:  # no two equal columns, so no class side
        rest = rest[~_closed_form(A, diagonals, survives, coeffs, errs)]
    elif _class_side(A, m):
        rest = rest[~_class_draws(A, diagonals, survives, coeffs, errs)]
    for size, at in _by_key(survives[rest].sum(axis=1).tolist()):
        at = rest[at]

        def solve(lo: int, hi: int):
            picked = at[lo:hi]
            idx = np.nonzero(survives[picked])[1].reshape(len(picked), size)
            d_s = np.take_along_axis(diagonals[picked], idx[:, None, :], axis=2)
            return _scatter(n, idx, *_draw_stack(A, A.gram, colsum, idx, d_s))

        def columns(j: int):
            idx, diag = sets[at[j]].index, diagonals[at[j]]
            return idx, (A.mat[:, idx] * diag[:, None, idx]).reshape(mk, idx.size)

        coeffs[at], errs[at] = _decode_capped(target, n, len(at), size, mk, solve, columns)
    fitted = np.empty((g, m, A.k, m))
    for u in range(m):
        np.matmul(A.mat, diagonals[:, u, :, None] * coeffs, out=fitted[:, u])
    return _checked(coeffs, errs, fitted.reshape(g, mk, m), target)


def _closed_form(
    A: AssignmentMatrix, diagonals: np.ndarray, survives: np.ndarray, coeffs: np.ndarray, errs: np.ndarray
) -> np.ndarray:
    """Which members of a stack of draws of a design of constant overlap
    lambda (A.overlap) the closed-form certificate clears (g), each solved
    in closed form into coeffs and errs, as set out above."""
    lam, delta = A.overlap, A.delta
    _, m, n = diagonals.shape
    total = float(m * A.k)
    sq = (diagonals * diagonals).sum(axis=1)  # ||d_j||^2, g x n
    weight = (delta - lam) * sq  # Lambda_j
    small = np.where(survives, weight, np.inf).min(axis=1)
    big = np.where(survives, weight, 0.0).max(axis=1)
    # small is a normal number, so every 1 / Lambda_j is finite; the empty
    # set (small = inf) fails
    ok = np.isfinite(small) & (small >= np.finfo(float).tiny)
    ok &= big + lam * (sq * survives).sum(axis=1) < CERT_COND_MAX * small
    sel = np.flatnonzero(ok)
    if sel.size:
        d = diagonals[sel]
        inv = np.divide(1.0, weight[sel], out=np.zeros((sel.size, n)), where=survives[sel])
        scaled = d * inv[:, None, :]  # D Lambda^-1, zero off the survivors
        N = scaled @ d.transpose(0, 2, 1)
        # cond(I + lambda N) <= 1 + lambda |S| / (delta - lambda), so its
        # explicit m x m inverse is accurate; one stacked inv and product
        # cost a tenth of a stacked solve with n right-hand sides
        W = np.linalg.inv(np.eye(m) + lam * N)
        coeffs[sel] = delta * (W @ scaled).transpose(0, 2, 1)
        errs[sel] = (total - delta * delta * (N * W.transpose(0, 2, 1)).sum(axis=(1, 2))).clip(0.0, total)
    return ok


def _class_factors(partner: np.ndarray, diagonals: np.ndarray, survives: np.ndarray):
    """The draws' survivor systems reduced to A's column classes, as set out
    above, for the survivors survives (g x n): (basis, kept, own, other).

    Two surviving partners with diagonals x and y, |x| >= |y|, factor as
    D_U = [x y] = [q_1 q_2] R by Gram-Schmidt, R = [[r11, r12], [0, r22]],
    whose singular values (with product r11 r22) give the rank by the rank
    rule. At rank 2 the partners' columns of basis (a copy of diagonals)
    hold q_1 and q_2, P_U, and T_U = R; at rank 1 x's column holds q_1, y's
    is not kept, and T_U = [r11, r12]. A lone survivor keeps its diagonal
    (T_U = 1). Survivor i's coefficients are own[i] Y[i] + other[i]
    Y[partner[i]] for the solution Y of the reduced system (zero off the
    kept columns): T_U^+ Y."""
    g, m, n = diagonals.shape
    basis, kept = diagonals.copy(), survives.copy()
    own, other = survives.astype(float), np.zeros((g, n))
    rows, low = np.nonzero(survives & survives[:, partner] & (partner > np.arange(n)))
    high = partner[low]
    x, y = diagonals[rows, :, low], diagonals[rows, :, high]
    swap = (y * y).sum(axis=1) > (x * x).sum(axis=1)
    x[swap], y[swap] = y[swap], x[swap]
    near, far = np.where(swap, high, low), np.where(swap, low, high)
    r11 = np.sqrt((x * x).sum(axis=1))
    q = x / np.where(r11 > 0.0, r11, 1.0)[:, None]
    r12 = (q * y).sum(axis=1)
    y -= r12[:, None] * q
    r22 = np.sqrt((y * y).sum(axis=1))
    total = r11 * r11 + r12 * r12 + r22 * r22
    # sigma_1^2 of R; sigma_2 > RANK_EPS sigma_1 is r11 r22 > RANK_EPS sigma_1^2
    top = total / 2 + np.sqrt(np.maximum(total * total / 4 - (r11 * r22) ** 2, 0.0))
    two = r11 * r22 > RANK_EPS * top
    one = ~two
    basis[rows, :, near] = q
    basis[rows[two], :, far[two]] = y[two] / r22[two, None]
    kept[rows[one], far[one]] = False
    lead = r11 * r11 + np.where(two, 0.0, r12 * r12)
    lead[lead == 0.0] = 1.0  # x = y = 0: B_S has zero columns, the member falls back
    own[rows, near] = r11 / lead
    own[rows, far] = 0.0
    own[rows[two], far[two]] = 1.0 / r22[two]
    other[rows[two], near[two]] = -r12[two] / (r11[two] * r22[two])
    other[rows[one], far[one]] = r12[one] / lead[one]
    return basis, kept, own, other


def _class_side(A: AssignmentMatrix, m: int) -> bool:
    """Whether A's draws at m decode from the straggler side of
    A.class_inverse: at m = 2 on paired workers (A.partners)."""
    return m == 2 and A.partners is not None and A.class_inverse is not None


def _clears(cond: float, scale_sq: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Which members (g) the class-inverse certificate clears, as set out
    above: at least one kept column, and cond times the ratio of the
    largest to the smallest kept scale_sq (g x columns) below 1e8. A zero
    or non-finite scale clears nothing."""
    small = np.where(kept, scale_sq, np.inf).min(axis=1)
    big = np.where(kept, scale_sq, 0.0).max(axis=1)
    return np.isfinite(small) & (cond * big < CERT_COND_MAX * small)


def _class_draws(A: AssignmentMatrix, diagonals, survives, coeffs, errs) -> np.ndarray:
    """Which of a stack of draws at m = 2 on paired workers (g) the
    class-inverse certificate clears after their reduction by
    _class_factors, each solved from the straggler side of A.class_inverse
    into coeffs and errs, as set out above. Per class, P holds e_1 and e_2
    where no column is kept, the unit normal of the kept direction where
    one is, and nothing where two are."""
    labels, lo = A.column_classes
    partner = A.partners
    hi = partner[lo]
    basis, kept, own, other = _class_factors(partner, diagonals, survives)
    scale_sq = (basis * basis).sum(axis=1)
    ok = _clears(A.class_inverse[2], scale_sq, kept)
    sel = np.flatnonzero(ok)
    basis, kept, own, other = basis[sel], kept[sel], own[sel], other[sel]
    # 1 / ||basis||^2 on the kept columns, 0 elsewhere
    weight = np.divide(1.0, scale_sq[sel], out=np.zeros(kept.shape), where=kept)
    on_lo, on_hi = kept[:, lo], kept[:, hi] & (hi != lo)
    rank = on_lo.astype(np.intp) + on_hi
    # the kept direction of each class of rank 1 and its unit normal
    b = np.where(on_lo[:, None, :], basis[:, :, lo], basis[:, :, hi])
    one = rank == 1
    norm = np.sqrt(np.where(one, (b * b).sum(axis=1), 1.0))
    vectors = np.zeros((sel.size, A.k, 2, 2))
    vectors[:, :, 0, 0] = np.where(one, -b[:, 1] / norm, 1.0)
    vectors[:, :, 0, 1] = np.where(one, b[:, 0] / norm, 0.0)
    vectors[:, :, 1, 1] = 1.0
    valid = np.stack([rank <= 1, rank == 0], axis=2)
    total = float(2 * A.k)
    columns = 2 * A.k
    for picked, err, Y in _straggler_side(A, valid.reshape(-1, columns), vectors.reshape(-1, columns, 2)):
        j = sel[picked]
        # each kept column takes basis^T Y_u / ||basis||^2; then R = T^+ Y
        reduced = np.einsum("jiw,jwic->jwc", basis[picked], Y[:, labels]) * weight[picked, :, None]
        coeffs[j] = own[picked, :, None] * reduced + other[picked, :, None] * reduced[:, partner]
        errs[j] = err.clip(0.0, total)
    return ok


def _class_copies(A: AssignmentMatrix, m: int, sets: list, coeffs, errs) -> np.ndarray:
    """Which of the sets of stacked copies of A the class-inverse
    certificate clears (the scales being the square roots of the class
    counts), each solved from the straggler side of A.class_inverse into
    coeffs and errs, as set out above: P holds e_u of each absent class u,
    and each of the c_u survivors of a present class u gets y_u / (c_u m)."""
    labels, _ = A.column_classes
    k = A.k
    survives = _survivors(A.n, sets)
    counts = survives @ (labels[:, None] == np.arange(k)).astype(float)  # c_u, g x k
    present = counts > 0
    ok = _clears(A.class_inverse[2], counts, present)
    at = np.flatnonzero(ok)
    total = float(m * k)
    for picked, err, Y in _straggler_side(A, ~present[at], np.ones((at.size, k, 1))):
        j = at[picked]
        share = Y[:, :, 0, 0] / np.where(present[j], counts[j], 1.0) / m
        coeffs[j] = np.where(survives[j], share[:, labels], 0.0)[..., None]
        errs[j] = (total - k + err).clip(0.0, total)
    return ok


def _straggler_side(A: AssignmentMatrix, valid: np.ndarray, vectors: np.ndarray):
    """The straggler side of A.class_inverse for g members, by t in stacks:
    yields (the stack's positions, <H, W^-1 H>, Y) per stack, as set out
    above. P's candidate columns are p per class, column c in class c // p
    with the p-vector vectors[j, c] (g x kp x p); valid (g x kp) marks the
    columns of each member's P, t of them. A stack gathers at most
    STACK_ELEMENTS entries per array (K's t x t and t x k blocks, and Y at
    the n workers, n x p x p), or one member where one needs more. Y (g' x
    k x p x p) is the preimage (I_p (x) C^-1) F - (I_p (x) K) P W^-1 H,
    Y[j, u, i, c] its row of block i and class u."""
    K, c1, _ = A.class_inverse
    p = vectors.shape[2]
    k = A.k
    for t, at in _by_key(valid.sum(axis=1).tolist()):
        step = max(1, STACK_ELEMENTS // max(t * max(t, k), A.n * p * p))
        for lo in range(0, len(at), step):
            picked = np.array(at[lo : lo + step])
            cols = np.nonzero(valid[picked])[1].reshape(picked.size, t)
            units = cols // p
            vecs = np.take_along_axis(vectors[picked], cols[..., None], axis=1)
            W = (vecs @ vecs.transpose(0, 2, 1)) * K[units[:, :, None], units[:, None, :]]
            H = vecs * c1[units][..., None]
            z = np.linalg.solve(W, H) if t else H
            outer = (vecs[..., :, None] * z[..., None, :]).reshape(picked.size, t, p * p)  # v_a z_a^T
            Y = -(K[units].transpose(0, 2, 1) @ outer).reshape(picked.size, k, p, p)
            for i in range(p):
                Y[:, :, i, i] += c1
            yield picked, (H * z).sum(axis=(1, 2)), Y


def _checked(
    coeffs: np.ndarray, errs: np.ndarray, fitted: np.ndarray, target: np.ndarray
) -> list[DecodeResult]:
    """The DecodeResults of g sets, each error checked against its direct
    residual ||B R - F||_F^2 from the fitted B R (g x mk x m)."""
    diff = fitted - target
    _check_residuals(errs.tolist(), np.einsum("jrm,jrm->j", diff, diff))
    return [DecodeResult(*res) for res in zip(coeffs, errs.tolist(), fitted)]


def _survivors(n: int, sets: list) -> np.ndarray:
    """Which of the n workers survive in each of g sets, g x n."""
    survives = np.zeros((len(sets), n), dtype=bool)
    rows = np.repeat(np.arange(len(sets)), [len(w.members) for w in sets])
    survives[rows, np.concatenate([w.index for w in sets])] = True
    return survives


def _members(sets: list, size: int) -> np.ndarray:
    """The survivors of sets of one size, g x size."""
    return np.concatenate([w.index for w in sets]).reshape(len(sets), size)


def _solve_qr(b_s: np.ndarray, target: np.ndarray):
    """min ||B_S R - F||_F by Householder QR for each B_S of a stack (g x
    mk x |S|) of full column rank: (R, ||F||_F^2 - ||Q^T F||_F^2) per
    member. The triangular factor has exact zeros below its diagonal, so
    the LU solve with it never pivots and is back substitution."""
    q, upper = np.linalg.qr(b_s)
    proj = np.swapaxes(q, -1, -2) @ target
    err = (target * target).sum() - (proj * proj).sum(axis=(-2, -1))
    return np.linalg.solve(upper, proj), err


def _check_residuals(errs, direct: np.ndarray) -> None:
    """Raise NumericalError where a decode's error disagrees with its
    directly computed residual (a NaN disagrees with everything)."""
    for err, res in zip(errs, direct.tolist()):
        if not abs(err - res) <= _ERR_CONSISTENCY_EPS * max(1.0, res):
            raise NumericalError(f"projection residual {err} disagrees with direct residual {res}")


def _decode_group(B: EncodingMatrix, inverse: tuple[np.ndarray, np.ndarray], idx: np.ndarray):
    """(coefficients g x n x m, errors g) of g survivor sets of one size
    (idx, g x |S|), each set in the cheaper of two stacked solves, as set
    out above."""
    rows, n = B.mat.shape
    (g, size), m = idx.shape, B.m
    s = n - size
    total = float(rows)
    gram, image = B.gram
    col = np.arange(g)[:, None]
    # the survivor systems G_SS R_S = H_S when they are no larger than the
    # two s x s solves of the straggler route. Timed per route (BENCH_9.json),
    # the straggler route is the faster below this size and the slower above
    # it, the crossover lying near s = 40 at n = 91 and s = 18 at n = 40
    if size**3 <= 2 * s**3:
        coeffs = np.zeros((n, g, m))  # set j in column j
        if size:
            coeffs[idx, col] = np.linalg.solve(*_survivor_system(B, idx))
    else:
        K, full = inverse
        coeffs = np.repeat(full[:, None, :], g, axis=1)
        if s:
            straggles = np.ones((g, n), dtype=bool)
            straggles[col, idx] = False
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


def _decode_capped(target: np.ndarray, n: int, count: int, width: int, height: int, solve, columns):
    """(coefficients count x n x m, errors count) of count survivor sets
    of one width |S|, in stacks of at most STACK_ELEMENTS gathered entries
    (count' x max(height, width) x width, or one set where a single set
    needs more): solve(lo, hi) gives (coefficients, errors, solved) of
    sets lo..hi-1 as one stack. Each member solve does not solve, and every
    set of width 0, takes route 4: project on its own B_S, columns(j)
    giving set j's (survivors, B_S)."""
    total = float(len(target))  # ||F||_F^2 = mk
    step = max(1, STACK_ELEMENTS // max(1, max(height, width) * width))
    coeffs = np.empty((count, n, target.shape[1]))
    errs = np.empty(count)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        solved = np.zeros(hi - lo, dtype=bool)
        if width:
            coeffs[lo:hi], errs[lo:hi], solved = solve(lo, hi)
        for j in (lo + np.flatnonzero(~solved)).tolist():
            idx, b_s = columns(j)
            coeffs[j] = 0.0
            coeffs[j, idx], err = project(b_s, target)
            errs[j] = min(err, total)
    return coeffs, errs


def _copies_stack(B: EncodingMatrix, idx: np.ndarray):
    """Route 1 on g sets of stacked copies of one size (idx, g x |S|,
    |S| >= 1) as one stack: _decode_stacked of their k-row blocks A_S.
    (coefficients g x n x m, errors g, solved g)."""
    a = np.ascontiguousarray(B.block(0)[:, idx].transpose(1, 0, 2))  # g x k x |S|
    x, err, ok = _decode_stacked(a, B.m)
    coeffs = np.zeros((len(idx), B.n, B.m))
    coeffs[np.arange(len(idx))[:, None], idx] = (x / B.m)[..., None]
    return coeffs, err, ok


def _decode_stacked(a: np.ndarray, m: int):
    """The minimum-norm decode of B_S = 1_m (x) A_S on the k-row block A_S
    of each set of a stack (a, g x k x |S|), as set out above: (x, errors,
    solved) with x (g x |S|) = A_S^+ 1_k, every column of R_S being x / m.
    The column Gram A_S^T A_S can be certified only for |S| <= k, the row
    Gram A_S A_S^T only for |S| >= k: a stack tries the column Gram for
    |S| <= k or the row Gram for |S| > k, certified member by member
    (certify_each), and solves the members that clear it."""
    g, k, size = a.shape
    a_t = a.transpose(0, 2, 1)
    x = np.zeros((g, size, 1))
    if size <= k:
        col_gram = a_t @ a
        ok = certify_each(col_gram)
        if ok.any():
            x[ok] = np.linalg.solve(col_gram[ok], a.sum(axis=1)[ok][..., None])
    else:
        row_gram = a @ a_t
        ok = certify_each(row_gram)
        if ok.all():
            x = a_t @ np.linalg.solve(row_gram, np.ones((g, k, 1)))
        elif ok.any():
            y = np.linalg.solve(row_gram[ok], np.ones((int(ok.sum()), k, 1)))
            x[ok] = a[ok].transpose(0, 2, 1) @ y
    fit = a @ x
    total = float(m * k)
    return x[..., 0], (total - (fit.transpose(0, 2, 1) @ fit)[:, 0, 0]).clip(0.0, total), ok


def _survivor_system(B: EncodingMatrix, idx: np.ndarray):
    """(G_SS, H_S) of each set of a stack (idx, g x |S|), gathered from B's
    cached Gram: g x |S| x |S| and g x |S| x m."""
    gram, image = B.gram
    if len(idx) == 1:  # the route table's one set: two takes cost a third of the fancy index
        return gram.take(idx[0], axis=0).take(idx[0], axis=1)[None], image.take(idx, axis=0)
    return gram[idx[:, :, None], idx[:, None, :]], image.take(idx, axis=0)


def _survivor_stack(B: EncodingMatrix, idx: np.ndarray):
    """Routes 2 and 3 on g survivor sets of B of one size (idx, g x |S|,
    |S| >= 1), from B's cached Gram, by _solve_survivors: (coefficients
    g x n x m, errors g, solved g)."""
    return _scatter(
        B.n,
        idx,
        *_solve_survivors(
            *_survivor_system(B, idx),
            lambda sel: B.mat.T[idx[sel]].transpose(0, 2, 1),  # g x mk x |S|
            build_target(B.k, B.m),
        ),
    )


def _draw_stack(
    A: AssignmentMatrix, gram_a: np.ndarray, colsum: np.ndarray, idx: np.ndarray, d_s: np.ndarray
):
    """Routes 2 and 3 on g survivor systems of random-diagonal draws of A,
    by _solve_survivors: column t of member j has block u a_i d_s[j, u, t]
    for worker i = idx[j, t] (d_s, g x m x |S|, holds the survivors'
    diagonals). The systems come from A^T A (gram_a), 1^T A (colsum) and
    d_s, with no mk x n matrix: G_SS = (A^T A)_SS o D_S^T D_S and
    H_S[:, u] = (d_u o 1^T A)_S. (solutions g x |S| x m, errors g, solved g)."""
    m, size = d_s.shape[1:]
    gram_s = gram_a[idx[:, :, None], idx[:, None, :]] * (d_s.transpose(0, 2, 1) @ d_s)
    image_s = (d_s * colsum[idx][:, None, :]).transpose(0, 2, 1)

    def columns(sel: np.ndarray) -> np.ndarray:
        """B_S of the selected members, g' x mk x |S|: block u is A_S D_u."""
        a_s = A.mat[:, idx[sel]].transpose(1, 0, 2)[:, None]  # g' x 1 x k x |S|
        return (a_s * d_s[sel][:, :, None, :]).reshape(-1, m * A.k, size)

    return _solve_survivors(gram_s, image_s, columns, build_target(A.k, m))


def _scatter(n: int, idx: np.ndarray, solutions: np.ndarray, errs: np.ndarray, solved: np.ndarray):
    """(coefficients g x n x m, zero off the survivors idx, errs, solved)."""
    g, _, m = solutions.shape
    coeffs = np.zeros((g, n, m))
    coeffs[np.arange(g)[:, None], idx] = solutions
    return coeffs, errs, solved


def _solve_survivors(gram_s: np.ndarray, image_s: np.ndarray, columns, target: np.ndarray):
    """Routes 2 and 3 of the table on g survivor systems of one size
    (G_SS g x |S| x |S|, H_S g x |S| x m), columns(sel) giving B_S of the
    selected members: (solutions g x |S| x m, errors g, solved g). The
    members that clear the 1e8 certificate get one stacked Gram solve; the
    rest get one stacked Householder QR where their own 1e12 certificate
    clears, and are not solved otherwise."""
    g = len(gram_s)
    total = float(len(target))  # ||F||_F^2 = mk
    gram_ok = certify_each(gram_s)
    qr_ok = ~gram_ok
    if qr_ok.any():
        qr_ok[qr_ok] = certify_each(gram_s[qr_ok], QR_COND_MAX)
    solutions = np.zeros(image_s.shape)
    err = np.zeros(g)
    if gram_ok.all():
        solutions = np.linalg.solve(gram_s, image_s)
        # <H_S, R> = ||P_S F||_F^2
        err = total - np.sum(image_s * solutions, axis=(1, 2))
    elif gram_ok.any():
        solutions[gram_ok] = solved = np.linalg.solve(gram_s[gram_ok], image_s[gram_ok])
        err[gram_ok] = total - np.sum(image_s[gram_ok] * solved, axis=(1, 2))
    if qr_ok.any():
        solutions[qr_ok], err[qr_ok] = _solve_qr(columns(qr_ok), target)
    return solutions, err.clip(0.0, total), gram_ok | qr_ok


def _small_gram(Z: np.ndarray) -> np.ndarray:
    """The smaller Gram of Z, Z Z^T or Z^T Z, of each matrix of a stack."""
    Zt = np.swapaxes(Z, -1, -2)
    return Z @ Zt if Z.shape[-2] <= Z.shape[-1] else Zt @ Z


def _spectral_norm_sq(Z: np.ndarray) -> np.ndarray:
    """||Z||_2^2 as the largest eigenvalue of the smaller Gram of Z, which a
    symmetric eigensolver finds to O(eps) relative accuracy; a stack of
    matrices gives one value each, from one stacked eigensolve."""
    return np.maximum(np.linalg.eigvalsh(_small_gram(Z))[..., -1], 0.0)


def _norm_sq_floor(gram: np.ndarray) -> np.ndarray:
    """A lower bound on each lambda_max(G_j), G_j a stack's small Gram: the
    Rayleigh quotient x^T G x / x^T x <= lambda_max of x = G^4 1, four
    power steps from the ones vector on G / tr(G), whose largest
    eigenvalue lies in [1 / size, 1] so its powers neither overflow nor
    vanish. NaN where x = 0 or Z is not finite, which clears nothing."""
    with np.errstate(all="ignore"):
        trace = np.einsum("jii->j", gram)[:, None, None]
        scaled = gram / trace
        x = np.ones((gram.shape[-1], 1))
        for _ in range(4):
            x = scaled @ x
        xt = np.swapaxes(x, -1, -2)
        return (xt @ (scaled @ x) / (xt @ x) * trace)[:, 0, 0]


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
    return _split(grads[None], check_count(m, "m", 1))[0]


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
    the sets, and apply_fitted runs the blockwise split, Z B R, the gaps
    and the operator-norm check once for the whole stack.
    """
    encodings, sets = list(encodings), list(sets)
    grads = _as_stack(partials, len(encodings))
    if not len(grads):
        return np.zeros((0, grads.shape[2])), np.zeros(0)
    _check_km(encodings, grads.shape[1], encodings[0].m)
    decs = decode_each(encodings, sets)
    return apply_fitted(grads, np.array([dec.fitted for dec in decs]), [dec.err for dec in decs])


def apply_fitted(partials, fitted: np.ndarray, errs) -> tuple[np.ndarray, np.ndarray]:
    """The decoded aggregates and gaps of g sets from their fitted
    combinations, as reconstruct_each returns them: the k per-subset
    gradients partials[j] (g x k x d) through fitted[j] = B_j R_j (g x mk x
    m, the DecodeResult.fitted of a decode), whose decode error is
    errs[j].

    Z_j B_j R_j is formed from the blockwise split Z_j, and the
    operator-norm bound ||Z B R - Z F||_F^2 <= ||Z||_2^2 err is checked for
    every j at once, raising NumericalError when it fails. A lower bound on
    each ||Z_j||_2^2 (_norm_sq_floor, a Rayleigh quotient) clears the
    members well inside it; only the others go to one stacked eigensolve
    for their ||Z_j||_2 (_spectral_norm_sq) and the test on it, so the
    verdict is the eigensolve's.
    """
    grads = _as_stack(partials, len(fitted))
    g, k, d = grads.shape
    m = fitted.shape[-1] if fitted.ndim == 3 else 0
    if fitted.shape != (g, m * k, m) or len(errs) != g:
        raise ShapeError(
            f"fitted combinations of shape {fitted.shape} and {len(errs)} errors for {g} x {k} gradients"
        )
    if not g:
        return np.zeros((0, d)), np.zeros(0)
    Z = _split(grads, m)
    approx = Z @ fitted
    diff = approx - Z.reshape(g, -1, m, k).sum(axis=3)  # Z F
    if Z.size:
        gap_sq = np.einsum("jum,jum->j", diff, diff)
        errs = np.asarray(errs, dtype=float)
        # shrunk by 1e-12 so that rounding cannot clear a member the
        # eigensolve's test would fail
        floor = _norm_sq_floor(_small_gram(Z)) * (1.0 - 1e-12)
        open_ = np.flatnonzero(~(gap_sq <= floor * errs * (1.0 + 1e-8) + 1e-8))
        if open_.size:
            limit = _spectral_norm_sq(Z[open_]) * errs[open_]
            bad = ~(gap_sq[open_] <= limit * (1.0 + 1e-8) + 1e-8)
            if np.any(bad):
                j = int(np.argmax(bad))
                raise NumericalError(f"operator-norm bound violated: gap^2={gap_sq[open_[j]]} > {limit[j]}")
    # column-major within each set: block u of the gradient, then block u+1
    gaps = np.linalg.norm(diff.transpose(0, 2, 1).reshape(g, -1)[:, :d], axis=1)
    return approx.transpose(0, 2, 1).reshape(g, -1)[:, :d], gaps


def _as_stack(partials, g: int) -> np.ndarray:
    """g stacks of k per-subset gradients, a g x k x d float array of finite
    numbers: a NaN or Inf would reach the operator-norm check's eigensolve,
    which refuses it with numpy's LinAlgError."""
    try:
        grads = np.asarray(partials, dtype=float)
    except ValueError:
        raise ShapeError("partial gradients are not g x k x d numbers") from None
    if grads.ndim != 3 or grads.shape[0] != g:
        raise ShapeError(f"partial gradients of shape {grads.shape} for {g} encodings")
    if not np.isfinite(grads).all():
        raise NonFiniteError("partial gradients contain NaN or Inf")
    return grads


def _check_km(encodings: list, k: int, m: int) -> None:
    """Refuse an encoding of other than k subsets and m blocks."""
    for B in encodings:
        if (B.k, B.m) != (k, m):
            raise ShapeError(
                f"{k} partial gradients with m={m} for an encoding of k={B.k} subsets, m={B.m}"
            )
