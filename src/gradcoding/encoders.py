"""Encoding matrices built on top of an assignment matrix.

An encoding matrix B is mk x n: worker j transmits the single linear
combination Z B(:, j) of its gradient blocks, so each of the m row blocks of
B must occupy exactly the support of the parent assignment. Three schemes:

  * random_diagonal: block i = A D_i with D_i a random diagonal whose entries
    have uniform magnitude in [1-eps, 1+eps] and fair random sign,
  * nullspace_hadamard: deterministic-support rows built from a chain of
    null-space vectors so that B v_i = f_i holds exactly at construction,
  * baseline: m stacked copies of A (every worker repeats its plain sum).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .designs import AssignmentMatrix
from .errors import ConstructionError, ParameterError
from .linalg import null_space_basis

RANDOM_DIAGONAL = "random_diagonal"
NULLSPACE_HADAMARD = "nullspace_hadamard"
BASELINE = "baseline"

V1_ALL_ONES = "ones"
V1_GAUSSIAN = "gaussian"

_PM1_SEARCH_BUDGET = 100_000
_PM1_ACCEPT = 1e-9
_RESTRICTION_FLOOR = 1e-8
_REDRAW_BUDGET = 100
_EXACTNESS_EPS = 1e-10


@dataclass(frozen=True)
class DiagonalLaw:
    """Entry law for the random diagonals: sign uniform on {-1, +1},
    magnitude uniform on [1-epsilon, 1+epsilon]; epsilon = 0 collapses to
    the two-point law on {-1, +1}."""

    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon < 1.0):
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class DiagonalDraws:
    """Randomness record for random_diagonal: row i holds d_i."""

    diagonals: np.ndarray


@dataclass(frozen=True)
class NullSpaceVectors:
    """Randomness record for nullspace_hadamard: row i holds v_i; pm1_found
    says whether the +/-1 search produced v_2 (False means the unconstrained
    null-space fallback was used or the search was not requested)."""

    vectors: np.ndarray
    v1_policy: str
    constrain_pm1: bool
    pm1_found: bool


@dataclass(frozen=True, eq=False)
class EncodingMatrix:
    mat: np.ndarray
    m: int
    scheme: str
    parent: AssignmentMatrix
    seed: int | None
    randomness: object | None

    @property
    def k(self) -> int:
        return self.parent.k

    @property
    def n(self) -> int:
        return self.parent.n

    def block(self, i: int) -> np.ndarray:
        """Rows ik..(i+1)k-1, the block multiplying gradient blocks i."""
        k = self.k
        return self.mat[i * k : (i + 1) * k, :]

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, H) with G = B^T B (n x n) and H = B^T F (n x m), column i of H
        being block(i).sum(axis=0). A survivor set S reads G[S, S] and H[S].
        Computed once per encoding and read-only."""
        G = self.mat.T @ self.mat
        H = np.ascontiguousarray(self.mat.reshape(self.m, self.k, self.n).sum(axis=1).T)
        G.setflags(write=False)
        H.setflags(write=False)
        return G, H


def sample_diagonal(n: int, law: DiagonalLaw, rng: np.random.Generator) -> np.ndarray:
    """One diagonal draw: n i.i.d. entries, sign then magnitude."""
    signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
    if law.epsilon == 0.0:
        return signs
    mags = rng.uniform(1.0 - law.epsilon, 1.0 + law.epsilon, size=n)
    return signs * mags


def encode_random_diagonal(
    A: AssignmentMatrix, m: int, law: DiagonalLaw, seed: int
) -> EncodingMatrix:
    """Stack m blocks A D_i with independent random diagonals D_i."""
    if m < 1:
        raise ParameterError("m must be at least 1")
    rng = np.random.default_rng(seed)
    diagonals = np.vstack([sample_diagonal(A.n, law, rng) for _ in range(m)])
    blocks = [A.mat * d[None, :] for d in diagonals]
    return EncodingMatrix(
        mat=np.vstack(blocks),
        m=m,
        scheme=RANDOM_DIAGONAL,
        parent=A,
        seed=seed,
        randomness=DiagonalDraws(diagonals=diagonals),
    )


def encode_baseline(A: AssignmentMatrix, m: int) -> EncodingMatrix:
    """m stacked copies of A; deterministic."""
    if m < 1:
        raise ParameterError("m must be at least 1")
    return EncodingMatrix(
        mat=np.vstack([A.mat] * m),
        m=m,
        scheme=BASELINE,
        parent=A,
        seed=None,
        randomness=None,
    )


def _row_supports(A: AssignmentMatrix) -> list[np.ndarray]:
    supports = [np.nonzero(A.mat[i])[0] for i in range(A.k)]
    for i, sup in enumerate(supports):
        if sup.size == 0:
            raise ParameterError(f"row {i} of the assignment has empty support")
    return supports


def _rows_from_vector(v: np.ndarray, supports, n: int) -> np.ndarray:
    block = np.zeros((len(supports), n))
    for i, sup in enumerate(supports):
        r = v[sup]
        block[i, sup] = r / float(r @ r)
    return block


def _draw_null_vector(
    basis: np.ndarray, supports, rng: np.random.Generator, block_index: int
) -> np.ndarray:
    bad_row = -1
    for _ in range(_REDRAW_BUDGET):
        w = rng.standard_normal(basis.shape[1])
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            continue
        v = basis @ (w / norm)
        small = [i for i, sup in enumerate(supports) if np.linalg.norm(v[sup]) < _RESTRICTION_FLOOR]
        if not small:
            return v
        bad_row = small[0]
    raise ConstructionError(
        f"vector {block_index + 1}: restriction to row {bad_row} stayed numerically "
        f"zero after {_REDRAW_BUDGET} redraws"
    )


def _search_pm1_null_vector(
    first_block: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray | None:
    # Randomized search for a +/-1 vector annihilated by the first block.
    # Batched for speed; the acceptance threshold is on the max entry.
    batch = 2_000
    tried = 0
    while tried < _PM1_SEARCH_BUDGET:
        size = min(batch, _PM1_SEARCH_BUDGET - tried)
        cand = rng.integers(0, 2, size=(size, n)) * 2.0 - 1.0
        score = np.max(np.abs(first_block @ cand.T), axis=0)
        hits = np.nonzero(score <= _PM1_ACCEPT)[0]
        if hits.size:
            return cand[hits[0]]
        tried += size
    return None


def encode_nullspace_hadamard(
    A: AssignmentMatrix,
    m: int,
    v1_policy: str = V1_ALL_ONES,
    constrain_pm1: bool = False,
    seed: int = 0,
) -> EncodingMatrix:
    """Null-space chain construction for square total shape (n = mk).

    Block 1's rows are v_1 restricted to each row support and divided by the
    squared norm of the restriction; each later block uses a vector from the
    null space of all earlier blocks. The defining guarantee B v_i = f_i
    (exact recovery with zero stragglers) is asserted at construction.

    With constrain_pm1 and m = 2 under the all-ones policy, a bounded
    randomized search first tries a +/-1-valued v_2; on failure the
    unconstrained null-space vector is used and the record's pm1_found flag
    stays False.
    """
    if m < 1:
        raise ParameterError("m must be at least 1")
    k, n = A.k, A.n
    if n != m * k:
        raise ParameterError(f"construction needs n = m*k; got n={n}, m*k={m * k}")
    if v1_policy not in (V1_ALL_ONES, V1_GAUSSIAN):
        raise ParameterError(f"unknown v1 policy {v1_policy!r}")
    rng = np.random.default_rng(seed)
    supports = _row_supports(A)

    if v1_policy == V1_ALL_ONES:
        v1 = np.ones(n)
    else:
        v1 = None
        for _ in range(_REDRAW_BUDGET):
            cand = rng.standard_normal(n)
            if all(np.linalg.norm(cand[sup]) >= _RESTRICTION_FLOOR for sup in supports):
                v1 = cand
                break
        if v1 is None:
            raise ConstructionError("v_1 restrictions stayed numerically zero after redraws")

    vectors = [v1]
    blocks = [_rows_from_vector(v1, supports, n)]
    pm1_found = False
    for j in range(1, m):
        basis = null_space_basis(np.vstack(blocks))
        if basis.shape[1] == 0:
            raise ConstructionError(f"null space exhausted before block {j + 1}")
        v = None
        if constrain_pm1 and m == 2 and v1_policy == V1_ALL_ONES:
            v = _search_pm1_null_vector(blocks[0], n, rng)
            pm1_found = v is not None
        if v is None:
            v = _draw_null_vector(basis, supports, rng, j)
        vectors.append(v)
        blocks.append(_rows_from_vector(v, supports, n))

    mat = np.vstack(blocks)
    for i, v in enumerate(vectors):
        want = np.zeros(m * k)
        want[i * k : (i + 1) * k] = 1.0
        gap = np.max(np.abs(mat @ v - want))
        if gap > _EXACTNESS_EPS:
            raise ConstructionError(
                f"exact-recovery identity violated for vector {i + 1}: max gap {gap:.3e}"
            )
    return EncodingMatrix(
        mat=mat,
        m=m,
        scheme=NULLSPACE_HADAMARD,
        parent=A,
        seed=seed,
        randomness=NullSpaceVectors(
            vectors=np.vstack(vectors),
            v1_policy=v1_policy,
            constrain_pm1=constrain_pm1,
            pm1_found=pm1_found,
        ),
    )


def verify_support(B: EncodingMatrix) -> bool:
    """True iff every block's nonzero pattern equals the parent's."""
    parent = B.parent.mat != 0
    return all(np.array_equal(B.block(i) != 0, parent) for i in range(B.m))
