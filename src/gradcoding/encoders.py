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
from functools import cached_property, lru_cache

import numpy as np

from .designs import AssignmentMatrix
from .errors import ConstructionError, FieldError, ParameterError, check_count
from .linalg import CERT_COND_MAX, QR_COND_MAX, certify_gram, null_space_basis

RANDOM_DIAGONAL = "random_diagonal"
NULLSPACE_HADAMARD = "nullspace_hadamard"
BASELINE = "baseline"

V1_ALL_ONES = "ones"
V1_GAUSSIAN = "gaussian"

# Both even, so each batch of the search reads whole 64-bit raw words;
# 2,000 candidates at n = 40 are 320 KB of them.
_PM1_SEARCH_BUDGET = 100_000
_PM1_BATCH = 2_000
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
            raise FieldError(f"epsilon must lie in [0, 1), got {self.epsilon}")


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

    @cached_property
    def gram_tier(self) -> float | None:
        """The tightest certificate the whole n x n Gram G clears:
        CERT_COND_MAX (1e8) when certify_gram clears it, else QR_COND_MAX
        (1e12) when certify_gram(G, QR_COND_MAX) does, else None. By Cauchy
        interlacing every survivor block G_SS then has cond_2(G_SS) below
        the tier, so every B_S has full column rank. Computed once per
        encoding."""
        G, _ = self.gram
        for cond_max in (CERT_COND_MAX, QR_COND_MAX):
            if certify_gram(G, cond_max):
                return cond_max
        return None

    @cached_property
    def gram_inverse(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(K, R) with K = G^-1 and R = G^-1 H, the full set's coefficients,
        when the whole Gram G clears the 1e8 tier (gram_tier), else None.
        By Cauchy interlacing every survivor block G_SS is then certified
        too, and decoding.decode_each solves a group of more than one set of
        this encoding (or of stacked copies of its design and m) through
        this one inverse.
        R is K H refined by one step against G. Computed once per encoding
        and read-only."""
        if self.gram_tier != CERT_COND_MAX:
            return None
        G, H = self.gram
        K = np.linalg.inv(G)
        K = 0.5 * (K + K.T)  # exactly symmetric: K[S, T] = K[T, S]^T
        R = K @ H
        R += K @ (H - G @ R)
        K.setflags(write=False)
        R.setflags(write=False)
        return K, R

    @cached_property
    def stacked_copies(self) -> bool:
        """True for a baseline encoding whose m row blocks all equal its
        parent A: B = 1_m (x) A, the structure decoding and the per-set
        bound exploit (encode_baseline builds no other copies). Checked once
        per encoding, so a stored baseline whose blocks were altered, equal
        to one another or not, takes the general path."""
        A = self.parent.mat
        return self.scheme == BASELINE and all(np.array_equal(self.block(i), A) for i in range(self.m))

    @cached_property
    def diagonals(self) -> np.ndarray | None:
        """The m x n diagonals d_u of a random_diagonal encoding whose
        blocks are A D_u for its recorded draws (DiagonalDraws), the
        structure decoding exploits to decode many draws of one design
        together; None for any other encoding. Checked once per encoding,
        so a stored or altered matrix takes the general path."""
        draws = self.randomness
        if self.scheme != RANDOM_DIAGONAL or not isinstance(draws, DiagonalDraws):
            return None
        if not np.array_equal(_diagonal_blocks(self.parent, draws.diagonals), self.mat):
            return None
        return draws.diagonals


def sample_diagonal(n: int, law: DiagonalLaw, rng: np.random.Generator) -> np.ndarray:
    """One diagonal draw: n i.i.d. entries, sign then magnitude."""
    signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
    if law.epsilon == 0.0:
        return signs
    mags = rng.uniform(1.0 - law.epsilon, 1.0 + law.epsilon, size=n)
    return signs * mags


def _diagonal_blocks(A: AssignmentMatrix, diagonals: np.ndarray) -> np.ndarray:
    """The m k x n stack of blocks A D_u for the m x n diagonals."""
    return (A.mat * diagonals[:, None, :]).reshape(-1, A.n)


@lru_cache(maxsize=None)
def _raw_layout(n: int, m: int, signs_only: bool) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Where m sample_diagonal(n, ...) calls on a fresh PCG64 generator
    read its raw stream: (words, halves, mags), the count of 64-bit words,
    the m x n indices of the 32-bit halves whose top bits are the signs
    (half 2w is word w's low half, 2w + 1 its high half) and the m x n
    indices of the words that are the magnitudes (None when signs_only),
    read-only since every call shares them.

    Sign t overall (t = i n + j) is half t % 2 of sign word c = t // 2,
    which is read when its low half is, by diagonal 2c // n, after the
    magnitudes of the diagonals before that one. Diagonal i's magnitudes
    follow its signs: ceil((i + 1) n / 2) sign words and i n magnitude
    words in."""
    step = 0 if signs_only else n  # words a diagonal's magnitudes take
    t = np.arange(m * n).reshape(m, n)
    c = t // 2
    halves = 2 * (c + step * (2 * c // n)) + t % 2
    first = ((np.arange(m) + 1) * n + 1) // 2 + np.arange(m) * n
    mags = None if signs_only else first[:, None] + np.arange(n)
    for index in (halves, mags):
        if index is not None:
            index.setflags(write=False)
    return (m * n + 1) // 2 + m * step, halves, mags


def draw_diagonals(A: AssignmentMatrix, m: int, law: DiagonalLaw, seed: int) -> DiagonalDraws:
    """The m random diagonals encode_random_diagonal(A, m, law, seed) draws,
    without building the encoding (decoding.decode_draws decodes from
    them): bit for bit the rows of m sample_diagonal(A.n, law, rng) calls
    on rng = np.random.default_rng(seed), read from one random_raw call of
    the seed's PCG64 stream instead.

    numpy draws each sign as the top bit of one 32-bit half of a raw 64-bit
    word, low half first, and keeps an unused high half for the next sign,
    across calls, so an odd n's last sign word lends its high half to the
    next diagonal's first sign. A magnitude takes one whole word w: u = (w
    >> 11) 2^-53 and (1 - eps) + ((1 + eps) - (1 - eps)) u. The positions
    depend only on (n, m, eps == 0) and are cached (_raw_layout).
    """
    m, seed = check_count(m, "m", 1), check_count(seed, "seed")
    words, halves, mags = _raw_layout(A.n, m, law.epsilon == 0.0)
    raw = np.random.PCG64(seed).random_raw(words).astype("<u8", copy=False)
    signs = (raw.view("<u4")[halves] >> 31) * 2.0 - 1.0
    if mags is None:
        return DiagonalDraws(diagonals=signs)
    low, high = 1.0 - law.epsilon, 1.0 + law.epsilon
    # (high - low) u = ((high - low) 2^-53) (w >> 11) in one rounding: the
    # scaling by 2^-53 is exact, high - low being 0 or at least 2^-53
    return DiagonalDraws(diagonals=signs * (low + (high - low) * 2.0**-53 * (raw[mags] >> 11)))


def encode_random_diagonal(
    A: AssignmentMatrix, m: int, law: DiagonalLaw, seed: int
) -> EncodingMatrix:
    """Stack m blocks A D_i with independent random diagonals D_i."""
    draws = draw_diagonals(A, m, law, seed)
    return EncodingMatrix(
        mat=_diagonal_blocks(A, draws.diagonals),
        m=len(draws.diagonals),
        scheme=RANDOM_DIAGONAL,
        parent=A,
        seed=seed,
        randomness=draws,
    )


def encode_baseline(A: AssignmentMatrix, m: int) -> EncodingMatrix:
    """m stacked copies of A; deterministic."""
    m = check_count(m, "m", 1)
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


def _candidate_bytes(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """A (size, n) uint8 view whose top bits are rng.integers(0, 2,
    size=(size, n)), read from the same raw words, which leaves the
    generator in the same state; size * n must be even and the generator
    must hold no buffered 32-bit half. numpy draws each such entry as the
    top bit of one 32-bit half of the raw 64-bit stream, low half first, so
    entry (c, j) is the top bit of half h = c n + j: the top bit of byte
    4h + 3 of the words stored little-endian, on any host."""
    raw = rng.bit_generator.random_raw(size * n // 2).astype("<u8", copy=False)
    return raw.view(np.uint8)[3::4].reshape(size, n)


def _search_pm1_null_vector(supports, n: int, rng: np.random.Generator) -> np.ndarray | None:
    """Randomized search for a +/-1 vector balanced on every row support,
    as many +1 as -1 entries on each: exactly the +/-1 vectors that the
    v_1 = 1 first block annihilates, since an unbalanced support gives
    |first_block @ v| >= 1/|support| on its row.

    The candidates are the rows of rng.integers(0, 2, size=(_PM1_BATCH, n))
    * 2 - 1, batch after batch; _candidate_bytes reads them without drawing
    them, so their order and the generator state after the search are those
    of the draw. Each batch is tested on row 0 first and its survivors on
    every row. Returns the first balanced candidate, or None after
    _PM1_SEARCH_BUDGET of them.
    """
    if rng.bit_generator.state.get("has_uint32") != 0:
        raise ConstructionError(
            "+/-1 search needs a 64-bit generator with no buffered 32-bit half"
        )
    indicator = np.zeros((n, len(supports)), dtype=np.float32)
    for i, sup in enumerate(supports):
        indicator[sup, i] = 1.0
    half = indicator.sum(axis=0) / 2
    first = supports[0]
    tried = 0
    while tried < _PM1_SEARCH_BUDGET:
        size = min(_PM1_BATCH, _PM1_SEARCH_BUDGET - tried)
        top = _candidate_bytes(rng, size, n)
        alive = np.flatnonzero(2 * (top[:, first] >> 7).sum(axis=1) == first.size)
        balanced = ((top[alive] >> 7).astype(np.float32) @ indicator == half).all(axis=1)
        hits = alive[balanced]
        if hits.size:
            return (top[hits[0]] >> 7) * 2.0 - 1.0
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
    randomized search first tries a +/-1-valued v_2. Its candidates are the
    rows of rng.integers(0, 2, size=(2000, n)) * 2 - 1, batch after batch
    from the seed's fresh generator, up to 100,000 of them; it takes the
    first one balanced on every row support (as many +1 as -1 entries),
    which is exactly a +/-1 vector that block 1 annihilates. On failure the
    unconstrained null-space vector is drawn after the search and the
    record's pm1_found flag stays False.
    """
    m, seed = check_count(m, "m", 1), check_count(seed, "seed")
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
            v = _search_pm1_null_vector(supports, n, rng)
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
