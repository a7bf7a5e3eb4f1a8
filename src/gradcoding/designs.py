"""Structured 0/1 assignment matrices and their exact validators.

Conventions used throughout the package: an assignment matrix is k x n with
one row per data subset and one column per worker; entry (i, j) = 1 means
worker j computes subset i. Column sums equal delta (computation load per
worker), row sums equal gamma (replication per subset), and k * gamma =
n * delta. All validator arithmetic is exact integer arithmetic; numerical
tolerances never enter a design check.

Four families are provided:
  * bibd_transpose: transpose of the incidence matrix of a symmetric balanced
    incomplete block design, built from a cyclic difference set mod v,
  * srg_adjacency: adjacency matrix of a strongly regular graph (Paley),
  * coset_bipartite: bi-adjacency of the coset construction on Z_{mk}, a row
    of m identical circulant blocks,
  * bi_regular: random bi-regular bipartite graph via configuration pairing.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConstructionError, ParameterError, check_count
from .linalg import RANK_EPS, certify_gram, circulant_eigenvalues

BIBD_TRANSPOSE = "bibd_transpose"
SRG_ADJACENCY = "srg_adjacency"
COSET_BIPARTITE = "coset_bipartite"
BI_REGULAR = "bi_regular"


@dataclass(frozen=True)
class BibdParams:
    """Symmetric design parameters: n points, k blocks, block size gamma,
    replication delta, pairwise count lam."""

    n: int
    k: int
    gamma: int
    delta: int
    lam: int


@dataclass(frozen=True)
class SrgParams:
    n: int
    delta: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        if not (self.delta > 0):
            raise ParameterError("SRG requires delta > 0")
        if self.delta == self.mu:
            raise ParameterError("SRG requires delta != mu")


@dataclass(frozen=True)
class CosetParams:
    """k and m fix the group Z_{mk} and subgroup {0, k, ..., (m-1)k};
    generating_set is a delta-subset of {0..k-1}."""

    k: int
    m: int
    delta: int
    generating_set: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 1:
            raise ParameterError("k and m must be positive")
        gen = tuple(sorted(self.generating_set))
        if len(set(gen)) != len(gen) or len(gen) != self.delta or self.delta < 1:
            raise ParameterError("generating set must hold delta distinct residues")
        if any(not (0 <= b < self.k) for b in gen):
            raise ParameterError("generating set must lie in {0..k-1}")
        object.__setattr__(self, "generating_set", gen)

    @property
    def n(self) -> int:
        return self.m * self.k


@dataclass(frozen=True)
class BiRegularParams:
    n: int
    k: int
    delta: int
    gamma: int
    seed: int


@dataclass(frozen=True, eq=False)
class AssignmentMatrix:
    """Binary k x n assignment with exact column weight delta and row
    weight gamma."""

    mat: np.ndarray
    delta: int
    gamma: int
    family: str
    params: object

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=float)
        if m.ndim != 2:
            raise ParameterError("assignment matrix must be 2-D")
        ints = m.astype(np.int64)
        if not np.array_equal(ints, m) or not np.all((ints == 0) | (ints == 1)):
            raise ParameterError("assignment entries must be 0/1")
        if not np.all(ints.sum(axis=0) == self.delta):
            raise ParameterError(f"column sums must all equal delta={self.delta}")
        if not np.all(ints.sum(axis=1) == self.gamma):
            raise ParameterError(f"row sums must all equal gamma={self.gamma}")
        k, n = m.shape
        if k * self.gamma != n * self.delta:
            raise ParameterError("k*gamma must equal n*delta")
        object.__setattr__(self, "mat", m)

    @property
    def k(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.mat.shape[1]

    @cached_property
    def column_classes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(labels, firsts) when two workers hold the same subsets: column j
        equals column firsts[labels[j]], the first of its class, the classes
        in np.unique's order of the distinct columns. None when every column
        is distinct. The one table of which workers share a column; partners,
        class_inverse and the decodes from the class inverse read it.
        Computed once per design and read-only."""
        _, firsts, labels = np.unique(self.mat.T, axis=0, return_index=True, return_inverse=True)
        if firsts.size == self.n:
            return None
        labels = labels.reshape(-1)
        labels.setflags(write=False)
        firsts.setflags(write=False)
        return labels, firsts

    @cached_property
    def partners(self) -> np.ndarray | None:
        """Each worker's partner: the other worker of its class
        (column_classes) when every class holds at most two workers, or
        itself when it holds its column alone. None when no two workers
        hold the same subsets, or when more than two do. Computed once per
        design and read-only."""
        classes = self.column_classes
        if classes is None:
            return None
        labels, firsts = classes
        if np.bincount(labels).max() > 2:
            return None
        partner = firsts[labels]  # the first of each class pairs with the second
        second = np.flatnonzero(partner != np.arange(self.n))
        partner[partner[second]] = second
        partner.setflags(write=False)
        return partner

    @cached_property
    def class_inverse(self) -> tuple[np.ndarray, np.ndarray, float] | None:
        """(K, c1, cond) when two workers hold the same subsets and A's
        distinct columns, in the order of column_classes, form a k x k
        matrix C whose Gram C^T C clears certify_gram (1e8): K = (C^T C)^-1,
        c1 = C^-1 1_k and cond = cond_2(C^T C) from its eigenvalues. None
        otherwise. The coset graph's C is its circulant block. The
        design's draws at m = 2 on paired workers and its stacked copies
        decode from the straggler side of this one inverse (decoding).
        Computed once per design and read-only."""
        classes = self.column_classes
        if classes is None or classes[1].size != self.k:
            return None
        C = self.mat[:, classes[1]]
        gram = C.T @ C
        if not certify_gram(gram):
            return None
        K = np.linalg.inv(gram)
        K = 0.5 * (K + K.T)  # exactly symmetric, as its principal blocks must be
        c1 = np.linalg.solve(C, np.ones(self.k))
        eig = np.linalg.eigvalsh(gram)
        K.setflags(write=False)
        c1.setflags(write=False)
        return K, c1, float(eig[-1] / eig[0])

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A (n x n): entry (i, j) counts the subsets workers i and j
        share, exactly. Computed once per design and read-only."""
        gram = self.mat.T @ self.mat
        gram.setflags(write=False)
        return gram

    @cached_property
    def overlap(self) -> int | None:
        """lambda when every two workers share exactly lambda subsets and
        delta > lambda: A^T A = (delta - lambda) I + lambda J, the identity
        of a BIBD transpose. None otherwise. Computed once per design."""
        off = self.gram[~np.eye(self.n, dtype=bool)]
        if off.size and off.min() == off.max() < self.delta:
            return int(off[0])
        return None


@dataclass
class ValidationReport:
    """Outcome of a family validator: named checks with pass/fail and, for
    the first violation, a locating detail (cell or parameter)."""

    family: str
    ok: bool = True
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, passed, detail))
        if not passed:
            self.ok = False

    def first_failure(self) -> str | None:
        for name, passed, detail in self.checks:
            if not passed:
                return f"{name}: {detail}" if detail else name
        return None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "valid": self.ok,
            "checks": [
                {"name": n, "passed": p, "detail": d} for n, p, d in self.checks
            ],
        }


def _integer_matrix(mat) -> np.ndarray:
    m = np.asarray(getattr(mat, "mat", mat), dtype=float)
    return m.astype(np.int64)


def _binary_check(report: ValidationReport, raw) -> bool:
    m = np.asarray(getattr(raw, "mat", raw), dtype=float)
    bad = np.argwhere((m != 0) & (m != 1))
    if bad.size:
        i, j = bad[0]
        report.add("binary_entries", False, f"cell ({i},{j}) = {m[i, j]}")
        return False
    report.add("binary_entries", True)
    return True


# ---------------------------------------------------------------------------
# difference sets


def validate_difference_set(diff_set, v: int) -> int:
    """Check that every nonzero residue mod v occurs equally often as a
    difference of distinct elements; returns the common count lam."""
    if v < 2:
        raise ParameterError("modulus v must be at least 2")
    elems = sorted(set(int(d) % v for d in diff_set))
    if len(elems) != len(list(diff_set)):
        raise ParameterError("difference set has repeated residues mod v")
    delta = len(elems)
    if delta < 2:
        raise ParameterError("difference set needs at least 2 elements")
    counts = np.zeros(v, dtype=np.int64)
    for a in elems:
        for b in elems:
            if a != b:
                counts[(a - b) % v] += 1
    lam_total = delta * (delta - 1)
    if lam_total % (v - 1) != 0:
        raise ParameterError(
            f"delta(delta-1)={lam_total} is not a multiple of v-1={v - 1}"
        )
    lam = lam_total // (v - 1)
    off = np.nonzero(counts[1:] != lam)[0]
    if off.size:
        r = int(off[0]) + 1
        raise ParameterError(
            f"residue {r} occurs {int(counts[r])} times as a difference, expected {lam}"
        )
    return lam


def search_planar_difference_set(v: int) -> list[int]:
    """Backtracking search for a perfect difference set mod v with lam = 1.

    Every nonzero residue appears exactly once as a difference, so the set
    size delta satisfies delta*(delta-1) = v-1, that is 4v - 3 = (2 delta - 1)^2;
    v must have this form with delta >= 2. Since the difference 1 occurs
    exactly once, some translate of any such set contains {0, 1}, so the
    search can fix those two elements and proceed lexicographically.
    """
    root = math.isqrt(4 * v - 3) if v >= 3 else 0
    if root * root != 4 * v - 3:
        raise ParameterError(f"no planar difference-set parameters for v={v}")
    delta = (1 + root) // 2
    used = np.zeros(v, dtype=bool)
    chosen = [0, 1]
    used[1] = used[v - 1] = True

    def fits(c: int) -> bool:
        # the differences c creates must avoid used residues and each other
        news = set()
        for b in chosen:
            for d in ((c - b) % v, (b - c) % v):
                if used[d] or d in news:
                    return False
                news.add(d)
        return True

    def place(c: int, on: bool) -> None:
        for b in chosen:
            used[(c - b) % v] = on
            used[(b - c) % v] = on

    def extend(start: int) -> bool:
        if len(chosen) == delta:
            return True
        for c in range(start, v):
            if fits(c):
                place(c, True)
                chosen.append(c)
                if extend(c + 1):
                    return True
                chosen.pop()
                place(c, False)
        return False

    if not extend(2):
        raise ConstructionError(f"no planar difference set found for v={v}, delta={delta}")
    validate_difference_set(chosen, v)
    return list(chosen)


def builtin_difference_sets() -> dict[int, list[int]]:
    """Difference sets shipped with the package, keyed by modulus."""
    text = resources.files(__package__).joinpath("data/difference_sets.json").read_text()
    table = {}
    for entry in json.loads(text):
        table[int(entry["v"])] = [int(x) for x in entry["set"]]
    return table


def load_difference_set(path) -> tuple[int, list[int]]:
    """Read one {"v": int, "set": [int...]} document from a JSON file."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "v" not in doc or "set" not in doc:
        raise ParameterError(f"{path}: expected a JSON object with keys 'v' and 'set'")
    v, diff_set = doc["v"], doc["set"]
    integers = isinstance(diff_set, list) and all(type(x) is int for x in [v, *diff_set])
    if not integers:
        raise ParameterError(f"{path}: 'v' and the entries of 'set' must be JSON integers")
    return v, diff_set


# ---------------------------------------------------------------------------
# BIBD transpose


def bibd_transpose_from_difference_set(diff_set, v: int) -> AssignmentMatrix:
    """Symmetric BIBD transpose from a cyclic difference set mod v.

    Row i is the indicator of {(d + i) mod v : d in diff_set}; the result is
    the v x v transpose of the design's incidence matrix, validated before
    return (never assumed).
    """
    lam = validate_difference_set(diff_set, v)
    elems = sorted(set(int(d) % v for d in diff_set))
    delta = len(elems)
    mat = np.zeros((v, v))
    idx = np.arange(v)
    for d in elems:
        mat[idx, (idx + d) % v] = 1.0
    params = BibdParams(n=v, k=v, gamma=delta, delta=delta, lam=lam)
    out = AssignmentMatrix(mat, delta=delta, gamma=delta, family=BIBD_TRANSPOSE, params=params)
    report = validate_bibd(out, params)
    if not report.ok:
        raise ConstructionError(f"constructed design fails validation: {report.first_failure()}")
    return out


def validate_bibd(mat, p: BibdParams) -> ValidationReport:
    """Exact integer check of the design identity M^T M = (delta-lam) I + lam J
    plus row and column sums."""
    report = ValidationReport(family=BIBD_TRANSPOSE)
    ints = _integer_matrix(mat)
    if not _binary_check(report, mat):
        return report
    k, n = ints.shape
    report.add("shape", k == p.k and n == p.n, f"got {k}x{n}, expected {p.k}x{p.n}")
    if p.delta <= p.lam:
        report.add("delta_exceeds_lambda", False, f"delta={p.delta} <= lambda={p.lam}")
        return report
    report.add("delta_exceeds_lambda", True)
    rows = ints.sum(axis=1)
    bad_r = np.nonzero(rows != p.gamma)[0]
    report.add(
        "row_sums",
        bad_r.size == 0,
        "" if bad_r.size == 0 else f"row {int(bad_r[0])} sums to {int(rows[bad_r[0]])}, expected {p.gamma}",
    )
    cols = ints.sum(axis=0)
    bad_c = np.nonzero(cols != p.delta)[0]
    report.add(
        "column_sums",
        bad_c.size == 0,
        "" if bad_c.size == 0 else f"column {int(bad_c[0])} sums to {int(cols[bad_c[0]])}, expected {p.delta}",
    )
    gram = ints.T @ ints
    want = (p.delta - p.lam) * np.eye(n, dtype=np.int64) + p.lam * np.ones((n, n), dtype=np.int64)
    bad = np.argwhere(gram != want)
    if bad.size:
        i, j = bad[0]
        report.add("gram_identity", False, f"cell ({i},{j}) = {int(gram[i, j])}, expected {int(want[i, j])}")
    else:
        report.add("gram_identity", True)
    return report


# ---------------------------------------------------------------------------
# strongly regular graphs


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def srg_paley(q: int) -> AssignmentMatrix:
    """Adjacency matrix of the Paley graph on Z_q: i ~ j iff i - j is a
    nonzero quadratic residue mod q. Requires q prime with q = 1 mod 4 (so
    that -1 is a residue and adjacency is symmetric)."""
    if not _is_prime(q):
        raise ParameterError(f"q={q} is not prime")
    if q % 4 != 1:
        raise ParameterError(f"q={q} is not 1 mod 4")
    residues = np.zeros(q, dtype=bool)
    for x in range(1, q):
        residues[(x * x) % q] = True
    diff = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    mat = residues[diff].astype(float)
    np.fill_diagonal(mat, 0.0)
    delta = (q - 1) // 2
    params = SrgParams(n=q, delta=delta, lam=(q - 5) // 4, mu=(q - 1) // 4)
    out = AssignmentMatrix(mat, delta=delta, gamma=delta, family=SRG_ADJACENCY, params=params)
    report = validate_srg(out, params)
    if not report.ok:
        raise ConstructionError(f"Paley graph fails validation: {report.first_failure()}")
    return out


def validate_srg(mat, p: SrgParams) -> ValidationReport:
    """Exact integer check of M^2 = delta I + lam M + mu (J - I - M), plus
    symmetry, zero diagonal, regularity, and non-degeneracy (the graph must
    be neither complete nor empty)."""
    report = ValidationReport(family=SRG_ADJACENCY)
    ints = _integer_matrix(mat)
    if not _binary_check(report, mat):
        return report
    k, n = ints.shape
    report.add("square", k == n and n == p.n, f"got {k}x{n}, expected {p.n}x{p.n}")
    if not report.ok:
        return report
    bad = np.argwhere(ints != ints.T)
    if bad.size:
        i, j = bad[0]
        report.add("symmetry", False, f"cell ({i},{j}) != cell ({j},{i})")
        return report
    report.add("symmetry", True)
    diag = np.nonzero(np.diag(ints) != 0)[0]
    report.add(
        "zero_diagonal",
        diag.size == 0,
        "" if diag.size == 0 else f"vertex {int(diag[0])} has a self-loop",
    )
    edges = int(ints.sum())
    if edges == 0:
        report.add("not_empty", False, "graph has no edges")
        return report
    report.add("not_empty", True)
    if edges == n * (n - 1):
        report.add("not_complete", False, "graph is complete")
        return report
    report.add("not_complete", True)
    rows = ints.sum(axis=1)
    bad_r = np.nonzero(rows != p.delta)[0]
    report.add(
        "regularity",
        bad_r.size == 0,
        "" if bad_r.size == 0 else f"vertex {int(bad_r[0])} has degree {int(rows[bad_r[0]])}, expected {p.delta}",
    )
    sq = ints @ ints
    jmat = np.ones((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    want = p.delta * eye + p.lam * ints + p.mu * (jmat - eye - ints)
    bad = np.argwhere(sq != want)
    if bad.size:
        i, j = bad[0]
        report.add("srg_identity", False, f"cell ({i},{j}) = {int(sq[i, j])}, expected {int(want[i, j])}")
    else:
        report.add("srg_identity", True)
    return report


# ---------------------------------------------------------------------------
# coset bipartite graphs


def coset_bipartite(p: CosetParams) -> AssignmentMatrix:
    """Bi-adjacency of the coset construction: k rows (cosets i + H of the
    subgroup H = {0, k, ..., (m-1)k} in Z_{mk}) by n = mk columns (group
    elements); row i indicates i + S where S is the union of cosets b + H
    over the generating set. The result is m identical circulant k x k
    blocks side by side (verified)."""
    k, m = p.k, p.m
    n = m * k
    offsets = np.array([b + t * k for b in p.generating_set for t in range(m)])
    mat = np.zeros((k, n))
    for i in range(k):
        mat[i, (i + offsets) % n] = 1.0
    # Block structure check: every k-column block equals the first.
    first = mat[:, :k]
    for t in range(1, m):
        if not np.array_equal(first, mat[:, t * k : (t + 1) * k]):
            raise ConstructionError("coset blocks differ; construction is broken")
    return AssignmentMatrix(mat, delta=p.delta, gamma=m * p.delta, family=COSET_BIPARTITE, params=p)


def coset_base_block(p: CosetParams) -> np.ndarray:
    """The k x k circulant block C shared by all m column groups."""
    return coset_bipartite(p).mat[:, : p.k]


def coset_is_invertible_base(p: CosetParams) -> bool:
    """True iff the base circulant block is invertible: the mask polynomial
    of the generating set is nonzero at every k-th root of unity. When
    k = p^a with p prime and p not dividing delta, this is guaranteed."""
    row = np.zeros(p.k)
    row[list(p.generating_set)] = 1.0
    eig = circulant_eigenvalues(row)
    return bool(np.min(np.abs(eig)) > RANK_EPS * p.delta)


# ---------------------------------------------------------------------------
# random bi-regular graphs

_PAIRING_RETRIES = 10_000


def biregular_random(n: int, k: int, delta: int, gamma: int, seed: int) -> AssignmentMatrix:
    """Random bi-regular bipartite bi-adjacency: k rows of weight gamma, n
    columns of weight delta, sampled by configuration-model pairing with
    rejection of parallel edges. Deterministic given seed."""
    if k < 1 or n < 1 or delta < 1 or gamma < 1:
        raise ParameterError("n, k, delta, gamma must be positive")
    seed = check_count(seed, "seed")
    if k * gamma != n * delta:
        raise ParameterError(f"infeasible degrees: k*gamma={k * gamma} != n*delta={n * delta}")
    if delta > k or gamma > n:
        raise ParameterError("degree exceeds the opposite side; parallel edges forced")
    rng = np.random.default_rng(seed)
    row_stubs = np.repeat(np.arange(k), gamma)
    col_stubs = np.repeat(np.arange(n), delta)
    for _ in range(_PAIRING_RETRIES):
        perm = rng.permutation(col_stubs)
        mat = np.zeros((k, n))
        mat[row_stubs, perm] = 1.0
        if mat.sum() == row_stubs.size:  # no stub pair collapsed onto one edge
            params = BiRegularParams(n=n, k=k, delta=delta, gamma=gamma, seed=seed)
            return AssignmentMatrix(mat, delta=delta, gamma=gamma, family=BI_REGULAR, params=params)
    raise ConstructionError(
        f"no simple bi-regular graph found in {_PAIRING_RETRIES} pairing attempts"
    )


# ---------------------------------------------------------------------------
# one validator for every family


def validate_design(mat, A: AssignmentMatrix) -> ValidationReport:
    """The checks that mat, a built or a stored matrix, is the design A.

    A BIBD transpose and a strongly regular graph get their family identity
    in exact integers. A coset or bi-regular matrix must equal A.mat exactly,
    since its identities are refused at construction; a coset design also
    needs an invertible base block, which its bounds rest on.
    """
    if A.family == BIBD_TRANSPOSE:
        return validate_bibd(mat, A.params)
    if A.family == SRG_ADJACENCY:
        return validate_srg(mat, A.params)
    report = ValidationReport(family=A.family)
    report.add("matches_construction", bool(np.array_equal(mat, A.mat)))
    if A.family == COSET_BIPARTITE:
        report.add(
            "base_block_invertible",
            coset_is_invertible_base(A.params),
            f"generating_set={list(A.params.generating_set)}",
        )
    return report
