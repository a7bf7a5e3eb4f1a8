"""Closed-form error bounds, the law constant c(epsilon), and the
adversarial straggler-set construction behind the lower bound.

Upper bounds are on the expected approximation error of the random-diagonal
scheme (the family forms specialize the general Gram form), except
bound_diag_dominant, which bounds the realized error of a fixed encoding.
The lower bound holds for any encoding with column weight at most delta and
is achieved by an explicit adversarial straggler set.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor, gcd, sqrt

import numpy as np

from .designs import (
    BIBD_TRANSPOSE,
    COSET_BIPARTITE,
    SRG_ADJACENCY,
    AssignmentMatrix,
    BibdParams,
    CosetParams,
    SrgParams,
)
from .decoding import NonStragglerSet
from .encoders import BASELINE, RANDOM_DIAGONAL, EncodingMatrix
from .errors import ParameterError, SingularMatrixError, check_count
from .linalg import certify_gram, rank_of

EXPECTED_UPPER = "expected_upper"
BIBD_UPPER = "bibd_upper"
SRG_UPPER = "srg_upper"
COSET_UPPER = "coset_upper"
DIAG_DOM_UPPER = "diag_dom_upper"
LOWER = "lower"
BASELINE_BIBD = "baseline_bibd"


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its kind tag."""

    kind: str
    value: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ParameterError(f"bound value is not finite: {self.value}")


def compute_c(epsilon: float) -> float:
    """E[X^2] * E[1/X^2] for X with random sign and magnitude uniform on
    [1-eps, 1+eps]: (1 + eps^2/3) / (1 - eps^2).

    Equals 1 exactly at eps = 0 and grows with eps; diverges as eps -> 1
    (the magnitude interval touches zero), hence the domain [0, 1).
    """
    if not (0.0 <= epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in [0, 1), got {epsilon}")
    e2 = epsilon * epsilon
    return (1.0 + e2 / 3.0) / (1.0 - e2)


def bound_expected(
    A: AssignmentMatrix, workers: NonStragglerSet, m: int, c: float
) -> BoundReport:
    """Expected-error upper bound for the random-diagonal scheme on one
    fixed non-straggler set.

    With G the Gram matrix of the surviving assignment columns, the bound is
    mk - m * 1^T A_F (G + c(m-1) diag(G))^{-1} A_F^T 1, evaluated by a
    linear solve.
    """
    if workers.n != A.n:
        raise ParameterError("non-straggler set size does not match assignment")
    m = check_count(m, "m", 1)
    k = A.k
    idx = workers.index
    if not idx.size:
        return BoundReport(kind=EXPECTED_UPPER, value=float(m * k))
    sub = A.mat[:, idx]
    gram = sub.T @ sub
    kmat = gram + c * (m - 1) * np.diag(np.diag(gram))
    if not certify_gram(kmat) and rank_of(kmat) < idx.size:
        raise SingularMatrixError(
            f"Gram-plus-diagonal matrix singular for s={workers.s} (family {A.family})"
        )
    ones_image = sub.T.sum(axis=1)  # A_F^T 1_k
    solved = np.linalg.solve(kmat, ones_image)
    value = m * k - m * float(ones_image @ solved)
    return BoundReport(kind=EXPECTED_UPPER, value=value)


def _straggler_count(s, n: int) -> int:
    """s as an int when it is an integer in [0, n] (errors.check_count);
    a ParameterError naming s otherwise."""
    s = check_count(s, "s")
    if s > n:
        raise ParameterError(f"s must lie in [0, {n}], got {s}")
    return s


def bound_bibd(p: BibdParams, m: int, s: int) -> BoundReport:
    """Family closed form for BIBD transposes under the sign-only diagonal
    law: mk - m delta^2 (n-s) / (m delta + (n-s-1) lambda). At s = n it is
    mk, the error with no survivor; the denominator m delta - lambda stays
    positive there since delta > lambda."""
    s = _straggler_count(s, p.n)
    m = check_count(m, "m", 1)
    value = m * p.k - m * p.delta**2 * (p.n - s) / (m * p.delta + (p.n - s - 1) * p.lam)
    return BoundReport(kind=BIBD_UPPER, value=float(value))


def srg_theta(p: SrgParams) -> float:
    """Most negative adjacency eigenvalue when lam < mu, else delta."""
    if p.lam >= p.mu:
        return float(p.delta)
    d = p.lam - p.mu
    return (d - sqrt(d * d + 4 * (p.delta - p.mu))) / 2.0


def bound_srg(p: SrgParams, m: int, s: int) -> BoundReport:
    """Family closed form for strongly regular graph adjacency (k = n):
    mn - m delta^2 (n-s) / ((m delta - mu) + mu (n-s) + (lam - mu) theta)."""
    s = _straggler_count(s, p.n)
    m = check_count(m, "m", 1)
    theta = srg_theta(p)
    denom = (m * p.delta - p.mu) + p.mu * (p.n - s) + (p.lam - p.mu) * theta
    value = m * p.n - m * p.delta**2 * (p.n - s) / denom
    return BoundReport(kind=SRG_UPPER, value=float(value))


def bound_coset(p: CosetParams, s: int, c: float) -> BoundReport:
    """Family closed form for coset bipartite graphs:
    mk - m delta^2 (mk - s) / (m delta^2 + c (m-1) delta)."""
    s = _straggler_count(s, p.n)
    value = p.m * p.k - p.m * p.delta**2 * (p.m * p.k - s) / (
        p.m * p.delta**2 + c * (p.m - 1) * p.delta
    )
    return BoundReport(kind=COSET_UPPER, value=float(value))


def bound_diag_dominant(B: EncodingMatrix, workers: NonStragglerSet) -> BoundReport:
    """Per-set upper bound on the realized error of a fixed encoding.

    Replaces the survivors' Gram matrix by the diagonal majorant whose (u,u)
    entry is the absolute row sum, making the solve an entrywise division:
    mk - sum_i 1^T B_i,F Sigma~^{-1} B_i,F^T 1.  Requires the surviving
    columns B_S to have full column rank: certified through their Gram
    matrix, or else under the decode's rank rule applied to B_S itself; a
    stacked-copies baseline with more than k survivors is refused without
    either, its rank being at most k, before its Gram is read. When B's
    whole Gram clears either certificate tier (B.gram_tier, 1e8 or 1e12),
    Cauchy interlacing gives every survivor block cond_2(G_SS) < 1e12, so
    B_S has cond_2 < 1e6 and full column rank, and neither the per-set
    certificate nor rank_of is run: each such set is one that either would
    have passed. Both the Gram matrix and the images B_i,F^T 1 are read
    from B's cached Gram.
    """
    if workers.n != B.n:
        raise ParameterError("non-straggler set size does not match encoding")
    k, m = B.k, B.m
    idx = workers.index
    if not idx.size:
        return BoundReport(kind=DIAG_DOM_UPPER, value=float(m * k))
    # stacked copies have rank(B_S) = rank(A_S) <= k, so more than k
    # survivors are rank-deficient without a factorization or a gather
    if B.stacked_copies and idx.size > k:
        raise SingularMatrixError(_deficient(workers))
    full_gram, full_image = B.gram
    gram = full_gram.take(idx, axis=0).take(idx, axis=1)
    if B.gram_tier is None and not certify_gram(gram) and rank_of(B.mat.take(idx, axis=1)) < idx.size:
        raise SingularMatrixError(_deficient(workers))
    majorant = np.abs(gram).sum(axis=1)  # diagonal entries of Sigma~
    image = full_image.take(idx, axis=0)  # column i is B_i,F^T 1
    total = float((image * image / majorant[:, None]).sum())
    return BoundReport(kind=DIAG_DOM_UPPER, value=m * k - total)


def _deficient(workers: NonStragglerSet) -> str:
    return f"survivor columns rank-deficient for members={list(workers.members)}"


def lower_bound(n: int, k: int, delta: int, m: int, s: int) -> BoundReport:
    """Worst-case error floor over straggler sets of size s, for any
    encoding with column weight at most delta:
    max over u in 1..m of min(floor(k (s+m-u) / (n delta)), k) * u, the
    count of data subsets clipped at k as adversarial_straggler_set clips
    it, so the floor never exceeds mk. Exact integers.

    With N = n delta, the count is clipped exactly for u <= s + m - N,
    where the product k u grows with u and peaks at the last such u. Above
    it, with G = gcd(k, N) and L = N / G, the floor drops by exactly k / G
    when u grows by L, so along each residue class u0 + jL the product is a
    concave quadratic in j. Its maximum lies at an end of the class or on
    an integer next to the vertex, which takes O(min(L, m)) <= O(n delta)
    steps for any m.
    """
    m = check_count(m, "m", 1)
    n, k, delta = (check_count(v, name, 1) for v, name in ((n, "n"), (k, "k"), (delta, "delta")))
    s = _straggler_count(s, n)
    N = n * delta
    step, drop = N // gcd(k, N), k // gcd(k, N)
    lo = max(1, s + m - N + 1)  # the first u whose count is below k
    best = k * min(lo - 1, m)
    for u0 in range(lo, min(lo + step, m + 1)):
        # (a0 - drop j) (u0 + step j) for j in 0..last
        a0 = k * (s + m - u0) // N
        last = (m - u0) // step
        vertex = (a0 * step - drop * u0) // (2 * drop * step)
        for j in (0, last, vertex, vertex + 1):
            if 0 <= j <= last:
                best = max(best, (a0 - drop * j) * (u0 + step * j))
    return BoundReport(kind=LOWER, value=float(best))


def adversarial_straggler_set(
    A: AssignmentMatrix, m: int, s: int, u: int
) -> NonStragglerSet:
    """Straggler set witnessing the lower bound for a given u.

    Takes the floor(k(s+m-u)/(n delta)) lowest-degree data subsets (ties by
    index), erases workers covering them: the s lowest-indexed workers of
    the neighborhood if it is large enough, otherwise the whole neighborhood
    padded with the lowest unused worker indices. Returns the survivors.
    """
    m, u = check_count(m, "m", 1), check_count(u, "u", 1)
    if u > m:
        raise ParameterError(f"u must lie in [1, {m}], got {u}")
    s = _straggler_count(s, A.n)
    k, n = A.k, A.n
    q_size = min(floor(k * (s + m - u) / (n * A.delta)), k)
    degrees = A.mat.sum(axis=1)
    order = np.argsort(degrees, kind="stable")  # ascending degree, ties by index
    rows_q = order[:q_size]
    if rows_q.size:
        neighborhood = np.nonzero(A.mat[rows_q].any(axis=0))[0]
    else:
        neighborhood = np.zeros(0, dtype=int)
    if neighborhood.size >= s:
        stragglers = set(int(j) for j in neighborhood[:s])
    else:
        stragglers = set(int(j) for j in neighborhood)
        for j in range(n):
            if len(stragglers) >= s:
                break
            stragglers.add(j)
    survivors = tuple(j for j in range(n) if j not in stragglers)
    return NonStragglerSet(n=n, members=survivors)


def baseline_bibd_error(p: BibdParams, m: int, s: int) -> BoundReport:
    """Exact error of the stacked-copies baseline on a BIBD transpose (not
    merely a bound): mk - delta^2 (n-s) / (delta + (n-s-1) lambda)."""
    s = _straggler_count(s, p.n)
    m = check_count(m, "m", 1)
    if s == p.n:
        value = float(m * p.k)
    else:
        value = m * p.k - p.delta**2 * (p.n - s) / (p.delta + (p.n - s - 1) * p.lam)
    return BoundReport(kind=BASELINE_BIBD, value=float(value))


# ---------------------------------------------------------------------------
# the closed-form table

# kind -> (family it needs or None for any, needs epsilon = 0, form). The
# order is the bounds command's default order.
CLOSED_FORMS = {
    BIBD_UPPER: (BIBD_TRANSPOSE, True, lambda A, m, s, e: bound_bibd(A.params, m, s)),
    SRG_UPPER: (SRG_ADJACENCY, True, lambda A, m, s, e: bound_srg(A.params, m, s)),
    COSET_UPPER: (COSET_BIPARTITE, False, lambda A, m, s, e: bound_coset(A.params, s, compute_c(e))),
    BASELINE_BIBD: (BIBD_TRANSPOSE, False, lambda A, m, s, e: baseline_bibd_error(A.params, m, s)),
    LOWER: (None, False, lambda A, m, s, e: lower_bound(A.n, A.k, A.delta, m, s)),
}

# The closed-form upper bounds a sweep of each scheme reports; at most one
# applies to a given design.
SCHEME_UPPER_FORMS = {
    RANDOM_DIAGONAL: (BIBD_UPPER, SRG_UPPER, COSET_UPPER),
    BASELINE: (BASELINE_BIBD,),
}


def applicable_kinds(family: str, epsilon: float) -> list[str]:
    """The closed-form kinds that apply to a design family at this epsilon,
    in table order."""
    return [
        kind
        for kind, (needs, sign_only, _) in CLOSED_FORMS.items()
        if needs in (None, family) and not (sign_only and epsilon != 0.0)
    ]


def closed_form(kind: str, A: AssignmentMatrix, m: int, s: int, epsilon: float) -> float | None:
    """Value of one closed-form bound at s stragglers, or None where the form
    does not apply: another family, or epsilon > 0 for a sign-only form."""
    if kind not in CLOSED_FORMS:
        raise ParameterError(f"unknown bound kind {kind!r}")
    if kind not in applicable_kinds(A.family, epsilon):
        return None
    return CLOSED_FORMS[kind][2](A, m, s, epsilon).value
