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
from math import floor, sqrt

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
from .errors import ParameterError, SingularMatrixError
from .linalg import certified_cholesky, rank_of

EXPECTED_UPPER = "expected_upper"
BIBD_UPPER = "bibd_upper"
SRG_UPPER = "srg_upper"
COSET_UPPER = "coset_upper"
DIAG_DOM_UPPER = "diag_dom_upper"
LOWER = "lower"
BASELINE_BIBD = "baseline_bibd"


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its kind tag and an echo of the inputs."""

    kind: str
    value: float
    inputs: dict

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


def _full_rank_gram(gram: np.ndarray) -> bool:
    """Invertibility test for a PSD Gram-type matrix: certified by its
    Cholesky factor, or else full rank under the rank rule."""
    return certified_cholesky(gram) is not None or rank_of(gram) == gram.shape[0]


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
    if m < 1:
        raise ParameterError("m must be positive")
    k = A.k
    members = list(workers.members)
    inputs = {"family": A.family, "m": m, "c": c, "s": workers.s}
    if not members:
        return BoundReport(kind=EXPECTED_UPPER, value=float(m * k), inputs=inputs)
    sub = A.mat[:, members]
    gram = sub.T @ sub
    kmat = gram + c * (m - 1) * np.diag(np.diag(gram))
    if not _full_rank_gram(kmat):
        raise SingularMatrixError(
            f"Gram-plus-diagonal matrix singular for s={workers.s} (family {A.family})"
        )
    ones_image = sub.T.sum(axis=1)  # A_F^T 1_k
    solved = np.linalg.solve(kmat, ones_image)
    value = m * k - m * float(ones_image @ solved)
    return BoundReport(kind=EXPECTED_UPPER, value=value, inputs=inputs)


def bound_bibd(p: BibdParams, m: int, s: int) -> BoundReport:
    """Family closed form for BIBD transposes under the sign-only diagonal
    law: mk - m delta^2 (n-s) / (m delta + (n-s-1) lambda)."""
    if not (0 <= s <= p.n - 1):
        raise ParameterError(f"s must lie in [0, {p.n - 1}], got {s}")
    if m < 1:
        raise ParameterError("m must be positive")
    value = m * p.k - m * p.delta**2 * (p.n - s) / (m * p.delta + (p.n - s - 1) * p.lam)
    return BoundReport(
        kind=BIBD_UPPER,
        value=float(value),
        inputs={"n": p.n, "k": p.k, "delta": p.delta, "lambda": p.lam, "m": m, "s": s},
    )


def srg_theta(p: SrgParams) -> float:
    """Most negative adjacency eigenvalue when lam < mu, else delta."""
    if p.lam >= p.mu:
        return float(p.delta)
    d = p.lam - p.mu
    return (d - sqrt(d * d + 4 * (p.delta - p.mu))) / 2.0


def bound_srg(p: SrgParams, m: int, s: int) -> BoundReport:
    """Family closed form for strongly regular graph adjacency (k = n):
    mn - m delta^2 (n-s) / ((m delta - mu) + mu (n-s) + (lam - mu) theta)."""
    if not (0 <= s <= p.n):
        raise ParameterError(f"s must lie in [0, {p.n}], got {s}")
    if m < 1:
        raise ParameterError("m must be positive")
    theta = srg_theta(p)
    denom = (m * p.delta - p.mu) + p.mu * (p.n - s) + (p.lam - p.mu) * theta
    value = m * p.n - m * p.delta**2 * (p.n - s) / denom
    return BoundReport(
        kind=SRG_UPPER,
        value=float(value),
        inputs={
            "n": p.n,
            "delta": p.delta,
            "lambda": p.lam,
            "mu": p.mu,
            "theta": theta,
            "m": m,
            "s": s,
        },
    )


def bound_coset(p: CosetParams, s: int, c: float) -> BoundReport:
    """Family closed form for coset bipartite graphs:
    mk - m delta^2 (mk - s) / (m delta^2 + c (m-1) delta)."""
    if not (0 <= s <= p.n):
        raise ParameterError(f"s must lie in [0, {p.n}], got {s}")
    value = p.m * p.k - p.m * p.delta**2 * (p.m * p.k - s) / (
        p.m * p.delta**2 + c * (p.m - 1) * p.delta
    )
    return BoundReport(
        kind=COSET_UPPER,
        value=float(value),
        inputs={"k": p.k, "m": p.m, "delta": p.delta, "c": c, "s": s},
    )


def bound_diag_dominant(B: EncodingMatrix, workers: NonStragglerSet) -> BoundReport:
    """Per-set upper bound on the realized error of a fixed encoding.

    Replaces the survivors' Gram matrix by the diagonal majorant whose (u,u)
    entry is the absolute row sum, making the solve an entrywise division:
    mk - sum_i 1^T B_i,F Sigma~^{-1} B_i,F^T 1.  Requires the Gram matrix of
    the surviving columns to be invertible. Both the Gram matrix and the
    images B_i,F^T 1 are read from B's cached Gram.
    """
    if workers.n != B.n:
        raise ParameterError("non-straggler set size does not match encoding")
    k, m = B.k, B.m
    members = list(workers.members)
    inputs = {"scheme": B.scheme, "m": m, "s": workers.s}
    if not members:
        return BoundReport(kind=DIAG_DOM_UPPER, value=float(m * k), inputs=inputs)
    full_gram, full_image = B.gram
    gram = full_gram[np.ix_(members, members)]
    if not _full_rank_gram(gram):
        raise SingularMatrixError(
            f"survivor Gram matrix singular for members={members}"
        )
    majorant = np.sum(np.abs(gram), axis=1)  # diagonal entries of Sigma~
    image = full_image[members]  # column i is B_i,F^T 1
    total = float(np.sum(image * image / majorant[:, None]))
    return BoundReport(kind=DIAG_DOM_UPPER, value=m * k - total, inputs=inputs)


def lower_bound(n: int, k: int, delta: int, m: int, s: int) -> BoundReport:
    """Worst-case error floor over straggler sets of size s, for any
    encoding with column weight at most delta:
    max over u in 1..m of floor(k (s+m-u) / (n delta)) * u. Exact integers.
    """
    if min(n, k, delta, m) < 1:
        raise ParameterError("n, k, delta, m must be positive")
    if not (0 <= s <= n):
        raise ParameterError(f"s must lie in [0, {n}], got {s}")
    best = 0
    for u in range(1, m + 1):
        best = max(best, floor(k * (s + m - u) / (n * delta)) * u)
    return BoundReport(
        kind=LOWER,
        value=float(best),
        inputs={"n": n, "k": k, "delta": delta, "m": m, "s": s},
    )


def adversarial_straggler_set(
    A: AssignmentMatrix, m: int, s: int, u: int
) -> NonStragglerSet:
    """Straggler set witnessing the lower bound for a given u.

    Takes the floor(k(s+m-u)/(n delta)) lowest-degree data subsets (ties by
    index), erases workers covering them: the s lowest-indexed workers of
    the neighborhood if it is large enough, otherwise the whole neighborhood
    padded with the lowest unused worker indices. Returns the survivors.
    """
    if not (1 <= u <= m):
        raise ParameterError(f"u must lie in [1, {m}], got {u}")
    if not (0 <= s <= A.n):
        raise ParameterError(f"s must lie in [0, {A.n}], got {s}")
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
    if not (0 <= s <= p.n):
        raise ParameterError(f"s must lie in [0, {p.n}], got {s}")
    if m < 1:
        raise ParameterError("m must be positive")
    if s == p.n:
        value = float(m * p.k)
    else:
        value = m * p.k - p.delta**2 * (p.n - s) / (p.delta + (p.n - s - 1) * p.lam)
    return BoundReport(
        kind=BASELINE_BIBD,
        value=float(value),
        inputs={"n": p.n, "k": p.k, "delta": p.delta, "lambda": p.lam, "m": m, "s": s},
    )


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
    does not apply: another family, epsilon > 0 for a sign-only form, or
    s = n for bibd_upper."""
    if kind not in CLOSED_FORMS:
        raise ParameterError(f"unknown bound kind {kind!r}")
    if kind not in applicable_kinds(A.family, epsilon) or (kind == BIBD_UPPER and s == A.n):
        return None
    return CLOSED_FORMS[kind][2](A, m, s, epsilon).value
