"""Acceptance gate: the nine headline guarantees of the package, one test
and one printed pass/fail line each.

Every tolerance and runtime budget is pinned in the block below; the tests
never relax them. Statistical criteria state their slack in standard errors
so reruns with other seeds stay meaningful.
"""
import itertools
import time

import numpy as np
from scipy.integrate import quad

import gradcoding as gc

EXACT_EPS = 1e-8  # closed-form identities and exact decodes
RECOVERY_EPS = 1e-10  # defining identity of the null-space encoding
FLOOR_EPS = 1e-8  # achievability slack on the worst-case floor
IDENTITY_EPS = 1e-9  # row-permutation error decomposition
QUADRATURE_EPS = 1e-6  # law constant against numeric integration
TRAJECTORY_EPS = 1e-6  # per-iteration gap between coded q=0 and plain descent
REL_RESIDUAL_MAX = 0.05  # direction error of the mean decoded combination
SIGNAL_SE_FACTOR = 10.0  # the proportionality constant must clear this many SEs
SEM_FACTOR = 3.0  # Monte Carlo mean vs expectation bound, in standard errors

BUDGET_SECONDS = {1: 5, 2: 300, 3: 60, 4: 300, 5: 60, 6: 300, 7: 300, 8: 5, 9: 1}


def _finish(num: int, ok: bool, detail: str, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    in_budget = elapsed <= BUDGET_SECONDS[num]
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[criterion {num}] {status}: {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert in_budget, f"criterion {num} took {elapsed:.1f}s > {BUDGET_SECONDS[num]}s"


def test_criterion_1_repetition_error_matches_closed_form_exhaustively():
    t0 = time.perf_counter()
    A = gc.bibd_transpose_from_difference_set([0, 1, 3], 7)
    B = gc.encode_baseline(A, 2)
    worst = 0.0
    for s in (0, 1, 2):
        want = gc.baseline_bibd_error(A.params, 2, s).value
        for members in itertools.combinations(range(7), 7 - s):
            err = gc.decode(B, gc.NonStragglerSet(n=7, members=members)).err
            worst = max(worst, abs(err - want))
    _finish(1, worst <= EXACT_EPS, f"max |error - formula| = {worst:.2e} over all sets, s <= 2", t0)


def test_criterion_2_mean_error_within_design_bound_and_below_repetition():
    t0 = time.perf_counter()
    A = gc.bibd_transpose_from_difference_set(gc.builtin_difference_sets()[91], 91)
    cfg = gc.SweepConfig(
        schemes=(gc.SweepScheme(scheme=gc.RANDOM_DIAGONAL, epsilon=0.0, matrix_draws=20),),
        m=2,
        grid_kind="s",
        grid=(0, 5, 10, 20, 30),
        set_draws=100,
        seed=0,
    )
    (result,) = gc.sweep_error(A, cfg)
    rows = result.rows
    ok = True
    parts = []
    for row in rows:
        s = int(row["x"])
        bound = gc.bound_bibd(A.params, 2, s).value
        repetition = gc.baseline_bibd_error(A.params, 2, s).value
        within = row["mean_err"] <= bound + SEM_FACTOR * row["std_err"]
        better = row["mean_err"] < repetition
        ok = ok and within and better
        parts.append(f"s={s}: {row['mean_err']:.3f} <= {bound:.3f}+{SEM_FACTOR}SEM, < {repetition:.3f}")
    _finish(2, ok, "; ".join(parts), t0)


def test_criterion_3_coset_encoding_invertible_with_negative_control():
    t0 = time.perf_counter()
    A = gc.coset_bipartite(gc.CosetParams(k=27, m=2, delta=5, generating_set=tuple(range(5))))
    law = gc.DiagonalLaw(0.1)
    full = gc.NonStragglerSet.full(54)
    ranks_ok = True
    exact_ok = True
    for seed in range(100):
        B = gc.encode_random_diagonal(A, 2, law, seed)
        ranks_ok = ranks_ok and gc.rank_of(B.mat) == 54
        exact_ok = exact_ok and gc.decode(B, full).err <= EXACT_EPS
    control = not gc.coset_is_invertible_base(
        gc.CosetParams(k=4, m=2, delta=2, generating_set=(0, 1))
    )
    _finish(
        3,
        ranks_ok and exact_ok and control,
        f"100/100 draws rank 54 and exact full-set decode; singular base detected: {control}",
        t0,
    )


def test_criterion_4_nullspace_encoding_exact_and_dominated():
    t0 = time.perf_counter()
    A = gc.biregular_random(n=40, k=20, delta=3, gamma=6, seed=11)
    recovery_ok = True
    for policy in (gc.V1_ALL_ONES, gc.V1_GAUSSIAN):
        B = gc.encode_nullspace_hadamard(A, 2, v1_policy=policy, seed=0)
        for i in range(2):
            want = np.zeros(40)
            want[i * 20 : (i + 1) * 20] = 1.0
            gap = np.max(np.abs(B.mat @ B.randomness.vectors[i] - want))
            recovery_ok = recovery_ok and gap < RECOVERY_EPS
    B = gc.encode_nullspace_hadamard(A, 2, seed=0)
    rng = np.random.default_rng(0)
    dominated = 0
    violated = 0
    skipped = 0
    for s in (0, 2, 4, 8):
        for _ in range(1000):
            members = tuple(int(j) for j in np.sort(rng.choice(40, size=40 - s, replace=False)))
            workers = gc.NonStragglerSet(n=40, members=members)
            try:
                limit = gc.bound_diag_dominant(B, workers).value
            except gc.SingularMatrixError:
                skipped += 1
                continue
            if gc.decode(B, workers).err <= limit + EXACT_EPS:
                dominated += 1
            else:
                violated += 1
    _finish(
        4,
        recovery_ok and violated == 0 and dominated > 0,
        f"both policies recover exactly; {dominated} sets within the per-set bound, "
        f"{violated} violations, {skipped} singular skipped",
        t0,
    )


def test_criterion_5_worst_case_floor_exact_and_achieved():
    t0 = time.perf_counter()
    floor_ok = (
        gc.lower_bound(8, 8, 4, 2, 5).value == 2.0
        and gc.lower_bound(8, 8, 4, 2, 3).value == 1.0
    )
    cases = [
        (gc.bibd_transpose_from_difference_set([0, 1, 3], 7), (3, 5)),
        (gc.srg_paley(13), (10, 12)),
        (
            gc.coset_bipartite(gc.CosetParams(k=27, m=2, delta=5, generating_set=tuple(range(5)))),
            (10, 20),
        ),
    ]
    achieved_ok = True
    parts = ["floor(8,8,4,2): s=5 -> 2, s=3 -> 1"]
    for A, s_values in cases:
        B = gc.encode_random_diagonal(A, 2, gc.DiagonalLaw(0.0), seed=0)
        for s in s_values:
            floor_val = gc.lower_bound(A.n, A.k, A.delta, 2, s).value
            best = max(
                gc.decode(B, gc.adversarial_straggler_set(A, 2, s, u)).err
                for u in (1, 2)
            )
            achieved_ok = achieved_ok and floor_val > 0 and best >= floor_val - FLOOR_EPS
            parts.append(f"{A.family} s={s}: adversarial {best:.2f} >= floor {floor_val:g}")
    _finish(5, floor_ok and achieved_ok, "; ".join(parts), t0)


def test_criterion_6_decoded_combination_points_at_target():
    t0 = time.perf_counter()
    designs = [
        ("bibd", gc.bibd_transpose_from_difference_set([0, 1, 3], 7)),
        ("srg", gc.srg_paley(13)),
    ]
    ok = True
    parts = []
    for name, A in designs:
        res = gc.estimate_unbiasedness(
            A,
            gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.0),
            m=2,
            q=0.25,
            trials=10_000,
            seed=0,
        )
        aligned = res.rel_residual <= REL_RESIDUAL_MAX
        signal = abs(res.beta_hat) > SIGNAL_SE_FACTOR * res.beta_se
        ok = ok and aligned and signal and not res.suspicious_zero
        parts.append(
            f"{name}: beta {res.beta_hat:.3f} ({res.beta_hat / res.beta_se:.0f} SE), "
            f"rel residual {res.rel_residual:.3f}"
        )
    _finish(6, ok, "; ".join(parts), t0)


def test_criterion_7_training_beats_repetition_and_tracks_plain_descent():
    t0 = time.perf_counter()
    fano = gc.bibd_transpose_from_difference_set([0, 1, 3], 7)
    coset = gc.coset_bipartite(gc.CosetParams(k=27, m=2, delta=5, generating_set=tuple(range(5))))
    parts = []
    ok = True
    for name, A, eps in (("bibd", fano, 0.0), ("coset", coset, 0.1)):
        cfg = gc.TrainConfig(
            schemes=(gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=eps), gc.SchemeSpec(scheme=gc.BASELINE)),
            m=2,
            q=0.25,
            iterations=200,
            repetitions=20,
            dataset=gc.DatasetSpec(samples=600, dim=10, classes=3, seed=0),
            seed=0,
        )
        finals = {
            scheme.scheme: result.mean_final_loss()
            for scheme, result in zip(cfg.schemes, gc.simulate_training(A, cfg))
        }
        better = finals[gc.RANDOM_DIAGONAL] <= finals[gc.BASELINE]
        ok = ok and better
        parts.append(
            f"{name}: diagonal {finals[gc.RANDOM_DIAGONAL]:.4f} <= repetition {finals[gc.BASELINE]:.4f}"
        )
    common = dict(
        m=2,
        q=0.0,
        iterations=50,
        repetitions=2,
        dataset=gc.DatasetSpec(samples=540, dim=6, classes=3, seed=0),
        seed=0,
    )
    schemes = (gc.SchemeSpec(scheme=gc.RANDOM_DIAGONAL, epsilon=0.1), gc.SchemeSpec(scheme=gc.EXACT))
    coded, plain = gc.simulate_training(coset, gc.TrainConfig(schemes=schemes, **common))
    gap = float(np.max(np.abs(coded.losses - plain.losses)))
    ok = ok and gap <= TRAJECTORY_EPS
    parts.append(f"q=0 trajectory gap {gap:.2e}")
    _finish(7, ok, "; ".join(parts), t0)


def test_criterion_8_error_decomposes_across_block_row_groups():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(k, 2 * k + 1))
        B = rng.standard_normal((m * k, n))
        R = rng.standard_normal((n, m))
        size = int(rng.integers(0, n + 1))
        members = np.sort(rng.choice(n, size=size, replace=False))
        F = gc.build_target(k, m)
        fit = B[:, members] @ R[members, :] if size else np.zeros((m * k, m))
        lhs = float(np.sum((fit - F) ** 2))
        rhs = 0.0
        for i in range(k):
            rows = [u * k + i for u in range(m)]
            rhs += float(np.sum((fit[rows, :] - np.eye(m)) ** 2))
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    _finish(8, worst <= IDENTITY_EPS, f"max relative gap {worst:.2e} over 100 random triples", t0)


def test_criterion_9_law_constant_matches_quadrature():
    t0 = time.perf_counter()
    exact_at_zero = gc.compute_c(0.0) == 1.0
    worst = 0.0
    for eps in (0.1, 0.3, 0.5, 0.9):
        lo, hi = 1.0 - eps, 1.0 + eps
        m2 = quad(lambda x: x * x, lo, hi)[0] / (2 * eps)
        inv2 = quad(lambda x: 1.0 / (x * x), lo, hi)[0] / (2 * eps)
        worst = max(worst, abs(gc.compute_c(eps) - m2 * inv2))
    grid = [gc.compute_c(e) for e in (0.0, 0.1, 0.3, 0.5, 0.9)]
    increasing = all(b > a for a, b in zip(grid, grid[1:]))
    _finish(
        9,
        exact_at_zero and worst <= QUADRATURE_EPS and increasing,
        f"c(0) = 1 exactly; max |c - quadrature| = {worst:.2e}; strictly increasing",
        t0,
    )
