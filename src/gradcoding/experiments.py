"""Monte Carlo straggler experiments, unbiasedness estimation, and the
desk-scale distributed-training simulation.

Every trial derives its own RNG stream from (master seed, trial key), so
results do not depend on scheduling order and reruns are bit-reproducible.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .decoding import (
    NonStragglerSet,
    build_target,
    decode,
    merge_blocks,
    reconstruct,
    split_gradients,
)
from .designs import BI_REGULAR, COSET_BIPARTITE, AssignmentMatrix
from .encoders import (
    BASELINE,
    NULLSPACE_HADAMARD,
    RANDOM_DIAGONAL,
    V1_ALL_ONES,
    V1_GAUSSIAN,
    DiagonalLaw,
    EncodingMatrix,
    encode_baseline,
    encode_nullspace_hadamard,
    encode_random_diagonal,
)
from .errors import ParameterError, SingularMatrixError
from .serialize import read_matrix_csv, write_rows_csv

EXACT = "exact"

SWEEP_CSV_HEADER = [
    "scheme",
    "family",
    "m",
    "epsilon",
    "x_kind",
    "x",
    "mean_err",
    "std_err",
    "min_err",
    "max_err",
    "upper_bound",
    "lower_bound",
    "seed",
]

TRAIN_CSV_HEADER = ["scheme", "seed", "iteration", "loss"]

# Most survivor sets that set_draws="all" may enumerate per encoding draw,
# summed over the grid; v=91 at s=5 alone would be about 4.9e7 sets.
MAX_EXHAUSTIVE_SETS = 1_000_000


# ---------------------------------------------------------------------------
# straggler models


@dataclass(frozen=True)
class FixedCount:
    """Exactly s stragglers, uniformly random among the workers."""

    s: int


@dataclass(frozen=True)
class Bernoulli:
    """Each worker straggles independently with probability q."""

    q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.q < 1.0):
            raise ParameterError(f"q must lie in [0, 1), got {self.q}")


def sample_straggler_set(model, n: int, rng: np.random.Generator) -> NonStragglerSet:
    """Draw the surviving-worker set under the given model."""
    if isinstance(model, FixedCount):
        if not (0 <= model.s <= n):
            raise ParameterError(f"s must lie in [0, {n}], got {model.s}")
        members = np.sort(rng.choice(n, size=n - model.s, replace=False))
        return NonStragglerSet(n=n, members=tuple(int(i) for i in members))
    if isinstance(model, Bernoulli):
        kept = np.nonzero(rng.random(n) >= model.q)[0]
        return NonStragglerSet(n=n, members=tuple(int(i) for i in kept))
    raise ParameterError(f"unknown straggler model {model!r}")


# ---------------------------------------------------------------------------
# scheme specification


@dataclass(frozen=True)
class SchemeSpec:
    """Which encoder to run and with what parameters. The tag 'exact' is the
    centralized no-coding reference used by training comparisons."""

    scheme: str
    epsilon: float = 0.0
    v1_policy: str = V1_ALL_ONES
    constrain_pm1: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in (RANDOM_DIAGONAL, NULLSPACE_HADAMARD, BASELINE, EXACT):
            raise ParameterError(f"unknown scheme {self.scheme!r}")
        if self.v1_policy not in (V1_ALL_ONES, V1_GAUSSIAN):
            raise ParameterError(f"unknown v1 policy {self.v1_policy!r}")

    @property
    def label(self) -> str:
        if self.scheme == NULLSPACE_HADAMARD:
            suffix = "_pm1" if self.constrain_pm1 else ""
            return f"{self.scheme}_{self.v1_policy}{suffix}"
        return self.scheme

    @property
    def randomized(self) -> bool:
        return self.scheme == RANDOM_DIAGONAL

    def build(self, A: AssignmentMatrix, m: int, seed: int) -> EncodingMatrix | None:
        if self.scheme == RANDOM_DIAGONAL:
            return encode_random_diagonal(A, m, DiagonalLaw(self.epsilon), seed)
        if self.scheme == NULLSPACE_HADAMARD:
            return encode_nullspace_hadamard(A, m, self.v1_policy, self.constrain_pm1, seed)
        if self.scheme == BASELINE:
            return encode_baseline(A, m)
        return None


def _stream(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))


def _stream_seed(master_seed: int, *key: int) -> int:
    return int(_stream(master_seed, *key).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# error sweeps


@dataclass(frozen=True)
class SweepConfig:
    assignment: AssignmentMatrix
    scheme: SchemeSpec
    m: int
    grid_kind: str  # "s" (straggler counts) or "q" (straggler probabilities)
    grid: tuple
    matrix_draws: int = 1
    set_draws: object = 100  # positive integer, or "all" for exhaustive sets
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme.scheme == EXACT:
            raise ParameterError("sweeps need an encoding scheme")
        if self.grid_kind not in ("s", "q"):
            raise ParameterError(f"grid_kind must be 's' or 'q', got {self.grid_kind!r}")
        if len(self.grid) == 0:
            raise ParameterError("grid must be nonempty")
        if self.matrix_draws < 1:
            raise ParameterError("matrix_draws must be at least 1")
        if self.set_draws != "all" and (
            not isinstance(self.set_draws, int) or self.set_draws < 1
        ):
            raise ParameterError("set_draws must be a positive integer or 'all'")
        n = self.assignment.n
        for x in self.grid:
            if self.grid_kind == "s" and not (0 <= int(x) <= n):
                raise ParameterError(f"grid value s={x} outside [0, {n}]")
            if self.grid_kind == "q" and not (0.0 <= float(x) < 1.0):
                raise ParameterError(f"grid value q={x} outside [0, 1)")
        if self.set_draws == "all" and self.grid_kind == "s":
            total = sum(math.comb(n, int(x)) for x in self.grid)
            if total > MAX_EXHAUSTIVE_SETS:
                raise ParameterError(
                    f"set_draws='all' would enumerate {total} sets per encoding draw, "
                    f"over the cap of {MAX_EXHAUSTIVE_SETS}; use a sampled count"
                )
        object.__setattr__(self, "grid", tuple(self.grid))


@dataclass
class ExperimentResult:
    header: list[str]
    rows: list[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        write_rows_csv(path, self.header, self.rows)

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]


def _iter_sets(cfg: SweepConfig, x, rng: np.random.Generator):
    n = cfg.assignment.n
    if cfg.set_draws == "all":
        if cfg.grid_kind != "s":
            raise ParameterError("exhaustive sets need a straggler-count grid")
        size = n - int(x)
        for members in itertools.combinations(range(n), size):
            yield NonStragglerSet(n=n, members=members)
        return
    model = FixedCount(int(x)) if cfg.grid_kind == "s" else Bernoulli(float(x))
    for _ in range(cfg.set_draws):
        yield sample_straggler_set(model, n, rng)


def sweep_error(cfg: SweepConfig) -> ExperimentResult:
    """Decode-error statistics over (matrix draw x straggler draw) grids,
    with the matching upper and lower bounds attached per grid point.

    Where no family closed form applies on a straggler-count grid, per-set
    bounds are evaluated on every sampled set (the diagonally-dominant
    bound for fixed encodings, the expected-error bound for the diagonal
    scheme) and their maximum is reported, mirroring how the sweep figures
    annotate curves; sets with a singular survivor Gram are skipped.
    """
    A, sc = cfg.assignment, cfg.scheme
    s_grid = cfg.grid_kind == "s"
    c_val = bnd.compute_c(sc.epsilon) if sc.scheme == RANDOM_DIAGONAL else None
    result = ExperimentResult(header=list(SWEEP_CSV_HEADER))
    for gi, x in enumerate(cfg.grid):
        kinds = bnd.SCHEME_UPPER_FORMS.get(sc.scheme, ()) if s_grid else ()
        forms = (bnd.closed_form(kind, A, cfg.m, int(x), sc.epsilon) for kind in kinds)
        upper = next((v for v in forms if v is not None), None)
        per_set = s_grid and upper is None
        errs = []
        set_bounds = []
        for t in range(cfg.matrix_draws):
            B = sc.build(A, cfg.m, _stream_seed(cfg.seed, gi, t, 0))
            rng = np.random.default_rng(_stream(cfg.seed, gi, t, 1))
            for workers in _iter_sets(cfg, x, rng):
                errs.append(decode(B, workers).err)
                if per_set:
                    try:
                        if sc.scheme == RANDOM_DIAGONAL:
                            set_bounds.append(bnd.bound_expected(A, workers, cfg.m, c_val).value)
                        else:
                            set_bounds.append(bnd.bound_diag_dominant(B, workers).value)
                    except SingularMatrixError:
                        pass
        arr = np.asarray(errs)
        if upper is None and set_bounds:
            upper = float(max(set_bounds))
        lower = bnd.closed_form(bnd.LOWER, A, cfg.m, int(x), sc.epsilon) if s_grid else None
        sem = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        result.rows.append(
            {
                "scheme": sc.label,
                "family": A.family,
                "m": cfg.m,
                "epsilon": sc.epsilon if sc.scheme == RANDOM_DIAGONAL else None,
                "x_kind": cfg.grid_kind,
                "x": float(x),
                "mean_err": float(arr.mean()),
                "std_err": sem,
                "min_err": float(arr.min()),
                "max_err": float(arr.max()),
                "upper_bound": upper,
                "lower_bound": lower,
                "seed": cfg.seed,
            }
        )
    return result


# ---------------------------------------------------------------------------
# unbiasedness


def _prime_power_base(k: int) -> int | None:
    """Smallest prime p with k = p^a, or None if k is not a prime power."""
    if k < 2:
        return None
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            return p if k == 1 else None
        p += 1
    return k  # k itself prime


def coset_supports_unbiasedness(params) -> bool:
    """True when k is a prime power whose prime does not divide delta, the
    case with an almost-surely invertible base block."""
    p = _prime_power_base(params.k)
    return p is not None and params.delta % p != 0


@dataclass(frozen=True)
class UnbiasednessResult:
    """Monte Carlo estimate of the proportionality constant between the
    expected decoded combination and the target."""

    beta_hat: float
    beta_se: float
    rel_residual: float
    trials: int

    @property
    def suspicious_zero(self) -> bool:
        """Statistically indistinguishable from zero, which would contradict
        the unbiased-oracle property."""
        return abs(self.beta_hat) <= 3.0 * self.beta_se


def estimate_unbiasedness(
    A: AssignmentMatrix,
    scheme: SchemeSpec,
    m: int,
    q: float,
    trials: int,
    seed: int = 0,
) -> UnbiasednessResult:
    """Estimate beta with E[B R] = beta F over (diagonal draw, Bernoulli
    straggler draw) pairs.

    Applies to the random-diagonal scheme on families with the required
    symmetry: BIBD transposes, (vertex-transitive) SRG adjacency, and coset
    bipartite graphs with an invertible base block.
    """
    if scheme.scheme != RANDOM_DIAGONAL:
        raise ParameterError("unbiasedness holds for the random-diagonal scheme")
    if A.family == COSET_BIPARTITE and not coset_supports_unbiasedness(A.params):
        raise ParameterError("coset family needs k = p^a with p not dividing delta")
    if A.family == BI_REGULAR:
        raise ParameterError(f"family {A.family} lacks the required symmetry")
    if trials < 2:
        raise ParameterError("need at least 2 trials")
    model = Bernoulli(q)
    law = DiagonalLaw(scheme.epsilon)
    target = build_target(A.k, m).mat
    fnorm2 = float(m * A.k)
    acc = np.zeros_like(target)
    betas = np.empty(trials)
    for t in range(trials):
        state = _stream(seed, t).generate_state(2, dtype=np.uint64)
        B = encode_random_diagonal(A, m, law, int(state[0]))
        rng = np.random.default_rng(int(state[1]))
        workers = sample_straggler_set(model, A.n, rng)
        combo = B.mat @ decode(B, workers).coeffs
        acc += combo
        betas[t] = float(np.sum(combo * target)) / fnorm2
    mean_mat = acc / trials
    beta_hat = float(betas.mean())
    beta_se = float(betas.std(ddof=1) / np.sqrt(trials))
    denom = abs(beta_hat) * np.sqrt(fnorm2)
    rel = float(np.linalg.norm(mean_mat - beta_hat * target)) / denom if denom else np.inf
    return UnbiasednessResult(
        beta_hat=beta_hat, beta_se=beta_se, rel_residual=rel, trials=trials
    )


# ---------------------------------------------------------------------------
# training simulation


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic Gaussian class blobs, or an external CSV whose final column
    is the integer class label."""

    samples: int = 600
    dim: int = 10
    classes: int = 3
    seed: int = 0
    path: str | None = None


def make_dataset(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    if spec.path is not None:
        raw = read_matrix_csv(spec.path)
        if raw.shape[1] < 2:
            raise ParameterError("external dataset needs features plus a label column")
        features = raw[:, :-1]
        labels = raw[:, -1].astype(int)
        if labels.min() < 0:
            raise ParameterError("labels must be nonnegative integers")
        return features, labels
    if spec.samples < spec.classes or spec.classes < 2:
        raise ParameterError("need at least 2 classes and one sample per class")
    if spec.dim < 1 or spec.seed < 0:
        raise ParameterError("dim must be positive and seed nonnegative")
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(0.0, 1.0, size=(spec.classes, spec.dim))
    labels = np.arange(spec.samples) % spec.classes
    features = means[labels] + rng.standard_normal((spec.samples, spec.dim))
    perm = rng.permutation(spec.samples)
    return features[perm], labels[perm]


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def logistic_loss(X: np.ndarray, y: np.ndarray, W: np.ndarray) -> float:
    logp = _log_softmax(X @ W)
    return -float(np.mean(logp[np.arange(len(y)), y]))


@dataclass(frozen=True)
class TrainConfig:
    assignment: AssignmentMatrix
    scheme: SchemeSpec
    m: int
    q: float
    iterations: int
    repetitions: int = 1
    learning_rate: float = 0.5
    dataset: DatasetSpec = DatasetSpec()
    seed: int = 0
    rescale_lr: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.repetitions < 1:
            raise ParameterError("iterations and repetitions must be positive")
        if not (0.0 <= self.q < 1.0):
            raise ParameterError(f"q must lie in [0, 1), got {self.q}")


DIVERGENCE_LIMIT = 1e6
_RESCALE_WARMUP_TRIALS = 2000


@dataclass
class TrainResult:
    """Loss trajectories, one row per repetition, column t = loss after t
    updates (column 0 is the starting loss); NaN past a divergence."""

    scheme_label: str
    losses: np.ndarray
    diverged: list[bool]

    def final_losses(self) -> np.ndarray:
        out = np.empty(self.losses.shape[0])
        for i, row in enumerate(self.losses):
            finite = np.nonzero(np.isfinite(row))[0]
            out[i] = row[finite[-1]] if finite.size else np.nan
        return out

    def mean_final_loss(self) -> float:
        return float(np.mean(self.final_losses()))

    def rows(self) -> list[dict]:
        out = []
        for rep in range(self.losses.shape[0]):
            for t, loss in enumerate(self.losses[rep]):
                if np.isnan(loss):
                    break
                out.append(
                    {"scheme": self.scheme_label, "seed": rep, "iteration": t, "loss": float(loss)}
                )
        return out

    def write_csv(self, path) -> None:
        write_rows_csv(path, TRAIN_CSV_HEADER, self.rows())


def simulate_training(cfg: TrainConfig) -> TrainResult:
    """Full-batch gradient descent on multinomial logistic regression with
    coded gradient aggregation.

    Per iteration: per-subset gradients (weights flattened column-major) are
    arranged into the block matrix, a Bernoulli survivor set is drawn, the
    random-diagonal scheme redraws its diagonals (fixed-matrix schemes keep
    their encoding), and the decoded approximation drives the update. An
    empty survivor set decodes to zero coefficients, hence a zero update.
    The 'exact' scheme skips coding and applies the true aggregate.
    """
    A, sc = cfg.assignment, cfg.scheme
    X, y = make_dataset(cfg.dataset)
    k = A.k
    per = len(X) // k
    if per == 0:
        raise ParameterError(f"dataset smaller than k={k} subsets")
    used = per * k
    X, y = X[:used], y[:used]
    classes = int(y.max()) + 1
    dim = X.shape[1]
    onehot = np.zeros((used, classes))
    onehot[np.arange(used), y] = 1.0
    d = dim * classes
    target = build_target(k, cfg.m).mat

    eta = cfg.learning_rate
    if cfg.rescale_lr and sc.randomized:
        warm = estimate_unbiasedness(
            A, sc, cfg.m, cfg.q, _RESCALE_WARMUP_TRIALS, _stream_seed(cfg.seed, 0xE7A)
        )
        eta = eta / warm.beta_hat

    losses = np.full((cfg.repetitions, cfg.iterations + 1), np.nan)
    diverged = [False] * cfg.repetitions
    law = DiagonalLaw(sc.epsilon) if sc.randomized else None
    for rep in range(cfg.repetitions):
        state = _stream(cfg.seed, rep).generate_state(3, dtype=np.uint64)
        set_rng = np.random.default_rng(int(state[0]))
        enc_rng = np.random.default_rng(int(state[1]))
        B = None
        if sc.scheme in (BASELINE, NULLSPACE_HADAMARD):
            B = sc.build(A, cfg.m, int(state[2]))
        W = np.zeros((dim, classes))
        losses[rep, 0] = logistic_loss(X, y, W)
        for it in range(1, cfg.iterations + 1):
            probs = np.exp(_log_softmax(X @ W))
            resid = probs - onehot
            partials = [
                (X[i * per : (i + 1) * per].T @ resid[i * per : (i + 1) * per] / used).ravel(order="F")
                for i in range(k)
            ]
            Z = split_gradients(partials, cfg.m)
            if sc.scheme == EXACT:
                approx = Z.mat @ target
            else:
                workers = sample_straggler_set(Bernoulli(cfg.q), A.n, set_rng)
                if sc.randomized:
                    B = encode_random_diagonal(A, cfg.m, law, int(enc_rng.integers(2**63)))
                approx, _ = reconstruct(Z, B, workers)
            grad = merge_blocks(approx, d).reshape((dim, classes), order="F")
            W = W - eta * grad
            loss = logistic_loss(X, y, W)
            losses[rep, it] = loss
            if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                diverged[rep] = True
                break
    return TrainResult(scheme_label=sc.label, losses=losses, diverged=diverged)
