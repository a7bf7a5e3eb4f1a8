"""Monte Carlo straggler experiments, unbiasedness estimation, and the
desk-scale distributed-training simulation.

SweepConfig and TrainConfig hold every setting of a sweep and of a training
comparison except the design, and are the sweep and train commands' config
schemas: their fields are the JSON keys, and each refuses a bad value with a
FieldError that names its key. sweep_error(A, cfg) and
simulate_training(A, cfg) return one result per scheme of the config.

Every trial derives its own RNG stream from (master seed, trial key), so
results do not depend on scheduling order and reruns are bit-reproducible.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import bounds as bnd
from .decoding import (
    NonStragglerSet,
    apply_fitted,
    build_target,
    decode_draws,
    decode_each,
    decode_exact,
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
    draw_diagonals,
    encode_baseline,
    encode_nullspace_hadamard,
    encode_random_diagonal,
)
from .errors import FieldError, ParameterError, SingularMatrixError, check_count
from .serialize import read_matrix_csv, write_rows_csv

EXACT = "exact"
ENCODING_SCHEMES = (RANDOM_DIAGONAL, NULLSPACE_HADAMARD, BASELINE)

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

# Most survivor sets a sweep draws at a time and hands to each scheme's
# decode_each call, which bounds the sets it holds and the stacks it
# gathers when set_draws="all" enumerates up to MAX_EXHAUSTIVE_SETS sets;
# also the most trials estimate_unbiasedness hands to one decode_draws
# call.
DECODE_CHUNK = 256

# Most float64 entries of the decoded coefficients (n x m) and B R (mk x m)
# that one estimate_unbiasedness chunk holds: 2**20, 8 MiB. The trials are
# decoded from their diagonals, so DECODE_CHUNK binds on every recipe
# design (256 trials on the 91-worker BIBD with m = 2 hold 140,000); only
# a design with (mk + n) m over 4,096 gets shorter chunks.
CHUNK_ELEMENTS = 2**20


# ---------------------------------------------------------------------------
# straggler models


@dataclass(frozen=True)
class FixedCount:
    """Exactly s stragglers, uniformly random among the workers. s must be
    a non-negative integer, not a bool, and is stored as an int."""

    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", check_count(self.s, "straggler count s"))


@dataclass(frozen=True)
class Bernoulli:
    """Each worker straggles independently with probability q."""

    q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.q < 1.0):
            raise ParameterError(f"q must lie in [0, 1), got {self.q}")


def sample_straggler_set(model, n: int, rng: np.random.Generator) -> NonStragglerSet:
    """Draw the surviving-worker set under the given model: the one-set
    call of _draw_sets, so a FixedCount set is that of
    np.sort(rng.choice(n, n - s, replace=False)) and a Bernoulli set that
    of rng.random(n) >= q. n and s are checked before the draw; the drawn
    set is built unchecked, its indices distinct, sorted and in range by
    construction."""
    return _draw_sets(model, n, rng, 1)[0]


def _draw_sets(model, n: int, rng: np.random.Generator, count: int) -> list[NonStragglerSet]:
    """count survivor sets of n workers under model: the sets, and rng's
    state after, of count sample_straggler_set calls. n (as NonStragglerSet
    checks it) and s are checked once, before anything is drawn."""
    n = check_count(n, "worker count n")
    if isinstance(model, FixedCount):
        if not (0 <= model.s <= n):
            raise ParameterError(f"s must lie in [0, {n}], got {model.s}")
        return _fixed_count_sets(model.s, n, rng, count)
    if isinstance(model, Bernoulli):
        return _bernoulli_sets(model.q, n, rng, count)
    raise ParameterError(f"unknown straggler model {model!r}")


def _fixed_count_sets(s: int, n: int, rng: np.random.Generator, count: int) -> list[NonStragglerSet]:
    """count survivor sets of n - s of n workers from one rng.integers call:
    the sets of np.sort(rng.choice(n, n - s, replace=False)), and rng's
    state after, count times over.

    For n <= 10000, or n - s <= n // 50, numpy's choice is Floyd's sampling
    (Bentley & Floyd, CACM 30(9), 1987), whose step j = s..n-1 takes
    v_j uniform on [0, j] and selects v_j, or j if v_j is already selected,
    followed by a Fisher-Yates shuffle of the n - s selected, whose step i
    takes a uniform on [0, i], i = n-s-1..1. integers(0, high,
    endpoint=True) over an array high takes each value by the same bounded
    draw, in order, so one call with high = (s..n-1, n-s-1..1) per set
    gives every value; the shuffle's are dropped, as the set is sorted.

    A set is rebuilt from its v by tracking its s stragglers: they start at
    0..s-1, and step j makes j a straggler in place of v_j when v_j is one.
    So a straggler x moves to succ[x], the first j > x with v_j = x, and on
    until no step takes it. Elsewhere numpy shuffles the tail of a full
    permutation instead, and the sets are drawn one choice call each.

    Floyd's sets' indices are the rows of one read-only array."""
    size = n - s
    if n > 10000 and size > n // 50:
        return [NonStragglerSet._drawn(n, np.sort(rng.choice(n, size, replace=False))) for _ in range(count)]
    highs = np.concatenate([np.arange(s, n), np.arange(size - 1, 0, -1)])
    values = rng.integers(0, np.tile(highs, count), endpoint=True).reshape(count, highs.size)[:, :size]
    # set r's worker x sits at r n + x of the flat arrays; total means none
    total = count * n
    offset = np.arange(count)[:, None] * n
    steps = np.arange(s, n)
    takes = values < steps  # v_j = j selects j itself
    succ = np.full(total, total)
    np.minimum.at(succ, (values + offset)[takes], np.broadcast_to(steps + offset, values.shape)[takes])
    stragglers = (np.arange(s) + offset).ravel()
    ahead = succ[stragglers]
    while (moved := ahead < total).any():
        stragglers[moved] = ahead[moved]
        ahead = succ[stragglers]
    kept = np.ones(total, dtype=bool)
    kept[stragglers] = False
    index = np.flatnonzero(kept).reshape(count, size) - offset
    index.setflags(write=False)
    return [NonStragglerSet._drawn(n, row) for row in index]


def _bernoulli_sets(q: float, n: int, rng: np.random.Generator, count: int) -> list[NonStragglerSet]:
    """count Bernoulli(q) survivor sets of n workers from one
    rng.random((count, n)): a worker survives where its uniform is at least
    q. The sets, and rng's state after, are those of count draws of one.
    Each set's index is its own array."""
    workers = np.arange(n, dtype=np.intp)
    return [NonStragglerSet._drawn(n, workers[kept]) for kept in rng.random((count, n)) >= q]


# ---------------------------------------------------------------------------
# scheme specification


@dataclass(frozen=True)
class SchemeSpec:
    """Which encoder to run and with what parameters. The tag 'exact' is the
    centralized no-coding reference used by training comparisons.

    Each optional key belongs to one scheme (OWNED_KEYS): left unset, it
    takes its default under that scheme and stays None under the others,
    which refuse it. epsilon is held to DiagonalLaw's rule."""

    # the schemes an entry may name
    NAMES: ClassVar[tuple] = (*ENCODING_SCHEMES, EXACT)
    # optional key -> (the scheme that owns it, its value when unset)
    OWNED_KEYS: ClassVar[dict] = {
        "epsilon": (RANDOM_DIAGONAL, 0.0),
        "v1_policy": (NULLSPACE_HADAMARD, V1_ALL_ONES),
        "constrain_pm1": (NULLSPACE_HADAMARD, False),
    }

    scheme: str
    epsilon: float | None = None
    v1_policy: str | None = None
    constrain_pm1: bool | None = None

    def __post_init__(self) -> None:
        if self.scheme not in self.NAMES:
            raise FieldError(f"scheme must be one of {', '.join(self.NAMES)}, got {self.scheme!r}")
        for key, (owner, default) in self.OWNED_KEYS.items():
            if getattr(self, key) is None and owner == self.scheme:
                object.__setattr__(self, key, default)
            elif getattr(self, key) is not None and owner != self.scheme:
                raise FieldError(f"{key} belongs to {owner}, not {self.scheme}")
        if self.epsilon is not None:
            DiagonalLaw(self.epsilon)
        if self.v1_policy not in (None, V1_ALL_ONES, V1_GAUSSIAN):
            raise FieldError(f"v1_policy must be {V1_ALL_ONES} or {V1_GAUSSIAN}, got {self.v1_policy!r}")

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


def _check_counts(owner, *keys: str) -> None:
    """Refuse a key of owner that is not an integer of at least 1; a bool is
    an int to Python, and True would silently mean 1."""
    for key in keys:
        check_count(getattr(owner, key), key, 1, FieldError)


@dataclass(frozen=True)
class SweepScheme(SchemeSpec):
    """A sweep's scheme with its own number of encoding draws, so
    deterministic schemes skip redundant redraws while sharing the
    straggler sets."""

    NAMES: ClassVar[tuple] = ENCODING_SCHEMES

    matrix_draws: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_counts(self, "matrix_draws")


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    """Every scheme of a decode-error sweep over one grid. The checks that
    need the design's n are in check_n."""

    schemes: tuple[SweepScheme, ...]
    m: int
    grid_kind: str  # "s" (straggler counts) or "q" (straggler probabilities)
    grid: tuple[float, ...]  # stored as ints on an "s" grid
    set_draws: str | int = 100  # a positive integer, or "all" for exhaustive sets
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.schemes:
            raise FieldError("schemes must be a nonempty list")
        _check_counts(self, "m")
        if self.grid_kind not in ("s", "q"):
            raise FieldError(f"grid_kind must be 's' or 'q', got {self.grid_kind!r}")
        if len(self.grid) == 0:
            raise FieldError("grid must be nonempty")
        if self.set_draws != "all":
            _check_counts(self, "set_draws")
        elif self.grid_kind != "s":
            raise FieldError("set_draws='all' needs a straggler-count grid")
        for i, x in enumerate(self.grid):
            if self.grid_kind == "s" and not float(x).is_integer():
                raise FieldError(f"grid[{i}]: s={x} is not an integer")
            if self.grid_kind == "q" and not (0.0 <= float(x) < 1.0):
                raise FieldError(f"grid[{i}]: q={x} outside [0, 1)")
        grid = tuple(int(x) for x in self.grid) if self.grid_kind == "s" else tuple(self.grid)
        object.__setattr__(self, "grid", grid)

    def check_n(self, n: int) -> None:
        """Refuse, for a design with n workers, an s outside [0, n] and an
        exhaustive enumeration over MAX_EXHAUSTIVE_SETS sets per encoding
        draw."""
        if self.grid_kind != "s":
            return
        for i, s in enumerate(self.grid):
            if not (0 <= s <= n):
                raise FieldError(f"grid[{i}]: s={s} outside [0, {n}]")
        if self.set_draws == "all":
            total = sum(math.comb(n, s) for s in self.grid)
            if total > MAX_EXHAUSTIVE_SETS:
                raise FieldError(
                    f"set_draws='all' would enumerate {total} sets per encoding draw, "
                    f"over the cap of {MAX_EXHAUSTIVE_SETS}; use a sampled count"
                )


@dataclass
class ExperimentResult:
    header: list[str]
    rows: list[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        write_rows_csv(path, self.header, self.rows)

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]


def _iter_sets(cfg: SweepConfig, n: int, x, rng: np.random.Generator):
    """The survivor sets of one (grid point, draw), as lists of at most
    DECODE_CHUNK sets: each chunk of set_draws sets by one _draw_sets call
    (the sets, and rng's state after, of one sample_straggler_set call per
    set), or every set of n - x workers, in lexicographic order, where
    set_draws is "all"."""
    if cfg.set_draws == "all":
        every = itertools.combinations(range(n), n - x)
        while chunk := [
            NonStragglerSet._drawn(n, np.array(members, dtype=np.intp))
            for members in itertools.islice(every, DECODE_CHUNK)
        ]:
            yield chunk
        return
    model = FixedCount(x) if cfg.grid_kind == "s" else Bernoulli(float(x))
    for start in range(0, cfg.set_draws, DECODE_CHUNK):
        yield _draw_sets(model, n, rng, min(DECODE_CHUNK, cfg.set_draws - start))


def sweep_error(A: AssignmentMatrix, cfg: SweepConfig) -> list[ExperimentResult]:
    """Decode-error statistics over (matrix draw x straggler draw) grids,
    with the matching upper and lower bounds attached per grid point: one
    result per scheme of cfg. Refuses first what cfg.check_n refuses.

    One pass over the grid serves every scheme. At grid point gi, draw t
    builds the draw-t encoding of each scheme with more than t
    matrix_draws (all from the seed of (gi, t)) and draws the straggler
    sets once, from the stream of (gi, t), for all of them: a scheme's
    draw t sees the sets it would see swept alone, and the schemes share
    them. The sets are drawn in chunks of at most DECODE_CHUNK, one call a
    chunk (_iter_sets), and each chunk goes to every such scheme's decode_each (the sets of its one
    encoding, decoded together) and per-set bounds, one scheme after
    another. Only one draw's encodings are alive at a time, and where its
    sets fit in one chunk, only one encoding.

    Where no family closed form applies on a straggler-count grid, per-set
    bounds are evaluated on every sampled set (the diagonally-dominant
    bound for fixed encodings, the expected-error bound for the diagonal
    scheme) and their maximum is reported, mirroring how the sweep figures
    annotate curves; sets with a singular survivor Gram are skipped.
    """
    cfg.check_n(A.n)
    s_grid = cfg.grid_kind == "s"
    results = [ExperimentResult(header=list(SWEEP_CSV_HEADER)) for _ in cfg.schemes]
    for gi, x in enumerate(cfg.grid):
        uppers = [_closed_upper(A, cfg, sc, x) for sc in cfg.schemes]
        errs = [[] for _ in cfg.schemes]
        # None where the scheme reports a closed form, or on a q grid
        set_bounds = [[] if s_grid and upper is None else None for upper in uppers]
        for t in range(max(sc.matrix_draws for sc in cfg.schemes)):
            _sweep_draw(A, cfg, gi, t, errs, set_bounds)
        for sc, result, upper, e, b in zip(cfg.schemes, results, uppers, errs, set_bounds):
            if upper is None and b:
                upper = float(max(b))
            result.rows.append(_sweep_row(A, cfg, sc, x, np.asarray(e), upper))
    return results


def _closed_upper(A: AssignmentMatrix, cfg: SweepConfig, sc: SweepScheme, x) -> float | None:
    """The first family closed form of sc that applies at s = x, or None
    (always on a q grid)."""
    kinds = bnd.SCHEME_UPPER_FORMS.get(sc.scheme, ()) if cfg.grid_kind == "s" else ()
    forms = (bnd.closed_form(kind, A, cfg.m, x, sc.epsilon or 0.0) for kind in kinds)
    return next((v for v in forms if v is not None), None)


def _sweep_draw(A: AssignmentMatrix, cfg: SweepConfig, gi: int, t: int, errs: list, set_bounds: list) -> None:
    """Draw t at grid point gi of every scheme with more than t draws:
    appends each scheme's decode errors to errs[j] and, where set_bounds[j]
    is a list, its per-set bounds. Each encoding is built before its first
    chunk and dropped after its last (the next chunk is drawn first to
    tell), so where the sets fit in one chunk the schemes hold one encoding
    at a time."""
    drawn = [j for j, sc in enumerate(cfg.schemes) if sc.matrix_draws > t]
    seed = _stream_seed(cfg.seed, gi, t, 0)
    kept = {}  # scheme -> its encoding, while chunks remain
    chunks = _iter_sets(cfg, A.n, cfg.grid[gi], np.random.default_rng(_stream(cfg.seed, gi, t, 1)))
    chunk = next(chunks, [])
    while chunk:
        following = next(chunks, [])
        for j in drawn:
            B = kept.pop(j) if j in kept else cfg.schemes[j].build(A, cfg.m, seed)
            errs[j].extend(dec.err for dec in decode_each([B] * len(chunk), chunk))
            if set_bounds[j] is not None:
                set_bounds[j].extend(_per_set_bounds(A, cfg.schemes[j], B, chunk))
            if following:
                kept[j] = B
            del B
        chunk = following


def _per_set_bounds(A: AssignmentMatrix, sc: SweepScheme, B: EncodingMatrix, chunk: list) -> list[float]:
    """The per-set bound of each set of chunk, one bounds call per set:
    bound_expected for the diagonal scheme, bound_diag_dominant of B
    otherwise; a set with a singular survivor Gram is skipped."""
    c_val = bnd.compute_c(sc.epsilon) if sc.scheme == RANDOM_DIAGONAL else None
    values = []
    for workers in chunk:
        try:
            if c_val is None:
                values.append(bnd.bound_diag_dominant(B, workers).value)
            else:
                values.append(bnd.bound_expected(A, workers, B.m, c_val).value)
        except SingularMatrixError:
            pass
    return values


def _sweep_row(A: AssignmentMatrix, cfg: SweepConfig, sc: SweepScheme, x, errs: np.ndarray, upper) -> dict:
    """The sweep.csv row of one scheme at one grid point."""
    lower = bnd.closed_form(bnd.LOWER, A, cfg.m, x, sc.epsilon or 0.0) if cfg.grid_kind == "s" else None
    sem = float(errs.std(ddof=1) / np.sqrt(errs.size)) if errs.size > 1 else 0.0
    return {
        "scheme": sc.label,
        "family": A.family,
        "m": cfg.m,
        "epsilon": sc.epsilon,
        "x_kind": cfg.grid_kind,
        "x": float(x),
        "mean_err": float(errs.mean()),
        "std_err": sem,
        "min_err": float(errs.min()),
        "max_err": float(errs.max()),
        "upper_bound": upper,
        "lower_bound": lower,
        "seed": cfg.seed,
    }


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

    Each trial draws its diagonals (encoders.draw_diagonals, with no
    encoding built) and its survivors from its own streams; the trials are
    decoded by decode_draws in chunks of at most DECODE_CHUNK trials and
    CHUNK_ELEMENTS entries of coefficients and B R, each chunk's draws
    solved by size in stacks from A^T A and the diagonals, and each
    trial's B R is its decode's fitted combination.
    """
    if scheme.scheme != RANDOM_DIAGONAL:
        raise ParameterError("unbiasedness holds for the random-diagonal scheme")
    if A.family == COSET_BIPARTITE and not coset_supports_unbiasedness(A.params):
        raise ParameterError("coset family needs k = p^a with p not dividing delta")
    if A.family == BI_REGULAR:
        raise ParameterError(f"family {A.family} lacks the required symmetry")
    trials, seed = check_count(trials, "trials", 2), check_count(seed, "seed")
    model = Bernoulli(q)
    law = DiagonalLaw(scheme.epsilon)
    target = build_target(A.k, m)
    fnorm2 = float(m * A.k)
    acc = np.zeros_like(target)
    betas = np.empty(trials)
    chunk = max(1, min(DECODE_CHUNK, CHUNK_ELEMENTS // ((m * A.k + A.n) * m)))
    for start in range(0, trials, chunk):
        draws, sets = [], []
        for t in range(start, min(start + chunk, trials)):
            state = _stream(seed, t).generate_state(2, dtype=np.uint64)
            draws.append(draw_diagonals(A, m, law, int(state[0])))
            rng = np.random.default_rng(int(state[1]))
            sets.append(sample_straggler_set(model, A.n, rng))
        combos = np.array([dec.fitted for dec in decode_draws(A, draws, sets)])
        acc += combos.sum(axis=0)
        betas[start : start + len(sets)] = np.einsum("jrm,rm->j", combos, target) / fnorm2
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

    def __post_init__(self) -> None:
        if self.path is not None:
            return  # the CSV sets the sizes, checked when it is read
        if self.classes < 2:
            raise FieldError(f"classes must be at least 2, got {self.classes}")
        if self.samples < self.classes:
            raise FieldError(f"samples must be at least classes = {self.classes}, got {self.samples}")
        if self.dim < 1:
            raise FieldError(f"dim must be positive, got {self.dim}")
        if self.seed < 0:
            raise FieldError(f"seed must be nonnegative, got {self.seed}")


def make_dataset(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    if spec.path is not None:
        raw = read_matrix_csv(spec.path)
        if raw.shape[1] < 2:
            raise ParameterError(f"{spec.path}: external dataset needs features plus a label column")
        labels = raw[:, -1]
        if not np.all(np.isfinite(labels) & (labels == np.rint(labels)) & (labels >= 0)):
            raise ParameterError(f"{spec.path}: labels must be nonnegative integers")
        # one class trains to loss 0 at once, which says nothing
        if np.unique(labels).size < 2:
            raise ParameterError(f"{spec.path}: labels must take at least 2 distinct values")
        return raw[:, :-1], labels.astype(int)
    rng = np.random.default_rng(spec.seed)
    means = rng.normal(0.0, 1.0, size=(spec.classes, spec.dim))
    labels = np.arange(spec.samples) % spec.classes
    features = means[labels] + rng.standard_normal((spec.samples, spec.dim))
    perm = rng.permutation(spec.samples)
    return features[perm], labels[perm]


def _log_softmax(z: np.ndarray) -> np.ndarray:
    # numpy reduces a short last axis slowly (it is 3 long in every recipe),
    # so the max and the sum are elementwise ops over the class slices
    shifted = z - functools.reduce(np.maximum, np.moveaxis(z, -1, 0))[..., None]
    total = functools.reduce(np.add, np.moveaxis(np.exp(shifted), -1, 0))
    return shifted - np.log(total)[..., None]


def logistic_loss(X: np.ndarray, y: np.ndarray, W: np.ndarray) -> float:
    logp = _log_softmax(X @ W)
    return -float(np.mean(logp[np.arange(len(y)), y]))


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """Every scheme of a training comparison on one dataset."""

    schemes: tuple[SchemeSpec, ...]
    m: int
    q: float
    iterations: int
    repetitions: int = 1
    learning_rate: float = 0.5
    dataset: DatasetSpec = DatasetSpec()
    rescale_lr: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.schemes:
            raise FieldError("schemes must be a nonempty list")
        _check_counts(self, "m", "iterations", "repetitions")
        if not (0.0 <= self.q < 1.0):
            raise FieldError(f"q must lie in [0, 1), got {self.q}")
        if not self.learning_rate >= 0.0:
            raise FieldError(f"learning_rate must be nonnegative, got {self.learning_rate}")


DIVERGENCE_LIMIT = 1e6
_RESCALE_WARMUP_TRIALS = 2000

# Most float64 entries a training block decoded ahead holds: per live
# repetition and iteration of the block, the decoded coefficients (n x m)
# and B R (m k x m). 2**15 (256 KiB) is 18 iterations of train-coset's 8
# repetitions, within 0.2 MB of the peak RSS of decoding one iteration at a
# time; 2**17 raised it by 1.5 MB, for no further gain in time.
TRAIN_BLOCK_ELEMENTS = 2**15

# Most elements any one array of a training run may hold: the features
# (samples x dim), the loss table (repetitions x (iterations + 1)), the
# lockstep logits (repetitions x samples x classes) and the per-subset
# gradients (repetitions x k x dim x classes). 2**27 float64 elements are
# 1 GiB.
MAX_TRAIN_ELEMENTS = 2**27


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
        for rep, row in enumerate(self.losses.tolist()):
            for t, loss in enumerate(row):
                if math.isnan(loss):
                    break
                out.append({"scheme": self.scheme_label, "seed": rep, "iteration": t, "loss": loss})
        return out

    def write_csv(self, path) -> None:
        write_rows_csv(path, TRAIN_CSV_HEADER, self.rows())


def _check_train_size(A: AssignmentMatrix, cfg: TrainConfig, samples: int, dim: int, classes: int) -> None:
    """Refuse a run with an array over MAX_TRAIN_ELEMENTS elements, naming
    the config keys that size it. samples, dim and classes are the
    dataset's: the spec's for synthetic data, the CSV's for a file."""
    if cfg.dataset.path is None:
        rows, cols, labels = "dataset.samples", "dataset.dim", "dataset.classes"
    else:
        rows, cols, labels = "dataset.path rows", "dataset.path features", "dataset.path classes"
    reps = cfg.repetitions
    arrays = (
        (samples * dim, f"{rows} x {cols}"),
        (reps * (cfg.iterations + 1), "repetitions x (iterations + 1)"),
        (reps * samples * classes, f"repetitions x {rows} x {labels}"),
        (reps * A.k * dim * classes, f"repetitions x k x {cols} x {labels}"),
    )
    for size, keys in arrays:
        if size > MAX_TRAIN_ELEMENTS:
            raise ParameterError(
                f"{keys} is {size} elements, over the cap of {MAX_TRAIN_ELEMENTS}"
            )


def simulate_training(A: AssignmentMatrix, cfg: TrainConfig) -> list[TrainResult]:
    """Full-batch gradient descent on multinomial logistic regression with
    coded gradient aggregation: one result per scheme of cfg.

    Per iteration: the k per-subset gradients (weights flattened
    column-major) come from one batched product, a Bernoulli survivor set is
    drawn, the random-diagonal scheme redraws its diagonals (fixed-matrix
    schemes keep their encoding), and the decoded aggregate drives the
    update. An empty survivor set decodes to zero coefficients, hence a zero
    update. The 'exact' scheme skips coding and applies the true aggregate.

    The repetitions run in lockstep: their weights form one
    (repetitions, dim, classes) stack, so one product and one log-softmax
    per iteration give every live repetition's loss and the residual of its
    next gradient, and one batched product gives all their per-subset
    gradients. Each repetition keeps its own survivor and encoding streams
    and its own fixed encoding, drawn from the same (seed, repetition)
    states as when the repetitions ran one after another. A repetition that
    diverges leaves the stack.

    The survivor sets and diagonals do not depend on the weights, so they
    are drawn a block of iterations ahead: every live repetition draws the
    block's sets and, for the random-diagonal scheme, its diagonals
    (encoders.draw_diagonals, with no encoding built), and one decode_draws
    call, on the design's column classes where workers pair up, or one
    decode_exact call, with the repetitions' equal baseline encodings as
    one group, decodes the whole block, each set exactly as decode would.
    A block holds at most TRAIN_BLOCK_ELEMENTS entries of coefficients and
    B R. Each iteration then applies its slice of the block's B R to its
    gradients (decoding.apply_fitted, as reconstruct_each does). The draws
    of a repetition past its divergence inside a block are decoded and
    discarded. No set's decode depends on the others in its call, so the
    block length changes no loss, and the other repetitions' losses are
    those of a run without the divergence.

    Refuses, before allocating, a run with an array over
    MAX_TRAIN_ELEMENTS elements.
    """
    return [_train_scheme(A, cfg, sc) for sc in cfg.schemes]


def _train_scheme(A: AssignmentMatrix, cfg: TrainConfig, sc: SchemeSpec) -> TrainResult:
    spec = cfg.dataset
    if spec.path is None:
        _check_train_size(A, cfg, spec.samples, spec.dim, spec.classes)
    X, y = make_dataset(spec)
    if spec.path is not None:
        _check_train_size(A, cfg, X.shape[0], X.shape[1], int(y.max()) + 1)
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
    picked = np.arange(used) * classes + y  # flat index of each sample's label
    d = dim * classes
    subsets = X.reshape(k, per, dim).transpose(0, 2, 1)  # X_i^T, stacked

    eta = cfg.learning_rate
    if cfg.rescale_lr and sc.randomized:
        warm = estimate_unbiasedness(
            A, sc, cfg.m, cfg.q, _RESCALE_WARMUP_TRIALS, _stream_seed(cfg.seed, 0xE7A)
        )
        if warm.suspicious_zero:
            raise ParameterError(
                f"rescale_lr: the warm-up estimate beta = {warm.beta_hat:.3g} +/- "
                f"{warm.beta_se:.2g} at q = {cfg.q} is indistinguishable from zero"
            )
        eta = eta / warm.beta_hat

    reps = cfg.repetitions
    losses = np.full((reps, cfg.iterations + 1), np.nan)
    diverged = [False] * reps
    law = DiagonalLaw(sc.epsilon) if sc.randomized else None
    fixed = sc.scheme in (BASELINE, NULLSPACE_HADAMARD)
    set_rngs, enc_rngs, encodings = [], [], []
    for rep in range(reps):
        state = _stream(cfg.seed, rep).generate_state(3, dtype=np.uint64)
        set_rngs.append(np.random.default_rng(int(state[0])))
        enc_rngs.append(np.random.default_rng(int(state[1])))
        encodings.append(sc.build(A, cfg.m, int(state[2])) if fixed else None)
    per_set = (A.n + cfg.m * k) * cfg.m  # coefficients and B R
    live = np.arange(reps)
    W = np.zeros((reps, dim, classes))
    first = end = 0  # the iterations of the block decoded ahead
    for it in range(cfg.iterations + 1):
        logp = _log_softmax(np.matmul(X, W))
        loss = -np.mean(np.take(logp.reshape(live.size, -1), picked, axis=1), axis=1)
        losses[live, it] = loss
        if it:
            stop = ~np.isfinite(loss) | (loss > DIVERGENCE_LIMIT)
            for rep in live[stop]:
                diverged[rep] = True
            live, W, logp = live[~stop], W[~stop], logp[~stop]
        if it == cfg.iterations or not live.size:
            break
        resid = np.exp(logp) - onehot
        # row i of partials[j] is X_i^T resid_i / used for live repetition j,
        # the dim x classes gradient of subset i flattened column-major
        per_subset = np.matmul(subsets, resid.reshape(live.size, k, per, classes)) / used
        partials = per_subset.transpose(0, 1, 3, 2).reshape(live.size, k, d)
        if sc.scheme == EXACT:
            grads = partials.sum(axis=1)  # Z F, without building Z
        else:
            if it == end:
                count = max(1, min(cfg.iterations - it, TRAIN_BLOCK_ELEMENTS // (live.size * per_set)))
                first, end = it, it + count
                fitted, errs = _decode_block(A, cfg, law, live, count, set_rngs, enc_rngs, encodings)
            grads, _ = apply_fitted(partials, fitted[live, it - first], errs[live, it - first])
        # each row is a dim x classes gradient flattened column-major
        W -= eta * grads.reshape(live.size, classes, dim).transpose(0, 2, 1)
    return TrainResult(scheme_label=sc.label, losses=losses, diverged=diverged)


def _decode_block(
    A: AssignmentMatrix,
    cfg: TrainConfig,
    law: DiagonalLaw | None,
    live: np.ndarray,
    count: int,
    set_rngs: list,
    enc_rngs: list,
    fixed: list,
) -> tuple[np.ndarray, np.ndarray]:
    """The next count iterations of every live repetition, drawn and
    decoded ahead: each repetition draws its survivor sets by one
    _bernoulli_sets call and, without a fixed encoding, its diagonal seeds
    with one integers(2**63, size=count), from its own streams: the values,
    and the generator states after, of count sample_straggler_set and
    scalar integers(2**63) calls. One decode_draws or decode_exact call
    decodes them all, each set exactly as decode would. Returns B R
    (repetitions x count x mk x m) and the decode errors (repetitions x
    count), filled on the live repetitions' rows."""
    sets = [w for rep in live for w in _bernoulli_sets(cfg.q, A.n, set_rngs[rep], count)]
    if law is not None:
        seeds = np.concatenate([enc_rngs[rep].integers(2**63, size=count) for rep in live]).tolist()
        decs = decode_draws(A, [draw_diagonals(A, cfg.m, law, seed) for seed in seeds], sets)
    else:
        decs = decode_exact([fixed[rep] for rep in live for _ in range(count)], sets)
    mk = cfg.m * A.k
    fitted = np.empty((len(set_rngs), count, mk, cfg.m))
    errs = np.empty((len(set_rngs), count))
    fitted[live] = np.array([dec.fitted for dec in decs]).reshape(live.size, count, mk, cfg.m)
    errs[live] = np.array([dec.err for dec in decs]).reshape(live.size, count)
    return fitted, errs
