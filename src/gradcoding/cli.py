"""Command-line front end.

Five subcommands: construct (design + optional encoding), sweep (Monte
Carlo decode-error curves), bounds (closed-form tables), train (the
logistic-regression simulation), validate (recheck stored artifacts).
Each reads one JSON config, writes its outputs plus a resolved_config.json
echo into --out, and exits 0 on success, 1 when a check fails, 2 on bad
input. The resolved config is itself a valid config reproducing the run.

Each command's config is a frozen dataclass whose fields are its JSON keys:
from_dict parses a config into it and resolved_config.json is to_dict of the
resolved copy, so both read one schema.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .decoding import NonStragglerSet, decode
from .designs import (
    BI_REGULAR,
    BIBD_TRANSPOSE,
    COSET_BIPARTITE,
    SRG_ADJACENCY,
    AssignmentMatrix,
    CosetParams,
    ValidationReport,
    bibd_transpose_from_difference_set,
    biregular_random,
    builtin_difference_sets,
    coset_bipartite,
    coset_is_invertible_base,
    load_difference_set,
    search_planar_difference_set,
    srg_paley,
    validate_bibd,
    validate_srg,
)
from .encoders import (
    BASELINE,
    NULLSPACE_HADAMARD,
    RANDOM_DIAGONAL,
    V1_ALL_ONES,
    EncodingMatrix,
    verify_support,
)
from .errors import (
    ConfigError,
    ConstructionError,
    NonFiniteError,
    NumericalError,
    ParameterError,
    ShapeError,
    SingularMatrixError,
)
from .experiments import (
    EXACT,
    SWEEP_CSV_HEADER,
    DatasetSpec,
    SchemeSpec,
    SweepConfig,
    TrainConfig,
    simulate_training,
    sweep_error,
)
from .serialize import read_matrix_csv, write_json, write_matrix_csv, write_rows_csv
from .svgplot import Series, line_chart

_EXACTNESS_CHECK_EPS = 1e-8
_ROUNDTRIP_EPS = 1e-12


# ---------------------------------------------------------------------------
# config schema: each config node is a frozen dataclass whose fields are its
# JSON keys, in the order resolved_config.json writes them

_JSON_TYPE = {
    int: "a 64-bit integer",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
}


def from_dict(cls, doc, where: str):
    """Parse a JSON object into the config dataclass cls, refusing unknown
    keys, missing keys and values of the wrong JSON type."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
    if missing:
        raise ConfigError(f"missing {where} keys: {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    return cls(**{key: _from_json(hints[key], doc[key], f"{where}.{key}") for key in doc})


def to_dict(node) -> dict:
    """The JSON object of a config dataclass, leaving out the options that
    are unset (None in a field that has a default)."""
    doc = {}
    for f in fields(node):
        value = getattr(node, f.name)
        if value is not None or f.default is MISSING:
            doc[f.name] = _plain(value)
    return doc


def _plain(value):
    if is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _from_json(hint, value, where: str):
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        options = [a for a in args if a is not type(None)]
        if value is None and len(options) < len(args):
            return None
        for option in options[:-1]:
            try:
                return _from_json(option, value, where)
            except ConfigError:
                pass
        return _from_json(options[-1], value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON array, got {value!r}")
        return tuple(_from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if hint is Design:
        family = value.get("family") if isinstance(value, dict) else None
        if not isinstance(family, str) or family not in _DESIGNS:
            raise ConfigError(f"{where} needs a 'family' key, one of {', '.join(_DESIGNS)}")
        return from_dict(_DESIGNS[family], value, where)
    if is_dataclass(hint):
        return from_dict(hint, value, where)
    return _scalar(hint, value, where)


def _scalar(kind: type, value, where: str):
    """A JSON scalar of the given type: a bool only from true/false, a number
    never from a string or a bool and always finite, an int from a number
    with no fractional part inside the 64-bit range, which numpy sizes and
    seeds need."""
    ok = type(value) is kind
    if kind in (int, float) and type(value) in (int, float):
        try:
            whole = float(value).is_integer() and abs(value) < 2**63
            ok = math.isfinite(value) and (kind is float or whole)
        except OverflowError:  # an integer beyond the float range
            ok = False
    if not ok:
        raise ConfigError(f"{where} must be {_JSON_TYPE[kind]}, got {value!r}")
    return kind(value)


class Design:
    """A design config node. Its "family" key selects the dataclass, whose
    build(m, seed) returns the assignment and the resolved node; m is the
    config's top-level m and seed its master seed."""


@dataclass(frozen=True, kw_only=True)
class BibdDesign(Design):
    """A BIBD transpose from a difference set: the built-in or searched one
    for v, one given inline with v, or one read from a JSON file."""

    family: str = BIBD_TRANSPOSE
    v: int | None = None
    difference_set: tuple[int, ...] | None = None
    path: str | None = None

    def build(self, m: int | None, seed: int) -> tuple[AssignmentMatrix, BibdDesign]:
        if self.path is not None:
            v, diff_set = load_difference_set(self.path)
        elif self.difference_set is not None:
            if self.v is None:
                raise ConfigError("inline difference_set needs v")
            v, diff_set = self.v, self.difference_set
        elif self.v is not None:
            v = self.v
            diff_set = builtin_difference_sets().get(v)
            if diff_set is None:
                diff_set = search_planar_difference_set(v, _planar_delta(v))
        else:
            raise ConfigError("design needs v, difference_set, or path")
        A = bibd_transpose_from_difference_set(diff_set, v)
        return A, BibdDesign(v=v, difference_set=tuple(int(b) for b in diff_set))


@dataclass(frozen=True, kw_only=True)
class SrgDesign(Design):
    family: str = SRG_ADJACENCY
    p: int

    def build(self, m: int | None, seed: int) -> tuple[AssignmentMatrix, SrgDesign]:
        return srg_paley(self.p), self


@dataclass(frozen=True, kw_only=True)
class CosetDesign(Design):
    """generating_set defaults to {0, ..., delta-1}."""

    family: str = COSET_BIPARTITE
    k: int
    delta: int
    generating_set: tuple[int, ...] | None = None

    def build(self, m: int | None, seed: int) -> tuple[AssignmentMatrix, CosetDesign]:
        if m is None:
            raise ConfigError("coset design needs a top-level m")
        gen = tuple(range(self.delta)) if self.generating_set is None else self.generating_set
        A = coset_bipartite(CosetParams(k=self.k, m=m, delta=self.delta, generating_set=gen))
        return A, replace(self, generating_set=gen)


@dataclass(frozen=True, kw_only=True)
class BiRegularDesign(Design):
    """seed defaults to the master seed."""

    family: str = BI_REGULAR
    n: int
    k: int
    delta: int
    gamma: int
    seed: int | None = None

    def build(self, m: int | None, seed: int) -> tuple[AssignmentMatrix, BiRegularDesign]:
        resolved = replace(self, seed=seed if self.seed is None else self.seed)
        A = biregular_random(
            n=self.n, k=self.k, delta=self.delta, gamma=self.gamma, seed=resolved.seed
        )
        return A, resolved


_DESIGNS = {cls.family: cls for cls in (BibdDesign, SrgDesign, CosetDesign, BiRegularDesign)}


def _planar_delta(v: int) -> int:
    # v = delta^2 - delta + 1 for a planar difference set
    root = math.isqrt(4 * v - 3) if v >= 2 else 0
    if root * root != 4 * v - 3 or root % 2 == 0:
        raise ConfigError(f"no planar difference-set parameters for v={v}")
    return (1 + root) // 2


@dataclass(frozen=True)
class SweepScheme(SchemeSpec):
    """A sweep's scheme. Its own matrix_draws overrides the config's, so
    deterministic schemes skip redundant encoding redraws while sharing the
    straggler sets."""

    matrix_draws: int | None = None


@dataclass(frozen=True, kw_only=True)
class ConstructCommand:
    command: str = "construct"
    design: Design
    seed: int = 0
    emit_svg: bool = False
    m: int | None = None
    scheme: SchemeSpec | None = None


@dataclass(frozen=True, kw_only=True)
class SweepCommand:
    """Give exactly one of scheme and schemes; the resolved config lists
    schemes, each with its matrix_draws."""

    command: str = "sweep"
    design: Design
    scheme: SweepScheme | None = None
    schemes: tuple[SweepScheme, ...] | None = None
    m: int
    grid_kind: str
    grid: tuple[float, ...]  # integers on an "s" grid
    matrix_draws: int = 1
    set_draws: str | int = 100  # or "all"
    seed: int = 0
    emit_svg: bool = False


@dataclass(frozen=True, kw_only=True)
class BoundsCommand:
    """kinds defaults to every closed form that applies to the design."""

    command: str = "bounds"
    design: Design
    m: int
    epsilon: float = 0.0
    s_grid: tuple[int, ...]
    kinds: tuple[str, ...] | None = None
    seed: int = 0
    emit_svg: bool = False


@dataclass(frozen=True, kw_only=True)
class TrainCommand:
    """Give exactly one of scheme and schemes."""

    command: str = "train"
    design: Design
    scheme: SchemeSpec | None = None
    schemes: tuple[SchemeSpec, ...] | None = None
    m: int
    q: float
    iterations: int
    repetitions: int = 1
    learning_rate: float = 0.5
    dataset: DatasetSpec | None = None
    rescale_lr: bool = False
    seed: int = 0
    emit_svg: bool = False


@dataclass(frozen=True, kw_only=True)
class ValidateCommand:
    """encoding_csv and encoding_meta go together; without them a scheme is
    built afresh and checked."""

    command: str = "validate"
    design: Design
    seed: int = 0
    emit_svg: bool = False
    m: int | None = None
    scheme: SchemeSpec | None = None
    design_csv: str | None = None
    encoding_csv: str | None = None
    encoding_meta: str | None = None


@dataclass(frozen=True, kw_only=True)
class EncodingMeta:
    """encoding.json, how to rebuild a stored encoding. seed is null for the
    unseeded baseline; the optional keys belong to one scheme each."""

    scheme: str
    m: int
    seed: int | None
    epsilon: float | None = None
    v1_policy: str | None = None
    constrain_pm1: bool | None = None
    pm1_found: bool | None = None

    def __post_init__(self) -> None:
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"encoding_meta.seed must be nonnegative, got {self.seed}")

    @classmethod
    def of(cls, spec: SchemeSpec, B: EncodingMatrix) -> EncodingMeta:
        nullspace = spec.scheme == NULLSPACE_HADAMARD
        return cls(
            scheme=spec.scheme,
            m=B.m,
            seed=B.seed,
            epsilon=spec.epsilon if spec.scheme == RANDOM_DIAGONAL else None,
            v1_policy=spec.v1_policy if nullspace else None,
            constrain_pm1=spec.constrain_pm1 if nullspace else None,
            pm1_found=B.randomness.pm1_found if nullspace else None,
        )

    def spec(self) -> SchemeSpec:
        return SchemeSpec(
            scheme=self.scheme,
            epsilon=self.epsilon or 0.0,
            v1_policy=self.v1_policy or V1_ALL_ONES,
            constrain_pm1=bool(self.constrain_pm1),
        )


def _schemes(cfg: SweepCommand | TrainCommand) -> tuple:
    if (cfg.scheme is None) == (cfg.schemes is None):
        raise ConfigError("give exactly one of 'scheme' or 'schemes'")
    schemes = cfg.schemes if cfg.scheme is None else (cfg.scheme,)
    if not schemes:
        raise ConfigError("schemes must be a nonempty list")
    return schemes


def _encoding_spec(cfg: ConstructCommand | ValidateCommand) -> SchemeSpec:
    if cfg.m is None:
        raise ConfigError("an encoding scheme needs m")
    if cfg.scheme.scheme == EXACT:
        raise ConfigError(f"{cfg.command} needs an encoding scheme, not 'exact'")
    return cfg.scheme


def _design_report(A: AssignmentMatrix) -> ValidationReport:
    if A.family == BIBD_TRANSPOSE:
        return validate_bibd(A.mat, A.params)
    if A.family == SRG_ADJACENCY:
        return validate_srg(A.mat, A.params)
    report = ValidationReport(family=A.family)
    ints = A.mat.astype(np.int64)
    report.add("binary", bool(np.array_equal(ints, A.mat)))
    report.add("column_weight", bool(np.all(ints.sum(axis=0) == A.delta)), f"delta={A.delta}")
    report.add("row_weight", bool(np.all(ints.sum(axis=1) == A.gamma)), f"gamma={A.gamma}")
    if A.family == COSET_BIPARTITE:
        k = A.params.k
        blocks_equal = all(
            np.array_equal(A.mat[:, :k], A.mat[:, t * k : (t + 1) * k])
            for t in range(1, A.params.m)
        )
        report.add("identical_blocks", blocks_equal)
        report.add(
            "base_block_invertible",
            coset_is_invertible_base(A.params),
            f"generating_set={list(A.params.generating_set)}",
        )
    return report


def _print_report(checks: list[dict]) -> None:
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check.get("detail") else ""
        print(f"  {check['name']}: {status}{detail}")


def _emit_svg(out: Path, name: str, series: list[Series], **kwargs) -> None:
    (out / name).write_text(line_chart(series, **kwargs), encoding="utf-8")
    print(f"wrote {out / name}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(cfg: ConstructCommand, out: Path) -> int:
    A, design = cfg.design.build(cfg.m, cfg.seed)
    report = _design_report(A)
    write_matrix_csv(out / "design.csv", A.mat, integer=True)
    write_json(out / "validation.json", report.to_dict())
    if cfg.scheme is not None:
        spec = _encoding_spec(cfg)
        B = spec.build(A, cfg.m, cfg.seed)
        write_matrix_csv(out / "encoding.csv", B.mat)
        write_json(out / "encoding.json", to_dict(EncodingMeta.of(spec, B)))
        print(f"encoding: {spec.label}, shape {B.mat.shape}")
    write_json(out / "resolved_config.json", to_dict(replace(cfg, design=design)))
    print(f"design: {A.family}, k={A.k} n={A.n} delta={A.delta} gamma={A.gamma}")
    _print_report(report.to_dict()["checks"])
    return 0 if report.ok else 1


def cmd_sweep(cfg: SweepCommand, out: Path) -> int:
    A, design = cfg.design.build(cfg.m, cfg.seed)
    grid_kind = cfg.grid_kind
    grid = cfg.grid
    if grid_kind == "s":
        grid = tuple(_scalar(int, x, "config.grid") for x in grid)
    schemes = tuple(
        replace(s, matrix_draws=cfg.matrix_draws if s.matrix_draws is None else s.matrix_draws)
        for s in _schemes(cfg)
    )
    rows = []
    svg_series = []
    xs = tuple(float(x) / (A.n if grid_kind == "s" else 1.0) for x in grid)
    for spec in schemes:
        sweep_cfg = SweepConfig(
            assignment=A,
            scheme=spec,
            m=cfg.m,
            grid_kind=grid_kind,
            grid=grid,
            matrix_draws=spec.matrix_draws,
            set_draws=cfg.set_draws,
            seed=cfg.seed,
        )
        result = sweep_error(sweep_cfg)
        rows.extend(result.rows)
        svg_series.append(Series(spec.label, xs, tuple(result.column("mean_err"))))
        for col, suffix in (("upper_bound", "upper bound"), ("lower_bound", "lower bound")):
            pts = [(x, v) for x, v in zip(xs, result.column(col)) if v is not None]
            if pts and any(p[1] != 0.0 for p in pts):
                svg_series.append(
                    Series(
                        f"{spec.label} {suffix}" if suffix == "upper bound" else suffix,
                        tuple(p[0] for p in pts),
                        tuple(p[1] for p in pts),
                    )
                )
        for row in result.rows:
            print(f"  {spec.label} {row['x_kind']}={row['x']:g}: mean_err={row['mean_err']:.6g}")
    write_rows_csv(out / "sweep.csv", SWEEP_CSV_HEADER, rows)
    write_json(
        out / "resolved_config.json",
        to_dict(replace(cfg, design=design, scheme=None, schemes=schemes, grid=grid)),
    )
    if cfg.emit_svg:
        seen = set()
        unique = []
        for s in svg_series:
            if s.label not in seen:
                seen.add(s.label)
                unique.append(s)
        _emit_svg(
            out,
            "sweep.svg",
            unique,
            title=f"decode error on {A.family}",
            x_label="straggler fraction s/n" if grid_kind == "s" else "straggler probability q",
            y_label="decode error",
        )
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_bounds(cfg: BoundsCommand, out: Path) -> int:
    A, design = cfg.design.build(cfg.m, cfg.seed)
    if not cfg.s_grid:
        raise ConfigError("s_grid must be nonempty")
    for s in cfg.s_grid:
        if not (0 <= s <= A.n):
            raise ConfigError(f"s={s} outside [0, {A.n}]")
    kinds = cfg.kinds or tuple(bnd.applicable_kinds(A.family, cfg.epsilon))
    rows = []
    for s in cfg.s_grid:
        for kind in kinds:
            value = bnd.closed_form(kind, A, cfg.m, s, cfg.epsilon)
            if value is None:
                raise ConfigError(
                    f"bound kind {kind} does not apply to {A.family} at epsilon={cfg.epsilon}, s={s}"
                )
            # cells left out of a row are written empty
            row = dict(scheme=kind, family=A.family, m=cfg.m, x_kind="s", x=float(s), seed=cfg.seed)
            if kind == bnd.COSET_UPPER:
                row["epsilon"] = cfg.epsilon
            row["lower_bound" if kind == bnd.LOWER else "upper_bound"] = value
            rows.append(row)
    write_rows_csv(out / "bounds.csv", SWEEP_CSV_HEADER, rows)
    write_json(out / "resolved_config.json", to_dict(replace(cfg, design=design, kinds=kinds)))
    if cfg.emit_svg:
        series = []
        for kind in kinds:
            ys = tuple(r.get("upper_bound", r.get("lower_bound")) for r in rows if r["scheme"] == kind)
            series.append(Series(kind, tuple(float(s) for s in cfg.s_grid), ys))
        _emit_svg(
            out,
            "bounds.svg",
            series,
            title=f"error bounds on {A.family}",
            x_label="stragglers s",
            y_label="bound value",
        )
    print(f"wrote {out / 'bounds.csv'} ({len(rows)} rows)")
    return 0


def cmd_train(cfg: TrainCommand, out: Path) -> int:
    A, design = cfg.design.build(cfg.m, cfg.seed)
    schemes = _schemes(cfg)
    dataset = cfg.dataset or DatasetSpec()
    all_rows = []
    summary = []
    svg_series = []
    for spec in schemes:
        train_cfg = TrainConfig(
            assignment=A,
            scheme=spec,
            m=cfg.m,
            q=cfg.q,
            iterations=cfg.iterations,
            repetitions=cfg.repetitions,
            learning_rate=cfg.learning_rate,
            dataset=dataset,
            seed=cfg.seed,
            rescale_lr=cfg.rescale_lr,
        )
        result = simulate_training(train_cfg)
        all_rows.extend(result.rows())
        summary.append(
            {
                "scheme": result.scheme_label,
                "mean_final_loss": result.mean_final_loss(),
                "diverged_runs": int(sum(result.diverged)),
            }
        )
        finite = np.isfinite(result.losses)
        counts = finite.sum(axis=0)
        totals = np.where(finite, result.losses, 0.0).sum(axis=0)
        means = np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)
        svg_series.append(
            Series(result.scheme_label, tuple(range(cfg.iterations + 1)), tuple(means))
        )
        print(
            f"  {result.scheme_label}: mean final loss {summary[-1]['mean_final_loss']:.6g}, "
            f"{summary[-1]['diverged_runs']} diverged"
        )
    write_rows_csv(out / "train.csv", ["scheme", "seed", "iteration", "loss"], all_rows)
    write_json(
        out / "summary.json",
        {"iterations": cfg.iterations, "repetitions": cfg.repetitions, "q": cfg.q, "schemes": summary},
    )
    resolved = replace(cfg, design=design, scheme=None, schemes=schemes, dataset=dataset)
    write_json(out / "resolved_config.json", to_dict(resolved))
    if cfg.emit_svg:
        _emit_svg(
            out,
            "train.svg",
            svg_series,
            title="training loss",
            x_label="iteration",
            y_label="loss",
            log_y=True,
        )
    print(f"wrote {out / 'train.csv'}")
    return 0


def _check_encoding(report: ValidationReport, B: EncodingMatrix) -> None:
    """The checks of a stored and of a freshly built encoding alike: its
    support, and exact recovery from the full set for the null-space chain."""
    report.add("encoding:support", verify_support(B), "off-support entries must be exactly zero")
    if B.scheme == NULLSPACE_HADAMARD:
        err = decode(B, NonStragglerSet.full(B.n)).err
        report.add(
            "encoding:full_set_exact",
            err <= _EXACTNESS_CHECK_EPS,
            f"full-set decode error {err:.3e}",
        )


def _diagonal_law_failure(B: EncodingMatrix, epsilon: float) -> str:
    """Where a stored random-diagonal encoding first breaks its law, by block
    then column: entries on a column's support that differ, or a magnitude
    outside [1 - epsilon, 1 + epsilon]. Empty when it holds."""
    support = B.parent.mat != 0
    blocks = B.mat.reshape(B.m, B.k, B.n)
    highest = np.where(support, blocks, -np.inf).max(axis=1)
    lowest = np.where(support, blocks, np.inf).min(axis=1)
    differ = highest - lowest > _ROUNDTRIP_EPS
    # the entry in each column's first support row
    magnitude = np.abs(blocks[:, np.argmax(support, axis=0), np.arange(B.n)])
    low, high = 1.0 - epsilon - _ROUNDTRIP_EPS, 1.0 + epsilon + _ROUNDTRIP_EPS
    outside = ~((low <= magnitude) & (magnitude <= high))  # NaN counts as outside
    failures = np.argwhere(differ | outside)
    if not failures.size:
        return ""
    i, col = failures[0]
    if differ[i, col]:
        return f"block {i} column {col} entries differ"
    return f"block {i} column {col} magnitude {magnitude[i, col]!r}"


def _check_loaded_encoding(
    report: ValidationReport, A: AssignmentMatrix, loaded: np.ndarray, meta: EncodingMeta
) -> None:
    m = meta.m
    shape_ok = loaded.shape == (m * A.k, A.n)
    report.add("encoding:shape", shape_ok, f"expected {(m * A.k, A.n)}, got {loaded.shape}")
    if not shape_ok:
        return
    B = EncodingMatrix(mat=loaded, m=m, scheme=meta.scheme, parent=A, seed=meta.seed, randomness=None)
    _check_encoding(report, B)
    if meta.scheme == BASELINE:
        same = all(np.array_equal(B.block(i), A.mat) for i in range(m))
        report.add("encoding:blocks_equal_assignment", same)
    elif meta.scheme == RANDOM_DIAGONAL:
        detail = _diagonal_law_failure(B, meta.epsilon or 0.0)
        report.add("encoding:diagonal_law", not detail, detail)
    if meta.seed is not None and meta.scheme in (RANDOM_DIAGONAL, NULLSPACE_HADAMARD, BASELINE):
        rebuilt = meta.spec().build(A, m, meta.seed)
        report.add(
            "encoding:rebuild_match",
            bool(np.array_equal(rebuilt.mat, loaded)),
            "stored entries must equal the seeded reconstruction",
        )


def _check_fresh_encoding(
    report: ValidationReport, A: AssignmentMatrix, spec: SchemeSpec, m: int, seed: int
) -> None:
    B = spec.build(A, m, seed)
    _check_encoding(report, B)
    if spec.scheme == NULLSPACE_HADAMARD:
        # Per-set dominance is deterministic for a fixed encoding.
        rng = np.random.default_rng(seed)
        dominated = True
        for _ in range(3):
            members = np.sort(rng.choice(A.n, size=A.n - A.n // 4, replace=False))
            workers = NonStragglerSet(n=A.n, members=tuple(int(j) for j in members))
            try:
                limit = bnd.bound_diag_dominant(B, workers).value
            except SingularMatrixError:
                continue
            err_s = decode(B, workers).err
            dominated = dominated and err_s <= limit + _EXACTNESS_CHECK_EPS
        report.add(
            "encoding:diag_dominant_bound",
            dominated,
            "sampled-set error within the diagonally-dominant bound",
        )
    if spec.scheme == BASELINE and A.family == BIBD_TRANSPOSE:
        err = decode(B, NonStragglerSet.full(A.n)).err
        expected = bnd.baseline_bibd_error(A.params, m, 0).value
        report.add(
            "encoding:baseline_closed_form",
            abs(err - expected) <= _EXACTNESS_CHECK_EPS,
            f"full-set error {err:.6g} vs closed form {expected:.6g}",
        )
    if spec.scheme == RANDOM_DIAGONAL and m == 1 and spec.epsilon == 0.0:
        # For m = 1 the realized error is diagonal-free and matches the
        # expected-error formula exactly.
        err = decode(B, NonStragglerSet.full(A.n)).err
        expected = bnd.bound_expected(A, NonStragglerSet.full(A.n), 1, 1.0).value
        report.add(
            "encoding:m1_exact_formula",
            abs(err - expected) <= _EXACTNESS_CHECK_EPS,
            f"full-set error {err:.6g} vs formula {expected:.6g}",
        )


def cmd_validate(cfg: ValidateCommand, out: Path) -> int:
    if (cfg.encoding_csv is None) != (cfg.encoding_meta is None):
        raise ConfigError("encoding_csv and encoding_meta go together")
    A, design = cfg.design.build(cfg.m, cfg.seed)
    report = ValidationReport(family=A.family)
    for name, passed, detail in _design_report(A).checks:
        report.add(f"design:{name}", passed, detail)
    if cfg.design_csv is not None:
        loaded = read_matrix_csv(cfg.design_csv)
        if A.family == BIBD_TRANSPOSE:
            sub = validate_bibd(loaded, A.params)
        elif A.family == SRG_ADJACENCY:
            sub = validate_srg(loaded, A.params)
        else:
            sub = ValidationReport(family=A.family)
            sub.add("matches_construction", bool(np.array_equal(loaded, A.mat)))
        for name, passed, detail in sub.checks:
            report.add(f"design_csv:{name}", passed, detail)
    if cfg.encoding_csv is not None:
        meta_doc = json.loads(Path(cfg.encoding_meta).read_text(encoding="utf-8"))
        meta = from_dict(EncodingMeta, meta_doc, "encoding_meta")
        if cfg.scheme is not None:
            report.add(
                "encoding:meta_matches_config",
                cfg.scheme.scheme == meta.scheme,
                f"config {cfg.scheme.scheme!r} vs stored {meta.scheme!r}",
            )
        _check_loaded_encoding(report, A, read_matrix_csv(cfg.encoding_csv), meta)
    elif cfg.scheme is not None:
        _check_fresh_encoding(report, A, _encoding_spec(cfg), cfg.m, cfg.seed)
    checks = report.to_dict()["checks"]
    write_json(out / "validation_report.json", {"passed": report.ok, "checks": checks})
    write_json(out / "resolved_config.json", to_dict(replace(cfg, design=design)))
    _print_report(checks)
    print("all checks passed" if report.ok else "validation FAILED")
    return 0 if report.ok else 1


_COMMANDS = {
    "construct": (ConstructCommand, cmd_construct),
    "sweep": (SweepCommand, cmd_sweep),
    "bounds": (BoundsCommand, cmd_bounds),
    "train": (TrainCommand, cmd_train),
    "validate": (ValidateCommand, cmd_validate),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcoding",
        description="approximate gradient coding: designs, encodings, bounds, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--svg", action="store_true", help="also emit SVG charts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    schema, command = _COMMANDS[args.command]
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if isinstance(doc, dict) and doc.get("command", args.command) != args.command:
            raise ConfigError(
                f"config is for {doc['command']!r} but {args.command!r} was invoked"
            )
        cfg = from_dict(schema, doc, "config")
        cfg = replace(
            cfg,
            seed=cfg.seed if args.seed is None else args.seed,
            emit_svg=args.svg or cfg.emit_svg,
        )
        if cfg.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return command(cfg, out)
    except (
        ConfigError,
        ParameterError,
        ShapeError,
        OSError,
        json.JSONDecodeError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError, SingularMatrixError, NonFiniteError, NumericalError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
