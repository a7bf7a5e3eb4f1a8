"""Command-line front end.

Five subcommands: construct (design + optional encoding), sweep (Monte
Carlo decode-error curves), bounds (closed-form tables), train (the
logistic-regression simulation), validate (recheck stored artifacts).
Each reads one JSON config, writes its outputs plus a resolved_config.json
echo into --out, and exits 0 on success, 1 when a check fails, 2 on bad
input. The resolved config is itself a valid config reproducing the run.

A config is an envelope, "command" and "design", around the keys of its
command's schema: a frozen dataclass whose fields are those keys. sweep and
train use the library's SweepConfig and TrainConfig; construct, bounds and
validate have theirs here. main parses the envelope and the schema
(parse_config), builds the design, runs the command on it, and writes the
envelope and to_dict of the command's resolved config as
resolved_config.json, so parsing and the echo read one schema.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
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
    load_difference_set,
    search_planar_difference_set,
    srg_paley,
    validate_design,
)
from .encoders import (
    BASELINE,
    NULLSPACE_HADAMARD,
    RANDOM_DIAGONAL,
    DiagonalLaw,
    EncodingMatrix,
    verify_support,
)
from .errors import (
    ConfigError,
    ConstructionError,
    FieldError,
    NonFiniteError,
    NumericalError,
    ParameterError,
    ShapeError,
    SingularMatrixError,
)
from .experiments import (
    ENCODING_SCHEMES,
    EXACT,
    SWEEP_CSV_HEADER,
    TRAIN_CSV_HEADER,
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


@contextlib.contextmanager
def _named(where: str):
    """Name a value refused with a FieldError by its path under where."""
    try:
        yield
    except FieldError as exc:
        raise ConfigError(f"{where}.{exc}") from None


def from_dict(cls, doc, where: str):
    """Parse a JSON object into the config dataclass cls, refusing unknown
    keys, missing keys and values of the wrong JSON type. A null for a key
    with a default means the key is absent. A value that cls refuses
    (FieldError) is named by its path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    required = [f.name for f in fields(cls) if f.default is MISSING]
    missing = [name for name in required if name not in doc]
    if missing:
        raise ConfigError(f"missing {where} keys: {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    values = {
        key: _from_json(hints[key], value, f"{where}.{key}")
        for key, value in doc.items()
        if value is not None or key in required
    }
    with _named(where):
        return cls(**values)


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
                raise ConfigError("config.design.difference_set needs v")
            v, diff_set = self.v, self.difference_set
        elif self.v is not None:
            v = self.v
            diff_set = builtin_difference_sets().get(v)
            if diff_set is None:
                diff_set = search_planar_difference_set(v)
        else:
            raise ConfigError("config.design needs v, difference_set, or path")
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
            raise ConfigError("config.m must be given with a coset design")
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


@dataclass(frozen=True, kw_only=True)
class ConstructCommand:
    seed: int = 0
    m: int | None = None
    scheme: SchemeSpec | None = None

    def __post_init__(self) -> None:
        if self.m is not None and self.m < 1:
            raise FieldError(f"m must be an integer >= 1, got {self.m}")
        if self.scheme is not None and self.m is None:
            raise FieldError("m must be given with a scheme")
        if self.scheme is not None and self.scheme.scheme == EXACT:
            raise FieldError(f"scheme.scheme must be an encoding scheme, not {EXACT!r}")


@dataclass(frozen=True, kw_only=True)
class BoundsCommand:
    """kinds defaults to every closed form that applies to the design."""

    m: int
    epsilon: float = 0.0
    s_grid: tuple[int, ...]
    kinds: tuple[str, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise FieldError(f"m must be an integer >= 1, got {self.m}")
        DiagonalLaw(self.epsilon)
        if not self.s_grid:
            raise FieldError("s_grid must be nonempty")
        if self.kinds is None:
            return
        for kind in self.kinds:
            if kind not in bnd.CLOSED_FORMS:
                raise FieldError(
                    f"kinds names an unknown kind {kind!r}; known: {', '.join(bnd.CLOSED_FORMS)}"
                )
        if len(set(self.kinds)) < len(self.kinds):
            raise FieldError(f"kinds names a kind more than once: {', '.join(self.kinds)}")


@dataclass(frozen=True, kw_only=True)
class ValidateCommand:
    seed: int = 0
    m: int | None = None
    design_csv: str | None = None
    encoding_csv: str | None = None
    encoding_meta: str | None = None

    def __post_init__(self) -> None:
        if self.m is not None and self.m < 1:
            raise FieldError(f"m must be an integer >= 1, got {self.m}")
        if (self.encoding_csv is None) != (self.encoding_meta is None):
            raise FieldError("encoding_csv and encoding_meta go together")


@dataclass(frozen=True, kw_only=True)
class EncodingMeta(SchemeSpec):
    """encoding.json, how to rebuild a stored encoding: its scheme entry,
    m, the seed (null for the unseeded baseline only) and, for the
    null-space scheme, whether the +/-1 search found v_2."""

    NAMES: typing.ClassVar[tuple] = ENCODING_SCHEMES
    OWNED_KEYS: typing.ClassVar[dict] = {**SchemeSpec.OWNED_KEYS, "pm1_found": (NULLSPACE_HADAMARD, None)}

    m: int
    seed: int | None
    pm1_found: bool | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.seed is None and self.scheme != BASELINE:
            raise FieldError(f"seed must be an integer for {self.scheme}, got null")
        if self.seed is not None and self.seed < 0:
            raise FieldError(f"seed must be nonnegative, got {self.seed}")

    @classmethod
    def of(cls, spec: SchemeSpec, B: EncodingMatrix) -> EncodingMeta:
        found = B.randomness.pm1_found if spec.scheme == NULLSPACE_HADAMARD else None
        return cls(**asdict(spec), m=B.m, seed=B.seed, pm1_found=found)


def _print_report(checks: list[dict]) -> None:
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check.get("detail") else ""
        print(f"  {check['name']}: {status}{detail}")


def _emit_svg(out: Path, name: str, series: list[Series], **kwargs) -> None:
    (out / name).write_text(line_chart(series, **kwargs), encoding="utf-8")
    print(f"wrote {out / name}")


# ---------------------------------------------------------------------------
# subcommands: each runs on the built design and returns its exit code and
# its config resolved for resolved_config.json


def cmd_construct(A: AssignmentMatrix, cfg: ConstructCommand, out: Path) -> tuple[int, ConstructCommand]:
    report = validate_design(A.mat, A)
    B = None if cfg.scheme is None else cfg.scheme.build(A, cfg.m, cfg.seed)
    write_matrix_csv(out / "design.csv", A.mat, integer=True)
    write_json(out / "validation.json", report.to_dict())
    if B is not None:
        write_matrix_csv(out / "encoding.csv", B.mat)
        write_json(out / "encoding.json", to_dict(EncodingMeta.of(cfg.scheme, B)))
        print(f"encoding: {cfg.scheme.label}, shape {B.mat.shape}")
    print(f"design: {A.family}, k={A.k} n={A.n} delta={A.delta} gamma={A.gamma}")
    _print_report(report.to_dict()["checks"])
    return (0 if report.ok else 1), cfg


def cmd_sweep(A: AssignmentMatrix, cfg: SweepConfig, out: Path) -> tuple[int, SweepConfig]:
    with _named("config"):
        cfg.check_n(A.n)
    grid_kind = cfg.grid_kind
    rows = []
    svg_series = []
    xs = tuple(float(x) / (A.n if grid_kind == "s" else 1.0) for x in cfg.grid)
    for spec, result in zip(cfg.schemes, sweep_error(A, cfg)):
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
    return 0, cfg


def cmd_bounds(A: AssignmentMatrix, cfg: BoundsCommand, out: Path) -> tuple[int, BoundsCommand]:
    for i, s in enumerate(cfg.s_grid):
        if not (0 <= s <= A.n):
            raise ConfigError(f"config.s_grid[{i}]: s={s} outside [0, {A.n}]")
    kinds = cfg.kinds or tuple(bnd.applicable_kinds(A.family, cfg.epsilon))
    rows = []
    for s in cfg.s_grid:
        for i, kind in enumerate(kinds):
            value = bnd.closed_form(kind, A, cfg.m, s, cfg.epsilon)
            if value is None:  # only a requested kind can miss
                raise ConfigError(
                    f"config.kinds[{i}]: {kind} does not apply to {A.family} at epsilon={cfg.epsilon}, s={s}"
                )
            # cells left out of a row are written empty
            row = dict(scheme=kind, family=A.family, m=cfg.m, x_kind="s", x=float(s), seed=cfg.seed)
            if kind == bnd.COSET_UPPER:
                row["epsilon"] = cfg.epsilon
            row["lower_bound" if kind == bnd.LOWER else "upper_bound"] = value
            rows.append(row)
    write_rows_csv(out / "bounds.csv", SWEEP_CSV_HEADER, rows)
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
    return 0, replace(cfg, kinds=kinds)


def cmd_train(A: AssignmentMatrix, cfg: TrainConfig, out: Path) -> tuple[int, TrainConfig]:
    all_rows = []
    summary = []
    svg_series = []
    for result in simulate_training(A, cfg):
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
    write_rows_csv(out / "train.csv", TRAIN_CSV_HEADER, all_rows)
    write_json(
        out / "summary.json",
        {"iterations": cfg.iterations, "repetitions": cfg.repetitions, "q": cfg.q, "schemes": summary},
    )
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
    return 0, cfg


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


def _check_stored_encoding(
    report: ValidationReport, A: AssignmentMatrix, loaded: np.ndarray, meta: EncodingMeta
) -> None:
    m = meta.m
    shape_ok = loaded.shape == (m * A.k, A.n)
    report.add("encoding:shape", shape_ok, f"expected {(m * A.k, A.n)}, got {loaded.shape}")
    if not shape_ok:
        return
    B = EncodingMatrix(mat=loaded, m=m, scheme=meta.scheme, parent=A, seed=meta.seed, randomness=None)
    report.add("encoding:support", verify_support(B), "off-support entries must be exactly zero")
    if meta.scheme == NULLSPACE_HADAMARD:
        err = decode(B, NonStragglerSet.full(B.n)).err
        report.add(
            "encoding:full_set_exact",
            err <= _EXACTNESS_CHECK_EPS,
            f"full-set decode error {err:.3e}",
        )
    elif meta.scheme == RANDOM_DIAGONAL:
        detail = _diagonal_law_failure(B, meta.epsilon)
        report.add("encoding:diagonal_law", not detail, detail)
    rebuilt = meta.build(A, m, meta.seed)
    report.add(
        "encoding:rebuild_match",
        bool(np.array_equal(rebuilt.mat, loaded)),
        "stored entries must equal the seeded reconstruction",
    )
    if meta.scheme == NULLSPACE_HADAMARD:
        found = rebuilt.randomness.pm1_found
        report.add(
            "encoding:pm1_found",
            meta.pm1_found == found,
            f"stored pm1_found {meta.pm1_found}, the reconstruction's {found}",
        )


def cmd_validate(A: AssignmentMatrix, cfg: ValidateCommand, out: Path) -> tuple[int, ValidateCommand]:
    report = ValidationReport(family=A.family)
    for name, passed, detail in validate_design(A.mat, A).checks:
        report.add(f"design:{name}", passed, detail)
    if cfg.design_csv is not None:
        for name, passed, detail in validate_design(read_matrix_csv(cfg.design_csv), A).checks:
            report.add(f"design_csv:{name}", passed, detail)
    if cfg.encoding_csv is not None:
        meta_doc = json.loads(Path(cfg.encoding_meta).read_text(encoding="utf-8"))
        meta = from_dict(EncodingMeta, meta_doc, "encoding_meta")
        _check_stored_encoding(report, A, read_matrix_csv(cfg.encoding_csv), meta)
    checks = report.to_dict()["checks"]
    write_json(out / "validation_report.json", {"passed": report.ok, "checks": checks})
    _print_report(checks)
    print("all checks passed" if report.ok else "validation FAILED")
    return (0 if report.ok else 1), cfg


# each command's schema, the keys of its config besides command and design
_COMMANDS = {
    "construct": (ConstructCommand, cmd_construct),
    "sweep": (SweepConfig, cmd_sweep),
    "bounds": (BoundsCommand, cmd_bounds),
    "train": (TrainConfig, cmd_train),
    "validate": (ValidateCommand, cmd_validate),
}


def parse_config(command: str, doc) -> tuple[Design, typing.Any]:
    """The design node and the config of a JSON config for command: its
    "command", if given, must name the command, "design" is a design node,
    and every other key belongs to the command's schema."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("command", command) != command:
        raise ConfigError(f"config is for {doc['command']!r} but {command!r} was invoked")
    if "design" not in doc:
        raise ConfigError("missing config keys: design")
    design = _from_json(Design, doc["design"], "config.design")
    rest = {key: value for key, value in doc.items() if key not in ("command", "design")}
    return design, from_dict(_COMMANDS[command][0], rest, "config")


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
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if args.seed is not None and isinstance(doc, dict):
            doc = {**doc, "seed": args.seed}
        design, cfg = parse_config(args.command, doc)
        if cfg.seed < 0:
            raise ConfigError(f"config.seed must be nonnegative, got {cfg.seed}")
        A, design = design.build(cfg.m, cfg.seed)
        rc, resolved = _COMMANDS[args.command][1](A, cfg, out)
        envelope = {"command": args.command, "design": to_dict(design)}
        write_json(out / "resolved_config.json", {**envelope, **to_dict(resolved)})
        return rc
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
