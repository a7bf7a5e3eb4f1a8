"""Command-line front end.

Five subcommands: construct (design + optional encoding), sweep (Monte
Carlo decode-error curves), bounds (closed-form tables), train (the
logistic-regression simulation), validate (recheck stored artifacts).
Each reads one JSON config, writes its outputs plus a resolved_config.json
echo into --out, and exits 0 on success, 1 when a check fails, 2 on bad
input. The resolved config is itself a valid config reproducing the run.
"""
from __future__ import annotations

import argparse
import json
import sys
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

_COMMON_KEYS = {"command", "seed", "emit_svg"}
_EXACTNESS_CHECK_EPS = 1e-8
_ROUNDTRIP_EPS = 1e-12


def _check_keys(doc: dict, required: set, optional: set, where: str, common: bool = False) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    allowed = required | optional | (_COMMON_KEYS if common else set())
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = sorted(required - set(doc))
    if missing:
        raise ConfigError(f"missing {where} keys: {', '.join(missing)}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if float(value) != int(value):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# config fragments


def _planar_delta(v: int) -> int:
    # v = delta^2 - delta + 1 for a planar difference set
    disc = 4 * v - 3
    root = int(np.sqrt(disc))
    while root * root < disc:
        root += 1
    if root * root != disc or (1 + root) % 2 != 0:
        raise ConfigError(f"no planar difference-set parameters for v={v}")
    return (1 + root) // 2


def _parse_design(doc, m: int | None, master_seed: int) -> tuple[AssignmentMatrix, dict]:
    if not isinstance(doc, dict) or "family" not in doc:
        raise ConfigError("design must be an object with a 'family' key")
    family = doc["family"]
    if family == BIBD_TRANSPOSE:
        _check_keys(doc, {"family"}, {"v", "difference_set", "path"}, "design")
        if "path" in doc:
            v, diff_set = load_difference_set(doc["path"])
        elif "difference_set" in doc:
            if "v" not in doc:
                raise ConfigError("inline difference_set needs v")
            v, diff_set = _as_int(doc["v"], "design.v"), list(doc["difference_set"])
        elif "v" in doc:
            v = _as_int(doc["v"], "design.v")
            diff_set = builtin_difference_sets().get(v)
            if diff_set is None:
                diff_set = search_planar_difference_set(v, _planar_delta(v))
        else:
            raise ConfigError("design needs v, difference_set, or path")
        A = bibd_transpose_from_difference_set(diff_set, v)
        return A, {"family": family, "v": v, "difference_set": [int(b) for b in diff_set]}
    if family == SRG_ADJACENCY:
        _check_keys(doc, {"family", "p"}, set(), "design")
        p = _as_int(doc["p"], "design.p")
        return srg_paley(p), {"family": family, "p": p}
    if family == COSET_BIPARTITE:
        _check_keys(doc, {"family", "k", "delta"}, {"generating_set"}, "design")
        if m is None:
            raise ConfigError("coset design needs a top-level m")
        k = _as_int(doc["k"], "design.k")
        delta = _as_int(doc["delta"], "design.delta")
        gen = tuple(int(b) for b in doc.get("generating_set", range(delta)))
        A = coset_bipartite(CosetParams(k=k, m=m, delta=delta, generating_set=gen))
        return A, {"family": family, "k": k, "delta": delta, "generating_set": list(gen)}
    if family == BI_REGULAR:
        _check_keys(doc, {"family", "n", "k", "delta", "gamma"}, {"seed"}, "design")
        n = _as_int(doc["n"], "design.n")
        k = _as_int(doc["k"], "design.k")
        delta = _as_int(doc["delta"], "design.delta")
        gamma = _as_int(doc["gamma"], "design.gamma")
        seed = _as_int(doc.get("seed", master_seed), "design.seed")
        A = biregular_random(n=n, k=k, delta=delta, gamma=gamma, seed=seed)
        return A, {"family": family, "n": n, "k": k, "delta": delta, "gamma": gamma, "seed": seed}
    raise ConfigError(f"unknown design family {family!r}")


def _parse_scheme(doc) -> tuple[SchemeSpec, dict]:
    if not isinstance(doc, dict) or "scheme" not in doc:
        raise ConfigError("scheme must be an object with a 'scheme' key")
    _check_keys(doc, {"scheme"}, {"epsilon", "v1_policy", "constrain_pm1"}, "scheme")
    spec = SchemeSpec(
        scheme=doc["scheme"],
        epsilon=float(doc.get("epsilon", 0.0)),
        v1_policy=doc.get("v1_policy", V1_ALL_ONES),
        constrain_pm1=bool(doc.get("constrain_pm1", False)),
    )
    resolved = {
        "scheme": spec.scheme,
        "epsilon": spec.epsilon,
        "v1_policy": spec.v1_policy,
        "constrain_pm1": spec.constrain_pm1,
    }
    return spec, resolved


def _parse_dataset(doc) -> tuple[DatasetSpec, dict]:
    doc = doc or {}
    _check_keys(doc, set(), {"samples", "dim", "classes", "seed", "path"}, "dataset")
    spec = DatasetSpec(
        samples=_as_int(doc.get("samples", 600), "dataset.samples"),
        dim=_as_int(doc.get("dim", 10), "dataset.dim"),
        classes=_as_int(doc.get("classes", 3), "dataset.classes"),
        seed=_as_int(doc.get("seed", 0), "dataset.seed"),
        path=doc.get("path"),
    )
    resolved = {
        "samples": spec.samples,
        "dim": spec.dim,
        "classes": spec.classes,
        "seed": spec.seed,
    }
    if spec.path is not None:
        resolved["path"] = spec.path
    return spec, resolved


def _encoding_sidecar(spec: SchemeSpec, B: EncodingMatrix) -> dict:
    doc = {"scheme": spec.scheme, "m": B.m, "seed": B.seed}
    if spec.scheme == RANDOM_DIAGONAL:
        doc["epsilon"] = spec.epsilon
    if spec.scheme == NULLSPACE_HADAMARD:
        doc["v1_policy"] = spec.v1_policy
        doc["constrain_pm1"] = spec.constrain_pm1
        doc["pm1_found"] = B.randomness.pm1_found
    return doc


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


def _print_report(checks: list[dict]) -> bool:
    ok = True
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check.get("detail") else ""
        print(f"  {check['name']}: {status}{detail}")
        ok = ok and check["passed"]
    return ok


def _emit_svg(out: Path, name: str, series: list[Series], **kwargs) -> None:
    (out / name).write_text(line_chart(series, **kwargs), encoding="utf-8")
    print(f"wrote {out / name}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(doc: dict, out: Path, seed: int, emit_svg: bool) -> int:
    _check_keys(doc, {"design"}, {"m", "scheme"}, "config", common=True)
    m = None if doc.get("m") is None else _as_int(doc["m"], "m")
    A, design_doc = _parse_design(doc["design"], m, seed)
    resolved = {"command": "construct", "design": design_doc, "seed": seed, "emit_svg": emit_svg}
    if m is not None:
        resolved["m"] = m
    report = _design_report(A)
    write_matrix_csv(out / "design.csv", A.mat, integer=True)
    write_json(out / "validation.json", report.to_dict())
    if doc.get("scheme") is not None:
        if m is None:
            raise ConfigError("an encoding scheme needs m")
        spec, scheme_doc = _parse_scheme(doc["scheme"])
        if spec.scheme == EXACT:
            raise ConfigError("construct needs an encoding scheme, not 'exact'")
        resolved["scheme"] = scheme_doc
        B = spec.build(A, m, seed)
        write_matrix_csv(out / "encoding.csv", B.mat)
        write_json(out / "encoding.json", _encoding_sidecar(spec, B))
        print(f"encoding: {spec.label}, shape {B.mat.shape}")
    write_json(out / "resolved_config.json", resolved)
    print(f"design: {A.family}, k={A.k} n={A.n} delta={A.delta} gamma={A.gamma}")
    ok = _print_report(report.to_dict()["checks"])
    return 0 if ok else 1


def cmd_sweep(doc: dict, out: Path, seed: int, emit_svg: bool) -> int:
    _check_keys(
        doc,
        {"design", "m", "grid_kind", "grid"},
        {"scheme", "schemes", "matrix_draws", "set_draws"},
        "config",
        common=True,
    )
    if ("scheme" in doc) == ("schemes" in doc):
        raise ConfigError("give exactly one of 'scheme' or 'schemes'")
    m = _as_int(doc["m"], "m")
    A, design_doc = _parse_design(doc["design"], m, seed)
    grid_kind = doc["grid_kind"]
    grid_raw = doc["grid"]
    if not isinstance(grid_raw, list) or not grid_raw:
        raise ConfigError("grid must be a nonempty list")
    grid = tuple(
        _as_int(x, "grid value") if grid_kind == "s" else float(x) for x in grid_raw
    )
    set_draws = doc.get("set_draws", 100)
    if set_draws != "all":
        set_draws = _as_int(set_draws, "set_draws")
    default_draws = _as_int(doc.get("matrix_draws", 1), "matrix_draws")
    scheme_docs = doc["schemes"] if "schemes" in doc else [doc["scheme"]]
    if not isinstance(scheme_docs, list) or not scheme_docs:
        raise ConfigError("schemes must be a nonempty list")
    rows = []
    resolved_schemes = []
    svg_series = []
    xs = tuple(float(x) / (A.n if grid_kind == "s" else 1.0) for x in grid)
    for sdoc in scheme_docs:
        if not isinstance(sdoc, dict):
            raise ConfigError("each scheme must be a JSON object")
        # a per-scheme matrix_draws override lets deterministic schemes skip
        # redundant encoding redraws while sharing the straggler sets
        sdoc = dict(sdoc)
        draws = _as_int(sdoc.pop("matrix_draws", default_draws), "matrix_draws")
        spec, scheme_doc = _parse_scheme(sdoc)
        scheme_doc["matrix_draws"] = draws
        resolved_schemes.append(scheme_doc)
        cfg = SweepConfig(
            assignment=A,
            scheme=spec,
            m=m,
            grid_kind=grid_kind,
            grid=grid,
            matrix_draws=draws,
            set_draws=set_draws,
            seed=seed,
        )
        result = sweep_error(cfg)
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
        {
            "command": "sweep",
            "design": design_doc,
            "schemes": resolved_schemes,
            "m": m,
            "grid_kind": grid_kind,
            "grid": list(grid),
            "matrix_draws": default_draws,
            "set_draws": set_draws,
            "seed": seed,
            "emit_svg": emit_svg,
        },
    )
    if emit_svg:
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


_UPPER_KINDS = {bnd.BIBD_UPPER, bnd.SRG_UPPER, bnd.COSET_UPPER, bnd.BASELINE_BIBD}


def _default_bound_kinds(family: str, epsilon: float) -> list[str]:
    if family == BIBD_TRANSPOSE:
        kinds = [bnd.BIBD_UPPER] if epsilon == 0.0 else []
        return kinds + [bnd.BASELINE_BIBD, bnd.LOWER]
    if family == SRG_ADJACENCY:
        kinds = [bnd.SRG_UPPER] if epsilon == 0.0 else []
        return kinds + [bnd.LOWER]
    if family == COSET_BIPARTITE:
        return [bnd.COSET_UPPER, bnd.LOWER]
    return [bnd.LOWER]


def _bound_value(kind: str, A: AssignmentMatrix, m: int, s: int, epsilon: float) -> float:
    if kind == bnd.BIBD_UPPER:
        if A.family != BIBD_TRANSPOSE:
            raise ConfigError(f"kind {kind} needs family {BIBD_TRANSPOSE}")
        if epsilon != 0.0:
            raise ConfigError(f"kind {kind} is the sign-only closed form; epsilon must be 0")
        return bnd.bound_bibd(A.params, m, s).value
    if kind == bnd.SRG_UPPER:
        if A.family != SRG_ADJACENCY:
            raise ConfigError(f"kind {kind} needs family {SRG_ADJACENCY}")
        if epsilon != 0.0:
            raise ConfigError(f"kind {kind} is the sign-only closed form; epsilon must be 0")
        return bnd.bound_srg(A.params, m, s).value
    if kind == bnd.COSET_UPPER:
        if A.family != COSET_BIPARTITE:
            raise ConfigError(f"kind {kind} needs family {COSET_BIPARTITE}")
        return bnd.bound_coset(A.params, s, bnd.compute_c(epsilon)).value
    if kind == bnd.BASELINE_BIBD:
        if A.family != BIBD_TRANSPOSE:
            raise ConfigError(f"kind {kind} needs family {BIBD_TRANSPOSE}")
        return bnd.baseline_bibd_error(A.params, m, s).value
    if kind == bnd.LOWER:
        return bnd.lower_bound(A.n, A.k, A.delta, m, s).value
    raise ConfigError(f"unknown bound kind {kind!r}")


def cmd_bounds(doc: dict, out: Path, seed: int, emit_svg: bool) -> int:
    _check_keys(doc, {"design", "m", "s_grid"}, {"epsilon", "kinds"}, "config", common=True)
    m = _as_int(doc["m"], "m")
    A, design_doc = _parse_design(doc["design"], m, seed)
    epsilon = float(doc.get("epsilon", 0.0))
    s_grid = [_as_int(s, "s_grid value") for s in doc["s_grid"]]
    if not s_grid:
        raise ConfigError("s_grid must be nonempty")
    for s in s_grid:
        if not (0 <= s <= A.n):
            raise ConfigError(f"s={s} outside [0, {A.n}]")
    kinds = doc.get("kinds") or _default_bound_kinds(A.family, epsilon)
    rows = []
    for s in s_grid:
        for kind in kinds:
            value = _bound_value(kind, A, m, s, epsilon)
            rows.append(
                {
                    "scheme": kind,
                    "family": A.family,
                    "m": m,
                    "epsilon": epsilon if kind == bnd.COSET_UPPER else None,
                    "x_kind": "s",
                    "x": float(s),
                    "mean_err": None,
                    "std_err": None,
                    "min_err": None,
                    "max_err": None,
                    "upper_bound": value if kind in _UPPER_KINDS else None,
                    "lower_bound": value if kind == bnd.LOWER else None,
                    "seed": seed,
                }
            )
    write_rows_csv(out / "bounds.csv", SWEEP_CSV_HEADER, rows)
    write_json(
        out / "resolved_config.json",
        {
            "command": "bounds",
            "design": design_doc,
            "m": m,
            "epsilon": epsilon,
            "s_grid": s_grid,
            "kinds": list(kinds),
            "seed": seed,
            "emit_svg": emit_svg,
        },
    )
    if emit_svg:
        series = []
        for kind in kinds:
            ys = tuple(
                (r["upper_bound"] if r["upper_bound"] is not None else r["lower_bound"])
                for r in rows
                if r["scheme"] == kind
            )
            series.append(Series(kind, tuple(float(s) for s in s_grid), ys))
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


def cmd_train(doc: dict, out: Path, seed: int, emit_svg: bool) -> int:
    _check_keys(
        doc,
        {"design", "m", "q", "iterations"},
        {"scheme", "schemes", "repetitions", "learning_rate", "dataset", "rescale_lr"},
        "config",
        common=True,
    )
    if ("scheme" in doc) == ("schemes" in doc):
        raise ConfigError("give exactly one of 'scheme' or 'schemes'")
    m = _as_int(doc["m"], "m")
    A, design_doc = _parse_design(doc["design"], m, seed)
    scheme_docs = doc["schemes"] if "schemes" in doc else [doc["scheme"]]
    if not isinstance(scheme_docs, list) or not scheme_docs:
        raise ConfigError("schemes must be a nonempty list")
    parsed = [_parse_scheme(d) for d in scheme_docs]
    dataset, dataset_doc = _parse_dataset(doc.get("dataset"))
    iterations = _as_int(doc["iterations"], "iterations")
    repetitions = _as_int(doc.get("repetitions", 1), "repetitions")
    all_rows = []
    summary = []
    svg_series = []
    for spec, _ in parsed:
        cfg = TrainConfig(
            assignment=A,
            scheme=spec,
            m=m,
            q=float(doc["q"]),
            iterations=iterations,
            repetitions=repetitions,
            learning_rate=float(doc.get("learning_rate", 0.5)),
            dataset=dataset,
            seed=seed,
            rescale_lr=bool(doc.get("rescale_lr", False)),
        )
        result = simulate_training(cfg)
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
            Series(result.scheme_label, tuple(range(iterations + 1)), tuple(means))
        )
        print(
            f"  {result.scheme_label}: mean final loss {summary[-1]['mean_final_loss']:.6g}, "
            f"{summary[-1]['diverged_runs']} diverged"
        )
    write_rows_csv(out / "train.csv", ["scheme", "seed", "iteration", "loss"], all_rows)
    write_json(
        out / "summary.json",
        {"iterations": iterations, "repetitions": repetitions, "q": float(doc["q"]), "schemes": summary},
    )
    write_json(
        out / "resolved_config.json",
        {
            "command": "train",
            "design": design_doc,
            "schemes": [sd for _, sd in parsed],
            "m": m,
            "q": float(doc["q"]),
            "iterations": iterations,
            "repetitions": repetitions,
            "learning_rate": float(doc.get("learning_rate", 0.5)),
            "dataset": dataset_doc,
            "rescale_lr": bool(doc.get("rescale_lr", False)),
            "seed": seed,
            "emit_svg": emit_svg,
        },
    )
    if emit_svg:
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


def _check_loaded_encoding(
    checks: list[dict], A: AssignmentMatrix, loaded: np.ndarray, meta: dict
) -> None:
    m = _as_int(meta["m"], "encoding_meta.m")
    scheme = meta.get("scheme")
    shape_ok = loaded.shape == (m * A.k, A.n)
    checks.append(
        {
            "name": "encoding:shape",
            "passed": shape_ok,
            "detail": f"expected {(m * A.k, A.n)}, got {loaded.shape}",
        }
    )
    if not shape_ok:
        return
    B = EncodingMatrix(mat=loaded, m=m, scheme=scheme, parent=A, seed=meta.get("seed"), randomness=None)
    checks.append(
        {
            "name": "encoding:support",
            "passed": verify_support(B),
            "detail": "off-support entries must be exactly zero",
        }
    )
    if scheme == BASELINE:
        same = all(np.array_equal(B.block(i), A.mat) for i in range(m))
        checks.append({"name": "encoding:blocks_equal_assignment", "passed": same, "detail": ""})
    elif scheme == RANDOM_DIAGONAL:
        epsilon = float(meta.get("epsilon", 0.0))
        ok = True
        detail = ""
        for i in range(m):
            block = B.block(i)
            for col in range(A.n):
                sup = np.nonzero(A.mat[:, col])[0]
                vals = block[sup, col]
                if vals.size and np.ptp(vals) > _ROUNDTRIP_EPS:
                    ok, detail = False, f"block {i} column {col} entries differ"
                    break
                if vals.size and not (
                    1.0 - epsilon - _ROUNDTRIP_EPS <= abs(vals[0]) <= 1.0 + epsilon + _ROUNDTRIP_EPS
                ):
                    ok, detail = False, f"block {i} column {col} magnitude {abs(vals[0])!r}"
                    break
            if not ok:
                break
        checks.append({"name": "encoding:diagonal_law", "passed": ok, "detail": detail})
    elif scheme == NULLSPACE_HADAMARD:
        err = decode(B, NonStragglerSet.full(A.n)).err
        checks.append(
            {
                "name": "encoding:full_set_exact",
                "passed": err <= _EXACTNESS_CHECK_EPS,
                "detail": f"full-set decode error {err:.3e}",
            }
        )
    if meta.get("seed") is not None and scheme in (RANDOM_DIAGONAL, NULLSPACE_HADAMARD, BASELINE):
        spec = SchemeSpec(
            scheme=scheme,
            epsilon=float(meta.get("epsilon", 0.0)),
            v1_policy=meta.get("v1_policy", V1_ALL_ONES),
            constrain_pm1=bool(meta.get("constrain_pm1", False)),
        )
        rebuilt = spec.build(A, m, _as_int(meta["seed"], "encoding_meta.seed"))
        checks.append(
            {
                "name": "encoding:rebuild_match",
                "passed": bool(np.array_equal(rebuilt.mat, loaded)),
                "detail": "stored entries must equal the seeded reconstruction",
            }
        )


def _check_fresh_encoding(
    checks: list[dict], A: AssignmentMatrix, spec: SchemeSpec, m: int, seed: int
) -> None:
    B = spec.build(A, m, seed)
    checks.append(
        {
            "name": "encoding:support",
            "passed": verify_support(B),
            "detail": "off-support entries must be exactly zero",
        }
    )
    if spec.scheme == NULLSPACE_HADAMARD:
        err = decode(B, NonStragglerSet.full(A.n)).err
        checks.append(
            {
                "name": "encoding:full_set_exact",
                "passed": err <= _EXACTNESS_CHECK_EPS,
                "detail": f"full-set decode error {err:.3e}",
            }
        )
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
        checks.append(
            {
                "name": "encoding:diag_dominant_bound",
                "passed": dominated,
                "detail": "sampled-set error within the diagonally-dominant bound",
            }
        )
    if spec.scheme == BASELINE and A.family == BIBD_TRANSPOSE:
        err = decode(B, NonStragglerSet.full(A.n)).err
        expected = bnd.baseline_bibd_error(A.params, m, 0).value
        checks.append(
            {
                "name": "encoding:baseline_closed_form",
                "passed": abs(err - expected) <= _EXACTNESS_CHECK_EPS,
                "detail": f"full-set error {err:.6g} vs closed form {expected:.6g}",
            }
        )
    if spec.scheme == RANDOM_DIAGONAL and m == 1 and spec.epsilon == 0.0:
        # For m = 1 the realized error is diagonal-free and matches the
        # expected-error formula exactly.
        err = decode(B, NonStragglerSet.full(A.n)).err
        expected = bnd.bound_expected(A, NonStragglerSet.full(A.n), 1, 1.0).value
        checks.append(
            {
                "name": "encoding:m1_exact_formula",
                "passed": abs(err - expected) <= _EXACTNESS_CHECK_EPS,
                "detail": f"full-set error {err:.6g} vs formula {expected:.6g}",
            }
        )


def cmd_validate(doc: dict, out: Path, seed: int, emit_svg: bool) -> int:
    _check_keys(
        doc,
        {"design"},
        {"m", "scheme", "design_csv", "encoding_csv", "encoding_meta"},
        "config",
        common=True,
    )
    if ("encoding_csv" in doc) != ("encoding_meta" in doc):
        raise ConfigError("encoding_csv and encoding_meta go together")
    m = None if doc.get("m") is None else _as_int(doc["m"], "m")
    A, design_doc = _parse_design(doc["design"], m, seed)
    checks = []
    for check in _design_report(A).to_dict()["checks"]:
        checks.append({**check, "name": f"design:{check['name']}"})
    if "design_csv" in doc:
        loaded = read_matrix_csv(doc["design_csv"])
        if A.family == BIBD_TRANSPOSE:
            sub = validate_bibd(loaded, A.params)
        elif A.family == SRG_ADJACENCY:
            sub = validate_srg(loaded, A.params)
        else:
            sub = ValidationReport(family=A.family)
            sub.add("matches_construction", bool(np.array_equal(loaded, A.mat)))
        for check in sub.to_dict()["checks"]:
            checks.append({**check, "name": f"design_csv:{check['name']}"})
    if "encoding_csv" in doc:
        meta = json.loads(Path(doc["encoding_meta"]).read_text(encoding="utf-8"))
        if not isinstance(meta, dict) or "scheme" not in meta or "m" not in meta:
            raise ConfigError("encoding_meta needs at least scheme and m")
        if doc.get("scheme") is not None:
            spec, _ = _parse_scheme(doc["scheme"])
            checks.append(
                {
                    "name": "encoding:meta_matches_config",
                    "passed": spec.scheme == meta["scheme"],
                    "detail": f"config {spec.scheme!r} vs stored {meta['scheme']!r}",
                }
            )
        _check_loaded_encoding(checks, A, read_matrix_csv(doc["encoding_csv"]), meta)
    elif doc.get("scheme") is not None:
        if m is None:
            raise ConfigError("an encoding scheme needs m")
        spec, _ = _parse_scheme(doc["scheme"])
        if spec.scheme == EXACT:
            raise ConfigError("validate needs an encoding scheme, not 'exact'")
        _check_fresh_encoding(checks, A, spec, m, seed)
    passed = all(c["passed"] for c in checks)
    write_json(out / "validation_report.json", {"passed": passed, "checks": checks})
    resolved = {"command": "validate", "design": design_doc, "seed": seed, "emit_svg": emit_svg}
    if m is not None:
        resolved["m"] = m
    for key in ("scheme", "design_csv", "encoding_csv", "encoding_meta"):
        if doc.get(key) is not None:
            resolved[key] = doc[key]
    if "scheme" in resolved:
        _, resolved["scheme"] = _parse_scheme(doc["scheme"])
    write_json(out / "resolved_config.json", resolved)
    _print_report(checks)
    print("all checks passed" if passed else "validation FAILED")
    return 0 if passed else 1


_COMMANDS = {
    "construct": cmd_construct,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
    "train": cmd_train,
    "validate": cmd_validate,
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
    try:
        raw = Path(args.config).read_text(encoding="utf-8")
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if "command" in doc and doc["command"] != args.command:
            raise ConfigError(
                f"config is for {doc['command']!r} but {args.command!r} was invoked"
            )
        seed = args.seed if args.seed is not None else _as_int(doc.get("seed", 0), "seed")
        emit_svg = bool(args.svg or doc.get("emit_svg", False))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](doc, out, seed, emit_svg)
    except (ConfigError, ParameterError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError, SingularMatrixError, NonFiniteError, NumericalError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
