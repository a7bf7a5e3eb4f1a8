"""Benchmark workloads: the CLI config each one generates from a seed, the
exact counts every run of it must reproduce, and the checks on its outputs.

Only the seed varies between runs; designs, grids and sizes are fixed, so
runs on different seeds do the same amount of work on different draws.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 0
# Never used while the benchmark or a change was tuned; a later claim is
# re-checked on it.
HELD_OUT_SEED = 2718

# Outputs are compared to the stored references within
# |x - ref| <= REF_TOL * max(1, |ref|). A Gram/Cholesky decode changes the
# last bits (|delta err| <= 7e-13 in its prototype), far inside this.
REF_TOL = 1e-8
# Slack for float comparisons between statistics of the same row.
ORDER_SLACK = 1e-9
SEM_FACTOR = 3.0
# A training run stops once its loss is non-finite or above this.
DIVERGENCE_LIMIT = 1e6
# Training losses kept in a reference: every REF_STRIDE-th iteration.
REF_STRIDE = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark input. `base` is the CLI config without its seed.

    bound_sets and singular_sets are the per-set bounds the sweep must
    attempt and the ones among them whose survivor Gram is singular; they
    are fixed by the design and the schemes, not by the seed.
    """

    name: str
    why: str
    command: str
    base: dict
    bound_sets: int = 0
    singular_sets: int = 0

    def config(self, seed: int) -> dict:
        return {"command": self.command, **self.base, "seed": seed}

    def counts(self, out_dir: Path, cfg: dict) -> dict:
        """Exact counts this run must show, derived from the config and,
        for training, from where each run stopped."""
        if self.command == "sweep":
            grid = len(cfg["grid"])
            draws = sum(s["matrix_draws"] for s in cfg["schemes"])
            return {
                "rows": len(cfg["schemes"]) * grid,
                "decodes": draws * grid * cfg["set_draws"],
                "encodings": draws * grid,
                "bound_sets": self.bound_sets,
                "bound_singular": self.singular_sets,
                "bound_returned": self.bound_sets - self.singular_sets,
                "diverged": 0,
            }
        runs = _train_runs(out_dir)
        decodes = sum(len(losses) - 1 for losses in runs.values())
        redrawn = sum(
            len(losses) - 1 for (scheme, _), losses in runs.items() if scheme == "random_diagonal"
        )
        fixed = sum(1 for (scheme, _) in runs if scheme != "random_diagonal")
        summary = json.loads((out_dir / "summary.json").read_text())
        return {
            "rows": sum(len(losses) for losses in runs.values()),
            "decodes": decodes,
            "encodings": redrawn + fixed,
            "bound_sets": 0,
            "bound_singular": 0,
            "bound_returned": 0,
            "diverged": sum(s["diverged_runs"] for s in summary["schemes"]),
        }

    def check(self, out_dir: Path, cfg: dict, seed: int) -> list[str]:
        """Every failed output check, as one line each; empty when correct."""
        if self.command == "sweep":
            failures = _check_sweep(out_dir, cfg)
        else:
            failures = _check_train(out_dir, cfg)
        if seed == DEFAULT_SEED and not failures:
            failures = _compare(self.reference(out_dir), self.stored_reference())
        return failures

    def reference(self, out_dir: Path) -> dict:
        """The part of a run's outputs kept as its reference."""
        if self.command == "sweep":
            keys = ("mean_err", "std_err", "min_err", "max_err", "upper_bound", "lower_bound")
            return {
                f"{row['scheme']}@{row['x']}": [_num(row[key]) for key in keys]
                for row in _read_csv(out_dir / "sweep.csv")
            }
        return {
            f"{scheme}#{rep}": losses[::REF_STRIDE] + losses[-1:]
            for (scheme, rep), losses in sorted(_train_runs(out_dir).items())
        }

    def stored_reference(self) -> dict:
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-bibd91",
            why=(
                "fig3-fast sweep on the 91-worker BIBD transpose (3,000 decodes of a "
                "182x91 encoding, closed-form bounds): decode-bound, where a decode kernel shows"
            ),
            command="sweep",
            base={
                "design": {"family": "bibd_transpose", "v": 91},
                "schemes": [
                    {"scheme": "random_diagonal", "epsilon": 0.0, "matrix_draws": 5},
                    {"scheme": "baseline", "matrix_draws": 1},
                ],
                "m": 2,
                "grid_kind": "s",
                "grid": list(range(0, 46, 5)),
                "set_draws": 50,
            },
        ),
        Workload(
            name="sweep-biregular-perset",
            why=(
                "fig5-fast sweep on the 40-worker bi-regular graph: small 80x40 matrices, a "
                "per-set bound on every set and a +/-1 encoder search, so overhead, bounds and encoders show"
            ),
            command="sweep",
            base={
                "design": {"family": "bi_regular", "n": 40, "k": 20, "delta": 3, "gamma": 6, "seed": 11},
                "schemes": [
                    {"scheme": "nullspace_hadamard", "v1_policy": "ones", "constrain_pm1": True, "matrix_draws": 1},
                    {"scheme": "nullspace_hadamard", "v1_policy": "gaussian", "matrix_draws": 1},
                    {"scheme": "baseline", "matrix_draws": 1},
                ],
                "m": 2,
                "grid_kind": "s",
                "grid": list(range(0, 17, 2)),
                "set_draws": 100,
            },
            # No closed form exists for this family, so all 3 x 9 x 100 sets
            # get a per-set bound. The baseline stacks two copies of A, so its
            # rank is at most k = 20 and each of its 900 survivor sets (at
            # least 24 workers) has a singular Gram; the null-space encodings
            # have full column rank, so none of theirs is singular.
            bound_sets=2700,
            singular_sets=900,
        ),
        Workload(
            name="train-coset",
            why=(
                "fig6a training on the coset graph (k=27, delta=5, q=0.25), scaled up from -fast: "
                "Bernoulli survivor sets of varying size decoded one at a time in reconstruct"
            ),
            command="train",
            base={
                "design": {"family": "coset_bipartite", "k": 27, "delta": 5},
                "schemes": [
                    {"scheme": "random_diagonal", "epsilon": 0.1},
                    {"scheme": "baseline"},
                ],
                "m": 2,
                "q": 0.25,
                "iterations": 100,
                "repetitions": 8,
                "learning_rate": 0.5,
                "dataset": {"samples": 600, "dim": 10, "classes": 3, "seed": 0},
            },
        ),
    )
}


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def _train_runs(out_dir: Path) -> dict:
    """Losses per (scheme, repetition), in iteration order."""
    runs: dict = {}
    for row in _read_csv(out_dir / "train.csv"):
        runs.setdefault((row["scheme"], int(row["seed"])), []).append(float(row["loss"]))
    return runs


def _planar_bibd(v: int) -> tuple[int, int]:
    """(delta, lambda) of a planar difference set: v = delta^2 - delta + 1."""
    delta = (1 + math.isqrt(4 * v - 3)) // 2
    return delta, 1


def _bibd_closed_form(scheme: str, v: int, m: int, s: int) -> float | None:
    """Expected-error bound of the sign-only diagonal scheme, and the exact
    error of the stacked-copies baseline, on a planar BIBD transpose."""
    delta, lam = _planar_bibd(v)
    n = k = v
    if scheme == "random_diagonal":
        return m * k - m * delta**2 * (n - s) / (m * delta + (n - s - 1) * lam)
    if scheme == "baseline":
        return m * k - delta**2 * (n - s) / (delta + (n - s - 1) * lam)
    return None


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REF_TOL * max(1.0, abs(ref))


def _check_sweep(out_dir: Path, cfg: dict) -> list[str]:
    rows = _read_csv(out_dir / "sweep.csv")
    design = cfg["design"]
    k = design.get("k", design.get("v"))
    mk = cfg["m"] * k
    expected = len(cfg["schemes"]) * len(cfg["grid"])
    if len(rows) != expected:
        return [f"sweep.csv has {len(rows)} rows, expected {expected}"]
    failures = []
    for row in rows:
        where = f"{row['scheme']} s={row['x']}"
        lo, mean, hi, sem = (float(row[c]) for c in ("min_err", "mean_err", "max_err", "std_err"))
        slack = ORDER_SLACK * mk
        if not (-slack <= lo <= mean + slack and mean <= hi + slack and hi <= mk + slack):
            failures.append(f"{where}: not 0 <= min {lo} <= mean {mean} <= max {hi} <= mk {mk}")
        if design["family"] != "bibd_transpose":
            continue
        bound = _bibd_closed_form(row["scheme"], design["v"], cfg["m"], int(float(row["x"])))
        if bound is None:
            continue
        if row["upper_bound"] == "" or not _close(float(row["upper_bound"]), bound):
            failures.append(f"{where}: upper_bound {row['upper_bound']!r} != closed form {bound!r}")
        if mean > bound + SEM_FACTOR * sem + slack:
            failures.append(f"{where}: mean_err {mean} above closed form {bound} + 3 SEM")
    return failures


def _check_train(out_dir: Path, cfg: dict) -> list[str]:
    runs = _train_runs(out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    labels = [s["scheme"] for s in cfg["schemes"]]
    failures = []
    if sorted(runs) != sorted((lab, rep) for lab in labels for rep in range(cfg["repetitions"])):
        return [f"train.csv holds runs {sorted(runs)}"]
    diverged = {s["scheme"]: s["diverged_runs"] for s in summary["schemes"]}
    for label in labels:
        stopped = 0
        for rep in range(cfg["repetitions"]):
            losses = runs[(label, rep)]
            last = losses[-1]
            if len(losses) == cfg["iterations"] + 1 and math.isfinite(last) and last <= DIVERGENCE_LIMIT:
                continue
            stopped += 1
            if not all(math.isfinite(x) for x in losses[:-1]):
                failures.append(f"{label} #{rep}: non-finite loss before the run stopped")
        if stopped != diverged.get(label):
            failures.append(f"{label}: {stopped} runs stopped early, summary flags {diverged.get(label)}")
    return failures


def _compare(got: dict, ref: dict) -> list[str]:
    if sorted(got) != sorted(ref):
        return [f"reference keys differ: got {sorted(got)}, stored {sorted(ref)}"]
    failures = []
    for key, values in ref.items():
        mine = got[key]
        ok = len(mine) == len(values) and all(
            (a is None and b is None) or (a is not None and b is not None and _close(a, b))
            for a, b in zip(mine, values)
        )
        if not ok:
            failures.append(f"{key}: {mine} differs from reference {values}")
    return failures
