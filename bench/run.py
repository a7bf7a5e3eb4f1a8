#!/usr/bin/env python3
"""Benchmark of the gradcoding command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. Each repetition runs gradcoding.cli.main in
a fresh interpreter (bench/child.py) on a config generated from the seed,
then checks the outputs and the counts of work done. Repetitions repeat
until --seconds is used up, and each metric is the median over them.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from spans (bench/spans.py); traced and untraced repetitions alternate in a
traced run, so the tracing overhead is measured too. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--workload all runs every workload both ways plus one repetition with a
BLAS thread per core, prints a table and ends with the whole record as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# One BLAS thread: on a shared 2-core machine fig3-fast took 7.7 s with one
# thread and 13.2 s with two, and the two-thread times spread more.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Processes stopped at the first call into experiments, so that set-up time
# is a median over more samples than there are full repetitions.
SETUP_PROBES = 3
REP_TIMEOUT_S = 120

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, REFERENCE_DIR, WORKLOADS  # noqa: E402

# Times are scaled to the machine's nominal speed: wall time times
# NOMINAL_CALIBRATION_S over the repetition's own calibration time (a fixed
# SVD loop run before and after it, see child.py). On a shared 2-core VM the
# raw wall times of 40 s runs spread by 24% (IQR/median over six seeds of
# sweep-biregular-perset) and drift 40% within an hour; scaled, the same runs
# spread by 5%, and ten seeds per workload by 4.5-8.2%. 0.085 s is the
# median calibration on that VM when the constant was set.
NOMINAL_CALIBRATION_S = 0.085
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "decodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "decoding.decode.ms_per_set": "ms",
    **{f"decoding.decode.ms_per_set.s{x}": "ms" for x in spans.S_SPLITS},
    "decoding.decode.share": "fraction",
    "decoding.decodes": "count",
    "linalg.calls_per_decode": "calls/decode",
    "linalg.rank_of.calls": "count",
    "linalg.share": "fraction",
    "decoding.reconstruct.ms_per_call": "ms",
    "bounds.per_set.ms_per_call": "ms",
    "bounds.per_set.attempted": "count",
    "bounds.per_set.returned": "count",
    "bounds.per_set.skipped_singular": "count",
    "bounds.per_set.useful_frac": "fraction",
    "bounds.share": "fraction",
    "encoders.ms_per_encoding": "ms",
    "encoders.calls": "count",
    "encoders.share": "fraction",
    "experiments.sample_sets.ms_per_set": "ms",
    "experiments.sample_sets.share": "fraction",
    "experiments.train.self_ms_per_iter": "ms",
    "experiments.train.diverged": "count",
    "designs.build_ms": "ms",
    "setup.import_s": "s",
    "cli.self_s": "s",
    "serialize.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "machine.calibration_s": "s",
}


# Work counts the spans must agree on with what the workload defines.
TRACED_COUNTS = {
    "decodes": "decoding.decodes",
    "encodings": "encoders.calls",
    "bound_sets": "bounds.per_set.attempted",
    "bound_singular": "bounds.per_set.skipped_singular",
    "bound_returned": "bounds.per_set.returned",
}
COUNT_UNITS = ("count", "calls/decode")


def thread_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload, cfg: dict, work: Path, tag: str, mode: str, threads: int) -> dict:
    """Run one repetition and check it. Returns its measurements, with ok
    False and a reason when it exited non-zero or failed a check."""
    out = work / tag
    out.mkdir()
    result_path = work / f"{tag}.json"
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--command", workload.command,
        "--config", str(work / "config.json"),
        "--out", str(out),
        "--result", str(result_path),
        "--mode", mode,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=thread_env(threads), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "mode": mode, "why": f"timed out after {REP_TIMEOUT_S} s"}
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"ok": False, "mode": mode, "wall": wall, "why": f"exit {proc.returncode}: {tail[0]}"}
    res = json.loads(result_path.read_text())
    before, after = res["calibration_s"]
    calibration = (before + after) / 2
    wall_setup = res["t_first"] - t0 - before
    wall_run = res["t_end"] - res["t_first"]
    rep = {
        "ok": True,
        "mode": mode,
        "wall": wall,
        "calibration_s": calibration,
        "wall_setup_s": wall_setup,
        "wall_run_s": wall_run,
        "setup_s": wall_setup * NOMINAL_CALIBRATION_S / calibration,
        "run_s": wall_run * NOMINAL_CALIBRATION_S / calibration,
        "import_s": res["t_import"] - t0 - before,
        "peak_rss_mb": res["peak_rss_mb"],
        "numpy": res["numpy"],
        "blas": res["blas"],
    }
    if mode == "setup":
        return rep
    try:
        failures = workload.check(out, cfg, cfg["seed"])
        counts = workload.counts(out, cfg)
        doc = spans.load(result_path.with_suffix(".spans.json"))
    except (OSError, KeyError, ValueError) as exc:
        return {**rep, "ok": False, "why": f"outputs unreadable: {exc!r}"}
    rep["counts"] = counts
    rep["bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
    if mode == "trace":
        layers = spans.layer_metrics(
            doc, wall_run, counts["decodes"] if workload.command == "train" else 0
        )
        rep["layers"] = layers
        rep["traced_counts"] = {
            name: layers[name] for name, unit in PER_LAYER.items() if unit in COUNT_UNITS and name in layers
        }
    else:
        layers = {"decoding.decodes": spans.decodes(doc)}
    for key, metric in TRACED_COUNTS.items():
        if layers.get(metric) is not None and layers[metric] != counts[key]:
            failures.append(f"counted {metric} = {layers[metric]}, the workload defines {counts[key]}")
    if failures:
        rep.update(ok=False, why="; ".join(failures[:3]))
    return rep


def prepare(workload, seed: int, label: str) -> tuple[Path, dict]:
    """An empty work directory holding the generated config."""
    work = WORK / f"{workload.name}-{label}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload.config(seed)
    (work / "config.json").write_text(json.dumps(cfg, indent=2))
    return work, cfg


def run_workload(workload, seed: int, seconds: float, trace: bool, threads: int = BLAS_THREADS) -> dict:
    """Repeat the workload for `seconds`; return every repetition."""
    work, cfg = prepare(workload, seed, "trace" if trace else "run")
    cycle = ("trace", "run") if trace else ("run",)
    start = time.monotonic()
    reps = [spawn(workload, cfg, work, f"setup{i}", "setup", threads) for i in range(SETUP_PROBES)]
    full = 0
    while True:
        rep = spawn(workload, cfg, work, f"rep{full}", cycle[full % len(cycle)], threads)
        reps.append(rep)
        full += 1
        walls = [r["wall"] for r in reps if r["mode"] != "setup" and "wall" in r]
        elapsed = time.monotonic() - start
        if not rep["ok"] and "wall" not in rep:
            break
        # Start another repetition only if it would end, at its median
        # length, no more than half a repetition past the deadline.
        if full >= len(cycle) and elapsed + statistics.median(walls) / 2 > seconds:
            break
    _check_repeats(reps, "counts")
    _check_repeats([r for r in reps if r["mode"] == "trace"], "traced_counts")
    return {"workload": workload.name, "seed": seed, "blas_threads": threads, "reps": reps}


def _check_repeats(reps: list, key: str) -> None:
    """Counts must repeat exactly between repetitions of one config."""
    first = next((r[key] for r in reps if r["ok"] and key in r), None)
    for r in reps:
        if r["ok"] and key in r and r[key] != first:
            r.update(ok=False, why=f"{key} {r[key]} differ from the first repetition's {first}")


def _median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(run: dict) -> dict:
    ok = [r for r in run["reps"] if r["ok"]]
    full = [r for r in ok if r["mode"] == "run"]
    return {
        "run_s": _median([r["run_s"] for r in full]),
        "setup_s": _median([r["setup_s"] for r in ok]),
        "decodes_per_s": _median([r["counts"]["decodes"] / r["run_s"] for r in full]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in full]),
    }


def wall_clock(run: dict) -> dict:
    """Unscaled medians, printed beside the metrics."""
    ok = [r for r in run["reps"] if r["ok"]]
    return {
        "wall_run_s": _median([r["wall_run_s"] for r in ok if r["mode"] == "run"]),
        "wall_setup_s": _median([r["wall_setup_s"] for r in ok]),
        "calibration_s": _median([r["calibration_s"] for r in ok]),
    }


def per_layer(run: dict) -> dict:
    ok = [r for r in run["reps"] if r["ok"]]
    traced = [r for r in ok if r["mode"] == "trace"]
    untraced = [r for r in ok if r["mode"] == "run"]
    metrics = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    # Counts repeat exactly between repetitions (checked), so take the first.
    metrics.update(traced[0]["traced_counts"])
    metrics["experiments.train.diverged"] = traced[0]["counts"]["diverged"]
    metrics["serialize.bytes_written"] = traced[0]["bytes_written"]
    metrics["setup.import_s"] = _median([r["import_s"] for r in ok])
    metrics["machine.calibration_s"] = _median([r["calibration_s"] for r in ok])
    metrics["trace.overhead_s"] = _median([r["run_s"] for r in traced]) - _median(
        [r["run_s"] for r in untraced]
    )
    return metrics


def summary(run: dict, trace: bool) -> dict:
    """The result line: correct, attempted, failed and the metrics."""
    reps = run["reps"]
    failed = sum(1 for r in reps if not r["ok"])
    ok_modes = {r["mode"] for r in reps if r["ok"]}
    if not ({"trace", "run"} <= ok_modes if trace else "run" in ok_modes):
        return {}
    values = per_layer(run) if trace else end_to_end(run)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name] or 0, "unit": unit} for name, unit in units.items()},
        "missing": sorted(name for name in units if values.get(name) is None),
    }


def environment(run: dict) -> dict:
    rep = next(r for r in run["reps"] if r["ok"])
    return {
        "python": platform.python_version(),
        "numpy": rep["numpy"],
        "blas": rep["blas"],
        "blas_threads": {var: str(run["blas_threads"]) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_rev": _git_rev(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_result(name: str, run: dict, result: dict) -> None:
    reps = run["reps"]
    print(
        f"{name}  seed {run['seed']}  blas threads {run['blas_threads']}  "
        f"{len(reps)} processes ({SETUP_PROBES} set-up probes)  "
        f"failed_frac {result['failed'] / result['attempted']:.3f}"
    )
    for r in reps:
        if not r["ok"]:
            print(f"  FAILED {r['mode']}: {r['why']}")
    for metric, entry in result["metrics"].items():
        note = "  (missing)" if metric in result["missing"] else ""
        print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}{note}")
    print("  unscaled: " + "  ".join(f"{k} {v:.6g} s" for k, v in wall_clock(run).items()))


def write_reference(name: str) -> int:
    for workload in WORKLOADS.values() if name == "all" else [WORKLOADS[name]]:
        work, _ = prepare(workload, DEFAULT_SEED, "reference")
        out = work / "out"
        out.mkdir()
        subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--command", workload.command,
             "--config", str(work / "config.json"), "--out", str(out),
             "--result", str(work / "result.json")],
            cwd=ROOT, env=thread_env(BLAS_THREADS), stdout=subprocess.DEVNULL, check=True,
        )
        path = REFERENCE_DIR / f"{workload.name}.json"
        ref = workload.reference(out)
        lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in ref.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=40.0, help="time to measure for, per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="run the workload once at the default seed and store its outputs as the reference")
    args = ap.parse_args()
    if not (ROOT / "src" / "gradcoding" / "cli.py").is_file():
        print(f"error: no gradcoding sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    if args.write_reference:
        return write_reference(args.workload)
    if args.workload != "all":
        run = run_workload(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace))
        result = summary(run, bool(args.trace))
        if not result:
            for r in run["reps"]:
                if not r["ok"]:
                    print(f"FAILED {r['mode']}: {r['why']}", file=sys.stderr)
            return 1
        print_result(args.workload, run, result)
        print("env " + json.dumps(environment(run)))
        print("missing " + json.dumps(result.pop("missing")))
        print(json.dumps(result))
        return 0

    record = {"seed": seed, "seconds": args.seconds, "workloads": {}}
    for name, workload in WORKLOADS.items():
        entry = {"why": workload.why}
        for trace in (False, True):
            run = run_workload(workload, seed, args.seconds, trace)
            result = summary(run, trace)
            if not result:
                print(f"{name}: every repetition failed", file=sys.stderr)
                return 1
            print_result(name, run, result)
            record.setdefault("env", environment(run))
            entry["per_layer" if trace else "end_to_end"] = result
            if not trace:
                entry["unscaled"] = wall_clock(run)
        # Ungated: one repetition with a BLAS thread per core.
        ungated = run_workload(workload, seed, 0, False, threads=os.cpu_count() or 1)
        entry["ungated_threads_nproc"] = {**end_to_end(ungated), **wall_clock(ungated)}
        print(f"  ungated, {ungated['blas_threads']} BLAS threads: " + json.dumps(entry["ungated_threads_nproc"]))
        record["workloads"][name] = entry
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
