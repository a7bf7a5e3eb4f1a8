"""One benchmark repetition in a fresh interpreter.

Imports the package from the checkout's src/, runs gradcoding.cli.main on a
generated config and writes its timestamps to a JSON result file. With
--mode setup it stops at the first call into experiments; with --mode trace
it records spans around every layer function, and otherwise only around
decoding.decode*, to count decodes; spans are written next to the result.
A fixed SVD loop is timed before the import and after the command, so the
parent can scale times to the machine's nominal speed.

All timestamps are time.monotonic(), a clock shared by every process on the
machine, so the parent's spawn time can be subtracted from them.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans

# Untraced runs wrap only these functions, to count decodes. A wrapped call
# costs about 2.5 us on a 2-core Xeon VM and a decode makes two: about 0.2%
# of a decode on sweep-bibd91 and 1% on sweep-biregular-perset.
DECODE_PREFIX = "decoding.decode"


# The machine's momentary speed is measured by this fixed LAPACK loop, once
# before the package is imported and once after the command returns.
CALIBRATION_SHAPE = (182, 71)
CALIBRATION_SVDS = 50


class _SetupDone(Exception):
    pass


def calibrate() -> float:
    """Seconds taken by CALIBRATION_SVDS thin SVDs of a fixed matrix."""
    mat = np.random.default_rng(0).standard_normal(CALIBRATION_SHAPE)
    t0 = time.monotonic()
    for _ in range(CALIBRATION_SVDS):
        np.linalg.svd(mat, full_matrices=False)
    return time.monotonic() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--command", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    args = ap.parse_args()

    calibration_before = calibrate()
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import gradcoding.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gradcoding was imported from {cli.__file__}, not from {src}")
    t_import = time.monotonic()

    tracer = None
    if args.mode != "setup":
        tracer = spans.Tracer("" if args.mode == "trace" else DECODE_PREFIX)
        tracer.install()
    first_call = []

    def on_first_call() -> None:
        first_call.append(time.monotonic())
        if args.mode == "setup":
            raise _SetupDone

    spans.hook_first_call(cli, "experiments", on_first_call)
    try:
        rc = cli.main([args.command, "--config", args.config, "--out", args.out])
    except _SetupDone:
        rc = 0
    t_end = time.monotonic()
    if not first_call:
        raise SystemExit("the command never called into experiments")
    calibration_after = calibrate()

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result = {
        "t_import": t_import,
        "t_first": first_call[0],
        "t_end": t_end,
        "calibration_s": [calibration_before, calibration_after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }
    if tracer is not None:
        tracer.dump(Path(args.result).with_suffix(".spans.json"))
    Path(args.result).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
