"""Deterministic CSV/JSON writers for matrices, result tables, and reports.

Floats are written with repr (shortest round-trip form) so reruns of a
deterministic computation produce byte-identical files; missing values are
empty cells.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ParameterError


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_text(path, text: str) -> None:
    """Write a file, making its directory first: a run refused before its
    first output leaves no directory behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_rows_csv(path, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(col)) for col in header))
    _write_text(path, "\n".join(lines) + "\n")


def write_matrix_csv(path, mat, integer: bool = False) -> None:
    arr = np.asarray(mat)
    lines = []
    for row in np.atleast_2d(arr):
        if integer:
            lines.append(",".join(str(int(round(v))) for v in row))
        else:
            lines.append(",".join(repr(float(v)) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:  # a cell that is not a number, or ragged rows
        raise ParameterError(f"{path}: {exc}") from exc


def write_json(path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")
