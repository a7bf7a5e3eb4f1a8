"""Deterministic CSV/JSON writers for matrices, result tables, and reports.

Floats are written with repr (shortest round-trip form) so reruns of a
deterministic computation produce byte-identical files; missing values are
empty cells.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParameterError


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if np.isnan(value):
            return ""
        return repr(value)
    if isinstance(value, (np.floating,)):
        return format_cell(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def write_rows_csv(path, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(col)) for col in header))
    Path(path).write_text("\n".join(lines) + "\n")


def write_matrix_csv(path, mat, integer: bool = False) -> None:
    arr = np.asarray(mat)
    lines = []
    for row in np.atleast_2d(arr):
        if integer:
            lines.append(",".join(str(int(round(v))) for v in row))
        else:
            lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:  # a cell that is not a number, or ragged rows
        raise ParameterError(f"{path}: {exc}") from exc


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
