"""Print how far two runs' CSV outputs moved apart, column by column.

    python tools/compare_runs.py OLD NEW

OLD and NEW are two CSV files, or two run directories, whose sweep.csv and
train.csv (whichever both hold) are compared. The rows are matched by
position. For each numeric column the script prints the largest relative
move |new - old| / max(|old|, |new|) over its rows (0 where both cells are
equal, NaN included) and the largest absolute move |new - old|, each with
the row it happened in: a cell near 0 (an exact recovery) that moves by
rounding shows a relative move of 1 and a tiny absolute one. A file whose
bytes are equal prints as identical. Cells that are not numbers (scheme
names, empty bounds) must be equal.

Exit status 0 when the two runs have the same shape, 1 when a header, a
row count or a non-numeric cell differs, or when no file can be compared.
"""
from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

_OUTPUTS = ("sweep.csv", "train.csv")


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _moves(old: float, new: float) -> tuple[float, float]:
    """(relative, absolute) move of one cell; inf where only one is NaN or
    either is infinite."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0, 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf, math.inf
    absolute = abs(new - old)
    return absolute / max(abs(old), abs(new)), absolute


def compare(old: Path, new: Path) -> tuple[list[str], bool]:
    """(the report lines, whether the two files have the same shape) of one
    pair of CSV files."""
    if old.read_bytes() == new.read_bytes():
        return [f"{new.name}: identical"], True
    with old.open(newline="") as fh:
        rows_old = list(csv.reader(fh))
    with new.open(newline="") as fh:
        rows_new = list(csv.reader(fh))
    if not rows_old or not rows_new or rows_old[0] != rows_new[0]:
        return [f"{new.name}: headers differ"], False
    if len(rows_old) != len(rows_new):
        return [f"{new.name}: {len(rows_old) - 1} rows against {len(rows_new) - 1}"], False
    header = rows_old[0]
    # per numeric column: [relative, absolute], each (move, row, old, new)
    worst: dict[str, list[tuple[float, int, str, str]]] = {}
    for i, (row_old, row_new) in enumerate(zip(rows_old[1:], rows_new[1:]), start=1):
        if len(row_old) != len(row_new):
            return [f"{new.name}: row {i} has {len(row_old)} cells against {len(row_new)}"], False
        for name, a, b in zip(header, row_old, row_new):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    return [f"{new.name}: row {i}, {name}: {a!r} against {b!r}"], False
                continue
            best = worst.setdefault(name, [(0.0, 0, a, b)] * 2)
            for kind, move in enumerate(_moves(x, y)):
                if move > best[kind][0]:
                    best[kind] = (move, i, a, b)
    lines = [f"{new.name}: largest move per numeric column, relative then absolute"]
    for name in header:
        if name in worst:
            cells = [f"{move:.3g}" + (f" (row {i}: {a} -> {b})" if move else "") for move, i, a, b in worst[name]]
            lines.append(f"  {name:<14} {cells[0]:<60} {cells[1]}")
    return lines, True


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_runs.py OLD NEW", file=sys.stderr)
        return 2
    old, new = map(Path, argv)
    if old.is_dir() and new.is_dir():
        pairs = [(old / name, new / name) for name in _OUTPUTS if (old / name).is_file() and (new / name).is_file()]
    elif old.is_file() and new.is_file():
        pairs = [(old, new)]
    else:
        print(f"{old} and {new} are not two files or two directories")
        return 1
    if not pairs:
        print(f"no {' or '.join(_OUTPUTS)} in both {old} and {new}")
        return 1
    ok = True
    for a, b in pairs:
        lines, same_shape = compare(a, b)
        print("\n".join(lines))
        ok &= same_shape
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
