#!/usr/bin/env python3
"""Compare two `rcpca run` output directories cell by cell.

    python scripts/compare_runs.py DIR_A DIR_B [--rtol 1e-8]

Every file is split into lines and every line into cells (at commas, tabs
and the ` = ` of the manifest). Cells that both parse as numbers are
compared by their relative difference |a - b| / max(|a|, |b|); any other
differing cell, and a line or file present on one side only, is a
non-numeric difference. For each file that differs the script prints the
largest relative difference, then the largest per column (named by the
header line, or by the key of a `key = value` line) with the first place
it occurs, and every non-numeric difference. Quantities that sit at
roundoff, such as a trace's `step_norm` near convergence, show large
relative differences from tiny absolute ones; the per-column lines tell
them apart. The exit status is 1 when any relative difference exceeds --rtol
(default 0: identical numbers) or any non-numeric difference exists, and
0 otherwise.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

_CELL = re.compile(r",|\t| = ")


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(path_a: Path, path_b: Path) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Largest relative difference per column, where it is, and the non-numeric differences."""
    lines_a = path_a.read_text().splitlines()
    lines_b = path_b.read_text().splitlines()
    header = _CELL.split(lines_a[0]) if lines_a else []
    columns: dict[str, tuple[float, str]] = {}
    other = []
    if len(lines_a) != len(lines_b):
        other.append(f"{len(lines_a)} lines vs {len(lines_b)}")
    for k, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a == line_b:
            continue
        cells_a, cells_b = _CELL.split(line_a), _CELL.split(line_b)
        if len(cells_a) != len(cells_b):
            other.append(f"line {k}: {line_a!r} vs {line_b!r}")
            continue
        for col, (a, b) in enumerate(zip(cells_a, cells_b)):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or x == y:  # text, or one number written two ways
                other.append(f"line {k} cell {col + 1}: {a!r} vs {b!r}")
                continue
            if " = " in line_a:
                name = cells_a[0]
            else:
                name = header[col] if len(header) == len(cells_a) else f"cell {col + 1}"
            rel = _relative(x, y)
            if rel > columns.get(name, (0.0, ""))[0]:
                columns[name] = (rel, f"line {k}: {a} vs {b}")
    return columns, other


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="largest relative difference accepted (default 0)")
    args = ap.parse_args()
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2

    names_a = {p.name for p in args.dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in args.dir_b.iterdir() if p.is_file()}
    failed = False
    for name in sorted(names_a ^ names_b):
        side = args.dir_a if name in names_a else args.dir_b
        print(f"{name}: only in {side}")
        failed = True
    moved = 0
    for name in sorted(names_a & names_b):
        columns, other = compare_file(args.dir_a / name, args.dir_b / name)
        if not columns and not other:
            continue
        moved += 1
        worst = max((rel for rel, _ in columns.values()), default=0.0)
        print(f"{name}: largest relative difference {worst:.3g}")
        for column, (rel, where) in sorted(columns.items(), key=lambda c: -c[1][0]):
            print(f"  {column}: {rel:.3g} ({where})")
        for line in other:
            print(f"  {line}")
        failed |= worst > args.rtol or bool(other)
    print(f"{moved} of {len(names_a & names_b)} common files differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
