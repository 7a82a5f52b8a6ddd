"""Compare two output trees value by value, as `diff -r` cannot.

    python3 scripts/compare_trees.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two output trees, such as two runs of
`scripts/output_trees.py`. Every file present in either is listed as
byte-equal or not; a file that differs is read by its kind:

- CSV: a header line, then rows. Per column, the largest |change - parent|
  over the column's peak |value| on the PARENT side, the rows whose value
  differs, and, counted apart, the cells that turn from `-0` to `0` or back
  (a sign of zero, no value). Cells that are not numbers compare as text.
- JSON: per leaf path (list positions written `[*]`, so one path covers a
  list's entries), the values that changed and the largest relative change
  |change - parent| / |parent|; a string or boolean that changed is counted
  as a text change, a zero that changed sign as a flip.
- anything else: the lines that differ.

A structural difference is a file on one side only, a CSV header or row
count, a JSON key, list length, `null` or value type, or a text file's line
count that differs. The script prints one line per difference of that kind,
one block per differing file and a closing summary, and exits 1 if it found
any structural difference, else 0 (2 on a usage error). It reads only the
two trees, in sorted path order, so its output is deterministic.
"""

import csv
import json
import math
import pathlib
import sys
from collections import defaultdict


def files(root: pathlib.Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def number(text: str):
    """text as a float, None unless it is one."""
    try:
        return float(text)
    except ValueError:
        return None


def change(a: float, b: float) -> float:
    """|b - a|: 0 for equal values or two NaNs, inf where only one side is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return math.inf if math.isnan(a) or math.isnan(b) else abs(b - a)


def zero_flip(a: float, b: float) -> bool:
    return a == 0.0 and b == 0.0 and math.copysign(1.0, a) != math.copysign(1.0, b)


def fmt(x: float) -> str:
    return f"{x:.3g}"


class Column:
    """One CSV column's or JSON leaf path's differences."""

    def __init__(self):
        self.changed = self.flips = self.text = 0
        self.largest = 0.0

    def add(self, delta: float) -> None:
        self.changed += 1
        self.largest = max(self.largest, delta)

    def describe(self, measure: str) -> str:
        parts = [f"{self.changed} changed, largest {measure} {fmt(self.largest)}"] if self.changed else []
        parts += [f"{self.flips} -0/0 flips"] if self.flips else []
        parts += [f"{self.text} text changes"] if self.text else []
        return ", ".join(parts)


def compare_csv(parent: str, change_text: str) -> tuple[list[str], list[str]]:
    """(report lines, structural differences) of two CSV files."""
    a_rows, b_rows = list(csv.reader(parent.splitlines())), list(csv.reader(change_text.splitlines()))
    if not a_rows or not b_rows or a_rows[0] != b_rows[0]:
        return [], ["header differs"]
    if len(a_rows) != len(b_rows):
        return [], [f"row count differs: {len(a_rows) - 1} -> {len(b_rows) - 1}"]
    header = a_rows[0]
    if any(len(row) != len(header) for row in a_rows + b_rows):
        return [], ["a row's cell count differs from the header's"]
    columns = [Column() for _ in header]
    peaks = [0.0] * len(header)
    rows_changed = 0
    for a_row, b_row in zip(a_rows[1:], b_rows[1:]):
        row_changed = False
        for j, (a_text, b_text) in enumerate(zip(a_row, b_row)):
            a, b = number(a_text), number(b_text)
            if a is not None and math.isfinite(a):
                peaks[j] = max(peaks[j], abs(a))
            if a_text == b_text:
                continue
            if a is None or b is None:
                columns[j].text += 1
                row_changed = True
            elif zero_flip(a, b):
                columns[j].flips += 1
            elif change(a, b):
                columns[j].add(change(a, b))
                row_changed = True
        rows_changed += row_changed
    for column, peak in zip(columns, peaks):
        if column.changed:
            column.largest = column.largest / peak if peak else math.inf
    lines = [f"{rows_changed} of {len(a_rows) - 1} rows differ in value"]
    lines += [
        f"{name}: {column.describe('|change|/peak')}"
        for name, column in zip(header, columns)
        if column.changed or column.flips or column.text
    ]
    return lines, []


def walk(a, b, path: str, leaves: dict, structural: list) -> None:
    """Record in leaves (per leaf path) the changes from a to b, and in structural what differs in shape."""
    if a is None or b is None:
        if (a is None) != (b is None):
            structural.append(f"{path or '.'}: null differs")
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) ^ set(b)):
            structural.append(f"{path}.{key}".lstrip(".") + (": key only in PARENT" if key in a else ": key only in CHANGE"))
        for key in sorted(set(a) & set(b)):
            walk(a[key], b[key], f"{path}.{key}".lstrip("."), leaves, structural)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            structural.append(f"{path or '.'}: list length differs: {len(a)} -> {len(b)}")
        for x, y in zip(a, b):
            walk(x, y, f"{path}[*]", leaves, structural)
    elif isinstance(a, (int, float)) and not isinstance(a, bool) and isinstance(b, (int, float)) and not isinstance(b, bool):
        if zero_flip(a, b):
            leaves[path].flips += 1
        elif change(a, b):
            leaves[path].add(change(a, b) / abs(a) if a else math.inf)
    elif type(a) is not type(b):
        structural.append(f"{path or '.'}: type differs: {type(a).__name__} -> {type(b).__name__}")
    elif a != b:
        leaves[path].text += 1


def compare_json(parent: str, change_text: str) -> tuple[list[str], list[str]]:
    leaves, structural = defaultdict(Column), []
    walk(json.loads(parent), json.loads(change_text), "", leaves, structural)
    changed = sum(column.changed for column in leaves.values())
    largest = max((column.largest for column in leaves.values()), default=0.0)
    lines = [f"{changed} values changed, largest relative change {fmt(largest)}"]
    lines += [f"{path}: {leaves[path].describe('relative')}" for path in sorted(leaves)]
    return lines, structural


def compare_text(parent: str, change_text: str) -> tuple[list[str], list[str]]:
    a_lines, b_lines = parent.splitlines(), change_text.splitlines()
    if len(a_lines) != len(b_lines):
        return [], [f"line count differs: {len(a_lines)} -> {len(b_lines)}"]
    return [f"{sum(x != y for x, y in zip(a_lines, b_lines))} of {len(a_lines)} lines differ"], []


COMPARERS = {".csv": compare_csv, ".json": compare_json}


def compare(parent: pathlib.Path, change_root: pathlib.Path) -> tuple[list[str], int]:
    """(report lines, structural difference count) of two trees."""
    a_files, b_files = files(parent), files(change_root)
    lines, structural, equal = [], 0, 0
    for name in sorted(a_files | b_files):
        if name not in b_files or name not in a_files:
            lines.append(f"{name}: STRUCTURAL: only in {'PARENT' if name in a_files else 'CHANGE'}")
            structural += 1
            continue
        a_bytes, b_bytes = (parent / name).read_bytes(), (change_root / name).read_bytes()
        if a_bytes == b_bytes:
            equal += 1
            continue
        comparer = COMPARERS.get(pathlib.PurePosixPath(name).suffix, compare_text)
        report, shape = comparer(a_bytes.decode(), b_bytes.decode())
        lines.append(f"{name}: differs")
        lines += [f"  STRUCTURAL: {line}" for line in shape] + [f"  {line}" for line in report]
        structural += len(shape)
    total = len(a_files | b_files)
    lines.append(f"{total} files: {equal} byte-equal, {total - equal} not; {structural} structural differences")
    return lines, structural


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(pathlib.Path(p).is_dir() for p in argv):
        print("usage: compare_trees.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    lines, structural = compare(pathlib.Path(argv[0]), pathlib.Path(argv[1]))
    print("\n".join(lines))
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
