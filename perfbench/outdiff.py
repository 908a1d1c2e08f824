"""Compare the CSV outputs of two experiment runs.

    python3 perfbench/outdiff.py SAVED_DIR NEW_DIR

For every CSV in either directory, prints whether the files are
byte-identical and otherwise the largest absolute and relative difference
over numeric cells (relative to the larger magnitude of the pair), plus the
number of cells that differ as text.  Exit code 0 if every CSV matches
byte for byte, 1 otherwise.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def diff_csv(a: Path, b: Path) -> dict:
    if a.read_bytes() == b.read_bytes():
        return {"identical": True, "max_abs": 0.0, "max_rel": 0.0, "text_cells": 0}
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b) or any(len(x) != len(y) for x, y in zip(rows_a, rows_b)):
        return {"identical": False, "shape": (f"{len(rows_a)} rows vs {len(rows_b)} rows"
                                              " or differing column counts")}
    max_abs = max_rel = 0.0
    text_cells = 0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                text_cells += 1
                continue
            d = abs(fx - fy)
            if math.isnan(d):
                max_abs = max_rel = math.inf
                continue
            max_abs = max(max_abs, d)
            scale = max(abs(fx), abs(fy))
            max_rel = max(max_rel, d / scale if scale > 0 else 0.0)
    return {"identical": False, "max_abs": max_abs, "max_rel": max_rel, "text_cells": text_cells}


def diff_dirs(saved, new) -> dict:
    """Per-CSV differences between two output directories, keyed by file name."""
    saved, new = Path(saved), Path(new)
    names = sorted({p.name for p in saved.glob("*.csv")} | {p.name for p in new.glob("*.csv")})
    out = {}
    for name in names:
        a, b = saved / name, new / name
        if not (a.exists() and b.exists()):
            out[name] = {"identical": False, "missing": str(a if not a.exists() else b)}
        else:
            out[name] = diff_csv(a, b)
    return out


def format_diff(diffs: dict) -> list[str]:
    lines = []
    for name, d in diffs.items():
        if d["identical"]:
            lines.append(f"{name:24s} byte-identical")
        elif "missing" in d:
            lines.append(f"{name:24s} missing: {d['missing']}")
        elif "shape" in d:
            lines.append(f"{name:24s} shape differs: {d['shape']}")
        else:
            lines.append(f"{name:24s} max_abs {d['max_abs']:.3e}  max_rel {d['max_rel']:.3e}"
                         f"  text cells differing {d['text_cells']}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    diffs = diff_dirs(*argv)
    if not diffs:
        print("no CSV files found", file=sys.stderr)
        return 2
    print("\n".join(format_diff(diffs)))
    return 0 if all(d["identical"] for d in diffs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
