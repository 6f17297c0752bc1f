"""How far a preset's outputs moved, base against head, in one line.

    python .github/preset_diff.py csv BASE.csv HEAD.csv
    python .github/preset_diff.py json BASE.json HEAD.json

For a table: how many rows differ, then per differing column the largest
relative change |head - base| / |base| over its numeric cells (inf where
the base cell is 0 or either side is not finite), or how many cells
changed where a cell is not a number.  For a JSON summary: the same per
differing key, over the numbers in its value, leaving out the keys that
name a path or a time.  Last, whether any ``singular`` or ``error`` cell
or key changed.  It reports and gates nothing.
"""

from __future__ import annotations

import csv
import json
import math
import sys

FLAGS = ("singular", "error", "n_errors")
UNTIMED = {"manifest.emitted_at", "manifest.output_path", "manifest.config_path"}


def relative_change(a, b) -> float | None:
    """|b - a| / |a| of two numeric cells, None unless both are numbers."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y:
        return 0.0
    if x == 0.0 or not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / abs(x)


def differ(x, y) -> bool:
    """Whether two JSON values differ as written (so NaN equals NaN)."""
    return json.dumps(x) != json.dumps(y)


def leaves(x):
    """The scalars of a nested list, in order."""
    if isinstance(x, list):
        return [v for y in x for v in leaves(y)]
    return [x]


def describe(name: str, pairs) -> str:
    """One column's or key's change over its differing (base, head) pairs."""
    changes = [relative_change(a, b) for a, b in pairs]
    if any(c is None for c in changes):
        return f"{name}: {len(changes)} cell(s) changed"
    return f"{name}: largest relative change {max(changes):.3g} over {len(changes)} cell(s)"


def verdict(moved: dict) -> str:
    """The per-name descriptions and the flag line of ``moved``: name -> pairs."""
    parts = [describe(name, pairs) for name, pairs in moved.items()]
    flags = sorted(n for n in moved if n.rsplit(".", 1)[-1] in FLAGS)
    parts.append(f"{', '.join(flags)} changed" if flags else "no singular or error cell changed")
    return "; ".join(parts)


def compare_tables(base: str, head: str) -> str:
    with open(base, newline="") as fa, open(head, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    rows = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    line = f"{rows} of {max(len(b) - 1, 0)} rows differ from base"
    if not (a and b) or a[0] != b[0]:
        return line + "; the headers differ"
    moved = {}
    for x, y in zip(a[1:], b[1:]):
        for column, cell_a, cell_b in zip(a[0], x, y):
            if cell_a != cell_b:
                moved.setdefault(column, []).append((cell_a, cell_b))
    if len(a) != len(b):
        line += f" ({len(a) - 1} rows at base)"
    return f"{line}; {verdict(moved)}" if moved else line


def flat(x, key: str = "") -> dict:
    if isinstance(x, dict):
        return {k: v for name, y in x.items() for k, v in flat(y, f"{key}.{name}".lstrip(".")).items()}
    return {key: x}


def compare_summaries(base: str, head: str) -> str:
    with open(base) as fa, open(head) as fb:
        a, b = flat(json.load(fa)), flat(json.load(fb))
    keys = sorted(k for k in (a.keys() | b.keys()) - UNTIMED
                  if k not in a or k not in b or differ(a[k], b[k]))
    if not keys:
        return "identical to base"
    moved = {}
    for k in keys:
        xs, ys = leaves(a.get(k)), leaves(b.get(k))
        pairs = [(x, y) for x, y in zip(xs, ys) if differ(x, y)]
        moved[k] = pairs if len(xs) == len(ys) else [(a.get(k), b.get(k))]
    return f"differs from base at {', '.join(keys)}; {verdict(moved)}"


if __name__ == "__main__":
    kind, base, head = sys.argv[1:]
    print((compare_tables if kind == "csv" else compare_summaries)(base, head))
