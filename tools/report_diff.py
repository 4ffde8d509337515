"""Compare two `paracurv check` reports for a change meant to keep behaviour.

    python3 tools/report_diff.py A.json B.json

Check names and their order, thresholds, pass flags, verdicts, constant
keys and every other report field must be equal; any difference is printed
and the exit code is 1.  Residuals and constant values may move: each one
that does is printed with its value in A, its value in B and the absolute
change, and the exit code stays 0.  A residual or constant that is not a
finite number is written as null, and its row carries ``non_finite``
("inf" or "nan"); a change to or from null is a difference, not a move.
``wall_time_s`` is ignored.  Unreadable input exits 2.

Reads plain JSON and imports nothing from the package, so it compares the
output of any two versions.
"""

from __future__ import annotations

import json
import sys

IGNORED = {"wall_time_s"}
NUMERIC = {"checks", "constants"}


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def diff(a, b):
    """(moved, mismatches): moved rows are (label, before, after)."""
    moved, mismatches = [], []

    def same(label, x, y):
        if x != y:
            mismatches.append(f"{label}: {x!r} != {y!r}")
            return False
        return True

    def compare_value(label, x, y):
        if x is None or y is None:
            same(label, x, y)
        elif x != y:
            moved.append((label, x, y))

    for key in sorted((a.keys() | b.keys()) - IGNORED - NUMERIC):
        same(key, a.get(key), b.get(key))

    rows_a, rows_b = a.get("checks", []), b.get("checks", [])
    if same("check names", [r["name"] for r in rows_a], [r["name"] for r in rows_b]):
        for ra, rb in zip(rows_a, rows_b):
            name = ra["name"]
            for key in sorted((ra.keys() | rb.keys()) - {"residual_max"}):
                same(f"checks.{name}.{key}", ra.get(key), rb.get(key))
            compare_value(f"checks.{name}.residual_max",
                          ra["residual_max"], rb["residual_max"])

    consts_a, consts_b = a.get("constants", {}), b.get("constants", {})
    if same("constant keys", sorted(consts_a), sorted(consts_b)):
        for key in sorted(consts_a):
            compare_value(f"constants.{key}", consts_a[key], consts_b[key])
    return moved, mismatches


def main(argv):
    if len(argv) != 3:
        print("usage: python3 tools/report_diff.py A.json B.json", file=sys.stderr)
        return 2
    moved, mismatches = diff(load(argv[1]), load(argv[2]))
    for label, x, y in moved:
        print(f"moved {label}: {x!r} -> {y!r} (abs change {abs(y - x):.3g})")
    for line in mismatches:
        print(f"DIFFERS {line}")
    if mismatches:
        print(f"{len(mismatches)} field(s) differ, {len(moved)} number(s) moved")
        return 1
    print(f"same names, orders, verdicts, pass flags and constant keys; "
          f"{len(moved)} number(s) moved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
