#!/usr/bin/env python3
"""Print how two `cli_matrix.sh` output trees differ, number by number.

For each file that differs between OLD and NEW, prints the largest absolute
difference over the numbers in it (the cells of a CSV, the values in stdout
and stderr), or, when the two differ in anything but those numbers, the
first such line of each.  Files present in one tree only are listed too.
Identical files print nothing.

    python3 scripts/tree_diff.py OLD NEW

A number is a decimal or exponent literal that stands alone: one inside a
name (`flat-grid4`) or a hex digest is text, and so are nan and inf.  Exits
0 whatever it finds, and 2 on a usage error.
"""

import re
import sys
from pathlib import Path

NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def split(text: str):
    """(the text with every number replaced by "#", the numbers)."""
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def compare(old: str, new: str) -> str:
    """One line on how `new` differs from `old`."""
    (old_text, old_nums), (new_text, new_nums) = split(old), split(new)
    if old_text != new_text:
        for i, (a, b) in enumerate(zip(old.splitlines(), new.splitlines())):
            if NUMBER.sub("#", a) != NUMBER.sub("#", b):
                return f"non-numeric difference at line {i + 1}: {a!r} vs {b!r}"
        return (f"non-numeric difference: {len(old.splitlines())} lines vs "
                f"{len(new.splitlines())}")
    diffs = [abs(a - b) for a, b in zip(old_nums, new_nums) if a != b]
    return (f"max |difference| {max(diffs, default=0.0):.3g} over "
            f"{len(diffs)} of {len(old_nums)} numbers")


def tree_diff(old: Path, new: Path) -> list:
    """The report lines for two trees, in path order."""
    lines = []
    files = {p.relative_to(root) for root in (old, new)
             for p in root.rglob("*") if p.is_file()}
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel}: only in {old if a.is_file() else new}")
        elif a.read_bytes() != b.read_bytes():
            lines.append(f"{rel}: " + compare(a.read_text(errors="replace"),
                                              b.read_text(errors="replace")))
    return lines


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: tree_diff.py OLD NEW (two directories)", file=sys.stderr)
        return 2
    lines = tree_diff(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines) if lines else "trees are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
