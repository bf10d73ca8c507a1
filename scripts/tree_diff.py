#!/usr/bin/env python3
"""Print how two `cli_matrix.sh` output trees differ, number by number.

For each file that differs between OLD and NEW, prints the largest absolute
difference over the numbers in it (the cells of a CSV, the values in stdout
and stderr), or, when the two differ in anything but those numbers, the
first such line of each.  Files present in one tree only are listed too.
Identical files print nothing.

    python3 scripts/tree_diff.py [--tol X] OLD NEW

A number is a decimal or exponent literal that stands alone: one inside a
name (`flat-grid4`) or a hex digest is text, and so are nan and inf.
Without `--tol` it exits 0 whatever it finds.  With `--tol X` it exits 1
when some file differs in anything but its numbers, is present in one tree
only, or holds a number that differs by more than X.  Exits 2 on a usage
error.
"""

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def split(text: str):
    """(the text with every number replaced by "#", the numbers)."""
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def compare(old: str, new: str) -> str:
    """One line on how `new` differs from `old`."""
    return _compare(old, new)[0]


def _compare(old: str, new: str) -> tuple:
    """(the line of `compare`, the largest absolute difference of a number,
    inf for a difference in anything else)."""
    (old_text, old_nums), (new_text, new_nums) = split(old), split(new)
    if old_text != new_text:
        for i, (a, b) in enumerate(zip(old.splitlines(), new.splitlines())):
            if NUMBER.sub("#", a) != NUMBER.sub("#", b):
                return (f"non-numeric difference at line {i + 1}: {a!r} vs {b!r}",
                        math.inf)
        return (f"non-numeric difference: {len(old.splitlines())} lines vs "
                f"{len(new.splitlines())}", math.inf)
    diffs = [abs(a - b) for a, b in zip(old_nums, new_nums) if a != b]
    worst = max(diffs, default=0.0)
    return (f"max |difference| {worst:.3g} over {len(diffs)} of "
            f"{len(old_nums)} numbers", worst)


def differences(old: Path, new: Path) -> list:
    """(report line, largest difference) for each file in which two trees
    differ, in path order; a file in one tree only differs by inf."""
    found = []
    files = {p.relative_to(root) for root in (old, new)
             for p in root.rglob("*") if p.is_file()}
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            found.append((f"{rel}: only in {old if a.is_file() else new}", math.inf))
        elif a.read_bytes() != b.read_bytes():
            line, worst = _compare(a.read_text(errors="replace"),
                                   b.read_text(errors="replace"))
            found.append((f"{rel}: {line}", worst))
    return found


def tree_diff(old: Path, new: Path) -> list:
    """The report lines for two trees, in path order."""
    return [line for line, _ in differences(old, new)]


def main(argv) -> int:
    argv, tol = list(argv), None
    if argv[:1] == ["--tol"] and len(argv) > 1:
        try:
            tol = float(argv[1])
        except ValueError:
            tol = math.nan
        argv = argv[2:]
    if (len(argv) != 2 or not all(Path(a).is_dir() for a in argv)
            or not (tol is None or 0.0 <= tol < math.inf)):
        print("usage: tree_diff.py [--tol X] OLD NEW (two directories, "
              "X finite and >= 0)", file=sys.stderr)
        return 2
    found = differences(Path(argv[0]), Path(argv[1]))
    print("\n".join(line for line, _ in found) if found else "trees are identical")
    beyond = [line for line, worst in found if tol is not None and not worst <= tol]
    if beyond:
        print(f"tree_diff: {len(beyond)} of {len(found)} differing files "
              f"differ beyond --tol {tol:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
