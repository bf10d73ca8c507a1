#!/usr/bin/env python3
"""Print the physical lines, the code lines and the settable values of each
module of a source directory, by default this checkout's src/qqft.

Code lines leave out docstrings, comments and blank lines: a line counts when
it holds a token other than a comment, and that token is not part of a
docstring (the string that opens a module, class or function body).

Settable values are the knobs a caller can turn: the parameters of every
function and method, nested ones included (`self` and `cls` left out), plus
the fields that every dataclass's generated __init__ takes (a field declared
`field(init=False)` is derived, not set).

    python3 scripts/code_lines.py [SOURCE_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qqft"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _name(node):
    """The bare name a decorator or a call refers to: `dataclass`,
    `dataclasses.dataclass` and `dataclass(frozen=True)` all give
    "dataclass"."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", getattr(node, "id", None))


def _init_field(stmt) -> bool:
    """Whether a dataclass body statement declares an __init__ field."""
    if not isinstance(stmt, ast.AnnAssign):
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and _name(value) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))


def settable_values(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            count += sum(p.arg not in ("self", "cls") for p in params)
        elif isinstance(node, ast.ClassDef) and any(
                _name(d) == "dataclass" for d in node.decorator_list):
            count += sum(map(_init_field, node.body))
    return count


def count(text: str):
    """(physical lines, code lines, settable values) of one module's source."""
    tree = ast.parse(text)
    docs = docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if n not in docs)
    return len(text.splitlines()), len(code), settable_values(tree)


def main():
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    total = [0, 0, 0]
    print(f"{'module':<14}{'lines':>7}{'code':>7}{'settable':>10}")
    for path in sorted(src.glob("*.py")):
        counts = count(path.read_text())
        total = [t + c for t, c in zip(total, counts)]
        print(f"{path.stem:<14}{counts[0]:>7}{counts[1]:>7}{counts[2]:>10}")
    print(f"{'total':<14}{total[0]:>7}{total[1]:>7}{total[2]:>10}")


if __name__ == "__main__":
    main()
