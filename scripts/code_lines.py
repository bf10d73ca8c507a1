#!/usr/bin/env python3
"""Print the physical lines and the code lines of each module of src/qqft.

Code lines leave out docstrings, comments and blank lines: a line counts when
it holds a token other than a comment, and that token is not part of a
docstring (the string that opens a module, class or function body).

    python3 scripts/code_lines.py
"""

import ast
import io
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


def count(text: str):
    """(physical lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if n not in docs)
    return len(text.splitlines()), len(code)


def main():
    total = [0, 0]
    print(f"{'module':<14}{'lines':>7}{'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{path.stem:<14}{lines:>7}{code:>7}")
    print(f"{'total':<14}{total[0]:>7}{total[1]:>7}")


if __name__ == "__main__":
    main()
