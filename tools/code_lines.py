"""Count the code lines of every module of src/fpkit.

A code line is a line that holds a token of code. Docstrings (of modules,
classes and functions), comments and blank lines are left out; a statement
continued over several lines counts each line it spans that holds a token.

Run from the repository root (it takes no options):

    python tools/code_lines.py

It prints the count of each module, then the total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the docstrings of `source` span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    skip = docstring_lines(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main() -> None:
    root = Path(__file__).resolve().parent.parent / "src" / "fpkit"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:20s} {n:5d}")
    print(f"{'total':20s} {total:5d}")


if __name__ == "__main__":
    main()
