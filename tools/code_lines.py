"""Count the code lines of Python files.

A code line holds at least one token other than a comment, a newline or
an indent change, and is not part of a module, class or function
docstring. Blank lines, comment-only lines and docstrings do not count.

    python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory, searched for *.py files; the default
is src/. Prints one line per file, then the total of each directory.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            if isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    source = path.read_bytes()
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, filename=str(path))))


def main(argv: list[str]) -> int:
    for arg in argv or ["src"]:
        root = Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for path in files:
            count = code_lines(path)
            total += count
            print(f"{count:7,d}  {path}")
        if root.is_dir():
            print(f"{total:7,d}  {root}/ (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
