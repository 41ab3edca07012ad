"""Code lines of each ``src/svsim`` module, and their total.

A code line is a line that holds part of a statement.  Docstrings (the
first statement of a module, class or function, when it is a string),
comments and blank lines do not count; a statement over several lines
counts each of them.  The figures ROADMAP.md and CHANGES.md quote come from
here:

    python tools/code_lines.py
    python tools/code_lines.py --root PARENT_CHECKOUT
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import pathlib
import sys
import tokenize

# tokens that hold no part of a statement
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="checkout whose src/svsim is counted")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(pathlib.Path(args.root, "src", "svsim").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:12} {count:5}")
    print(f"{'total':12} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
