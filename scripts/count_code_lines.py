#!/usr/bin/env python3
"""Physical and code-only line counts of the elastowave package.

A code-only line carries at least one token that is not a comment, and is
not part of a module, class or function docstring. Blank lines, comment
lines and docstring lines therefore do not count. Tokens come from
``tokenize`` and docstrings from ``ast``, so a line that only continues a
multi-line expression or string still counts.

Example:
    python scripts/count_code_lines.py
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "elastowave"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(text):
    """(physical lines, code-only lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(text.splitlines()), len(code)


def main():
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()

    totals = [0, 0]
    print(f"{'module':<18} {'lines':>7} {'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        lines, code = count_lines(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<18} {lines:>7} {code:>7}")
    print(f"{'total':<18} {totals[0]:>7} {totals[1]:>7}")


if __name__ == "__main__":
    main()
