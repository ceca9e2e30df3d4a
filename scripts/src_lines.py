#!/usr/bin/env python3
"""Count the lines of the package's source, with and without its prose.

    python3 scripts/src_lines.py [FILE ...]

Prints two counts over ``src/wlansteer/*.py``, or over the files given:
every line, and the lines that hold code, which leaves out blank lines,
comment-only lines and docstrings.  A line holds code when ``tokenize``
gives it a token other than a comment, a newline or an indent; a docstring
is a string statement that opens a module, class or function body (by
``ast``), and its lines hold none.
"""
import argparse
import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(all lines, code lines) of one file's ``text``."""
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode("utf-8")).readline):
        if tok.type not in _PROSE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(text.splitlines()), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="FILE")
    files = parser.parse_args(argv).files or sorted(
        glob.glob(os.path.join(ROOT, "src", "wlansteer", "*.py")))
    total = code = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            lines, code_lines = counts(fh.read())
        total, code = total + lines, code + code_lines
    print(f"{total} lines, {code} without docstrings, comments and blank lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
