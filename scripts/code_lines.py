#!/usr/bin/env python3
"""Count the code lines of Python modules: each module's count, then the total.

A code line is a line that holds a token other than a comment, a newline,
an indent or a docstring.  Docstrings are the string literals that open a
module, a class or a function body, found with ``ast``; every other token
is read with ``tokenize``, so a multi-line string that is not a docstring
counts on each of its lines.  A path may be a module or a directory,
searched for ``*.py`` recursively.

Example:
    python3 scripts/code_lines.py src/pitest
"""
import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree):
    """The (line, column) where each module, class and function docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path):
    """The number of code lines in the module at ``path``."""
    source = Path(path).read_bytes()
    docstrings = docstring_starts(ast.parse(source))
    with open(path, "rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines = set()
    for token in tokens:
        if token.type in _LAYOUT or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    total = 0
    for path in modules(argv or ["src/pitest"]):
        count = code_lines(path)
        total += count
        print(f"{count:>6}  {path}")
    print(f"{total:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
