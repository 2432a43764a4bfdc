"""Count the code lines of Python modules.

    python3 tests/code_lines.py [PATH ...]

PATH is a module or a directory of modules (default: src/brieskorn).  A
line counts when a token other than a comment, a newline, an indent or
a dedent spans it, so a blank line, a comment line and a line inside a
module, class or function docstring do not count, and each line of a
statement that runs over several lines does.  Prints one count per
module and the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def modules(path: str) -> list:
    if not os.path.isdir(path):
        return [path]
    return sorted(os.path.join(path, name) for name in os.listdir(path)
                  if name.endswith(".py"))


def main(paths) -> int:
    total = 0
    for path in paths or [os.path.join(ROOT, "src", "brieskorn")]:
        for module in modules(path):
            with open(module, encoding="utf-8") as handle:
                count = code_lines(handle.read())
            total += count
            print(f"{count:6d}  {os.path.relpath(module, ROOT)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
