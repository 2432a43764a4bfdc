"""Every module-level import in src/brieskorn is used by its module.

``__init__.py`` is exempt: it imports to re-export.  An import kept on
purpose, for a name other code looks up on the module, carries
``# noqa: F401`` on the line that names it.  The check reads the source
with ``ast`` only: a name counts as used when it appears as a ``Name``
anywhere in the module, an attribute read ``matrices.x`` included.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "brieskorn"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")
MARKER = "# noqa: F401"


def unused_imports(source: str):
    """The names that source's module-level imports bind and it never
    reads, by line, leaving out lines that carry MARKER."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and MARKER not in lines[line - 1])


def test_the_package_has_modules_to_check():
    assert {"cli.py", "lattice.py", "report.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_detector_flags_unused_and_honours_the_marker():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import List, Optional\n"
              "from . import matrices\n"
              "from .plumbing import (star,  # noqa: F401\n"
              "                       to_dot)\n"
              "def f(x: List[int]):\n"
              "    import json\n"
              "    return os.path.join(json.dumps(x))\n")
    assert unused_imports(source) == [(3, "Optional"), (4, "matrices"),
                                      (6, "to_dot")]
