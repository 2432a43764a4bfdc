"""Every module-level function and class in src/brieskorn is used.

A definition is used when the package names it outside its own body (as
a ``Name``, as the attribute of ``module.name``, or in an import), when
``brieskorn.__all__`` exports it, or when ``perfbench/run.py`` calls it.
A module's ``__getattr__`` and ``__dir__`` (PEP 562) are used: the
interpreter calls them.  A function whose only caller is itself is not
used.  The check reads the sources with ``ast`` only;
``perfbench/run.py`` is read, not imported.
"""

import ast
import collections
import pathlib

import brieskorn

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "brieskorn"
BENCHMARK = ROOT / "perfbench" / "run.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MODULE_HOOKS = {"__getattr__", "__dir__"}


def names_in(node) -> collections.Counter:
    """How often each name is read or imported under node."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def called_in(source: str) -> set:
    """The names source calls, as f(...) or x.f(...)."""
    calls = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                calls.add(func.id)
            elif isinstance(func, ast.Attribute):
                calls.add(func.attr)
    return calls


def dead_definitions(sources, exported, called):
    """The (module, name) of each module-level definition in sources, a
    dict of module name to source, that nothing uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = collections.Counter()
    for tree in trees.values():
        uses.update(names_in(tree))
    dead = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            outside = uses[node.name] - names_in(node)[node.name]
            if not (outside or node.name in exported or node.name in called
                    or node.name in MODULE_HOOKS):
                dead.append((module, node.name))
    return dead


def test_every_definition_in_the_package_is_used():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {"cli.py", "matrices.py", "spectral.py"} <= set(sources)
    called = called_in(BENCHMARK.read_text(encoding="utf-8"))
    assert "inverse_unimodular" in called
    assert dead_definitions(sources, set(brieskorn.__all__), called) == []


def test_detector_flags_unused_definitions():
    sources = {
        "a.py": ("import os\n"
                 "def used():\n"
                 "    return os.sep\n"
                 "def dead():\n"
                 "    return 'used'\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1)\n"
                 "class Exported:\n"
                 "    pass\n"
                 "def benchmarked():\n"
                 "    pass\n"
                 "class Attribute:\n"
                 "    pass\n"
                 "def __getattr__(name):\n"
                 "    raise AttributeError(name)\n"
                 "def __repr__():\n"
                 "    return 'a'\n"),
        "b.py": ("from .a import used\n"
                 "from . import a\n"
                 "def _local():\n"
                 "    return used(), a.Attribute\n"
                 "VALUE = _local()\n"),
    }
    called = called_in("import brieskorn\nbrieskorn.a.benchmarked()\n")
    assert called == {"benchmarked"}
    assert dead_definitions(sources, {"Exported"}, called) == [
        ("a.py", "dead"), ("a.py", "recursive"), ("a.py", "__repr__")]
