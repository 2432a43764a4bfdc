"""Every exception class that cli.main maps to an exit code is raised by
name somewhere in src/brieskorn.

main turns ValueError and OSError into exit 1 and InternalInvariantError
into exit 2.  A class in its except clauses that no code in the package
raises, as ``raise X`` or ``raise X(...)``, is a branch of the exit-code
contract that nothing reaches.  The check reads the sources with ``ast``
only.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "brieskorn"


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def caught_in(source: str, function: str = "main") -> list:
    """The class names in the except clauses of the module-level function."""
    [func] = [node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    names = []
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            names.extend(map(_name, types))
    return names


def raised_in(source: str) -> set:
    """The class names that source raises, as X, X(...) or m.X(...)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(_name(exc))
    return names


def never_raised(sources: dict, cli: str = "cli.py") -> list:
    """The classes main in sources[cli] catches that no source raises."""
    raised = set().union(*map(raised_in, sources.values()))
    return [name for name in caught_in(sources[cli]) if name not in raised]


def test_every_class_main_catches_is_raised_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert never_raised(sources) == []
    assert sorted(caught_in(sources["cli.py"])) == [
        "InternalInvariantError", "OSError", "ValueError"]


def test_detector_flags_a_caught_class_that_nothing_raises():
    sources = {
        "cli.py": ("from . import errors\n"
                   "def main():\n"
                   "    try:\n"
                   "        run(0)\n"
                   "    except (ValueError, KeyError):\n"
                   "        return 1\n"
                   "    except errors.Broken:\n"
                   "        return 2\n"
                   "    except Bare:\n"
                   "        return 3\n"
                   "def run(x):\n"
                   "    if x:\n"
                   "        raise errors.Broken('invariant')\n"
                   "    raise ValueError('bad input')\n"),
        "errors.py": ("class Broken(RuntimeError):\n"
                      "    pass\n"
                      "class Bare(Exception):\n"
                      "    pass\n"
                      "def check():\n"
                      "    raise Bare\n"),
    }
    assert caught_in(sources["cli.py"]) == [
        "ValueError", "KeyError", "Broken", "Bare"]
    assert never_raised(sources) == ["KeyError"]
