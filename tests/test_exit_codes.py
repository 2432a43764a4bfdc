"""The exit-code rule of cli.main, read from the sources with ``ast`` only.

main has two except clauses.  The first catches exactly InputError and
OSError and exits 1; each is raised somewhere in src/brieskorn, by name
as ``raise X`` or ``raise X(...)``, or (OSError) by a call of the
builtin ``open``, so neither is a branch of the contract that nothing
reaches.  The second is the ``Exception`` catch-all and exits 2: a
failure of any other class is a broken invariant, whether a check names
it or not.

InputError alone marks bad input.  A handler that catches every
ValueError and does not raise would turn a broken check into a result,
as a skipped family row did, so every ``except`` in the package that
names ValueError ends in a ``raise``.  There are two exceptions.  The
cache's read of an entry: a corrupt entry is a miss.  And the plain
analyze path's ``int()`` of argv: a number it refuses sends the argv to
argparse, which reports it as an InputError.

One rule is also run end to end: a sign system that ``decide`` has no
witness for exits 2 from ``analyze``, with no verdict printed or cached.
"""

import ast
import pathlib

# Two invariant spheres e0 + e1 and e0 - e1: the signs around the cycle
# F1 - e1 - F0 - e0 multiply to -1, and no fixed sphere gives decide a
# witness.
from test_obstruction import CONFLICT

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "brieskorn"
CATCH_ALL = "Exception"


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _caught(handler) -> list:
    """The class names an except clause catches; [] for a bare except."""
    if handler.type is None:
        return []
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return list(map(_name, types))


def clauses_in(source: str, function: str = "main") -> list:
    """The class names of each except clause of the module-level function,
    in order."""
    [func] = [node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    return [_caught(node) for node in ast.walk(func)
            if isinstance(node, ast.ExceptHandler) and node.type is not None]


def caught_in(source: str, function: str = "main") -> list:
    """The class names in the except clauses of the module-level function."""
    return [name for clause in clauses_in(source, function)
            for name in clause]


def raised_in(source: str) -> set:
    """The class names that source raises, as X, X(...) or m.X(...), and
    OSError if it calls the builtin open, whose refusal is an OSError."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(_name(exc))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            names.add("OSError")
    return names


def never_raised(sources: dict, cli: str = "cli.py") -> list:
    """The classes main in sources[cli] catches by name, the catch-all
    aside, that no source raises."""
    raised = set().union(*map(raised_in, sources.values()))
    return [name for name in caught_in(sources[cli])
            if name != CATCH_ALL and name not in raised]


def value_error_dropped_in(source: str) -> list:
    """For each except clause that names ValueError and whose body does
    not end in a raise, the name of the innermost function around it
    (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.ExceptHandler)
                    and "ValueError" in _caught(child)
                    and not isinstance(child.body[-1], ast.Raise)):
                found.append(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def package_sources() -> dict:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_class_main_catches_is_raised_in_the_package():
    sources = package_sources()
    assert clauses_in(sources["cli.py"]) == [["InputError", "OSError"],
                                             [CATCH_ALL]]
    assert never_raised(sources) == []


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
                   "    except Exception:\n"
                   "        return 4\n"
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
    assert clauses_in(sources["cli.py"]) == [
        ["ValueError", "KeyError"], ["Broken"], ["Bare"], ["Exception"]]
    assert caught_in(sources["cli.py"]) == [
        "ValueError", "KeyError", "Broken", "Bare", "Exception"]
    assert never_raised(sources) == ["KeyError"]
    # A call of the builtin open counts as raising OSError.
    catch_os_error = ("def main(path):\n"
                      "    try:\n"
                      "        {}\n"
                      "    except OSError:\n"
                      "        return 1\n")
    assert never_raised(
        {"cli.py": catch_os_error.format("return len(path)")}) == ["OSError"]
    assert never_raised(
        {"cli.py": catch_os_error.format("open(path).close()")}) == []


def test_only_the_cache_read_drops_a_value_error():
    dropped = {name: value_error_dropped_in(source)
               for name, source in package_sources().items()}
    assert {name: found for name, found in dropped.items() if found} == {
        "cache.py": ["cached_analysis"], "cli.py": ["_plain_analyze"]}


# cmd_family's loop before InputError: any ValueError raised while a member
# was analyzed, a broken check's included, became a skipped row.
SKIP_ANY_VALUE_ERROR = '''
def cmd_family(args):
    for s in range(lo, hi + 1):
        try:
            triple = family(args.kind, args.r, s, args.sign)
            report = analysis(triple.a1, triple.a2, triple.a3, p)
        except ValueError as exc:
            rows.append({"s": s, "skipped": str(exc)})
            continue
        rows.append(row_of(report))
'''


def test_detector_flags_a_handler_that_drops_a_value_error():
    assert value_error_dropped_in(SKIP_ANY_VALUE_ERROR) == ["cmd_family"]
    assert value_error_dropped_in(
        SKIP_ANY_VALUE_ERROR.replace("except ValueError",
                                     "except InputError")) == []
    source = ("def parse(text):\n"
              "    try:\n"
              "        return int(text)\n"
              "    except (OSError, ValueError) as exc:\n"
              "        raise InputError(str(exc)) from exc\n"
              "def quiet(text):\n"
              "    def inner():\n"
              "        try:\n"
              "            return int(text)\n"
              "        except ValueError:\n"
              "            if text:\n"
              "                raise\n"
              "    try:\n"
              "        return inner()\n"
              "    except KeyError:\n"
              "        return None\n"
              "try:\n"
              "    import fast\n"
              "except (ImportError, ValueError):\n"
              "    fast = None\n")
    assert value_error_dropped_in(source) == ["inner", None]


def test_a_sign_system_with_no_witness_exits_2(monkeypatch, tmp_cache,
                                               capsys):
    import brieskorn.report as report
    from brieskorn.cli import main
    monkeypatch.setattr(report, "build_constraints",
                        lambda markup, diag: CONFLICT)
    refusal = ("internal invariant violation: no fixed-coefficient or "
               f"adjacent-branches witness for the sign system {CONFLICT!r}\n")
    for argv in (["analyze", "3", "16", "113", "--p", "5"],
                 ["analyze", "3", "16", "113", "--p", "5", "--no-cache"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", refusal), argv
        assert not tmp_cache.exists() or not any(tmp_cache.iterdir()), argv
