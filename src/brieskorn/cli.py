"""Command-line front end: `main`, which applies the exit-code rule and
serves a plain `analyze` argv itself, and the argparse parser.

Subcommands: analyze, family, diagonalize, rho, eta, graph.  Exit codes:
0 success, 1 invalid input, 2 internal invariant violation.  All output is
deterministic and exact (no floats).

One rule gives the exit code, and `main` alone applies it; both failure
classes live in `records`.  A check that a command hands a user's value
to, unchanged, raises `InputError` (the argument parser, the range and
table ceilings of `commands`, the matrix file, and the checks in the
pipeline that meet argv); that and an `OSError` from a file exit 1 with
`error: ...`.  Any other exception is a broken invariant and exits 2
with one `internal invariant violation: ...` line, and no traceback.
An `InternalInvariantError` (or a subclass) prints its message alone.
Any other class, such as a `ValueError` of a check that was handed a
value the package computed, an `ArithmeticError` or a `KeyError`, prints
`Class: message`, or the class alone when the message is empty.
`family` skips a member only on `InputError`, and `diagonalize` turns a
`ValueError` about the user's form into one.

The command bodies, and the `--json` path check and write, live in
`commands`.  `main` imports it only after the parser returns, and calls
the body that `commands.COMMANDS` names for the subcommand (the
subparsers' `dest`).  So this module's import with `build_parser()`, and
a cache hit, load no more of the package than `records`, `rules` and
`cache`: none of `commands`, `seifert` or `arith`.  `cached_analysis`
and `render_text` are globals of this module, which the commands read
at call time, so a caller may replace either.

`main` may be called many times in one process: the argparse parsers
are built on the first call that needs them and shared by every later
one, and no call leaves state behind that changes what a later call
prints.  `main` reads the plainest analyze argv itself, `analyze A B C`
or `analyze A B C --p P` with each number a run of ASCII digits
(`_plain_analyze` gives the parser's `(a, b, c, p)`), and writes
`cached_analysis(a, b, c, p, text=True)` as `cmd_analyze` would, with
no parser and no Namespace: argparse was about half of an in-process
text cache hit, and it is imported only when `build_parser` first runs,
so such an argv loads none of it.  Any other argv (`--p=5`, `--json`,
`--no-cache`, `-h`, a repeated option, a sign, `_` or a non-ASCII
digit) and a number `int()` refuses (more digits than its limit) go to
the parser, so help, version and every error text are argparse's own,
and the plain path never prints anything argparse would not.
"""

from __future__ import annotations

import functools
import sys

from . import __version__
# render_text is bound here for the commands, which read it from this
# module at call time, and for the benchmark's tracer, which wraps it here.
from .cache import cached_analysis, render_text  # noqa: F401
from .records import InputError, InternalInvariantError
from .rules import FAMILY_KINDS


def _plain_analyze(
        argv: list[str]) -> tuple[int, int, int, int | None] | None:
    """The (a, b, c, p) the analyze parser reads from ["analyze", A, B, C]
    (p None) or ["analyze", A, B, C, "--p", P] when each number is a run
    of ASCII digits; None for any other argv, or for a number int()
    refuses (more digits than its limit), which argparse then parses and
    reports."""
    n = len(argv)
    if not ((n == 4 or n == 6 and argv[4] == "--p") and argv[0] == "analyze"):
        return None
    numbers = argv[1:4] + argv[5:]
    digits = "".join(numbers)   # an empty number is int()'s ValueError
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        a, b, c, *p = map(int, numbers)
    except ValueError:
        return None
    return a, b, c, (p or [None])[0]


def _add_triple(parser) -> None:
    for name in ("a", "b", "c"):
        parser.add_argument(name, type=int)


@functools.cache
def build_parser():
    """The top-level argparse parser, built on the first call; argparse
    is imported then, so a plain analyze argv never loads it."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # argparse reads a value that starts with "-" as a flag unless
            # it looks like a negative number; a LO..HI range such as
            # -2..2 is read as a value too.  Subparsers are built by this
            # class.
            self._negative_number_matcher = re.compile(
                self._negative_number_matcher.pattern + r"|^-\d+\.\.-?\d+$")

        def error(self, message):
            raise InputError(message)

    parser = _Parser(prog="brieskorn",
                     description="Exact extension obstructions for cyclic "
                                 "actions on Brieskorn sphere fillings")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full pipeline for one triple")
    _add_triple(p_an)
    p_an.add_argument("--p", type=int, default=None)
    p_an.add_argument("--json", metavar="PATH", default=None)
    p_an.add_argument("--text", action="store_true")
    p_an.add_argument("--no-cache", action="store_true")

    p_fam = sub.add_parser("family", help="batch analysis over a family")
    p_fam.add_argument("kind", choices=FAMILY_KINDS)
    p_fam.add_argument("--r", type=int, required=True)
    p_fam.add_argument("--s-range", required=True, metavar="LO..HI")
    p_fam.add_argument("--sign", choices=("+", "-"), default="+")
    p_fam.add_argument("--p", type=int, default=None)
    p_fam.add_argument("--json", metavar="PATH", default=None)
    p_fam.add_argument("--no-cache", action="store_true")

    p_diag = sub.add_parser("diagonalize", help="diagonalize a form from a file")
    p_diag.add_argument("--matrix", required=True, metavar="FILE")
    p_diag.add_argument("--json", metavar="PATH", default=None)

    p_rho = sub.add_parser("rho", help="exact lens-space rho table")
    p_rho.add_argument("--lens", nargs=3, type=int, required=True,
                       metavar=("P", "R", "S"))

    p_eta = sub.add_parser("eta", help="exact eta(zeta^j), j = 1..p-1, of a triple")
    _add_triple(p_eta)
    p_eta.add_argument("--p", type=int, required=True)

    p_gr = sub.add_parser("graph", help="export the resolution tree")
    _add_triple(p_gr)
    p_gr.add_argument("--format", choices=("dot", "json", "tgf"), default="tgf")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        plain = _plain_analyze(argv)
        if plain is not None:
            # What commands.cmd_analyze returns for this argv, written as
            # main would write it.
            sys.stdout.write(cached_analysis(*plain, text=True))
            return 0
        args = build_parser().parse_args(argv)
        # Only a parsed argv compiles the command bodies.
        from .commands import COMMANDS, _check_json_path, _write_json
        path = getattr(args, "json", None)
        _check_json_path(path)
        payload, lines = COMMANDS[args.command](args)
        if path is not None:
            _write_json(path, payload)
        if path is None or getattr(args, "text", False):
            sys.stdout.writelines(lines)
        return 0
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        message = str(exc)
        if not isinstance(exc, InternalInvariantError):
            # With no traceback, the class is what names such a failure.
            message = ": ".join(filter(None, (type(exc).__name__, message)))
        sys.stderr.write(f"internal invariant violation: {message}\n")
        return 2
