"""Command-line front end.

Subcommands: analyze, family, diagonalize, rho, eta, graph.  Exit codes:
0 success, 1 invalid input, 2 internal invariant violation.  All output is
deterministic and exact (no floats).

One rule gives the exit code, and `main` alone applies it; both failure
classes live in `records`.  A check that a command hands a user's value
to, unchanged, raises `InputError` (the argument parser, the range and
table ceilings here, the matrix file, and the checks in the pipeline
that meet argv); that and an `OSError` from a file exit 1 with
`error: ...`.  Any other exception is a broken invariant and exits 2
with one `internal invariant violation: ...` line, and no traceback.
An `InternalInvariantError` (or a subclass) prints its message alone.
Any other class, such as a `ValueError` of a check that was handed a
value the package computed, an `ArithmeticError` or a `KeyError`, prints
`Class: message`, or the class alone when the message is empty.
`family` skips a member only on `InputError`, and `diagonalize` turns a
`ValueError` about the user's form into one.

Each `cmd_*` computes and writes nothing: it returns `(payload, lines)`,
the object `--json` writes (None for rho, eta and graph) and the text
chunks, lazy where the text is large.  `main` alone checks the `--json`
path, before any command runs, then writes the payload to that path and
the text to stdout when there is no path or `--text` is given.  The
check opens the path for appending and closes it, so a path `open()`
refuses (empty, a directory, a name too long, a missing directory) is
refused before any work with `open()`'s own error, and that error wins
over every other but argparse's.

`analyze` with no `--json` path asks the cache for its text alone
(`cached_analysis(..., text=True)`), so a cache hit prints the text
stored in the entry after its stamp line and reads no report; `--json`
and `family` get the report.  With `--no-cache` both call `build_analysis`.
`cached_analysis` and `render_text` are globals of this module, read at
call time, so a caller may replace either.  A command imports the
pipeline modules it needs (`lattice`, `matrices`, `plumbing`, `spectral`,
`report`) when it runs, and reads their names then: `build_analysis` and
`graph_section` from `report`, `diagonalize` from `lattice`.  So this
module's import, and a cache hit, load no more of the package than
`records`, `arith`, `seifert` and `cache`.

`main` may be called many times in one process: the argparse parsers
are built on the first call that needs them and shared by every later
one, and no call leaves state behind that changes what a later call
prints.  `main` reads the plainest analyze argv itself, `analyze A B C`
or `analyze A B C --p P` with each number a run of ASCII digits
(`_plain_analyze`).  It builds the Namespace the parser would, without
argparse, which was about half of an in-process text cache hit.  Any
other argv (`--p=5`, `--json`, `--no-cache`, `-h`, a repeated option, a
sign, `_` or a non-ASCII digit) and a number `int()` refuses (more
digits than its limit) go to the parser, so help, version and every
error text are argparse's own, and the plain path never prints anything
argparse would not.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Iterable, List, Optional, Tuple

from . import __version__
from .cache import SCHEMA_VERSION, cached_analysis, render_json, render_text
from .records import InputError, InternalInvariantError
from .seifert import (FAMILY_KINDS, BrieskornTriple, check_order, family,
                      seifert_invariants, standard_action_valid)


# What a command returns for main to write: the --json payload and the text.
_Output = Tuple[Optional[dict], Iterable[str]]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a value that starts with "-" as a flag unless it
        # looks like a negative number; a LO..HI range such as -2..2 is
        # read as a value too.  Subparsers are built by this class.
        self._negative_number_matcher = re.compile(
            self._negative_number_matcher.pattern + r"|^-\d+\.\.-?\d+$")

    def error(self, message):
        raise InputError(message)


def _parse_range(text: str):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad range {text!r}; expected LO..HI") from exc


def _check_json_path(path: Optional[str]) -> None:
    """Refuse a --json PATH that open() would refuse, before any command
    runs, by opening it: the error is open()'s own.  Append mode leaves an
    existing file unchanged, and a file the open creates is removed, so a
    run that then fails leaves nothing behind.  A dangling symlink counts
    as existing, so such a run leaves an empty file at its target, the
    file open(PATH, "w") would create."""
    if path is None or path == "-":
        return
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def _write_json(path: str, payload) -> None:
    data = render_json(payload)
    if path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data)


def cmd_analyze(args) -> _Output:
    request = args.a, args.b, args.c, args.p
    if args.no_cache:
        from .report import build_analysis
        report = build_analysis(*request)
    elif args.json is None:
        # Text only: a cache hit prints the text stored in the entry and
        # reads no report.
        return None, [cached_analysis(*request, text=True)]
    else:
        report = cached_analysis(*request)
    # map() renders the text only if main writes it.
    return report, map(render_text, (report,))


def _family_line(row) -> str:
    if "skipped" in row:
        return f"s={row['s']}: skipped ({row['skipped']})\n"
    t = row["triple"]
    parts = [f"s={row['s']}", f"Sigma({t[0]},{t[1]},{t[2]})",
             f"delta={row['delta']}", f"R={row['r_invariant']}",
             f"diagonalizable={row['diagonalizable']}"]
    if "obstruction" in row:
        parts.append(f"obstruction={row['obstruction']}")
    if "locally_linear_candidates" in row:
        cands = row["locally_linear_candidates"]
        desc = ", ".join(f"({c['r']},{c['s']})"
                         + ("+rho" if c["rho_match"] else "")
                         for c in cands) or "none"
        parts.append(f"lens={desc}")
    return "  ".join(parts) + "\n"


def cmd_family(args) -> _Output:
    lo, hi = _parse_range(args.s_range)
    if hi - lo + 1 > FAMILY_MAX:
        raise InputError(f"the range {lo}..{hi} has {hi - lo + 1} members, "
                         f"more than FAMILY_MAX = {FAMILY_MAX}")
    if args.p is not None:
        check_order(args.p)
    if args.no_cache:
        from .report import build_analysis as analysis
    else:
        analysis = cached_analysis
    rows = []
    for s in range(lo, hi + 1):
        # An InputError, from the family rule or from the analysis (the
        # NODE_MAX refusal), is a skipped row; any other exception is a
        # broken invariant and ends the run.
        try:
            triple = family(args.kind, args.r, s, args.sign)
            # A member on which the action is not free is analyzed without p.
            p = (args.p if args.p is not None
                 and standard_action_valid(triple, args.p) else None)
            report = analysis(triple.a1, triple.a2, triple.a3, p)
        except InputError as exc:
            rows.append({"s": s, "skipped": str(exc)})
            continue
        row = {
            "s": s,
            "triple": [triple.a1, triple.a2, triple.a3],
            "p": p,
            "delta": report["seifert"]["delta"],
            "r_invariant": report["seifert"]["r_invariant"],
            "diagonalizable": report["diagonalization"]["found"],
        }
        if "obstruction" in report:
            row["obstruction"] = report["obstruction"]["status"]
        if "locally_linear" in report:
            row["locally_linear_candidates"] = [
                {"r": cand["r"], "s": cand["s"], "rho_match": cand["rho_match"]}
                for cand in report["locally_linear"]["candidates"]
            ]
        rows.append(row)
    batch = {"schema_version": SCHEMA_VERSION, "version": __version__,
             "family": {"kind": args.kind, "r": args.r, "sign": args.sign,
                        "s_range": [lo, hi], "p": args.p},
             "rows": rows}
    return batch, map(_family_line, rows)


def cmd_diagonalize(args) -> _Output:
    from .lattice import UnimodularForm, diagonalize
    from .matrices import parse_matrix_text, render_matrix_text
    with open(args.matrix, "r", encoding="utf-8") as handle:
        try:
            rows = parse_matrix_text(handle.read())
        except ValueError as exc:  # a bad line, or bytes that are not UTF-8
            raise InputError(f"{args.matrix}: {exc}") from exc
    # The form is the user's, so the form's own checks (symmetric,
    # unimodular, negative definite) are input checks here.
    try:
        result = diagonalize(UnimodularForm.from_matrix(rows))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if result.found:
        return ({"found": True,
                 "C": [list(r) for r in result.c],
                 "C_inv": [list(r) for r in result.c_inv]},
                ["diagonalization found\nC =\n", render_matrix_text(result.c),
                 "\nC_inv =\n", render_matrix_text(result.c_inv), "\n"])
    return ({"found": False, "root_pairs": result.root_pairs,
             "certificate": result.message},
            [f"not diagonalizable: {result.message}\n"])


def cmd_rho(args) -> _Output:
    from .spectral import rho_lens_table
    p, r, s = args.lens
    return None, (f"rho({ell}) = {value}\n"
                  for ell, value in enumerate(rho_lens_table(p, r, s)))


# A member count, not a time bound: the README gives the time and the
# cache size of the largest admitted run.
FAMILY_MAX = 1000
# eta prints (p-1)^2 coefficients; the README gives their size and time.
ETA_TABLE_P_MAX = 1000


def cmd_eta(args) -> _Output:
    from .spectral import coefficients_at, eta_brieskorn
    check_order(args.p)
    if args.p > ETA_TABLE_P_MAX:
        raise InputError(f"eta prints (p-1)^2 coefficients: p must be at "
                         f"most {ETA_TABLE_P_MAX}, got {args.p}")
    eta = eta_brieskorn(BrieskornTriple.of(args.a, args.b, args.c), args.p)
    return None, (f"eta(zeta^{j}) = ["
                  f"{', '.join(map(str, coefficients_at(eta, j)))}]\n"
                  for j in range(1, args.p))


def cmd_graph(args) -> _Output:
    from .plumbing import canonical_resolution, intersection_matrix, to_dot, to_tgf
    from .report import graph_section
    triple = BrieskornTriple.of(args.a, args.b, args.c)
    graph = canonical_resolution(seifert_invariants(triple))
    if args.format == "json":
        return None, [render_json({
            **graph_section(graph),
            "matrix": [list(r) for r in intersection_matrix(graph)]})]
    return None, [to_dot(graph) if args.format == "dot" else to_tgf(graph)]


def _plain_analyze(argv: List[str]) -> Optional[argparse.Namespace]:
    """The Namespace the analyze parser builds from ["analyze", A, B, C]
    or ["analyze", A, B, C, "--p", P] when each number is a run of ASCII
    digits; None for any other argv, or for a number int() refuses (more
    digits than its limit), which argparse then parses and reports."""
    numbers = argv[1:4] + argv[5:]
    if (len(argv) not in (4, 6) or argv[0] != "analyze"
            or argv[4:5] not in ([], ["--p"])
            or not all(x.isascii() and x.isdigit() for x in numbers)):
        return None
    try:
        a, b, c, *p = map(int, numbers)
    except ValueError:
        return None
    return argparse.Namespace(a=a, b=b, c=c, p=(p or [None])[0], json=None,
                              text=False, no_cache=False, func=cmd_analyze,
                              command="analyze")


def _add_triple(parser) -> None:
    for name in ("a", "b", "c"):
        parser.add_argument(name, type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
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
    p_an.set_defaults(func=cmd_analyze)

    p_fam = sub.add_parser("family", help="batch analysis over a family")
    p_fam.add_argument("kind", choices=FAMILY_KINDS)
    p_fam.add_argument("--r", type=int, required=True)
    p_fam.add_argument("--s-range", required=True, metavar="LO..HI")
    p_fam.add_argument("--sign", choices=("+", "-"), default="+")
    p_fam.add_argument("--p", type=int, default=None)
    p_fam.add_argument("--json", metavar="PATH", default=None)
    p_fam.add_argument("--no-cache", action="store_true")
    p_fam.set_defaults(func=cmd_family)

    p_diag = sub.add_parser("diagonalize", help="diagonalize a form from a file")
    p_diag.add_argument("--matrix", required=True, metavar="FILE")
    p_diag.add_argument("--json", metavar="PATH", default=None)
    p_diag.set_defaults(func=cmd_diagonalize)

    p_rho = sub.add_parser("rho", help="exact lens-space rho table")
    p_rho.add_argument("--lens", nargs=3, type=int, required=True,
                       metavar=("P", "R", "S"))
    p_rho.set_defaults(func=cmd_rho)

    p_eta = sub.add_parser("eta", help="exact eta(zeta^j), j = 1..p-1, of a triple")
    _add_triple(p_eta)
    p_eta.add_argument("--p", type=int, required=True)
    p_eta.set_defaults(func=cmd_eta)

    p_gr = sub.add_parser("graph", help="export the resolution tree")
    _add_triple(p_gr)
    p_gr.add_argument("--format", choices=("dot", "json", "tgf"), default="tgf")
    p_gr.set_defaults(func=cmd_graph)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_analyze(argv) or build_parser().parse_args(argv)
        path = getattr(args, "json", None)
        _check_json_path(path)
        payload, lines = args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
