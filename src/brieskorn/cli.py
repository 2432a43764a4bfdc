"""Command-line front end.

Subcommands: analyze, family, diagonalize, rho, eta, graph.  Exit codes:
0 success, 1 invalid input, 2 internal invariant violation.  All output is
deterministic and exact (no floats).

Each `cmd_*` computes and writes nothing: it returns `(payload, lines)`,
the object `--json` writes (None for rho, eta and graph) and the text
chunks, lazy where the text is large.  `main` alone checks the `--json`
path, before any command runs, then writes the payload to that path and
the text to stdout when there is no path or `--text` is given.  A bad
path is so refused before any work, and its error wins over every other.

`main` may be called many times in one process: the argparse parser is
built on the first call and shared by every later one, and no call
leaves state behind that changes what a later call prints.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import stat
import sys
from typing import Iterable, List, Optional, Tuple

from . import __version__
from .lattice import UnimodularForm, diagonalize
from .matrices import parse_matrix_text, render_matrix_text
from .plumbing import (InternalInvariantError, canonical_resolution,
                       intersection_matrix, to_dot, to_tgf)
from .report import (SCHEMA_VERSION, build_analysis, cached_analysis,
                     render_json, render_text)
from .seifert import (BrieskornTriple, check_order, family, seifert_invariants,
                      standard_action_valid)
from .spectral import coefficients_at, eta_brieskorn, rho_lens_table


class CLIError(ValueError):
    """Invalid input; reported on stderr with exit code 1."""


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
        raise CLIError(message)


def _parse_range(text: str):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise CLIError(f"bad range {text!r}; expected LO..HI") from exc


def _check_json_dir(path: Optional[str]) -> None:
    """Refuse an empty --json PATH, or one whose directory does not exist,
    before any command runs.  The file itself is not opened here, so a
    run that then fails on bad input leaves an existing file unchanged."""
    if path is None or path == "-":
        return
    # The error is the one open() raises for the same path.
    if not path:
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    try:
        mode = os.stat(os.path.dirname(path) or ".").st_mode
        if not stat.S_ISDIR(mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _write_json(path: str, payload) -> None:
    data = render_json(payload)
    if path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data)


def cmd_analyze(args) -> _Output:
    analysis = build_analysis if args.no_cache else cached_analysis
    report = analysis(args.a, args.b, args.c, args.p)
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
        raise CLIError(f"the range {lo}..{hi} has {hi - lo + 1} members, "
                       f"more than FAMILY_MAX = {FAMILY_MAX}")
    if args.p is not None:
        check_order(args.p)
    analysis = build_analysis if args.no_cache else cached_analysis
    rows = []
    for s in range(lo, hi + 1):
        # Any ValueError, from the family rule or from the analysis (the
        # NODE_MAX refusal, but also a failed input check deeper down), is a
        # skipped row; InternalInvariantError is not a ValueError.
        try:
            triple = family(args.kind, args.r, s, args.sign)
            # A member on which the action is not free is analyzed without p.
            p = (args.p if args.p is not None
                 and standard_action_valid(triple, args.p) else None)
            report = analysis(triple.a1, triple.a2, triple.a3, p)
        except ValueError as exc:
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
    with open(args.matrix, "r", encoding="utf-8") as handle:
        rows = parse_matrix_text(handle.read())
    result = diagonalize(UnimodularForm.from_matrix(rows))
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
    p, r, s = args.lens
    return None, (f"rho({ell}) = {value}\n"
                  for ell, value in enumerate(rho_lens_table(p, r, s)))


# A member count, not a time bound: the README gives the time and the
# cache size of the largest admitted run.
FAMILY_MAX = 1000
# eta prints (p-1)^2 coefficients; the README gives their size and time.
ETA_TABLE_P_MAX = 1000


def cmd_eta(args) -> _Output:
    check_order(args.p)
    if args.p > ETA_TABLE_P_MAX:
        raise CLIError(f"eta prints (p-1)^2 coefficients: p must be at most "
                       f"{ETA_TABLE_P_MAX}, got {args.p}")
    eta = eta_brieskorn(BrieskornTriple.of(args.a, args.b, args.c), args.p)
    return None, (f"eta(zeta^{j}) = ["
                  f"{', '.join(map(str, coefficients_at(eta, j)))}]\n"
                  for j in range(1, args.p))


def cmd_graph(args) -> _Output:
    triple = BrieskornTriple.of(args.a, args.b, args.c)
    graph = canonical_resolution(seifert_invariants(triple))
    if args.format == "json":
        return None, [render_json({
            "weights": list(graph.weights),
            "edges": [list(e) for e in sorted(graph.edges)],
            "center": graph.center,
            "matrix": [list(r) for r in intersection_matrix(graph)]})]
    return None, [to_dot(graph) if args.format == "dot" else to_tgf(graph)]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="brieskorn",
                     description="Exact extension obstructions for cyclic "
                                 "actions on Brieskorn sphere fillings")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full pipeline for one triple")
    p_an.add_argument("a", type=int)
    p_an.add_argument("b", type=int)
    p_an.add_argument("c", type=int)
    p_an.add_argument("--p", type=int, default=None)
    p_an.add_argument("--json", metavar="PATH", default=None)
    p_an.add_argument("--text", action="store_true")
    p_an.add_argument("--no-cache", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_fam = sub.add_parser("family", help="batch analysis over a family")
    p_fam.add_argument("kind", choices=("casson-harer", "stern"))
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
    p_eta.add_argument("a", type=int)
    p_eta.add_argument("b", type=int)
    p_eta.add_argument("c", type=int)
    p_eta.add_argument("--p", type=int, required=True)
    p_eta.set_defaults(func=cmd_eta)

    p_gr = sub.add_parser("graph", help="export the resolution tree")
    p_gr.add_argument("a", type=int)
    p_gr.add_argument("b", type=int)
    p_gr.add_argument("c", type=int)
    p_gr.add_argument("--format", choices=("dot", "json", "tgf"), default="tgf")
    p_gr.set_defaults(func=cmd_graph)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        path = getattr(args, "json", None)
        _check_json_dir(path)
        payload, lines = args.func(args)
        if path is not None:
            _write_json(path, payload)
        if path is None or getattr(args, "text", False):
            sys.stdout.writelines(lines)
        return 0
    except (ValueError, OSError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
