"""Command-line front end.

Subcommands: analyze, family, diagonalize, rho, eta, graph.  Exit codes:
0 success, 1 invalid input, 2 internal invariant violation.  All output is
deterministic and exact (no floats).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .lattice import UnimodularForm, diagonalize
from .matrices import parse_matrix_text, render_matrix_text
from .plumbing import (InternalInvariantError, canonical_resolution,
                       intersection_matrix, to_dot, to_tgf)
from .report import SCHEMA_VERSION, cached_analysis, render_json, render_text
from .seifert import (BrieskornTriple, check_order, family, seifert_invariants,
                      standard_action_valid)
from .spectral import eta_brieskorn, rho_lens_table


class CLIError(Exception):
    """Invalid input; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


def _parse_range(text: str):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise CLIError(f"bad range {text!r}; expected LO..HI") from exc


def _write_json(path: str, payload) -> None:
    data = render_json(payload)
    if path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data)


def cmd_analyze(args) -> int:
    report = cached_analysis(args.a, args.b, args.c, args.p,
                             use_cache=not args.no_cache)
    if args.json:
        _write_json(args.json, report)
    if args.text or not args.json:
        sys.stdout.write(render_text(report))
    return 0


def cmd_family(args) -> int:
    lo, hi = _parse_range(args.s_range)
    if args.p is not None:
        check_order(args.p)
    rows = []
    for s in range(lo, hi + 1):
        try:
            triple = family(args.kind, args.r, s, args.sign)
        except ValueError as exc:
            rows.append({"s": s, "skipped": str(exc)})
            continue
        # A member on which the action is not free is analyzed without p.
        p = (args.p if args.p is not None
             and standard_action_valid(triple, args.p) else None)
        report = cached_analysis(triple.a1, triple.a2, triple.a3, p,
                                 use_cache=not args.no_cache)
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
    if args.json:
        _write_json(args.json, batch)
    else:
        for row in rows:
            if "skipped" in row:
                sys.stdout.write(f"s={row['s']}: skipped ({row['skipped']})\n")
                continue
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
            sys.stdout.write("  ".join(parts) + "\n")
    return 0


def cmd_diagonalize(args) -> int:
    try:
        with open(args.matrix, "r", encoding="utf-8") as handle:
            rows = parse_matrix_text(handle.read())
        form = UnimodularForm.from_matrix(rows)
        result = diagonalize(form)
    except (OSError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    if result.found:
        payload = {"found": True,
                   "C": [list(r) for r in result.c],
                   "C_inv": [list(r) for r in result.c_inv]}
        text = ("diagonalization found\nC =\n"
                + render_matrix_text(result.c)
                + "\nC_inv =\n" + render_matrix_text(result.c_inv) + "\n")
    else:
        payload = {"found": False, "root_pairs": result.root_pairs,
                   "certificate": result.message}
        text = f"not diagonalizable: {result.message}\n"
    if args.json:
        _write_json(args.json, payload)
    else:
        sys.stdout.write(text)
    return 0


def cmd_rho(args) -> int:
    p, r, s = args.lens
    for ell, value in enumerate(rho_lens_table(p, r, s).values):
        sys.stdout.write(f"rho({ell}) = {Fraction(value)}\n")
    return 0


def cmd_eta(args) -> int:
    triple = BrieskornTriple.of(args.a, args.b, args.c)
    eta = eta_brieskorn(triple, args.p)
    for j in range(1, args.p):
        coeffs = ", ".join(str(c) for c in eta.galois(j).coeffs)
        sys.stdout.write(f"eta(zeta^{j}) = [{coeffs}]\n")
    return 0


def cmd_graph(args) -> int:
    triple = BrieskornTriple.of(args.a, args.b, args.c)
    graph = canonical_resolution(seifert_invariants(triple))
    if args.format == "json":
        payload = {"weights": list(graph.weights),
                   "edges": [list(e) for e in sorted(graph.edges)],
                   "center": graph.center,
                   "matrix": [list(r) for r in intersection_matrix(graph)]}
        sys.stdout.write(render_json(payload))
    elif args.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        sys.stdout.write(to_tgf(graph))
    return 0


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
        return args.func(args)
    except CLIError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
