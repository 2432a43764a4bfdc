"""The bodies of the six subcommands, and the `--json` path check and
write around them.  `cli.main` imports this module only after its parser
returns, so a plain `analyze` argv, `--version` and `-h` compile none of
it, nor the `seifert` and `arith` it imports.

`COMMANDS` maps each subcommand's name, the `dest` of the subparsers of
`cli.build_parser`, to its body; `main` dispatches through it.  Each
`cmd_*` computes and writes nothing: it returns `(payload, lines)`, the
object `--json` writes (None for rho, eta and graph) and the text
chunks, lazy where the text is large.  `main` checks the `--json` path
by `_check_json_path`, before any command runs, then writes the payload
to that path by `_write_json` and the text to stdout when there is no
path or `--text` is given.  The check opens the path for appending and
closes it, so a path `open()` refuses (empty, a directory, a name too
long, a missing directory) is refused before any work with `open()`'s
own error, and that error wins over every other but argparse's.

`analyze` with no `--json` path asks the cache for its text alone
(`cached_analysis(..., text=True)`), so a cache hit prints the text
stored in the entry after its stamp line and reads no report; `--json`
and `family` get the report.  With `--no-cache` both call
`build_analysis`.  The commands read `cached_analysis` and `render_text`
from `cli` at call time, so a caller that replaces either there (a test,
or the benchmark's tracer) is seen.  A command imports the pipeline
modules it needs (`lattice`, `matrices`, `plumbing`, `spectral`,
`report`) when it runs, and reads their names then: `build_analysis` and
`graph_section` from `report`, `diagonalize` from `lattice`.
"""

from __future__ import annotations

import os
import sys

from . import __version__, cli
from .cache import SCHEMA_VERSION, render_json
from .records import InputError
from .rules import check_order
from .seifert import (BrieskornTriple, family, seifert_invariants,
                      standard_action_valid)


def _parse_range(text: str):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad range {text!r}; expected LO..HI") from exc


def _check_json_path(path: str | None) -> None:
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


# Each cmd_* returns (payload, lines).  Annotations are never evaluated
# (PEP 563), so they name `Iterable` (collections.abc) with no import.
def cmd_analyze(args) -> tuple[dict | None, Iterable[str]]:
    request = args.a, args.b, args.c, args.p
    if args.no_cache:
        from .report import build_analysis
        report = build_analysis(*request)
    elif args.json is None:
        # Text only: a cache hit prints the text stored in the entry and
        # reads no report.
        return None, [cli.cached_analysis(*request, text=True)]
    else:
        report = cli.cached_analysis(*request)
    # map() renders the text only if main writes it.
    return report, map(cli.render_text, (report,))


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


def cmd_family(args) -> tuple[dict | None, Iterable[str]]:
    lo, hi = _parse_range(args.s_range)
    if hi - lo + 1 > FAMILY_MAX:
        raise InputError(f"the range {lo}..{hi} has {hi - lo + 1} members, "
                         f"more than FAMILY_MAX = {FAMILY_MAX}")
    if args.p is not None:
        check_order(args.p)
    if args.no_cache:
        from .report import build_analysis as analysis
    else:
        analysis = cli.cached_analysis
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


def cmd_diagonalize(args) -> tuple[dict | None, Iterable[str]]:
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


def cmd_rho(args) -> tuple[dict | None, Iterable[str]]:
    from .spectral import rho_lens_table
    p, r, s = args.lens
    return None, (f"rho({ell}) = {value}\n"
                  for ell, value in enumerate(rho_lens_table(p, r, s)))


# A member count, not a time bound: the README gives the time and the
# cache size of the largest admitted run.
FAMILY_MAX = 1000
# eta prints (p-1)^2 coefficients; the README gives their size and time.
ETA_TABLE_P_MAX = 1000


def cmd_eta(args) -> tuple[dict | None, Iterable[str]]:
    from .spectral import coefficients_at, eta_brieskorn
    check_order(args.p)
    if args.p > ETA_TABLE_P_MAX:
        raise InputError(f"eta prints (p-1)^2 coefficients: p must be at "
                         f"most {ETA_TABLE_P_MAX}, got {args.p}")
    eta = eta_brieskorn(BrieskornTriple.of(args.a, args.b, args.c), args.p)
    return None, (f"eta(zeta^{j}) = ["
                  f"{', '.join(map(str, coefficients_at(eta, j)))}]\n"
                  for j in range(1, args.p))


def cmd_graph(args) -> tuple[dict | None, Iterable[str]]:
    from .plumbing import canonical_resolution, intersection_matrix, to_dot, to_tgf
    from .report import graph_section
    triple = BrieskornTriple.of(args.a, args.b, args.c)
    graph = canonical_resolution(seifert_invariants(triple))
    if args.format == "json":
        return None, [render_json({
            **graph_section(graph),
            "matrix": [list(r) for r in intersection_matrix(graph)]})]
    return None, [to_dot(graph) if args.format == "dot" else to_tgf(graph)]


# The body of each subcommand, by the name build_parser registers it under.
COMMANDS = {"analyze": cmd_analyze, "family": cmd_family,
            "diagonalize": cmd_diagonalize, "rho": cmd_rho, "eta": cmd_eta,
            "graph": cmd_graph}
