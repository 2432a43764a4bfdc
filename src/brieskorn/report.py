"""Analysis reports: the full pipeline for one triple, exact JSON
serialization, deterministic text rendering, and a result cache.

Numbers are serialized exactly: integers as JSON integers and rationals
as "num/den" strings.  No floats appear anywhere in a report.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from typing import Dict, List, Optional, Union

from . import __version__
from .lattice import UnimodularForm, diagonalize
from .obstruction import build_constraints, decide
# graph_signature is not called here; perfbench's tracer wraps it by name.
from .plumbing import (canonical_resolution, graph_signature,  # noqa: F401
                       intersection_matrix, propagate_rotations)
from .seifert import BrieskornTriple, check_action, seifert_invariants
from .spectral import eta_from_fixed_data, ll_extension_search, rho_from_eta

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "BRIESKORN_CACHE_DIR"


def build_analysis(a: int, b: int, c: int, p: Optional[int] = None) -> Dict:
    """Run the full pipeline on Sigma(a,b,c), optionally with a Z/p action.

    Sections without p (Seifert data, graph, form, diagonalization) are
    always present; the equivariant, obstruction and locally-linear
    sections require p, which must pass check_action.
    """
    triple = BrieskornTriple.of(a, b, c)
    if p is not None:
        check_action(triple, p)
    sd = seifert_invariants(triple)
    graph = canonical_resolution(sd)
    q = intersection_matrix(graph)
    form = UnimodularForm(q)
    diag = diagonalize(form)
    elim = form.elimination  # computed once, inside diagonalize

    report: Dict = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "input": {"a": triple.a1, "b": triple.a2, "c": triple.a3, "p": p},
        "seifert": {
            "b": list(sd.b),
            "delta": sd.delta,
            "r_invariant": sd.r_invariant,
        },
        "graph": graph_section(graph),
        "form": {
            "matrix": [list(row) for row in q],
            "determinant": elim.determinant,
            "signature": elim.signature,
            "definiteness": elim.definiteness,
        },
    }

    if diag.found:
        report["diagonalization"] = {
            "found": True,
            "root_pairs": form.n,
            "C": [list(row) for row in diag.c],
            "C_inv": [list(row) for row in diag.c_inv],
        }
    else:
        report["diagonalization"] = {
            "found": False,
            "root_pairs": diag.root_pairs,
            "certificate": diag.message,
        }

    conclusions: List[str] = []
    name = str(triple)
    if sd.r_invariant == -1:
        conclusions.append(
            f"R-invariant -1: the necessary condition for {name} to bound "
            "a smooth contractible 4-manifold holds.")
    else:
        conclusions.append(
            f"R-invariant {sd.r_invariant} != -1: {name} does not bound a "
            "smooth contractible 4-manifold.")
    if not diag.found:
        conclusions.append(
            f"The plumbing form admits no integral diagonalization "
            f"({diag.root_pairs} root pairs < rank {form.n}): {name} does "
            "not bound a smooth acyclic 4-manifold whose fundamental group "
            "is normally generated by the boundary.")

    if p is not None and diag.found:
        markup = propagate_rotations(graph, p)
        report["equivariant"] = {
            "p": p,
            "fixed_points": [list(pt) for pt in markup.isolated_points],
            "fixed_spheres": [
                {"node": node, "self_intersection": w, "normal_rotation": cf}
                for node, w, cf in markup.fixed_spheres
            ],
            "invariant_nodes": list(markup.invariant_nodes),
        }
        verdict = decide(build_constraints(markup, diag))
        report["obstruction"] = {
            "status": verdict.status,
            "certificate": verdict.certificate.render() if verdict.certificate else None,
        }
        if verdict.status == "infeasible":
            conclusions.append(
                f"If {name} bounds a smooth acyclic 4-manifold W whose "
                "fundamental group is normally generated by the image of "
                "the boundary's, then the standard free Z/"
                f"{p}-action on {name} does not extend to a smooth action "
                "on any such W (in particular not over a contractible one).")
        else:
            conclusions.append(
                "The orientation/sign constraint system is satisfiable; "
                "this criterion does not obstruct a smooth extension.")

        eta = eta_from_fixed_data(markup, elim.signature)
        rho = rho_from_eta(eta)
        candidates = ll_extension_search(triple, p, eta)
        report["locally_linear"] = {
            "rho_quotient": [str(x) for x in rho],
            "candidates": [
                {
                    "r": cand.r,
                    "s": cand.s,
                    "product_mod_p": cand.product_residue,
                    "rs_mod_p": cand.rs_residue,
                    "multiset_classes": list(cand.multiset_residues),
                    "rho_match": cand.rho_match,
                }
                for cand in candidates
            ],
        }
        matched = [cand for cand in candidates if cand.rho_match]
        if matched:
            cand = matched[0]
            conclusions.append(
                f"The standard free Z/{p}-action extends to a locally "
                f"linear action with exactly one fixed point, of rotation "
                f"data ({cand.r},{cand.s}), on any smooth contractible "
                f"4-manifold that {name} bounds: the quotient satisfies the "
                f"degree-one-map congruences for L({p};{cand.r},{cand.s}) "
                "and all rho invariants agree (the homology equivalence is "
                "simple, so the torsion condition holds).")
        else:
            conclusions.append(
                "No lens space satisfies the congruence and rho conditions; "
                "this search finds no one-fixed-point locally linear "
                "extension.")

    report["conclusions"] = conclusions
    return report


def graph_section(graph) -> Dict:
    """The report's "graph" section, which `graph --format json` prints
    with the intersection matrix added."""
    return {"weights": list(graph.weights),
            "edges": [list(e) for e in sorted(graph.edges)],
            "center": 0}


def render_json(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report: Dict) -> str:
    inp = report["input"]
    lines = []
    name = f"Sigma({inp['a']},{inp['b']},{inp['c']})"
    lines.append(f"analysis of {name}" + (f" with p = {inp['p']}" if inp["p"] else ""))
    sf = report["seifert"]
    lines.append(f"  seifert: b = {tuple(sf['b'])}, delta = {sf['delta']}, "
                 f"R = {sf['r_invariant']}")
    g = report["graph"]
    lines.append(f"  graph: {len(g['weights'])} nodes, weights {g['weights']}")
    f = report["form"]
    lines.append(f"  form: det = {f['determinant']}, signature = {f['signature']}"
                 f" ({f['definiteness']})")
    d = report["diagonalization"]
    if d["found"]:
        lines.append(f"  diagonalization: found ({d['root_pairs']} root pairs)")
    else:
        lines.append(f"  diagonalization: failed ({d['certificate']})")
    if "equivariant" in report:
        eq = report["equivariant"]
        pts = ", ".join(f"({a},{b})" for a, b in eq["fixed_points"])
        lines.append(f"  fixed points: {pts}")
        spheres = ", ".join(
            f"node {s['node']} (square {s['self_intersection']}, c_F = "
            f"{s['normal_rotation']})" for s in eq["fixed_spheres"])
        lines.append(f"  fixed spheres: {spheres}")
    if "obstruction" in report:
        ob = report["obstruction"]
        lines.append(f"  obstruction: {ob['status']}")
        if ob["certificate"]:
            lines.append(f"    {ob['certificate']}")
    if "locally_linear" in report:
        ll = report["locally_linear"]
        lines.append(f"  rho of quotient: {ll['rho_quotient']}")
        for cand in ll["candidates"]:
            lines.append(
                f"  lens candidate ({cand['r']},{cand['s']}): product "
                f"{cand['product_mod_p']} = rs {cand['rs_mod_p']} (mod p), "
                f"rho match: {cand['rho_match']}")
        if not ll["candidates"]:
            lines.append("  lens candidates: none")
    lines.append("conclusions:")
    for sentence in report["conclusions"]:
        lines.append(f"  - {sentence}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cache (an optimization only; verdicts never depend on it)
# ---------------------------------------------------------------------------

def cache_dir() -> str:
    path = os.environ.get(CACHE_ENV_VAR)
    if path is None:    # built only when unset: a hit pays nothing for it
        path = os.path.join(os.path.expanduser("~"), ".cache", "brieskorn")
    return path


@functools.cache
def source_digest() -> str:
    """The first 16 hex digits of the sha256 of this package's *.py files,
    by sorted name: each name, then the file's bytes.  Computed on first
    use, once per process, so importing the package reads no file."""
    import hashlib      # not at import: loading OpenSSL would slow start-up
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as handle:
            data = handle.read()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()[:16]


def _stamp(a: int, b: int, c: int, p: Optional[int]) -> bytes:
    """An entry's first line up to its text length: the schema version,
    the writer's source_digest and the input."""
    return (f"brieskorn {SCHEMA_VERSION} {source_digest()} {a} {b} {c} {p} "
            .encode())


def _read_entry(path: str, a: int, b: int, c: int, p: Optional[int],
                text: bool) -> Union[Dict, str, None]:
    """The text (or, text=False, the report) that the entry at path holds
    for this input, or None; OSError when there is no readable file, and
    ValueError when the text or the report does not decode.  The reads are
    raw os.read calls: through a buffered file object the same reads took
    8.5 us against 6.6 us for Sigma(3,16,113) at p = 5, and a whole
    cached_analysis text hit 14.5 us against 12.4 us."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        stamp = _stamp(a, b, c, p)
        line = os.read(fd, len(stamp) + 21)
        line = line[:line.find(b"\n") + 1]
        n = line[len(stamp):-1]
        # bytes.isdigit is ASCII only: no sign, space or "_", which int()
        # would take.  The text and its newline must fit in the file, so a
        # forged n reads and allocates nothing more.
        size = os.fstat(fd).st_size
        if not (line.startswith(stamp) and n.isdigit()
                and len(line) + int(n) < size):
            return None
        n = int(n)
        os.lseek(fd, len(line), os.SEEK_SET)
        body = os.read(fd, n + 1 if text else size)
        if body[n:n + 1] != b"\n":
            return None
        if text:
            return body[:n].decode("utf-8")
        report = json.loads(body[n + 1:].decode("utf-8"))
        if (isinstance(report, dict)
                and report.get("schema_version") == SCHEMA_VERSION
                and report.get("input") == {"a": a, "b": b, "c": c, "p": p}):
            return report
        return None
    finally:
        os.close(fd)


def cached_analysis(a: int, b: int, c: int, p: Optional[int] = None, *,
                    text: bool = False) -> Union[Dict, str]:
    """build_analysis with a transparent file cache holding one entry per
    input, analyze_{a}_{b}_{c}_p{p}.json for the sorted triple and p.  The
    input is validated before the lookup, so a bad p is never served or
    cached.

    An entry has three parts: a stamp line, "brieskorn <SCHEMA_VERSION>
    <source_digest> <a> <b> <c> <p> <n>", where n is the byte length of
    the rendered text; the text's n UTF-8 bytes and a newline; then the
    report as one line of compact JSON.  A hit needs a first line that
    starts with the stamp this code would write for this input and ends
    in an n that is a run of at most 20 ASCII digits and leaves room in
    the file for the text and its newline; the check reads at most the
    stamp line's length, so a forged n reads and allocates nothing more.
    With text=True the result is the text, and a hit reads and decodes
    its n bytes alone, so the report is never read; otherwise a hit slices
    past the text by its length, without decoding it, and decodes the
    report, which must be an object of this schema for this input too.  Anything else, an entry
    written by other code or in another layout included, is a miss, and
    the entry is rewritten in place.  A miss renders the text once, for
    the entry and the result.  The stamp, and so the source digest, is
    built only once an entry is opened or written: an unusable cache
    directory, an empty name included, is a miss that is not cached and
    hashes no source, and the result is still returned."""
    triple = BrieskornTriple.of(a, b, c)
    if p is not None:
        check_action(triple, p)
    a, b, c = triple.entries
    directory = cache_dir()
    # An empty value names no directory, not the working one: the path is
    # then "", which open and makedirs refuse, so nothing is read or written.
    path = directory and os.path.join(directory,
                                      f"analyze_{a}_{b}_{c}_p{p}.json")
    try:
        hit = _read_entry(path, a, b, c, p, text)
        if hit is not None:
            return hit
    except (OSError, ValueError):  # ValueError: corrupt entry
        pass
    report = build_analysis(a, b, c, p)
    rendered = render_text(report)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".analyze_",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                data = rendered.encode("utf-8")
                handle.write(b"%s%d\n%s\n" % (_stamp(a, b, c, p), len(data),
                                               data))
                # compact, by the C encoder: one ASCII line
                handle.write(json.dumps(report).encode("ascii"))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass   # not cached; the cache is an optimization only
    return rendered if text else report
