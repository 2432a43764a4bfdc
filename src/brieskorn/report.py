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


def _is_for(line, key: Dict) -> bool:
    """Is a decoded entry line a JSON object of this schema for this input?"""
    return (isinstance(line, dict)
            and line.get("schema_version") == SCHEMA_VERSION
            and line.get("input") == key)


def cached_analysis(a: int, b: int, c: int, p: Optional[int] = None, *,
                    text: bool = False) -> Union[Dict, str]:
    """build_analysis with a transparent file cache holding one entry per
    input, analyze_{a}_{b}_{c}_p{p}.json for the sorted triple and p.  The
    input is validated before the lookup, so a bad p is never served or
    cached.

    An entry is two lines of compact JSON.  Line 1 is a header,
    {"schema_version", "source", "input", "text"}, whose source is the
    writer's source_digest and whose text is render_text of the report;
    line 2 is the report.  With text=True the result is that text, and a
    hit reads line 1 alone, so the report is never decoded; otherwise the
    result is the report, read from line 2.  A hit needs a header that is
    a JSON object of this schema version, this package source and this
    input with a str text, and, when the report is read, a line 2 that is
    an object of this schema for this input too; anything else, an entry
    written by other code included, is a miss, and the entry is rewritten
    in place.  A miss renders the text once, for the header and the
    result.  An unusable cache directory, an empty name included, is a
    miss that is not cached: the result is still returned."""
    triple = BrieskornTriple.of(a, b, c)
    if p is not None:
        check_action(triple, p)
    a, b, c = triple.entries
    key = {"a": a, "b": b, "c": c, "p": p}
    directory = cache_dir()
    # An empty value names no directory, not the working one: the path is
    # then "", which open and makedirs refuse, so nothing is read or written.
    path = directory and os.path.join(directory,
                                      f"analyze_{a}_{b}_{c}_p{p}.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            if (_is_for(header, key) and isinstance(header.get("text"), str)
                    and header.get("source") == source_digest()):
                if text:
                    return header["text"]
                report = json.loads(handle.read())
                if _is_for(report, key):
                    return report
    except (OSError, ValueError):  # ValueError: corrupt entry
        pass
    report = build_analysis(a, b, c, p)
    rendered = render_text(report)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".analyze_",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # compact, by the C encoder; neither line holds a newline
                handle.write(json.dumps({"schema_version": SCHEMA_VERSION,
                                         "source": source_digest(),
                                         "input": key, "text": rendered}))
                handle.write("\n")
                handle.write(json.dumps(report))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass   # not cached; the cache is an optimization only
    return rendered if text else report
