"""Analysis reports: the full pipeline for one triple.

`build_analysis` reads every stage function from this module's globals
at call time, so a caller may replace any of them (the benchmark's
tracer wraps them here).  The renderings and the file cache live in
`cache`, which loads this module on a cache miss only;
`cached_analysis`, `render_json` and `render_text` are re-exported here.
"""

from __future__ import annotations

from . import __version__
from .cache import SCHEMA_VERSION
from .cache import cached_analysis, render_json, render_text  # noqa: F401
from .lattice import UnimodularForm, diagonalize
from .obstruction import build_constraints, decide
# graph_signature is not called here; perfbench's tracer wraps it by name.
from .plumbing import (canonical_resolution, graph_signature,  # noqa: F401
                       intersection_matrix, propagate_rotations)
from .seifert import BrieskornTriple, check_action, seifert_invariants
from .spectral import eta_from_fixed_data, ll_extension_search, rho_from_eta


def build_analysis(a: int, b: int, c: int, p: int | None = None) -> dict:
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

    report: dict = {
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

    conclusions: list[str] = []
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
            "certificate": verdict.certificate.render(),
        }
        conclusions.append(
            f"If {name} bounds a smooth acyclic 4-manifold W whose "
            "fundamental group is normally generated by the image of "
            "the boundary's, then the standard free Z/"
            f"{p}-action on {name} does not extend to a smooth action "
            "on any such W (in particular not over a contractible one).")

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


def graph_section(graph) -> dict:
    """The report's "graph" section, which `graph --format json` prints
    with the intersection matrix added."""
    return {"weights": list(graph.weights),
            "edges": [list(e) for e in sorted(graph.edges)],
            "center": 0}
