"""Exact-arithmetic obstructions for extending free cyclic actions on
Brieskorn homology spheres over the 4-manifolds they bound.

The pipeline: Seifert invariants -> canonical negative definite plumbing
-> integral diagonalization -> equivariant rotation markup -> sign
obstruction (smooth case) and eta/rho comparison with lens spaces
(locally linear case).  Everything is computed in exact integer, rational
and cyclotomic arithmetic.
"""

__version__ = "1.0.0"

from .records import InputError, InternalInvariantError
from .arith import HJExpansion, hj_expand, is_prime
from .seifert import (BrieskornTriple, SeifertData, check_action, check_order,
                      family, seifert_invariants, standard_action_valid)
from .plumbing import (EquivariantMarkup, PlumbingGraph, PropagationError,
                       canonical_pair, canonical_resolution, graph_signature,
                       intersection_matrix, propagate_rotations, star, to_dot,
                       to_tgf)
from .lattice import (Diagonalization, DiagonalizationFailure,
                      UnimodularForm, diagonalize, enumerate_roots)
from .obstruction import (Certificate, ConstraintError, ConstraintSystem,
                          ObstructionVerdict, build_constraints, decide)
from .spectral import (LensCandidate, canonical_lens_pair, coefficients_at,
                       eta_brieskorn, eta_from_fixed_data, ll_extension_search,
                       nu_defect, rho_from_eta, rho_lens_table)
from .report import build_analysis, cached_analysis, render_json, render_text

__all__ = [
    "__version__", "InputError",
    "HJExpansion", "hj_expand", "is_prime",
    "BrieskornTriple", "SeifertData", "check_action", "check_order", "family",
    "seifert_invariants", "standard_action_valid",
    "EquivariantMarkup", "InternalInvariantError", "PlumbingGraph",
    "PropagationError", "canonical_pair", "canonical_resolution",
    "graph_signature", "intersection_matrix",
    "propagate_rotations", "star", "to_dot", "to_tgf",
    "Diagonalization", "DiagonalizationFailure", "UnimodularForm",
    "diagonalize", "enumerate_roots",
    "Certificate", "ConstraintError", "ConstraintSystem",
    "ObstructionVerdict", "build_constraints", "decide",
    "LensCandidate", "canonical_lens_pair", "coefficients_at",
    "eta_brieskorn", "eta_from_fixed_data", "ll_extension_search",
    "nu_defect", "rho_from_eta", "rho_lens_table",
    "build_analysis", "cached_analysis", "render_json", "render_text",
]
