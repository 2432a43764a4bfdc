"""Exact-arithmetic obstructions for extending free cyclic actions on
Brieskorn homology spheres over the 4-manifolds they bound.

The pipeline: Seifert invariants -> canonical negative definite plumbing
-> integral diagonalization -> equivariant rotation markup -> sign
obstruction (smooth case) and eta/rho comparison with lens spaces
(locally linear case).  Everything is computed in exact integer, rational
and cyclotomic arithmetic.

Each name of ``__all__`` is imported from its module on first use (PEP
562), so ``import brieskorn.cli`` loads only the modules a cache hit
runs, not the whole pipeline.
"""

__version__ = "1.0.0"

# Each exported name, by the module that defines it.
_HOME = {name: module for module, names in {
    "records": ("InputError", "InternalInvariantError"),
    "arith": ("HJExpansion", "hj_expand", "is_prime"),
    "seifert": ("BrieskornTriple", "SeifertData", "check_action", "check_order",
                "family", "seifert_invariants", "standard_action_valid"),
    "plumbing": ("EquivariantMarkup", "PlumbingGraph", "PropagationError",
                 "canonical_pair", "canonical_resolution", "graph_signature",
                 "intersection_matrix", "propagate_rotations", "star",
                 "to_dot", "to_tgf"),
    "lattice": ("Diagonalization", "DiagonalizationFailure", "UnimodularForm",
                "diagonalize", "enumerate_roots"),
    "obstruction": ("Certificate", "ConstraintError", "ConstraintSystem",
                    "ObstructionVerdict", "build_constraints", "decide"),
    "spectral": ("LensCandidate", "canonical_lens_pair", "coefficients_at",
                 "eta_brieskorn", "eta_from_fixed_data", "ll_extension_search",
                 "nu_defect", "rho_from_eta", "rho_lens_table"),
    "cache": ("cached_analysis", "render_json", "render_text"),
    "report": ("build_analysis",),
}.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value     # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
