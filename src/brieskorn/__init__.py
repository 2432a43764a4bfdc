"""Exact-arithmetic obstructions for extending free cyclic actions on
Brieskorn homology spheres over the 4-manifolds they bound.

The pipeline: Seifert invariants -> canonical negative definite plumbing
-> integral diagonalization -> equivariant rotation markup -> sign
obstruction (smooth case) and eta/rho comparison with lens spaces
(locally linear case).  Everything is computed in exact integer, rational
and cyclotomic arithmetic.

The package exports the pipeline and nothing else:

- ``build_analysis(a, b, c, p)``, the report of one run (``report``);
- ``cached_analysis``, the same report through the file cache, and its
  two renderings ``render_json`` and ``render_text`` (``cache``);
- ``BrieskornTriple`` and ``family``, the inputs (``seifert``);
- ``InputError`` (exit 1) and ``InternalInvariantError`` (exit 2), the
  two failures (``records``).

Each stage is imported from the module that defines it, for example
``from brieskorn.lattice import diagonalize``.

Each name of ``__all__`` is imported from its module on first use (PEP
562).  ``build_analysis`` stays lazy because ``report`` imports every
stage: ``import brieskorn.cli`` then loads only the modules a cache hit
runs, not the whole pipeline.
"""

__version__ = "1.0.0"

# Each exported name, by the module that defines it.
_HOME = {name: module for module, names in {
    "records": ("InputError", "InternalInvariantError"),
    "seifert": ("BrieskornTriple", "family"),
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
