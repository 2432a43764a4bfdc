"""What start-up loads: `import brieskorn.cli` and an `analyze` text
cache hit load the six modules a hit runs, and none of the pipeline; the
package exports the pipeline's eight names, each imported from its
module on first use (PEP 562), and every name it exported before that
cut resolves in its module alone.  The import loads no `argparse`, a hit
none of `argparse`, `gettext` or `json`, and neither a hit nor an
uncached run loads `typing` when `site` does not load it first
(`python -S`).  A hit hashes the source with the interpreter's own
BLAKE2b module, `_blake2`, and loads neither `hashlib`, OpenSSL's
`_hashlib` nor the builtin sha256.  `python -X importtime -m brieskorn`
checks the same sets on the module entry point."""

import importlib
import sys

import pytest

import brieskorn
from brieskorn.cache import cached_analysis
from process_checks import launch

HIT_MODULES = ["brieskorn", "brieskorn.arith", "brieskorn.cache",
               "brieskorn.cli", "brieskorn.records", "brieskorn.seifert"]
LOADED = ("import sys\n"
          "print(sorted(m for m in sys.modules"
          " if m.partition('.')[0] == 'brieskorn'),"
          " sorted({'fractions', 'decimal'} & set(sys.modules)))\n")


UNUSED_BY_A_HIT = ["argparse", "gettext", "json"]
# hashlib, OpenSSL's _hashlib and the builtin sha256 (_sha2 since 3.12).
HASHES = ["_hashlib", "hashlib", "_sha256", "_sha2"]
ANALYZE = ["analyze", "3", "16", "113", "--p", "5"]
PIPELINE = ["BrieskornTriple", "InputError", "InternalInvariantError",
            "build_analysis", "cached_analysis", "family", "render_json",
            "render_text"]
# The names the package root exported before it was cut to the pipeline,
# by the module that defines each; `plumbing.star`, since deleted, is left
# out.
FORMER_EXPORTS = {name: module for module, names in {
    "arith": ("HJExpansion", "hj_expand", "is_prime"),
    "seifert": ("SeifertData", "check_action", "check_order",
                "seifert_invariants", "standard_action_valid"),
    "plumbing": ("EquivariantMarkup", "PlumbingGraph", "PropagationError",
                 "canonical_pair", "canonical_resolution", "graph_signature",
                 "intersection_matrix", "propagate_rotations", "to_dot",
                 "to_tgf"),
    "lattice": ("Diagonalization", "DiagonalizationFailure", "UnimodularForm",
                "diagonalize", "enumerate_roots"),
    "obstruction": ("Certificate", "ConstraintError", "ConstraintSystem",
                    "ObstructionVerdict", "build_constraints", "decide"),
    "spectral": ("LensCandidate", "canonical_lens_pair", "coefficients_at",
                 "eta_brieskorn", "eta_from_fixed_data", "ll_extension_search",
                 "nu_defect", "rho_from_eta", "rho_lens_table"),
}.items() for name in names}


def run_fresh(code, *flags, cache_dir=""):
    """The stdout of code run in a fresh interpreter with flags, then the
    package modules and the two number modules it loaded."""
    proc = launch([*flags, "-c", code + LOADED], cache_dir, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_parser_load_only_the_hit_modules():
    code = "import brieskorn.cli\nbrieskorn.cli.build_parser()\n"
    assert run_fresh(code) == f"{HIT_MODULES} []\n"


def test_text_cache_hit_loads_only_the_hit_modules(tmp_cache):
    text = cached_analysis(3, 16, 113, 5, text=True)
    [entry] = tmp_cache.iterdir()
    before = entry.read_bytes()
    code = ("from brieskorn.cli import main\n"
            "assert main(['analyze', '3', '16', '113', '--p', '5']) == 0\n")
    out = run_fresh(code, cache_dir=tmp_cache)
    assert out == text + f"{HIT_MODULES} []\n"
    assert entry.read_bytes() == before         # served, not rewritten


def loaded_among(names):
    """Code that prints which of names the interpreter has loaded."""
    return f"import sys\nprint(sorted(set({names!r}) & set(sys.modules)))\n"


def test_import_loads_no_argparse():
    out = run_fresh("import brieskorn.cli\n" + loaded_among(["argparse"]))
    assert out == f"[]\n{HIT_MODULES} []\n"


@pytest.mark.parametrize("flags, unused", [
    ((), UNUSED_BY_A_HIT), (("-S",), [*UNUSED_BY_A_HIT, "typing"])],
    ids=["site", "no-site"])
def test_text_cache_hit_loads_no_argparse_json_or_typing(tmp_cache, flags,
                                                         unused):
    text = cached_analysis(3, 16, 113, 5, text=True)
    code = ("from brieskorn.cli import main\n"
            "assert main(['analyze', '3', '16', '113', '--p', '5']) == 0\n"
            + loaded_among(unused))
    out = run_fresh(code, *flags, cache_dir=tmp_cache)
    assert out == text + f"[]\n{HIT_MODULES} []\n"


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_text_cache_hit_loads_no_openssl(tmp_cache, flags):
    text = cached_analysis(3, 16, 113, 5, text=True)
    code = ("from brieskorn.cli import main\n"
            "assert main(['analyze', '3', '16', '113', '--p', '5']) == 0\n"
            + loaded_among(["_blake2", *HASHES]))
    out = run_fresh(code, *flags, cache_dir=tmp_cache)
    assert out == text + f"['_blake2']\n{HIT_MODULES} []\n"


@pytest.mark.parametrize("flags, argv, package, unused", [
    ((), ["--version"], HIT_MODULES, ["dataclasses", "inspect"]),
    ((), ANALYZE, HIT_MODULES, ["fractions", *UNUSED_BY_A_HIT, *HASHES]),
    (("-S",), [*ANALYZE, "--no-cache"], None, ["typing"])],
    ids=["version", "hit", "uncached-no-site"])
def test_module_run_imports(tmp_cache, flags, argv, package, unused):
    # What `python -m brieskorn` imports, as `-X importtime` lists it: the
    # entry point, not only `import brieskorn.cli`.
    text = cached_analysis(3, 16, 113, 5, text=True)
    proc = launch([*flags, "-X", "importtime", "-m", "brieskorn", *argv],
                  tmp_cache, timeout=60)
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("import time:") for line in lines)
    assert (proc.returncode, proc.stdout) == (
        0, f"{brieskorn.__version__}\n" if argv == ["--version"] else text)
    loaded = {line.rpartition("|")[2].strip() for line in lines}
    assert "brieskorn.cli" in loaded
    if package is not None:
        assert sorted(m for m in loaded if m.startswith("brieskorn")) == package
    assert not loaded & set(unused)


def test_an_uncached_analysis_loads_no_typing(tmp_cache):
    text = cached_analysis(3, 16, 113, 5, text=True)
    code = ("from brieskorn.cli import main\n"
            "assert main(['analyze', '3', '16', '113', '--p', '5',"
            " '--no-cache']) == 0\n" + loaded_among(["typing"]))
    out = run_fresh(code, "-S", cache_dir=tmp_cache)
    assert out.startswith(text + "[]\n")


def test_the_package_exports_the_pipeline():
    assert sorted(brieskorn.__all__) == sorted(["__version__", *PIPELINE])


@pytest.mark.parametrize("name", [*brieskorn.__all__, *FORMER_EXPORTS])
def test_exported_name_resolves_to_its_home(monkeypatch, name):
    if name in FORMER_EXPORTS:
        # A stage the package root once exported resolves in its module
        # alone.
        with pytest.raises(AttributeError):
            getattr(brieskorn, name)
        assert name not in dir(brieskorn)
        namespace = {}
        exec("from brieskorn import *", namespace)
        assert name not in namespace
        home = importlib.import_module(f"brieskorn.{FORMER_EXPORTS[name]}")
        assert getattr(home, name).__module__ == home.__name__
        return
    # Forget any earlier lookup, so dir() and the read go through
    # __dir__ and __getattr__.
    if name != "__version__":
        monkeypatch.delitem(vars(brieskorn), name, raising=False)
    assert name in dir(brieskorn)
    value = getattr(brieskorn, name)
    home = sys.modules[getattr(value, "__module__", "brieskorn")]
    assert getattr(home, name) is value
    assert (home is brieskorn) == (name == "__version__")
    namespace = {}
    exec("from brieskorn import *", namespace)
    assert namespace[name] is value


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as exc:
        brieskorn.no_such_name
    assert str(exc.value) == "module 'brieskorn' has no attribute 'no_such_name'"
    assert not hasattr(brieskorn, "no_such_name")
    with pytest.raises(ImportError):
        exec("from brieskorn import no_such_name", {})
