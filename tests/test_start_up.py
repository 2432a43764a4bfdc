"""What start-up loads: `import brieskorn.cli` and an `analyze` text
cache hit load the six modules a hit runs, and none of the pipeline; the
package's exported names are imported from their modules on first use
(PEP 562)."""

import os
import pathlib
import subprocess
import sys

import pytest

import brieskorn
from brieskorn.cache import cached_analysis

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HIT_MODULES = ["brieskorn", "brieskorn.arith", "brieskorn.cache",
               "brieskorn.cli", "brieskorn.records", "brieskorn.seifert"]
LOADED = ("import sys\n"
          "print(sorted(m for m in sys.modules"
          " if m.partition('.')[0] == 'brieskorn'),"
          " sorted({'fractions', 'decimal'} & set(sys.modules)))\n")


def run_fresh(code, **env):
    """The stdout of code run in a fresh interpreter, then the package
    modules and the two number modules it loaded."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + LOADED],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path, **env))
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
    out = run_fresh(code, BRIESKORN_CACHE_DIR=str(tmp_cache))
    assert out == text + f"{HIT_MODULES} []\n"
    assert entry.read_bytes() == before         # served, not rewritten


@pytest.mark.parametrize("name", brieskorn.__all__)
def test_exported_name_resolves_to_its_home(monkeypatch, name):
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
