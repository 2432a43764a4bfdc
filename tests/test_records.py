"""The result records (brieskorn.records): frozen, compared and hashed by
their fields, built by a generated __init__ that runs __post_init__, and
a package import that loads neither dataclasses nor inspect."""

import functools
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

from brieskorn import (BrieskornTriple, HJExpansion, UnimodularForm,
                       build_constraints, canonical_resolution, decide,
                       diagonalize, eta_brieskorn, family, fixed_point_data,
                       hj_expand, intersection_matrix, ll_extension_search,
                       propagate_rotations, seifert_invariants)
from brieskorn.lattice import Diagonalization

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

RECORD_CLASSES = {
    "BrieskornTriple", "HJExpansion", "SeifertData", "PlumbingGraph",
    "EquivariantMarkup", "Elimination", "UnimodularForm", "Diagonalization",
    "DiagonalizationFailure", "ConstraintSystem", "Certificate",
    "ObstructionVerdict", "FixedPointData", "LensCandidate",
}


def _records():
    """One record of each class, from real analyses: Sigma(3,16,113) at
    p = 5, the failed diagonalization of Sigma(2,3,5), and the lens
    candidate of the locally linear stern member r = 3, s = 5 at p = 5
    (again Sigma(3,16,113))."""
    triple = BrieskornTriple.of(3, 16, 113)
    sd = seifert_invariants(triple)
    graph = canonical_resolution(sd)
    form = UnimodularForm(intersection_matrix(graph))
    diag = diagonalize(form)
    markup = propagate_rotations(graph, 5)
    verdict = decide(build_constraints(markup, diag))
    e8 = UnimodularForm(intersection_matrix(canonical_resolution(
        seifert_invariants(BrieskornTriple.of(2, 3, 5)))))
    member = family("stern", 3, 5)
    (lens,) = ll_extension_search(member, 5, eta_brieskorn(member, 5))
    records = [triple, hj_expand(triple.a3, sd.b[2]), sd, graph, markup,
               form.elimination, form, diag, diagonalize(e8),
               build_constraints(markup, diag), verdict.certificate, verdict,
               fixed_point_data(markup, form.elimination.signature), lens]
    return {type(r).__name__: r for r in records}


RECORDS = _records()


def _rebuilt(record):
    """A new record of the same class from the same __init__ arguments."""
    names = inspect.signature(type(record)).parameters
    return type(record)(**{name: getattr(record, name) for name in names})


def test_every_record_class_is_covered():
    assert set(RECORDS) == RECORD_CLASSES
    assert RECORDS["ObstructionVerdict"].status == "infeasible"
    assert RECORDS["DiagonalizationFailure"].found is False
    assert RECORDS["LensCandidate"].rho_match


@pytest.mark.parametrize("name", sorted(RECORD_CLASSES))
def test_fields_are_frozen(name):
    record = RECORDS[name]
    field = next(iter(inspect.signature(type(record)).parameters))
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", sorted(RECORD_CLASSES))
def test_rebuilt_record_is_equal_with_equal_hash(name):
    record = RECORDS[name]
    again = _rebuilt(record)
    assert again is not record
    assert again == record and not again != record
    assert hash(again) == hash(record)
    assert record != tuple(vars(record).values())
    assert repr(again) == repr(record)
    assert repr(record).startswith(f"{name}(")


def test_triple_hits_the_seifert_cache():
    # seifert_invariants keeps no memo; what one keyed on triples needs is
    # that equal triples, however built, hash alike and share one entry.
    memo = functools.lru_cache(maxsize=None)(seifert_invariants)
    first = memo(BrieskornTriple(3, 16, 113))
    second = memo(BrieskornTriple.of(113, 16, 3))
    assert second is first
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_triples_sort_by_their_entries():
    triples = [BrieskornTriple(3, 16, 113), BrieskornTriple(2, 3, 7),
               BrieskornTriple(2, 5, 7), BrieskornTriple(2, 3, 5)]
    assert [t.entries for t in sorted(triples)] == [
        (2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 16, 113)]
    low, high = BrieskornTriple(2, 3, 5), BrieskornTriple(2, 3, 7)
    assert low < high and low <= high and high > low and high >= low
    assert low <= BrieskornTriple(2, 3, 5) >= low
    with pytest.raises(TypeError):
        low < (2, 3, 7)
    assert eval(repr(low)) == low


def test_only_the_triple_is_ordered():
    with pytest.raises(TypeError):
        RECORDS["SeifertData"] < RECORDS["SeifertData"]


def test_coordinates_take_no_part_in_equality():
    diag = RECORDS["Diagonalization"]
    again = Diagonalization(diag.form, diag.c)
    assert again.c_inv == diag.c_inv and again.coordinates == diag.coordinates
    object.__setattr__(again, "coordinates", ())
    assert again == diag and hash(again) == hash(diag)
    assert "coordinates" not in repr(diag)
    assert "coordinates" not in inspect.signature(Diagonalization).parameters


def test_defaults_and_cached_properties():
    graph = RECORDS["PlumbingGraph"]
    assert type(graph)(graph.weights, graph.edges) == graph
    form = UnimodularForm(RECORDS["UnimodularForm"].q)
    elimination = form.elimination
    assert form.elimination is elimination
    assert vars(form)["elimination"] is elimination
    assert form == RECORDS["UnimodularForm"]


def test_missing_or_extra_arguments_are_type_errors():
    with pytest.raises(TypeError):
        BrieskornTriple(2, 3)
    with pytest.raises(TypeError):
        BrieskornTriple(2, 3, 5, 7)
    with pytest.raises(TypeError):
        BrieskornTriple(2, 3, a3=5, a4=7)
    with pytest.raises(TypeError):
        Diagonalization(RECORDS["UnimodularForm"], RECORDS["Diagonalization"].c,
                        coordinates=())


def test_keyword_construction_runs_post_init():
    assert HJExpansion(numerator=7, denominator=-3,
                       terms=(-3, -2, -2)) == hj_expand(7, -3)
    with pytest.raises(ValueError):
        HJExpansion(numerator=7, denominator=-3, terms=(-2, -2))
    with pytest.raises(ValueError):
        BrieskornTriple(a1=2, a2=4, a3=5)


def test_import_loads_neither_dataclasses_nor_inspect():
    # The package's cold start: dataclasses imports inspect, and the two
    # were most of the import time.
    code = ("import sys\n"
            "import brieskorn.cli\n"
            "brieskorn.cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
