"""Reports are byte-identical to the recorded golden digests.

perfbench/golden.json holds the sha256 of render_json for every request
the benchmark can send: every lattice-n triple (stern members with up to
60 nodes), the non-diagonalizable triples, the cheap repeat-cache inputs
and the spectral-p grid at p up to 31.  All of them are checked.
"""

import hashlib
import json
import pathlib

import pytest

import brieskorn.arith
from brieskorn import build_analysis, render_json

GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent.parent
                     / "perfbench" / "golden.json").read_text(encoding="utf-8"))
KEYS = sorted(GOLDEN)


def test_golden_grid_size():
    assert len(KEYS) == 359


@pytest.mark.parametrize("key", KEYS)
def test_report_matches_golden_digest(key):
    a, b, c, p = key.split(",")
    report = build_analysis(int(a), int(b), int(c), None if p == "None" else int(p))
    digest = hashlib.sha256(render_json(report).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[key]


@pytest.mark.parametrize("key", ["3,16,113,5", "2,11,53,13", "3,40,281,13"])
def test_reports_need_no_field_product(key):
    # eta(zeta) is an integer combination of nu values, so no report adds
    # or multiplies in Q(zeta_p): the package has no field class, and every
    # report still matches its digest with nu computed afresh.  Inputs: the
    # paper's example, a stern member at p = 13, and the locally linear
    # member stern r=3, s=13.
    assert "Cyclotomic" not in brieskorn.__all__
    assert not hasattr(brieskorn, "Cyclotomic")
    assert not hasattr(brieskorn.arith, "Cyclotomic")
    test_report_matches_golden_digest(key)
