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
