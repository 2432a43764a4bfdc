"""The runner of tests/process_checks.py on synthetic `python -c` rows."""

import hashlib
import shlex

import pytest

import process_checks
from process_checks import ROWS, Row, check, launch, main, prefix, sha256

HI = hashlib.sha256(b"hi\n").hexdigest()
ALLOCATE = "b = b'x' * (64 << 20)"


def row(source, name="synthetic", timeout=10, **pins):
    return Row(name, "-c " + shlex.quote(source), timeout, **pins)


def test_a_row_that_meets_every_pin_passes():
    assert check(row("print('hi')", stdout=sha256(HI), rss_mb=40))[1] == []
    assert check(row("import sys; sys.exit('error: no')", code=1, stdout="",
                     stderr=prefix("error:")))[1] == []


@pytest.mark.parametrize("bad, problem", [
    (row("print('hi')", stdout=sha256("0" * 64)),
     f"stdout '{HI}', expected '{'0' * 64}'"),
    (row("raise SystemExit(3)"), "exit 3, expected 0"),
    (row("import sys; sys.exit('oops')", code=1, stderr="error: no\n"),
     r"stderr 'oops\n', expected 'error: no\n'"),
    (row("import time; time.sleep(30)", timeout=1), "timed out after 1 s"),
    (row(ALLOCATE, rss_mb=40), "peak RSS"),
    (row("import os; d = os.environ['BRIESKORN_CACHE_DIR']; os.mkdir(d); "
         "open(os.path.join(d, 'entry'), 'w')"),
     "cache entries 1, expected 0"),
])
def test_a_missed_pin_fails(bad, problem):
    run, problems = check(bad)
    assert len(problems) == 1 and problems[0].startswith(problem)
    assert run.seconds < 5      # the sleeper is killed, not waited for


def test_peak_rss_is_each_childs_own():
    # RUSAGE_CHILDREN would report the largest child reaped so far.
    assert check(row(ALLOCATE))[0].rss_mb > 64
    assert check(row("pass", rss_mb=40))[1] == []


def test_every_failing_row_is_reported(capsys):
    rows = (row("raise SystemExit(1)", "first"), row("pass", "good"),
            row("print()", "last", stdout=""))
    assert main([], rows) == 1
    out = capsys.readouterr().out
    assert "FAIL  first" in out and "ok  good" in out and "FAIL  last" in out
    assert out.endswith("2 failed\n")
    assert main(["good"], rows) == 0


def test_an_unknown_row_name_exits_nonzero(tmp_path):
    run = launch([process_checks.__file__, "no-such-row"], tmp_path,
                 timeout=30)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "no such row: no-such-row\n"


def test_row_names_are_unique():
    names = [r.name for r in ROWS]
    assert len(set(names)) == len(names)
