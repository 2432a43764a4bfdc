"""The cache entry reader against the reader it replaced.

`brieskorn.cache._read_entry` reads an entry with one `os.read` of a
fixed chunk when the stamp line, the text and its newline fit in it, and
reads on only for a report read or a longer text.  `cache_oracle.py`
keeps the earlier reader, which read the stamp line alone, then the
file's size, then the text or the rest of the file.  Both must give the
same value, the same None and the same exception class on every entry:
valid ones whose text ends before, at or past the chunk's edge, and ones
with a flipped stamp byte, a forged length, a cut, a missing newline or
text that is not UTF-8.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from brieskorn.cache import _CHUNK, SCHEMA_VERSION, _read_entry, _stamp
from cache_oracle import read_entry as oracle_read_entry

BIG = 10 ** 3999 + 1
# Inputs, the last with a stamp longer than the chunk; the readers build
# the stamp and check nothing else of the input.
INPUTS = [(3, 16, 113, 5), (2, 7, 13, None), (BIG, BIG + 2, BIG + 4, 3)]


def edge(stamp: bytes) -> int:
    """The text length whose newline is the last byte of the first read."""
    first = max(_CHUNK, len(stamp) + 21)
    return next(n for n in range(first) if len(stamp) + len(str(n)) + n + 2
                == first)


def report_line(a, b, c, p) -> bytes:
    return json.dumps({"schema_version": SCHEMA_VERSION,
                       "input": {"a": a, "b": b, "c": c, "p": p},
                       "conclusions": ["x"]}).encode()


def entry(inp, text: bytes, report: bytes, n=None) -> bytes:
    length = str(len(text) if n is None else n).encode()
    return _stamp(*inp) + length + b"\n" + text + b"\n" + report


def outcome(reader, path, inp, text):
    try:
        return "value", reader(path, *inp, text)
    except (OSError, ValueError) as exc:
        return "raises", type(exc)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("entries") / "entry")


def both(path, data: bytes, inp):
    """Write data to path; the two readers' outcomes for a text and a
    report read, which must agree."""
    with open(path, "wb") as handle:
        handle.write(data)
    got = [outcome(reader, path, inp, text) for text in (True, False)
           for reader in (_read_entry, oracle_read_entry)]
    assert got[0] == got[1] and got[2] == got[3], (data[:200], got)
    return got[0], got[2]


LENGTHS_OF = {"empty": lambda e: 0, "short": lambda e: 5,
              "edge-1": lambda e: e - 1, "edge": lambda e: e,
              "edge+1": lambda e: e + 1, "long": lambda e: e + 2 * _CHUNK}


@pytest.mark.parametrize("inp", INPUTS, ids=["small", "no-p", "long-stamp"])
@pytest.mark.parametrize("length", LENGTHS_OF)
def test_valid_entry_is_served_by_both_readers(path, inp, length):
    """Empty text, a short one, one whose newline ends one byte before,
    at or after the first read, and one much longer: both readers serve
    the text and the report."""
    text = b"t" * LENGTHS_OF[length](edge(_stamp(*inp)))
    report = report_line(*inp)
    assert both(path, entry(inp, text, report), inp) == (
        ("value", text.decode()), ("value", json.loads(report)))


def test_text_hit_in_the_first_read_makes_three_system_calls(
        path, monkeypatch):
    """open, one read and close; no fstat, no seek, no second read."""
    inp = INPUTS[0]
    text = b"t" * edge(_stamp(*inp))
    with open(path, "wb") as handle:
        handle.write(entry(inp, text, report_line(*inp)))
    calls = []
    for name in ("open", "read", "close", "fstat", "lseek"):
        def spy(*args, real=getattr(os, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(os, name, spy)
    assert _read_entry(path, *inp, True) == text.decode()
    assert calls == ["open", "read", "close"]


TEXT_UNITS = [b"t", "é".encode(), b"\xff", b"\n"]
FORGED = ["0", "1" * 21, "0" * 21, "1" * 20, "-5", "+5", "1_0", " 5", "",
          "5 ", "٥", str(10 ** 12)]


@st.composite
def entries(draw):
    """An input and the bytes of an entry for it: valid, or broken in one
    way."""
    inp = draw(st.sampled_from(INPUTS))
    stamp = _stamp(*inp)
    n = draw(st.one_of(st.integers(0, 40),
                       st.integers(-3, 3).map(lambda d: edge(stamp) + d),
                       st.integers(_CHUNK, 3 * _CHUNK)))
    unit = draw(st.sampled_from(TEXT_UNITS[:2]))
    text = bytearray((unit * n)[:n])
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        at = draw(st.integers(0, n - 1))
        text[at:at + 1] = draw(st.sampled_from(TEXT_UNITS))
    report = draw(st.sampled_from([
        report_line(*inp), report_line(2, 3, 5, None), b"[1, 2]",
        report_line(*inp)[:-1], b"", b"\xff"]))
    data = bytearray(entry(inp, bytes(text), report))
    start = data.index(b"\n", len(stamp)) + 1
    fault = draw(st.sampled_from(["none", "flip", "length", "past-end",
                                  "cut", "newline"]))
    if fault == "flip":
        at = draw(st.integers(0, len(stamp) - 1))
        data[at] ^= draw(st.integers(1, 255))
    elif fault == "length":
        data[len(stamp):start - 1] = draw(st.sampled_from(FORGED)).encode()
    elif fault == "past-end":
        # A length whose text and newline need one byte more than the
        # file has (shift 0), two more (1), or end at its last byte (-1).
        rest = len(data) - start
        shift = draw(st.integers(-1, 1))
        data = bytearray(entry(inp, data[start:], b"", rest + shift))[:-1]
    elif fault == "cut":
        del data[draw(st.integers(0, len(data))):]
    elif fault == "newline":
        end = start + n
        data[end:end + 1] = draw(st.sampled_from([b"", b"x", b"\r"]))
    return inp, bytes(data)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(entries())
def test_readers_agree_on_forged_and_broken_entries(path, case):
    inp, data = case
    both(path, data, inp)
