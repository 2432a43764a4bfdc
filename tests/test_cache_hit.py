"""The input check, path and source digest of a cache lookup against the
code they replaced.

`cached_analysis` checks (a, b, c, p) on plain ints and builds no
`BrieskornTriple` before the lookup.  The check it replaced,
`BrieskornTriple.of` then `check_action`, is the oracle: under
`hypothesis` both must accept the same inputs, the lookup must see the
record's sorted entries, and both must refuse the rest with the same
`InputError` text.  The entry path must be the string
`os.path.join(directory, name)` gives.  `source_digest` hashes with the
interpreter's own sha256 module, which must equal `hashlib.sha256` over
the same bytes.
"""

import hashlib
import os
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import brieskorn.cache as cache
from brieskorn.cache import _stamp, cached_analysis
from brieskorn.cli import main
from brieskorn.records import InputError
from brieskorn.seifert import P_MAX, BrieskornTriple, check_action

DIRECTORY = os.path.join("cache", "dir")
SERVED = "served text\n"


def name_of(a, b, c, p):
    return f"analyze_{a}_{b}_{c}_p{p}.json"


def lookup(a, b, c, p, directory=DIRECTORY):
    """What cached_analysis does with the input before it opens an entry:
    ("served", (path, a, b, c, p)) with the arguments its lookup gets, or
    ("refused", message)."""
    seen = []

    def read_entry(path, a, b, c, p, text):
        seen.append((path, a, b, c, p))
        return SERVED

    with mock.patch.object(cache, "_read_entry", read_entry), \
            mock.patch.dict(os.environ, {cache.CACHE_ENV_VAR: directory}):
        try:
            assert cached_analysis(a, b, c, p, text=True) == SERVED
        except InputError as exc:
            return "refused", str(exc)
    [args] = seen
    return "served", args


def oracle(a, b, c, p):
    """The same, by the record check: BrieskornTriple.of, then
    check_action when p is given."""
    try:
        triple = BrieskornTriple.of(a, b, c)
        if p is not None:
            check_action(triple, p)
    except InputError as exc:
        return "refused", str(exc)
    path = os.path.join(DIRECTORY, name_of(*triple.entries, p))
    return "served", (path, *triple.entries, p)


entries = st.one_of(st.integers(-3, 40), st.integers(2, 10 ** 30))


@st.composite
def inputs(draw):
    """Three entries, in any order, and p: None, one of the refused
    orders (2, 9, above P_MAX), a prime factor of an entry, or any small
    int."""
    a, b, c = draw(st.tuples(entries, entries, entries))
    factors = [q for q in (2, 3, 5, 7, 11, 13) if any(
        x % q == 0 for x in (a, b, c))]
    p = draw(st.one_of(
        st.none(), st.sampled_from([2, 9, P_MAX + 1, 100003, 10 ** 40]),
        st.sampled_from(factors or [None]), st.integers(-2, 120)))
    return a, b, c, p


@settings(max_examples=500, deadline=None)
@given(inputs())
@example((1, 3, 5, None))          # an entry below 2
@example((0, -4, 7, 5))
@example((4, 6, 7, None))          # not pairwise coprime
@example((3, 16, 113, None))       # no p
@example((3, 16, 113, 2))          # p = 2
@example((3, 16, 113, 9))          # p odd, not prime
@example((3, 16, 113, 3))          # p divides abc
@example((113, 16, 3, 5))          # served, sorted
@example((3, 16, 113, P_MAX + 1))  # p above P_MAX
@example((3, 16, 113, 100003))     # the first prime above P_MAX
def test_lookup_check_is_the_record_check(inp):
    assert lookup(*inp) == oracle(*inp)


@pytest.mark.parametrize("directory", [
    "cache", "cache/", "cache//", "/", os.path.join("a", "b"),
    os.path.join("a", "b", ""), os.sep + "abs" + os.sep])
def test_lookup_path_is_the_joined_path(directory):
    assert lookup(2, 3, 7, 5, directory) == ("served", (
        os.path.join(directory, name_of(2, 3, 7, 5)), 2, 3, 7, 5))


def test_entry_for_a_non_free_action_is_never_served(tmp_cache, capsys):
    """An entry planted for Sigma(2,3,7) at p = 7, which divides 42, with
    a stamp this code would write: the input is refused before the
    lookup."""
    tmp_cache.mkdir()
    text = b"PLANTED\n"
    planted = tmp_cache / name_of(2, 3, 7, 7)
    planted.write_bytes(_stamp(2, 3, 7, 7) + b"%d\n%s\n{}" % (len(text), text))
    message = "p = 7 divides 42: the standard action is not free"
    with pytest.raises(InputError, match=message):
        cached_analysis(2, 3, 7, 7, text=True)
    assert main(["analyze", "7", "2", "3", "--p", "7"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_source_digest_is_the_sha256_of_the_sources(monkeypatch):
    """The interpreter's own sha256 gives hashlib.sha256 of the same
    bytes, and hashlib stays unloaded."""
    package = os.path.dirname(cache.__file__)
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as handle:
            data = handle.read()
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    monkeypatch.delitem(sys.modules, "hashlib")
    cache.source_digest.cache_clear()
    try:
        assert cache.source_digest() == digest.hexdigest()[:16]
        assert "hashlib" not in sys.modules
    finally:
        cache.source_digest.cache_clear()
