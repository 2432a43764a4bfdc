"""The input check, path and source digest of a cache lookup against the
code they replaced.

`cached_analysis` checks (a, b, c, p) on plain ints and builds no
`BrieskornTriple` before the lookup.  The check it replaced,
`BrieskornTriple.of` then `check_action`, is the oracle: under
`hypothesis` both must accept the same inputs, the lookup must see the
record's sorted entries, and both must refuse the rest with the same
`InputError` text.  The entry path must be the string
`os.path.join(directory, name)` gives.  `source_digest` hashes with the
interpreter's own BLAKE2b module, which must equal a plain-Python
BLAKE2b, checked against RFC 7693's vector, over the same bytes, also
when each file takes many reads.
"""

import os
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import brieskorn.cache as cache
from brieskorn.cache import _stamp, cached_analysis
from brieskorn.cli import main
from brieskorn.records import InputError
from brieskorn.rules import P_MAX
from brieskorn.seifert import BrieskornTriple, check_action

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


def test_parsed_text_analyze_reads_no_report(tmp_cache, capsys):
    """`--p=5` is not the plain argv, so the parser and cmd_analyze serve
    it.  With no --json that is a text lookup: an entry whose report line
    no longer decodes is still a hit, printed as stored and not
    rewritten.  A report read would see a corrupt entry, rebuild it and
    rewrite it."""
    argv = ["analyze", "3", "16", "113", "--p=5"]
    assert main(argv) == 0
    miss = capsys.readouterr()
    [entry] = tmp_cache.iterdir()
    # The report is the entry's last line, one line of compact JSON.
    head, _, report = entry.read_bytes().rpartition(b"\n")
    assert report.startswith(b"{")
    broken = head + b"\n{not json"
    entry.write_bytes(broken)
    assert main(argv) == 0
    assert capsys.readouterr() == miss
    assert miss.err == ""
    assert entry.read_bytes() == broken


M64 = (1 << 64) - 1
IV = (0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b,
      0xa54ff53a5f1d36f1, 0x510e527fade682d1, 0x9b05688c2b3e6c1f,
      0x1f83d9abfb41bd6b, 0x5be0cd19137e2179)
SIGMA = ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
         (14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3),
         (11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4),
         (7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8),
         (9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13),
         (2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9),
         (12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11),
         (13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10),
         (6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5),
         (10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0))
# The state words each G mixes: the four columns, then the four diagonals.
MIXES = ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
         (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14))


def reference_blake2b(data, digest_size):
    """Unkeyed BLAKE2b as RFC 7693 specifies it, in plain Python, as hex."""
    h = list(IV)
    h[0] ^= 0x01010000 | digest_size
    blocks = [data[i:i + 128] for i in range(0, len(data), 128)] or [b""]
    for i, block in enumerate(blocks):
        last = i == len(blocks) - 1
        m = [int.from_bytes(block.ljust(128, b"\0")[j:j + 8], "little")
             for j in range(0, 128, 8)]
        v = h + list(IV)
        v[12] ^= len(data) if last else 128 * (i + 1)    # under 2**64
        v[14] ^= M64 if last else 0
        for r in range(12):
            s = SIGMA[r % 10]
            for k, (a, b, c, d) in enumerate(MIXES):
                for x, p, q in ((m[s[2 * k]], 32, 24),
                                (m[s[2 * k + 1]], 16, 63)):
                    v[a] = (v[a] + v[b] + x) & M64
                    v[d] = ((v[d] ^ v[a]) >> p | (v[d] ^ v[a]) << 64 - p) & M64
                    v[c] = (v[c] + v[d]) & M64
                    v[b] = ((v[b] ^ v[c]) >> q | (v[b] ^ v[c]) << 64 - q) & M64
        h = [h[j] ^ v[j] ^ v[j + 8] for j in range(8)]
    return b"".join(w.to_bytes(8, "little") for w in h)[:digest_size].hex()


def test_reference_blake2b_gives_the_rfc_7693_vector():
    """RFC 7693, Appendix A: BLAKE2b-512 of "abc"."""
    assert reference_blake2b(b"abc", 64) == (
        "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
        "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923")


def blake2b_of_sources(package):
    """The oracle: the reference 64-bit BLAKE2b over the package's *.py
    files by sorted name, each framed as name, NUL, byte length, NUL,
    bytes."""
    framed = b""
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), "rb") as handle:
            data = handle.read()
        framed += f"{name}\0{len(data)}\0".encode() + data
    return reference_blake2b(framed, 8)


def digest_with_reads_of(monkeypatch, read):
    """source_digest computed afresh, each os.read asking for read bytes,
    with hashlib unloaded."""
    monkeypatch.delitem(sys.modules, "hashlib", raising=False)
    monkeypatch.setattr(cache, "_SOURCE_READ", read)
    cache.source_digest.cache_clear()
    try:
        return cache.source_digest()
    finally:
        cache.source_digest.cache_clear()


def test_source_digest_is_the_blake2b_of_the_sources(monkeypatch):
    """source_digest gives the reference BLAKE2b of the framed sources,
    and loads no hashlib."""
    expected = blake2b_of_sources(os.path.dirname(cache.__file__))
    assert digest_with_reads_of(monkeypatch, cache._SOURCE_READ) == expected
    assert "hashlib" not in sys.modules


def test_source_digest_reads_each_file_to_its_end(monkeypatch):
    """With reads far shorter than the modules, each file takes many
    reads and the digest is unchanged."""
    expected = cache.source_digest()
    assert digest_with_reads_of(monkeypatch, 997) == expected
