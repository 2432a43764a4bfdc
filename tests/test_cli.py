"""Reports, cache, and the command-line interface."""

import hashlib
import io
import json
import math
import os
import pathlib
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

import brieskorn
from brieskorn import cli, commands
from brieskorn.cache import (SCHEMA_VERSION, cached_analysis, render_json,
                             render_text, source_digest)
from brieskorn.cli import main
from brieskorn.matrices import render_matrix_text
from brieskorn.obstruction import ConstraintError
from brieskorn.plumbing import PropagationError
from brieskorn.report import build_analysis
from brieskorn.seifert import BrieskornTriple
from brieskorn.spectral import eta_brieskorn, ll_extension_search
from conftest import REFERENCE_QX
from process_checks import launch


def entry_of(report, text=None, **stamp) -> bytes:
    """The cache entry a miss writes for report: the stamp line, "brieskorn
    <schema> <source> <a> <b> <c> <p> <n>", then the n bytes of the
    rendered text (or of text, when given) and a newline, then the compact
    report.  A keyword replaces that field of the stamp."""
    data = render_text(report).encode() if text is None else text
    fields = {"magic": "brieskorn", "schema": SCHEMA_VERSION,
              "source": source_digest(), **report["input"], "n": len(data),
              **stamp}
    return (" ".join(map(str, fields.values())).encode() + b"\n" + data
            + b"\n" + json.dumps(report).encode())


class TestReport:
    def test_sections_without_p(self):
        report = build_analysis(2, 3, 5)
        assert report["seifert"]["r_invariant"] == 1
        assert report["diagonalization"]["found"] is False
        assert "equivariant" not in report
        assert any("does not bound a smooth contractible"
                   in c for c in report["conclusions"])

    def test_full_report(self):
        report = build_analysis(3, 16, 113, 5)
        assert report["obstruction"]["status"] == "infeasible"
        ll = report["locally_linear"]
        assert ll["rho_quotient"] == ["0", "7/5", "3/5", "3/5", "7/5"]
        assert [c["rho_match"] for c in ll["candidates"]] == [True]
        assert any("locally linear action with exactly one fixed point"
                   in c for c in report["conclusions"])
        assert any("does not extend to a smooth action"
                   in c for c in report["conclusions"])

    @pytest.mark.parametrize("a, b, c, p", [
        (3, 16, 113, 5), (2, 7, 31, 3), (3, 22, 155, 7)])
    def test_obstruction_section_matches_the_two_coloring(self, a, b, c, p):
        # The section and the smooth conclusion are what the general
        # 2-coloring's verdict gives; decide returned the same witness.
        import obstruction_oracle
        from brieskorn.lattice import UnimodularForm, diagonalize
        from brieskorn.obstruction import build_constraints
        from brieskorn.plumbing import (canonical_resolution,
                                        intersection_matrix,
                                        propagate_rotations)
        from brieskorn.seifert import seifert_invariants
        triple = BrieskornTriple.of(a, b, c)
        graph = canonical_resolution(seifert_invariants(triple))
        diag = diagonalize(UnimodularForm(intersection_matrix(graph)))
        cs = build_constraints(propagate_rotations(graph, p), diag)
        section, conclusion = obstruction_oracle.obstruction_section(
            cs, str(triple), p)
        report = build_analysis(a, b, c, p)
        assert report["obstruction"] == section
        assert report["conclusions"][1] == conclusion

    def test_json_roundtrip_and_recompute(self):
        report = build_analysis(3, 16, 113, 5)
        loaded = json.loads(render_json(report))
        assert loaded == report
        assert loaded == build_analysis(3, 16, 113, 5)

    def test_deterministic_rendering(self):
        a = build_analysis(2, 3, 7, 5)
        b = build_analysis(2, 3, 7, 5)
        assert render_json(a) == render_json(b)
        assert render_text(a) == render_text(b)

    @pytest.mark.parametrize("a, b, c, p", [
        (3, 16, 113, 5), (3, 16, 113, 7), (3, 16, 113, 13),
        (3, 19, 134, 5), (3, 28, 197, 5), (2, 3, 7, 11),
        # odd-r stern members with p | s
        (3, 31, 218, 5), (3, 22, 155, 7), (5, 36, 397, 7),
        (3, 32, 223, 11),
    ])
    def test_candidates_match_standalone_search(self, a, b, c, p):
        # The report hands its own eta(zeta) to the lens search; the
        # standalone search gets it from eta_brieskorn.
        report = build_analysis(a, b, c, p)
        triple = BrieskornTriple.of(a, b, c)
        standalone = ll_extension_search(triple, p, eta_brieskorn(triple, p))
        assert report["locally_linear"]["candidates"] == [
            {"r": cand.r, "s": cand.s, "product_mod_p": cand.product_residue,
             "rs_mod_p": cand.rs_residue,
             "multiset_classes": list(cand.multiset_residues),
             "rho_match": cand.rho_match}
            for cand in standalone]

    def test_no_floats_anywhere(self):
        def walk(x):
            if isinstance(x, float):
                raise AssertionError("float in report")
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            if isinstance(x, list):
                for v in x:
                    walk(v)
        walk(build_analysis(3, 16, 113, 5))

    @pytest.mark.parametrize("a, b, c, p", [
        (3, 16, 113, 5), (2, 3, 5, None), (3, 121, 848, 5)])
    def test_one_elimination_per_analysis(self, monkeypatch, a, b, c, p):
        import brieskorn.lattice
        import brieskorn.matrices
        import brieskorn.plumbing
        calls = []

        def counted(m):
            calls.append(len(m))
            return real(m)

        real = brieskorn.matrices.eliminate
        for module in (brieskorn.matrices, brieskorn.lattice,
                       brieskorn.plumbing):
            monkeypatch.setattr(module, "eliminate", counted)
        build_analysis(a, b, c, p)
        assert len(calls) == 1


class TestCache:
    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_bad_order_is_rejected_and_not_cached(self, tmp_cache, p):
        # Sigma(2,7,13) does not diagonalize, so no stage that needs p runs.
        with pytest.raises(ValueError, match="odd prime"):
            build_analysis(2, 7, 13, p)
        with pytest.raises(ValueError, match="odd prime"):
            cached_analysis(2, 7, 13, p)
        assert not tmp_cache.exists() or not any(tmp_cache.iterdir())

    def test_cache_is_keyed_on_the_sorted_triple(self, tmp_cache):
        first = cached_analysis(13, 7, 2, 5)
        [entry] = tmp_cache.iterdir()
        assert cached_analysis(2, 7, 13, 5) == first
        assert list(tmp_cache.iterdir()) == [entry]

    def test_cache_never_changes_verdict(self, tmp_cache):
        fresh = cached_analysis(3, 16, 113, 5)
        assert tmp_cache.exists()
        cached = cached_analysis(3, 16, 113, 5)
        uncached = build_analysis(3, 16, 113, 5)
        assert fresh == cached == uncached

    def test_cache_disabled_writes_nothing(self, tmp_cache, capsys):
        source_digest.cache_clear()
        assert main(["analyze", "2", "3", "7", "--no-cache"]) == 0
        assert capsys.readouterr().out == render_text(build_analysis(2, 3, 7))
        assert not tmp_cache.exists()
        # --no-cache does not even hash the source for a key.
        assert source_digest.cache_info().currsize == 0

    def test_corrupt_entry_is_a_miss_and_is_rewritten(self, tmp_cache, capsys):
        report = build_analysis(2, 3, 7, 5)
        cached_analysis(2, 3, 7, 5)
        [entry] = tmp_cache.iterdir()
        good = entry_of(report)
        stamp = good.split(b"\n", 1)[0]
        text = render_text(report)
        n = len(text.encode())
        for bad in (b"", stamp[: len(stamp) // 2], b"\xff\xfe{", b"null\n",
                    b"{}", entry_of(build_analysis(3, 16, 113, 5)),
                    # a stamp of another input, schema, source or program
                    entry_of(report, p=7), entry_of(report, a=3),
                    entry_of(report, schema=2),
                    entry_of(report, source="0123456789abcdef"),
                    entry_of(report, magic="brieskorn2"),
                    # a length that is negative, not a run of ASCII digits,
                    # over-long, or past the text's newline or the file's end
                    entry_of(report, n=-n), entry_of(report, n=f"+{n}"),
                    entry_of(report, n=f" {n}"), entry_of(report, n=""),
                    entry_of(report, n=f"{n // 10}_{n % 10}"),
                    entry_of(report, n="\u0661\u0662"),
                    entry_of(report, n="0" * 40 + str(n)),
                    entry_of(report, n=n + 1), entry_of(report, n=len(good)),
                    # the text without its trailing newline, with the
                    # report, another byte or nothing after it
                    good.replace(text.encode() + b"\n", text.encode()),
                    good.replace(text.encode() + b"\n", text.encode() + b" "),
                    stamp + b"\n" + text.encode(),
                    # the stamp line alone, without or with its newline
                    stamp, stamp + b"\n",
                    # an old one-line entry: the report alone
                    json.dumps(report).encode()):
            for read in ("text", "report"):
                entry.write_bytes(bad)
                if read == "text":
                    assert main(["analyze", "2", "3", "7", "--p", "5"]) == 0
                    assert capsys.readouterr().out == text
                else:
                    assert cached_analysis(2, 3, 7, 5) == report
                assert entry.read_bytes() == good
        assert [p.name for p in tmp_cache.iterdir()] == [entry.name]

    def test_length_past_the_file_reads_and_allocates_nothing(
            self, tmp_cache, monkeypatch):
        # A stamp that claims 10^12 text bytes: a plain read(n) would ask
        # for that much memory.  The length is checked against the file's
        # size first, so the entry is a miss, rewritten in place.
        import tracemalloc
        import brieskorn.report as report_module
        report = cached_analysis(2, 3, 7, 5)
        [entry] = tmp_cache.iterdir()
        monkeypatch.setattr(report_module, "build_analysis",
                            lambda *args: report)
        for read in ("text", "report"):
            entry.write_bytes(entry_of(report, n=10 ** 12))
            tracemalloc.start()
            try:
                cached_analysis(2, 3, 7, 5, text=read == "text")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert entry.read_bytes() == entry_of(report)

    def test_text_that_is_not_utf8_is_a_text_miss_only(self, tmp_cache,
                                                       capsys):
        # A text read decodes the text and misses on bytes that are not
        # UTF-8; a report read skips the text by its length and is served.
        report = cached_analysis(2, 3, 7, 5)
        [entry] = tmp_cache.iterdir()
        bad = entry_of(report, text=b"analysis \xff\xfe\n")
        entry.write_bytes(bad)
        assert cached_analysis(2, 3, 7, 5) == report
        assert entry.read_bytes() == bad
        assert main(["analyze", "2", "3", "7", "--p", "5"]) == 0
        assert capsys.readouterr().out == render_text(report)
        assert entry.read_bytes() == entry_of(report)

    def test_entry_in_the_json_header_layout_is_rewritten_in_place(
            self, tmp_cache, capsys):
        # An entry in the previous layout, a JSON header holding the text
        # and then the report, under the same file name and with this
        # source's digest, is a miss: its text is never printed, and the
        # entry is rewritten in place, one file per input.
        report = build_analysis(3, 16, 113, 5)
        header = {"schema_version": SCHEMA_VERSION, "source": source_digest(),
                  "input": report["input"], "text": "OLD LAYOUT\n"}
        tmp_cache.mkdir()
        entry = tmp_cache / "analyze_3_16_113_p5.json"
        argv = ["analyze", "3", "16", "113", "--p", "5"]
        for argv, expected in ((argv, render_text(report)),
                               (argv + ["--json", "-"], render_json(report))):
            entry.write_text(json.dumps(header) + "\n" + json.dumps(report),
                             encoding="utf-8")
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
            assert list(tmp_cache.iterdir()) == [entry]
            assert entry.read_bytes() == entry_of(report)

    @pytest.mark.parametrize("corrupt", ["", "{", "null", "[]", "{}", "half",
                                         "other", "input"])
    def test_valid_header_serves_the_text_but_not_the_report(
            self, tmp_cache, capsys, corrupt):
        # Text-only analyze trusts the stamp and the text alone; a report
        # read also checks the report line, and misses and rewrites the
        # entry when it is bad.
        # family stern --r 3 --s-range 5..5 is Sigma(3,16,113).
        report = build_analysis(3, 16, 113, 5)
        good = entry_of(report)
        head = good[: good.rindex(b"\n") + 1]
        line3 = json.dumps(report)
        line3 = {"half": line3[:len(line3) // 2],
                 "other": json.dumps(build_analysis(2, 3, 7, 5)),
                 "input": json.dumps({**report, "input": {**report["input"],
                                                          "p": 7}}),
                 }.get(corrupt, corrupt)
        bad = head + line3.encode()
        family = ["family", "stern", "--r", "3", "--s-range", "5..5",
                  "--p", "5"]
        assert main(family + ["--no-cache"]) == 0
        family_out = capsys.readouterr().out
        cached_analysis(3, 16, 113, 5)
        [entry] = tmp_cache.iterdir()
        for argv, expected in (
                (["analyze", "3", "16", "113", "--p", "5"], None),
                (["analyze", "3", "16", "113", "--p", "5", "--json", "-"],
                 render_json(report)),
                (family, family_out)):
            entry.write_bytes(bad)
            assert main(argv) == 0
            out = capsys.readouterr().out
            if expected is None:
                assert out == render_text(report)
                assert entry.read_bytes() == bad
            else:
                assert out == expected
                assert entry.read_bytes() == good

    def test_cache_dir_that_is_a_file_is_a_miss(self, tmp_cache, capsys):
        tmp_cache.write_text("not a directory\n")
        args = ["analyze", "2", "3", "7", "--p", "5"]
        assert main(args + ["--no-cache"]) == 0
        expected = capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr() == expected
        assert tmp_cache.read_text() == "not a directory\n"

    def test_unreadable_entry_is_a_miss(self, tmp_cache):
        report = cached_analysis(2, 3, 7, 5)
        [entry] = tmp_cache.iterdir()
        entry.unlink()
        entry.mkdir()           # reading it raises IsADirectoryError
        assert cached_analysis(2, 3, 7, 5) == report

    @pytest.mark.parametrize("name", ["makedirs", "mkstemp", "replace"])
    def test_failed_write_still_returns_the_report(self, tmp_cache,
                                                   monkeypatch, name):
        import tempfile

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        module = tempfile if name == "mkstemp" else os
        monkeypatch.setattr(module, name, fail)
        assert cached_analysis(2, 3, 7, 5) == build_analysis(2, 3, 7, 5)
        # the temp file of a failed replace is removed
        assert not tmp_cache.exists() or not any(tmp_cache.iterdir())

    def test_interleaved_writers_use_separate_temp_files(self, tmp_cache,
                                                         monkeypatch):
        import brieskorn.cache as cache_module
        second = []
        dumps = json.dumps

        def dumps_with_second_writer(obj):
            # A second writer of the same entry runs while the first one
            # holds its temp file open.
            monkeypatch.setattr(json, "dumps", dumps)
            second.append(cache_module.cached_analysis(2, 3, 7, 5))
            return dumps(obj)

        # The miss write imports json when it runs, so the patch is on the
        # json module itself; json.loads is left as it is.
        monkeypatch.setattr(json, "dumps", dumps_with_second_writer)
        first = cache_module.cached_analysis(2, 3, 7, 5)
        assert first == second[0] == build_analysis(2, 3, 7, 5)
        [entry] = tmp_cache.iterdir()
        assert entry.read_bytes() == entry_of(first)

    @pytest.mark.parametrize("a, b, c, p", [(3, 16, 113, 5), (2, 7, 13, None),
                                            (2, 7, 31, 3)])
    def test_entry_is_compact_json_of_the_report(self, tmp_cache, a, b, c, p):
        # A stamp line, the rendered text and a newline, then the report
        # on one line, written by the C encoder with no indent.  A hit
        # loads a dict equal to the miss's, so it renders the same bytes.
        miss = cached_analysis(a, b, c, p)
        [entry] = tmp_cache.iterdir()
        assert entry.name == f"analyze_{a}_{b}_{c}_p{p}.json"
        stamp, rest = entry.read_bytes().split(b"\n", 1)
        text = render_text(miss).encode()
        assert stamp.decode().split(" ") == [
            "brieskorn", str(SCHEMA_VERSION), source_digest(), str(a), str(b),
            str(c), str(p), str(len(text))]
        assert rest[:len(text) + 1] == text + b"\n"
        line3 = rest[len(text) + 1:].decode("ascii")
        assert line3 == json.dumps(miss) == json.dumps(json.loads(line3))
        assert "\n" not in line3
        hit = cached_analysis(a, b, c, p)
        assert hit == miss
        assert render_json(hit) == render_json(build_analysis(a, b, c, p))
        assert render_text(hit) == render_text(build_analysis(a, b, c, p))
        assert cached_analysis(a, b, c, p, text=True) == render_text(miss)

    def test_text_miss_writes_the_same_entry(self, tmp_cache):
        # A miss asked for the text renders it once and writes the entry a
        # report miss writes; the text it returns is the entry's.
        text = cached_analysis(3, 16, 113, 5, text=True)
        [entry] = tmp_cache.iterdir()
        report = build_analysis(3, 16, 113, 5)
        assert text == render_text(report)
        assert entry.read_bytes() == entry_of(report)

    def test_set_cache_dir_builds_no_default(self, tmp_cache, monkeypatch,
                                             capsys):
        def no_home(path):
            raise AssertionError("the default cache dir was built")

        monkeypatch.setattr(os.path, "expanduser", no_home)
        argv = ["analyze", "2", "3", "7", "--p", "5"]
        for _ in ("miss", "hit"):
            assert main(argv) == 0
            assert capsys.readouterr().out == render_text(
                build_analysis(2, 3, 7, 5))
            assert cached_analysis(2, 3, 7, 5) == build_analysis(2, 3, 7, 5)
        assert len(list(tmp_cache.iterdir())) == 1

    def test_default_cache_dir_is_under_home(self, monkeypatch, tmp_path,
                                             capsys):
        # With BRIESKORN_CACHE_DIR unset the cache is ~/.cache/brieskorn.
        from brieskorn.cache import cache_dir
        monkeypatch.delenv("BRIESKORN_CACHE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        default = tmp_path / ".cache" / "brieskorn"
        assert cache_dir() == str(default)
        assert main(["analyze", "3", "16", "113", "--p", "5"]) == 0
        report = build_analysis(3, 16, 113, 5)
        assert capsys.readouterr().out == render_text(report)
        [entry] = default.iterdir()
        assert entry.name == "analyze_3_16_113_p5.json"
        assert entry.read_bytes() == entry_of(report)

    def test_empty_cache_dir_caches_nothing(self, monkeypatch, tmp_path,
                                            capsys):
        # An empty value names no directory: every call is a miss that is
        # not cached, and no home dir is looked up.  Nor is the working
        # directory read: a valid entry planted there, with forged text and
        # a forged report, is never served and never rewritten.
        monkeypatch.setenv("BRIESKORN_CACHE_DIR", "")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os.path, "expanduser", None)
        report = build_analysis(2, 3, 7, 5)
        forged = {**report, "conclusions": ["FORGED REPORT"]}
        planted = tmp_path / "analyze_2_3_7_p5.json"
        planted_bytes = entry_of(forged, text=b"FORGED TEXT\n")
        planted.write_bytes(planted_bytes)
        for _ in ("first", "second"):
            assert main(["analyze", "2", "3", "7", "--p", "5"]) == 0
            assert capsys.readouterr().out == render_text(report)
            assert main(["analyze", "2", "3", "7", "--p", "5",
                         "--json", "-"]) == 0
            assert capsys.readouterr().out == render_json(report)
            assert cached_analysis(2, 3, 7, 5) == report
        assert list(tmp_path.iterdir()) == [planted]
        assert planted.read_bytes() == planted_bytes

    def test_entry_of_other_source_is_never_read(self, tmp_cache, monkeypatch):
        # The entry's name holds only the input; the writer's source digest
        # is in its stamp.  Code of another source misses on it and
        # rewrites it in place, so the directory keeps one entry per input.
        import brieskorn.cache as cache_module
        import brieskorn.report as report_module
        report = cached_analysis(2, 3, 7, 5)
        [old] = tmp_cache.iterdir()
        old_bytes = old.read_bytes()
        digest = cache_module.source_digest()
        assert old.name == "analyze_2_3_7_p5.json"
        assert old_bytes.split(b" ", 3)[2].decode() == digest
        built = []

        def recording_build(*args):
            built.append(args)
            return build_analysis(*args)

        monkeypatch.setattr(report_module, "build_analysis", recording_build)
        monkeypatch.setattr(cache_module, "source_digest",
                            lambda: "0123456789abcdef")
        # The old entry is never served: the first read misses, builds and
        # rewrites it, and the second read hits the rewritten entry.
        assert cached_analysis(2, 3, 7, 5) == report
        assert cached_analysis(2, 3, 7, 5, text=True) == render_text(report)
        assert built == [(2, 3, 7, 5)]
        [entry] = tmp_cache.iterdir()
        assert entry.name == old.name
        assert entry.read_bytes().split(b" ", 3)[2] == b"0123456789abcdef"
        assert entry.read_bytes() == old_bytes.replace(
            digest.encode(), b"0123456789abcdef")


def printed(argv):
    """(exit code, stdout, stderr) of one in-process main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def analyze_inputs(draw):
    """A small pairwise coprime triple, in any order, and p: None or an
    odd prime up to 31 that does not divide the product."""
    a = draw(st.integers(min_value=2, max_value=7))
    b = draw(st.sampled_from([b for b in range(2, 26) if math.gcd(a, b) == 1]))
    c = draw(st.sampled_from([c for c in range(2, 61)
                              if math.gcd(a * b, c) == 1]))
    triple = draw(st.permutations((a, b, c)))
    p = draw(st.one_of(st.none(), st.sampled_from(
        [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if a * b * c % p])))
    return tuple(triple), p


@settings(max_examples=60, deadline=None, database=None)
# Sigma(2,3,5) and Sigma(2,7,13) do not diagonalize.
@example(((2, 3, 5), 7))
@example(((13, 7, 2), None))
@example(((3, 16, 113), 5))
@given(analyze_inputs())
def test_a_cache_hit_prints_what_a_miss_prints(drawn):
    triple, p = drawn
    argv = ["analyze", *map(str, triple)]
    if p is not None:
        argv += ["--p", str(p)]
    with tempfile.TemporaryDirectory() as cache, \
            pytest.MonkeyPatch.context() as mp:
        mp.setenv("BRIESKORN_CACHE_DIR", cache)
        miss, hit = printed(argv), printed(argv)
        json_hit = printed(argv + ["--json", "-"])
        assert len(os.listdir(cache)) == 1
        fresh = printed(argv + ["--no-cache"])
        json_fresh = printed(argv + ["--json", "-", "--no-cache"])
    assert fresh[0] == 0 and fresh[2] == ""
    assert miss == hit == fresh
    assert json_hit == json_fresh


class TestCLI:
    def test_analyze_text(self, tmp_cache, capsys):
        assert main(["analyze", "3", "16", "113", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "obstruction: infeasible" in out
        assert "rho match: True" in out

    def test_analyze_json_file(self, tmp_cache, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["analyze", "3", "16", "113", "--p", "5",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["obstruction"]["status"] == "infeasible"
        assert data == build_analysis(3, 16, 113, 5)

    # One run of each command that takes --json; None is a matrix file.
    JSON_COMMANDS = [
        ["analyze", "2", "3", "5", "--p", "7"],
        ["family", "stern", "--r", "3", "--s-range", "5..5", "--p", "5"],
        ["diagonalize", "--matrix", None],
    ]

    @staticmethod
    def with_matrix(argv, tmp_path):
        matrix = tmp_path / "qx.txt"
        matrix.write_text(render_matrix_text(REFERENCE_QX) + "\n")
        return [str(matrix) if arg is None else arg for arg in argv]

    @pytest.mark.parametrize("argv", JSON_COMMANDS)
    def test_unwritable_json_path_is_input_error(self, tmp_cache, tmp_path,
                                                  capsys, argv):
        argv = self.with_matrix(argv, tmp_path)
        missing = tmp_path / "missing" / "x.json"
        assert main(argv + ["--json", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(missing) in captured.err
        assert not missing.parent.exists()
        # The path is checked before any member is analyzed or cached.
        assert not tmp_cache.exists() or not any(tmp_cache.iterdir())

    def test_json_dir_error_is_the_one_open_gives(self, tmp_cache, tmp_path,
                                                  capsys):
        blocker = tmp_path / "file"
        blocker.write_text("previous\n")
        (tmp_path / "dir").mkdir()
        paths = [tmp_path / "missing" / "x.json", blocker / "x.json",
                 blocker / "sub" / "x.json",
                 # A name too long for the file system, and three paths
                 # whose trailing separator makes open() see a directory.
                 tmp_path / ("x" * 300 + ".json"),
                 f"{tmp_path / 'missing.json'}{os.sep}",
                 f"{tmp_path / 'dir' / 'new.json'}{os.sep}",
                 f"{blocker}{os.sep}"]
        for path in map(str, paths):
            with pytest.raises(OSError) as exc:
                open(path, "w")
            for argv in [["analyze", "2", "3", "5", "--p", "7", "--text"],
                         ["family", "stern", "--r", "3", "--s-range", "1..3"],
                         *self.JSON_COMMANDS]:
                argv = self.with_matrix(argv, tmp_path)
                assert main(argv + ["--json", path]) == 1
                assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        # Nothing is analyzed or cached, and no path is created or changed.
        assert not tmp_cache.exists()
        assert sorted(os.listdir(tmp_path)) == ["dir", "file", "qx.txt"]
        assert os.listdir(tmp_path / "dir") == []
        assert blocker.read_text() == "previous\n"

    @pytest.mark.parametrize("argv", JSON_COMMANDS)
    def test_empty_json_path_is_refused(self, tmp_cache, tmp_path, capsys,
                                        argv):
        argv = self.with_matrix(argv, tmp_path)
        with pytest.raises(OSError) as exc:
            open("", "w")
        assert main(argv + ["--json", ""]) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        assert str(exc.value) == "[Errno 2] No such file or directory: ''"
        # analyze and family refuse it before any member is analyzed.
        assert not tmp_cache.exists() or not any(tmp_cache.iterdir())

    @pytest.mark.parametrize("argv", JSON_COMMANDS + [
        ["analyze", "2", "3", "5", "--p", "7", "--text"],
        ["analyze", "1", "2", "3"],
    ])
    def test_json_path_that_is_a_directory_is_refused_before_any_work(
            self, tmp_cache, tmp_path, capsys, argv):
        # The error is the one open() raises, and it wins over a bad
        # triple: nothing is analyzed, printed or cached.
        argv = self.with_matrix(argv, tmp_path)
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            open(target, "w")
        assert str(exc.value) == f"[Errno 21] Is a directory: {str(target)!r}"
        assert main(argv + ["--json", str(target)]) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        assert list(target.iterdir()) == []
        assert not tmp_cache.exists()

    @pytest.mark.parametrize("argv", JSON_COMMANDS)
    def test_bad_json_path_is_refused_before_any_work(
            self, tmp_cache, tmp_path, capsys, monkeypatch, argv):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the --json path check")

        import brieskorn.lattice
        import brieskorn.report
        # Each name where the command looks it up when it runs.
        monkeypatch.setattr(brieskorn.lattice, "diagonalize", computed)
        monkeypatch.setattr(cli, "cached_analysis", computed)
        monkeypatch.setattr(brieskorn.report, "build_analysis", computed)
        argv = self.with_matrix(argv, tmp_path)
        missing = tmp_path / "missing" / "x.json"
        with pytest.raises(OSError) as exc:
            open(missing, "w")
        assert main(argv + ["--json", str(missing)]) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")

    @pytest.mark.parametrize("argv", [
        "diagonalize --matrix no-such-matrix.txt",
        "family stern --r 3 --s-range 1..x",
        "family stern --r 3 --s-range 1..2 --p 4",
        "analyze 2 3 5 --p 4",
    ])
    def test_json_path_error_wins_over_other_bad_input(
            self, tmp_cache, tmp_path, capsys, argv):
        missing = tmp_path / "missing" / "x.json"
        with pytest.raises(OSError) as exc:
            open(missing, "w")
        assert main(argv.split() + ["--json", str(missing)]) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")

    @pytest.mark.parametrize("argv", ["rho --lens 4 1 1",
                                      "eta 3 16 113 --p 1009"])
    def test_lazy_text_commands_fail_before_any_output(self, tmp_cache,
                                                       capsys, argv):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    # Runs that fail on bad input after the --json path check.
    FAILED_RUNS = [
        "analyze 3 16 113 --p 9",
        "analyze 2 4 5",
        "family stern --r 3 --s-range 1..2 --p 9",
        "family stern --r 3 --s-range 1..x",
    ]

    @pytest.mark.parametrize("argv", FAILED_RUNS)
    def test_failed_run_leaves_an_existing_json_file_unchanged(
            self, tmp_cache, tmp_path, capsys, argv):
        path = tmp_path / "out.json"
        path.write_text("previous\n")
        assert main(argv.split() + ["--json", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_text() == "previous\n"

    @pytest.mark.parametrize("argv", FAILED_RUNS)
    def test_failed_run_leaves_no_file_at_a_fresh_json_path(
            self, tmp_cache, tmp_path, capsys, argv):
        # The path check creates the file to open it, and removes it again.
        path = tmp_path / "new.json"
        assert main(argv.split() + ["--json", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not path.exists()

    def test_analyze_rejects_dividing_p(self, tmp_cache, capsys):
        assert main(["analyze", "3", "16", "113", "--p", "3"]) == 1
        assert "not free" in capsys.readouterr().err

    def test_analyze_rejects_bad_triple(self, tmp_cache, capsys):
        assert main(["analyze", "2", "4", "5"]) == 1
        assert capsys.readouterr().err == (
            "error: entries must be pairwise coprime, got (2, 4, 5)\n")

    def test_analyze_rejects_even_p(self, tmp_cache, capsys):
        assert main(["analyze", "3", "5", "7", "--p", "2"]) == 1

    @pytest.mark.parametrize("argv, err", [
        ("analyze 2 7 13 --p 9", "p must be an odd prime >= 3, got 9"),
        ("analyze 3 16 113 --p 3",
         "p = 3 divides 5424: the standard action is not free"),
        ("eta 3 16 113 --p 3",
         "p = 3 divides 5424: the standard action is not free"),
        ("rho --lens 9 1 2", "p must be an odd prime >= 3, got 9"),
        ("family stern --r 3 --s-range 1..2 --p 9",
         "p must be an odd prime >= 3, got 9"),
    ])
    def test_bad_p_error_text(self, tmp_cache, capsys, argv, err):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {err}\n"
        assert captured.out == ""
        assert not tmp_cache.exists()

    def test_family_batch(self, tmp_cache, tmp_path):
        path = tmp_path / "family.json"
        assert main(["family", "stern", "--r", "3", "--s-range", "5..15",
                     "--p", "5", "--json", str(path)]) == 0
        rows = json.loads(path.read_text())["rows"]
        by_s = {row["s"]: row for row in rows}
        for s in (5, 10, 15):
            assert by_s[s]["obstruction"] == "infeasible"
            assert any(c["rho_match"]
                       for c in by_s[s]["locally_linear_candidates"])
        assert all(row["delta"] == -1 for row in rows if "delta" in row)

    def test_family_empty_range(self, tmp_cache, capsys):
        assert main(["family", "casson-harer", "--r", "3",
                     "--s-range", "5..4"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("s_range", ["-2..2", "-3..-1", "-1..0"])
    def test_family_range_may_start_with_minus(self, tmp_cache, capsys,
                                               s_range):
        # A separate LO..HI value that starts with "-" is the range, not
        # a flag: the run prints what --s-range=LO..HI prints.
        argv = ["family", "stern", "--r", "3", "--p", "5"]
        assert main(argv + [f"--s-range={s_range}"]) == 0
        joined = capsys.readouterr()
        assert main(argv + ["--s-range", s_range]) == 0
        assert capsys.readouterr() == joined
        lo, hi = map(int, s_range.split(".."))
        lines = joined.out.splitlines()
        assert [line.split(":")[0].split()[0] for line in lines] == [
            f"s={s}" for s in range(lo, hi + 1)]
        assert sum("skipped" in line for line in lines) == min(hi, 0) - lo + 1

    def test_family_casson_harer_text(self, tmp_cache, capsys):
        assert main(["family", "casson-harer", "--r", "3",
                     "--s-range", "1..5"]) == 0
        out = capsys.readouterr().out
        assert out.count("delta=-1") == 5

    def test_diagonalize_reference_matrix(self, tmp_path, capsys):
        from brieskorn.matrices import parse_matrix_text
        from conftest import REFERENCE_CINV, signed_permutation_equal
        path = tmp_path / "qx.txt"
        path.write_text(render_matrix_text(REFERENCE_QX) + "\n")
        assert main(["diagonalize", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "diagonalization found" in out
        printed_c_inv = parse_matrix_text(out.split("C_inv =\n", 1)[1])
        assert signed_permutation_equal(printed_c_inv, REFERENCE_CINV,
                                        axis="row")

    def test_diagonalize_e8_certificate(self, tmp_path, capsys):
        from brieskorn.plumbing import (canonical_resolution,
                                        intersection_matrix)
        from brieskorn.seifert import BrieskornTriple, seifert_invariants
        g = canonical_resolution(seifert_invariants(BrieskornTriple.of(2, 3, 5)))
        path = tmp_path / "e8.txt"
        path.write_text(render_matrix_text(intersection_matrix(g)) + "\n")
        assert main(["diagonalize", "--matrix", str(path)]) == 0
        assert "0 root pairs < 8 required" in capsys.readouterr().out

    def test_diagonalize_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3\n")
        assert main(["diagonalize", "--matrix", str(path)]) == 1

    def test_diagonalize_indefinite_unimodular_is_input_error(self, tmp_path,
                                                              capsys):
        path = tmp_path / "indefinite.txt"
        path.write_text("1 0\n0 -1\n")
        assert main(["diagonalize", "--matrix", str(path)]) == 1
        assert "negative definite" in capsys.readouterr().err

    def test_diagonalize_non_tree_form(self, tmp_path, capsys):
        from brieskorn.matrices import transpose
        from lattice_oracle import identity, mat_mul
        # Q = -U^t U with U unimodular: dense, not a tree, equivalent to -I.
        u = mat_mul(((1, 2, -1), (0, 1, 3), (0, 0, 1)),
                    ((1, 0, 0), (1, 1, 0), (-2, 1, 1)))
        q = tuple(tuple(-x for x in row) for row in mat_mul(transpose(u), u))
        assert all(x for row in q for x in row)
        path = tmp_path / "dense.txt"
        path.write_text(render_matrix_text(q) + "\n")
        assert main(["diagonalize", "--matrix", str(path), "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        c = tuple(map(tuple, data["C"]))
        minus_i = tuple(tuple(-x for x in row) for row in identity(3))
        assert mat_mul(mat_mul(transpose(c), q), c) == minus_i
        assert mat_mul(c, data["C_inv"]) == identity(3)

    def test_forged_diagonal_basis_is_internal_error(self, tmp_path,
                                                     monkeypatch, capsys):
        import brieskorn.lattice as lattice
        # Two root pair representatives, (0,1) and (1,1), that are not
        # orthogonal under -I: C^t Q C != -I.
        monkeypatch.setattr(lattice, "enumerate_roots", lambda form: (
            (0, 1), (1, 1)))
        path = tmp_path / "minus_i.txt"
        path.write_text("-1 0\n0 -1\n")
        assert main(["diagonalize", "--matrix", str(path)]) == 2
        assert "internal invariant violation: C^t Q C != -I" in \
            capsys.readouterr().err

    def test_forged_diagonalization_in_analyze_is_internal_error(
            self, tmp_cache, monkeypatch, capsys):
        import brieskorn.report as report_module
        from brieskorn.lattice import Diagonalization
        from lattice_oracle import identity
        monkeypatch.setattr(report_module, "diagonalize", lambda form: (
            Diagonalization(form, identity(form.n))))
        assert main(["analyze", "2", "3", "7", "--p", "5", "--no-cache"]) == 2
        assert "internal invariant violation" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [("2", "7", "31", "3"),
                                      ("2", "11", "27", "5"),
                                      ("4", "7", "33", "5")])
    def test_fixed_coefficient_inputs_are_infeasible(self, tmp_cache, capsys,
                                                     args):
        a, b, c, p = args
        assert main(["analyze", a, b, c, "--p", p, "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "obstruction: infeasible" in captured.out
        assert "infeasible (fixed-coefficient)" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("name, error", [
        ("build_constraints", ConstraintError),
        ("propagate_rotations", PropagationError)])
    def test_constraint_and_propagation_errors_are_internal_errors(
            self, tmp_cache, monkeypatch, capsys, name, error):
        import brieskorn.report as report_module

        def broken(*args, **kwargs):
            raise error("forged failure")
        monkeypatch.setattr(report_module, name, broken)
        assert main(["analyze", "3", "16", "113", "--p", "5",
                     "--no-cache"]) == 2
        assert capsys.readouterr().err == \
            "internal invariant violation: forged failure\n"

    def test_rho_command(self, capsys):
        assert main(["rho", "--lens", "5", "3", "8"]) == 0
        out = capsys.readouterr().out
        assert "rho(0) = 0" in out and "rho(1) = 7/5" in out
        assert main(["rho", "--lens", "5", "5", "3"]) == 1
        assert capsys.readouterr().err == (
            "error: rotation numbers (5,3) must be coprime to 5\n")

    def test_eta_command(self, tmp_cache, capsys):
        assert main(["eta", "3", "16", "113", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("eta(zeta^") == 4

    def test_non_real_eta_is_internal_error(self, tmp_cache, monkeypatch,
                                            capsys):
        import brieskorn.spectral as spectral
        # zeta, the vector (0, 1, 0, ..., 0), is not real, so
        # eta(zeta) != eta(zeta^-1)
        monkeypatch.setattr(spectral, "nu_defect",
                            lambda a, b, p: (0, 1) + (0,) * (p - 2))
        assert main(["eta", "3", "16", "113", "--p", "5"]) == 2
        assert "internal invariant violation: eta(zeta) is not real" in \
            capsys.readouterr().err
        assert main(["analyze", "3", "16", "113", "--p", "5",
                     "--no-cache"]) == 2
        assert "is not real" in capsys.readouterr().err

    def test_graph_formats(self, capsys):
        assert main(["graph", "3", "16", "113", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["weights"]) == 11
        assert main(["graph", "2", "3", "5", "--format", "dot"]) == 0
        assert "graph plumbing" in capsys.readouterr().out
        assert main(["graph", "2", "3", "5", "--format", "tgf"]) == 0
        assert "#" in capsys.readouterr().out

    @pytest.mark.parametrize("triple", [("3", "16", "113"), ("2", "3", "5"),
                                        ("7", "3", "2")])
    def test_graph_json_is_the_report_graph_section_and_matrix(
            self, tmp_cache, capsys, triple):
        assert main(["graph", *triple, "--format", "json"]) == 0
        printed = capsys.readouterr().out
        assert main(["analyze", *triple, "--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert printed == render_json(
            {**report["graph"], "matrix": report["form"]["matrix"]})

    @pytest.mark.parametrize("data, message", [
        (b"1 2\nx\n", "line 2: invalid literal for int() with base 10: 'x'"),
        (b"-2 1\n1\nx y\n", "line 2: ragged matrix rows"),
        (b"# only a comment\n", "no matrix rows found"),
        (b"\xff-1\n", "'utf-8' codec can't decode byte 0xff in position 0: "
                      "invalid start byte"),
    ])
    def test_bad_matrix_file_error_names_the_file(
            self, tmp_path, monkeypatch, capsys, data, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "junk.txt").write_bytes(data)
        assert main(["diagonalize", "--matrix", "junk.txt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: junk.txt: {message}\n"

    @pytest.mark.parametrize("data, message", [
        ("-1 2\n3 -1\n", "form matrix must be symmetric n x n"),
        ("-2 1\n1 -2\n", "form must have determinant +-1"),   # det 3
        ("-1 0\n0 1\n", "root enumeration requires a negative definite form"),
        # A zero pivot: a hyperbolic pair, a zero 1 x 1 form, and a
        # hyperbolic pair beside a positive path, whose zero-diagonal
        # nodes come first in the elimination order.
        ("0 1\n1 0\n", "zero pivot: the form is not definite"),
        ("0\n", "zero pivot: the form is not definite"),
        ("0 1 0 0 0 0\n1 0 0 0 0 0\n0 0 2 1 0 0\n"
         "0 0 1 2 1 0\n0 0 0 1 2 1\n0 0 0 0 1 2\n",
         "zero pivot: the form is not definite"),
    ])
    def test_bad_form_in_matrix_file_is_input_error(
            self, tmp_path, capsys, data, message):
        # The form's own checks raise ValueError; diagonalize is the one
        # command whose form is the user's, so they exit 1 here.
        path = tmp_path / "form.txt"
        path.write_text(data)
        assert main(["diagonalize", "--matrix", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unknown_flag_is_input_error(self, capsys):
        assert main(["analyze", "3", "16", "113", "--bogus"]) == 1

    def test_output_bit_stable(self, tmp_cache, capsys):
        main(["analyze", "2", "3", "7", "--p", "5", "--no-cache"])
        first = capsys.readouterr().out
        main(["analyze", "2", "3", "7", "--p", "5", "--no-cache"])
        assert capsys.readouterr().out == first


class TestSharedParser:
    """One process builds the argparse parser once and serves every later
    main call with it."""

    def test_many_commands_build_one_parser(self, tmp_cache, monkeypatch,
                                            capsys):
        import argparse
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        # build_parser defines its parser class, a subclass of
        # ArgumentParser that calls this __init__, when it runs.
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for argv in ("analyze 3 16 113 --p 5",
                     "analyze 3 16 113 --p 5",
                     "family stern --r 3 --s-range 1..2 --p 5",
                     "graph 3 16 113 --format json",
                     "eta 3 16 113 --p 5",
                     "rho --lens 5 3 8"):
            assert main(argv.split()) == 0
        capsys.readouterr()
        assert cli.build_parser.cache_info().misses == 1
        # The top-level parser and one per subcommand, built once each.
        assert len(built) == 7

    def test_interleaved_calls_print_what_a_fresh_parser_prints(
            self, tmp_cache, tmp_path, monkeypatch, capsys):
        sequence = [
            ["analyze", "3", "16", "113", "--p", "5"],
            ["analyze", "3", "16", "113", "--bogus"],
            ["--version"],
            ["analyze", "3", "16", "113", "--p", "9"],
            [],
            ["diagonalize", "--matrix", str(tmp_path / "missing")],
            ["analyze", "3", "16", "113", "--p", "5"],
        ]

        def run(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            out, err = capsys.readouterr()
            return code, out, err

        monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "fresh"))
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "shared"))
        cli.build_parser.cache_clear()
        shared = [run(argv) for argv in sequence]
        assert cli.build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _, _ in shared] == [
            0, 1, ("SystemExit", 0), 1, 1, 1, 0]
        assert shared[0][1].startswith("analysis of Sigma(3,16,113)")
        assert shared[2][1] == f"{brieskorn.__version__}\n"
        assert shared[4][2] == ("error: the following arguments are "
                                "required: command\n")


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_module(args, cache_dir, cwd=None):
    """`python -m brieskorn ARGS` in a fresh interpreter on this checkout."""
    return launch(["-m", "brieskorn", *args], cache_dir, cwd)


class TestEntryPoint:
    def test_module_run_matches_in_process_main(self, tmp_cache, capsys):
        args = ["analyze", "3", "16", "113", "--p", "5", "--no-cache"]
        proc = run_module(args, tmp_cache)
        assert proc.returncode == 0
        assert main(args) == 0
        assert proc.stdout == capsys.readouterr().out
        assert proc.stderr == ""

    def test_module_run_exits_1_on_bad_input(self, tmp_cache):
        proc = run_module(["analyze", "3", "16", "113", "--p", "9"], tmp_cache)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: p must be an odd prime >= 3, got 9\n"

    def test_module_run_with_empty_cache_dir_reads_no_entry(self, tmp_path):
        # BRIESKORN_CACHE_DIR= names no directory, not the working one.  The
        # entry planted there is valid: named as the cache dir, it is served.
        args = ["analyze", "3", "16", "113", "--p", "5"]
        report = build_analysis(3, 16, 113, 5)
        planted = tmp_path / "analyze_3_16_113_p5.json"
        planted_bytes = entry_of(report, text=b"PLANTED\n")
        planted.write_bytes(planted_bytes)
        assert run_module(args, tmp_path).stdout == "PLANTED\n"
        proc = run_module(args, "", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == render_text(report)
        assert list(tmp_path.iterdir()) == [planted]
        assert planted.read_bytes() == planted_bytes

    @pytest.mark.parametrize("args, entries", [
        (["analyze", "3", "16", "113", "--p", "5"], 1),
        (["analyze", "3", "16", "113", "--p", "5", "--json", "-"], 1),
        (["analyze", "3", "3589", "3590", "--p", "7"], 1),
        (["family", "stern", "--r", "3", "--s-range", "5..6", "--p", "5"], 2),
    ], ids=["text", "json", "node-max", "family"])
    def test_module_run_hit_prints_the_miss(self, tmp_cache, args, entries):
        # A fresh run, a miss and a hit, one interpreter each, print the
        # same bytes; the miss writes one entry per analysis, which the hit
        # serves as it is.  --json and family skip an entry's text by its
        # length; the n = 1200 text outgrows the first read.
        fresh = run_module([*args, "--no-cache"], tmp_cache)
        assert not tmp_cache.exists()
        miss = run_module(args, tmp_cache)
        written = {entry: entry.read_bytes() for entry in tmp_cache.iterdir()}
        assert len(written) == entries
        hit = run_module(args, tmp_cache)
        assert hit[:3] == miss[:3] == fresh[:3] == (0, fresh.stdout, "")
        assert {entry: entry.read_bytes()
                for entry in tmp_cache.iterdir()} == written

    def test_import_builds_no_parser_and_reads_no_source(self):
        # setup_s in the benchmark times the import and one parser build.
        code = ("import brieskorn.cli as cli, brieskorn.cache as r\n"
                "print(cli.build_parser.cache_info().currsize,"
                " r.source_digest.cache_info().currsize)\n")
        proc = launch(["-c", code], "", timeout=60)
        assert proc.stdout == "0 0\n"

    def test_source_digest_follows_the_source_bytes(self, tmp_path):
        # `-c` and `-m` put the working directory on sys.path ahead of
        # PYTHONPATH, so a run from src is a run of that tree.
        import shutil

        def digest(src):
            proc = launch(["-c", "import brieskorn.cache as r; "
                           "print(r.source_digest())"], "", src, timeout=60)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        copy = tmp_path / "src"
        shutil.copytree(SRC / "brieskorn", copy / "brieskorn",
                        ignore=shutil.ignore_patterns("__pycache__"))
        original = digest(SRC)
        assert digest(copy) == original     # independent of the location
        with open(copy / "brieskorn" / "seifert.py", "a") as handle:
            handle.write("# edited\n")
        edited = digest(copy)
        assert edited != original
        # The two trees share one entry per input: the edited tree misses
        # on this tree's entry, prints the fresh text and rewrites the
        # entry in place, stamped with its own digest.
        args = ["analyze", "3", "16", "113", "--p", "5"]
        cache = tmp_path / "cache"
        text = render_text(build_analysis(3, 16, 113, 5))
        for tree in SRC, copy:
            proc = run_module(args, cache, tree)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")
        [entry] = cache.iterdir()
        assert entry.read_bytes().split(b" ", 3)[2] == edited.encode()

    def test_module_run_refuses_p_above_the_ceiling(self, tmp_cache):
        # 100003 is the first prime above the ceiling on p.
        proc = run_module(["analyze", "3", "16", "113", "--p", "100003",
                           "--no-cache"], tmp_cache)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: p must be at most 100000, got 100003\n"


@pytest.mark.parametrize("args", [
    ["analyze", "3", "16", "113", "--p", "100003"],
    ["family", "stern", "--r", "3", "--s-range", "5..6", "--p", "100003"],
    ["eta", "3", "16", "113", "--p", "100003"],
    ["rho", "--lens", "100003", "1", "2"],
])
def test_every_command_refuses_p_above_the_ceiling(args, tmp_cache, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p must be at most 100000, got 100003\n"
    assert not tmp_cache.exists() or not any(tmp_cache.iterdir())


@pytest.mark.parametrize("args", [
    # A branch of 4 1000003 2305843009213693951 has more than 10^6 terms;
    # 3 3592 3593 has 1201 nodes, no branch of them above the ceiling.
    ["analyze", "4", "1000003", "2305843009213693951", "--p", "5"],
    ["graph", "4", "1000003", "2305843009213693951"],
    ["eta", "4", "1000003", "2305843009213693951", "--p", "5"],
    ["analyze", "3", "3592", "3593", "--p", "7"],
    ["graph", "3", "3592", "3593"],
    ["eta", "3", "3592", "3593", "--p", "7"],
    ["analyze", "13", "1000003", "36"],
])
def test_every_resolving_command_refuses_a_tree_above_the_ceiling(
        args, tmp_cache, capsys):
    start = time.perf_counter()
    assert main(args) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "NODE_MAX = 1200" in captured.err
    assert not tmp_cache.exists() or not any(tmp_cache.iterdir())


def test_family_runs_past_the_old_recursion_depth(tmp_cache, capsys):
    # Stern r=3 s=1000 has 1006 nodes: a root search that recursed once per
    # level raised RecursionError out of main here.
    assert main(["family", "stern", "--r", "3", "--s-range", "1000..1000",
                 "--p", "5", "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()
    assert len(rows) == 1
    assert rows[0].startswith("s=1000  Sigma(3,3001,21008)  ")
    assert "  diagonalizable=True  " in rows[0]


FAMILY_ARGS = ["family", "stern", "--r", "3", "--s-range", "10..20", "--p",
               "5", "--no-cache"]


def test_family_member_refused_by_the_analysis_is_a_row(monkeypatch, capsys):
    # With the node ceiling at 20, s <= 14 (n = s + 6) is analyzed and
    # s >= 15 is refused; a refusal is a skipped row, not the end of
    # the batch.
    import brieskorn.plumbing
    monkeypatch.setattr(brieskorn.plumbing, "NODE_MAX", 20)
    assert main(FAMILY_ARGS) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split()[0] for line in lines] == [
        f"s={s}" + (":" if s >= 15 else "") for s in range(10, 21)]
    assert lines[4].startswith("s=14  Sigma(3,43,302)  ")
    assert lines[5] == ("s=15: skipped (the resolution tree has 21 nodes, "
                        "more than NODE_MAX = 20)")
    assert main(FAMILY_ARGS + ["--json", "-"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["s"] for row in rows] == list(range(10, 21))
    assert all(("skipped" in row) == (row["s"] >= 15) for row in rows)
    assert rows[5]["skipped"] == ("the resolution tree has 21 nodes, more "
                                  "than NODE_MAX = 20")
    assert rows[4]["triple"] == [3, 43, 302]


def test_family_internal_error_still_exits_2(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ConstraintError("planted")

    import brieskorn.report
    # FAMILY_ARGS has --no-cache, which skips cached_analysis and imports
    # build_analysis from report when the command runs.
    monkeypatch.setattr(cli, "cached_analysis", broken)
    monkeypatch.setattr(brieskorn.report, "build_analysis", broken)
    assert main(FAMILY_ARGS) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal invariant violation: planted\n"


def test_input_error_is_an_exported_value_error():
    assert "InputError" in brieskorn.__all__
    assert brieskorn.InputError is brieskorn.records.InputError
    assert issubclass(brieskorn.InputError, ValueError)


def test_internal_invariant_error_lives_in_records():
    # One class, one home: every stage raises the records class, and the
    # plumbing name still resolves to it.
    home = brieskorn.records.InternalInvariantError
    assert brieskorn.InternalInvariantError is home
    assert brieskorn.plumbing.InternalInvariantError is home
    assert issubclass(brieskorn.plumbing.PropagationError, home)
    assert issubclass(brieskorn.obstruction.ConstraintError, home)


def _plant_wrong_hj_term(monkeypatch):
    """Every expansion of the resolution gets its last term one lower."""
    import brieskorn.plumbing
    from brieskorn.arith import HJExpansion

    def wrong(a, b):
        terms = real(a, b).terms
        return HJExpansion(a, b, terms[:-1] + (terms[-1] - 1,))
    real = brieskorn.plumbing.hj_expand
    monkeypatch.setattr(brieskorn.plumbing, "hj_expand", wrong)


def _plant_delta_one_too_small(monkeypatch):
    import brieskorn.report as report_module
    from brieskorn.seifert import SeifertData

    def wrong(triple):
        sd = real(triple)
        return SeifertData(sd.triple, sd.b, sd.delta - 1)
    real = report_module.seifert_invariants
    monkeypatch.setattr(report_module, "seifert_invariants", wrong)


def _plant_non_integral_delta(monkeypatch):
    # Every b_i = 1 - a_i, so the central weight is no integer.
    import brieskorn.seifert as seifert
    monkeypatch.setattr(seifert, "pow", lambda *args: 1, raising=False)


def _plant_raise_in_seifert_invariants(error):
    def plant(monkeypatch):
        import brieskorn.report as report_module

        def broken(triple):
            raise error
        monkeypatch.setattr(report_module, "seifert_invariants", broken)
    return plant


ANALYZE_ARGS = ["analyze", "3", "16", "113", "--p", "5", "--no-cache"]


@pytest.mark.parametrize("plant, argv, message", [
    (_plant_wrong_hj_term, ANALYZE_ARGS,
     "ValueError: terms do not evaluate to numerator/denominator"),
    (_plant_delta_one_too_small, ANALYZE_ARGS,
     "ValueError: form must have determinant +-1"),
    (_plant_non_integral_delta, ANALYZE_ARGS,
     "ArithmeticError: central weight is not an integer: -14078/5424"),
    # Not a skipped row: only an InputError skips a member.
    (_plant_wrong_hj_term,
     ["family", "stern", "--r", "3", "--s-range", "5..6", "--p", "7"],
     "ValueError: terms do not evaluate to numerator/denominator"),
    (_plant_raise_in_seifert_invariants(KeyError("delta")), ANALYZE_ARGS,
     "KeyError: 'delta'"),
    # An empty message leaves the class alone on the line.
    (_plant_raise_in_seifert_invariants(AssertionError()), ANALYZE_ARGS,
     "AssertionError"),
], ids=["hj-term", "delta-minus-one", "delta-not-integral", "family-hj-term",
        "key-error", "bare-assertion"])
def test_planted_fault_exits_2(plant, argv, message, tmp_cache, monkeypatch,
                               capsys):
    # A failure that no user value reaches is a broken invariant: one
    # stderr line that names its class, no traceback, nothing on stdout.
    # An InternalInvariantError prints its message alone (see
    # test_family_internal_error_still_exits_2).
    plant(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal invariant violation: {message}\n"


@pytest.mark.parametrize("s_range, admitted", [
    ("1..1000", True), ("1..1001", False), ("7..1006", True),
    ("1..1000000000", False)])
def test_family_range_ceiling(s_range, admitted, tmp_cache, capsys):
    # Every member of stern --r 1 is a quick skip (r < 2), so a run of
    # FAMILY_MAX members is cheap; one member more is refused before any.
    assert commands.FAMILY_MAX == 1000
    start = time.perf_counter()
    code = main(["family", "stern", "--r", "1", "--s-range", s_range])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    if admitted:
        assert code == 0
        assert captured.out.count("skipped") == 1000
    else:
        lo, hi = map(int, s_range.split(".."))
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: the range {s_range} has {hi - lo + 1} members, more "
            "than FAMILY_MAX = 1000\n")


def test_eta_refuses_p_above_its_table_ceiling(tmp_cache, capsys):
    # eta prints (p-1)^2 coefficients, so it has a ceiling of its own;
    # 1009 is the first prime above it.  The other commands keep P_MAX.
    from brieskorn.commands import ETA_TABLE_P_MAX
    from brieskorn.rules import is_prime
    assert ETA_TABLE_P_MAX == 1000
    assert [q for q in range(1001, 1010) if is_prime(q)] == [1009]
    assert main(["eta", "3", "16", "113", "--p", "1009"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: eta prints (p-1)^2 coefficients: p must "
                            "be at most 1000, got 1009\n")
    assert main(["rho", "--lens", "1009", "1", "2"]) == 0
    assert capsys.readouterr().out.count("rho(") == 1009


# sha256 of stdout, recorded while spectral values were still reduced
# residues mod Phi_p: the golden digests cover only `analyze` reports, and
# these commands print through `spectral.coefficients_at` and the rho
# table directly.
PRINTED_DIGESTS = {
    "eta 3 16 113 --p 5":
        "ff74d8bb68d14483a6e1e27c4a6ffbe548cb9f951052c3393bbf8073fec34d27",
    "eta 3 16 113 --p 13":
        "cea148a3ff70b3110706ab808ec76ccb5bead87d0cae377f248a5b97acbc7a3d",
    "eta 3 16 113 --p 101":
        "f6f4b684bf81ece8fef0603a4cdbcbd6ddb0e3dccc40bb1f6b6ed723fdcb423f",
    "rho --lens 5 3 8":
        "792cd2de2d6018d43914aaf4abeaaa38576793de8d34b5a77c31fcdd792006a4",
    "rho --lens 101 3 8":
        "903d78d1b98d9b707038132b2b86fa78ea31e94bd599c69a854fa538592e46a4",
}


@pytest.mark.parametrize("command", sorted(PRINTED_DIGESTS))
def test_eta_and_rho_output_bytes(command, tmp_cache, capsys):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == PRINTED_DIGESTS[command]
