"""Reports, cache, and the command-line interface."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import brieskorn
from brieskorn import (BrieskornTriple, ConstraintError, PropagationError,
                       build_analysis, eta_brieskorn, ll_extension_search,
                       render_json, render_text)
from brieskorn import cli
from brieskorn.cli import main
from brieskorn.matrices import render_matrix_text
from brieskorn.report import cached_analysis
from conftest import REFERENCE_QX


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
        from brieskorn.report import source_digest
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
        good = json.dumps(report)
        other = json.dumps(build_analysis(3, 16, 113, 5)).encode()
        for bad in (b"", good[: len(good) // 2].encode(), b"\xff\xfe{",
                    b"null\n", b"{}", other):
            entry.write_bytes(bad)
            assert main(["analyze", "2", "3", "7", "--p", "5"]) == 0
            assert capsys.readouterr().out == render_text(report)
            assert entry.read_text(encoding="utf-8") == good
        assert [p.name for p in tmp_cache.iterdir()] == [entry.name]

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
        import types

        import brieskorn.report as report_module
        second = []

        def dumps_with_second_writer(report):
            # A second writer of the same entry runs while the first one
            # holds its temp file open.
            monkeypatch.setattr(report_module, "json", json)
            second.append(report_module.cached_analysis(2, 3, 7, 5))
            return json.dumps(report)

        monkeypatch.setattr(report_module, "json", types.SimpleNamespace(
            load=json.load, dumps=dumps_with_second_writer))
        first = report_module.cached_analysis(2, 3, 7, 5)
        assert first == second[0] == build_analysis(2, 3, 7, 5)
        [entry] = tmp_cache.iterdir()
        assert entry.read_text(encoding="utf-8") == json.dumps(first)

    @pytest.mark.parametrize("a, b, c, p", [(3, 16, 113, 5), (2, 7, 13, None),
                                            (2, 7, 31, 3)])
    def test_entry_is_compact_json_of_the_report(self, tmp_cache, a, b, c, p):
        # The entry is written by the C encoder, with no indent; a hit
        # loads a dict equal to the miss's, so it renders the same bytes.
        miss = cached_analysis(a, b, c, p)
        [entry] = tmp_cache.iterdir()
        text = entry.read_text(encoding="utf-8")
        assert "\n" not in text
        assert json.loads(text) == miss
        hit = cached_analysis(a, b, c, p)
        assert hit == miss
        assert render_json(hit) == render_json(build_analysis(a, b, c, p))
        assert render_text(hit) == render_text(build_analysis(a, b, c, p))

    def test_entry_of_other_source_is_never_read(self, tmp_cache, monkeypatch):
        import brieskorn.report as report_module
        report = cached_analysis(2, 3, 7, 5)
        [old] = tmp_cache.iterdir()
        old_bytes = old.read_bytes()
        digest = report_module.source_digest()
        assert f"_src{digest}." in old.name
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(report_module, "open", recording_open,
                            raising=False)
        monkeypatch.setattr(report_module, "source_digest",
                            lambda: "0123456789abcdef")
        assert cached_analysis(2, 3, 7, 5) == report
        new = old.name.replace(digest, "0123456789abcdef")
        # The one lookup is of the new name; it misses and is written.
        assert opened == [new]
        assert sorted(p.name for p in tmp_cache.iterdir()) == sorted(
            [old.name, new])
        assert old.read_bytes() == old_bytes
        assert (tmp_cache / new).read_bytes() == old_bytes


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
        blocker.write_text("")
        for path in (tmp_path / "missing" / "x.json", blocker / "x.json",
                     blocker / "sub" / "x.json"):
            with pytest.raises(OSError) as exc:
                open(path, "w")
            for argv in (["analyze", "2", "3", "5", "--p", "7"],
                         ["family", "stern", "--r", "3", "--s-range", "1..3"]):
                assert main(argv + ["--json", str(path)]) == 1
                assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        assert not tmp_cache.exists()

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

    @pytest.mark.parametrize("argv", JSON_COMMANDS)
    def test_json_path_that_is_a_directory_fails_at_write(
            self, tmp_cache, tmp_path, capsys, argv):
        # The directory pre-check passes (the parent exists); open() then
        # raises IsADirectoryError after the analysis.
        argv = self.with_matrix(argv, tmp_path)
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            open(target, "w")
        assert main(argv + ["--json", str(target)]) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("argv", JSON_COMMANDS)
    def test_bad_json_path_is_refused_before_any_work(
            self, tmp_cache, tmp_path, capsys, monkeypatch, argv):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the --json path check")

        for name in ("diagonalize", "cached_analysis", "build_analysis"):
            monkeypatch.setattr(cli, name, computed)
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

    @pytest.mark.parametrize("argv", [
        "analyze 3 16 113 --p 9",
        "analyze 2 4 5",
        "family stern --r 3 --s-range 1..2 --p 9",
        "family stern --r 3 --s-range 1..x",
    ])
    def test_failed_run_leaves_an_existing_json_file_unchanged(
            self, tmp_cache, tmp_path, capsys, argv):
        path = tmp_path / "out.json"
        path.write_text("previous\n")
        assert main(argv.split() + ["--json", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_text() == "previous\n"

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
        from brieskorn import (BrieskornTriple, canonical_resolution,
                               intersection_matrix, seifert_invariants)
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
        # A sign-closed set of two root pairs whose representatives (0,1)
        # and (1,1) are not orthogonal under -I: C^t Q C != -I.
        monkeypatch.setattr(lattice, "enumerate_roots", lambda form: (
            (-1, -1), (0, -1), (0, 1), (1, 1)))
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
        built = []
        real_init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
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


def run_module(args, cache_dir):
    """`python -m brieskorn ARGS` in a fresh interpreter on this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, BRIESKORN_CACHE_DIR=str(cache_dir))
    return subprocess.run([sys.executable, "-m", "brieskorn", *args],
                          capture_output=True, text=True, env=env, timeout=300)


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

    def test_import_builds_no_parser_and_reads_no_source(self):
        # setup_s in the benchmark times the import and one parser build.
        code = ("import brieskorn.cli as cli, brieskorn.report as r\n"
                "print(cli.build_parser.cache_info().currsize,"
                " r.source_digest.cache_info().currsize)\n")
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=60)
        assert proc.stdout == "0 0\n"

    def test_source_digest_follows_the_source_bytes(self, tmp_path):
        import shutil

        def digest(src):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import brieskorn.report as r; print(r.source_digest())"],
                capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=str(src)))
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        copy = tmp_path / "src"
        shutil.copytree(SRC / "brieskorn", copy / "brieskorn",
                        ignore=shutil.ignore_patterns("__pycache__"))
        original = digest(SRC)
        assert digest(copy) == original     # independent of the location
        with open(copy / "brieskorn" / "seifert.py", "a") as handle:
            handle.write("# edited\n")
        assert digest(copy) != original

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

    # FAMILY_ARGS has --no-cache, which skips cached_analysis.
    monkeypatch.setattr(cli, "cached_analysis", broken)
    monkeypatch.setattr(cli, "build_analysis", broken)
    assert main(FAMILY_ARGS) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal invariant violation: planted\n"


@pytest.mark.parametrize("s_range, admitted", [
    ("1..1000", True), ("1..1001", False), ("7..1006", True),
    ("1..1000000000", False)])
def test_family_range_ceiling(s_range, admitted, tmp_cache, capsys):
    # Every member of stern --r 1 is a quick skip (r < 2), so a run of
    # FAMILY_MAX members is cheap; one member more is refused before any.
    assert cli.FAMILY_MAX == 1000
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
    from brieskorn.cli import ETA_TABLE_P_MAX
    from brieskorn.seifert import is_prime
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
