"""Reports, cache, and the command-line interface."""

import json

import pytest

from brieskorn import (BrieskornTriple, ConstraintError, PropagationError,
                       build_analysis, eta_brieskorn, ll_extension_search,
                       render_json, render_text)
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
        uncached = cached_analysis(3, 16, 113, 5, use_cache=False)
        assert fresh == cached == uncached

    def test_cache_disabled_writes_nothing(self, tmp_cache):
        cached_analysis(2, 3, 7, use_cache=False)
        assert not tmp_cache.exists()

    def test_corrupt_entry_is_a_miss_and_is_rewritten(self, tmp_cache, capsys):
        report = build_analysis(2, 3, 7, 5)
        cached_analysis(2, 3, 7, 5)
        [entry] = tmp_cache.iterdir()
        good = render_json(report)
        for bad in (b"", good[: len(good) // 2].encode(), b"\xff\xfe{",
                    b"null\n"):
            entry.write_bytes(bad)
            assert main(["analyze", "2", "3", "7", "--p", "5"]) == 0
            assert capsys.readouterr().out == render_text(report)
            assert entry.read_text(encoding="utf-8") == good
        assert [p.name for p in tmp_cache.iterdir()] == [entry.name]

    def test_interleaved_writers_use_separate_temp_files(self, tmp_cache,
                                                         monkeypatch):
        import brieskorn.report as report_module
        real_render = report_module.render_json
        second = []

        def render_with_second_writer(report):
            # A second writer of the same entry runs while the first one
            # holds its temp file open.
            monkeypatch.setattr(report_module, "render_json", real_render)
            second.append(report_module.cached_analysis(2, 3, 7, 5))
            return real_render(report)

        monkeypatch.setattr(report_module, "render_json",
                            render_with_second_writer)
        first = report_module.cached_analysis(2, 3, 7, 5)
        assert first == second[0] == build_analysis(2, 3, 7, 5)
        [entry] = tmp_cache.iterdir()
        assert entry.read_text(encoding="utf-8") == real_render(first)


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
        from brieskorn.matrices import identity, mat_mul, transpose
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
        from brieskorn.matrices import identity
        monkeypatch.setattr(report_module, "diagonalize", lambda form: (
            Diagonalization(form, identity(form.n), identity(form.n))))
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
        from brieskorn import Cyclotomic
        # zeta is not real, so eta(zeta) != eta(zeta^-1)
        monkeypatch.setattr(spectral, "nu_defect",
                            lambda a, b, p: Cyclotomic.zeta(p))
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
