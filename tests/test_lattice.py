"""Root enumeration and exact diagonalization."""

import pytest

from brieskorn import (BrieskornTriple, UnimodularForm, canonical_resolution,
                       diagonalize, enumerate_roots, intersection_matrix,
                       seifert_invariants)
from brieskorn.matrices import (eliminate, identity, inverse_unimodular,
                                mat_mul, parse_matrix_text,
                                render_matrix_text, transpose)
from conftest import (PERM_3_16_113, REFERENCE_CINV, REFERENCE_QX,
                      permute_columns, random_triples,
                      signed_permutation_equal)
import lattice_oracle as oracle
from lattice_oracle import det, symmetric_signature


def form_of(a, b, c):
    g = canonical_resolution(seifert_invariants(BrieskornTriple.of(a, b, c)))
    return UnimodularForm.from_matrix(intersection_matrix(g))


def minus_identity(n):
    return tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))


class TestMatrices:
    def test_bareiss_determinant(self):
        for m, expected in ((((2, 1), (1, 1)), 1), (REFERENCE_QX, -1),
                            (((0, 1), (1, 0)), -1)):
            assert det(m) == expected
            assert eliminate(m).determinant == expected

    def test_inverse_unimodular(self):
        m = ((2, 1), (1, 1))
        assert mat_mul(m, inverse_unimodular(m)) == identity(2)
        with pytest.raises(ValueError):
            inverse_unimodular(((2, 0), (0, 2)))

    def test_mat_mul_rejects_mismatched_inner_dimensions(self):
        with pytest.raises(ValueError):
            mat_mul(((1, 2, 3),), ((1,), (1,)))
        with pytest.raises(ValueError):
            mat_mul(((1,),), ((1, 0), (0, 1)))
        assert mat_mul(((1, 2),), ((1,), (1,))) == ((3,),)

    def test_symmetric_signature_reference(self):
        assert symmetric_signature(REFERENCE_QX) == (0, 11, 0)
        e = eliminate(REFERENCE_QX)
        assert (e.signature, e.definiteness) == (-11, "negative-definite")

    def test_matrix_text_roundtrip(self):
        text = render_matrix_text(REFERENCE_QX)
        assert parse_matrix_text(text) == REFERENCE_QX
        with pytest.raises(ValueError):
            parse_matrix_text("1 2\n3\n")


class TestEnumerateRoots:
    def test_minus_identity(self):
        for n in (1, 2, 5):
            form = UnimodularForm.from_matrix(minus_identity(n))
            roots = enumerate_roots(form)
            assert len(roots) == 2 * n
            units = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
            assert set(roots) == units | {tuple(-x for x in u) for u in units}

    def test_e8_has_no_roots(self):
        assert enumerate_roots(form_of(2, 3, 5)) == ()

    def test_sigma_3_16_113_has_eleven_pairs(self):
        roots = enumerate_roots(form_of(3, 16, 113))
        assert len(roots) == 22

    def test_closed_under_negation_sorted_no_duplicates(self):
        for (a, b, c) in [(3, 16, 113), (2, 3, 7), (3, 4, 5)]:
            roots = enumerate_roots(form_of(a, b, c))
            assert len(set(roots)) == len(roots)
            assert sorted(roots) == list(roots)
            assert set(roots) == {tuple(-x for x in v) for v in roots}
            form = form_of(a, b, c)
            assert all(oracle.evaluate(form, v) == -1 for v in roots)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            enumerate_roots(UnimodularForm.from_matrix(((1, 0), (0, -1))))


class TestDiagonalize:
    def test_minus_identity(self):
        form = UnimodularForm.from_matrix(minus_identity(4))
        d = diagonalize(form)
        assert d.found
        assert signed_permutation_equal(d.c, identity(4))
        assert signed_permutation_equal(d.c_inv, identity(4))

    def test_e8_failure_certificate(self):
        result = diagonalize(form_of(2, 3, 5))
        assert not result.found
        assert result.root_pairs == 0
        assert "0 root pairs < 8 required" in result.message

    def test_sigma_3_16_113_matches_reference(self):
        form = form_of(3, 16, 113)
        d = diagonalize(form)
        assert d.found
        # identities are re-verified on construction; check once more here
        n = form.n
        assert mat_mul(mat_mul(transpose(d.c), form.q), d.c) == minus_identity(n)
        assert mat_mul(d.c, d.c_inv) == identity(n)
        ours = permute_columns(d.c_inv, PERM_3_16_113)
        assert signed_permutation_equal(ours, REFERENCE_CINV, axis="row")

    def test_reference_matrices_are_consistent(self):
        # Q = -(C_inv)^t C_inv ties the two reference transcriptions together.
        product = mat_mul(transpose(REFERENCE_CINV), REFERENCE_CINV)
        assert tuple(tuple(-x for x in row) for row in product) == REFERENCE_QX

    def test_succeeds_on_small_contractible_boundaries(self):
        for (r, s, sign) in [(3, 1, "+"), (2, 3, "+"), (3, 2, "-"), (5, 1, "+")]:
            from brieskorn import family
            t = family("casson-harer", r, s, sign)
            form = form_of(*t.entries)
            assert diagonalize(form).found, t

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            diagonalize(UnimodularForm.from_matrix(((-2, 0), (0, -1))))

    def test_failed_identities_are_internal_errors(self):
        from brieskorn import InternalInvariantError
        from brieskorn.lattice import Diagonalization
        form = form_of(3, 16, 113)
        d = diagonalize(form)
        with pytest.raises(InternalInvariantError, match=r"C\^t Q C != -I"):
            Diagonalization(form, identity(form.n), d.c_inv)
        with pytest.raises(InternalInvariantError, match="C_inv != I"):
            Diagonalization(form, d.c, transpose(d.c))
        with pytest.raises(InternalInvariantError, match="must be 11 x 11"):
            Diagonalization(form, d.c[:-1], d.c_inv)

    def test_inverse_is_minus_c_transpose_q(self):
        form = form_of(3, 16, 113)
        d = diagonalize(form)
        assert d.c_inv == tuple(tuple(-x for x in row)
                                for row in mat_mul(transpose(d.c), form.q))
        assert d.c_inv == inverse_unimodular(d.c)

    def test_deterministic(self):
        form = form_of(3, 16, 113)
        assert diagonalize(form).c == diagonalize(form).c


class TestSignedPermutationEqual:
    def test_column_swap_and_negation(self):
        a = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        b = ((1, 3, -2), (4, 6, -5), (7, 9, -8))   # cols 2,3 swapped, one negated
        assert signed_permutation_equal(b, a)
        assert signed_permutation_equal(a, b)

    def test_non_monomial_relation_is_false(self):
        assert not signed_permutation_equal(identity(2), ((1, 1), (0, 1)))

    def test_row_axis(self):
        a = ((1, 2), (3, 4))
        b = ((-3, -4), (1, 2))
        assert signed_permutation_equal(a, b, axis="row")
        assert not signed_permutation_equal(a, b, axis="col")

    def test_shape_mismatch(self):
        assert not signed_permutation_equal(identity(2), identity(3))


class TestFormValidation:
    def test_definiteness_and_unimodularity_random(self):
        for (a, b, c) in random_triples(10, seed=41):
            form = form_of(a, b, c)
            assert form.is_negative_definite
            assert form.is_unimodular

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            UnimodularForm.from_matrix(((1, 2), (3, 4)))
