"""Eta and rho invariants, torsion, and the lens-space search."""

from fractions import Fraction

import pytest

import spectral_oracle as oracle
from brieskorn import (BrieskornTriple, Cyclotomic, FixedPointData,
                       canonical_lens_pair, canonical_resolution,
                       eta_brieskorn, eta_from_fixed_data,
                       fixed_point_data, graph_signature,
                       ll_extension_search,
                       nu_defect, propagate_rotations, rho_from_eta,
                       rho_lens_table, seifert_invariants, sphere_defect)
from conftest import fickle_graph, rho_float_oracle
from spectral_oracle import torsion_lens


def nu_profile(p, r, s):
    """The oracle's Galois-checked profile j -> nu(r, s; zeta^j)."""
    nu = nu_defect(r, s, p)
    return oracle.EtaProfile(p, {j: nu.galois(j) for j in range(1, p)})


class TestNuDefect:
    def test_antisymmetry(self):
        for p in (5, 7):
            for a in range(1, p):
                for b in range(1, p):
                    assert nu_defect(a, -b, p) == -nu_defect(a, b, p)

    def test_p3_value(self):
        assert nu_defect(1, 2, 3) == Fraction(1, 3)

    def test_exponents_mod_p(self):
        assert nu_defect(3, 8, 5) == nu_defect(3, 3, 5)
        # at t = zeta^2: nu(3, 8; zeta^2) = nu(6, 16; zeta)
        assert nu_defect(6, 16, 5) == nu_defect(6, 6, 5)

    def test_rejects_zero_rotation(self):
        with pytest.raises(ValueError):
            nu_defect(5, 1, 5)
        with pytest.raises(ValueError):
            nu_defect(1, 10, 5)


class TestCancellation:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_identity(self, p):
        for j in range(1, p):
            z = Cyclotomic.zeta(p, j)
            expr = -2 * nu_defect(1, 2, p).galois(j) + oracle.div(4 * z, (z - 1) * (z - 1)) + 2
            assert oracle.is_zero(expr)

    def test_sphere_defect_normalization(self):
        # a (-1)-sphere with normal rotation 1 contributes +4t/(t-1)^2
        for p in (5, 7):
            for j in range(1, p):
                z = Cyclotomic.zeta(p, j)
                assert sphere_defect(-1, 1, p).galois(j) == oracle.div(4 * z, (z - 1) * (z - 1))


class TestEta:
    def test_bounding_family_eta_equals_lens_profile(self):
        for r, p in ((3, 5), (3, 7), (5, 7)):
            g = fickle_graph(r, p, "+")
            markup = propagate_rotations(g, p)
            fd = fixed_point_data(markup, graph_signature(g)[0])
            assert fd.signature == -2
            eta = eta_from_fixed_data(fd, p)
            assert eta == nu_defect(r, 2 * r + 2, p)
            for j in range(1, p):
                assert eta.galois(j) == oracle.nu_defect(r, 2 * r + 2, p, j)

    def test_three_way_consistency_sigma_3_16_113(self):
        t = BrieskornTriple.of(3, 16, 113)
        g = canonical_resolution(seifert_invariants(t))
        markup = propagate_rotations(g, 5)
        fd = fixed_point_data(markup, graph_signature(g)[0])
        assert fd.signature == -11
        assert len(fd.isolated) == 6 and len(fd.spheres) == 3
        eta_resolution = eta_from_fixed_data(fd, 5)
        fick = fickle_graph(3, 5, "+")
        eta_bounding = eta_from_fixed_data(
            fixed_point_data(propagate_rotations(fick, 5),
                             graph_signature(fick)[0]), 5)
        for j in range(1, 5):
            assert eta_resolution.galois(j) == oracle.nu_defect(3, 8, 5, j)
            assert eta_bounding.galois(j) == oracle.nu_defect(3, 8, 5, j)

    def test_profile_requires_equivariance(self):
        p = 5
        values = {j: oracle.nu_defect(1, 2, p, j) for j in range(1, p)}
        oracle.EtaProfile(p, values)
        values[2] = values[2] + 1
        with pytest.raises(ValueError):
            oracle.EtaProfile(p, values)

    def test_eta_brieskorn_requires_free_action(self):
        with pytest.raises(ValueError):
            eta_brieskorn(BrieskornTriple.of(3, 16, 113), 3)


class TestRho:
    def test_trivial_character_vanishes(self):
        for p, r, s in [(5, 1, 1), (7, 2, 3), (11, 3, 5)]:
            assert rho_lens_table(p, r, s).values[0] == 0

    def test_known_float_value(self):
        value = rho_lens_table(5, 3, 8).values[1]
        assert abs(float(value) - rho_float_oracle(5, 3, 8, 1)) < 1e-9
        assert value == Fraction(7, 5)

    def test_matches_fourier_transform_of_sphere_profile(self):
        for p, r, s in [(5, 3, 8), (7, 2, 3), (3, 1, 1), (11, 4, 7)]:
            table = rho_lens_table(p, r, s)
            assert table.values == oracle.rho_from_eta(nu_profile(p, r, s).values, p)
            assert table.values == rho_from_eta(nu_defect(r, s, p)).values

    def test_inverse_relation_recovers_eta(self):
        for p, r, s in [(5, 3, 3), (7, 3, 8)]:
            profile = nu_profile(p, r, s)
            table = rho_from_eta(nu_defect(r, s, p))
            for j in range(1, p):
                assert oracle.eta_from_rho(table, j) == profile.values[j]

    def test_quotient_rho_is_rational(self):
        t = BrieskornTriple.of(3, 16, 113)
        table = rho_from_eta(eta_brieskorn(t, 5))
        assert table.values == rho_lens_table(5, 3, 3).values

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            rho_lens_table(5, 5, 1)


class TestTorsion:
    def test_unit_rotation(self):
        z = Cyclotomic.zeta(7)
        assert torsion_lens(7, 1, 1) == (z - 1) * (z - 1)

    def test_exponents_mod_p(self):
        z3 = Cyclotomic.zeta(5, 3)
        assert torsion_lens(5, 3, 8) == (z3 - 1) * (z3 - 1)

    def test_never_zero(self):
        for p in (5, 7):
            for r in range(1, p):
                for s in range(1, p):
                    assert not oracle.is_zero(torsion_lens(p, r, s))

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            torsion_lens(5, 10, 1)


class TestLensSearch:
    def test_sigma_3_16_113(self):
        t = BrieskornTriple.of(3, 16, 113)
        candidates = ll_extension_search(t, 5, eta_brieskorn(t, 5))
        assert len(candidates) == 1
        cand = candidates[0]
        assert canonical_lens_pair(cand.r, cand.s, 5) == canonical_lens_pair(3, 3, 5)
        assert canonical_lens_pair(3, 8, 5) == canonical_lens_pair(3, 3, 5)
        assert cand.rho_match and cand.congruence_ok
        # spot congruences: 3*16*113 = 5424 = 4 = 3*8 (mod 5), and the
        # entries reduce to the classes of {3,1,3} = {r,s,1} up to sign
        assert 5424 % 5 == 4 == (3 * 8) % 5
        assert cand.product_residue == 4 and cand.rs_residue == 4
        assert cand.multiset_residues == (1, 2, 2)

    def test_no_candidates_when_multiset_fails(self):
        # Sigma(3,28,197) mod 5 reduces to classes {2,2,2}: no unit slot
        t = BrieskornTriple.of(3, 28, 197)
        assert ll_extension_search(t, 5, eta_brieskorn(t, 5)) == ()

    def test_congruence_only_candidates_fail_rho(self):
        # Sigma(3,19,134) mod 5: candidate passes congruences, rho differs
        t = BrieskornTriple.of(3, 19, 134)
        candidates = ll_extension_search(t, 5, eta_brieskorn(t, 5))
        assert candidates and all(not c.rho_match for c in candidates)

    def test_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            ll_extension_search(BrieskornTriple.of(3, 16, 113), 3,
                                Cyclotomic.zero(3))


class TestFixedPointDataValidation:
    def test_eta_rejects_zero_rotations(self):
        fd = FixedPointData(isolated=((1, 5),), spheres=(), signature=0)
        with pytest.raises(ValueError):
            eta_from_fixed_data(fd, 5)
