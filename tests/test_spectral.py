"""Eta and rho invariants, torsion, and the lens-space search."""

from fractions import Fraction

import pytest

import spectral_oracle as oracle
from brieskorn.plumbing import (EquivariantMarkup, canonical_resolution,
                                graph_signature, propagate_rotations)
from brieskorn.seifert import BrieskornTriple, seifert_invariants
from brieskorn.spectral import (canonical_lens_pair, eta_brieskorn,
                                eta_from_fixed_data, ll_extension_search,
                                nu_defect, rho_from_eta, rho_lens_table)
from conftest import fickle_graph, rho_float_oracle
from spectral_oracle import lift, torsion_lens


class TestNuDefect:
    def test_antisymmetry(self):
        for p in (5, 7):
            for a in range(1, p):
                for b in range(1, p):
                    assert lift(nu_defect(a, -b, p)) == -lift(nu_defect(a, b, p))

    def test_p3_value(self):
        assert lift(nu_defect(1, 2, 3)) == Fraction(1, 3)

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
            z = oracle.zeta(p, j)
            nu = lift(nu_defect(1, 2, p)).galois(j)
            expr = -2 * nu + oracle.div(4 * z, (z - 1) * (z - 1)) + 2
            assert oracle.is_zero(expr)

    def test_sphere_defect_normalization(self):
        # a (-1)-sphere with normal rotation 1 contributes +4t/(t-1)^2
        for p in (5, 7):
            # one fixed (-1)-sphere on one node (0 + 2*1 == 1 + 1)
            sphere = eta_from_fixed_data(
                EquivariantMarkup(p, ((0, -1, 1),), (), ("fixed",)), 0)
            for j in range(1, p):
                z = oracle.zeta(p, j)
                assert lift(sphere).galois(j) == oracle.div(4 * z, (z - 1) * (z - 1))

    @pytest.mark.parametrize("c", [0, 5, -10])
    def test_zero_normal_rotation_raises(self, c):
        # one point and one sphere on two nodes (1 + 2*1 == 1 + 2)
        markup = EquivariantMarkup(5, ((0, -2, c),), ((1, 2),),
                                   ("fixed", "invariant"))
        with pytest.raises(ValueError):
            eta_from_fixed_data(markup, 0)


class TestEta:
    def test_bounding_family_eta_equals_lens_profile(self):
        for r, p in ((3, 5), (3, 7), (5, 7)):
            g = fickle_graph(r, p, "+")
            markup = propagate_rotations(g, p)
            signature = graph_signature(g)[0]
            assert signature == -2
            eta = eta_from_fixed_data(markup, signature)
            assert lift(eta) == lift(nu_defect(r, 2 * r + 2, p))
            for j in range(1, p):
                assert lift(eta).galois(j) == oracle.nu_defect(r, 2 * r + 2, p, j)

    def test_three_way_consistency_sigma_3_16_113(self):
        t = BrieskornTriple.of(3, 16, 113)
        g = canonical_resolution(seifert_invariants(t))
        markup = propagate_rotations(g, 5)
        signature = graph_signature(g)[0]
        assert signature == -11
        assert len(markup.isolated_points) == 6
        assert len(markup.fixed_spheres) == 3
        eta_resolution = eta_from_fixed_data(markup, signature)
        fick = fickle_graph(3, 5, "+")
        eta_bounding = eta_from_fixed_data(propagate_rotations(fick, 5),
                                           graph_signature(fick)[0])
        for j in range(1, 5):
            assert lift(eta_resolution).galois(j) == oracle.nu_defect(3, 8, 5, j)
            assert lift(eta_bounding).galois(j) == oracle.nu_defect(3, 8, 5, j)

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
            assert rho_lens_table(p, r, s)[0] == 0

    def test_known_float_value(self):
        value = rho_lens_table(5, 3, 8)[1]
        assert abs(float(value) - rho_float_oracle(5, 3, 8, 1)) < 1e-9
        assert value == Fraction(7, 5)

    def test_matches_fourier_transform_of_sphere_profile(self):
        for p, r, s in [(5, 3, 8), (7, 2, 3), (3, 1, 1), (11, 4, 7)]:
            table = rho_lens_table(p, r, s)
            nu = nu_defect(r, s, p)
            assert table == oracle.rho_from_eta(oracle.profile(nu).values, p)
            assert table == rho_from_eta(nu)

    def test_inverse_relation_recovers_eta(self):
        for p, r, s in [(5, 3, 3), (7, 3, 8)]:
            nu = nu_defect(r, s, p)
            profile = oracle.profile(nu)
            table = rho_from_eta(nu)
            for j in range(1, p):
                assert oracle.eta_from_rho(table, j) == profile.values[j]

    def test_quotient_rho_is_rational(self):
        t = BrieskornTriple.of(3, 16, 113)
        table = rho_from_eta(eta_brieskorn(t, 5))
        assert table == rho_lens_table(5, 3, 3)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            rho_lens_table(5, 5, 1)


class TestTorsion:
    def test_unit_rotation(self):
        z = oracle.zeta(7)
        assert torsion_lens(7, 1, 1) == (z - 1) * (z - 1)

    def test_exponents_mod_p(self):
        z3 = oracle.zeta(5, 3)
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
        assert cand.rho_match
        assert cand.product_residue == cand.rs_residue
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
            ll_extension_search(BrieskornTriple.of(3, 16, 113), 3, (0,) * 3)


class TestEtaInputValidation:
    def test_eta_rejects_zero_rotations(self):
        # one isolated point and no node (1 + 2*0 == 1 + 0)
        markup = EquivariantMarkup(p=5, fixed_spheres=(),
                                   isolated_points=((1, 5),), node_kinds=())
        with pytest.raises(ValueError):
            eta_from_fixed_data(markup, 0)
