"""Seifert invariants, the R-invariant, and the triple families."""

from fractions import Fraction

import pytest

import brieskorn
from brieskorn import (BrieskornTriple, check_action, check_order, family,
                       r_invariant, seifert_invariants, standard_action_valid)
from conftest import random_triples


class TestTriple:
    def test_sorted_and_validated(self):
        t = BrieskornTriple.of(113, 3, 16)
        assert t.entries == (3, 16, 113)
        with pytest.raises(ValueError):
            BrieskornTriple.of(2, 4, 5)   # not coprime
        with pytest.raises(ValueError):
            BrieskornTriple.of(1, 2, 3)   # entry < 2


class TestSeifertInvariants:
    @pytest.mark.parametrize("triple,b,delta", [
        ((3, 16, 113), (-1, -5, -40), -1),
        ((2, 3, 5), (-1, -2, -4), -2),
        ((2, 3, 7), (-1, -1, -1), -1),
    ])
    def test_known_values(self, triple, b, delta):
        sd = seifert_invariants(BrieskornTriple.of(*triple))
        assert sd.b == b
        assert sd.delta == delta

    def test_congruence_and_uniqueness_random(self):
        for (a, b, c) in random_triples(40, seed=5):
            t = BrieskornTriple.of(a, b, c)
            sd = seifert_invariants(t)
            prod = t.product
            for ai, bi in zip(t.entries, sd.b):
                assert -ai < bi < 0
                assert (prod // ai * bi) % ai == 1 % ai
                # exhaustive: no other residue in range works
                others = [x for x in range(-ai + 1, 0)
                          if (prod // ai * x) % ai == 1 % ai]
                assert others == [bi]
            delta = Fraction(-1, prod) + sum(
                Fraction(bi, ai) for ai, bi in zip(t.entries, sd.b))
            assert delta == sd.delta and delta <= -1


class TestRInvariant:
    @pytest.mark.parametrize("triple,r", [
        ((2, 3, 5), 1),
        ((3, 16, 113), -1),
        ((2, 3, 7), -1),
    ])
    def test_known_values(self, triple, r):
        assert r_invariant(BrieskornTriple.of(*triple)) == r

    def test_odd_and_bounded(self):
        for (a, b, c) in random_triples(40, seed=9):
            t = BrieskornTriple.of(a, b, c)
            r = r_invariant(t)
            assert r % 2 == 1 and r >= -1
            assert (r == -1) == (seifert_invariants(t).delta == -1)


class TestFamilies:
    def test_stern_examples(self):
        assert family("stern", 3, 5, "+").entries == (3, 16, 113)
        # s = k*p with p = 5, k = 1 is the same member.
        s = 1 * 5
        assert family("stern", 3, s, "+").entries == (3, 3 * s + 1, 21 * s + 8)

    def test_casson_harer_examples(self):
        assert family("casson-harer", 3, 1, "+").entries == (3, 4, 5)
        assert family("casson-harer", 2, 3).entries == (2, 5, 7)
        assert family("casson-harer", 5, 1, "-").entries == (3, 4, 5)

    def test_rejects_degenerate_and_bad_parity(self):
        with pytest.raises(ValueError):
            family("casson-harer", 2, 1)      # entry 1
        with pytest.raises(ValueError):
            family("casson-harer", 3, 1, "-")  # entry 1
        with pytest.raises(ValueError):
            family("casson-harer", 2, 2)      # r even needs s odd
        with pytest.raises(ValueError):
            family("stern", 4, 2)             # r even needs s odd
        with pytest.raises(ValueError):
            family("stern", 2, 1, "-")        # middle entry rs - 1 = 1
        with pytest.raises(ValueError):
            family("unknown", 3, 1)
        assert family("casson-harer", 3, 3, "-").entries == (3, 7, 8)

    def test_casson_harer_all_bound_contractible(self):
        # every valid member with r, s <= 9 has central weight -1
        count = 0
        for r in range(2, 10):
            signs = ("+",) if r % 2 == 0 else ("+", "-")
            for s in range(1, 10):
                for sign in signs:
                    try:
                        t = family("casson-harer", r, s, sign)
                    except ValueError:
                        continue
                    assert seifert_invariants(t).delta == -1, t
                    count += 1
        assert count > 30

    def test_stern_extension_family_delta(self):
        # the locally-linear family members with r <= 7, k <= 3 all have
        # central weight -1 (here p runs over small valid primes)
        for r in (3, 5, 7):
            for p in (5, 7, 11):
                if p % 2 == 0 or (2 * r * (r + 1)) % p == 0:
                    continue
                for k in (1, 2, 3):
                    t = family("stern", r, k * p, "+")
                    assert seifert_invariants(t).delta == -1, t


class TestStandardAction:
    def test_gcd_condition(self):
        t = BrieskornTriple.of(3, 16, 113)
        assert standard_action_valid(t, 5)
        assert not standard_action_valid(t, 3)
        assert not standard_action_valid(BrieskornTriple.of(2, 3, 7), 7)

    @pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 9, 15])
    def test_order_rule(self, p):
        with pytest.raises(ValueError) as info:
            check_order(p)
        assert str(info.value) == f"p must be an odd prime >= 3, got {p}"
        with pytest.raises(ValueError) as info:
            check_action(BrieskornTriple.of(2, 7, 13), p)
        assert str(info.value) == f"p must be an odd prime >= 3, got {p}"


def test_public_names_resolve_and_exclude_test_helpers():
    for name in brieskorn.__all__:
        getattr(brieskorn, name)
    for name in ("torsion_lens", "gamma_k_graph", "fickle_graph"):
        assert name not in brieskorn.__all__
        assert not hasattr(brieskorn, name)
    assert not hasattr(brieskorn.UnimodularForm, "evaluate")
    assert not hasattr(brieskorn.Cyclotomic, "__pow__")
    assert not hasattr(brieskorn.Cyclotomic, "is_zero")
