"""Seifert invariants, the R-invariant, and the triple families."""

import inspect
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import brieskorn
from brieskorn import (arith, lattice, matrices, obstruction, plumbing,
                       spectral)
from brieskorn.rules import FAMILY_KINDS, P_MAX
from brieskorn.seifert import (BrieskornTriple, check_action, check_order,
                               family, seifert_invariants,
                               standard_action_valid)
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


def seifert_b_by_scan(triple):
    """The b_i by exhaustive residue scan over (-a_i, 0), each checked to
    be the only root in that range."""
    prod = triple.product
    b = []
    for ai in triple.entries:
        roots = [x for x in range(-ai + 1, 0) if (prod // ai * x) % ai == 1 % ai]
        assert len(roots) == 1
        b.append(roots[0])
    return tuple(b)


entries = st.integers(min_value=2, max_value=3000)


@st.composite
def coprime_triples(draw):
    # Drawn entry by entry: three independent draws are pairwise coprime
    # only 29% of the time, which can trip the filter health check.
    a = draw(entries)
    b = draw(entries.filter(lambda x: gcd(a, x) == 1))
    c = draw(entries.filter(lambda x: gcd(a * b, x) == 1))
    return a, b, c


@given(coprime_triples())
def test_closed_form_matches_residue_scan(abc):
    triple = BrieskornTriple.of(*abc)
    assert seifert_invariants(triple).b == seifert_b_by_scan(triple)


@given(coprime_triples())
def test_r_invariant_is_odd_and_at_least_minus_one(abc):
    # SeifertData keeps only delta <= -1; R = -2 delta - 3 is then odd and
    # >= -1, which seifert_invariants once checked on every triple.
    sd = seifert_invariants(BrieskornTriple.of(*abc))
    assert sd.r_invariant == -2 * sd.delta - 3
    assert sd.r_invariant % 2 == 1 and sd.r_invariant >= -1


def seifert_by_fractions(triple):
    """b and delta as the solve once computed them, delta summed over
    Fraction: the oracle of the integer solve."""
    a, prod = triple.entries, triple.product
    b = tuple(pow(prod // ai, -1, ai) - ai for ai in a)
    delta = Fraction(-1, prod) + sum(Fraction(bi, ai) for ai, bi in zip(a, b))
    assert delta.denominator == 1
    return b, int(delta)


@given(coprime_triples())
def test_integer_solve_matches_the_fraction_formula(abc):
    triple = BrieskornTriple.of(*abc)
    sd = seifert_invariants(triple)
    assert (sd.b, sd.delta) == seifert_by_fractions(triple)


def test_non_integral_central_weight_is_an_arithmetic_error(monkeypatch):
    # Unreachable with the true inverses b = (-1, -1, -1) of (2, 3, 7);
    # b_i = 1 - a_i leaves (-1*21 - 2*14 - 6*6 - 1)/42 = -86/42.
    import brieskorn.seifert as seifert
    monkeypatch.setattr(seifert, "pow", lambda x, e, m: 1, raising=False)
    with pytest.raises(ArithmeticError,
                       match="central weight is not an integer: -86/42"):
        seifert_invariants(BrieskornTriple.of(2, 3, 7))


def test_closed_form_on_large_entries():
    # The residue scan is O(a_i); the closed form is not.
    sd = seifert_invariants(BrieskornTriple.of(3, 300001, 2100008))
    prod = sd.triple.product
    for ai, bi in zip(sd.triple.entries, sd.b):
        assert -ai < bi < 0 and (prod // ai * bi) % ai == 1
    assert sd.delta == -1


class TestRInvariant:
    @pytest.mark.parametrize("triple,r", [
        ((2, 3, 5), 1),
        ((3, 16, 113), -1),
        ((2, 3, 7), -1),
    ])
    def test_known_values(self, triple, r):
        assert seifert_invariants(BrieskornTriple.of(*triple)).r_invariant == r

    def test_odd_and_bounded(self):
        for (a, b, c) in random_triples(40, seed=9):
            t = BrieskornTriple.of(a, b, c)
            r = seifert_invariants(t).r_invariant
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

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("r, s", [(2, 2), (4, 6), (10, 100)])
    def test_both_kinds_refuse_even_r_with_even_s_alike(self, r, s, sign):
        assert FAMILY_KINDS == ("casson-harer", "stern")
        for kind in FAMILY_KINDS:
            with pytest.raises(ValueError) as info:
                family(kind, r, s, sign)
            assert str(info.value) == (
                f"r even requires s odd, got r={r}, s={s}")

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

    def test_order_ceiling(self):
        # 99991 is the largest prime below the ceiling, 100003 the first
        # prime above it; an oversized composite is refused the same way.
        assert P_MAX == 100_000
        check_order(99991)
        for p in (100003, 10**6, 10**9 + 7, 10**40):
            for check in (check_order,
                          lambda q: check_action(BrieskornTriple.of(2, 7, 13), q)):
                with pytest.raises(ValueError) as info:
                    check(p)
                assert str(info.value) == f"p must be at most 100000, got {p}"


def test_public_names_resolve_and_exclude_test_helpers():
    for name in brieskorn.__all__:
        getattr(brieskorn, name)
    for name in ("torsion_lens", "gamma_k_graph", "fickle_graph"):
        assert name not in brieskorn.__all__
        assert not hasattr(brieskorn, name)
    assert not hasattr(lattice.UnimodularForm, "evaluate")
    assert not hasattr(brieskorn, "sphere_defect")
    assert not hasattr(spectral, "sphere_defect")
    assert not hasattr(spectral.LensCandidate, "congruence_ok")
    # Spectral values are plain int vectors; the field Q(zeta_p) lives
    # only in the reference field of tests/spectral_oracle.py.
    assert "Cyclotomic" not in brieskorn.__all__
    for name in ("Cyclotomic", "convolve", "_canonical", "_fold",
                 "hj_evaluate", "_as_fraction"):
        assert not hasattr(brieskorn, name), name
        assert not hasattr(arith, name), name
    assert "hj_evaluate" not in brieskorn.__all__
    assert not hasattr(brieskorn, "hj_evaluate")
    # One source each: the R-invariant is SeifertData.r_invariant, the
    # unimodularity and symmetry checks live in their one caller,
    # build_analysis is the one uncached analysis, and C^-1 is derived.
    assert "r_invariant" not in brieskorn.__all__
    assert not hasattr(brieskorn, "r_invariant")
    assert not hasattr(brieskorn.seifert, "r_invariant")
    assert not hasattr(lattice.UnimodularForm, "is_unimodular")
    # det Q and definiteness are read off form.elimination, the node count
    # is len(g.weights), a graph is its centre weight and branches and
    # walks no adjacency map, and a verdict is feasible exactly when it
    # has no certificate.
    for cls, name in ((lattice.UnimodularForm, "determinant"),
                      (lattice.UnimodularForm, "is_negative_definite"),
                      (plumbing.PlumbingGraph, "node_count"),
                      (plumbing.PlumbingGraph, "adjacency"),
                      (obstruction.ObstructionVerdict, "feasible")):
        assert not hasattr(cls, name), name
    assert not hasattr(matrices, "is_symmetric")
    assert not hasattr(plumbing, "star")
    assert "use_cache" not in inspect.signature(
        brieskorn.cached_analysis).parameters
    form = lattice.UnimodularForm.from_matrix(((-1,),))
    diag = lattice.diagonalize(form)
    with pytest.raises(TypeError):
        lattice.Diagonalization(diag.form, diag.c, diag.c_inv)
