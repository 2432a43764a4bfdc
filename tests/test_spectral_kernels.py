"""The integer-scaled spectral kernels against the dense-Fraction oracles
in spectral_oracle.py, and the eta(zeta) read-offs (rho tables, lens
matches, direct lens candidates) against the Fourier transforms and the
pair scan they replace, on random inputs."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import spectral_oracle as oracle
from brieskorn import (BrieskornTriple, Cyclotomic, canonical_resolution,
                       eta_brieskorn, eta_from_fixed_data, family,
                       fixed_point_data, graph_signature,
                       ll_extension_search, nu_defect,
                       propagate_rotations, rho_from_eta, rho_lens_table,
                       seifert_invariants, sphere_defect,
                       standard_action_valid)
from brieskorn.arith import is_prime
from brieskorn.spectral import _inv_zeta_minus_one
from conftest import random_triples

PRIMES = [p for p in range(3, 38) if is_prime(p)]

primes = st.sampled_from(PRIMES)
units = st.integers(min_value=-200, max_value=200)


def nonzero_mod(p, x):
    return x if x % p else x + 1


@st.composite
def cyclotomic(draw, p):
    coeffs = draw(st.lists(
        st.fractions(max_denominator=10**12).filter(
            lambda f: abs(f.numerator) < 10**15),
        min_size=0, max_size=p))
    return Cyclotomic(p, coeffs)


@given(primes, units)
def test_inverse_matches_euclid(p, m):
    m = nonzero_mod(p, m)
    assert _inv_zeta_minus_one(p, m) == oracle.inv_zeta_minus_one(p, m)


@given(primes, units, units, units)
def test_nu_defect_matches_three_products(p, a, b, j):
    a, b, j = nonzero_mod(p, a), nonzero_mod(p, b), nonzero_mod(p, j)
    assert nu_defect(a, b, p).galois(j) == oracle.nu_defect(a, b, p, j)


@given(primes, units, units, st.integers(min_value=-5, max_value=5))
def test_sphere_defect_matches_euclid_division(p, c, j, w):
    c, j = nonzero_mod(p, c), nonzero_mod(p, j)
    assert sphere_defect(w, c, p).galois(j) == oracle.sphere_defect(w, c, p, j)


@settings(max_examples=20, deadline=None)
@given(primes, units, units)
def test_rho_lens_matches_fraction_sum(p, r, s):
    r, s = nonzero_mod(p, r), nonzero_mod(p, s)
    assert rho_lens_table(p, r, s).values == tuple(
        oracle.rho_lens_exact(p, r, s, ell) for ell in range(p))


@given(st.data())
def test_product_matches_dense_fraction_convolution(data):
    p = data.draw(primes)
    x = data.draw(cyclotomic(p))
    y = data.draw(cyclotomic(p))
    assert x * y == oracle.mul(x, y)
    q = data.draw(st.fractions(max_denominator=10**9))
    assert x * q == q * x == oracle.mul(x, Cyclotomic.from_rational(p, q))


def test_closed_form_inverse_times_zeta_power_minus_one_is_one():
    for p in (q for q in PRIMES if q <= 31):
        for m in range(1, p):
            assert _inv_zeta_minus_one(p, m) * (Cyclotomic.zeta(p, m) - 1) == 1


def quotient_data(triple, p):
    graph = canonical_resolution(seifert_invariants(triple))
    return fixed_point_data(propagate_rotations(graph, p),
                            graph_signature(graph)[0])


@st.composite
def family_member(draw):
    kind = draw(st.sampled_from(["stern", "casson-harer"]))
    r = draw(st.integers(min_value=2, max_value=5))
    s = draw(st.integers(min_value=1, max_value=9))
    if r % 2 == 0 and s % 2 == 0:
        s += 1
    try:
        triple = family(kind, r, s, draw(st.sampled_from("+-")))
    except ValueError:  # a degenerate member
        assume(False)
    p = draw(st.sampled_from([p for p in PRIMES if p <= 17]).filter(
        lambda q: standard_action_valid(triple, q)))
    return triple, p


@settings(max_examples=25, deadline=None)
@given(family_member())
def test_eta_and_rho_match_fraction_oracles(member):
    triple, p = member
    fd = quotient_data(triple, p)
    eta = eta_from_fixed_data(fd, p)
    expected = oracle.eta_values(fd, p)
    assert {j: eta.galois(j) for j in range(1, p)} == expected
    assert rho_from_eta(eta).values == oracle.rho_from_eta(expected, p)


TRIPLES = random_triples(200, seed=4)


@st.composite
def triple_and_prime(draw):
    triple = BrieskornTriple.of(*draw(st.sampled_from(TRIPLES)))
    p = draw(primes.filter(lambda q: standard_action_valid(triple, q)))
    return triple, p


def galois_profile(eta):
    """The Galois-checked profile j -> eta(zeta^j) of the oracle."""
    return oracle.EtaProfile(eta.p, {j: eta.galois(j) for j in range(1, eta.p)})


@settings(max_examples=25, deadline=None)
@given(triple_and_prime(), st.data())
def test_rho_read_off_matches_fourier_transform(member, data):
    triple, p = member
    fd = quotient_data(triple, p)
    eta = eta_from_fixed_data(fd, p)
    j = data.draw(st.integers(min_value=1, max_value=p - 1))
    assert eta.galois(j) == oracle.eta_value(fd, p, j)
    profile = galois_profile(eta)
    assert rho_from_eta(eta).values == oracle.rho_from_eta(profile.values, p)


def assert_search_matches_scan(triple, p):
    eta = eta_from_fixed_data(quotient_data(triple, p), p)
    sigma_rho = oracle.rho_from_eta(galois_profile(eta).values, p)
    expected = oracle.ll_extension_search(triple, p, sigma_rho)
    assert ll_extension_search(triple, p, eta) == expected
    assert ll_extension_search(triple, p, eta_brieskorn(triple, p)) == expected
    return expected


@settings(max_examples=40, deadline=None)
@given(triple_and_prime())
def test_lens_search_matches_pair_scan(member):
    assert_search_matches_scan(*member)


@pytest.mark.parametrize("triple,p,matches", [
    ((3, 16, 113), 5, [True]),
    ((3, 19, 134), 5, [False]),
    ((3, 28, 197), 5, []),
    ((3, 22, 155), 7, [True]),
    ((5, 36, 397), 7, [True]),
    ((3, 32, 223), 11, [True]),
    ((7, 78, 1171), 11, [True]),
    (family("stern", 3, 37, "+").entries, 37, [True]),
])
def test_lens_search_matches_pair_scan_on_known_inputs(triple, p, matches):
    expected = assert_search_matches_scan(BrieskornTriple.of(*triple), p)
    assert [c.rho_match for c in expected] == matches
