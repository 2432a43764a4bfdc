"""Independent oracles for the Seifert data, the resolution and the markup.

The resolution (``canonical_resolution``) and the markup
(``propagate_rotations``) have no second implementation to compare with,
so these tests check them against facts of the plumbing calculus
instead:

- *R-invariant.*  The Fintushel-Stern cotangent sum for R(a1, a2, a3),
  in floats, lies within 1e-6 of ``SeifertData.r_invariant`` (Fintushel
  and Stern, "Pseudofree orbifolds", Ann. of Math. 122 (1985)).  Each
  branch's term also has an exact closed form, a sawtooth value, which
  the float sum checks on small entries and which gives R exactly on
  entries up to 2*10^9, where the float sum would take minutes.
- *Branch continuants.*  Read off the graph alone, branch i has
  continuant +-a_i, and the branch without its first node +-|b_i|; the
  centre weight is delta, and delta = -1/P - sum |b_i|/a_i for
  P = a1 a2 a3, so the boundary has the triple's Seifert invariants.
- *Blow-up invariance.*  A blow-up does not change the boundary or its
  Z/p action (W. Neumann, "A calculus for plumbing...", Trans. AMS 268
  (1981)), so rho from eta(zeta) of the blown-up tree's markup and
  signature equals the resolution's.  A constant shift of eta, such as
  a wrong signature term, is invisible to rho.

Each is checked under ``hypothesis`` on random pairwise-coprime triples,
and free primes p < 40 for the blow-ups.  The first two also run on
``LARGE_ENTRIES``, whose resolutions are short but whose entries are up
to 2*10^9.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from brieskorn.arith import is_prime
from brieskorn.lattice import UnimodularForm, diagonalize
from brieskorn.plumbing import (PlumbingGraph, canonical_resolution,
                                graph_signature, intersection_matrix,
                                propagate_rotations)
from brieskorn.seifert import BrieskornTriple, seifert_invariants
from brieskorn.spectral import eta_from_fixed_data, rho_from_eta
from conftest import LARGE_ENTRIES


@st.composite
def coprime_triples(draw, a_max=9, b_max=60, c_max=200):
    """Pairwise-coprime entries >= 2, each from its own range."""
    a = draw(st.integers(min_value=2, max_value=a_max))
    b = draw(st.integers(min_value=2, max_value=b_max).filter(
        lambda x: math.gcd(a, x) == 1))
    c = draw(st.integers(min_value=2, max_value=c_max).filter(
        lambda x: math.gcd(a * b, x) == 1))
    return BrieskornTriple.of(a, b, c)


def fintushel_stern_term(a, ai):
    """Branch a_i's term of the Fintushel-Stern sum, in floats:
    (2/a_i) sum_{k=1}^{a_i - 1}
    cot(pi a k / a_i^2) cot(pi k / a_i) sin^2(pi k / a_i)."""
    # a k / a_i^2 is reduced exactly before it meets a float.
    return 2 / ai * sum(
        math.sin(math.pi * k / ai) ** 2
        / math.tan(math.pi * (a * k % ai ** 2) / ai ** 2)
        / math.tan(math.pi * k / ai)
        for k in range(1, ai))


def fintushel_stern_r(triple):
    """R = 2/a + sum_i fintushel_stern_term(a, a_i), a = a1 a2 a3."""
    a = triple.product
    return 2 / a + sum(fintushel_stern_term(a, ai) for ai in triple.entries)


def sawtooth_term(a, ai):
    """fintushel_stern_term(a, a_i) exactly, in O(log a_i) steps:
    -2((h'/a_i)) = 1 - 2h'/a_i, where h' in 1..a_i-1 is the inverse of
    h = a/a_i mod a_i and ((x)) = x - floor(x) - 1/2.  Since
    sin^2(x) cot(x) = sin(2x)/2 and a k / a_i^2 = h k / a_i, putting
    j = h k mod a_i into Eisenstein's finite Fourier series
    sum_{j=1}^{c-1} cot(pi j / c) sin(2 pi j x / c) = -2c ((x/c))
    gives the term."""
    return 1 - Fraction(2 * pow(a // ai, -1, ai), ai)


def continuants(ts):
    """(K(t_1, ..., t_m), K(t_2, ..., t_m)) for K() = 1 and
    K(t_1, ..., t_m) = t_1 K(t_2, ..., t_m) - K(t_3, ..., t_m)."""
    k, k_rest = 1, 0
    for t in reversed(ts):
        k, k_rest = t * k - k_rest, k
    return k, k_rest


def rho_of_star(center, chains, p):
    g = PlumbingGraph(center, tuple(map(tuple, chains)))
    markup = propagate_rotations(g, p)
    eta = eta_from_fixed_data(markup, graph_signature(g)[0])
    return rho_from_eta(eta)


@settings(max_examples=150, deadline=None)
@given(coprime_triples())
def test_r_invariant_is_the_fintushel_stern_sum(triple):
    r = seifert_invariants(triple).r_invariant
    assert r % 2 == 1
    assert abs(fintushel_stern_r(triple) - r) < 1e-6


@settings(max_examples=100, deadline=None)
@given(coprime_triples())
def test_sawtooth_terms_are_the_fintushel_stern_terms(triple):
    a = triple.product
    for ai in triple.entries:
        assert abs(fintushel_stern_term(a, ai) - sawtooth_term(a, ai)) < 1e-6


@settings(max_examples=150, deadline=None)
@given(coprime_triples())
def test_branch_continuants_recover_the_seifert_data(triple):
    assert_continuants_recover(triple)


def assert_continuants_recover(triple):
    """The branches of the resolution give back each a_i and |b_i|, and
    the centre weight is delta; returns the resolution."""
    sd = seifert_invariants(triple)
    g = canonical_resolution(sd)
    read = {}
    for chain in g.branches:
        k, k_rest = continuants(chain)
        read[abs(k)] = abs(k_rest)
    assert read == {ai: abs(bi) for ai, bi in zip(triple.entries, sd.b)}
    center = g.center
    assert center == sd.delta
    assert center == -Fraction(1, triple.product) - sum(
        Fraction(b, a) for a, b in read.items())
    return g


@pytest.mark.parametrize(
    "triple, n, r, diagonalizable, p", LARGE_ENTRIES,
    ids=["Sigma(%d,%d,%d)" % entry[0] for entry in LARGE_ENTRIES])
def test_large_entries_resolve_exactly(triple, n, r, diagonalizable, p):
    # The checks above on entries up to 2*10^9.  The float sum is O(a_i),
    # so it checks the sawtooth terms only where a_i <= 10^4; the
    # sawtooth terms give R on every branch.  The form is negative
    # definite, so its elimination meets no zero pivot, and at p the
    # action fixes a sphere inside a branch.
    t = BrieskornTriple.of(*triple)
    g = assert_continuants_recover(t)
    assert len(g.weights) == n
    a = t.product
    assert seifert_invariants(t).r_invariant == r == Fraction(2, a) + sum(
        sawtooth_term(a, ai) for ai in t.entries)
    for ai in t.entries:
        if ai <= 10 ** 4:
            float_term = fintushel_stern_term(a, ai)
            assert abs(float_term - sawtooth_term(a, ai)) < 1e-6
    assert graph_signature(g) == (-n, "negative-definite")
    form = UnimodularForm.from_matrix(intersection_matrix(g))
    assert diagonalize(form).found is diagonalizable
    if p is not None:
        degree = Counter(v for edge in g.edges for v in edge)
        assert any(v != 0 and degree[v] == 2 for v, _, _ in
                   propagate_rotations(g, p).fixed_spheres)


@st.composite
def blow_up_cases(draw):
    triple = draw(coprime_triples(7, 40, 90))
    p = draw(st.sampled_from([q for q in range(3, 40) if is_prime(q)]))
    assume(triple.product % p)
    # (branch, position) pairs; position j < len(branch) blows up the edge
    # into node j of the branch, j == len(branch) the leaf.  A Brieskorn
    # resolution has three branches.
    moves = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 200)),
                          min_size=1, max_size=3))
    return triple, p, moves


@settings(max_examples=200, deadline=None)
@given(blow_up_cases())
def test_blow_ups_keep_rho(case):
    triple, p, moves = case
    g = canonical_resolution(seifert_invariants(triple))
    center, chains = g.center, [list(chain) for chain in g.branches]
    expected = rho_of_star(center, chains, p)
    for i, j in moves:
        chain = chains[i]
        j %= len(chain) + 1
        if j == len(chain):      # a -1 leaf hung on the leaf
            chain[-1] -= 1
            chain.append(-1)
        else:                    # a -1 node inserted on the edge into j
            chain[j] -= 1
            if j:
                chain[j - 1] -= 1
            else:
                center -= 1
            chain.insert(j, -1)
    assert rho_of_star(center, chains, p) == expected
