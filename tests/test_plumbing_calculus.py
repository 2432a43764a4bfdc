"""Independent oracles for the Seifert data, the resolution and the markup.

The resolution (``canonical_resolution``) and the markup
(``propagate_rotations``) have no second implementation to compare with,
so these tests check them against facts of the plumbing calculus
instead:

- *R-invariant.*  The Fintushel-Stern cotangent sum for R(a1, a2, a3),
  in floats, lies within 1e-6 of ``SeifertData.r_invariant`` (Fintushel
  and Stern, "Pseudofree orbifolds", Ann. of Math. 122 (1985)).
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
and free primes p < 40 for the blow-ups.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from brieskorn import (BrieskornTriple, canonical_resolution,
                       eta_from_fixed_data, graph_signature,
                       propagate_rotations, rho_from_eta, seifert_invariants,
                       star)
from brieskorn.arith import is_prime


@st.composite
def coprime_triples(draw, a_max=9, b_max=60, c_max=200):
    """Pairwise-coprime entries >= 2, each from its own range."""
    a = draw(st.integers(min_value=2, max_value=a_max))
    b = draw(st.integers(min_value=2, max_value=b_max).filter(
        lambda x: math.gcd(a, x) == 1))
    c = draw(st.integers(min_value=2, max_value=c_max).filter(
        lambda x: math.gcd(a * b, x) == 1))
    return BrieskornTriple.of(a, b, c)


def fintushel_stern_r(triple):
    """R = 2/a + sum_i (2/a_i) sum_{k=1}^{a_i - 1}
    cot(pi a k / a_i^2) cot(pi k / a_i) sin^2(pi k / a_i), a = a1 a2 a3."""
    a = triple.product
    total = 2 / a
    for ai in triple.entries:
        # a k / a_i^2 is reduced exactly before it meets a float.
        total += 2 / ai * sum(
            math.sin(math.pi * k / ai) ** 2
            / math.tan(math.pi * (a * k % ai ** 2) / ai ** 2)
            / math.tan(math.pi * k / ai)
            for k in range(1, ai))
    return total


def branches(g):
    """The weights of each branch, walked outward from the centre."""
    adj = g.adjacency()
    out = []
    for start in adj[g.center]:
        chain, prev, cur = [], g.center, start
        while True:
            chain.append(g.weights[cur])
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            assert len(nxt) == 1, "a branch point away from the centre"
            prev, cur = cur, nxt[0]
        out.append(chain)
    return out


def continuants(ts):
    """(K(t_1, ..., t_m), K(t_2, ..., t_m)) for K() = 1 and
    K(t_1, ..., t_m) = t_1 K(t_2, ..., t_m) - K(t_3, ..., t_m)."""
    k, k_rest = 1, 0
    for t in reversed(ts):
        k, k_rest = t * k - k_rest, k
    return k, k_rest


def rho_of_star(center, chains, p):
    g = star(center, chains)
    markup = propagate_rotations(g, p)
    eta = eta_from_fixed_data(markup, graph_signature(g)[0])
    return rho_from_eta(eta)


@settings(max_examples=150, deadline=None)
@given(coprime_triples())
def test_r_invariant_is_the_fintushel_stern_sum(triple):
    r = seifert_invariants(triple).r_invariant
    assert r % 2 == 1
    assert abs(fintushel_stern_r(triple) - r) < 1e-6


@settings(max_examples=150, deadline=None)
@given(coprime_triples())
def test_branch_continuants_recover_the_seifert_data(triple):
    sd = seifert_invariants(triple)
    g = canonical_resolution(sd)
    read = {}
    for chain in branches(g):
        k, k_rest = continuants(chain)
        read[abs(k)] = abs(k_rest)
    assert read == {ai: abs(bi) for ai, bi in zip(triple.entries, sd.b)}
    center = g.weights[g.center]
    assert center == sd.delta
    assert center == -Fraction(1, triple.product) - sum(
        Fraction(b, a) for a, b in read.items())


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
    center, chains = g.weights[g.center], branches(g)
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
