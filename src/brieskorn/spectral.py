"""Equivariant eta invariants, rho invariants and the locally-linear
extension search.

All spectral values live in Q(zeta_p) and are exact.  Each is a tuple v of
p ints standing for sum_i v_i zeta^i / p^2 (p = len(v)).  As
1 + zeta + ... + zeta^(p-1) = 0 and 1, zeta, ..., zeta^(p-2) are a basis,
sum_i v_i zeta^i = 0 exactly when all the v_i are equal: v is the exact
value up to an added constant vector, with no reduction mod Phi_p and no
gcd.  Every reader below is invariant under that constant: the rho
read-offs, the lens match and ``coefficients_at`` read differences of
entries, and the reality check compares v_j with v_{-j}.  Only this
module indexes the vectors.

The boundary eta invariant of an equivariant 4-manifold with isolated
fixed points (a_i, b_i), fixed spheres of self-intersection w and normal
rotation c, and signature sigma is, at t = zeta^j != 1 (for a plumbing,
the points, the spheres and p are read off its EquivariantMarkup),

    eta(t) = sum_i nu(a_i, b_i; t) + sum_F w (-4 t^c) / (t^c - 1)^2 - sigma,
    nu(a, b; t) = (t^a + 1)(t^b + 1) / ((t^a - 1)(t^b - 1)).

The sphere-term sign (a (-1)-sphere with c = 1 contributes +4t/(t-1)^2)
makes -2 nu(1,2;t) + 4t/(t-1)^2 + 2 vanish identically (the cancellation
used for the bounding family).

A sphere term is w (1 - nu(c, c; t)): with u = t^c,
1 - ((u + 1)/(u - 1))^2 = ((u - 1)^2 - (u + 1)^2)/(u - 1)^2 = -4u/(u - 1)^2.
So both kinds of fixed point go through the one kernel nu:

    eta(t) = sum_i nu(a_i, b_i; t) - sum_F w nu(c, c; t) + (sum_F w - sigma).

Many fixed points share a class: eta gathers the terms into one integer
multiplicity per class (+1 on (a, b) per isolated point, -w on (c, c) per
sphere) and adds k nu(a, b; zeta) once per class.  Isolated points are
canonical pairs, and a sphere's class is keyed by min(c, p - c): negating
both rotations negates both factors of nu, so nu(c, c) and nu(-c, -c) are
one value, and nu_defect's vectors, normalized to entry 0 = p^2, are
equal.  nu_defect keeps no memo, so a call holds O(p) ints at a time and
nothing outlives it.

Only eta = eta(zeta) is computed: eta(t) is a rational function of t
over Q, so eta(zeta^j) is the image of eta(zeta) under zeta -> zeta^j, a
permutation of the vector's entries (``coefficients_at``).  eta is real
(t -> 1/t negates both factors of nu), and that is the one runtime check:
eta(zeta^-1) = eta(zeta) says v_j - v_{-j} is constant, and it is 0 at
j = 0, so v_j = v_{-j} for every j.

The rho invariants of the quotient and of the lens space L(p; r, s) are
defined by the finite Fourier transform and the cotangent sum

    rho(l) = (1/p) sum_{j != 0} eta(zeta^j) (zeta^{jl} - 1)
           = (1/p) Tr(eta (zeta^l - 1)),
    rho_L(l) = (2/p) sum_{k=1}^{p-1} cot(pi kr/p) cot(pi ks/p) sin^2(pi kl/p)
             = (1/2p) Tr(nu(r, s; zeta) (zeta^l + zeta^-l - 2))

(by cot(pi kx/p) = i (zeta^{kx} + 1)/(zeta^{kx} - 1) and
sin^2(pi kl/p) = (2 - zeta^{kl} - zeta^{-kl})/4), and are read off
entries.  With v and n the vectors of eta and of nu(r, s; zeta),

    rho(l) = (v_{-l mod p} - v_0)/p^2,
    rho_L(l) = (n_l + n_{-l} - 2 n_0)/(2p^2),

because Tr(sum_{k<p} x_k zeta^k) = p x_0 - sum_k x_k for any length-p x,
and eta (zeta^l - 1) has entry sum 0 and constant entry v_{-l} - v_0.

The two rho tables agree exactly when eta = nu(r, s; zeta), that is when
v_j - v_0 = n_j - n_0 for every j: nu is real, so its transform is even
in l and equals rho_L, and the transform is injective (v_k - v_0 is
p^2 rho(-k)).

The lens search solves its congruences instead of scanning pairs.  A
one-fixed-point extension with rotation data (r, s) needs {a1, a2, a3} =
{1, r, s} (mod p) up to sign and a1 a2 a3 = r s (mod p).  With the
entries' classes up to sign 1, u, v, the product P is +-uv, so s = P u^-1
is +-v and (u, s) is the one pair up to the pair symmetries: at most one
candidate, and one rho comparison.

The kernel writes the integer entries directly, by two identities:
1/(zeta^m - 1) = (1/p) sum_{k<p} k zeta^{mk} for m != 0 mod p (multiply
out: (zeta^m - 1) sum_k k zeta^{mk} = p); and nu(a, b; t) =
(1 + 2/(t^a - 1))(1 + 2/(t^b - 1)).  So in Z[x]/(x^p - 1),

    p^2 nu = (p + 2 A_a)(p + 2 A_b),    A_m[i] = i m^-1 mod p,

and the coefficient of zeta^j is

    N_j = p^2 [j = 0] + 2p (j a^-1 mod p) + 2p (j b^-1 mod p) + 4 T(j b^-1 mod p),

where the cross term (A_a * A_b)[j] = sum_i A_a[i] A_b[j - i] becomes,
with k = i a^-1 and d = a b^-1 mod p,

    T(c) = sum_{k<p} k ((c - d k) mod p).

Its first difference is T(c+1) - T(c) = p(p-1)/2 - p k*, because raising
c by one raises every residue (c - d k) mod p by one except the one at
k* = (c+1) d^-1, which wraps from p - 1 to 0.  The kernel walks c from
T(0) := 0: that subtracts the constant 4 T(0) from every entry, which
leaves the value unchanged, so all p entries follow in O(p) integer
steps with no convolution and no sum for T(0).  Entry 0 of nu's vector
is then p^2, as every other term vanishes at j = 0.  eta, an integer
combination of nu values and an integer, is an integer combination of
their vectors plus p^2 times that integer at entry 0, and each rho value
is one Fraction(int, p^2) read off it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd

from .plumbing import (EquivariantMarkup, canonical_resolution,
                       centered_residue, graph_signature, propagate_rotations)
from .records import InputError, InternalInvariantError, record
from .rules import check_order
from .seifert import BrieskornTriple, check_action, seifert_invariants


Vector = tuple[int, ...]   # sum_i v[i] zeta^i / p^2 for p = len(v)


def nu_defect(a: int, b: int, p: int) -> Vector:
    """Isolated fixed-point defect (t^a+1)(t^b+1)/((t^a-1)(t^b-1)) at t = zeta
    (with a = b = c, also the kernel of a fixed sphere's term).

    p^2 nu = (p + 2 A_a)(p + 2 A_b) in Z[x]/(x^p - 1), for A_m[i] =
    i m^-1 mod p.  Walking c = 0 .. p-1, the coefficient of zeta^(cb) is
    2p (c e mod p) + 2p c + 4 T(c), plus p^2 at c = 0, with e = b a^-1 and
    T(c+1) = T(c) + p(p-1)/2 - p ((c+1) e mod p).  The walk starts at
    T(0) := 0, so the result is that product's p entries less the
    constant 4 T(0): the same value, normalized so that entry 0 is p^2.
    """
    check_order(p)
    a, b = a % p, b % p
    if a == 0 or b == 0:
        raise ValueError(f"rotation pair ({a},{b}) must be nonzero mod {p}")
    e = b * pow(a, -1, p) % p
    half, two_p = p * (p - 1) // 2, 2 * p
    out = [0] * p
    u = j = t = 0  # c e mod p, c b mod p and the cross term
    for c in range(p):
        out[j] = 4 * t + two_p * (u + c)
        u += e
        if u >= p:
            u -= p
        j += b
        if j >= p:
            j -= p
        t += half - p * u
    out[0] += p * p
    return tuple(out)


def eta_from_fixed_data(markup: EquivariantMarkup, signature: int) -> Vector:
    """Boundary eta invariant eta(zeta) of a plumbing's fixed set, read off
    its Z/p markup (isolated points, spheres (w, c) and p), and its
    signature, exactly.

    A sphere (w, c) adds w (1 - nu(c, c; zeta)), so eta is an integer
    combination of nu_defect values and an integer, summed as integer
    vectors with one nu_defect call per class (a, b), a sphere's class
    keyed by c up to sign.  eta is real by
    construction (v_j = v_{-j}); a value that is not signals a broken
    defect kernel and raises InternalInvariantError.
    """
    p = markup.p
    check_order(p)
    classes = Counter(markup.isolated_points)
    for _, w, c in markup.fixed_spheres:
        c = min(c, p - c)  # nu(c, c) = nu(-c, -c) as vectors
        classes[c, c] -= w
    acc = [0] * p
    acc[0] = p * p * (sum(w for _, w, _ in markup.fixed_spheres) - signature)
    for (a, b), k in classes.items():
        acc = [s + k * n for s, n in zip(acc, nu_defect(a, b, p))]
    if acc[1:] != acc[:0:-1]:
        raise InternalInvariantError(
            f"eta(zeta) is not real at p={p}: eta(zeta^-1) != eta(zeta)")
    return tuple(acc)


def coefficients_at(value: Vector, j: int) -> tuple[Fraction, ...]:
    """The coefficients of the value at t = zeta^j over 1, zeta, ...,
    zeta^(p-2), for j coprime to p.

    zeta -> zeta^j moves entry i j^-1 to zeta^i; the coordinates over the
    basis subtract the entry that lands on zeta^(p-1), which also cancels
    the added constant.
    """
    p = len(value)
    if gcd(j, p) != 1:
        raise ValueError(f"{j} is not invertible mod {p}")
    jinv, den = pow(j, -1, p), p * p
    top = value[(p - 1) * jinv % p]
    return tuple(Fraction(value[i * jinv % p] - top, den) for i in range(p - 1))


def eta_brieskorn(triple: BrieskornTriple, p: int) -> Vector:
    """eta(zeta) of the quotient data of Sigma(a1,a2,a3), via the
    canonical resolution with its equivariant markup."""
    check_action(triple, p)
    graph = canonical_resolution(seifert_invariants(triple))
    return eta_from_fixed_data(propagate_rotations(graph, p),
                               graph_signature(graph)[0])


def rho_from_eta(eta: Vector) -> tuple[Fraction, ...]:
    """rho(l) for l = 0 .. p-1: (v_{-l mod p} - v_0)/p^2 for v the vector
    of eta(zeta) (the Fourier transform, read off)."""
    p, v0 = len(eta), eta[0]
    den = p * p
    return tuple(Fraction(eta[-ell] - v0, den) for ell in range(p))


def rho_lens_table(p: int, r: int, s: int) -> tuple[Fraction, ...]:
    """Exact rho invariants of the lens space L(p; r, s), l = 0 .. p-1,
    read off the vector n of nu(r, s; zeta) (the cotangent sum) by
    rho_from_eta.  nu is real, so n_l = n_{-l}, and the symmetrized
    (n_l + n_{-l} - 2 n_0)/(2p^2) is the same number as (n_{-l} - n_0)/p^2."""
    check_order(p)
    if gcd(r, p) != 1 or gcd(s, p) != 1:
        raise InputError(f"rotation numbers ({r},{s}) must be coprime to {p}")
    return rho_from_eta(nu_defect(r, s, p))


# ---------------------------------------------------------------------------
# Locally linear extension search
# ---------------------------------------------------------------------------

@record
class LensCandidate:
    """A lens-space target passing the degree-one-map congruences.

    r, s are a canonical representative of the unordered pair modulo
    (r,s) ~ (s,r) ~ (-r,-s); rho_match records whether every character's
    rho invariant of the quotient equals the lens-space value.
    """

    p: int
    r: int
    s: int
    product_residue: int     # a1*a2*a3 mod p
    rs_residue: int          # r*s mod p
    multiset_residues: tuple[int, int, int]  # classes of (a1,a2,a3) up to sign
    rho_match: bool


def canonical_lens_pair(r: int, s: int, p: int) -> tuple[int, int]:
    """Canonical representative of (r, s) modulo the pair symmetries."""
    r, s = r % p, s % p
    variants = [tuple(sorted(v)) for v in ((r, s), (p - r, p - s))]
    return min(variants)


def _same_value(x: Vector, y: Vector) -> bool:
    """x and y stand for one number: x_j - x_0 = y_j - y_0 for every j,
    which says that their rho tables agree."""
    shift = x[0] - y[0]
    return all(a - b == shift for a, b in zip(x, y))


def ll_extension_search(triple: BrieskornTriple, p: int, eta: Vector
                        ) -> tuple[LensCandidate, ...]:
    """The one lens pair (r, s) mod p, if any, compatible with a
    one-fixed-point locally linear extension, with its rho diagnostic.

    A candidate has {a1, a2, a3} == {r, s, 1} (mod p) as multisets up to
    sign, so some a_i is +-1 and the other two are u, v up to sign, and
    a1*a2*a3 == r*s (mod p).  The product P = a1*a2*a3 is +-uv, so of the
    pairs (u, +-v) exactly one has u*s == P: s = P u^-1 (p is odd, so
    v != -v), and there is at most one candidate.  Its rho tables match
    exactly when eta(zeta) = nu(r, s; zeta), for eta the quotient's
    eta(zeta).
    """
    check_action(triple, p)
    if len(eta) != p:
        raise ValueError(f"eta is for p={len(eta)}, not p={p}")
    product_residue = triple.product % p
    # check_action makes p odd, where |centered residue| is the class of
    # a mod p up to sign, min(a % p, p - a % p).
    target = tuple(sorted(abs(centered_residue(a, p))
                          for a in triple.entries))
    if target[0] != 1:  # no entry is +-1 mod p
        return ()
    u = target[1]
    r, s = canonical_lens_pair(u, product_residue * pow(u, -1, p), p)
    return (LensCandidate(p=p, r=r, s=s, product_residue=product_residue,
                          rs_residue=(r * s) % p, multiset_residues=target,
                          rho_match=_same_value(eta, nu_defect(r, s, p))),)
