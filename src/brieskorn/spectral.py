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
rotation c, and signature sigma is, at t = zeta^j != 1,

    eta(t) = sum_i nu(a_i, b_i; t) + sum_F w (-4 t^c) / (t^c - 1)^2 - sigma,
    nu(a, b; t) = (t^a + 1)(t^b + 1) / ((t^a - 1)(t^b - 1)).

The sphere-term sign (a (-1)-sphere with c = 1 contributes +4t/(t-1)^2)
makes -2 nu(1,2;t) + 4t/(t-1)^2 + 2 vanish identically (the cancellation
used for the bounding family).

A sphere term is w (1 - nu(c, c; t)): with u = t^c,
1 - ((u + 1)/(u - 1))^2 = ((u - 1)^2 - (u + 1)^2)/(u - 1)^2 = -4u/(u - 1)^2.
So both kinds of fixed point go through the one kernel nu:

    eta(t) = sum_i nu(a_i, b_i; t) - sum_F w nu(c, c; t) + (sum_F w - sigma).

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

The kernel writes the integer entries directly, by two identities:
1/(zeta^m - 1) = (1/p) sum_{k<p} k zeta^{mk} for m != 0 mod p (multiply
out: (zeta^m - 1) sum_k k zeta^{mk} = p); and nu(a, b; t) =
(1 + 2/(t^a - 1))(1 + 2/(t^b - 1)).  So in Z[x]/(x^p - 1),

    p^2 nu = (p + 2 A_a)(p + 2 A_b),    A_m[i] = i m^-1 mod p,

and the coefficient of zeta^j is

    N_j = p^2 [j = 0] + 2p (j a^-1 mod p) + 2p (j b^-1 mod p) + 4 T(j b^-1 mod p),

where the cross term (A_a * A_b)[j] = sum_i A_a[i] A_b[j - i] becomes,
with k = i a^-1 and d = a b^-1 mod p, the Dedekind-Rademacher sum

    T(c) = sum_{k<p} k ((c - d k) mod p)

(Rademacher-Grosswald, Dedekind Sums, 1972).  Its first difference is
T(c+1) - T(c) = p(p-1)/2 - p k*, because raising c by one raises every
residue (c - d k) mod p by one except the one at k* = (c+1) d^-1, which
wraps from p - 1 to 0.  So T(0) = sum_{k>=1} k (p - (d k mod p)) is one
sum and the other p - 1 values follow in O(p) integer steps, with no
convolution.  eta, an integer combination of nu values and an integer,
is an integer combination of their vectors plus p^2 times that integer
at entry 0, and each rho value is one Fraction(int, p^2) read off it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Tuple

from .plumbing import (EquivariantMarkup, InternalInvariantError,
                       canonical_resolution, centered_residue,
                       graph_signature, propagate_rotations)
from .records import record
from .seifert import (BrieskornTriple, check_action, check_order,
                      seifert_invariants)


Vector = Tuple[int, ...]   # sum_i v[i] zeta^i / p^2 for p = len(v)


@lru_cache(maxsize=128)   # an entry holds p ints: ~4 MB at p = 99991
def nu_defect(a: int, b: int, p: int) -> Vector:
    """Isolated fixed-point defect (t^a+1)(t^b+1)/((t^a-1)(t^b-1)) at t = zeta
    (with a = b = c, also the kernel of a fixed sphere's term).

    p^2 nu = (p + 2 A_a)(p + 2 A_b) in Z[x]/(x^p - 1), for A_m[i] =
    i m^-1 mod p.  Walking c = 0 .. p-1, the coefficient of zeta^(cb) is
    2p (c e mod p) + 2p c + 4 T(c), plus p^2 at c = 0, with e = b a^-1 and
    the cross term T(c) = sum_k k ((c - d k) mod p), d = e^-1; T(0) is one
    sum and T(c+1) = T(c) + p(p-1)/2 - p ((c+1) e mod p).  The result is
    that product's p entries, the vector of nu.
    """
    check_order(p)
    a, b = a % p, b % p
    if a == 0 or b == 0:
        raise ValueError(f"rotation pair ({a},{b}) must be nonzero mod {p}")
    e = b * pow(a, -1, p) % p
    d = pow(e, -1, p)
    half, two_p = p * (p - 1) // 2, 2 * p
    t = sum(k * (p - d * k % p) for k in range(1, p))  # T(0)
    out = [0] * p
    u = j = 0  # c e mod p and c b mod p
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


@record
class FixedPointData:
    """Fixed-set data of a bounding equivariant 4-manifold."""

    isolated: Tuple[Tuple[int, int], ...]
    spheres: Tuple[Tuple[int, int], ...]  # (self-intersection, normal rotation)
    signature: int


def fixed_point_data(markup: EquivariantMarkup, signature: int) -> FixedPointData:
    """Assemble eta input from a plumbing tree's markup and signature."""
    return FixedPointData(
        isolated=markup.isolated_points,
        spheres=tuple((w, c) for _, w, c in markup.fixed_spheres),
        signature=signature,
    )


def eta_from_fixed_data(fd: FixedPointData, p: int) -> Vector:
    """Boundary eta invariant eta(zeta) of the fixed-point data, exactly.

    A sphere (w, c) adds w (1 - nu(c, c; zeta)), so eta is an integer
    combination of cached nu_defect values and an integer, summed as
    integer vectors.  eta is real by construction (v_j = v_{-j}); a value
    that is not signals a broken defect kernel and raises
    InternalInvariantError.
    """
    check_order(p)
    terms = [(1, a, b) for a, b in fd.isolated]
    terms += [(-w, c, c) for w, c in fd.spheres]
    acc = [0] * p
    acc[0] = p * p * (sum(w for w, _ in fd.spheres) - fd.signature)
    for k, a, b in terms:
        acc = [s + k * n for s, n in zip(acc, nu_defect(a, b, p))]
    if acc[1:] != acc[:0:-1]:
        raise InternalInvariantError(
            f"eta(zeta) is not real at p={p}: eta(zeta^-1) != eta(zeta)")
    return tuple(acc)


def coefficients_at(value: Vector, j: int) -> Tuple[Fraction, ...]:
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
    markup = propagate_rotations(graph, p)
    return eta_from_fixed_data(
        fixed_point_data(markup, graph_signature(graph)[0]), p)


def rho_from_eta(eta: Vector) -> Tuple[Fraction, ...]:
    """rho(l) for l = 0 .. p-1: (v_{-l mod p} - v_0)/p^2 for v the vector
    of eta(zeta) (the Fourier transform, read off)."""
    p, v0 = len(eta), eta[0]
    den = p * p
    return tuple(Fraction(eta[-ell] - v0, den) for ell in range(p))


def rho_lens_table(p: int, r: int, s: int) -> Tuple[Fraction, ...]:
    """Exact rho invariants of the lens space L(p; r, s), l = 0 .. p-1:
    rho(l) = (n_l + n_{-l} - 2 n_0)/(2p^2) for n the vector of
    nu(r, s; zeta) (the cotangent sum, read off)."""
    check_order(p)
    if gcd(r, p) != 1 or gcd(s, p) != 1:
        raise ValueError(f"rotation numbers ({r},{s}) must be coprime to {p}")
    n = nu_defect(r, s, p)
    n0, den = 2 * n[0], 2 * p * p
    return tuple(Fraction(n[ell] + n[-ell] - n0, den) for ell in range(p))


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
    multiset_residues: Tuple[int, int, int]  # classes of (a1,a2,a3) up to sign
    rho_match: bool


def canonical_lens_pair(r: int, s: int, p: int) -> Tuple[int, int]:
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
                        ) -> Tuple[LensCandidate, ...]:
    """All lens parameters (r, s) mod p compatible with a one-fixed-point
    locally linear extension, with rho diagnostics.

    A candidate has {a1, a2, a3} == {r, s, 1} (mod p) as multisets up to
    sign, so some a_i is +-1 and the other two are r, s up to sign, and
    a1*a2*a3 == r*s (mod p) fixes the sign.  Its rho tables match exactly
    when eta(zeta) = nu(r, s; zeta), for eta the quotient's eta(zeta).
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
    u, v = target[1:]
    pairs = sorted({canonical_lens_pair(u, s, p) for s in (v, -v)
                    if (u * s) % p == product_residue})
    return tuple(
        LensCandidate(p=p, r=r, s=s, product_residue=product_residue,
                      rs_residue=(r * s) % p, multiset_residues=target,
                      rho_match=_same_value(eta, nu_defect(r, s, p)))
        for r, s in pairs)
