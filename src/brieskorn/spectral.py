"""Equivariant eta invariants, rho invariants and the locally-linear
extension search.

All spectral values live in Q(zeta_p) and are exact.  The boundary eta
invariant of an equivariant 4-manifold with isolated fixed points
(a_i, b_i), fixed spheres of self-intersection w and normal rotation c,
and signature sigma is, at t = zeta^j != 1,

    eta(t) = sum_i nu(a_i, b_i; t) + sum_F w (-4 t^c) / (t^c - 1)^2 - sigma,
    nu(a, b; t) = (t^a + 1)(t^b + 1) / ((t^a - 1)(t^b - 1)).

The sphere-term sign (a (-1)-sphere with c = 1 contributes +4t/(t-1)^2)
makes -2 nu(1,2;t) + 4t/(t-1)^2 + 2 vanish identically (the cancellation
used for the bounding family).  Only
eta = eta(zeta) is computed: eta(zeta^j) = eta.galois(j), as eta(t) is a
rational function of t over Q.  eta is real (t -> 1/t negates both
factors of nu and fixes t^c/(t^c - 1)^2); that is the one runtime check.

The rho invariants of the quotient and of the lens space L(p; r, s) are
defined by the finite Fourier transform and the cotangent sum

    rho(l) = (1/p) sum_{j != 0} eta(zeta^j) (zeta^{jl} - 1)
           = (1/p) Tr(eta (zeta^l - 1)),
    rho_L(l) = (2/p) sum_{k=1}^{p-1} cot(pi kr/p) cot(pi ks/p) sin^2(pi kl/p)
             = (1/2p) Tr(nu(r, s; zeta) (zeta^l + zeta^-l - 2))

(by cot(pi kx/p) = i (zeta^{kx} + 1)/(zeta^{kx} - 1) and
sin^2(pi kl/p) = (2 - zeta^{kl} - zeta^{-kl})/4), and are read off
coefficients.  With c and n the reduced coefficient vectors of eta and of
nu(r, s; zeta), padded by c_{p-1} = n_{p-1} = 0,

    rho(l) = c_{-l mod p} - c_0,      rho_L(l) = (n_l + n_{-l} - 2 n_0)/2,

because Tr(sum_k x_k zeta^k) = p x_0 - sum_k x_k and eta (zeta^l - 1) has
coefficient sum 0 and constant coefficient c_{-l} - c_0.

The two rho tables agree exactly when eta = nu(r, s; zeta): nu is real, so
its transform is even in l and equals rho_L, and the transform is
injective (c_0 = -rho(1) and c_k = rho(-k) + c_0).

The kernels work on integer vectors, by three identities:
1/(zeta^m - 1) = (1/p) sum_{k<p} k zeta^{mk} for m != 0 mod p (multiply
out: (zeta^m - 1) sum_k k zeta^{mk} = p); nu(a, b; t) =
(1 + 2/(t^a - 1))(1 + 2/(t^b - 1)), so p^2 nu is one convolution of two
integer vectors; and the denominators of eta divide p^2 (each nu term and
each sphere term -4w t^c (1/(t^c - 1))^2 is an integer vector over p^2,
and sigma is an integer), so the eta sum runs on integer vectors over
one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import List, Tuple

from .arith import Cyclotomic, convolve
from .plumbing import (EquivariantMarkup, InternalInvariantError,
                       canonical_resolution, graph_signature,
                       propagate_rotations)
from .seifert import (BrieskornTriple, check_action, check_order,
                      seifert_invariants)


def _inv_numerators(p: int, m: int) -> List[int]:
    """p/(zeta^m - 1) = sum_k k zeta^{mk} as a length-p integer vector."""
    out = [0] * p
    for k in range(1, p):
        out[(m * k) % p] = k
    return out


def _coth_numerators(p: int, m: int) -> List[int]:
    """p(1 + 2/(zeta^m - 1)) = p + 2 sum_k k zeta^{mk} as a length-p
    integer vector."""
    out = [2 * k for k in _inv_numerators(p, m)]
    out[0] = p
    return out


@lru_cache(maxsize=None)
def _inv_zeta_minus_one(p: int, m: int) -> Cyclotomic:
    """Cached 1/(zeta^m - 1) for m != 0 mod p, in closed form."""
    return Cyclotomic.from_numerators(p, _inv_numerators(p, m), p)


@lru_cache(maxsize=None)
def nu_defect(a: int, b: int, p: int) -> Cyclotomic:
    """Isolated fixed-point defect (t^a+1)(t^b+1)/((t^a-1)(t^b-1)) at t = zeta.

    One integer convolution of p(1 + 2/(t^a-1)) and p(1 + 2/(t^b-1)),
    over the denominator p^2.
    """
    check_order(p)
    a, b = a % p, b % p
    if a == 0 or b == 0:
        raise ValueError(f"rotation pair ({a},{b}) must be nonzero mod {p}")
    product = convolve(p, _coth_numerators(p, a), _coth_numerators(p, b))
    return Cyclotomic.from_numerators(p, product, p * p)


def sphere_defect(self_intersection: int, c: int, p: int) -> Cyclotomic:
    """Fixed-sphere defect w * (-4 t^c)/(t^c - 1)^2 at t = zeta."""
    check_order(p)
    if c % p == 0:
        raise ValueError(f"normal rotation {c} must be nonzero mod {p}")
    inv = _inv_zeta_minus_one(p, c)
    return (inv * inv).mul_zeta_power(c) * (-4 * self_intersection)


@dataclass(frozen=True)
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


def _sum_scaled(p: int, terms: List[Cyclotomic], constant: int = 0) -> Cyclotomic:
    """constant + sum(terms), added as integer vectors over one common
    denominator."""
    den = lcm(*(x.denominator() for x in terms))
    acc = [0] * (p - 1)
    acc[0] = constant * den
    for x in terms:
        acc = [s + n for s, n in zip(acc, x.numerators(den))]
    return Cyclotomic.from_numerators(p, acc, den)


def eta_from_fixed_data(fd: FixedPointData, p: int) -> Cyclotomic:
    """Boundary eta invariant eta(zeta) of the fixed-point data, exactly.

    eta is real by construction; a value that is not signals a broken
    defect kernel and raises InternalInvariantError.
    """
    check_order(p)
    terms = [nu_defect(a, b, p) for a, b in fd.isolated]
    terms += [sphere_defect(w, c, p) for w, c in fd.spheres]
    eta = _sum_scaled(p, terms, -fd.signature)
    if eta.galois(p - 1) != eta:
        raise InternalInvariantError(
            f"eta(zeta) is not real at p={p}: eta(zeta^-1) != eta(zeta)")
    return eta


def eta_brieskorn(triple: BrieskornTriple, p: int) -> Cyclotomic:
    """eta(zeta) of the quotient data of Sigma(a1,a2,a3), via the
    canonical resolution with its equivariant markup."""
    check_action(triple, p)
    graph = canonical_resolution(seifert_invariants(triple))
    markup = propagate_rotations(graph, p)
    return eta_from_fixed_data(
        fixed_point_data(markup, graph_signature(graph)[0]), p)


@dataclass(frozen=True)
class RhoTable:
    """Rational rho invariants per character l = 0 .. p-1."""

    p: int
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.p:
            raise ValueError("rho table must have one entry per character")
        if self.values[0] != 0:
            raise ValueError("rho at the trivial character must vanish")


def rho_from_eta(eta: Cyclotomic) -> RhoTable:
    """rho(l) = c_{-l mod p} - c_0 for c the coefficients of eta(zeta)
    padded with c_{p-1} = 0 (the Fourier transform, read off)."""
    c = eta.coeffs + (0,)
    return RhoTable(eta.p, tuple(c[-ell] - c[0] for ell in range(eta.p)))


def rho_lens_table(p: int, r: int, s: int) -> RhoTable:
    """Exact rho invariants of the lens space L(p; r, s):
    rho(l) = (n_l + n_{-l} - 2 n_0)/2 for n the coefficients of
    nu(r, s; zeta) padded with n_{p-1} = 0 (the cotangent sum, read off)."""
    check_order(p)
    if gcd(r, p) != 1 or gcd(s, p) != 1:
        raise ValueError(f"rotation numbers ({r},{s}) must be coprime to {p}")
    n = nu_defect(r, s, p).coeffs + (0,)
    return RhoTable(p, tuple((n[ell] + n[-ell] - 2 * n[0]) / 2
                             for ell in range(p)))


# ---------------------------------------------------------------------------
# Locally linear extension search
# ---------------------------------------------------------------------------

def _residue_class(x: int, p: int) -> int:
    """Class of x mod p up to sign, as min(x, p-x)."""
    r = x % p
    return min(r, p - r)


@dataclass(frozen=True)
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

    @property
    def congruence_ok(self) -> bool:
        return self.product_residue == self.rs_residue


def canonical_lens_pair(r: int, s: int, p: int) -> Tuple[int, int]:
    """Canonical representative of (r, s) modulo the pair symmetries."""
    r, s = r % p, s % p
    variants = [tuple(sorted(v)) for v in ((r, s), (p - r, p - s))]
    return min(variants)


def ll_extension_search(triple: BrieskornTriple, p: int, eta: Cyclotomic
                        ) -> Tuple[LensCandidate, ...]:
    """All lens parameters (r, s) mod p compatible with a one-fixed-point
    locally linear extension, with rho diagnostics.

    A candidate has {a1, a2, a3} == {r, s, 1} (mod p) as multisets up to
    sign, so some a_i is +-1 and the other two are r, s up to sign, and
    a1*a2*a3 == r*s (mod p) fixes the sign.  Its rho tables match exactly
    when eta(zeta) = nu(r, s; zeta), for eta the quotient's eta(zeta).
    """
    check_action(triple, p)
    if eta.p != p:
        raise ValueError(f"eta is for p={eta.p}, not p={p}")
    product_residue = triple.product % p
    target = tuple(sorted(_residue_class(a, p) for a in triple.entries))
    if target[0] != 1:  # no entry is +-1 mod p
        return ()
    u, v = target[1:]
    pairs = sorted({canonical_lens_pair(u, s, p) for s in (v, -v)
                    if (u * s) % p == product_residue})
    return tuple(
        LensCandidate(p=p, r=r, s=s, product_residue=product_residue,
                      rs_residue=(r * s) % p, multiset_residues=target,
                      rho_match=(eta == nu_defect(r, s, p)))
        for r, s in pairs)
