"""Equivariant eta invariants, rho invariants, lens-space torsion, and the
locally-linear extension search.

All spectral values live in Q(zeta_p) and are computed exactly.  The
boundary eta invariant of an equivariant 4-manifold with isolated fixed
points (a_i, b_i), fixed spheres of self-intersection w and normal
rotation c, and signature sigma is

    eta(t) = sum_i nu(a_i, b_i; t) + sum_F w * (-4 t^c) / (t^c - 1)^2 - sigma

at each t = zeta^j != 1, where nu is the isolated-point defect

    nu(a, b; t) = (t^a + 1)(t^b + 1) / ((t^a - 1)(t^b - 1)).

The sphere-term sign is normalized so that a (-1)-sphere with c = 1
contributes +4t/(t-1)^2, which makes -2 nu(1,2;t) + 4t/(t-1)^2 + 2 vanish
identically (the standard cancellation used for the bounding family).

Rho invariants of the quotient are the finite Fourier transform

    rho(l) = (1/p) sum_{j != 0} eta(zeta^j) (zeta^{j l} - 1),

always rational; the lens-space table rho_lens_exact matches this
transform applied to the sphere profile nu(r, s) (the cotangent-sum
normalization is chosen for exactly that consistency).

The kernels work on integer vectors and rely on three identities:

    1/(zeta^m - 1) = (1/p) sum_{k=0}^{p-1} k zeta^{mk}      (m != 0 mod p),

checked by multiplying out: (zeta^m - 1) sum_k k zeta^{mk} = p;

    nu(a, b; t) = (1 + 2/(t^a - 1)) (1 + 2/(t^b - 1)),

so p^2 nu is a single convolution of two integer vectors; and the
denominators of eta divide p^2, because each nu term is an integer vector
over p^2, each sphere term -4w t^c (1/(t^c - 1))^2 is one too, and the
signature is an integer.  Sums of eta values and the rho transforms are
accumulated as integer vectors over one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .arith import Cyclotomic, NonRationalError, convolve, is_prime
from .plumbing import (EquivariantMarkup, PlumbingGraph,
                       canonical_resolution, graph_signature,
                       propagate_rotations)
from .seifert import BrieskornTriple, seifert_invariants, standard_action_valid


def _check_order(p: int) -> None:
    if not is_prime(p) or p < 3:
        raise ValueError(f"group order must be an odd prime >= 3, got {p}")


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
def nu_defect(a: int, b: int, p: int, j: int = 1) -> Cyclotomic:
    """Isolated fixed-point defect (t^a+1)(t^b+1)/((t^a-1)(t^b-1)) at t = zeta^j.

    One integer convolution of p(1 + 2/(t^a-1)) and p(1 + 2/(t^b-1)),
    over the denominator p^2.
    """
    _check_order(p)
    a, b, j = a % p, b % p, j % p
    if a == 0 or b == 0:
        raise ValueError(f"rotation pair ({a},{b}) must be nonzero mod {p}")
    if j == 0:
        raise ValueError("nu is only defined at nontrivial t")
    product = convolve(p, _coth_numerators(p, j * a), _coth_numerators(p, j * b))
    return Cyclotomic.from_numerators(p, product, p * p)


def sphere_defect(self_intersection: int, c: int, p: int, j: int = 1) -> Cyclotomic:
    """Fixed-sphere defect w * (-4 t^c)/(t^c - 1)^2 at t = zeta^j."""
    _check_order(p)
    if c % p == 0:
        raise ValueError(f"normal rotation {c} must be nonzero mod {p}")
    if j % p == 0:
        raise ValueError("sphere defect is only defined at nontrivial t")
    inv = _inv_zeta_minus_one(p, j * c)
    return (inv * inv).mul_zeta_power(j * c) * (-4 * self_intersection)


@dataclass(frozen=True)
class FixedPointData:
    """Fixed-set data of a bounding equivariant 4-manifold."""

    isolated: Tuple[Tuple[int, int], ...]
    spheres: Tuple[Tuple[int, int], ...]  # (self-intersection, normal rotation)
    signature: int


def fixed_point_data(graph: PlumbingGraph, markup: EquivariantMarkup) -> FixedPointData:
    """Assemble eta input from a plumbing tree and its markup."""
    return FixedPointData(
        isolated=markup.isolated_points,
        spheres=tuple((w, c) for _, w, c in markup.fixed_spheres),
        signature=graph_signature(graph)[0],
    )


@dataclass(frozen=True)
class EtaProfile:
    """Map j -> eta at t = zeta^j, Galois-equivariant by construction.

    Equivariance (the value at j is the image of the value at 1 under
    zeta -> zeta^j) is asserted, not assumed.
    """

    p: int
    values: Dict[int, Cyclotomic]

    def __post_init__(self):
        if sorted(self.values) != list(range(1, self.p)):
            raise ValueError("profile must cover j = 1 .. p-1")
        base = self.values[1]
        for j in range(2, self.p):
            if self.values[j] != base.galois(j):
                raise ValueError(f"profile is not Galois-equivariant at j={j}")


def _sum_scaled(p: int, terms: List[Cyclotomic], constant: int = 0) -> Cyclotomic:
    """constant + sum(terms), added as integer vectors over one common
    denominator."""
    den = lcm(*(x.denominator() for x in terms))
    acc = [0] * (p - 1)
    acc[0] = constant * den
    for x in terms:
        acc = [s + n for s, n in zip(acc, x.numerators(den))]
    return Cyclotomic.from_numerators(p, acc, den)


def eta_from_fixed_data(fd: FixedPointData, p: int) -> EtaProfile:
    """Boundary eta profile of the fixed-point data, exactly."""
    _check_order(p)
    values = {}
    for j in range(1, p):
        terms = [nu_defect(a, b, p, j) for a, b in fd.isolated]
        terms += [sphere_defect(w, c, p, j) for w, c in fd.spheres]
        values[j] = _sum_scaled(p, terms, -fd.signature)
    return EtaProfile(p, values)


def eta_brieskorn(triple: BrieskornTriple, p: int,
                  seed: Tuple[int, int] = (0, 1)) -> EtaProfile:
    """Eta profile of the quotient data of Sigma(a1,a2,a3), via the
    canonical resolution with its equivariant markup."""
    if not standard_action_valid(triple, p):
        raise ValueError(f"p={p} is not coprime to {triple}")
    graph = canonical_resolution(seifert_invariants(triple))
    markup = propagate_rotations(graph, p, seed)
    return eta_from_fixed_data(fixed_point_data(graph, markup), p)


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


def _rotated(row: List[int], shift: int) -> List[int]:
    """A length-p vector multiplied by zeta^shift (a cyclic rotation)."""
    shift %= len(row)
    return row[-shift:] + row[:-shift] if shift else row


def _numerator_rows(values: List[Cyclotomic]) -> Tuple[List[List[int]], int]:
    """Length-p integer vectors of the values over their common denominator."""
    den = lcm(*(x.denominator() for x in values))
    return [x.numerators(den) + [0] for x in values], den


def rho_from_eta(profile: EtaProfile) -> RhoTable:
    """Finite Fourier transform rho(l) = (1/p) sum_j eta_j (zeta^{jl} - 1).

    Each entry is verified Galois-invariant and returned as an exact
    rational; a non-invariant value signals an upstream convention bug and
    raises rather than being projected.
    """
    p = profile.p
    rows, den = _numerator_rows([profile.values[j] for j in range(1, p)])
    base = [-sum(col) for col in zip(*rows)]
    values: List[Fraction] = []
    for ell in range(p):
        acc = base
        for j, row in enumerate(rows, 1):
            acc = [a + b for a, b in zip(acc, _rotated(row, j * ell))]
        total = Cyclotomic.from_numerators(p, acc, den)
        try:
            values.append(total.rational_value() / p)
        except NonRationalError as exc:
            raise NonRationalError(
                f"rho({ell}) is not rational; eta profile conventions are "
                f"inconsistent: {exc}") from exc
    return RhoTable(p, tuple(values))


def eta_from_rho(table: RhoTable, j: int) -> Cyclotomic:
    """Inverse transform sum_l rho(l) zeta^{-jl}, recovering eta at zeta^j."""
    p = table.p
    if j % p == 0:
        raise ValueError("eta is only defined at nontrivial t")
    total = Cyclotomic.zero(p)
    for ell, rho in enumerate(table.values):
        if rho:
            total = total + Cyclotomic.from_rational(p, rho).mul_zeta_power(-j * ell)
    return total


def rho_lens_exact(p: int, r: int, s: int, ell: int) -> Fraction:
    """Exact rho invariant of the lens space L(p; r, s) at character ell.

    Computed through the cyclotomic identities
    cot(pi k x / p) = i (zeta^{kx} + 1)/(zeta^{kx} - 1) and
    sin^2(pi k l / p) = (2 - zeta^{kl} - zeta^{-kl})/4, i.e.

        rho(l) = (2/p) sum_{k=1}^{p-1} cot(pi k r/p) cot(pi k s/p) sin^2(pi k l/p),

    normalized so the table equals rho_from_eta applied to the profile
    j -> nu(r, s; zeta^j).  The result is verified Galois-invariant and
    returned as a rational.
    """
    _check_order(p)
    if gcd(r, p) != 1 or gcd(s, p) != 1:
        raise ValueError(f"rotation numbers ({r},{s}) must be coprime to {p}")
    rows, den = _numerator_rows([nu_defect(r, s, p, k) for k in range(1, p)])
    # cot*cot * sin^2 = (-nu_k) * (2 - zeta^{kl} - zeta^{-kl})/4, expanded
    # into rotations of nu_k (each O(p)).
    acc = [0] * p
    for k, row in enumerate(rows, 1):
        acc = [a + x + y - 2 * z for a, x, y, z in
               zip(acc, _rotated(row, k * ell), _rotated(row, -k * ell), row)]
    return (Cyclotomic.from_numerators(p, acc, den).rational_value()
            * Fraction(1, 2 * p))


def rho_lens_table(p: int, r: int, s: int) -> RhoTable:
    return RhoTable(p, tuple(rho_lens_exact(p, r, s, ell) for ell in range(p)))


def torsion_lens(p: int, r: int, s: int) -> Cyclotomic:
    """Reidemeister torsion representative (zeta^r - 1)(zeta^s - 1)."""
    _check_order(p)
    if gcd(r * s, p) != 1:
        raise ValueError(f"rotation numbers ({r},{s}) must be coprime to {p}")
    return (Cyclotomic.zeta(p, r) - 1) * (Cyclotomic.zeta(p, s) - 1)


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


def ll_extension_search(triple: BrieskornTriple, p: int,
                        sigma_rho: Optional[RhoTable] = None
                        ) -> Tuple[LensCandidate, ...]:
    """All lens parameters (r, s) mod p compatible with a one-fixed-point
    locally linear extension, with rho diagnostics.

    A candidate must satisfy a1*a2*a3 == r*s (mod p) and have
    {a1, a2, a3} == {r, s, 1} (mod p) as multisets up to sign; each is
    annotated with whether the full rho table of the quotient (from the
    canonical-resolution eta profile) equals the lens-space table.  A
    caller that already holds that table passes it as sigma_rho;
    otherwise it is computed here.
    """
    _check_order(p)
    if not standard_action_valid(triple, p):
        raise ValueError(f"p={p} is not coprime to {triple}")
    if sigma_rho is None:
        sigma_rho = rho_from_eta(eta_brieskorn(triple, p))
    elif sigma_rho.p != p:
        raise ValueError(f"rho table is for p={sigma_rho.p}, not p={p}")
    product_residue = triple.product % p
    target = tuple(sorted(_residue_class(a, p) for a in triple.entries))
    candidates = []
    seen = set()
    for r in range(1, p):
        for s in range(r, p):
            pair = canonical_lens_pair(r, s, p)
            if pair in seen:
                continue
            seen.add(pair)
            multiset = tuple(sorted((_residue_class(r, p), _residue_class(s, p), 1)))
            if multiset != target:
                continue
            if (r * s) % p != product_residue:
                continue
            lens_rho = rho_lens_table(p, pair[0], pair[1])
            candidates.append(LensCandidate(
                p=p, r=pair[0], s=pair[1],
                product_residue=product_residue,
                rs_residue=(r * s) % p,
                multiset_residues=target,
                rho_match=(lens_rho.values == sigma_rho.values),
            ))
    return tuple(sorted(candidates, key=lambda c: (c.r, c.s)))
