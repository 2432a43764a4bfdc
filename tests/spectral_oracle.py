"""Reference kernels for the spectral stage, kept as test oracles.

Field arithmetic the package does not need lives here as functions: the
zero test, the Euclid inverse against Phi_p with division, powers
(negative ones invert first), the Galois-checked rational value, the
float embedding, and the lens-space torsion representative.

The kernels are the dense-``Fraction`` versions of the cyclotomic product, the
Euclid-based inverse of zeta^m - 1, the three-product isolated-point
defect, eta evaluated separately at every zeta^j, the Galois-checked
eta profile and its inverse transform, the Fourier and cotangent-sum rho
transforms (integer vectors over a common denominator, each entry checked
rational), and the lens search that scans every pair (r, s).  The package
computes eta(zeta) once and reads rho tables and lens matches off it; the
tests in ``test_spectral_kernels.py`` check that both paths agree exactly.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict

from brieskorn.arith import Cyclotomic
from brieskorn.seifert import check_order
from brieskorn.spectral import LensCandidate, canonical_lens_pair


class NonRationalError(ValueError):
    """A cyclotomic number expected to be Galois-invariant was not."""


def inverse(x: Cyclotomic) -> Cyclotomic:
    """Field inverse via the extended Euclidean algorithm against Phi_p."""
    if is_zero(x):
        raise ZeroDivisionError("division by zero in Q(zeta_p)")
    p = x.p
    phi = [Fraction(1)] * p  # Phi_p = 1 + x + ... + x^(p-1)
    r0, t0 = phi, [Fraction(0)]
    r1, t1 = list(x.coeffs), [Fraction(1)]
    while _poly_degree(r1) > 0:
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    if _poly_degree(r1) != 0:
        raise ArithmeticError("gcd with Phi_p is not constant; p not prime?")
    c = r1[0]
    return Cyclotomic(p, [y / c for y in t1])


def div(x, y) -> Cyclotomic:
    """x / y in Q(zeta_p); either side may be a rational scalar."""
    p = x.p if isinstance(x, Cyclotomic) else y.p
    if not isinstance(y, Cyclotomic):
        y = Cyclotomic.from_rational(p, y)
    return x * inverse(y)


def is_zero(x: Cyclotomic) -> bool:
    return all(c == 0 for c in x.coeffs)


def power(x: Cyclotomic, n: int) -> Cyclotomic:
    """x^n for any integer n; a negative power inverts first."""
    if n < 0:
        return power(inverse(x), -n)
    result = Cyclotomic.one(x.p)
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def torsion_lens(p: int, r: int, s: int) -> Cyclotomic:
    """Reidemeister torsion representative (zeta^r - 1)(zeta^s - 1)."""
    check_order(p)
    if gcd(r * s, p) != 1:
        raise ValueError(f"rotation numbers ({r},{s}) must be coprime to {p}")
    return (Cyclotomic.zeta(p, r) - 1) * (Cyclotomic.zeta(p, s) - 1)


def is_rational(x: Cyclotomic) -> bool:
    return all(c == 0 for c in x.coeffs[1:])


def rational_value(x: Cyclotomic) -> Fraction:
    """The value of a Galois-invariant element, as an exact rational.

    Invariance is verified by applying every automorphism; a
    non-invariant input raises NonRationalError rather than being
    projected.
    """
    for k in range(2, x.p):
        if x.galois(k) != x:
            raise NonRationalError(
                f"not fixed by zeta -> zeta^{k}; no rational value")
    if not is_rational(x):
        # Invariant under the full Galois group but not a constant
        # vector: impossible for prime p (the fixed field is Q).
        raise NonRationalError("Galois-invariant element is not constant")
    return x.coeffs[0]


def to_complex(x: Cyclotomic) -> complex:
    """Float embedding at zeta = e^(2 pi i / p) (cross-checks only)."""
    z = cmath.exp(2j * cmath.pi / x.p)
    return sum(float(c) * z ** k for k, c in enumerate(x.coeffs))


# -- dense polynomial helpers over Fraction (for the inverse only) ----------

def _poly_degree(f) -> int:
    for i in range(len(f) - 1, -1, -1):
        if f[i] != 0:
            return i
    return -1


def _poly_sub(f, g):
    n = max(len(f), len(g))
    f = list(f) + [Fraction(0)] * (n - len(f))
    g = list(g) + [Fraction(0)] * (n - len(g))
    return [a - b for a, b in zip(f, g)]


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1 if f and g else 0)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] += a * b
    return out


def _poly_divmod(f, g):
    df, dg = _poly_degree(f), _poly_degree(g)
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f) + [Fraction(0)] * (max(df, dg) + 1 - len(f))
    quot = [Fraction(0)] * (max(df - dg, 0) + 1)
    lead = g[dg]
    for k in range(df - dg, -1, -1):
        c = rem[k + dg] / lead
        if c:
            quot[k] = c
            for i in range(dg + 1):
                rem[k + i] -= c * g[i]
    return quot, rem



def mul(x: Cyclotomic, y: Cyclotomic) -> Cyclotomic:
    """Dense convolution over Fraction, then reduction mod Phi_p."""
    p = x.p
    full = [Fraction(0)] * p
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            if b:
                full[(i + j) % p] += a * b
    return Cyclotomic(p, full)


@lru_cache(maxsize=None)
def inv_zeta_minus_one(p: int, m: int) -> Cyclotomic:
    """1/(zeta^m - 1) by the extended Euclidean algorithm against Phi_p."""
    return inverse(Cyclotomic.zeta(p, m) - 1)


@lru_cache(maxsize=None)
def nu_defect(a: int, b: int, p: int, j: int = 1) -> Cyclotomic:
    """(t^a+1)(t^b+1) / ((t^a-1)(t^b-1)) at t = zeta^j, as three products."""
    a, b, j = a % p, b % p, j % p
    za = Cyclotomic.zeta(p, j * a)
    zb = Cyclotomic.zeta(p, j * b)
    return mul(mul(mul(za + 1, zb + 1), inv_zeta_minus_one(p, j * a)),
               inv_zeta_minus_one(p, j * b))


def sphere_defect(w: int, c: int, p: int, j: int = 1) -> Cyclotomic:
    """w * (-4 t^c)/(t^c - 1)^2 at t = zeta^j, by Euclid division."""
    zc = Cyclotomic.zeta(p, j * c)
    return mul(mul(Cyclotomic.from_rational(p, -4 * w), zc),
               inverse(mul(zc - 1, zc - 1)))


def eta_value(fd, p: int, j: int) -> Cyclotomic:
    """eta at zeta^j, summed term by term over Fraction."""
    total = Cyclotomic.from_rational(p, -fd.signature)
    for a, b in fd.isolated:
        total = total + nu_defect(a, b, p, j)
    for w, c in fd.spheres:
        total = total + sphere_defect(w, c, p, j)
    return total


def eta_values(fd, p: int):
    """j -> eta at zeta^j, each evaluated on its own."""
    return {j: eta_value(fd, p, j) for j in range(1, p)}


def _rotated(row, shift):
    """A length-p vector multiplied by zeta^shift (a cyclic rotation)."""
    shift %= len(row)
    return row[-shift:] + row[:-shift] if shift else row


def _numerator_rows(values):
    """Length-p integer vectors of the values over their common denominator."""
    den = lcm(*(x.denominator() for x in values))
    return [x.numerators(den) + [0] for x in values], den


def rho_from_eta(values, p: int):
    """rho(l) = (1/p) sum_j eta_j (zeta^{jl} - 1), each entry checked
    Galois-invariant by rational_value."""
    rows, den = _numerator_rows([values[j] for j in range(1, p)])
    base = [-sum(col) for col in zip(*rows)]
    out = []
    for ell in range(p):
        acc = base
        for j, row in enumerate(rows, 1):
            acc = [a + b for a, b in zip(acc, _rotated(row, j * ell))]
        out.append(rational_value(Cyclotomic.from_numerators(p, acc, den)) / p)
    return tuple(out)


def rho_lens_exact(p: int, r: int, s: int, ell: int) -> Fraction:
    """(1/2p) sum_k nu(r,s;zeta^k) (zeta^{kl} + zeta^{-kl} - 2), the
    cotangent sum in cyclotomic form, checked Galois-invariant."""
    rows, den = _numerator_rows([nu_defect(r, s, p, k) for k in range(1, p)])
    acc = [0] * p
    for k, row in enumerate(rows, 1):
        acc = [a + x + y - 2 * z for a, x, y, z in
               zip(acc, _rotated(row, k * ell), _rotated(row, -k * ell), row)]
    return (rational_value(Cyclotomic.from_numerators(p, acc, den))
            * Fraction(1, 2 * p))


@dataclass(frozen=True)
class EtaProfile:
    """Map j -> eta at t = zeta^j, checked Galois-equivariant: the value at
    j must be the image of the value at 1 under zeta -> zeta^j."""

    p: int
    values: Dict[int, Cyclotomic]

    def __post_init__(self):
        if sorted(self.values) != list(range(1, self.p)):
            raise ValueError("profile must cover j = 1 .. p-1")
        base = self.values[1]
        for j in range(2, self.p):
            if self.values[j] != base.galois(j):
                raise ValueError(f"profile is not Galois-equivariant at j={j}")


def eta_from_rho(table, j: int) -> Cyclotomic:
    """Inverse transform sum_l rho(l) zeta^{-jl}, recovering eta at zeta^j."""
    p = table.p
    total = Cyclotomic.zero(p)
    for ell, rho in enumerate(table.values):
        if rho:
            total = total + Cyclotomic.from_rational(p, rho).mul_zeta_power(-j * ell)
    return total


def _residue_class(x: int, p: int) -> int:
    r = x % p
    return min(r, p - r)


def ll_extension_search(triple, p: int, sigma_rho):
    """Scan every canonical pair (r, s) mod p for the multiset and product
    congruences and compare full rho tables (sigma_rho against the lens
    table from rho_lens_exact)."""
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
            if multiset != target or (r * s) % p != product_residue:
                continue
            lens_rho = tuple(rho_lens_exact(p, pair[0], pair[1], ell)
                             for ell in range(p))
            candidates.append(LensCandidate(
                p=p, r=pair[0], s=pair[1],
                product_residue=product_residue,
                rs_residue=(r * s) % p,
                multiset_residues=target,
                rho_match=(lens_rho == sigma_rho),
            ))
    return tuple(sorted(candidates, key=lambda c: (c.r, c.s)))
