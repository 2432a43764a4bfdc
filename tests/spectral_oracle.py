"""Reference kernels for the spectral stage, kept as test oracles.

These are the dense-``Fraction`` versions of the cyclotomic product, the
Euclid-based inverse of zeta^m - 1, the three-product isolated-point
defect and the ``Fraction``-accumulating rho transforms.  The package now
computes the same values with integer-scaled kernels; the tests in
``test_spectral_kernels.py`` check that both paths agree exactly.
"""

from fractions import Fraction
from functools import lru_cache

from brieskorn.arith import Cyclotomic


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
    return (Cyclotomic.zeta(p, m) - 1).inverse()


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
               mul(zc - 1, zc - 1).inverse())


def eta_values(fd, p: int):
    """j -> eta at zeta^j, summed term by term over Fraction."""
    values = {}
    for j in range(1, p):
        total = Cyclotomic.from_rational(p, -fd.signature)
        for a, b in fd.isolated:
            total = total + nu_defect(a, b, p, j)
        for w, c in fd.spheres:
            total = total + sphere_defect(w, c, p, j)
        values[j] = total
    return values


def _add_shifted(acc, coeffs, shift, p):
    for i, c in enumerate(coeffs):
        if c:
            acc[(i + shift) % p] += c


def rho_from_eta(values, p: int):
    """rho(l) = (1/p) sum_j eta_j (zeta^{jl} - 1), accumulated over Fraction."""
    out = []
    for ell in range(p):
        acc = [Fraction(0)] * p
        for j in range(1, p):
            coeffs = values[j].coeffs
            _add_shifted(acc, coeffs, (j * ell) % p, p)
            for i, c in enumerate(coeffs):
                if c:
                    acc[i] -= c
        out.append(Cyclotomic(p, acc).rational_value() / p)
    return tuple(out)


def rho_lens_exact(p: int, r: int, s: int, ell: int) -> Fraction:
    """(1/2p) sum_k nu(r,s;zeta^k) (zeta^{kl} + zeta^{-kl} - 2), over Fraction."""
    acc = [Fraction(0)] * p
    for k in range(1, p):
        coeffs = nu_defect(r, s, p, k).coeffs
        _add_shifted(acc, coeffs, (k * ell) % p, p)
        _add_shifted(acc, coeffs, (-k * ell) % p, p)
        for i, c in enumerate(coeffs):
            if c:
                acc[i] -= 2 * c
    return Cyclotomic(p, acc).rational_value() * Fraction(1, 2 * p)
