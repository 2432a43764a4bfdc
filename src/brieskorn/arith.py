"""Exact scalar arithmetic: Hirzebruch-Jung continued fractions and
cyclotomic numbers.

A ``Cyclotomic`` is an element of Q(zeta_p), p an odd prime, stored as the
canonical residue modulo the p-th cyclotomic polynomial
Phi_p = 1 + x + ... + x^(p-1) over the basis 1, zeta, ..., zeta^(p-2):
one integer numerator tuple ``nums`` of length p - 1 over one positive
denominator ``den``, in lowest terms (gcd(den, *nums) = 1, and zero has
den = 1).  Two elements are equal iff their (nums, den) are equal, so
equality, hashing and the Galois action are exact and work on integers
only; ``coeffs`` builds the Fraction coefficients on demand for readers.
The class holds only what the pipeline reads: it never adds, multiplies
or divides two field elements.  Its one kernel, nu(a, b; zeta) in
``spectral``, writes the p integer numerators of p^2 nu directly, and eta
is an integer combination of its values.  The field operations the tests
build expected values with (sums, products, division, rational values,
the float embedding) live in ``tests/spectral_oracle.py`` as the
reference field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Tuple


def is_prime(n: int) -> bool:
    """Trial-division primality test (inputs here are tiny)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Hirzebruch-Jung continued fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HJExpansion:
    """Continued-fraction expansion a/b = [t1, ..., tm] with every ti <= -2.

    The convention is a > 0, -a < b < 0, so that a/b < -1 and the
    all-terms-<=-2 expansion exists and is unique.
    """

    numerator: int
    denominator: int
    terms: Tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty continued fraction")
        if any(t > -2 for t in self.terms):
            raise ValueError(f"terms must all be <= -2, got {self.terms}")
        # Evaluate back to front as x/y: t - 1/(x/y) = (t*x - y)/x.  Every
        # term is <= -2, so |x| > |y| >= 1 at each step and x is never 0.
        x, y = self.terms[-1], 1
        for t in reversed(self.terms[:-1]):
            x, y = t * x - y, x
        if x * self.denominator != y * self.numerator:
            raise ValueError("terms do not evaluate to numerator/denominator")


def hj_expand(a: int, b: int) -> HJExpansion:
    """Expand a/b (a > 0, -a < b < 0, gcd(a,|b|) = 1) with all terms <= -2.

    Each step takes t = floor(q) and recurses on -1/(q - t); because
    a/b < -1, every quotient along the way is < -1 and every floor is <= -2.
    In integers, with q = x/y: t, r = divmod(x, y) gives q - t = r/y, so
    the next quotient is -y/r, and r = 0 ends the expansion.  Uniqueness
    is a property of this expansion: re-evaluating the output reproduces
    a/b exactly.
    """
    if a <= 0:
        raise ValueError(f"numerator must be positive, got {a}")
    if not (-a < b < 0):
        raise ValueError(f"denominator must satisfy -{a} < b < 0, got {b}")
    if gcd(a, -b) != 1:
        raise ValueError(f"{a} and {b} are not coprime")
    terms = []
    x, y = a, b
    while y:
        t, r = divmod(x, y)
        terms.append(t)
        x, y = -y, r
    return HJExpansion(a, b, tuple(terms))


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

def _canonical(p: int, nums: Sequence[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """sum_i (nums[i]/den) zeta^i, len(nums) <= p, as a reduced numerator
    tuple of length p - 1 over a positive denominator, in lowest terms."""
    if len(nums) > p:
        raise ValueError("coefficient vector longer than the field degree")
    if not den:
        raise ZeroDivisionError("zero denominator")
    # Kill the zeta^(p-1) coordinate via zeta^(p-1) = -(1 + ... + zeta^(p-2)).
    top = nums[p - 1] if len(nums) == p else 0
    vec = [n - top for n in nums[: p - 1]] if top else list(nums[: p - 1])
    vec += [0] * (p - 1 - len(vec))
    g = gcd(den, *vec)
    if den < 0:
        g = -g
    if g != 1:
        vec = [n // g for n in vec]
        den //= g
    return tuple(vec), den


class Cyclotomic:
    """Element of Q(zeta_p) as a reduced residue mod Phi_p (p odd prime):
    sum_i (nums[i]/den) zeta^i for i < p - 1, with den > 0 and
    gcd(den, *nums) = 1 (zero is stored with den = 1)."""

    __slots__ = ("p", "nums", "den")

    @classmethod
    def _raw(cls, p: int, nums: Tuple[int, ...], den: int) -> "Cyclotomic":
        # Internal fast path: (nums, den) already canonical.
        self = object.__new__(cls)
        self.p, self.nums, self.den = p, nums, den
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_numerators(cls, p: int, nums: Sequence[int], den: int) -> "Cyclotomic":
        """The element sum_i (nums[i]/den) zeta^i, for len(nums) <= p and
        den != 0: one reduction mod Phi_p and one gcd pass."""
        return cls._raw(p, *_canonical(p, nums, den))

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients over 1, zeta, ..., zeta^(p-2) as Fractions
        (built on each call, for readers)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- structure ----------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """The automorphism zeta -> zeta^k, for k coprime to p.

        It permutes the basis of Z[zeta] (up to the reduction), an
        invertible integer map, so the image stays in lowest terms."""
        p = self.p
        if gcd(k, p) != 1:
            raise ValueError(f"{k} is not invertible mod {p}")
        kinv = pow(k, -1, p)
        src = self.nums + (0,)
        full = [src[(j * kinv) % p] for j in range(p)]  # coefficient of zeta^j
        top = full[p - 1]
        return Cyclotomic._raw(
            p, tuple(a - top for a in full[: p - 1]) if top else tuple(full[: p - 1]),
            self.den)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self.p == other.p and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.p, self.nums, self.den))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"Cyclotomic(p={self.p}, {body})"
