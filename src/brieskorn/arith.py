"""Exact scalar arithmetic: Hirzebruch-Jung continued fractions and
cyclotomic fields.

Rationals are ``fractions.Fraction`` throughout the package (always in
lowest terms, positive denominator, arbitrary precision).

A ``Cyclotomic`` is an element of Q(zeta_p), p an odd prime, stored as the
canonical residue modulo the p-th cyclotomic polynomial
Phi_p = 1 + x + ... + x^(p-1): a coefficient vector over the basis
1, zeta, ..., zeta^(p-2).  Two elements are equal iff their coefficient
vectors are equal, so equality, hashing and the Galois action are exact.
Products scale both operands to integer vectors over their least common
denominators, convolve the integers and build Fractions once at the end.
The package never divides in the field (the one inverse it needs,
1/(zeta^m - 1), has a closed form in ``spectral``); field division,
rational values and the float embedding are test oracles in
``tests/spectral_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


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

def hj_evaluate(terms: Sequence[int]) -> Fraction:
    """Evaluate t1 - 1/(t2 - 1/(... - 1/tm)) exactly."""
    if not terms:
        raise ValueError("empty continued fraction")
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        if value == 0:
            raise ZeroDivisionError("zero convergent in continued fraction")
        value = t - 1 / value
    return value


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
        if any(t > -2 for t in self.terms):
            raise ValueError(f"terms must all be <= -2, got {self.terms}")
        if hj_evaluate(self.terms) != Fraction(self.numerator, self.denominator):
            raise ValueError("terms do not evaluate to numerator/denominator")


def hj_expand(a: int, b: int) -> HJExpansion:
    """Expand a/b (a > 0, -a < b < 0, gcd(a,|b|) = 1) with all terms <= -2.

    Each step takes t = floor(q) and recurses on -1/(q - t); because
    a/b < -1, every quotient along the way is < -1 and every floor is <= -2.
    Uniqueness is a property of this expansion: re-evaluating the output
    reproduces a/b exactly.
    """
    if a <= 0:
        raise ValueError(f"numerator must be positive, got {a}")
    if not (-a < b < 0):
        raise ValueError(f"denominator must satisfy -{a} < b < 0, got {b}")
    if gcd(a, -b) != 1:
        raise ValueError(f"{a} and {b} are not coprime")
    terms = []
    q = Fraction(a, b)
    while True:
        t = q.numerator // q.denominator  # floor for exact Fractions
        if q == t:
            terms.append(t)
            break
        terms.append(t)
        q = -1 / (q - t)
    return HJExpansion(a, b, tuple(terms))


# ---------------------------------------------------------------------------
# Cyclotomic field arithmetic
# ---------------------------------------------------------------------------

def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Cyclotomic:
    """Element of Q(zeta_p) as a reduced residue mod Phi_p (p odd prime)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[Scalar]):
        if not is_prime(p) or p < 3:
            raise ValueError(f"order must be an odd prime >= 3, got {p}")
        vec = [_as_fraction(c) for c in coeffs]
        if len(vec) > p:
            raise ValueError("coefficient vector longer than the field degree")
        vec += [Fraction(0)] * (p - len(vec))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", self._reduce(p, vec))

    @staticmethod
    def _reduce(p: int, full) -> Tuple[Fraction, ...]:
        # Kill the zeta^(p-1) coordinate via zeta^(p-1) = -(1 + ... + zeta^(p-2)).
        top = full[p - 1]
        if not top:
            return tuple(full[: p - 1])
        return tuple(c - top for c in full[: p - 1])

    @classmethod
    def _raw(cls, p: int, coeffs: Tuple[Fraction, ...]) -> "Cyclotomic":
        # Internal fast path: coeffs already a reduced length-(p-1) tuple.
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_numerators(cls, p: int, nums: Sequence[int], den: int) -> "Cyclotomic":
        """The element sum_i (nums[i]/den) zeta^i, for len(nums) <= p.

        The fast path for integer-scaled kernels: the reduction mod Phi_p
        is done on the integers, and Fractions are built once at the end.
        """
        if len(nums) > p:
            raise ValueError("coefficient vector longer than the field degree")
        top = nums[p - 1] if len(nums) == p else 0
        nums = list(nums[: p - 1]) + [0] * (p - 1 - len(nums))
        return cls._raw(p, tuple(
            Fraction(n - top, den) if n != top else _ZERO for n in nums))

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls(p, [])

    @classmethod
    def one(cls, p: int) -> "Cyclotomic":
        return cls(p, [1])

    @classmethod
    def from_rational(cls, p: int, value: Scalar) -> "Cyclotomic":
        return cls(p, [value])

    @classmethod
    def zeta(cls, p: int, k: int = 1) -> "Cyclotomic":
        """zeta_p^k (any integer k, exponent taken mod p)."""
        vec = [Fraction(0)] * p
        vec[k % p] = Fraction(1)
        return cls(p, vec)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")
            return other
        return Cyclotomic.from_rational(self.p, other)

    def __add__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        return Cyclotomic._raw(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._raw(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        return Cyclotomic._raw(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other) -> "Cyclotomic":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._raw(self.p, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        dx, dy = self.denominator(), other.denominator()
        product = convolve(self.p, self.numerators(dx), other.numerators(dy))
        return Cyclotomic.from_numerators(self.p, product, dx * dy)

    __rmul__ = __mul__

    def mul_zeta_power(self, k: int) -> "Cyclotomic":
        """Multiply by zeta^k (a cyclic coefficient shift; O(p))."""
        p = self.p
        full = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a:
                full[(i + k) % p] = a
        return Cyclotomic._raw(p, self._reduce(p, full))

    # -- structure ----------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """The automorphism zeta -> zeta^k, for k coprime to p."""
        p = self.p
        if gcd(k, p) != 1:
            raise ValueError(f"{k} is not invertible mod {p}")
        full = [_ZERO] * p
        for i, a in enumerate(self.coeffs):
            full[(i * k) % p] = a  # i -> i*k is a bijection mod p
        return Cyclotomic._raw(p, self._reduce(p, full))

    def denominator(self) -> int:
        """Least common denominator of the coefficients."""
        return lcm(*(c.denominator for c in self.coeffs))

    def numerators(self, den: int) -> List[int]:
        """The integers n_i with coeffs[i] == n_i/den, for den a multiple of
        denominator()."""
        return [c.numerator * (den // c.denominator) for c in self.coeffs]

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.p, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

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


def convolve(p: int, x: Sequence[int], y: Sequence[int]) -> List[int]:
    """Cyclic product of two integer vectors modulo x^p - 1 (length p)."""
    full = [0] * max(len(x) + len(y) - 1, p)
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                full[k] += a * b
    for k in range(len(full) - 1, p - 1, -1):
        full[k - p] += full[k]
    return full[:p]
