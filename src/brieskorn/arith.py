"""Exact scalar arithmetic: Hirzebruch-Jung continued fractions and
cyclotomic fields.

Continued fractions and other rational values are ``fractions.Fraction``
(always in lowest terms, positive denominator, arbitrary precision).

A ``Cyclotomic`` is an element of Q(zeta_p), p an odd prime, stored as the
canonical residue modulo the p-th cyclotomic polynomial
Phi_p = 1 + x + ... + x^(p-1) over the basis 1, zeta, ..., zeta^(p-2):
one integer numerator tuple ``nums`` of length p - 1 over one positive
denominator ``den``, in lowest terms (gcd(den, *nums) = 1, and zero has
den = 1).  Two elements are equal iff their (nums, den) are equal, so
equality, hashing and the Galois action are exact and work on integers
only; ``coeffs`` builds the Fraction coefficients on demand for readers.
A product convolves the two numerator vectors (``convolve``, the double
loop folded by x^p = 1) over the product of the denominators.  The
pipeline never multiplies or divides two field elements: its one kernel,
nu(a, b; zeta) in ``spectral``, writes the p integer numerators of p^2 nu
directly by a first-difference recurrence on a Dedekind-Rademacher sum,
and eta is an integer combination of its values.  The product stays for
the tests, which build expected values with it; field division, rational
values, the float embedding and the old convolution path of nu are test
oracles in ``tests/spectral_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


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
# Cyclotomic field arithmetic
# ---------------------------------------------------------------------------

def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


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

    def __init__(self, p: int, coeffs: Sequence[Scalar]):
        if not is_prime(p) or p < 3:
            raise ValueError(f"order must be an odd prime >= 3, got {p}")
        vec = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vec))
        self.p = p
        self.nums, self.den = _canonical(
            p, [c.numerator * (den // c.denominator) for c in vec], den)

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

    @classmethod
    def from_rational(cls, p: int, value: Scalar) -> "Cyclotomic":
        return cls(p, [value])

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients over 1, zeta, ..., zeta^(p-2) as Fractions
        (built on each call, for readers)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")
            return other
        return Cyclotomic.from_rational(self.p, other)

    def _combine(self, other, sign: int) -> "Cyclotomic":
        # self + sign * other over the least common denominator.
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        sx, sy = den // self.den, sign * (den // other.den)
        return Cyclotomic.from_numerators(
            self.p, [a * sx + b * sy for a, b in zip(self.nums, other.nums)], den)

    def __add__(self, other) -> "Cyclotomic":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._raw(self.p, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other) -> "Cyclotomic":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Cyclotomic":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return Cyclotomic.from_numerators(
                self.p, [a * q.numerator for a in self.nums],
                self.den * q.denominator)
        other = self._coerce(other)
        return Cyclotomic.from_numerators(
            self.p, convolve(self.p, self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

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

    def denominator(self) -> int:
        """Least common denominator of the coefficients."""
        return self.den

    def numerators(self, den: int) -> List[int]:
        """The integers n_i with coeffs[i] == n_i/den, for den a multiple of
        denominator()."""
        if den % self.den:
            raise ValueError(f"{den} is not a multiple of the denominator {self.den}")
        scale = den // self.den
        return [n * scale for n in self.nums]

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.p, other)
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


# ---------------------------------------------------------------------------
# Cyclic convolution
# ---------------------------------------------------------------------------

def convolve(p: int, x: Sequence[int], y: Sequence[int]) -> List[int]:
    """Cyclic product of two integer vectors modulo x^p - 1 (length p),
    by the double loop; the wrap x^p = 1 is folded afterwards."""
    full = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                full[k] += a * b
    return _fold(p, full)


def _fold(p: int, full: List[int]) -> List[int]:
    """A linear convolution reduced by x^p = 1 to length p."""
    out = full[:p] + [0] * (p - len(full))
    for k in range(p, len(full)):
        out[k % p] += full[k]
    return out
