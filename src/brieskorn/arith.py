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
A product convolves the two numerator vectors by Kronecker substitution
(``convolve``: one big-integer multiply, linear-time packing) over the
product of the denominators.  The pipeline never multiplies or divides
two field elements: its one kernel, nu(a, b; zeta) in ``spectral``,
convolves two integer vectors built from the closed form of
1/(zeta^m - 1), and eta is an integer combination of its values.  The
product stays for the tests, which build expected values with it; field
division, rational values, the float embedding and the schoolbook
convolution are test oracles in ``tests/spectral_oracle.py``.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
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
# Kronecker-substitution convolution
# ---------------------------------------------------------------------------

# Digits of 1, 2, 4 or 8 bytes are packed by the array module; 5 to 7
# byte digits go through 8-byte words narrowed by strided byte copies;
# wider digits through int.to_bytes one entry at a time.  Byte strings
# are little-endian.
_CODES = {array(code).itemsize: code for code in "BHILQ"}
_SWAP = sys.byteorder == "big"


def _digit_width(bound: int) -> int:
    """Bytes per digit so that 0 <= digit <= bound is below 256**width
    (bound >= 1); up to 4 bytes, rounded up to an array item size."""
    width = (bound.bit_length() + 7) // 8
    return 1 << (width - 1).bit_length() if width <= 4 else width


def _words(code: str, data) -> array:
    """An array of the given item code, its items stored little-endian."""
    words = array(code, data)
    if _SWAP:
        words.byteswap()
    return words


def _pack(digits: Sequence[int], width: int) -> int:
    """sum_k digits[k] 256**(width k), for 0 <= digits[k] < 256**width."""
    if width > 8:
        return int.from_bytes(
            b"".join(d.to_bytes(width, "little") for d in digits), "little")
    raw = _words(_CODES.get(width, "Q"), digits)
    if width not in _CODES:  # keep the low `width` bytes of each word
        raw, wide = bytearray(len(digits) * width), raw.tobytes()
        for i in range(width):
            raw[i::width] = wide[i::8]
    return int.from_bytes(raw, "little")


def _unpack(z: int, n: int, width: int) -> List[int]:
    """The n base-256**width digits of 0 <= z < 256**(width n)."""
    raw = z.to_bytes(n * width, "little")
    if width > 8:
        return [int.from_bytes(raw[k:k + width], "little")
                for k in range(0, n * width, width)]
    if width not in _CODES:  # widen each digit to an 8-byte word
        raw, narrow = bytearray(8 * n), raw
        for i in range(width):
            raw[i::8] = narrow[i::width]
    return _words(_CODES.get(width, "Q"), raw).tolist()


def _signed_pack(x: Sequence[int], lo: int, width: int) -> int:
    """sum_k x[k] B**k for B = 256**width, from non-negative digits x[k] - lo."""
    if lo >= 0:
        return _pack(x, width)
    return _pack([a - lo for a in x], width) + lo * _pack([1] * len(x), width)


# Up to this many entries in the shorter vector, the double loop is
# cheaper than packing (it keeps nu at p = 3 and 5 as fast as the loop).
_DIRECT = 5


def convolve(p: int, x: Sequence[int], y: Sequence[int]) -> List[int]:
    """Cyclic product of two integer vectors modulo x^p - 1 (length p).

    Kronecker substitution: for B = 256**width larger than every
    coefficient of the linear product (than twice it, for signed input),
    X = sum x_i B^i and Y = sum y_j B^j are multiplied as integers and the
    digits of XY are the linear convolution.  Packing and unpacking are
    linear (one byte string per vector); the product is one big-integer
    multiply.  Signed inputs are packed with an offset and the product is
    read in balanced digits: adding sum_k (B/2) B^k makes every digit
    z_k + B/2 lie in [0, B).  The wrap x^p = 1 is folded after unpacking.
    """
    if not x or not y:
        return [0] * p
    n = len(x) + len(y) - 1
    if min(len(x), len(y)) <= _DIRECT:
        full = [0] * n
        for i, a in enumerate(x):
            if a:
                for k, b in enumerate(y, i):
                    full[k] += a * b
        return _fold(p, full)
    xlo, ylo = min(x), min(y)
    signed = xlo < 0 or ylo < 0
    bound = ((max(max(x), -xlo) * max(max(y), -ylo) if signed
              else max(x) * max(y))
             * min(len(x), len(y)))  # >= |every coefficient of XY|
    if not bound:
        return [0] * p
    if signed:
        width = _digit_width(2 * bound)
        half = 1 << (8 * width - 1)
        z = _signed_pack(x, xlo, width) * _signed_pack(y, ylo, width)
        full = [d - half for d in _unpack(z + _pack([half] * n, width), n, width)]
    else:
        width = _digit_width(bound)
        full = _unpack(_pack(x, width) * _pack(y, width), n, width)
    return _fold(p, full)


def _fold(p: int, full: List[int]) -> List[int]:
    """A linear convolution reduced by x^p = 1 to length p."""
    n = len(full)
    out = full[:p]
    for start in range(p, n, p):
        out[:n - start] = map(add, out, full[start:start + p])
    if n < p:
        out += [0] * (p - n)
    return out
