"""Exact scalar arithmetic: the primality test for the action's order and
Hirzebruch-Jung continued fractions."""

from __future__ import annotations

from math import gcd, prod

from .records import InputError, InternalInvariantError, record

# Strong probable-prime tests to bases 2 and 3 decide primality for every
# n below this (Pomerance, Selfridge and Wagstaff, Math. Comp. 35, 1980),
# which covers every order seifert.check_order admits.
MILLER_RABIN_LIMIT = 1_373_653
_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Primality of n < MILLER_RABIN_LIMIT, exactly; a larger n raises
    InternalInvariantError rather than answer.

    A prime up to 37 is found by set lookup and a multiple of one by one
    gcd, so p = 5 and 7 take about 0.05 us; the least composite that
    passes that screen is 41^2.  Any other n takes the strong tests to
    bases 2 and 3: about 2 us at p = 99991, where trial division took
    15-26 us."""
    if n in _SMALL_PRIMES:
        return True
    if n < 2:
        return False
    if n >= MILLER_RABIN_LIMIT:
        raise InternalInvariantError(
            f"is_prime is exact only below {MILLER_RABIN_LIMIT}, got {n}")
    if gcd(n, _SMALL_PRODUCT) != 1:
        return False
    if n < 41 * 41:
        return True
    m = n - 1
    s = (m & -m).bit_length() - 1      # n - 1 = d * 2^s with d odd
    d = m >> s
    for base in (2, 3):
        x = pow(base, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Hirzebruch-Jung continued fractions
# ---------------------------------------------------------------------------

# The largest resolution tree accepted, in nodes.  One expansion term is one
# node, and a branch of a_i / b_i can have about a_i terms, so without this
# ceiling the expansion alone runs without bound on a large a_i.  The
# lattice stage and the dense report grow with n^2; the README gives the
# time and memory of a run at the ceiling.
NODE_MAX = 1200


@record
class HJExpansion:
    """Continued-fraction expansion a/b = [t1, ..., tm] with every ti <= -2.

    The convention is a > 0, -a < b < 0, so that a/b < -1 and the
    all-terms-<=-2 expansion exists and is unique.
    """

    numerator: int
    denominator: int
    terms: tuple[int, ...]

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
    a/b exactly.  More than NODE_MAX terms is refused as it is reached.
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
        if len(terms) == NODE_MAX:
            raise InputError(f"the continued fraction of {a}/{b} has more "
                             f"than NODE_MAX = {NODE_MAX} terms")
        t, r = divmod(x, y)
        terms.append(t)
        x, y = -y, r
    return HJExpansion(a, b, tuple(terms))
