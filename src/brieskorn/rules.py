"""The input rules a cache lookup checks, on plain ints: a triple's
entries, the group order p (with the primality test it runs), the
freeness of the standard Z/p action, and the family kinds the parser
offers.

This module imports only `records`, so `cache` and `cli` check an input
without loading the Seifert data (`seifert`) or the continued fractions
(`arith`).  `seifert.check_order` and `arith.is_prime` are the same
functions, imported from here.
"""

from __future__ import annotations

from math import gcd

from .records import InputError, InternalInvariantError


def check_entries(a1: int, a2: int, a3: int) -> None:
    """The rules of a triple's entries: each >= 2, sorted ascending and
    pairwise coprime.  BrieskornTriple checks itself with this, and a
    cache hit checks its sorted ints with it, building no record."""
    entries = (a1, a2, a3)
    if min(entries) < 2:
        raise InputError(f"entries must all be >= 2, got {entries}")
    if not (a1 <= a2 <= a3):
        raise InputError(f"entries must be sorted ascending, got {entries}")
    if gcd(a1, a2) != 1 or gcd(a1, a3) != 1 or gcd(a2, a3) != 1:
        raise InputError(f"entries must be pairwise coprime, got {entries}")


# Strong probable-prime tests to bases 2 and 3 decide primality for every
# n below this (Pomerance, Selfridge and Wagstaff, Math. Comp. 35, 1980),
# which covers every order check_order admits.
MILLER_RABIN_LIMIT = 1_373_653
_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def is_prime(n: int) -> bool:
    """Primality of n < MILLER_RABIN_LIMIT, exactly; a larger n raises
    InternalInvariantError rather than answer.

    A prime up to 37 is found by set lookup, so p = 5 and 7 take about
    0.06 us.  Any other n takes the strong tests to bases 2 and 3: about
    1-2 us at p = 101 and 1009, and 2.4 us at p = 99991, where trial
    division took 15-26 us."""
    if n in _SMALL_PRIMES:
        return True
    if n < 2:
        return False
    if n >= MILLER_RABIN_LIMIT:
        raise InternalInvariantError(
            f"is_prime is exact only below {MILLER_RABIN_LIMIT}, got {n}")
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


def _acts_freely(p: int, product: int) -> bool:
    """The freeness rule of seifert.standard_action_valid, on the
    product."""
    return gcd(p, product) == 1


# The largest group order accepted.  The spectral stage is the only one
# that grows with p (a few length-p integer vectors and one O(p) pass per
# eta kernel); the README gives its time and memory at the largest
# admitted prime, 99991.
P_MAX = 100_000


def check_order(p: int) -> None:
    """The group order rule: p must be an odd prime, at most P_MAX.

    The ceiling is checked first, so an oversized p is refused before any
    work (the primality test included) is spent on it.
    """
    if p > P_MAX:
        raise InputError(f"p must be at most {P_MAX}, got {p}")
    if not is_prime(p) or p < 3:
        raise InputError(f"p must be an odd prime >= 3, got {p}")


def check_free(p: int, product: int) -> None:
    """seifert.check_action on the product of a triple's entries, for a
    caller that holds them as ints."""
    check_order(p)
    if not _acts_freely(p, product):
        raise InputError(f"p = {p} divides {product}: the standard "
                         "action is not free")


FAMILY_KINDS = ("casson-harer", "stern")
