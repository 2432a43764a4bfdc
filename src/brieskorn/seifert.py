"""Brieskorn/Seifert data: the orbit invariants b_i, the central weight
delta, the Fintushel-Stern R-invariant, and the two infinite families of
triples used throughout.

For a triple (a1, a2, a3) of pairwise-coprime integers >= 2, the Seifert
invariants are the unique b_i with -a_i < b_i < 0 and

    a1*a2*a3 * b_i / a_i == 1  (mod a_i),

and the central plumbing weight is

    delta = -1/(a1*a2*a3) + b1/a1 + b2/a2 + b3/a3,

always an integer <= -1.  The R-invariant is -2*delta - 3, an odd integer
>= -1; R == -1 is necessary for the sphere to bound a smooth contractible
4-manifold.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd
from typing import Tuple

from .arith import is_prime
from .records import record


@total_ordering
@record
class BrieskornTriple:
    """Pairwise-coprime integers >= 2, stored sorted ascending; triples
    are ordered by their entries."""

    a1: int
    a2: int
    a3: int

    def __post_init__(self):
        entries = (self.a1, self.a2, self.a3)
        if any(a < 2 for a in entries):
            raise ValueError(f"entries must all be >= 2, got {entries}")
        if not (self.a1 <= self.a2 <= self.a3):
            raise ValueError(f"entries must be sorted ascending, got {entries}")
        for i in range(3):
            for j in range(i + 1, 3):
                if gcd(entries[i], entries[j]) != 1:
                    raise ValueError(
                        f"entries must be pairwise coprime, got {entries}")

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.entries < other.entries
        return NotImplemented

    @classmethod
    def of(cls, a: int, b: int, c: int) -> "BrieskornTriple":
        x, y, z = sorted((a, b, c))
        return cls(x, y, z)

    @property
    def entries(self) -> Tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    @property
    def product(self) -> int:
        return self.a1 * self.a2 * self.a3

    def __str__(self):
        return f"Sigma({self.a1},{self.a2},{self.a3})"


@record
class SeifertData:
    triple: BrieskornTriple
    b: Tuple[int, int, int]
    delta: int

    def __post_init__(self):
        a = self.triple.entries
        prod = self.triple.product
        for ai, bi in zip(a, self.b):
            if not (-ai < bi < 0):
                raise ValueError(f"b={self.b} out of range for {a}")
            if (prod * bi // ai) % ai != 1 % ai:
                raise ValueError(f"congruence fails for b={self.b}")
        if self.delta > -1:
            raise ValueError(f"delta must be <= -1, got {self.delta}")

    @property
    def r_invariant(self) -> int:
        """-2*delta - 3: odd, and >= -1 because delta <= -1."""
        return -2 * self.delta - 3


def seifert_invariants(triple: BrieskornTriple) -> SeifertData:
    """Solve the defining congruences in closed form, in integers.

    a1*a2*a3/a_i is coprime to a_i, so b_i is its inverse mod a_i shifted
    into (-a_i, 0); the root is unique in that range.  With P = a1*a2*a3,
    delta = (b1*P/a1 + b2*P/a2 + b3*P/a3 - 1) / P, one exact division.
    """
    a = triple.entries
    prod = triple.product
    b = [pow(prod // ai, -1, ai) - ai for ai in a]
    numerator = sum(bi * (prod // ai) for ai, bi in zip(a, b)) - 1
    delta, remainder = divmod(numerator, prod)
    if remainder:
        raise ArithmeticError(
            f"central weight is not an integer: {numerator}/{prod}")
    return SeifertData(triple, tuple(b), delta)


def standard_action_valid(triple: BrieskornTriple, p: int) -> bool:
    """Is the restriction of the circle action to Z/p free on the sphere?

    True iff p is coprime to a1*a2*a3.
    """
    if p < 2:
        raise ValueError(f"group order must be >= 2, got {p}")
    return gcd(p, triple.product) == 1


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
        raise ValueError(f"p must be at most {P_MAX}, got {p}")
    if not is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")


def check_action(triple: BrieskornTriple, p: int) -> None:
    """The order rule, then freeness of the standard Z/p action."""
    check_order(p)
    if not standard_action_valid(triple, p):
        raise ValueError(f"p = {p} divides {triple.product}: the standard "
                         "action is not free")


_FAMILY_KINDS = ("casson-harer", "stern")


def family(kind: str, r: int, s: int, sign: str = "+") -> BrieskornTriple:
    """A member of one of the two generator families of triples.

    casson-harer:
        r even, s odd:  (r, r*s - 1, r*s + 1)          (sign ignored)
        r odd,  any s:  (r, r*s +- 1, r*s +- 2)
    stern (sphere bounds a contractible manifold; s = k*p gives the
    locally-linear extension family):
        r even, s odd:  (r, r*s +- 1, 2r(r*s +- 1) + r*s -+ 1)
        r odd,  any s:  (r, r*s +- 1, 2r(r*s +- 1) + r*s +- 2)

    Degenerate parameters (an entry <= 1, or non-coprime entries) are
    rejected rather than silently normalized.
    """
    if kind not in _FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {_FAMILY_KINDS}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if r < 2 or s < 1:
        raise ValueError(f"parameters out of range: r={r}, s={s}")
    e = 1 if sign == "+" else -1
    if kind == "casson-harer":
        if r % 2 == 0:
            if s % 2 == 0:
                raise ValueError(f"r even requires s odd, got r={r}, s={s}")
            raw = (r, r * s - 1, r * s + 1)
        else:
            raw = (r, r * s + e, r * s + 2 * e)
    else:
        if r % 2 == 0:
            if s % 2 == 0:
                raise ValueError(f"r even requires s odd, got r={r}, s={s}")
            m = r * s + e
            raw = (r, m, 2 * r * m + r * s - e)
        else:
            m = r * s + e
            raw = (r, m, 2 * r * m + r * s + 2 * e)
    if any(x < 2 for x in raw):
        raise ValueError(f"degenerate family member {raw} for "
                         f"kind={kind}, r={r}, s={s}, sign={sign}")
    return BrieskornTriple.of(*raw)
