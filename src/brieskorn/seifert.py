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

The input rules (`check_entries`, `check_order`, `check_free`, `P_MAX`
and `FAMILY_KINDS`) live in `rules`, so a cache lookup checks its input
without loading this module; `check_order` is still importable from here.
"""

from __future__ import annotations

from functools import total_ordering

from .records import InputError, record
from .rules import FAMILY_KINDS, _acts_freely, check_entries, check_free
# Importers of check_order from this module, its former home, keep working.
from .rules import check_order  # noqa: F401


@total_ordering
@record
class BrieskornTriple:
    """Pairwise-coprime integers >= 2, stored sorted ascending; triples
    are ordered by their entries."""

    a1: int
    a2: int
    a3: int

    def __post_init__(self):
        check_entries(self.a1, self.a2, self.a3)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.entries < other.entries
        return NotImplemented

    @classmethod
    def of(cls, a: int, b: int, c: int) -> "BrieskornTriple":
        x, y, z = sorted((a, b, c))
        return cls(x, y, z)

    @property
    def entries(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    @property
    def product(self) -> int:
        return self.a1 * self.a2 * self.a3

    def __str__(self):
        return f"Sigma({self.a1},{self.a2},{self.a3})"


@record
class SeifertData:
    triple: BrieskornTriple
    b: tuple[int, int, int]
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
        raise InputError(f"group order must be >= 2, got {p}")
    return _acts_freely(p, triple.product)


def check_action(triple: BrieskornTriple, p: int) -> None:
    """The order rule, then freeness of the standard Z/p action."""
    check_free(p, triple.product)


def family(kind: str, r: int, s: int, sign: str = "+") -> BrieskornTriple:
    """A member of one of the two generator families of triples.

    casson-harer:
        r even, s odd:  (r, r*s - 1, r*s + 1)          (sign ignored)
        r odd,  any s:  (r, r*s +- 1, r*s +- 2)
    stern (sphere bounds a contractible manifold):
        r even, s odd:  (r, r*s +- 1, 2r(r*s +- 1) + r*s -+ 1)
        r odd,  any s:  (r, r*s +- 1, 2r(r*s +- 1) + r*s +- 2)

    The odd-r stern members with s = k*p form the locally-linear
    extension family: the lens search finds the class of L(p; r, 2r+2),
    and its rho invariants match.  An even-r member with p | s also gets
    a lens candidate, but its rho invariants do not match.

    Degenerate parameters (an entry <= 1, or non-coprime entries) are
    rejected rather than silently normalized.
    """
    if kind not in FAMILY_KINDS:
        raise InputError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    if sign not in ("+", "-"):
        raise InputError(f"sign must be '+' or '-', got {sign!r}")
    if r < 2 or s < 1:
        raise InputError(f"parameters out of range: r={r}, s={s}")
    even = r % 2 == 0
    if even and s % 2 == 0:
        raise InputError(f"r even requires s odd, got r={r}, s={s}")
    e = 1 if sign == "+" else -1
    m = r * s + e
    if kind == "casson-harer":
        raw = (r, r * s - 1, r * s + 1) if even else (r, m, m + e)
    else:
        raw = (r, m, 2 * r * m + r * s + (-e if even else 2 * e))
    if any(x < 2 for x in raw):
        raise InputError(f"degenerate family member {raw} for "
                         f"kind={kind}, r={r}, s={s}, sign={sign}")
    return BrieskornTriple.of(*raw)
