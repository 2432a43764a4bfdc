"""Exact scalar arithmetic: Hirzebruch-Jung continued fractions.

The primality test for the action's order, `is_prime`, lives in `rules`
with the other input checks, so a cache lookup loads it without this
module; it is still importable from here.
"""

from __future__ import annotations

from math import gcd

from .records import InputError, record
# Importers of is_prime from this module, its former home, keep working.
from .rules import is_prime  # noqa: F401

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
