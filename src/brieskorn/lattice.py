"""Exact diagonalization of negative definite unimodular integer forms.

A form Q of rank n is integrally equivalent to -I iff it has n +- pairs of
vectors of square -1; for a negative definite form those vectors are
automatically pairwise orthogonal (Cauchy-Schwarz is strict on
non-proportional vectors), so finding them is the entire problem.

The search enumerates every v with v^t Q v = -1 by exact backtracking
(Fincke & Pohst, Math. Comp. 44, 1985) on Q = L D L^t.  The factor is
the package's one symmetric elimination, ``matrices.eliminate``, in
leaf-first order: minimum degree, ties broken by node index.  On a
plumbing tree that always removes a leaf, so there is no fill-in and the
centre of each coordinate depends on its parent's coordinate alone;
other symmetric matrices work too, with some fill-in.  All pivots are
negative exactly when the form is negative definite, so the same
elimination is the definiteness check and gives det Q = prod d_j; on a
definite form it never needs a zero-pivot repair, so it is a plain
L D L^t.  The search itself is integer: column j has an
integer centre numerator over g_j and every budget is scaled by one
common S.  With the n representatives as the columns of C, C^t Q C = -I
gives C^-1 = -C^t Q without an inversion.  No floating point enters the
decision path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple, Union

from . import matrices
from .matrices import (Elimination, IntMatrix, eliminate, freeze, identity,
                       mat_mul, transpose)
from .plumbing import InternalInvariantError


@dataclass(frozen=True)
class UnimodularForm:
    n: int
    q: IntMatrix

    def __post_init__(self):
        if len(self.q) != self.n or not matrices.is_symmetric(self.q):
            raise ValueError("form matrix must be symmetric n x n")

    @classmethod
    def from_matrix(cls, rows) -> "UnimodularForm":
        q = freeze(rows)
        return cls(len(q), q)

    @cached_property
    def elimination(self) -> Elimination:
        """The congruence elimination of Q (matrices.eliminate)."""
        return eliminate(self.q)

    determinant = property(lambda self: self.elimination.determinant,
                           doc="det Q, the product of the pivots.")

    @property
    def is_unimodular(self) -> bool:
        return abs(self.determinant) == 1

    @property
    def is_negative_definite(self) -> bool:
        return self.elimination.definiteness == "negative-definite"


def enumerate_roots(form: UnimodularForm) -> Tuple[Tuple[int, ...], ...]:
    """All integer vectors v with v^t Q v = -1, for negative definite Q.

    Complete by construction: -v^t Q v = sum_j |d_j| (v_j + c_j)^2 with c_j
    a combination of coordinates eliminated after j (on a tree, its
    parent's alone), so coordinates are chosen in reverse elimination
    order with the exact interval |d_j| (v_j + c_j)^2 <= remaining budget.
    In integers: with g_j the common denominator of column j of L,
    t = g_j (v_j + c_j) is an integer, W_j = S |d_j| / g_j^2 is an integer
    for one common S, and the condition reads W_j t^2 <= budget, starting
    from S.  The output is closed under negation, duplicate-free, and
    sorted lexicographically.
    """
    if not form.is_negative_definite:
        raise ValueError("root enumeration requires a negative definite form")
    e = form.elimination
    steps = []
    for node, d, col in zip(e.order, e.pivots, e.columns):
        g = math.lcm(*(l.denominator for _, l in col))
        steps.append((node, g, -d / (g * g),
                      tuple((i, int(l * g)) for i, l in col)))
    scale = math.lcm(*(w.denominator for _, _, w, _ in steps))
    steps = [(node, g, int(w * scale), coupling)
             for node, g, w, coupling in reversed(steps)]
    n = form.n
    roots: List[Tuple[int, ...]] = []
    v = [0] * n

    def descend(level: int, budget: int):
        if level == n:
            if budget == 0:          # then v^t Q v = -1, so v != 0
                roots.append(tuple(v))
            return
        node, g, w, coupling = steps[level]
        centre = sum(l * v[i] for i, l in coupling)     # g_j c_j
        t_max = math.isqrt(budget // w)
        for m in range(-((t_max + centre) // g), (t_max - centre) // g + 1):
            t = g * m + centre
            v[node] = m
            descend(level + 1, budget - w * t * t)
        v[node] = 0

    descend(0, scale)
    return tuple(sorted(roots))


@dataclass(frozen=True)
class Diagonalization:
    """Exact basis change C with C^t Q C = -I and its integer inverse.

    Columns of c are the diagonal basis vectors in the node basis; columns
    of c_inv express each node class in the diagonal basis.  Both
    identities are re-verified on construction; a failure is an internal
    invariant violation, not bad input.
    """

    form: UnimodularForm
    c: IntMatrix
    c_inv: IntMatrix

    def __post_init__(self):
        n = self.form.n
        if any(len(m) != n or any(len(row) != n for row in m)
               for m in (self.c, self.c_inv)):
            raise InternalInvariantError(f"C and C_inv must be {n} x {n}")
        minus_i = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
        if mat_mul(mat_mul(transpose(self.c), self.form.q), self.c) != minus_i:
            raise InternalInvariantError("C^t Q C != -I")
        if mat_mul(self.c, self.c_inv) != identity(n):
            raise InternalInvariantError("C * C_inv != I")

    @property
    def found(self) -> bool:
        return True

    def column(self, i: int) -> Tuple[int, ...]:
        """Node class i in the diagonal basis (column i of C^-1)."""
        return tuple(self.c_inv[j][i] for j in range(self.form.n))


@dataclass(frozen=True)
class DiagonalizationFailure:
    """Certificate that the form is not integrally equivalent to -I."""

    form: UnimodularForm
    root_pairs: int

    @property
    def found(self) -> bool:
        return False

    @property
    def message(self) -> str:
        return (f"{self.root_pairs} root pairs < {self.form.n} required: "
                "no integral diagonalization exists")


def diagonalize(form: UnimodularForm) -> Union[Diagonalization, DiagonalizationFailure]:
    """Donaldson-style diagonalization, or a root-count certificate.

    Requires a negative definite unimodular form.  Success needs one
    square -1 vector per +- pair in every coordinate direction, i.e. n
    pairs; representatives are the pair members with positive leading
    entry, in lexicographic order, which makes the output canonical.
    """
    if not form.is_unimodular:
        raise ValueError("form must have determinant +-1")
    roots = enumerate_roots(form)
    reps = [v for v in roots if next(x for x in v if x) > 0]
    if len(reps) != form.n:
        return DiagonalizationFailure(form, len(reps))
    # Square -1 vectors of a negative definite form from different +-
    # pairs are orthogonal (|v^t Q w| < 1), so C^t Q C = -I (checked on construction) and therefore
    # C^-1 = -C^t Q; the rows of C^t are the representatives.
    c_inv = tuple(tuple(-x for x in row) for row in mat_mul(reps, form.q))
    return Diagonalization(form, transpose(reps), c_inv)
