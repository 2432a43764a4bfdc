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
elimination is the definiteness check and gives det Q = prod d_j.  It is
a plain L D L^t, which meets no zero pivot on a definite form and
refuses a form on which it meets one.  Nothing between Q and C is a
Fraction: the elimination keeps each row as integers over one positive
scale and hands over each pivot as an integer numerator and denominator
and each column of L as integer numerators over the pivot numerator;
the search turns these into an integer centre numerator over g_j per
column and integer weights over one common budget S.  It is one flat
loop with an explicit stack, so no recursion limit bounds n; a path that
has spent its budget walks its forced tail by one divmod per level, and
each +- pair is found once and returned once, as its member with positive
leading entry.  These n representatives are the columns of C.
X = -C^t Q is formed once from the nonzeros of Q: row k of -Q C, started
from -Q[k][k] times row k of C, is node k's coordinates, column k of X,
with at most -Q[k][k] nonzeros.  Then X^t X = -Q, summed over the
nodes that share each basis vector, and |det Q| = 1 check both
identities: X = -C^t Q = (X C)^t X with X invertible gives X C = I, so
C^-1 = X and C^t Q C = -X C = -I.  No floating point enters the
decision path.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress, repeat
from operator import add, mul, neg, sub

from .matrices import Elimination, IntMatrix, eliminate, freeze, transpose
from .records import InternalInvariantError, record


@record
class UnimodularForm:
    q: IntMatrix

    def __post_init__(self):
        n = len(self.q)
        if any(len(row) != n for row in self.q) or transpose(self.q) != self.q:
            raise ValueError("form matrix must be symmetric n x n")

    @classmethod
    def from_matrix(cls, rows) -> "UnimodularForm":
        return cls(freeze(rows))

    @property
    def n(self) -> int:
        return len(self.q)

    @cached_property
    def elimination(self) -> Elimination:
        """The congruence elimination of Q (matrices.eliminate)."""
        return eliminate(self.q)


def enumerate_roots(form: UnimodularForm) -> tuple[tuple[int, ...], ...]:
    """One integer vector v with v^t Q v = -1 per +- pair, for negative
    definite Q.

    Complete by construction: -v^t Q v = sum_j |d_j| (v_j + c_j)^2 with c_j
    a combination of coordinates eliminated after j (on a tree, its
    parent's alone), so coordinates are chosen in reverse elimination
    order with the exact interval |d_j| (v_j + c_j)^2 <= remaining budget.
    In integers: column j of L is (i, a_i) over the pivot numerator D_j,
    so with h_j = gcd(D_j, a_i) the common denominator of the column is
    g_j = |D_j| / h_j, t = g_j (v_j + c_j) = g_j v_j - sum a_i v_i / h_j is
    an integer, and W_j = S h_j^2 / (s_j |D_j|) = S |d_j| / g_j^2 is an
    integer for one common S.  The condition reads W_j t^2 <= budget,
    starting from S.  Once a path has spent its budget every later t is
    0, so the tail is forced: v_j = -c_j, found by one divmod, and the
    path dies at the first level where g_j does not divide the centre
    numerator g_j c_j; a path that reaches level n is a root.

    The walk is one loop: a level places the first value of its range and
    pushes the rest, if any, on a stack; an empty range, a forced tail or
    level n pops the stack.  Nothing is reset: a centre reads only nodes
    placed at earlier levels of the current path, and every level writes
    its coordinate, 0 included, so no stale entry is read.

    Each +- pair is found once: while every placed coordinate is 0 (the
    budget is still S) every centre is 0, the range is symmetric and the
    subtree below -m mirrors the one below m, so only m >= 0 is taken;
    this holds for any definite form.  Each root is recorded as the member
    of {v, -v} whose first nonzero entry is positive, so the output has
    one root per pair, no duplicates, and is sorted lexicographically.
    """
    e = form.elimination
    if e.definiteness != "negative-definite":
        raise ValueError("root enumeration requires a negative definite form")
    steps = []
    for node, d, s, col in zip(e.order, e.pivots, e.scales, e.columns):
        h = math.gcd(d, *(a for _, a in col))      # d < 0
        num, den = h * h, -s * d                   # W_j / S = num / den
        r = math.gcd(num, den)
        steps.append((node, -d // h, num // r, den // r,
                      tuple((i, -a // h) for i, a in col)))
    scale = math.lcm(*(den for _, _, _, den, _ in steps))
    steps = [(node, g, num * (scale // den), coupling)
             for node, g, num, den, coupling in reversed(steps)]
    n = form.n
    roots: list[tuple[int, ...]] = []
    v = [0] * n          # written at each level before a later one reads it
    stack = []           # (level, next m, high, budget, centre) per open range
    level, budget = 0, scale
    while True:
        if not budget:       # forced tail: t = 0 at every later level
            for node, g, _, coupling in steps[level:]:
                centre = 0
                for i, l in coupling:
                    centre += l * v[i]
                if centre:
                    m, r = divmod(-centre, g)
                    if r:
                        break
                    v[node] = m
                else:
                    v[node] = 0
            else:            # then v^t Q v = -1, so v != 0
                roots.append(tuple(v) if next(filter(None, v)) > 0
                             else tuple(map(neg, v)))
            m, high = 1, 0
        elif level < n:
            node, g, w, coupling = steps[level]
            centre = 0                                  # g_j c_j
            for i, l in coupling:
                centre += l * v[i]
            t_max = math.isqrt(budget // w)
            m = 0 if budget == scale else -((t_max + centre) // g)
            high = (t_max - centre) // g
        else:
            m, high = 1, 0
        if m > high:
            if not stack:
                break
            level, m, high, budget, centre = stack.pop()
            node, g, w, _ = steps[level]
        if m < high:
            stack.append((level, m + 1, high, budget, centre))
        v[node] = m
        t = g * m + centre
        budget -= w * t * t
        level += 1
    return tuple(sorted(roots))


@record
class Diagonalization:
    """Exact basis change C with C^t Q C = -I and its integer inverse.

    Columns of c are the diagonal basis vectors in the node basis; columns
    of c_inv express each node class in the diagonal basis, and
    coordinates[k] lists node k's nonzero (j, c_inv[j][k]) by increasing
    j.  Neither is a field: construction derives both from c and checks
    the identities; a failure is an internal invariant violation.
    """

    form: UnimodularForm
    c: IntMatrix

    def __post_init__(self):
        n, q, c = self.form.n, self.form.q, self.c
        if len(c) != n or any(len(row) != n for row in c):
            raise InternalInvariantError(f"C must be {n} x {n}")
        # Past this check |det Q| = 1, so no row of Q is zero.
        if abs(self.form.elimination.determinant) != 1:
            raise InternalInvariantError("C^t Q C != -I")
        gram, rows = {}, []   # Q + X^t X, and the rows of -Q C
        for k, q_row in enumerate(q):
            acc = map(mul, repeat(-q_row[k]), c[k])
            for i in compress(range(n), q_row):
                x = gram[k, i] = q_row[i]
                if i != k:
                    acc = (map(sub, acc, c[i]) if x == 1 else
                           map(add, acc, map(mul, repeat(-x), c[i])))
            rows.append(tuple(acc))             # node k's coordinates
        coordinates = tuple(tuple((j, r[j]) for j in compress(range(n), r))
                            for r in rows)
        sharing = [[] for _ in range(n)]       # the nodes with a nonzero e_j
        for k, coords in enumerate(coordinates):
            for j, x in coords:
                sharing[j].append((k, x))
        for nodes in sharing:
            for k, x in nodes:
                for l, y in nodes:
                    gram[k, l] = gram.get((k, l), 0) + x * y
        if any(gram.values()):
            raise InternalInvariantError("C^t Q C != -I")
        object.__setattr__(self, "c_inv", transpose(rows))
        object.__setattr__(self, "coordinates", coordinates)

    @property
    def found(self) -> bool:
        return True


@record
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


def diagonalize(form: UnimodularForm) -> Diagonalization | DiagonalizationFailure:
    """Donaldson-style diagonalization, or a root-count certificate.

    Requires a negative definite unimodular form.  Success needs one
    square -1 vector per +- pair in every coordinate direction, i.e. n
    pairs; enumerate_roots gives the pair members with positive leading
    entry, in lexicographic order, as the columns of C, which makes the
    output canonical.
    """
    if abs(form.elimination.determinant) != 1:
        raise ValueError("form must have determinant +-1")
    # Square -1 vectors of a negative definite form from different +-
    # pairs are orthogonal (|v^t Q w| < 1), so C^t Q C = -I.
    reps = enumerate_roots(form)
    if len(reps) != form.n:
        return DiagonalizationFailure(form, len(reps))
    return Diagonalization(form, transpose(reps))
