"""Reference lattice kernels, kept as test oracles.

These are the dense versions of the lattice stage: the Bareiss
determinant, the dense congruence signature with its two zero-pivot
repairs, leading pivots (the leading-minor definiteness test), the
leaf-pivoting tree signature, an O(n^3) ``Fraction`` LDL^t of -Q in node
order, a root enumeration whose centre terms are ``Fraction`` sums over
every later coordinate, and a ``diagonalize`` that checks pairwise
orthogonality of the roots (with the bilinear form ``evaluate``) and
inverts C by Gauss-Jordan (``matrices.inverse_unimodular``).  The
package reads signature, definiteness, determinant and the search
factor off one sparse elimination (``matrices.eliminate``), runs an
integer-scaled search and takes C^-1 = -C^t Q; the tests in
``test_lattice_kernels.py`` check that both paths agree exactly.
"""

import math
from fractions import Fraction
from typing import List, Tuple

from brieskorn.lattice import (Diagonalization, DiagonalizationFailure,
                               UnimodularForm)
from brieskorn.matrices import inverse_unimodular
from brieskorn.plumbing import PlumbingGraph, intersection_matrix


def det(m) -> int:
    """Exact determinant of an integer matrix (Bareiss fraction-free)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def symmetric_signature(m) -> Tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Congruence diagonalization over Q with the two standard zero-pivot
    repairs (diagonal swap, then row+column merge), so indefinite and
    degenerate inputs are handled.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                # a[k][k] = a[off][off] = 0, a[k][off] != 0: merging the two
                # rows/columns puts 2*a[k][off] on the diagonal.
                for j in range(n):
                    a[k][j] += a[off][j]
                for i in range(n):
                    a[i][k] += a[i][off]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        # Schur-complement update of the trailing block; for symmetric a it
        # coincides with the paired row+column congruence operation.
        rowk = a[k][:]
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * rowk[j]
            a[i][k] = Fraction(0)
            a[k][i] = Fraction(0)
    return pos, neg, zero


def leading_pivots(m) -> List[Fraction]:
    """LDL^t pivots of a symmetric matrix, stopping at a zero pivot.

    For a definite matrix this returns all n pivots (ratios of leading
    principal minors); a zero pivot means the matrix is not definite and
    the list returned is short.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    pivots: List[Fraction] = []
    for k in range(n):
        d = a[k][k]
        if d == 0:
            return pivots
        pivots.append(d)
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / d
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return pivots


def is_negative_definite(m) -> bool:
    """Exact test via the signs of the leading principal minors."""
    pivots = leading_pivots(m)
    return len(pivots) == len(m) and all(p < 0 for p in pivots)


def graph_signature(g: PlumbingGraph) -> Tuple[int, str]:
    """(signature, definiteness) by exact rational elimination on the tree.

    Leaves are pivoted out first; on a definite tree no zero pivot ever
    appears.  A zero pivot (possible on indefinite trees) falls back to
    generic symmetric congruence elimination of the full matrix.
    Definiteness is one of "negative-definite", "indefinite", "other".
    """
    n = g.node_count
    weight = {i: Fraction(w) for i, w in enumerate(g.weights)}
    adj = {i: set(nbrs) for i, nbrs in g.adjacency().items()}
    pivots: List[Fraction] = []
    remaining = set(range(n))
    while len(remaining) > 1:
        leaf = min(i for i in remaining if len(adj[i]) == 1)
        d = weight[leaf]
        if d == 0:
            pos, neg, zero = symmetric_signature(intersection_matrix(g))
            break
        parent = next(iter(adj[leaf]))
        weight[parent] -= 1 / d
        pivots.append(d)
        adj[parent].discard(leaf)
        remaining.discard(leaf)
    else:
        pivots.append(weight[remaining.pop()])
        pos = sum(1 for p in pivots if p > 0)
        neg = sum(1 for p in pivots if p < 0)
        zero = sum(1 for p in pivots if p == 0)
    if zero:
        kind = "other"
    elif neg == n:
        kind = "negative-definite"
    elif pos and neg:
        kind = "indefinite"
    else:
        kind = "other"
    return pos - neg, kind


def ldl(a: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[Fraction]]:
    """A = L D L^t for positive definite A; L unit lower triangular."""
    n = len(a)
    L = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        d[j] = a[j][j] - sum(L[j][k] * L[j][k] * d[k] for k in range(j))
        if d[j] <= 0:
            raise ValueError("matrix is not positive definite")
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            L[i][j] = (a[i][j] - sum(L[i][k] * L[j][k] * d[k] for k in range(j))) / d[j]
    return L, d


def enumerate_roots(form: UnimodularForm) -> Tuple[Tuple[int, ...], ...]:
    """All v with v^t Q v = -1, coordinates chosen from the last node down
    with Fraction centres c_j = sum_{i > j} L[i][j] v_i."""
    if not is_negative_definite(form.q):
        raise ValueError("root enumeration requires a negative definite form")
    n = form.n
    L, d = ldl([[Fraction(-x) for x in row] for row in form.q])
    roots: List[Tuple[int, ...]] = []
    v = [0] * n

    def descend(j: int, budget: Fraction):
        if j < 0:
            if budget == 0 and any(v):
                roots.append(tuple(v))
            return
        c = sum(L[i][j] * v[i] for i in range(j + 1, n))

        def fits(m: int) -> bool:
            return d[j] * (m + c) * (m + c) <= budget

        base = math.floor(-c)
        m = base
        while fits(m):
            v[j] = m
            descend(j - 1, budget - d[j] * (m + c) * (m + c))
            m -= 1
        m = base + 1
        while fits(m):
            v[j] = m
            descend(j - 1, budget - d[j] * (m + c) * (m + c))
            m += 1
        v[j] = 0

    descend(n - 1, Fraction(1))
    return tuple(sorted(roots))


def evaluate(form: UnimodularForm, v, w=None) -> int:
    """v^t Q w (defaults to the square v^t Q v)."""
    if w is None:
        w = v
    return sum(v[i] * form.q[i][j] * w[j]
               for i in range(form.n) for j in range(form.n))


def diagonalize(form: UnimodularForm):
    """Canonical C from the lexicographic root representatives, with the
    pairwise orthogonality loop and the Gauss-Jordan inverse."""
    if abs(det(form.q)) != 1:
        raise ValueError("form must have determinant +-1")
    roots = enumerate_roots(form)
    reps = [v for v in roots if next(x for x in v if x) > 0]
    if len(reps) != form.n:
        return DiagonalizationFailure(form, len(reps))
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if evaluate(form, reps[i], reps[j]) != 0:
                raise ArithmeticError("root pairs are not pairwise orthogonal")
    c = tuple(tuple(reps[j][i] for j in range(form.n)) for i in range(form.n))
    return Diagonalization(form, c, inverse_unimodular(c))
