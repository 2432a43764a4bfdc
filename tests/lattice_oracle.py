"""Reference lattice kernels, kept as test oracles.

These are the dense versions of the diagonalization stage: an O(n^3)
``Fraction`` LDL^t of -Q in node order, a root enumeration whose centre
terms are ``Fraction`` sums over every later coordinate, and a
``diagonalize`` that checks pairwise orthogonality of the roots and
inverts C by Gauss-Jordan (``matrices.inverse_unimodular``).  The package
now uses one sparse leaf-first elimination, an integer-scaled search and
C^-1 = -C^t Q; the tests in ``test_lattice_kernels.py`` check that both
paths agree exactly.
"""

import math
from fractions import Fraction
from typing import List, Tuple

from brieskorn.lattice import (Diagonalization, DiagonalizationFailure,
                               UnimodularForm)
from brieskorn.matrices import det, inverse_unimodular, is_negative_definite


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
            if form.evaluate(reps[i], reps[j]) != 0:
                raise ArithmeticError("root pairs are not pairwise orthogonal")
    c = tuple(tuple(reps[j][i] for j in range(form.n)) for i in range(form.n))
    return Diagonalization(form, c, inverse_unimodular(c))
