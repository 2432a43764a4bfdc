"""Exact linear algebra over Z and Q for small symmetric matrices.

Everything works on plain nested sequences; no floating point anywhere.
``eliminate`` is the one symmetric elimination: signature, definiteness,
determinant and the root-search factor of ``lattice`` are all read off it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(map(int, row)) for row in rows)


def transpose(m) -> IntMatrix:
    return tuple(zip(*m))


def is_symmetric(m: IntMatrix) -> bool:
    """Whether m, a tuple of int tuples as ``freeze`` returns, is square
    and equal to its transpose."""
    n = len(m)
    return all(len(row) == n for row in m) and transpose(m) == m


def inverse_unimodular(m) -> IntMatrix:
    """Inverse of an integer matrix with det +-1, returned over Z.

    Gauss-Jordan over Fraction, then an integrality check; raises if the
    input is not invertible over the integers.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inv = [row[n:] for row in a]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular: inverse is not integral")
    return freeze(inv)


@dataclass(frozen=True)
class Elimination:
    """A symmetric matrix brought to diagonal form by congruence.

    order[j] is the j-th eliminated node, pivots[j] its pivot d_j and
    columns[j] lists (i, L[i][order[j]]) for the nodes i eliminated later
    that are coupled to order[j].  determinant is prod d_j: every step is
    a congruence by a matrix of determinant +-1, so it is the determinant
    of the input.
    """

    order: Tuple[int, ...]
    pivots: Tuple[Fraction, ...]
    columns: Tuple[Tuple[Tuple[int, Fraction], ...], ...]
    determinant: int

    @property
    def signature(self) -> int:
        return sum(d > 0 for d in self.pivots) - sum(d < 0 for d in self.pivots)

    @property
    def definiteness(self) -> str:
        """One of "negative-definite", "indefinite" and "other" (positive
        definite, or degenerate)."""
        signs = {(d > 0) - (d < 0) for d in self.pivots}
        if signs <= {-1}:
            return "negative-definite"
        return "indefinite" if signs == {-1, 1} else "other"


def eliminate(m) -> Elimination:
    """Diagonalize the symmetric matrix m by exact sparse congruence.

    Nodes are eliminated in minimum-degree order: fewest remaining
    couplings, ties broken by index.  On a tree that is always a leaf, so
    there is no fill-in; other matrices get some.  A chosen node with a
    zero diagonal but couplings left is passed over for the next node in
    that order whose diagonal is nonzero.  When every remaining diagonal
    is zero, row and column j (the least node coupled to k) are added to
    row and column k, which puts 2 m_kj on k's diagonal.  A node with a
    zero diagonal and no coupling is a zero pivot.  Neither repair fires
    on a definite matrix, so there m = L D L^t exactly, with L read from
    the columns.
    """
    n = len(m)
    diag = [Fraction(m[i][i]) for i in range(n)]
    off = [{j: x for j, x in enumerate(row) if x and j != i}
           for i, row in enumerate(m)]
    remaining = set(range(n))
    # (degree, node) entries; a popped entry whose degree is stale is skipped.
    queue = [(len(row), i) for i, row in enumerate(off)]
    heapq.heapify(queue)
    order, pivots, columns = [], [], []

    while remaining:
        degree, k = heapq.heappop(queue)
        if k not in remaining or degree != len(off[k]):
            continue
        if not diag[k] and off[k]:
            nonzero = [i for i in remaining if diag[i]]
            if nonzero:
                heapq.heappush(queue, (degree, k))
                k = min(nonzero, key=lambda i: (len(off[i]), i))
            else:
                j = min(off[k])
                diag[k] = Fraction(2 * off[k][j])
                for i, a_ij in off[j].items():
                    if i != k:
                        _set(off, k, i, off[k].get(i, 0) + a_ij)
                        heapq.heappush(queue, (len(off[i]), i))
        d = diag[k]
        remaining.discard(k)
        col = sorted(off[k].items())
        column = tuple((i, a / d) for i, a in col)
        for (i, a_ik), (_, l_ik) in zip(col, column):
            del off[i][k]
            diag[i] -= a_ik * l_ik
            for j, a_jk in col:
                if j > i:
                    _set(off, i, j, off[i].get(j, 0) - l_ik * a_jk)
        for i, _ in col:
            heapq.heappush(queue, (len(off[i]), i))
        order.append(k)
        pivots.append(d)
        columns.append(column)
    return Elimination(tuple(order), tuple(pivots), tuple(columns),
                       int(math.prod(pivots)))


def _set(off, i, j, x) -> None:
    """Set the symmetric entry (i, j) of the sparse rows to x."""
    if x:
        off[i][j] = off[j][i] = x
    else:
        off[i].pop(j, None)
        off[j].pop(i, None)


def is_negative_definite(m) -> bool:
    return eliminate(m).definiteness == "negative-definite"


def parse_matrix_text(text: str) -> IntMatrix:
    """Whitespace-separated integer rows, one row per line."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(tuple(int(tok) for tok in line.split()))
    if not rows:
        raise ValueError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix rows")
    return tuple(rows)


def render_matrix_text(m) -> str:
    width = max((len(str(x)) for row in m for x in row), default=1)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in m)
