"""Exact integer linear algebra for small symmetric matrices.

Everything works on plain nested sequences; no floating point anywhere.
``eliminate`` is the one symmetric elimination: signature, definiteness,
determinant and the root-search factor of ``lattice`` are all read off it.
It is a plain L D L^t with no pivot repair, so it takes every definite
form and refuses a form on which it meets a zero pivot; every resolution
the pipeline builds is negative definite.  It forms no ``Fraction``:
each row still to be eliminated is a set of integer numerators over one
positive scale, reduced by its content after every step, and each pivot
and column of L is kept as integers over a shared denominator.  Only
``inverse_unimodular``, which the pipeline does not call, works over
``Fraction``.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import cached_property
from itertools import compress

from .records import InputError, record

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(map(int, row)) for row in rows)


def transpose(m) -> IntMatrix:
    return tuple(zip(*m))


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


@record
class Elimination:
    """A symmetric matrix brought to diagonal form by congruence, in
    integers.

    order[j] is the j-th eliminated node k; its pivot is d_j = pivots[j] /
    scales[j] != 0 with scales[j] > 0, and columns[j] lists (i, a) for the
    nodes i eliminated later that are coupled to k, with L[i][k] =
    a / pivots[j].  determinant is prod d_j: every step is a congruence
    by a matrix of determinant +-1, so it is the determinant of the input.
    """

    order: tuple[int, ...]
    pivots: tuple[int, ...]
    scales: tuple[int, ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]
    determinant: int

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """The sign of each pivot d_j."""
        return tuple((d > 0) - (d < 0) for d in self.pivots)

    @cached_property
    def signature(self) -> int:
        return sum(self.signs)

    @cached_property
    def definiteness(self) -> str:
        """One of "negative-definite", "indefinite" and "other" (positive
        definite: no pivot is zero)."""
        signs = set(self.signs)
        if signs <= {-1}:
            return "negative-definite"
        return "indefinite" if signs == {-1, 1} else "other"


def eliminate(m) -> Elimination:
    """Diagonalize the symmetric matrix m by exact sparse congruence.

    Nodes are eliminated in minimum-degree order: fewest remaining
    couplings, ties broken by index.  On a tree that is always a leaf, so
    there is no fill-in; other matrices get some.  Each pivot is a ratio
    of principal minors, none of which is zero on a definite matrix, so
    there m = L D L^t exactly, with L read from the columns.  A chosen
    node whose diagonal is zero raises ValueError("zero pivot: the form
    is not definite"); an indefinite matrix that meets no zero pivot in
    this order is eliminated all the same.

    No Fraction is formed: each remaining row i is held as integers over
    one positive scale s_i.  Eliminating k, with pivot numerator D_k,
    turns row i into (row i) D_k - O_ik (row k) over s_i D_k, where O_ik
    is row i's numerator at k (signs flipped when D_k < 0), and then
    divides the row and its scale by their content.
    """
    n = len(m)
    diag = [m[i][i] for i in range(n)]
    scale = [1] * n
    off = []
    for i, row in enumerate(m):
        off.append({j: row[j] for j in compress(range(n), row) if j != i})
    remaining = set(range(n))
    # (degree, node) entries; a popped entry whose degree is stale is skipped.
    queue = [(len(row), i) for i, row in enumerate(off)]
    heapq.heapify(queue)
    order, pivots, scales, columns = [], [], [], []

    while remaining:
        degree, k = heapq.heappop(queue)
        if k not in remaining or degree != len(off[k]):
            continue
        d = diag[k]
        if not d:
            raise ValueError("zero pivot: the form is not definite")
        remaining.discard(k)
        col = tuple(sorted(off[k].items()))
        e = abs(d)
        for i, a_ki in col:
            row = off[i]
            f = row.pop(k) if d > 0 else -row.pop(k)
            x = diag[i] * e - f * a_ki
            for j in row:
                row[j] *= e
            for j, a_kj in col:
                if j != i:
                    y = row.get(j, 0) - f * a_kj
                    if y:
                        row[j] = y
                    else:
                        del row[j]
            diag[i], scale[i] = x, scale[i] * e
            _divide_content(diag, scale, off, i)
        for i, _ in col:
            heapq.heappush(queue, (len(off[i]), i))
        order.append(k)
        pivots.append(d)
        scales.append(scale[k])
        columns.append(col)
    return Elimination(tuple(order), tuple(pivots), tuple(scales),
                       tuple(columns), math.prod(pivots) // math.prod(scales))


def _divide_content(diag, scale, off, i) -> None:
    """Divide row i, its diagonal and its scale by their gcd."""
    row = off[i]
    g = math.gcd(scale[i], diag[i], *row.values())
    if g != 1:
        scale[i] //= g
        diag[i] //= g
        for j in row:
            row[j] //= g


def is_negative_definite(m) -> bool:
    return eliminate(m).definiteness == "negative-definite"


def parse_matrix_text(text: str) -> IntMatrix:
    """Whitespace-separated integer rows, one row per line; blank lines
    and lines starting with # are skipped.  A bad token or a row of
    another width than the first is refused with its 1-based line.  Lines
    end at "\n" only (str.splitlines also breaks at a form feed), so the
    number is the file's."""
    rows = []
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(tuple(map(int, line.split())))
        except ValueError as exc:
            raise InputError(f"line {number}: {exc}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise InputError(f"line {number}: ragged matrix rows")
    if not rows:
        raise InputError("no matrix rows found")
    return tuple(rows)


def render_matrix_text(m) -> str:
    width = max((len(str(x)) for row in m for x in row), default=1)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in m)
