"""Exact linear algebra over Z and Q for small dense symmetric matrices.

Everything works on plain nested sequences; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m) -> IntMatrix:
    return tuple(zip(*m))


def mat_mul(a, b):
    """Exact product A B, row by row; zero entries of either factor are
    skipped, so sparse factors (tree forms, basis changes) are cheap."""
    width = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        if len(row) != len(b):
            raise ValueError(f"cannot multiply: row of length {len(row)} "
                             f"by a matrix with {len(b)} rows")
        acc = [0] * width
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i))


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
