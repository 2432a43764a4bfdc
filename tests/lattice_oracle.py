"""Reference lattice kernels, kept as test oracles.

These are the dense versions of the lattice stage: the exact product
``mat_mul`` and ``identity``, the Bareiss determinant, the dense
congruence signature with its two zero-pivot repairs, leading pivots
(the leading-minor definiteness test), the leaf-pivoting tree
signature, an O(n^3) ``Fraction`` LDL^t of -Q in node order, a root
enumeration whose centre terms are ``Fraction`` sums over every later
coordinate and which walks both signs of every coordinate, a
``diagonalize`` that checks pairwise orthogonality of the roots (with
the bilinear form ``evaluate``) and checks the derived C^-1 against
Gauss-Jordan (``matrices.inverse_unimodular``), and the dense
three-product check C^t Q C = -I (``check_identities``).  The package
reads signature, definiteness, determinant and the search factor off one
sparse elimination in integers (``matrices.eliminate``), which takes
definite forms and refuses a zero pivot, walks an integer-scaled search
that finds each +- pair once in one flat loop, forms C^-1 = -C^t Q once
and checks both identities by the Gram identity X^t X = -Q with
|det Q| = 1.  That elimination is also kept here as it was over Fraction,
with both zero-pivot repairs or, on request, none
(``fraction_eliminate``), with ``fraction_view`` to read the integer one
the same way, and that walk in its earlier recursive form with a
separate forced tail (``forced_tail_roots``).  The tests in
``test_lattice_kernels.py`` check that all paths agree exactly.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from brieskorn.lattice import (Diagonalization, DiagonalizationFailure,
                               UnimodularForm)
from brieskorn.matrices import Elimination, inverse_unimodular, transpose
from brieskorn.plumbing import (InternalInvariantError, PlumbingGraph,
                                intersection_matrix)


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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
    """(signature, definiteness) by exact rational elimination on the tree
    of g.weights and g.edges, a star or (``plumbing_oracle``) any tree.

    Leaves are pivoted out first; on a definite tree no zero pivot ever
    appears.  A zero pivot (possible on indefinite trees) falls back to
    generic symmetric congruence elimination of the full matrix.
    Definiteness is one of "negative-definite", "indefinite", "other".
    """
    n = len(g.weights)
    weight = {i: Fraction(w) for i, w in enumerate(g.weights)}
    adj = {i: set() for i in range(n)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
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


@dataclass(frozen=True)
class FractionElimination:
    """An elimination held in Fractions: order[j] is the j-th eliminated
    node, pivots[j] its pivot d_j, columns[j] lists (i, L[i][order[j]])
    for the nodes i eliminated later that are coupled to order[j], and
    determinant is prod d_j."""

    order: Tuple[int, ...]
    pivots: Tuple[Fraction, ...]
    columns: Tuple[Tuple[Tuple[int, Fraction], ...], ...]
    determinant: int

    @property
    def signature(self) -> int:
        return sum(d > 0 for d in self.pivots) - sum(d < 0 for d in self.pivots)

    @property
    def definiteness(self) -> str:
        signs = {(d > 0) - (d < 0) for d in self.pivots}
        if signs <= {-1}:
            return "negative-definite"
        return "indefinite" if signs == {-1, 1} else "other"


def fraction_view(e: Elimination) -> FractionElimination:
    """The integer elimination of matrices.eliminate read as Fractions:
    d_j = pivots[j] / scales[j] and L[i][order[j]] = a / pivots[j]."""
    return FractionElimination(
        e.order,
        tuple(Fraction(d, s) for d, s in zip(e.pivots, e.scales)),
        tuple(tuple((i, Fraction(a, d)) for i, a in col)
              for d, col in zip(e.pivots, e.columns)),
        e.determinant)


def fraction_eliminate(m, repair: bool = True) -> FractionElimination:
    """matrices.eliminate as it was over Fraction: the same minimum-degree
    order, with every remaining entry a Fraction, and the two zero-pivot
    repairs it dropped.  A chosen node with a zero diagonal but couplings
    left is passed over for the next node in that order whose diagonal is
    nonzero; when every remaining diagonal is zero, row and column j (the
    least node coupled to k) are added to row and column k, which puts
    2 m_kj on k's diagonal.  A node with a zero diagonal and no coupling
    is a zero pivot.  With repair=False it is the plain L D L^t of
    matrices.eliminate: it stops at the first zero pivot, which it records
    as its last pivot, with an empty column."""
    n = len(m)
    diag = [Fraction(m[i][i]) for i in range(n)]
    off = [{j: x for j, x in enumerate(row) if x and j != i}
           for i, row in enumerate(m)]
    remaining = set(range(n))
    queue = [(len(row), i) for i, row in enumerate(off)]
    heapq.heapify(queue)
    order, pivots, columns = [], [], []

    def put(i, j, x):
        if x:
            off[i][j] = off[j][i] = x
        else:
            off[i].pop(j, None)
            off[j].pop(i, None)

    while remaining:
        degree, k = heapq.heappop(queue)
        if k not in remaining or degree != len(off[k]):
            continue
        if not (diag[k] or repair):
            order.append(k)
            pivots.append(diag[k])
            columns.append(())
            break
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
                        put(k, i, off[k].get(i, 0) + a_ij)
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
                    put(i, j, off[i].get(j, 0) - l_ik * a_jk)
        for i, _ in col:
            heapq.heappush(queue, (len(off[i]), i))
        order.append(k)
        pivots.append(d)
        columns.append(column)
    return FractionElimination(tuple(order), tuple(pivots), tuple(columns),
                               int(math.prod(pivots)))


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


def forced_tail_roots(form: UnimodularForm) -> Tuple[Tuple[int, ...], ...]:
    """The package's integer walk as it was before it became one loop:
    one recursive call per level on the same integer-scaled factor, and,
    once a path has spent its budget, a separate loop over the forced tail
    v_j = -c_j that dies at the first coordinate that is not an integer
    and clears the coordinates it wrote.  Each +- pair is found once and
    recorded with both signs, so the package's one root per pair is the
    upper half of this sorted output."""
    if form.elimination.definiteness != "negative-definite":
        raise ValueError("root enumeration requires a negative definite form")
    e = fraction_view(form.elimination)
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
    v = [0] * n          # 0 at every level not yet placed on this path

    def descend(level: int, budget: int):
        if not budget:
            tail = []        # nonzero forced coordinates, cleared after
            for node, g, _, coupling in steps[level:]:
                centre = sum(l * v[i] for i, l in coupling)
                if centre:
                    m, r = divmod(-centre, g)
                    if r:
                        break
                    v[node] = m
                    tail.append(node)
            else:            # then v^t Q v = -1, so v != 0
                roots.extend((tuple(v), tuple(-x for x in v)))
            for node in tail:
                v[node] = 0
            return
        if level == n:
            return
        node, g, w, coupling = steps[level]
        centre = sum(l * v[i] for i, l in coupling)       # g_j c_j
        t_max = math.isqrt(budget // w)
        low = 0 if budget == scale else -((t_max + centre) // g)
        for m in range(low, (t_max - centre) // g + 1):
            t = g * m + centre
            v[node] = m
            descend(level + 1, budget - w * t * t)
        v[node] = 0

    descend(0, scale)
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
    d = Diagonalization(form, c)
    if d.c_inv != inverse_unimodular(c):
        raise ArithmeticError("C_inv is not the Gauss-Jordan inverse of C")
    return d


def check_identities(form: UnimodularForm, c) -> None:
    """Diagonalization's identity check as a dense product: the shape of
    C, then C^t Q C = -I, each failure raising InternalInvariantError
    with the message the package uses."""
    n = form.n
    if len(c) != n or any(len(row) != n for row in c):
        raise InternalInvariantError(f"C must be {n} x {n}")
    minus_i = tuple(tuple(-x for x in row) for row in identity(n))
    if mat_mul(mat_mul(transpose(c), form.q), c) != minus_i:
        raise InternalInvariantError("C^t Q C != -I")
