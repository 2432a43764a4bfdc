"""The leaf-first, integer-scaled lattice kernel against the dense
oracles in lattice_oracle.py, on random forms: resolution trees, non-tree
forms -U^t U, definite forms that are not unimodular, arbitrary symmetric
matrices, and E8 (also plus -I_k in a basis with fill-in, through the
CLI), and against the earlier recursive integer walk with its separate
forced tail.  A budget-0 path is checked where it dies, and the Gram
check of Diagonalization (one -QC product, X^t X = -Q and |det Q| = 1)
against the three-product oracle on tampered diagonalizations.  The one
congruence elimination (matrices.eliminate) is checked against the Bareiss
determinant, the dense congruence signature, the leading-minor
definiteness test and the leaf-pivoting tree signature, on symmetric
matrices (about half of them definite forms -A^t A, the others with
zero diagonals, singular or indefinite), random plumbing trees and the
indefinite bounding graphs.  It refuses exactly the matrices on which
the plain L D L^t in its order meets a zero pivot, and each refusal is
certified by a zero principal minor.  Its order,
pivots, columns and determinant are checked exactly against the Fraction
elimination it replaced, on resolution trees and on every matrix it does
not refuse; where it refuses, that elimination's two zero-pivot repairs
are checked against the Bareiss determinant and the dense signature.  At
n = 406 the root search is checked against the recursive walk."""

import contextlib
import hashlib
import io
import math
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import lattice_oracle as oracle
from brieskorn.cli import main
from brieskorn.lattice import (Diagonalization, UnimodularForm, diagonalize,
                               enumerate_roots)
from brieskorn.matrices import (eliminate, freeze, is_negative_definite,
                                render_matrix_text, transpose)
from brieskorn.plumbing import (canonical_resolution, graph_signature,
                                intersection_matrix)
from brieskorn.records import InternalInvariantError
from brieskorn.seifert import BrieskornTriple, seifert_invariants
from conftest import fickle_graph, permute_symmetric
from lattice_oracle import mat_mul
from plumbing_oracle import PlumbingGraph

ZERO_PIVOT = r"^zero pivot: the form is not definite$"

# A hyperbolic pair (nodes 0, 1) beside a path with nonzero diagonal.
PASSED_OVER = ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 2, 1, 0, 0),
               (0, 0, 1, 2, 1, 0), (0, 0, 0, 1, 2, 1), (0, 0, 0, 0, 1, 2))

TRIPLES = [(a, b, c) for a in range(2, 8) for b in range(a + 1, 31)
           for c in range(b + 1, 71)
           if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1]


def meets_zero_pivot(q) -> bool:
    """Whether the plain L D L^t of q in minimum-degree order meets a zero
    pivot."""
    return 0 in oracle.fraction_eliminate(q, repair=False).pivots


def tree_form(triple):
    graph = canonical_resolution(seifert_invariants(BrieskornTriple.of(*triple)))
    return UnimodularForm.from_matrix(intersection_matrix(graph))


def negated_gram(a):
    """-A^t A."""
    return tuple(tuple(-x for x in row) for row in mat_mul(transpose(a), a))


def assert_matches_oracle(form):
    e = form.elimination
    assert e.determinant == oracle.det(form.q)
    assert ((e.definiteness == "negative-definite")
            == oracle.is_negative_definite(form.q))
    roots = enumerate_roots(form)
    assert roots == oracle.enumerate_roots(form)
    assert roots == oracle.forced_tail_roots(form)
    if abs(e.determinant) == 1:
        assert diagonalize(form) == oracle.diagonalize(form)
    else:
        with pytest.raises(ValueError):
            diagonalize(form)


def triangular(draw, n, unit):
    """A random n x n integer upper triangular matrix, columns shuffled;
    diagonal entries +-1 when unit, else 1..3 in absolute value."""
    diag = st.sampled_from([-1, 1] if unit else [-3, -2, -1, 1, 2, 3])
    rows = [[draw(diag) if i == j else
             draw(st.integers(min_value=-2, max_value=2)) if j > i else 0
             for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return tuple(tuple(row[k] for k in perm) for row in rows)


sizes = st.integers(min_value=1, max_value=5)


@st.composite
def unimodular(draw):
    """A random unimodular matrix: a product of two shuffled triangular
    matrices with unit diagonals."""
    n = draw(sizes)
    return mat_mul(triangular(draw, n, True),
                   transpose(triangular(draw, n, True)))


@st.composite
def nonsingular(draw):
    n = draw(sizes)
    return triangular(draw, n, False)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TRIPLES))
def test_resolution_trees_match_oracle(triple):
    assert_matches_oracle(tree_form(triple))


@settings(max_examples=40, deadline=None)
@given(unimodular())
def test_non_tree_unimodular_forms_match_oracle(u):
    form = UnimodularForm.from_matrix(negated_gram(u))
    result = diagonalize(form)
    assert result.found                      # -U^t U is equivalent to -I
    assert_matches_oracle(form)


@settings(max_examples=40, deadline=None)
@given(nonsingular())
def test_definite_forms_match_oracle(a):
    form = UnimodularForm.from_matrix(negated_gram(a))
    assert is_negative_definite(form.q)
    assert_matches_oracle(form)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.integers(min_value=-3, max_value=3),
                       min_size=n * n, max_size=n * n)))
def test_pivots_agree_with_leading_minors_on_symmetric_matrices(entries):
    n = math.isqrt(len(entries))
    q = tuple(tuple(entries[min(i, j) * n + max(i, j)] for j in range(n))
              for i in range(n))
    form = UnimodularForm.from_matrix(q)
    if meets_zero_pivot(q):
        # Refused, and no leading-minor test finds q definite either.
        with pytest.raises(ValueError, match=ZERO_PIVOT):
            form.elimination
        assert not oracle.is_negative_definite(q)
        return
    definite = form.elimination.definiteness == "negative-definite"
    assert definite == oracle.is_negative_definite(q)
    assert form.elimination.determinant == oracle.det(q)
    if not definite:
        with pytest.raises(ValueError, match="negative definite"):
            enumerate_roots(form)


def assert_elimination_matches_oracles(q) -> bool:
    """Signature, definiteness and determinant of eliminate(q) against the
    dense oracles, and the factor must rebuild q exactly.  A q on which
    the plain L D L^t meets a zero pivot must be refused, and the dense
    oracles must find it singular or indefinite.  Returns whether q was
    refused."""
    n = len(q)
    pos, neg, zero = oracle.symmetric_signature(q)
    if meets_zero_pivot(q):
        with pytest.raises(ValueError, match=ZERO_PIVOT):
            eliminate(q)
        with pytest.raises(ValueError, match=ZERO_PIVOT):
            is_negative_definite(q)
        assert zero or (pos and neg)
        assert not oracle.is_negative_definite(q)
        return True
    e = eliminate(q)
    assert sorted(e.order) == list(range(n))
    assert (e.signature, zero) == (pos - neg, 0)
    assert e.determinant == oracle.det(q)
    kind = ("negative-definite" if neg == n
            else "indefinite" if pos and neg else "other")
    assert e.definiteness == kind
    assert is_negative_definite(q) == oracle.is_negative_definite(q) == (
        kind == "negative-definite")
    # L[order[j]][j] = 1, L[i][j] from columns[j]; q = L D L^t.
    rebuilt = [[0] * n for _ in range(n)]
    f = oracle.fraction_view(e)
    for node, d, col in zip(f.order, f.pivots, f.columns):
        entries = ((node, 1),) + col
        for a, la in entries:
            for b, lb in entries:
                rebuilt[a][b] += la * d * lb
    assert rebuilt == [list(row) for row in q]
    return False


@st.composite
def symmetric_matrices(draw):
    """Random symmetric integer matrices.  About half are -A^t A for a
    nonsingular A = L U (L unit lower triangular, U upper triangular with
    a nonzero diagonal), so negative definite.  The others have random
    entries; on request the diagonal is zero (so eliminate refuses them)
    or the last node repeats node 0 (so the matrix is singular)."""
    n = draw(st.integers(min_value=1, max_value=6))
    entries = draw(st.lists(st.integers(min_value=-3, max_value=3),
                            min_size=n * n, max_size=n * n))
    if draw(st.booleans()):
        diagonal = draw(st.lists(st.sampled_from([-2, -1, 1, 2]),
                                 min_size=n, max_size=n))
        lower = [[entries[i * n + j] if j < i else int(i == j)
                  for j in range(n)] for i in range(n)]
        upper = [[entries[i * n + j] if j > i else diagonal[i] if i == j
                  else 0 for j in range(n)] for i in range(n)]
        return negated_gram(mat_mul(lower, upper))
    zero_diagonal, singular = draw(st.booleans()), draw(st.booleans())
    source = [0 if singular and i == n - 1 else i for i in range(n)]
    return tuple(tuple(
        0 if zero_diagonal and i == j else
        entries[min(source[i], source[j]) * n + max(source[i], source[j])]
        for j in range(n)) for i in range(n))


@st.composite
def plumbing_trees(draw):
    """A random tree on 1..10 nodes (node i > 0 hangs from a lower node)
    with weights in -3..3, in the general-tree layout of the oracle: the
    package's PlumbingGraph is a star, and `diagonalize --matrix` takes
    the form of any tree."""
    n = draw(st.integers(min_value=1, max_value=10))
    weights = draw(st.lists(st.integers(min_value=-3, max_value=3),
                            min_size=n, max_size=n))
    edges = tuple((draw(st.integers(min_value=0, max_value=i - 1)), i)
                  for i in range(1, n))
    return PlumbingGraph(tuple(weights), edges)


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_elimination_matches_oracles_on_symmetric_matrices(q):
    assert_elimination_matches_oracles(q)


@settings(max_examples=200, deadline=None)
@given(plumbing_trees())
def test_elimination_matches_oracles_on_random_trees(g):
    edges = set(g.edges)
    q = tuple(tuple(w if i == j else int((min(i, j), max(i, j)) in edges)
                    for j in range(len(g.weights)))
              for i, w in enumerate(g.weights))
    if assert_elimination_matches_oracles(q):
        with pytest.raises(ValueError, match=ZERO_PIVOT):
            eliminate(q)
        assert oracle.graph_signature(g)[1] != "negative-definite"
    else:
        e = eliminate(q)
        assert (e.signature, e.definiteness) == oracle.graph_signature(g)


def assert_elimination_matches_fraction_oracle(q):
    """eliminate(q), read as Fractions, equals the Fraction elimination it
    replaced: the same order, pivots, columns of L and determinant, and so
    the same signature and definiteness; every row scale is positive.
    Where eliminate refuses q, that elimination repairs the zero pivot,
    and its determinant and signature must be the dense oracles'."""
    f = oracle.fraction_eliminate(q)
    try:
        e = eliminate(q)
    except ValueError as exc:
        assert str(exc) == "zero pivot: the form is not definite"
        pos, neg, zero = oracle.symmetric_signature(q)
        zeros = sum(d == 0 for d in f.pivots)
        assert (f.signature, zeros) == (pos - neg, zero)
        assert f.determinant == oracle.det(q)
        return
    assert oracle.fraction_view(e) == f
    assert (e.signature, e.definiteness) == (f.signature, f.definiteness)
    assert all(s > 0 for s in e.scales)


@st.composite
def repair_matrices(draw):
    """Random symmetric integer matrices whose diagonal entries are each
    zero on request, so that eliminate refuses many of them and the
    Fraction oracle passes a zero-diagonal node over or, once every
    remaining diagonal is zero, merges it; the last node repeats node 0 on
    request (a singular matrix).  Most are indefinite."""
    n = draw(st.integers(min_value=1, max_value=7))
    entries = draw(st.lists(st.integers(min_value=-4, max_value=4),
                            min_size=n * n, max_size=n * n))
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    source = [0 if draw(st.booleans()) and i == n - 1 else i
              for i in range(n)]
    return tuple(tuple(
        0 if i == j and zero[i] else
        entries[min(source[i], source[j]) * n + max(source[i], source[j])]
        for j in range(n)) for i in range(n))


# Every diagonal is zero, so eliminate refuses it and the oracle's merge
# fires on nodes 3 and 0; once nodes 3 and 0 are gone it fires again on
# nodes 1 and 2.
@example(((0, -3, -1, 3, 0), (-3, 0, 3, 0, -2), (-1, 3, 0, 0, 2),
          (3, 0, 0, 0, -2), (0, -2, 2, -2, 0)))
@example(((0, 1), (1, 0)))
@settings(max_examples=300, deadline=None)
@given(repair_matrices())
def test_integer_elimination_matches_fraction_oracle(q):
    assert_elimination_matches_fraction_oracle(q)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TRIPLES))
def test_integer_elimination_matches_fraction_oracle_on_trees(triple):
    assert_elimination_matches_fraction_oracle(tree_form(triple).q)


def test_elimination_returns_to_passed_over_nodes():
    # Both zero-diagonal nodes of PASSED_OVER come first in minimum-degree
    # order.  eliminate refuses the form at node 0.  The Fraction oracle
    # passes both over, and must still eliminate them (by the row+column
    # merge) once the path is gone.
    assert assert_elimination_matches_oracles(PASSED_OVER)
    assert oracle.fraction_eliminate(PASSED_OVER, repair=False).order == (0,)
    f = oracle.fraction_eliminate(PASSED_OVER)
    assert f.order == (2, 3, 4, 5, 0, 1)
    assert f.pivots[4:] == (2, Fraction(-1, 2))
    assert_elimination_matches_fraction_oracle(PASSED_OVER)


@example(((0,),))
@example(((0, 1), (1, 0)))
@example(PASSED_OVER)
@settings(max_examples=300, deadline=None)
@given(repair_matrices())
def test_eliminate_refuses_exactly_at_an_unrepaired_zero_pivot(q):
    # eliminate refuses q exactly when the plain L D L^t in minimum-degree
    # order meets a zero pivot, and otherwise is that L D L^t.  A refusal
    # is certified: the principal minor on the nodes eliminated up to the
    # zero pivot is 0, so neither q nor -q is negative definite.
    plain = oracle.fraction_eliminate(q, repair=False)
    if 0 in plain.pivots:
        with pytest.raises(ValueError, match=ZERO_PIVOT):
            eliminate(q)
        nodes = plain.order
        assert oracle.det([[q[i][j] for j in nodes] for i in nodes]) == 0
        assert not oracle.is_negative_definite(q)
        assert not oracle.is_negative_definite([[-x for x in r] for r in q])
    else:
        assert oracle.fraction_view(eliminate(q)) == plain


@pytest.mark.parametrize("sign", ["+", "-"])
def test_elimination_matches_oracles_on_fickle_graphs(sign):
    for r in (3, 5, 7, 9):
        for s in range(1, 12):
            g = fickle_graph(r, s, sign)
            q = intersection_matrix(g)
            assert not assert_elimination_matches_oracles(q)
            assert graph_signature(g) == oracle.graph_signature(g) == (
                -2, "indefinite")


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(8)), st.integers(min_value=0, max_value=2))
def test_e8_relabelled_and_extended_matches_oracle(perm, k):
    e8 = permute_symmetric(tree_form((2, 3, 5)).q, perm)
    n = 8 + k
    q = tuple(tuple(e8[i][j] if i < 8 and j < 8 else -(i == j)
                    for j in range(n)) for i in range(n))
    form = UnimodularForm.from_matrix(q)
    assert_matches_oracle(form)
    result = diagonalize(form)
    assert not result.found and result.root_pairs == k


def test_stern_member_matches_oracle():
    # Sigma(3,121,848), stern r=3 s=40: 46 nodes.
    form = tree_form((3, 121, 848))
    assert form.n == 46
    assert diagonalize(form) == oracle.diagonalize(form)


def test_root_search_matches_forced_tail_walk_at_n406():
    # Sigma(3,1201,8408), stern r=3 s=400: 406 nodes, far past the golden
    # reports (n <= 60).  About three quarters of the walk's level steps
    # come after a path has spent its budget, in the forced tail.
    form = tree_form((3, 1201, 8408))
    assert form.n == 406
    roots = enumerate_roots(form)
    assert len(roots) == 2 * 406
    assert roots == oracle.forced_tail_roots(form)


def test_stern_n86_matches_recorded_oracle_output():
    # Sigma(3,241,1688), stern r=3 s=80: 86 nodes.  The digest is that of
    # oracle.diagonalize's (C, C_inv) on this form, which takes seconds.
    form = tree_form((3, 241, 1688))
    assert form.n == 86
    d = diagonalize(form)
    assert hashlib.sha256(repr((d.c, d.c_inv)).encode()).hexdigest() == (
        "2f1c0efe162b7e945691819f831b21b9ba6c58620f82d4e13fc6b64fe238857a")


def test_forced_tail_dies_on_a_non_integral_coordinate():
    # Node 0 goes first, with pivot -4 and L[1][0] = -1/2 (g = 2); node 1's
    # pivot is then -1.  v_1 = +-1 spends the whole budget and forces
    # v_0 = +-1/2: at budget 0 node 0's range is empty, so both paths die
    # there.  The form is even, so it has no roots at all.
    form = UnimodularForm.from_matrix(((-4, 2), (2, -2)))
    e = oracle.fraction_view(form.elimination)
    assert e.order == (0, 1) and e.pivots == (-4, -1)
    assert e.columns[0] == ((1, Fraction(-1, 2)),)
    assert enumerate_roots(form) == oracle.enumerate_roots(form) == ()
    assert oracle.forced_tail_roots(form) == ()


def e8_plus_minus_i(k, moves):
    """E8 + -I_k after the basis changes e_i -> e_i + sign e_j, for
    (i, j, sign) in moves.  Its square -1 vectors are the k pairs of -I_k."""
    n = 8 + k
    e8 = tree_form((2, 3, 5)).q
    q = tuple(tuple(e8[i][j] if i < 8 and j < 8 else -(i == j)
                    for j in range(n)) for i in range(n))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, sign in moves:
        for row in u:
            row[i] += sign * row[j]
    return mat_mul(mat_mul(transpose(u), q), u)


@st.composite
def e8_moves_with_fill_in(draw):
    """(k, moves) for k = 0..2 and four to eight moves, kept only when the
    elimination of the form fills in (some L[i][j] != 0 where Q[i][j] = 0)."""
    k = draw(st.integers(min_value=0, max_value=2))
    moves = []
    for _ in range(draw(st.integers(min_value=4, max_value=8))):
        i, j = draw(st.permutations(range(8 + k)))[:2]
        moves.append((i, j, draw(st.sampled_from((-1, 1)))))
    q = e8_plus_minus_i(k, moves)
    e = eliminate(q)
    assume(any(q[node][i] == 0
               for node, col in zip(e.order, e.columns) for i, _ in col))
    return k, tuple(moves)


# The pinned example is still a tree: e_5 -> e_5 + e_8 gives node 5 weight
# -3 and hangs node 8 (weight -1) off it.  Its search meets a path that
# spends its budget, writes nonzero forced coordinates and then dies,
# before a later path that must not read them: the flat walk never
# resets a coordinate, the recursive oracle clears its forced tail.
@example((1, ((5, 8, 1),)))
@settings(max_examples=30, deadline=None)
@given(e8_moves_with_fill_in())
def test_e8_plus_minus_i_matches_oracle_through_cli(case):
    k, moves = case
    q = e8_plus_minus_i(k, moves)
    form = UnimodularForm.from_matrix(q)
    roots = enumerate_roots(form)
    assert roots == oracle.enumerate_roots(form)
    assert roots == oracle.forced_tail_roots(form)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_matrix_text(q) + "\n")
        with contextlib.redirect_stdout(out):
            assert main(["diagonalize", "--matrix", path]) == 0
    assert out.getvalue() == (f"not diagonalizable: {k} root pairs < {8 + k} "
                              "required: no integral diagonalization exists\n")


@st.composite
def tampered_diagonalizations(draw):
    """(form, C) from a real diagonalization (the resolution tree of a
    triple, or -U^t U) with one entry of C shifted by -2..2, one column
    of C negated, or column j of C replaced by column i (squares stay -1,
    but columns i and j are no longer orthogonal when i != j).  A zero
    shift, a negation or i = j leaves it valid."""
    if draw(st.booleans()):
        form = tree_form(draw(st.sampled_from(TRIPLES)))
        e = form.elimination
        assume(e.definiteness == "negative-definite"
               and abs(e.determinant) == 1)
    else:
        form = UnimodularForm.from_matrix(negated_gram(draw(unimodular())))
    d = diagonalize(form)
    assume(d.found)
    c = [list(row) for row in d.c]
    i = draw(st.integers(min_value=0, max_value=form.n - 1))
    j = draw(st.integers(min_value=0, max_value=form.n - 1))
    kind = draw(st.sampled_from(("shift", "negate", "copy column")))
    if kind == "shift":
        c[i][j] += draw(st.integers(min_value=-2, max_value=2))
    elif kind == "copy column":
        for row in c:
            row[j] = row[i]
    else:
        for row in c:
            row[j] = -row[j]
    return form, freeze(c)


def identity_error(check, *args):
    """The InternalInvariantError message of check(*args), or None."""
    try:
        check(*args)
    except InternalInvariantError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(tampered_diagonalizations())
def test_identity_check_matches_three_product_oracle(case):
    assert identity_error(Diagonalization, *case) == identity_error(
        oracle.check_identities, *case)
