"""The leaf-first, integer-scaled lattice kernel against the dense
oracles in lattice_oracle.py, on random forms: resolution trees, non-tree
forms -U^t U, definite forms that are not unimodular, arbitrary symmetric
matrices, and E8.  The one congruence elimination (matrices.eliminate)
is checked against the Bareiss determinant, the dense congruence
signature, the leading-minor definiteness test and the leaf-pivoting tree
signature, on symmetric matrices with zero diagonals, singular and
indefinite ones, random plumbing trees and the indefinite bounding
graphs."""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

import lattice_oracle as oracle
from brieskorn import (BrieskornTriple, PlumbingGraph, UnimodularForm,
                       canonical_resolution, diagonalize, enumerate_roots,
                       graph_signature, intersection_matrix,
                       seifert_invariants)
from brieskorn.matrices import (eliminate, is_negative_definite, mat_mul,
                                transpose)
from conftest import fickle_graph, permute_symmetric

TRIPLES = [(a, b, c) for a in range(2, 8) for b in range(a + 1, 31)
           for c in range(b + 1, 71)
           if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1]


def tree_form(triple):
    graph = canonical_resolution(seifert_invariants(BrieskornTriple.of(*triple)))
    return UnimodularForm.from_matrix(intersection_matrix(graph))


def negated_gram(a):
    """-A^t A."""
    return tuple(tuple(-x for x in row) for row in mat_mul(transpose(a), a))


def assert_matches_oracle(form):
    assert form.determinant == oracle.det(form.q)
    assert form.is_negative_definite == oracle.is_negative_definite(form.q)
    assert enumerate_roots(form) == oracle.enumerate_roots(form)
    if abs(form.determinant) == 1:
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
    assert form.is_negative_definite
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
    assert form.is_negative_definite == oracle.is_negative_definite(q)
    assert form.determinant == oracle.det(q)
    if not form.is_negative_definite:
        with pytest.raises(ValueError, match="negative definite"):
            enumerate_roots(form)


def assert_elimination_matches_oracles(q):
    """Signature, definiteness and determinant of eliminate(q) against the
    dense oracles; on a definite q the factor must rebuild q exactly."""
    n = len(q)
    e = eliminate(q)
    pos, neg, zero = oracle.symmetric_signature(q)
    assert sorted(e.order) == list(range(n))
    assert (e.signature, sum(d == 0 for d in e.pivots)) == (pos - neg, zero)
    assert e.determinant == oracle.det(q)
    kind = ("other" if zero else "negative-definite" if neg == n
            else "indefinite" if pos and neg else "other")
    assert e.definiteness == kind
    assert is_negative_definite(q) == oracle.is_negative_definite(q) == (
        kind == "negative-definite")
    if kind == "negative-definite" or neg == 0 == zero:
        # L[order[j]][j] = 1, L[i][j] from columns[j]; q = L D L^t.
        rebuilt = [[0] * n for _ in range(n)]
        for node, d, col in zip(e.order, e.pivots, e.columns):
            entries = ((node, 1),) + col
            for a, la in entries:
                for b, lb in entries:
                    rebuilt[a][b] += la * d * lb
        assert rebuilt == [list(row) for row in q]


@st.composite
def symmetric_matrices(draw):
    """Random symmetric integer matrices; on request the diagonal is zero
    (so the zero-pivot repairs fire) or the last node repeats node 0 (so
    the matrix is singular)."""
    n = draw(st.integers(min_value=1, max_value=6))
    entries = draw(st.lists(st.integers(min_value=-3, max_value=3),
                            min_size=n * n, max_size=n * n))
    zero_diagonal, singular = draw(st.booleans()), draw(st.booleans())
    source = [0 if singular and i == n - 1 else i for i in range(n)]
    return tuple(tuple(
        0 if zero_diagonal and i == j else
        entries[min(source[i], source[j]) * n + max(source[i], source[j])]
        for j in range(n)) for i in range(n))


@st.composite
def plumbing_trees(draw):
    """A random tree on 1..10 nodes (node i > 0 hangs from a lower node)
    with weights in -3..3."""
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
    assert_elimination_matches_oracles(intersection_matrix(g))
    assert graph_signature(g) == oracle.graph_signature(g)


def test_elimination_returns_to_passed_over_nodes():
    # A hyperbolic pair (nodes 0, 1) beside a path with nonzero diagonal:
    # both zero-diagonal nodes come first in minimum-degree order and are
    # passed over, and must still be eliminated (by the row+column merge)
    # once the path is gone.
    q = ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 2, 1, 0, 0),
         (0, 0, 1, 2, 1, 0), (0, 0, 0, 1, 2, 1), (0, 0, 0, 0, 1, 2))
    assert_elimination_matches_oracles(q)
    assert eliminate(q).order[:2] == (2, 3)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_elimination_matches_oracles_on_fickle_graphs(sign):
    for r in (3, 5, 7, 9):
        for s in range(1, 12):
            g = fickle_graph(r, s, sign)
            assert_elimination_matches_oracles(intersection_matrix(g))
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


def test_stern_n86_matches_recorded_oracle_output():
    # Sigma(3,241,1688), stern r=3 s=80: 86 nodes.  The digest is that of
    # oracle.diagonalize's (C, C_inv) on this form, which takes seconds.
    form = tree_form((3, 241, 1688))
    assert form.n == 86
    d = diagonalize(form)
    assert hashlib.sha256(repr((d.c, d.c_inv)).encode()).hexdigest() == (
        "2f1c0efe162b7e945691819f831b21b9ba6c58620f82d4e13fc6b64fe238857a")
