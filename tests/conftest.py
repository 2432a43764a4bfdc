"""Shared fixtures: reference data for Sigma(3,16,113), the resolution
trees of the family Sigma(3, 3s+1, 21s+8) and the indefinite bounding
trees, triples with large entries and short resolutions, and small
helpers (matrix and graph comparisons used only by the tests).

Reference node order for Sigma(3,16,113): center, the [-3] branch, the
[-3,-6,-4,-2] branch, then the [-4,-2,-2,-2,-2] branch (0-based ids).
The two matrices are cross-validated against each other in the tests via
the exact identity Q = -(C_inv)^t C_inv, so a transcription error in
either would be caught.
"""

import math
import random

import pytest

from brieskorn.matrices import eliminate, freeze, transpose
from brieskorn.plumbing import PlumbingGraph, intersection_matrix

REFERENCE_QX = freeze([
    [-1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0],
    [1, -3, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, -3, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, -6, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, -4, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, -2, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, -4, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2],
])

REFERENCE_CINV = freeze([
    [1, -1, -1, 0, 0, 0, -1, 0, 0, 0, 0],
    [0, -1, 1, 0, -1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, -1, 0, -1, 0, 0, 0, 0],
    [0, 0, 1, -1, 1, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 1, -1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 1, -1, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0, 1, -1, 0],
    [0, 0, 0, -1, 0, 0, 0, 0, 0, 1, -1],
])

# canonical_resolution orders the branches by ascending a_i (so the
# [-4,-2,-2,-2,-2] branch of a_2 = 16 before the [-3,-6,-4,-2] branch of
# a_3 = 113); PERM_3_16_113[our_index] = reference index.
PERM_3_16_113 = (0, 1, 6, 7, 8, 9, 10, 2, 3, 4, 5)


def gamma_k_graph(s: int) -> PlumbingGraph:
    """The resolution tree of Sigma(3, 3s+1, 21s+8), for s >= 2.

    Central -1; branches [-3], [-4, -2 x (s-1)] and [-3, -(s+1), -4, -2].
    Equals canonical_resolution of the triple up to relabeling.
    """
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    return PlumbingGraph(-1, ((-3,), (-4,) + (-2,) * (s - 1),
                              (-3, -(s + 1), -4, -2)))


def fickle_graph(r: int, s: int, sign: str = "+") -> PlumbingGraph:
    """The indefinite 10-node bounding tree for Sigma(r, rs+-1, 2r(rs+-1)+rs+-2).

    Top chain [(r-1)/2, -2, -1, -2, (r-1)/2, -sign*s, -r, 2] with a branch
    [-r, sign*s] hanging from the central -1 node, the star's centre, so
    node 0.  Construction is
    validated by signature == -2 and |det| == 1 (the boundary is an
    integral homology sphere); parameters failing validation are rejected.
    """
    if r < 3 or r % 2 == 0:
        raise ValueError(f"r must be an odd integer >= 3, got {r}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    e = 1 if sign == "+" else -1
    half = (r - 1) // 2
    graph = PlumbingGraph(-1, ((-2, half), (-2, half, -e * s, -r, 2),
                               (-r, e * s)))
    e = eliminate(intersection_matrix(graph))
    if e.signature != -2 or e.definiteness != "indefinite":
        raise ValueError(
            f"validation failed for r={r}, s={s}, sign={sign}: "
            f"signature {e.signature} ({e.definiteness}), expected -2 "
            "(indefinite)")
    if abs(e.determinant) != 1:
        raise ValueError(
            f"validation failed for r={r}, s={s}, sign={sign}: form is not unimodular")
    return graph


def permute_symmetric(matrix, perm):
    """P^t M P with perm[i] = new index of old row/column i."""
    n = len(matrix)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = matrix[i][j]
    return freeze(out)


def permute_columns(matrix, perm):
    """Column i of the result is column j of the input where perm[j] = i."""
    n = len(matrix[0])
    inverse = [0] * n
    for j, target in enumerate(perm):
        inverse[target] = j
    return freeze([[row[inverse[k]] for k in range(n)] for row in matrix])


def signed_permutation_equal(a, b, axis="col"):
    """Is A = B * S for a signed permutation S of the given axis?

    axis="col" compares columns up to reordering and per-column sign
    (the relation between two matrices whose columns are a diagonal basis,
    such as C); axis="row" compares rows the same way (the relation
    between two C^-1 matrices, whose rows are indexed by the diagonal
    basis).
    """
    a = freeze(a)
    b = freeze(b)
    if axis == "row":
        a, b = transpose(a), transpose(b)
    elif axis != "col":
        raise ValueError(f"axis must be 'col' or 'row', got {axis!r}")
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False

    def canonical_columns(m):
        cols = list(zip(*m))
        return sorted(max(c, tuple(-x for x in c)) for c in cols)

    return canonical_columns(a) == canonical_columns(b)


def graphs_equivalent(g1, g2):
    """Equality up to the order of the branches."""
    return (g1.center, sorted(g1.branches)) == (g2.center, sorted(g2.branches))


def rho_float_oracle(p, r, s, ell):
    """Floating-point cotangent sum for the lens-space rho invariant."""
    return (2.0 / p) * sum(
        (math.cos(math.pi * k * r / p) / math.sin(math.pi * k * r / p))
        * (math.cos(math.pi * k * s / p) / math.sin(math.pi * k * s / p))
        * math.sin(math.pi * k * ell / p) ** 2
        for k in range(1, p))


# Triples with entries up to 2*10^9 and short resolutions: (triple, n, R,
# diagonalizable, p), where p is a small prime at which the standard
# action fixes a sphere inside a branch (a node that is neither the
# centre nor a leaf), or None.  Every stage costs a function of n, p and
# the entries' bit length; a stage linear in an entry would take minutes.
LARGE_ENTRIES = [
    ((41, 2963, 146108), 13, -1, True, 7),
    ((55, 1481, 9965646), 145, -1, True, 7),
    ((317, 143002, 1024527679), 50, -1, True, 5),
    ((193, 122771, 1897856947), 99, -1, True, 5),
    ((479, 2854, 2945435), 18, -1, False, None),
    ((409, 39394, 75962109), 48, 1, False, 5),
    ((367, 68917, 393567851), 50, -1, False, 7),
    ((557, 55483, 660067083), 58, -1, False, 5),
    ((331, 173968, 1355050215), 57, -1, False, 7),
    ((49, 78525, 26689588), 63, 1, False, None),
]


def random_triples(count, seed=20240817, max_entry=45):
    """Deterministic sample of valid pairwise-coprime triples."""
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        a = rng.randint(2, 7)
        b = rng.randint(a + 1, 25)
        c = rng.randint(b + 1, max_entry)
        if math.gcd(a, b) == 1 and math.gcd(a, c) == 1 and math.gcd(b, c) == 1:
            triples.append((a, b, c))
    return triples


@pytest.fixture
def tmp_cache(monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(cache))
    return cache
