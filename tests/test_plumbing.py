"""Plumbing trees: resolutions, signatures, and rotation propagation."""

import json
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from brieskorn.arith import NODE_MAX, is_prime
from brieskorn.plumbing import (EquivariantMarkup, PlumbingGraph,
                                PropagationError, canonical_pair,
                                canonical_resolution, centered_residue,
                                graph_signature, intersection_matrix,
                                propagate_rotations, to_dot, to_tgf)
from brieskorn.records import InternalInvariantError
from brieskorn.seifert import BrieskornTriple, seifert_invariants
import plumbing_oracle
from conftest import (LARGE_ENTRIES, PERM_3_16_113, REFERENCE_QX, fickle_graph,
                      gamma_k_graph, graphs_equivalent, permute_symmetric,
                      random_triples)
from lattice_oracle import det, symmetric_signature
from lattice_oracle import graph_signature as oracle_graph_signature

ZERO_PIVOT = r"^zero pivot: the form is not definite$"


def resolution(a, b, c):
    return canonical_resolution(seifert_invariants(BrieskornTriple.of(a, b, c)))


def canonical_pair_oracle(a, b, p):
    """canonical_pair by its definition: the least of the four orderings
    and signs of (a, b), as centred residues, with positive first entry."""
    if a % p == 0 or b % p == 0:
        raise ValueError(f"degenerate rotation pair ({a},{b}) mod {p}")
    variants = []
    for x, y in ((a, b), (b, a), (-a, -b), (-b, -a)):
        cx, cy = centered_residue(x, p), centered_residue(y, p)
        if cx > 0:
            variants.append((cx, cy))
    return min(variants)


class TestCanonicalResolution:
    def test_sigma_3_16_113(self):
        g = resolution(3, 16, 113)
        assert len(g.weights) == 11
        assert g.center == -1
        assert sorted(g.branches) == sorted([
            (-3,), (-3, -6, -4, -2), (-4, -2, -2, -2, -2)])
        assert permute_symmetric(intersection_matrix(g), PERM_3_16_113) == REFERENCE_QX

    def test_sigma_2_3_5_is_e8(self):
        g = resolution(2, 3, 5)
        assert g.center == -2
        assert sorted(g.branches) == [(-2,), (-2, -2), (-2, -2, -2, -2)]
        q = intersection_matrix(g)
        assert det(q) == 1
        assert graph_signature(g) == (-8, "negative-definite")

    def test_sigma_2_3_7(self):
        g = resolution(2, 3, 7)
        assert g.center == -1
        assert sorted(g.branches) == sorted([(-2,), (-3,), (-7,)])

    def test_central_weight_is_delta_and_unimodular(self):
        for (a, b, c) in random_triples(25, seed=3):
            sd = seifert_invariants(BrieskornTriple.of(a, b, c))
            g = canonical_resolution(sd)
            assert g.weights[0] == sd.delta
            assert abs(det(intersection_matrix(g))) == 1
            sig, kind = graph_signature(g)
            assert kind == "negative-definite"
            assert sig == -len(g.weights)

    def test_node_ceiling(self):
        # Casson-Harer r = 3: Sigma(3, 3s+1, 3s+2) has branches of 1, s and
        # 2 terms, so n = s + 4.  Each branch stays under the ceiling; at
        # s = 1197 only the total crosses it.  Sigma(300, 899, 3599) has
        # two long branches, of 299 and 898 terms.
        assert NODE_MAX == 1200
        assert len(resolution(3, 3589, 3590).weights) == NODE_MAX
        assert len(resolution(300, 899, 3599).weights) == NODE_MAX
        with pytest.raises(ValueError) as info:
            resolution(3, 3592, 3593)
        assert str(info.value) == ("the resolution tree has 1201 nodes, "
                                   "more than NODE_MAX = 1200")


class TestIntersectionMatrix:
    def test_single_node(self):
        g = PlumbingGraph(-7, ())
        assert intersection_matrix(g) == ((-7,),)

    def test_diagonal_and_edges(self):
        g = PlumbingGraph(-1, ((-2, -3),))
        assert intersection_matrix(g) == ((-1, 1, 0), (1, -2, 1), (0, 1, -3))


class TestGraphSignature:
    def test_single_node(self):
        assert graph_signature(PlumbingGraph(-1, ())) == (-1, "negative-definite")
        assert graph_signature(PlumbingGraph(3, ())) == (1, "other")

    def test_matches_generic_elimination(self):
        graphs = [resolution(3, 16, 113), resolution(2, 3, 5),
                  fickle_graph(3, 5), fickle_graph(5, 1),
                  PlumbingGraph(0, ((2, -2), (-3,)))]
        for (a, b, c) in random_triples(12, seed=21):
            graphs.append(resolution(a, b, c))
        for g in graphs:
            pos, neg, zero = symmetric_signature(intersection_matrix(g))
            assert graph_signature(g)[0] == pos - neg

    def test_zero_pivot_falls_back(self):
        # A zero-weight leaf is a zero pivot: the package refuses it, and
        # the leaf-pivoting oracle falls back to generic elimination.
        g = PlumbingGraph(-2, ((0,), (3,)))
        with pytest.raises(ValueError, match=ZERO_PIVOT):
            graph_signature(g)
        pos, neg, zero = symmetric_signature(intersection_matrix(g))
        assert oracle_graph_signature(g) == (pos - neg, "indefinite")

    def test_zero_final_pivot_classified_other(self):
        # A singular form: its last pivot is zero.  The package refuses
        # it; the oracle classifies it "other".
        g = PlumbingGraph(0, ((1,), (-1,)))
        with pytest.raises(ValueError, match=ZERO_PIVOT):
            graph_signature(g)
        assert oracle_graph_signature(g) == (0, "other")


class TestGammaFamily:
    def test_matches_resolution_for_small_s(self):
        for s in range(2, 9):
            t = BrieskornTriple.of(3, 3 * s + 1, 21 * s + 8)
            assert graphs_equivalent(gamma_k_graph(s),
                                     canonical_resolution(seifert_invariants(t)))

    def test_s2_shape(self):
        g = gamma_k_graph(2)
        assert len(g.weights) == 8
        assert g.center == -1
        assert sorted(g.branches) == sorted([(-3,), (-4, -2), (-3, -3, -4, -2)])

    def test_s3_is_sigma_3_10_71(self):
        assert graphs_equivalent(gamma_k_graph(3), resolution(3, 10, 71))

    def test_rejects_small_s(self):
        with pytest.raises(ValueError):
            gamma_k_graph(1)


class TestFickleGraph:
    @pytest.mark.parametrize("r,s", [(3, 5), (5, 1), (3, 7), (5, 7), (7, 3)])
    def test_signature_and_determinant(self, r, s):
        g = fickle_graph(r, s, "+")
        assert graph_signature(g) == (-2, "indefinite")
        assert abs(det(intersection_matrix(g))) == 1

    def test_minus_sign(self):
        g = fickle_graph(3, 5, "-")
        assert graph_signature(g) == (-2, "indefinite")
        assert abs(det(intersection_matrix(g))) == 1

    def test_no_bounding_tree_meets_a_zero_pivot(self):
        # eliminate refuses a zero pivot; none of these 1200 indefinite
        # bounding trees (odd r <= 21, s <= 60, both signs) meets one.
        for r in range(3, 22, 2):
            for s in range(1, 61):
                for sign in "+-":
                    assert graph_signature(fickle_graph(r, s, sign)) == (
                        -2, "indefinite")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fickle_graph(4, 5)
        with pytest.raises(ValueError):
            fickle_graph(3, 0)


class TestPropagation:
    def test_sigma_3_16_113_markup(self):
        g = resolution(3, 16, 113)
        markup = propagate_rotations(g, 5)
        assert Counter(markup.isolated_points) == Counter(
            [(1, 1), (1, 2), (1, 2), (1, 2), (1, 2), (2, 2)])
        data = sorted((w, cf) for _, w, cf in markup.fixed_spheres)
        assert data == [(-2, 3), (-2, 3), (-1, 1)]
        assert markup.node_kinds[0] == "fixed"
        fixed = {node for node, _, _ in markup.fixed_spheres}
        assert markup.invariant_nodes == tuple(
            v for v in range(len(g.weights)) if v not in fixed)

    def test_fickle_rotation_numbers(self):
        for r, p in ((3, 5), (3, 7), (5, 7)):
            g = fickle_graph(r, p, "+")   # chain parameter a multiple of p
            markup = propagate_rotations(g, p)
            expected = Counter(
                canonical_pair(a, b, p)
                for a, b in [(2, r), (2, r), (-1, 2), (-1, 2), (r, -2),
                             (r, -2), (-1, r), (1, r), (r, 2 * r + 2)])
            assert Counter(markup.isolated_points) == expected
            assert [(w, cf) for _, w, cf in markup.fixed_spheres] == [(-1, 1)]

    def test_euler_characteristic_random(self):
        for (a, b, c) in random_triples(20, seed=31):
            t = BrieskornTriple.of(a, b, c)
            g = canonical_resolution(seifert_invariants(t))
            for p in (3, 5, 7, 11, 13):
                if t.product % p == 0:
                    continue
                markup = propagate_rotations(g, p)
                assert (len(markup.isolated_points)
                        + 2 * len(markup.fixed_spheres)) == 1 + len(g.weights)
                break

    def test_rejects_bad_seed(self):
        g = resolution(2, 3, 7)
        with pytest.raises(ValueError):
            propagate_rotations(g, 4)

    def test_p2_raises_the_order_rule(self):
        g = resolution(2, 3, 7)
        with pytest.raises(ValueError,
                           match=r"^p must be an odd prime >= 3, got 2$"):
            propagate_rotations(g, 2)

    def test_canonical_pair_normalization(self):
        assert canonical_pair(-1, 4, 5) == (1, 1)
        assert canonical_pair(-13, 16, 5) == (1, 2)
        assert canonical_pair(3, -1, 5) == (1, 2)   # (3,-1) ~ (-2,-1) ~ (2,1) ~ (1,2)
        assert canonical_pair(-1, 2, 5) == (1, -2)
        with pytest.raises(ValueError):
            canonical_pair(5, 1, 5)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 97])
    def test_canonical_pair_matches_the_four_variant_oracle(self, p):
        grid = range(-2 * p, 2 * p)
        pairs = [(a, b) for a in grid for b in grid if a % p and b % p]
        assert ([canonical_pair(a, b, p) for a, b in pairs]
                == [canonical_pair_oracle(a, b, p) for a, b in pairs])
        for a, b in ((0, 1), (1, p), (-p, 2 * p)):
            with pytest.raises(ValueError, match=r"^degenerate rotation pair"):
                canonical_pair(a, b, p)


ODD_PRIMES = st.sampled_from([p for p in range(3, 102) if is_prime(p)])
ANY_WEIGHTS = st.lists(st.integers(min_value=-60, max_value=60), min_size=1,
                       max_size=25)


class TestMarkupInvariant:
    def test_euler_identity_enforced(self):
        with pytest.raises(InternalInvariantError, match="Euler"):
            EquivariantMarkup(p=5, fixed_spheres=((0, -1, 1),),
                              isolated_points=(),
                              node_kinds=("fixed", "invariant"))

    @settings(max_examples=200, deadline=None)
    @given(ODD_PRIMES, ANY_WEIGHTS)
    def test_no_zero_rotation_pair_on_any_chain(self, p, weights):
        # propagate_rotations has no check for a (0, 0) pair: the child
        # map (a, b) -> (b - w*a, -a) has determinant 1 and each branch
        # starts at (1, 0), so no weight, zero and positive ones
        # included, reaches (0, 0) mod p.
        a, b = 1, 0
        for w in weights:
            assert (a % p, b % p) != (0, 0)
            invariant = a % p != 0
            a, b = b - w * a, -a
            if invariant:   # the child's pair is a junction point
                assert b % p != 0

    @settings(max_examples=200, deadline=None)
    @given(ODD_PRIMES, st.integers(min_value=-60, max_value=60),
           st.lists(ANY_WEIGHTS, max_size=4))
    def test_star_markup_fails_only_at_a_free_pole(self, p, center,
                                                   branches):
        # On a star, with any weights, the only failure left is a fixed
        # normal disk at the free pole of a leaf.
        g = PlumbingGraph(center, tuple(map(tuple, branches)))
        try:
            markup = propagate_rotations(g, p)
        except PropagationError as exc:
            assert str(exc).startswith("fixed normal disk at the free pole")
        else:
            assert len(markup.node_kinds) == len(g.weights)


def outcome(walk, g, p):
    """walk(g, p), or the message of the PropagationError it raises."""
    try:
        return walk(g, p)
    except PropagationError as exc:
        return str(exc)


def assert_matches_the_oracle(g, p):
    """g's node order, edges and matrix are the general-tree layout's, and
    at p (unless None) its markup, or its refusal, is the stack walk's."""
    old = plumbing_oracle.star(g.center, g.branches)
    assert (g.weights, g.edges) == (old.weights, old.edges)
    assert intersection_matrix(g) == intersection_matrix(old)
    if p is not None:
        assert (outcome(propagate_rotations, g, p)
                == outcome(plumbing_oracle.propagate_rotations, old, p))


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(ODD_PRIMES, st.integers(min_value=-6, max_value=-1),
           st.lists(st.lists(st.integers(min_value=-6, max_value=-1),
                             max_size=8).map(tuple), max_size=4).map(tuple))
    def test_random_stars(self, p, center, branches):
        assert_matches_the_oracle(PlumbingGraph(center, branches), p)

    def test_every_golden_key_and_large_entry(self):
        golden = json.loads((pathlib.Path(__file__).resolve().parent.parent
                             / "perfbench" / "golden.json").read_text(
                                 encoding="utf-8"))
        inputs = [(tuple(map(int, triple)), None if p == "None" else int(p))
                  for *triple, p in (key.split(",") for key in golden)]
        inputs += [(triple, p) for triple, _, _, _, p in LARGE_ENTRIES]
        assert len(inputs) == 369
        for triple, p in inputs:
            assert_matches_the_oracle(resolution(*triple), p)


class TestExport:
    def test_tgf(self):
        g = PlumbingGraph(-1, ((-2,),))
        assert to_tgf(g) == "0 -1\n1 -2\n#\n0 1\n"

    def test_dot_contains_nodes_and_edges(self):
        text = to_dot(resolution(2, 3, 7))
        assert "n0 [label=" in text and "n0 -- n1;" in text
