"""Plumbing trees: resolutions, signatures, and rotation propagation."""

from collections import Counter

import pytest

from brieskorn import (BrieskornTriple, EquivariantMarkup, PlumbingGraph,
                       PropagationError, canonical_pair, canonical_resolution,
                       graph_signature, intersection_matrix,
                       propagate_rotations, seifert_invariants, star, to_dot, to_tgf)
from conftest import (PERM_3_16_113, REFERENCE_QX, fickle_graph,
                      gamma_k_graph, graphs_equivalent, permute_symmetric,
                      random_triples, spider_form)
from lattice_oracle import det, symmetric_signature


def resolution(a, b, c):
    return canonical_resolution(seifert_invariants(BrieskornTriple.of(a, b, c)))


class TestCanonicalResolution:
    def test_sigma_3_16_113(self):
        g = resolution(3, 16, 113)
        assert g.node_count == 11
        center, branches = spider_form(g)
        assert center == -1
        assert sorted(branches) == sorted([
            (-3,), (-3, -6, -4, -2), (-4, -2, -2, -2, -2)])
        assert permute_symmetric(intersection_matrix(g), PERM_3_16_113) == REFERENCE_QX

    def test_sigma_2_3_5_is_e8(self):
        g = resolution(2, 3, 5)
        center, branches = spider_form(g)
        assert center == -2
        assert sorted(branches) == [(-2,), (-2, -2), (-2, -2, -2, -2)]
        q = intersection_matrix(g)
        assert det(q) == 1
        assert graph_signature(g) == (-8, "negative-definite")

    def test_sigma_2_3_7(self):
        center, branches = spider_form(resolution(2, 3, 7))
        assert center == -1
        assert sorted(branches) == sorted([(-2,), (-3,), (-7,)])

    def test_central_weight_is_delta_and_unimodular(self):
        for (a, b, c) in random_triples(25, seed=3):
            sd = seifert_invariants(BrieskornTriple.of(a, b, c))
            g = canonical_resolution(sd)
            assert g.weights[g.center] == sd.delta
            assert abs(det(intersection_matrix(g))) == 1
            sig, kind = graph_signature(g)
            assert kind == "negative-definite"
            assert sig == -g.node_count


class TestIntersectionMatrix:
    def test_single_node(self):
        g = PlumbingGraph((-7,), ())
        assert intersection_matrix(g) == ((-7,),)

    def test_diagonal_and_edges(self):
        g = star(-1, [[-2, -3]])
        assert intersection_matrix(g) == ((-1, 1, 0), (1, -2, 1), (0, 1, -3))


class TestGraphSignature:
    def test_single_node(self):
        assert graph_signature(PlumbingGraph((-1,), ())) == (-1, "negative-definite")
        assert graph_signature(PlumbingGraph((3,), ())) == (1, "other")

    def test_matches_generic_elimination(self):
        graphs = [resolution(3, 16, 113), resolution(2, 3, 5),
                  fickle_graph(3, 5), fickle_graph(5, 1),
                  star(0, [[2, -2], [-3]])]
        for (a, b, c) in random_triples(12, seed=21):
            graphs.append(resolution(a, b, c))
        for g in graphs:
            pos, neg, zero = symmetric_signature(intersection_matrix(g))
            assert graph_signature(g)[0] == pos - neg

    def test_zero_pivot_falls_back(self):
        # zero-weight leaf forces the generic-elimination fallback
        g = star(-2, [[0], [3]])
        pos, neg, zero = symmetric_signature(intersection_matrix(g))
        assert graph_signature(g)[0] == pos - neg

    def test_zero_final_pivot_classified_other(self):
        g = star(0, [[1], [-1]])   # singular form
        assert graph_signature(g)[1] == "other"


class TestGammaFamily:
    def test_matches_resolution_for_small_s(self):
        for s in range(2, 9):
            t = BrieskornTriple.of(3, 3 * s + 1, 21 * s + 8)
            assert graphs_equivalent(gamma_k_graph(s),
                                     canonical_resolution(seifert_invariants(t)))

    def test_s2_shape(self):
        g = gamma_k_graph(2)
        assert g.node_count == 8
        center, branches = spider_form(g)
        assert center == -1
        assert sorted(branches) == sorted([(-3,), (-4, -2), (-3, -3, -4, -2)])

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
        assert markup.node_kinds[g.center] == "fixed"

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
                        + 2 * len(markup.fixed_spheres)) == 1 + g.node_count
                break

    def test_rejects_bad_seed(self):
        g = resolution(2, 3, 7)
        with pytest.raises(ValueError):
            propagate_rotations(g, 4)

    def test_rejects_branch_point_away_from_center(self):
        # center at a leaf: the degree-3 node is then mid-branch
        g = PlumbingGraph((-1, -2, -2, -2), ((0, 1), (1, 2), (1, 3)), center=0)
        with pytest.raises(PropagationError):
            propagate_rotations(g, 5)

    def test_canonical_pair_normalization(self):
        assert canonical_pair(-1, 4, 5) == (1, 1)
        assert canonical_pair(-13, 16, 5) == (1, 2)
        assert canonical_pair(3, -1, 5) == (1, 2)   # (3,-1) ~ (-2,-1) ~ (2,1) ~ (1,2)
        assert canonical_pair(-1, 2, 5) == (1, -2)
        with pytest.raises(ValueError):
            canonical_pair(5, 1, 5)


class TestMarkupInvariant:
    def test_euler_identity_enforced(self):
        with pytest.raises(Exception):
            EquivariantMarkup(p=5, fixed_spheres=((0, -1, 1),),
                              invariant_nodes=(1,),
                              isolated_points=(),
                              node_kinds=("fixed", "invariant"))


class TestExport:
    def test_tgf(self):
        g = star(-1, [[-2]])
        assert to_tgf(g) == "0 -1\n1 -2\n#\n0 1\n"

    def test_dot_contains_nodes_and_edges(self):
        text = to_dot(resolution(2, 3, 7))
        assert "n0 [label=" in text and "n0 -- n1;" in text
