"""Sign-obstruction constraint systems and the decision procedure."""

import random

import pytest

from brieskorn import (BrieskornTriple, Certificate, ConstraintError,
                       Diagonalization, UnimodularForm, build_constraints,
                       canonical_resolution, decide, diagonalize, family,
                       intersection_matrix, is_prime,
                       propagate_rotations, seifert_invariants,
                       standard_action_valid, star)
from brieskorn.plumbing import EquivariantMarkup
from conftest import gamma_k_graph
from obstruction_oracle import brute_force_decide


def pipeline(graph, p):
    markup = propagate_rotations(graph, p)
    form = UnimodularForm.from_matrix(intersection_matrix(graph))
    diag = diagonalize(form)
    assert diag.found
    return build_constraints(markup, diag), diag, markup


def smallest_valid_primes(triple, count=3):
    primes = []
    q = 3
    while len(primes) < count:
        if is_prime(q) and standard_action_valid(triple, q):
            primes.append(q)
        q += 2
    return primes


class TestBuildConstraints:
    def test_sigma_3_16_113_fixed_columns(self):
        g = canonical_resolution(seifert_invariants(BrieskornTriple.of(3, 16, 113)))
        cs, diag, markup = pipeline(g, 5)
        fixed_nodes = [node for node, _, _ in markup.fixed_spheres]
        fixed_cols = sorted(
            tuple(sorted(abs(x) for x in cs.columns[i] if x))
            for i in fixed_nodes)
        # center is a unit vector; the two -2 spheres have two unit entries
        assert fixed_cols == [(1,), (1, 1), (1, 1)]
        squares = sorted(cs.intersection(i, i) for i in fixed_nodes)
        assert squares == [-2, -2, -1]

    def test_single_fixed_node_feasible(self):
        g = star(-1, [])
        cs, _, _ = pipeline(g, 5)
        verdict = decide(cs)
        assert verdict.feasible
        assert verdict.assignment["orientations"] in ((1,), (-1,))

    def test_coupling_for_adjacent_invariant(self):
        # center -1 (fixed) with one invariant branch node: satisfiable,
        # with the coupling pinning the relative orientation.
        g = star(-1, [[-2]])
        cs, _, _ = pipeline(g, 5)
        assert cs.couplings  # the (-1)-sphere couples to its neighbour
        assert all({i, k} == {0, 1} for i, k, _ in cs.couplings)
        verdict = decide(cs)
        assert verdict.feasible
        o = verdict.assignment["orientations"]
        for i, k, sign in cs.couplings:
            assert o[i] * o[k] == sign

    def test_square_mismatch_raises(self):
        g = star(-1, [[-2]])
        _, diag, markup = pipeline(g, 5)
        bad = EquivariantMarkup(
            p=5,
            fixed_spheres=((0, -2, 1),),   # wrong self-intersection
            invariant_nodes=(1,),
            isolated_points=(markup.isolated_points[0],),
            node_kinds=("fixed", "invariant"))
        with pytest.raises(ConstraintError):
            build_constraints(bad, diag)

    def test_large_coefficient_raises(self):
        # basis (2e1 + e2, e1 + e2) of the standard rank-2 lattice:
        # the first class has square -5 and a coefficient of size 2.  That
        # is valid input, and decide reports it as infeasible.
        form = UnimodularForm.from_matrix(((-5, -3), (-3, -2)))
        c = ((1, -1), (-1, 2))
        c_inv = ((2, 1), (1, 1))
        diag = Diagonalization(form, c, c_inv)
        markup = EquivariantMarkup(
            p=5, fixed_spheres=((0, -5, 1),), invariant_nodes=(1,),
            isolated_points=((1, 1),), node_kinds=("fixed", "invariant"))
        cs = build_constraints(markup, diag)
        verdict = decide(cs)
        assert verdict.status == "infeasible"
        assert verdict.certificate.kind == "fixed-coefficient"
        assert verdict.certificate.spheres == (0,)
        assert verdict.certificate.verify(cs)
        assert brute_force_decide(cs) == "infeasible"


class TestDecide:
    @pytest.mark.parametrize("triple, p", [
        ((2, 7, 31), 3), ((2, 11, 27), 5), ((4, 7, 33), 5)])
    def test_fixed_sphere_with_large_coefficient_is_infeasible(self, triple, p):
        g = canonical_resolution(seifert_invariants(BrieskornTriple.of(*triple)))
        cs, _, _ = pipeline(g, p)
        verdict = decide(cs)
        assert verdict.status == "infeasible"
        cert = verdict.certificate
        assert cert.kind == "fixed-coefficient"
        assert cert.verify(cs)
        assert brute_force_decide(cs) == "infeasible"

    def test_fixed_coefficient_certificate_is_checked(self):
        g = canonical_resolution(seifert_invariants(BrieskornTriple.of(2, 7, 31)))
        cs, _, _ = pipeline(g, 3)
        cert = decide(cs).certificate
        (s,) = cert.spheres
        small = next(i for i, kind in enumerate(cs.kinds) if kind == "fixed"
                     and all(abs(x) < 2 for x in cs.columns[i]))
        invariant = cs.kinds.index("invariant")
        for sphere in (small, invariant):
            forged = Certificate(cert.kind, (sphere,), cert.detail)
            assert not forged.verify(cs)

    def test_sigma_3_16_113_infeasible_with_pattern_certificate(self):
        g = canonical_resolution(seifert_invariants(BrieskornTriple.of(3, 16, 113)))
        cs, _, _ = pipeline(g, 5)
        verdict = decide(cs)
        assert verdict.status == "infeasible"
        cert = verdict.certificate
        assert cert.kind == "adjacent-branches"
        assert 0 in cert.spheres          # the central fixed sphere
        assert cert.verify(cs)
        assert "-1 - (sum of products of nonnegative coefficients)" in cert.detail
        assert brute_force_decide(cs) == "infeasible"

    def test_gamma_family_infeasible(self):
        for s in range(3, 9):
            graph = gamma_k_graph(s)
            t = BrieskornTriple.of(3, 3 * s + 1, 21 * s + 8)
            p = smallest_valid_primes(t, count=1)[0]
            cs, _, _ = pipeline(graph, p)
            verdict = decide(cs)
            assert verdict.status == "infeasible", (s, p)
            assert verdict.certificate.kind == "adjacent-branches"
            assert verdict.certificate.verify(cs)
            if graph.node_count <= 12:
                assert brute_force_decide(cs) == "infeasible"

    def test_casson_harer_sweep_infeasible(self):
        # no counterexample over all valid members with r, s <= 7 and the
        # three smallest valid primes each
        runs = 0
        for r in range(2, 8):
            signs = ("+",) if r % 2 == 0 else ("+", "-")
            for s in range(1, 8):
                for sign in signs:
                    try:
                        t = family("casson-harer", r, s, sign)
                    except ValueError:
                        continue
                    g = canonical_resolution(seifert_invariants(t))
                    for p in smallest_valid_primes(t):
                        cs, _, _ = pipeline(g, p)
                        assert decide(cs).status == "infeasible", (t, p)
                        runs += 1
        assert runs >= 100

    def test_status_invariant_under_signed_permutation(self):
        rng = random.Random(23)
        cases = [
            (star(-1, [[-2]]), 5, "feasible"),
            (canonical_resolution(seifert_invariants(
                BrieskornTriple.of(3, 4, 5))), 7, "infeasible"),
        ]
        for graph, p, expected in cases:
            markup = propagate_rotations(graph, p)
            form = UnimodularForm.from_matrix(intersection_matrix(graph))
            diag = diagonalize(form)
            assert decide(build_constraints(markup, diag)).status == expected
            n = form.n
            for _ in range(4):
                perm = list(range(n))
                rng.shuffle(perm)
                signs = [rng.choice((1, -1)) for _ in range(n)]
                s_mat = tuple(tuple(signs[j] if perm[i] == j else 0
                                    for j in range(n)) for i in range(n))
                from brieskorn.matrices import mat_mul, transpose
                c2 = mat_mul(diag.c, transpose(s_mat))
                cinv2 = mat_mul(s_mat, diag.c_inv)
                twisted = Diagonalization(form, c2, cinv2)
                verdict = decide(build_constraints(markup, twisted))
                assert verdict.status == expected
                assert brute_force_decide(
                    build_constraints(markup, twisted)) == expected

    def test_feasible_assignment_satisfies_all_constraints(self):
        feasible_seen = 0
        for g in (star(-1, []), star(-1, [[-2]]), star(-1, [[-2, -2]])):
            cs, _, _ = pipeline(g, 7)
            verdict = decide(cs)
            assert verdict.status == brute_force_decide(cs)
            if not verdict.feasible:
                continue
            feasible_seen += 1
            o = verdict.assignment["orientations"]
            sgn = verdict.assignment["basis_signs"]
            for i, col in enumerate(cs.columns):
                for j, cval in enumerate(col):
                    if not cval:
                        continue
                    value = o[i] * sgn[j] * cval
                    if cs.kinds[i] == "fixed":
                        assert value == 1
                    else:
                        assert value > 0
            for i, k, sign in cs.couplings:
                assert o[i] * o[k] == sign
        assert feasible_seen >= 2

    def test_brute_force_rank_cap(self):
        g = gamma_k_graph(8)   # rank 14
        t = BrieskornTriple.of(3, 25, 176)
        p = smallest_valid_primes(t, count=1)[0]
        cs, _, _ = pipeline(g, p)
        with pytest.raises(ValueError):
            brute_force_decide(cs)

    def test_agreement_random(self):
        from conftest import random_triples
        for (a, b, c) in random_triples(8, seed=55):
            t = BrieskornTriple.of(a, b, c)
            g = canonical_resolution(seifert_invariants(t))
            form = UnimodularForm.from_matrix(intersection_matrix(g))
            diag = diagonalize(form)
            if not diag.found or form.n > 12:
                continue
            p = smallest_valid_primes(t, count=1)[0]
            markup = propagate_rotations(g, p)
            try:
                cs = build_constraints(markup, diag)
            except ConstraintError:
                continue
            assert decide(cs).status == brute_force_decide(cs)
