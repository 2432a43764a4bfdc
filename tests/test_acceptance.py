"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.  Everything here is exact arithmetic except the explicitly
floating-point cross-checks, whose tolerance is 1e-9.
"""

from collections import Counter

import spectral_oracle as oracle
from brieskorn.arith import is_prime
from brieskorn.lattice import UnimodularForm, diagonalize, enumerate_roots
from brieskorn.matrices import transpose
from brieskorn.obstruction import build_constraints, decide
from brieskorn.plumbing import (canonical_resolution, graph_signature,
                                intersection_matrix, propagate_rotations)
from brieskorn.seifert import (BrieskornTriple, family, seifert_invariants,
                               standard_action_valid)
from brieskorn.spectral import (canonical_lens_pair, eta_brieskorn,
                                eta_from_fixed_data, ll_extension_search,
                                nu_defect, rho_from_eta, rho_lens_table)
from conftest import (PERM_3_16_113, REFERENCE_CINV, REFERENCE_QX,
                      fickle_graph, gamma_k_graph, permute_columns,
                      permute_symmetric, random_triples, rho_float_oracle,
                      signed_permutation_equal)
from lattice_oracle import det, identity, mat_mul
from obstruction_oracle import brute_force_decide
from spectral_oracle import lift


def _pass(number, text):
    print(f"criterion {number:02d}: PASS - {text}")


def resolution(a, b, c):
    return canonical_resolution(seifert_invariants(BrieskornTriple.of(a, b, c)))


def smallest_valid_primes(triple, count):
    primes, q = [], 3
    while len(primes) < count:
        if is_prime(q) and standard_action_valid(triple, q):
            primes.append(q)
        q += 2
    return primes


def template_c_inv(s):
    """Closed-form change-of-basis columns for the resolution family,
    in the reference node order (center, [-3], [-3,-(s+1),-4,-2],
    [-4,-2 x (s-1)]); n = 6 + s, valid for s >= 3."""
    n = 6 + s
    def vec(entries):
        v = [0] * n
        for k, val in entries.items():
            v[k - 1] = val
        return v
    cols = {
        1: vec({1: 1}),
        2: vec({1: -1, 2: -1, 3: 1}),
        3: vec({1: -1, 2: 1, 4: 1}),
        4: vec({4: -1, 5: 1, **{j: -1 for j in range(8, n + 1)}}),
        5: vec({2: -1, 3: -1, 4: 1, 6: 1}),
        6: vec({6: -1, 7: -1}),
        7: vec({1: -1, 3: -1, 4: -1, 8: 1}),
        n: vec({5: -1, n: -1}),
    }
    for i in range(8, n):
        cols[i] = vec({i: -1, i + 1: 1})
    return tuple(tuple(cols[i + 1][j] for i in range(n)) for j in range(n))


def gamma_perm(s):
    """gamma_k_graph node order -> reference order, 0-based."""
    n = 6 + s
    return [0, 1] + list(range(6, n)) + [2, 3, 4, 5]


def test_c01_canonical_resolution_of_sigma_3_16_113():
    g = resolution(3, 16, 113)
    assert g.center == -1
    assert sorted(g.branches) == sorted(
        [(-3,), (-3, -6, -4, -2), (-4, -2, -2, -2, -2)])
    q = intersection_matrix(g)
    assert permute_symmetric(q, PERM_3_16_113) == REFERENCE_QX
    assert graph_signature(g) == (-11, "negative-definite")
    assert abs(det(q)) == 1
    _pass(1, "resolution graph, matrix, signature -11, |det| = 1 (exact)")


def test_c02_diagonalization_matches_reference():
    form = UnimodularForm.from_matrix(intersection_matrix(resolution(3, 16, 113)))
    assert len(enumerate_roots(form)) == 11
    d = diagonalize(form)
    assert d.found
    minus_i = tuple(tuple(-1 if i == j else 0 for j in range(11)) for i in range(11))
    assert mat_mul(mat_mul(transpose(d.c), form.q), d.c) == minus_i
    assert mat_mul(d.c, d.c_inv) == identity(11)
    ours = permute_columns(d.c_inv, PERM_3_16_113)
    assert signed_permutation_equal(ours, REFERENCE_CINV, axis="row")
    _pass(2, "C^t Q C = -I exactly, 11 root pairs, C_inv matches reference "
             "up to signed permutation")


def test_c03_obstruction_infeasible_with_pattern_certificates():
    cases = [(resolution(3, 16, 113), 5)]
    for s in range(3, 9):
        t = BrieskornTriple.of(3, 3 * s + 1, 21 * s + 8)
        cases.append((gamma_k_graph(s), smallest_valid_primes(t, 1)[0]))
    brute_checked = 0
    for graph, p in cases:
        markup = propagate_rotations(graph, p)
        diag = diagonalize(UnimodularForm.from_matrix(intersection_matrix(graph)))
        assert diag.found
        cs = build_constraints(markup, diag)
        verdict = decide(cs)
        assert verdict.status == "infeasible"
        cert = verdict.certificate
        assert cert.kind == "adjacent-branches"
        assert 0 in cert.spheres
        assert cert.verify(cs)
        assert "-1 - (sum of products of nonnegative coefficients)" in cert.detail
        if len(graph.weights) <= 12:
            assert brute_force_decide(cs) == "infeasible"
            brute_checked += 1
    assert brute_checked >= 5
    _pass(3, "infeasible with central-sphere certificates for "
             "Sigma(3,16,113) and the resolution family s = 3..8; "
             f"brute force confirmed on {brute_checked} cases of rank <= 12")


def test_c04_breadth_over_casson_harer_triples():
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
                diag = diagonalize(
                    UnimodularForm.from_matrix(intersection_matrix(g)))
                assert diag.found, t
                for p in smallest_valid_primes(t, 3):
                    markup = propagate_rotations(g, p)
                    verdict = decide(build_constraints(markup, diag))
                    assert verdict.status == "infeasible", (t, p)
                    runs += 1
    assert runs >= 100
    _pass(4, f"no counterexample: {runs} (triple, prime) pipelines all "
             "infeasible over the bounding family with r, s <= 7")


def test_c05_closed_form_family_columns():
    for s in range(3, 9):
        graph = gamma_k_graph(s)
        n = 6 + s
        template = template_c_inv(s)
        perm = gamma_perm(s)
        # the template diagonalizes the reference-ordered form ...
        q_ref = permute_symmetric(intersection_matrix(graph), perm)
        product = mat_mul(transpose(template), template)
        assert tuple(tuple(-x for x in row) for row in product) == q_ref
        # ... and the computed diagonalization agrees with it
        d = diagonalize(UnimodularForm.from_matrix(intersection_matrix(graph)))
        assert d.found
        ours = permute_columns(d.c_inv, perm)
        assert signed_permutation_equal(ours, template, axis="row")
        col = {i + 1: tuple(template[j][i] for j in range(n)) for i in range(n)}
        e = lambda k: tuple(1 if j == k - 1 else 0 for j in range(n))
        minus = lambda v: tuple(-x for x in v)
        assert col[1] == e(1)
        assert col[6] == tuple(-a - b for a, b in zip(e(6), e(7)))
        assert col[n] == tuple(-a - b for a, b in zip(e(5), e(n)))
    _pass(5, "computed columns match the closed-form expressions "
             "(F1 = e1, F6 = -e6-e7, Fn = -e5-en, ...) for s = 3..8")


def test_c06_cancellation_identity():
    for p in (5, 7, 11, 13):
        for j in range(1, p):
            z = oracle.zeta(p, j)
            nu = lift(nu_defect(1, 2, p)).galois(j)
            expr = -2 * nu + oracle.div(4 * z, (z - 1) * (z - 1)) + 2
            assert oracle.is_zero(expr)
    _pass(6, "-2 nu(1,2;t) + 4t/(t-1)^2 + 2 = 0 exactly at every "
             "nontrivial t for p in {5, 7, 11, 13}")


def test_c07_bounding_family_eta_equality():
    for r, p, k in ((3, 5, 1), (3, 7, 1), (5, 7, 1)):
        s = k * p
        graph = fickle_graph(r, s, "+")
        markup = propagate_rotations(graph, p)
        eta = eta_from_fixed_data(markup, graph_signature(graph)[0])
        assert lift(eta) == lift(nu_defect(r, 2 * r + 2, p))
        for j in range(1, p):
            assert lift(eta).galois(j) == oracle.nu_defect(r, 2 * r + 2, p, j)
        assert rho_from_eta(eta) == rho_lens_table(p, r, 2 * r + 2)
    _pass(7, "eta from the indefinite bounding graph equals nu(r, 2r+2) "
             "exactly for (r,p,k) in {(3,5,1), (3,7,1), (5,7,1)}; rho "
             "tables agree")


def test_c08_three_way_eta_consistency():
    g = resolution(3, 16, 113)
    markup = propagate_rotations(g, 5)
    assert Counter(markup.isolated_points) == Counter(
        [(1, 1), (1, 2), (1, 2), (1, 2), (1, 2), (2, 2)])
    assert sorted((w, c) for _, w, c in markup.fixed_spheres) == \
        [(-2, 3), (-2, 3), (-1, 1)]
    signature = graph_signature(g)[0]
    assert signature == -11
    eta_res = eta_from_fixed_data(markup, signature)
    fick = fickle_graph(3, 5, "+")
    eta_fick = eta_from_fixed_data(propagate_rotations(fick, 5),
                                   graph_signature(fick)[0])
    assert lift(eta_res) == lift(eta_fick) == lift(nu_defect(3, 8, 5))
    for j in range(1, 5):
        assert (lift(eta_res).galois(j) == lift(eta_fick).galois(j)
                == oracle.nu_defect(3, 8, 5, j))
    _pass(8, "eta via resolution markup = eta via bounding graph = nu(3,8) "
             "exactly at every nontrivial t")


def test_c09_rho_cross_validation():
    pairs = 0
    for p in (3, 5, 7, 11, 13):
        for r in range(1, p):
            for s in range(1, p):
                table = rho_lens_table(p, r, s)
                assert table[0] == 0
                nu = nu_defect(r, s, p)
                profile = oracle.profile(nu)
                assert table == oracle.rho_from_eta(profile.values, p)
                assert table == rho_from_eta(nu)
                for ell in range(p):
                    assert abs(float(table[ell])
                               - rho_float_oracle(p, r, s, ell)) < 1e-9
                pairs += 1
    _pass(9, f"{pairs} (p, r, s) tables: exact = Fourier transform of "
             "nu profile, and within 1e-9 of the floating cotangent sum")


def test_c10_locally_linear_search():
    t = BrieskornTriple.of(3, 16, 113)
    candidates = ll_extension_search(t, 5, eta_brieskorn(t, 5))
    assert len(candidates) == 1
    cand = candidates[0]
    assert canonical_lens_pair(cand.r, cand.s, 5) == canonical_lens_pair(3, 8, 5)
    assert canonical_lens_pair(3, 8, 5) == canonical_lens_pair(3, 3, 5)
    assert 3 * 16 * 113 == 5424 and 5424 % 5 == (3 * 8) % 5 == 4
    assert cand.product_residue == 4 and cand.rs_residue == 4
    assert cand.product_residue == cand.rs_residue
    # {3, 16, 113} = {3, 1, 3} = {3, 8, 1} mod 5 as sign classes
    assert cand.multiset_residues == (1, 2, 2)
    assert cand.rho_match
    _pass(10, "unique lens candidate class (3,8) = (3,3) mod 5 with "
              "congruence 5424 = 24 (mod 5) and exact rho match")


def test_c11_structural_invariants():
    for (a, b, c) in random_triples(50, seed=20240817):
        t = BrieskornTriple.of(a, b, c)
        g = canonical_resolution(seifert_invariants(t))
        q = intersection_matrix(g)
        assert abs(det(q)) == 1, t
        sig, kind = graph_signature(g)
        assert kind == "negative-definite" and sig == -len(g.weights)
        p = smallest_valid_primes(t, 1)[0]
        markup = propagate_rotations(g, p)
        assert (len(markup.isolated_points)
                + 2 * len(markup.fixed_spheres)) == 1 + len(g.weights)
    e8 = UnimodularForm.from_matrix(intersection_matrix(resolution(2, 3, 5)))
    assert enumerate_roots(e8) == ()
    failure = diagonalize(e8)
    assert not failure.found
    assert "0 root pairs < 8 required" in failure.message
    _pass(11, "50 random resolutions unimodular negative definite with "
              "valid fixed-set counts; E8 has no roots and a failure "
              "certificate")
