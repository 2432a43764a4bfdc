"""Sign-obstruction constraint systems and the decision procedure.

decide returns a witness or refuses the system; the general 2-coloring
of tests/obstruction_oracle.py decides every system, and oracle_verdict
checks the one against the other wherever a test decides a system."""

import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from brieskorn.arith import is_prime
from brieskorn.lattice import Diagonalization, UnimodularForm, diagonalize
from brieskorn.matrices import transpose
from brieskorn.obstruction import (Certificate, ConstraintError,
                                   ConstraintSystem, build_constraints, decide)
from brieskorn.plumbing import (EquivariantMarkup, PlumbingGraph,
                                canonical_resolution, intersection_matrix,
                                propagate_rotations)
from brieskorn.records import InternalInvariantError
from brieskorn.seifert import (BrieskornTriple, family, seifert_invariants,
                               standard_action_valid)
from conftest import gamma_k_graph
import obstruction_oracle as oracle
from lattice_oracle import mat_mul
from obstruction_oracle import brute_force_decide


def pipeline(graph, p):
    markup = propagate_rotations(graph, p)
    form = UnimodularForm.from_matrix(intersection_matrix(graph))
    diag = diagonalize(form)
    assert diag.found
    return build_constraints(markup, diag), diag, markup


def oracle_verdict(cs):
    """The 2-coloring's verdict on cs, once decide is checked against it:
    where the 2-coloring's certificate is a fixed-coefficient or
    adjacent-branches witness, decide returns that certificate; where it
    is a negative cycle, or the system is satisfiable, decide refuses the
    system and names it."""
    verdict = oracle.decide(cs)
    cert = verdict.certificate
    if cert is None or cert.kind == "negative-cycle":
        with pytest.raises(InternalInvariantError) as refusal:
            decide(cs)
        assert repr(cs) in str(refusal.value)
    else:
        assert decide(cs).certificate == cert
        assert cert.verify(cs)
    return verdict


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
            tuple(sorted(abs(x) for _, x in cs.columns[i]))
            for i in fixed_nodes)
        # center is a unit vector; the two -2 spheres have two unit entries
        assert fixed_cols == [(1,), (1, 1), (1, 1)]
        squares = sorted(cs.intersection(i, i) for i in fixed_nodes)
        assert squares == [-2, -2, -1]

    def test_single_fixed_node_feasible(self):
        g = PlumbingGraph(-1, ())
        cs, _, _ = pipeline(g, 5)
        verdict = oracle_verdict(cs)
        assert verdict.certificate is None and verdict.status == "feasible"
        assert verdict.assignment["orientations"] in ((1,), (-1,))
        section, conclusion = oracle.obstruction_section(cs, "Sigma", 5)
        assert section == {"status": "feasible", "certificate": None}
        assert conclusion.startswith("The orientation/sign constraint "
                                     "system is satisfiable;")

    def test_coupling_for_adjacent_invariant(self):
        # center -1 (fixed) with one invariant branch node: satisfiable,
        # with the coupling pinning the relative orientation.
        g = PlumbingGraph(-1, ((-2,),))
        cs, _, _ = pipeline(g, 5)
        assert cs.couplings  # the (-1)-sphere couples to its neighbour
        assert all({i, k} == {0, 1} for i, k, _ in cs.couplings)
        verdict = oracle_verdict(cs)
        assert verdict.certificate is None
        o = verdict.assignment["orientations"]
        for i, k, sign in cs.couplings:
            assert o[i] * o[k] == sign

    def test_square_mismatch_raises(self):
        g = PlumbingGraph(-1, ((-2,),))
        _, diag, markup = pipeline(g, 5)
        bad = EquivariantMarkup(
            p=5,
            fixed_spheres=((0, -2, 1),),   # wrong self-intersection
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
        diag = Diagonalization(form, c)
        assert diag.c_inv == ((2, 1), (1, 1))
        markup = EquivariantMarkup(
            p=5, fixed_spheres=((0, -5, 1),),
            isolated_points=((1, 1),), node_kinds=("fixed", "invariant"))
        cs = build_constraints(markup, diag)
        verdict = decide(cs)
        assert verdict.status == "infeasible"
        assert verdict.certificate.kind == "fixed-coefficient"
        assert verdict.certificate.spheres == (0,)
        assert verdict.certificate.verify(cs)
        assert brute_force_decide(cs) == "infeasible"


    @pytest.mark.parametrize("seed", [3, 29, 101])
    def test_matches_dense_assembly_on_random_members(self, seed):
        # The package reads squares and couplings off Q; the oracle takes
        # every dot product over the dense columns of C^-1.
        from conftest import random_triples
        rng = random.Random(seed)
        members = [BrieskornTriple.of(*t)
                   for t in random_triples(10, seed=seed)]
        members += [family("stern", 3, rng.randint(2, 40)),
                    family("casson-harer", 3, rng.randint(1, 9), "-")]
        compared = 0
        for t in members:
            g = canonical_resolution(seifert_invariants(t))
            diag = diagonalize(UnimodularForm.from_matrix(intersection_matrix(g)))
            if not diag.found:
                continue
            for p in smallest_valid_primes(t):
                markup = propagate_rotations(g, p)
                cs = build_constraints(markup, diag)
                assert cs == oracle.build_constraints(markup, diag), (t, p)
                compared += 1
        assert compared >= 6


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
                     and all(abs(x) < 2 for _, x in cs.columns[i]))
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
            if len(graph.weights) <= 12:
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
            (PlumbingGraph(-1, ((-2,),)), 5, "feasible"),
            (canonical_resolution(seifert_invariants(
                BrieskornTriple.of(3, 4, 5))), 7, "infeasible"),
        ]
        for graph, p, expected in cases:
            markup = propagate_rotations(graph, p)
            form = UnimodularForm.from_matrix(intersection_matrix(graph))
            diag = diagonalize(form)
            assert oracle_verdict(
                build_constraints(markup, diag)).status == expected
            n = form.n
            for _ in range(4):
                perm = list(range(n))
                rng.shuffle(perm)
                signs = [rng.choice((1, -1)) for _ in range(n)]
                s_mat = tuple(tuple(signs[j] if perm[i] == j else 0
                                    for j in range(n)) for i in range(n))
                c2 = mat_mul(diag.c, transpose(s_mat))
                cinv2 = mat_mul(s_mat, diag.c_inv)
                twisted = Diagonalization(form, c2)
                assert twisted.c_inv == cinv2
                cs = build_constraints(markup, twisted)
                assert cs == oracle.build_constraints(markup, twisted)
                assert oracle_verdict(cs).status == expected
                assert brute_force_decide(cs) == expected

    def test_feasible_assignment_satisfies_all_constraints(self):
        feasible_seen = 0
        for g in (PlumbingGraph(-1, ()), PlumbingGraph(-1, ((-2,),)),
                  PlumbingGraph(-1, ((-2, -2),))):
            cs, _, _ = pipeline(g, 7)
            verdict = oracle_verdict(cs)
            assert verdict.status == brute_force_decide(cs)
            if verdict.certificate is not None:
                continue
            feasible_seen += 1
            o = verdict.assignment["orientations"]
            sgn = verdict.assignment["basis_signs"]
            for i, col in enumerate(cs.columns):
                for j, cval in col:
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
            assert oracle_verdict(cs).status == brute_force_decide(cs)


def system(kinds, columns, couplings, n):
    return ConstraintSystem(n, tuple(tuple(col) for col in columns),
                            tuple(kinds), tuple(couplings))


# Hand-built systems, one per certificate tier.  f = e0 + e1 and
# g = e0 - e1 are orthogonal with both product signs on their shared
# support; a fixed (-1)-sphere e0 couples to both.
ADJACENT = system(("fixed", "invariant", "invariant"),
                  [[(0, 1)], [(0, 1), (1, 1)], [(0, 1), (1, -1)]],
                  [(1, 0, 1), (2, 0, 1)], 2)
CONFLICT = system(("invariant", "invariant"),
                  [[(0, 1), (1, 1)], [(0, 1), (1, -1)]], [], 2)
# Coupling-only odd cycles: the sign products around 0-1-2 are -1.  In
# the second, the (-1)-sphere's two neighbours meet ([F1].[F2] = -2), so
# no adjacent-branches witness exists, and every shared product is > 0.
ODD_CYCLE = system(("invariant",) * 3, [[(0, 1)], [(1, 1)], [(2, 1)]],
                   [(0, 1, 1), (1, 2, 1), (2, 0, -1)], 3)
ODD_CYCLE_AT_FIXED = system(
    ("fixed", "invariant", "invariant"),
    [[(0, 1)], [(0, 1), (1, 1)], [(0, 1), (1, 1), (2, 1)]],
    [(1, 0, 1), (2, 0, 1), (1, 2, -1)], 3)


class TestCertificateTiers:
    @pytest.mark.parametrize("cs, kind, spheres", [
        (ADJACENT, "adjacent-branches", (0, 1, 2)),
        # F1 = e0 - e1 and F0 = e0 + e1: the cycle F1 - e1 - F0 - e0 - F1
        # has signs -1, +1, +1, +1 (variables o_i = i, s_j = 2 + j).
        (CONFLICT, "negative-cycle", (1, 3, 0, 2)),
    ])
    def test_checkable_tiers(self, cs, kind, spheres):
        verdict = oracle_verdict(cs)
        assert verdict.status == "infeasible" == brute_force_decide(cs)
        cert = verdict.certificate
        assert (cert.kind, cert.spheres) == (kind, spheres)
        assert oracle.verify(cert, cs)

    def test_adjacent_branches_detail_names_the_basis_vector(self):
        detail = decide(ADJACENT).certificate.detail
        assert detail.startswith("fixed sphere 0 of square -1 reduces to a "
                                 "diagonal basis vector e0;")

    def test_negative_cycle_detail_names_the_variables(self):
        assert oracle_verdict(CONFLICT).certificate.render() == (
            "infeasible (negative-cycle): the sign equations around "
            "F1 - e1 - F0 - e0 - F1 multiply to -1")

    def test_neighbours_are_read_off_the_couplings(self):
        # Without its couplings the (-1)-sphere has no neighbours, and
        # the pair f, g is refuted by the cycle through their shared
        # basis vectors.
        uncoupled = system(ADJACENT.kinds, ADJACENT.columns, [], 2)
        cert = oracle_verdict(uncoupled).certificate
        assert (cert.kind, cert.spheres) == ("negative-cycle", (4, 2, 3, 1))
        assert oracle.verify(cert, uncoupled)

    @pytest.mark.parametrize("cs", [ODD_CYCLE, ODD_CYCLE_AT_FIXED])
    def test_coupling_only_odd_cycle_is_a_negative_cycle(self, cs):
        verdict = oracle_verdict(cs)
        assert verdict.status == "infeasible" == brute_force_decide(cs)
        cert = verdict.certificate
        assert (cert.kind, cert.spheres) == ("negative-cycle", (2, 0, 1))
        assert cert.detail.endswith("around F2 - F0 - F1 - F2 multiply to -1")
        assert oracle.verify(cert, cs)

    def test_negative_cycle_reads_each_pair_from_the_system(self):
        # Variables o_i = i and s_j = 3 + j.  The 2-cycle F0 - F1 runs
        # over one pair twice, with sign +1 * +1; F1 has no coefficient
        # on e0 (variable 3); e0 - e1 is no equation at all.
        for cycle in ((0, 1), (0, 1, 3), (3, 4, 0)):
            cert = Certificate("negative-cycle", cycle, "")
            assert not oracle.verify(cert, ODD_CYCLE), cycle
        # A pair carrying both signs is a contradiction on its own, and a
        # negative self-coupling is a cycle of length one.
        cs = system(ODD_CYCLE.kinds, ODD_CYCLE.columns,
                    [(0, 1, 1), (1, 0, -1), (2, 2, -1)], 3)
        verdict = oracle_verdict(cs)
        assert verdict.status == "infeasible" == brute_force_decide(cs)
        assert oracle.verify(verdict.certificate, cs)
        for cycle, holds in (((0, 1), True), ((1, 0), True), ((2,), True),
                             ((1,), False), ((0, 1, 2), False)):
            cert = Certificate("negative-cycle", cycle, "")
            assert oracle.verify(cert, cs) is holds, cycle

    def test_even_cycle_is_feasible(self):
        cs = system(ODD_CYCLE.kinds, ODD_CYCLE.columns,
                    [(0, 1, 1), (1, 2, -1), (2, 0, -1)], 3)
        verdict = oracle_verdict(cs)
        assert verdict.status == "feasible" == brute_force_decide(cs)
        o = verdict.assignment["orientations"]
        s = verdict.assignment["basis_signs"]
        assert all(o[i] * o[k] == sign for i, k, sign in cs.couplings)
        assert all(o[i] * s[j] * x > 0
                   for i, col in enumerate(cs.columns) for j, x in col)


class TestMalformedCertificates:
    """verify answers False, and raises nothing, on a certificate of the
    wrong arity or with an index out of range (negative included)."""

    @pytest.mark.parametrize("spheres", [
        (), (0,), (0, 1), (0, 1, 2, 2), (0, 1, 3), (-1, 1, 2), (0, 99, 2)])
    def test_adjacent_branches(self, spheres):
        assert not Certificate("adjacent-branches", spheres, "").verify(ADJACENT)

    @pytest.mark.parametrize("spheres", [(), (0, 0), (3,), (99,), (-1,)])
    def test_fixed_coefficient(self, spheres):
        assert not Certificate("fixed-coefficient", spheres, "").verify(ADJACENT)

    @pytest.mark.parametrize("spheres", [(), (5,), (1, 3, 0, 99), (-1, 3, 0, 2)])
    def test_negative_cycle(self, spheres):
        # CONFLICT has m = 2 spheres and n = 2 basis vectors: 4 variables
        assert not oracle.verify(
            Certificate("negative-cycle", spheres, ""), CONFLICT)

    def test_unknown_kind(self):
        for kind in ("parity-conflict", "search-refutation", ""):
            assert not Certificate(kind, (0, 1), "").verify(CONFLICT)
        # The package checks no negative cycle, not even one that holds.
        cycle = Certificate("negative-cycle", (1, 3, 0, 2), "")
        assert oracle.verify(cycle, CONFLICT)
        assert not cycle.verify(CONFLICT)


@st.composite
def constraint_systems(draw):
    """Small random systems: coefficients in -2..2, fixed and invariant
    spheres, and couplings that may be self-loops or parallel."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    columns = [sorted(draw(st.dictionaries(
        st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)),
        max_size=n)).items()) for _ in range(m)]
    kinds = [draw(st.sampled_from(("fixed", "invariant"))) for _ in range(m)]
    couplings = draw(st.lists(st.tuples(
        st.integers(0, m - 1), st.integers(0, m - 1), st.sampled_from((1, -1))),
        max_size=5))
    return system(kinds, columns, couplings, n)


def equations(cs):
    """pair of variables -> the signs of the equations on it (variables
    o_i = i, s_j = m + j), read here apart from Certificate.verify."""
    m = len(cs.columns)
    signs = {}
    for i, col in enumerate(cs.columns):
        for j, x in col:
            signs.setdefault(frozenset((i, m + j)), set()).add(1 if x > 0 else -1)
    for i, k, sign in cs.couplings:
        signs.setdefault(frozenset((i, k)), set()).add(sign)
    return signs


def flip(cs, pair):
    """cs with the sign of every equation on the pair of variables negated."""
    m = len(cs.columns)
    columns = [[(j, -x if {i, m + j} == pair else x) for j, x in col]
               for i, col in enumerate(cs.columns)]
    couplings = [(i, k, -sign if {i, k} == pair else sign)
                 for i, k, sign in cs.couplings]
    return system(cs.kinds, columns, couplings, cs.n)


@settings(max_examples=200, deadline=None)
@given(constraint_systems())
def test_decide_agrees_with_brute_force_and_certifies(cs):
    verdict = oracle_verdict(cs)
    assert verdict.status == brute_force_decide(cs)
    if verdict.certificate is None:
        return
    cert = verdict.certificate
    assert oracle.verify(cert, cs)
    if cert.kind != "negative-cycle":
        return
    cycle = cert.spheres
    assert len(set(cycle)) == len(cycle)     # a simple cycle
    signs = equations(cs)
    pairs = [frozenset(pair) for pair in zip(cycle, cycle[1:] + cycle[:1])]
    assert all(pair in signs for pair in pairs)
    # Dropped variable: the new pair of neighbours is joined by no
    # equation, so the shorter cycle is no witness.
    for t in range(len(cycle)):
        shorter = cycle[:t] + cycle[t + 1:]
        if not shorter or frozenset(
                (shorter[t - 1], shorter[t % len(shorter)])) not in signs:
            assert not oracle.verify(Certificate(cert.kind, shorter, ""), cs), t
    # Flipped sign: with every pair single-signed the product is -1, and
    # negating one pair's equations makes it +1.
    if all(len(signs[pair]) == 1 for pair in pairs):
        for pair in pairs:
            assert not oracle.verify(cert, flip(cs, pair)), pair


@st.composite
def planted_adjacent_branches(draw):
    """(system, (s, f, g)): a random constraint system with three spheres
    planted at random places, such that Certificate("adjacent-branches",
    (s, f, g)) verifies once s is coupled to f and g.  S = +-e_j0 is
    fixed; F and G are invariant, carry +-1 on e_j0 and have [F].[G] = 0,
    which a coefficient of G on some e_k, k != j0, is solved for.  The
    system comes without the two couplings; they are (f, s, sign) and
    (g, s, sign) with the sign build_constraints gives."""
    base = draw(constraint_systems())
    n = max(base.n, 2)
    j0, k = draw(st.permutations(range(n)))[:2]
    coefficient = st.sampled_from((-2, -1, 0, 1, 2))
    unit = st.sampled_from((-1, 1))
    s_col = {j0: draw(unit)}
    f_col = {j: draw(coefficient) for j in range(n)}
    g_col = {j: draw(coefficient) for j in range(n)}
    f_col[j0], g_col[j0], f_col[k] = draw(unit), draw(unit), draw(unit)
    g_col[k] = 0
    g_col[k] = -sum(f_col[j] * g_col[j] for j in range(n)) * f_col[k]
    m = len(base.columns)
    where = draw(st.permutations(range(m + 3)))   # old index -> new index
    columns = [None] * (m + 3)
    kinds = [None] * (m + 3)
    for i, col, kind in zip(where, [*base.columns, s_col.items(),
                                    f_col.items(), g_col.items()],
                            [*base.kinds, "fixed", "invariant", "invariant"]):
        columns[i] = sorted((j, x) for j, x in col if x)
        kinds[i] = kind
    couplings = [(where[i], where[l], sign) for i, l, sign in base.couplings]
    s, f, g = where[m:]
    cs = system(kinds, columns, couplings, n)
    return cs, (s, f, g)


@settings(max_examples=200, deadline=None)
@given(planted_adjacent_branches())
def test_a_verified_adjacent_branches_witness_closes_a_negative_cycle(drawn):
    # S = +-e_j0, F and G carry +-1 on e_j0 and [F].[G] = 0, so some other
    # shared e_k has the opposite product sign: the signs around
    # F - e_j0 - G - e_k - F multiply to -1, with or without the couplings.
    cs, (s, f, g) = drawn
    j0 = cs.columns[s][0][0]
    coupled = system(cs.kinds, cs.columns, [
        *cs.couplings, (f, s, -cs.intersection(f, s)),
        (g, s, -cs.intersection(g, s))], cs.n)
    assert Certificate("adjacent-branches", (s, f, g), "").verify(coupled)
    assert dict(cs.columns[f])[j0] ** 2 == dict(cs.columns[g])[j0] ** 2 == 1
    for each in (cs, coupled):
        verdict = oracle_verdict(each)
        assert verdict.status == "infeasible" == brute_force_decide(each)
        assert oracle.verify(verdict.certificate, each)
    # so decide returns a witness on the coupled system
    assert oracle_verdict(coupled).certificate.kind != "negative-cycle"


@st.composite
def diagonalizable_members(draw):
    """A random pairwise-coprime triple whose canonical plumbing has at
    most 16 nodes and diagonalizes, its graph and diagonalization, and a
    prime p <= 101 at which its standard action is free.  About half the
    triples drawn with n <= 16 diagonalize."""
    a = draw(st.integers(min_value=2, max_value=7))
    b = draw(st.sampled_from([x for x in range(a + 1, 41) if gcd(a, x) == 1]))
    c = draw(st.sampled_from([x for x in range(b + 1, 251)
                              if gcd(a * b, x) == 1]))
    triple = BrieskornTriple.of(a, b, c)
    graph = canonical_resolution(seifert_invariants(triple))
    assume(len(graph.weights) <= 16)
    diag = diagonalize(UnimodularForm.from_matrix(intersection_matrix(graph)))
    assume(diag.found)
    p = draw(st.sampled_from([q for q in range(3, 102) if is_prime(q)
                              and standard_action_valid(triple, q)]))
    return graph, diag, p


@settings(max_examples=150, deadline=None)
@given(diagonalizable_members())
def test_decide_returns_the_two_colorings_certificate_on_pipeline_inputs(
        member):
    graph, diag, p = member
    cs = build_constraints(propagate_rotations(graph, p), diag)
    verdict = oracle.decide(cs)
    assert decide(cs).certificate == verdict.certificate
    assert verdict.certificate.verify(cs)
    if len(graph.weights) <= 10:
        assert brute_force_decide(cs) == "infeasible"
