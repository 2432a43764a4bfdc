"""The integer-scaled spectral kernels against the dense-Fraction oracles
in spectral_oracle.py, the package's vectors against the reference field,
and the eta(zeta) read-offs (rho tables, lens
matches, direct lens candidates) against the Fourier transforms and the
pair scan they replace, on random inputs."""

import gc
import hashlib
import json
import pathlib
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import spectral_oracle as oracle
from brieskorn import spectral
from brieskorn.arith import is_prime
from brieskorn.cache import render_json, render_text
from brieskorn.cli import main
from brieskorn.plumbing import (EquivariantMarkup, canonical_resolution,
                                graph_signature, propagate_rotations)
from brieskorn.records import InternalInvariantError
from brieskorn.report import build_analysis
from brieskorn.seifert import (BrieskornTriple, family, seifert_invariants,
                               standard_action_valid)
from brieskorn.spectral import (eta_brieskorn, eta_from_fixed_data,
                                ll_extension_search, nu_defect, rho_from_eta,
                                rho_lens_table)
from conftest import LARGE_ENTRIES, random_triples
from spectral_oracle import Field, lift

PRIMES = [p for p in range(3, 38) if is_prime(p)]

primes = st.sampled_from(PRIMES)
units = st.integers(min_value=-200, max_value=200)


def nonzero_mod(p, x):
    return x if x % p else x + 1


@st.composite
def cyclotomic(draw, p):
    coeffs = draw(st.lists(
        st.fractions(max_denominator=10**12).filter(
            lambda f: abs(f.numerator) < 10**15),
        min_size=0, max_size=p))
    return Field(p, coeffs)


def closed_form_inverse(p, m):
    """1/(zeta^m - 1) read back from the convolution path's integer vector
    p(1 + 2/(zeta^m - 1))."""
    coth = Field.from_numerators(p, oracle.coth_numerators(p, m), p)
    return (coth - 1) * Fraction(1, 2)


def convolution_less_constant(a, b, p):
    """The convolution oracle's vector of nu(a, b; zeta) less 4 T(0) in
    every entry: the same value in nu_defect's normalization."""
    shift = 4 * oracle.cross_term_at_zero(a, b, p)
    return tuple(n - shift for n in oracle.nu_by_convolution(a, b, p))


def test_nu_cache_is_bounded():
    # nu_defect keeps no memo: a nu vector holds p ints, ~4 MB at
    # p = 99991, and a memo of them would hold many.  Once its report is
    # dropped, a build leaves no nu vector behind (one at p = 10007 is
    # about 10^4 blocks).
    gc.collect()
    before = sys.getallocatedblocks()
    report = build_analysis(3, 16, 113, 10007)
    assert len(report["locally_linear"]["rho_quotient"]) == 10007
    del report
    gc.collect()
    assert sys.getallocatedblocks() - before < 1000


@given(primes, units)
def test_inverse_matches_euclid(p, m):
    m = nonzero_mod(p, m)
    assert closed_form_inverse(p, m) == oracle.inv_zeta_minus_one(p, m)


@pytest.mark.parametrize("p", [p for p in PRIMES if p <= 31])
def test_nu_recurrence_matches_convolution_on_every_pair(p):
    for a in range(1, p):
        for b in range(1, p):
            assert nu_defect(a, b, p) == convolution_less_constant(a, b, p)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 101])
def test_nu_recurrence_matches_convolution_on_special_pairs(p):
    # a = +-b (d = +-1), and a or b = +-1 (no scaling on one side).
    for x in (1, 2, p // 2, p - 2, p - 1):
        for a, b in ((x, x), (x, -x), (x, 1), (x, -1), (1, x), (-1, x)):
            assert nu_defect(a, b, p) == convolution_less_constant(a, b, p)


LARGER_PRIMES = [p for p in range(3, 398) if is_prime(p)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LARGER_PRIMES), st.data())
def test_nu_recurrence_matches_convolution_on_unreduced_input(p, data):
    # Negative and unreduced rotations reduce mod p before either path.
    rotation = st.integers(min_value=-5 * p, max_value=5 * p).filter(
        lambda x: x % p)
    a, b = data.draw(rotation), data.draw(rotation)
    assert nu_defect(a, b, p) == convolution_less_constant(a, b, p)


def test_nu_recurrence_matches_convolution_at_p_1009():
    assert nu_defect(3, 16, 1009) == convolution_less_constant(3, 16, 1009)


@given(st.sampled_from([p for p in range(3, 102) if is_prime(p)]),
       st.data())
def test_nu_vector_starts_at_p_squared(p, data):
    # nu_defect's normalization: the cross term vanishes at c = 0, so
    # entry 0 is p^2 alone.
    rotation = st.integers(min_value=-3 * p, max_value=3 * p).filter(
        lambda x: x % p)
    a, b = data.draw(rotation), data.draw(rotation)
    assert nu_defect(a, b, p)[0] == p * p


GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent.parent
                     / "perfbench" / "golden.json").read_text(encoding="utf-8"))
# Every golden member whose quotient matches a lens space's rho table.
RHO_MATCH_KEYS = [
    "2,101,507,5", "2,139,693,5", "2,29,31,7", "2,99,493,5", "3,121,848,5",
    "3,13,14,5", "3,16,113,5", "3,91,638,5", "5,174,1913,7", "2,43,213,11",
    "2,45,47,11", "3,32,223,11", "3,34,239,11", "3,37,38,13", "3,38,265,13",
    "3,40,281,13", "5,18,19,17", "5,21,22,23", "5,54,593,11", "5,56,617,11",
    "5,64,703,13", "5,66,727,13"]
# The first two golden keys of each p, and the matching members.
CONSTANT_KEYS = sorted(
    {key for q in ("None", "5", "7", "11", "13", "17", "19", "23", "29", "31")
     for key in sorted(k for k in GOLDEN if k.endswith("," + q))[:2]}
    | set(RHO_MATCH_KEYS))


def add_a_constant_per_call(monkeypatch):
    """Patch spectral.nu_defect to add its own constant to every entry on
    each call: the same value of nu, a different vector each time.  The
    list returned records the constants drawn."""
    exact, drawn = spectral.nu_defect, []

    def shifted(a, b, p):
        drawn.append(7919 * (len(drawn) + 1))
        return tuple(n + drawn[-1] for n in exact(a, b, p))

    monkeypatch.setattr(spectral, "nu_defect", shifted)
    return drawn


def render_key(key):
    a, b, c, p = key.split(",")
    report = build_analysis(int(a), int(b), int(c),
                            None if p == "None" else int(p))
    return render_json(report), render_text(report)


@pytest.mark.parametrize("key", CONSTANT_KEYS)
def test_no_report_reads_nu_constant(key, monkeypatch):
    # Every reader of a spectral vector reads differences of its entries:
    # the rho read-off, the lens match and the reality check.
    expected = render_key(key)
    assert hashlib.sha256(expected[0].encode()).hexdigest() == GOLDEN[key]
    drawn = add_a_constant_per_call(monkeypatch)
    shifted = render_key(key)
    assert shifted == expected
    report = json.loads(shifted[0])
    assert bool(drawn) == ("locally_linear" in report)
    if key in RHO_MATCH_KEYS:
        assert any(cand["rho_match"]
                   for cand in report["locally_linear"]["candidates"])


@pytest.mark.parametrize("argv", [["eta", "3", "16", "113", "--p", "13"],
                                  ["rho", "--lens", "13", "3", "8"]])
def test_no_printed_table_reads_nu_constant(argv, monkeypatch, capsys):
    # eta prints coefficients_at of eta(zeta); rho --lens reads the lens
    # table off nu(r, s; zeta).
    assert main(argv) == 0
    expected = capsys.readouterr()
    drawn = add_a_constant_per_call(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert drawn


@st.composite
def vector_pair(draw):
    """p and two int vectors of length p: x free or real (x_j = x_-j), and
    y free, x plus a constant, or that with one entry moved."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    entry = st.integers(min_value=-10**6, max_value=10**6)
    x = draw(st.lists(entry, min_size=p, max_size=p))
    if draw(st.booleans()):
        x = [x[min(j, p - j)] for j in range(p)]
    kind = draw(st.sampled_from(["free", "shift", "near"]))
    if kind == "free":
        y = draw(st.lists(entry, min_size=p, max_size=p))
    else:
        c = draw(entry)
        y = [a + c for a in x]
        if kind == "near":
            y[draw(st.integers(0, p - 1))] += draw(st.integers(-3, 3).filter(bool))
    return p, tuple(x), tuple(y)


@settings(max_examples=200, deadline=None)
@given(vector_pair())
def test_vectors_modulo_constants_are_the_field(case):
    # The package's vector v stands for sum_i v_i zeta^i / p^2: its lens
    # match, its coefficients at zeta^j and its reality check must be the
    # reference field's equality, Galois action and conjugation.
    p, x, y = case
    fx, fy = (Field.from_numerators(p, v, p * p) for v in (x, y))
    constant = len({a - b for a, b in zip(x, y)}) == 1
    assert constant == (fx == fy) == spectral._same_value(x, y)
    for j in range(1, p):
        assert spectral.coefficients_at(x, j) == fx.galois(j).coeffs
    # One isolated point and no node (1 + 2*0 == 1 + 0).
    markup = EquivariantMarkup(p=p, fixed_spheres=(),
                               isolated_points=((1, 1),), node_kinds=())
    with mock.patch.object(spectral, "nu_defect", lambda a, b, q: x):
        try:
            real = eta_from_fixed_data(markup, 0) == x
        except InternalInvariantError:
            real = False
    assert real == (fx.galois(p - 1) == fx)


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (7, 14)])
def test_nu_rejects_a_rotation_divisible_by_p(a, b):
    with pytest.raises(ValueError, match="nonzero mod 7"):
        nu_defect(a, b, 7)


@given(primes, units, units, units)
def test_nu_defect_matches_three_products(p, a, b, j):
    a, b, j = nonzero_mod(p, a), nonzero_mod(p, b), nonzero_mod(p, j)
    assert lift(nu_defect(a, b, p)).galois(j) == oracle.nu_defect(a, b, p, j)


@given(primes, units, units, st.integers(min_value=-5, max_value=5))
def test_sphere_defect_matches_euclid_division(p, c, j, w):
    # -4w t^c/(t^c - 1)^2 = w (1 - nu(c, c; t)), the form eta sums.
    c, j = nonzero_mod(p, c), nonzero_mod(p, j)
    assert ((w * (1 - lift(nu_defect(c, c, p)))).galois(j)
            == oracle.sphere_defect(w, c, p, j))


@settings(max_examples=20, deadline=None)
@given(primes, units, units)
def test_rho_lens_matches_fraction_sum(p, r, s):
    r, s = nonzero_mod(p, r), nonzero_mod(p, s)
    assert rho_lens_table(p, r, s) == tuple(
        oracle.rho_lens_exact(p, r, s, ell) for ell in range(p))


@given(st.data())
def test_product_matches_dense_fraction_convolution(data):
    p = data.draw(primes)
    x = data.draw(cyclotomic(p))
    y = data.draw(cyclotomic(p))
    assert x * y == oracle.mul(x, y)
    q = data.draw(st.fractions(max_denominator=10**9))
    assert x * q == q * x == oracle.mul(x, Field.from_rational(p, q))


def test_closed_form_inverse_times_zeta_power_minus_one_is_one():
    for p in (q for q in PRIMES if q <= 31):
        for m in range(1, p):
            assert closed_form_inverse(p, m) * (oracle.zeta(p, m) - 1) == 1


def quotient_data(triple, p):
    """The markup and signature of the canonical resolution: eta's input."""
    graph = canonical_resolution(seifert_invariants(triple))
    return propagate_rotations(graph, p), graph_signature(graph)[0]


@st.composite
def family_member(draw):
    kind = draw(st.sampled_from(["stern", "casson-harer"]))
    r = draw(st.integers(min_value=2, max_value=5))
    s = draw(st.integers(min_value=1, max_value=9))
    if r % 2 == 0 and s % 2 == 0:
        s += 1
    try:
        triple = family(kind, r, s, draw(st.sampled_from("+-")))
    except ValueError:  # a degenerate member
        assume(False)
    p = draw(st.sampled_from([p for p in PRIMES if p <= 17]).filter(
        lambda q: standard_action_valid(triple, q)))
    return triple, p


@settings(max_examples=25, deadline=None)
@given(family_member())
def test_eta_and_rho_match_fraction_oracles(member):
    triple, p = member
    data = quotient_data(triple, p)
    eta = eta_from_fixed_data(*data)
    expected = oracle.eta_values(*data)
    assert {j: lift(eta).galois(j) for j in range(1, p)} == expected
    rho = rho_from_eta(eta)
    assert len(rho) == p and rho[0] == 0
    assert rho == oracle.rho_from_eta(expected, p)


TRIPLES = random_triples(200, seed=4)


@st.composite
def triple_and_prime(draw):
    triple = BrieskornTriple.of(*draw(st.sampled_from(TRIPLES)))
    p = draw(primes.filter(lambda q: standard_action_valid(triple, q)))
    return triple, p


def count_nu_calls(monkeypatch):
    """Wrap spectral.nu_defect with a counter of its (a, b, p) calls."""
    exact, calls = spectral.nu_defect, Counter()

    def counted(a, b, p):
        calls[a, b, p] += 1
        return exact(a, b, p)

    monkeypatch.setattr(spectral, "nu_defect", counted)
    return calls


def assert_eta_sums_each_class_once(markup, signature):
    """eta_from_fixed_data equals the per-term sum exactly, with one
    nu_defect call per class (a, b); a sphere's class (c, c) is keyed by c
    up to sign, min(c, p - c)."""
    expected = oracle.eta_per_term(markup, signature)
    p = markup.p
    classes = set(markup.isolated_points)
    classes |= {(min(c, p - c),) * 2 for _, _, c in markup.fixed_spheres}
    with pytest.MonkeyPatch.context() as patch:
        calls = count_nu_calls(patch)
        assert eta_from_fixed_data(markup, signature) == expected
    assert calls == Counter((a, b, p) for a, b in classes)


@st.composite
def free_member(draw):
    """A random pairwise-coprime triple and a prime p <= 101 whose
    standard action on it is free."""
    # Drawn entry by entry from the admissible values: three independent
    # draws and a filter on p tripped the filter health check.
    a = draw(st.integers(min_value=2, max_value=12))
    b = draw(st.sampled_from([x for x in range(a + 1, 61) if gcd(a, x) == 1]))
    c = draw(st.sampled_from([x for x in range(b + 1, 401)
                              if gcd(a * b, x) == 1]))
    triple = BrieskornTriple.of(a, b, c)
    p = draw(st.sampled_from([q for q in range(3, 102) if is_prime(q)
                              and standard_action_valid(triple, q)]))
    return triple, p


@settings(max_examples=60, deadline=None)
@given(free_member())
# Fixed spheres inside a branch: five (-2)-spheres with c = 1 join the
# center's class (1, 1), and one sphere has c = 8.
@example((BrieskornTriple(10, 33, 329), 61))
@example((BrieskornTriple(7, 54, 311), 59))
def test_eta_by_class_matches_per_term_sum(member):
    assert_eta_sums_each_class_once(*quotient_data(*member))


@st.composite
def drawn_markup(draw):
    """A markup with repeated classes, and a class (c, c) whose
    multiplicity cancels to 0: k isolated points (c, c) and a sphere of
    self-intersection k and rotation c or -c, which adds -k (c is the
    smaller of the two, as eta keys the sphere's class)."""
    p = draw(primes)
    unit = st.integers(min_value=1, max_value=p - 1)
    pairs = st.tuples(unit, unit)
    points = draw(st.lists(st.sampled_from(draw(st.lists(pairs, min_size=1,
                                                         max_size=3))),
                           max_size=6))
    spheres = [(node, draw(st.integers(min_value=-5, max_value=5)), c)
               for node, c in enumerate(draw(st.lists(unit, max_size=4)))]
    c, k = draw(unit), draw(st.integers(min_value=1, max_value=3))
    points += [(min(c, p - c),) * 2] * k
    spheres.append((len(spheres), k, c))
    nodes = len(points) + 2 * len(spheres) - 1
    return EquivariantMarkup(p=p, fixed_spheres=tuple(spheres),
                             isolated_points=tuple(points),
                             node_kinds=("invariant",) * nodes)


@settings(max_examples=100, deadline=None)
@given(drawn_markup(), st.integers(min_value=-50, max_value=50))
def test_eta_by_class_matches_per_term_sum_on_drawn_markups(markup,
                                                            signature):
    assert_eta_sums_each_class_once(markup, signature)


def test_build_computes_each_nu_once(monkeypatch):
    # Sigma(3,16,113) at p = 5 has the isolated point (1,2) four times;
    # eta adds nu(1, 2) once with multiplicity 4.  Its two spheres of
    # rotation 3 = -2 join the isolated point (2, 2) in the class (2, 2),
    # so nu(3, 3) is never computed.  The lens search takes one nu of its
    # own, here (2, 2), which that class of eta also takes.
    calls = count_nu_calls(monkeypatch)
    report = build_analysis(3, 16, 113, 5)
    assert report["equivariant"]["fixed_points"].count([1, 2]) == 4
    assert (3, 3, 5) not in calls
    (candidate,) = report["locally_linear"]["candidates"]
    lens = (candidate["r"], candidate["s"], 5)
    assert calls[1, 2, 5] == 1
    calls[lens] -= 1
    assert set(calls.values()) == {1}


@settings(max_examples=25, deadline=None)
@given(triple_and_prime(), st.data())
def test_rho_read_off_matches_fourier_transform(member, data):
    triple, p = member
    markup, signature = quotient_data(triple, p)
    eta = eta_from_fixed_data(markup, signature)
    j = data.draw(st.integers(min_value=1, max_value=p - 1))
    assert lift(eta).galois(j) == oracle.eta_value(markup, signature, j)
    profile = oracle.profile(eta)
    assert rho_from_eta(eta) == oracle.rho_from_eta(profile.values, p)


def assert_search_matches_scan(triple, p):
    eta = eta_from_fixed_data(*quotient_data(triple, p))
    sigma_rho = oracle.rho_from_eta(oracle.profile(eta).values, p)
    expected = oracle.ll_extension_search(triple, p, sigma_rho)
    # The scan over every canonical pair finds at most one: the product
    # congruence picks one sign of the pair (u, +-v).
    assert len(expected) <= 1
    assert all(c.rs_residue == c.product_residue for c in expected)
    assert ll_extension_search(triple, p, eta) == expected
    assert ll_extension_search(triple, p, eta_brieskorn(triple, p)) == expected
    return expected


@settings(max_examples=40, deadline=None)
@given(triple_and_prime())
def test_lens_search_matches_pair_scan(member):
    assert_search_matches_scan(*member)


@pytest.mark.parametrize("triple,p,matches", [
    ((3, 16, 113), 5, [True]),
    ((3, 19, 134), 5, [False]),
    ((3, 28, 197), 5, []),
    ((3, 22, 155), 7, [True]),
    ((5, 36, 397), 7, [True]),
    ((3, 32, 223), 11, [True]),
    ((7, 78, 1171), 11, [True]),
    (family("stern", 3, 37, "+").entries, 37, [True]),
])
def test_lens_search_matches_pair_scan_on_known_inputs(triple, p, matches):
    expected = assert_search_matches_scan(BrieskornTriple.of(*triple), p)
    assert [c.rho_match for c in expected] == matches


@pytest.mark.parametrize("p", [101, 401, 1009])
def test_large_p_report_matches_schoolbook_convolution(p, monkeypatch):
    # The golden digests stop at p = 31; past it, the report of the
    # paper's example must not depend on how nu is computed.
    def build():
        report = build_analysis(3, 16, 113, p)
        return render_json(report), render_text(report)

    recurrence = build()
    calls = []

    def by_convolution(a, b, q):
        calls.append(q)
        return oracle.nu_by_convolution(a, b, q)

    monkeypatch.setattr(spectral, "nu_defect", by_convolution)
    assert build() == recurrence
    assert calls and set(calls) == {p}


# eta from the Seifert invariants (spectral_oracle.eta_orbifold): each
# path of H against the direct sum, the whole formula against the
# pipeline's eta, and the slips of the formula that each check catches.

H_PATHS = [oracle.h_direct, oracle.h_table, oracle.h_floor]


@st.composite
def h_input(draw):
    """(a, kappa, s): a <= 70, kappa a unit mod a and 0 <= s < a."""
    a = draw(st.integers(min_value=2, max_value=70))
    kappa = draw(st.sampled_from([k for k in range(1, a) if gcd(k, a) == 1]))
    return a, kappa, draw(st.integers(min_value=0, max_value=a - 1))


@pytest.mark.parametrize("h", H_PATHS[1:], ids=lambda h: h.__name__)
@settings(max_examples=200, deadline=None)
@given(h_input())
def test_h_paths_match_the_direct_sum(h, case):
    a, kappa, s = case
    assert h(a, kappa, [s]) == oracle.h_direct(a, kappa, [s])


def slipped_table(a, kappa, residues):
    """h_table with y* = kappa^-1 (s + 1) in its recurrence."""
    inverse_kappa = pow(kappa, -1, a)
    table = oracle.h_direct(a, kappa, [0])
    for s in range(a - 1):
        y = inverse_kappa * (s + 1) % a
        table.append(table[-1] + (a * (a - 2 * y) if y else 0))
    return [table[s] for s in residues]


def test_table_slip_fails_the_direct_sum():
    # Wrong on every (a, kappa) with a < 30 but (2, 1), whose one weight
    # a - 2y is 0.
    wrong = [(a, kappa) for a in range(2, 30) for kappa in range(1, a)
             if gcd(kappa, a) == 1 and slipped_table(a, kappa, range(a))
             != oracle.h_direct(a, kappa, range(a))]
    assert len(wrong) == 268


@settings(max_examples=60, deadline=None)
@given(free_member(), st.sampled_from(H_PATHS))
@example((BrieskornTriple(10, 33, 329), 61), oracle.h_table)
@example((BrieskornTriple(7, 54, 311), 59), oracle.h_floor)
def test_eta_orbifold_matches_the_pipeline(member, h):
    # Exactly, up to the added constant; the examples fix spheres inside
    # their branches.
    triple, p = member
    eta = oracle.eta_orbifold(triple, p, h)
    assert spectral._same_value(eta, eta_brieskorn(triple, p))


@pytest.mark.parametrize("entries", [entry[0] for entry in LARGE_ENTRIES],
                         ids=lambda e: "Sigma(%d,%d,%d)" % e)
def test_eta_orbifold_matches_the_pipeline_on_large_entries(entries):
    # Entries up to 2*10^9, so H goes by floor sums, at every free p <= 101.
    triple = BrieskornTriple(*entries)
    for p in (q for q in range(3, 102) if is_prime(q)
              and standard_action_valid(triple, q)):
        eta = oracle.eta_orbifold(triple, p, oracle.h_floor)
        assert spectral._same_value(eta, eta_brieskorn(triple, p))


def without(terms, name):
    return {key: value for key, value in terms.items() if key != name}


@settings(max_examples=15, deadline=None)
@given(free_member())
def test_dropping_half_of_l_over_p_fails_divisibility(member):
    d, terms = oracle.orbifold_terms(*member)
    with pytest.raises(InternalInvariantError, match="non-multiple of D"):
        oracle.eta_from_terms(d, without(terms, "-p^2 e_0/P"))


@settings(max_examples=15, deadline=None)
@given(free_member())
def test_signed_betas_fail_divisibility(member):
    # beta_i = b_i negates kappa_i and so each H_i.
    triple, p = member
    d, terms = oracle.orbifold_terms(triple, p,
                                     betas=seifert_invariants(triple).b)
    with pytest.raises(InternalInvariantError, match="non-multiple of D"):
        oracle.eta_from_terms(d, terms)


@settings(max_examples=15, deadline=None)
@given(free_member())
def test_dropping_the_term_one_fails_only_the_comparison(member):
    # The term is D p^2 at entry 0, which D divides.
    d, terms = oracle.orbifold_terms(*member)
    eta = oracle.eta_from_terms(d, without(terms, "1"))
    assert not spectral._same_value(eta, eta_brieskorn(*member))
