"""Continued fractions, and the reference field Q(zeta_p) of
``spectral_oracle`` that the tests build expected values with: its
canonical integer representation and its schoolbook cyclic convolution."""

import cmath
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

import spectral_oracle as oracle
from brieskorn.arith import (MILLER_RABIN_LIMIT, NODE_MAX, HJExpansion,
                            hj_expand, is_prime)
from brieskorn.records import InternalInvariantError
from brieskorn.seifert import P_MAX
from spectral_oracle import Field


def eval_oracle(terms):
    """Independent bottom-up evaluation of t1 - 1/(t2 - 1/(...))."""
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        value = Fraction(t) - Fraction(1) / value
    return value


def fraction_hj_terms(a, b, max_terms):
    """The expansion of a/b by Fraction steps: t = floor(q), then
    q -> -1/(q - t) until q is an integer; None past max_terms terms."""
    terms = []
    q = Fraction(a, b)
    while len(terms) < max_terms:
        t = q.numerator // q.denominator  # floor for exact Fractions
        terms.append(t)
        if q == t:
            return tuple(terms)
        q = -1 / (q - t)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 9).flatmap(lambda a: st.tuples(
    st.just(a), st.integers(min_value=1 - a, max_value=-1))))
def test_integer_hj_expansion_matches_fraction_steps(ab):
    g = gcd(*ab)
    a, b = ab[0] // g, ab[1] // g            # still a > 0 and -a < b < 0
    terms = fraction_hj_terms(a, b, max_terms=200)
    assume(terms is not None)      # b near -a gives about a/(a + b) terms
    assert hj_expand(a, b).terms == terms


def trial_division(n):
    """The primality test is_prime replaced: trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_is_trial_division_up_to_the_order_ceiling():
    """Every n <= P_MAX + 1, and a few below 2, gets the oracle's answer:
    each small prime, each multiple of one, and each base-2 strong
    pseudoprime (2047, 3277, ..., 90751) included."""
    wrong = [n for n in range(-3, P_MAX + 2)
             if is_prime(n) != trial_division(n)]
    assert wrong == []


def test_is_prime_refuses_outside_its_exact_range():
    """1373653 = 829 * 1657 is the least strong pseudoprime to both bases,
    so is_prime answers only below it."""
    assert P_MAX + 1 < MILLER_RABIN_LIMIT == 829 * 1657
    for n in range(MILLER_RABIN_LIMIT - 30, MILLER_RABIN_LIMIT):
        assert is_prime(n) == trial_division(n)
    for n in (MILLER_RABIN_LIMIT, MILLER_RABIN_LIMIT + 2, 10**40):
        with pytest.raises(InternalInvariantError, match="exact only below"):
            is_prime(n)


class TestHJExpansion:
    def test_known_expansions(self):
        assert hj_expand(16, -5).terms == (-4, -2, -2, -2, -2)
        assert hj_expand(113, -40).terms == (-3, -6, -4, -2)
        assert hj_expand(2, -1).terms == (-2,)
        assert hj_expand(3, -1).terms == (-3,)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hj_expand(5, 2)       # positive denominator
        with pytest.raises(ValueError):
            hj_expand(5, -5)      # b <= -a
        with pytest.raises(ValueError):
            hj_expand(6, -2)      # not coprime
        with pytest.raises(ValueError):
            hj_expand(-3, -1)

    def test_refuses_more_than_node_max_terms(self):
        # (k+1)/-k expands to k terms of -2.
        assert NODE_MAX == 1200
        assert hj_expand(1201, -1200).terms == (-2,) * NODE_MAX
        with pytest.raises(ValueError) as info:
            hj_expand(1202, -1201)
        assert str(info.value) == ("the continued fraction of 1202/-1201 has "
                                   "more than NODE_MAX = 1200 terms")

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(300):
            a = rng.randint(2, 400)
            b = -rng.randint(1, a - 1)
            from math import gcd
            if gcd(a, -b) != 1:
                continue
            exp = hj_expand(a, b)
            assert all(t <= -2 for t in exp.terms)
            assert eval_oracle(exp.terms) == Fraction(a, b)

    def test_round_trip_check_rejects_wrong_terms(self):
        HJExpansion(113, -40, (-3, -6, -4, -2))
        for terms in ((-3, -6, -4, -3), (-3, -6, -4), (-2,) * 5):
            with pytest.raises(ValueError, match="do not evaluate"):
                HJExpansion(113, -40, terms)
        with pytest.raises(ValueError, match="<= -2"):
            HJExpansion(113, -40, (-3, -6, -4, -1))
        with pytest.raises(ValueError, match="empty"):
            HJExpansion(1, -1, ())

    def test_bijection_from_term_lists(self):
        # Any term list with entries <= -2 evaluates to some a/b in the
        # expansion domain, and expanding recovers the same list.
        rng = random.Random(11)
        for _ in range(200):
            terms = tuple(-rng.randint(2, 7) for _ in range(rng.randint(1, 8)))
            q = eval_oracle(terms)
            a, b = -q.numerator, -q.denominator
            assert a > 0 and -a < b < 0
            assert hj_expand(a, b).terms == terms


class TestCyclotomic:
    def test_cyclotomic_relation(self):
        for p in (3, 5, 7, 11):
            total = sum((oracle.zeta(p, j) for j in range(1, p)),
                        oracle.one(p))
            assert oracle.is_zero(total)

    def test_inverse(self):
        z = oracle.zeta(5)
        assert (z - 1) * oracle.inverse(z - 1) == 1

    def test_p3_rational_quotient(self):
        # ((z+1)(z^2+1)) / ((z-1)(z^2-1)) at p=3.  Independent oracle:
        # reduce numerator and denominator mod 1 + x + x^2 by hand-rolled
        # dict polynomials, then compare the resulting constants.
        def reduce_mod_phi3(poly):
            # poly: dict exponent -> coeff; x^3 = 1, then x^2 = -1 - x
            out = {0: 0, 1: 0, 2: 0}
            for e, c in poly.items():
                out[e % 3] += c
            return (out[0] - out[2], out[1] - out[2])

        def poly_mul(f, g):
            out = {}
            for e1, c1 in f.items():
                for e2, c2 in g.items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
            return out

        num = reduce_mod_phi3(poly_mul({1: 1, 0: 1}, {2: 1, 0: 1}))
        den = reduce_mod_phi3(poly_mul({1: 1, 0: -1}, {2: 1, 0: -1}))
        assert num == (1, 0) and den == (3, 0)

        z = oracle.zeta(3)
        value = oracle.div((z + 1) * (z * z + 1), (z - 1) * (z * z - 1))
        assert value == Fraction(num[0], den[0]) == Fraction(1, 3)

    def test_field_axioms_random(self):
        rng = random.Random(13)
        for p in (5, 7):
            def rand_elt():
                return Field(p, [Fraction(rng.randint(-4, 4),
                                          rng.randint(1, 3))
                                 for _ in range(p - 1)])
            for _ in range(40):
                a, b, c = rand_elt(), rand_elt(), rand_elt()
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                if not oracle.is_zero(a):
                    assert a * oracle.inverse(a) == 1
                    assert oracle.inverse(oracle.inverse(a)) == a

    def test_float_embedding_agrees(self):
        rng = random.Random(17)
        for p in (5, 11):
            zc = cmath.exp(2j * cmath.pi / p)
            for _ in range(25):
                coeffs = [rng.randint(-5, 5) for _ in range(p - 1)]
                x = Field(p, coeffs)
                y = Field(p, [rng.randint(-3, 3) for _ in range(p - 1)])
                exact = oracle.to_complex(x * y + x - y)
                naive = (sum(c * zc ** k for k, c in enumerate(coeffs))
                         * sum(c * zc ** k for k, c in enumerate(y.coeffs))
                         + oracle.to_complex(x) - oracle.to_complex(y))
                assert abs(exact - naive) < 1e-9

    def test_galois_orbit_of_zeta(self):
        z = oracle.zeta(7)
        for k in range(1, 7):
            assert z.galois(k) == oracle.zeta(7, k)
        with pytest.raises(ValueError):
            z.galois(7)

    def test_powers(self):
        z = oracle.zeta(5)
        assert oracle.power(z, 5) == 1
        assert oracle.power(z, -1) == oracle.zeta(5, 4)

    def test_requires_odd_prime(self):
        with pytest.raises(ValueError):
            oracle.zeta(4)
        with pytest.raises(ValueError):
            oracle.zeta(2)


class TestRationalValue:
    def test_root_of_unity_sum(self):
        for p in (5, 7):
            total = sum((oracle.zeta(p, j) for j in range(2, p)),
                        oracle.zeta(p, 1))
            assert oracle.rational_value(total) == -1

    def test_embedded_constant(self):
        x = Field.from_rational(5, Fraction(7, 2))
        assert oracle.rational_value(x) == Fraction(7, 2)

    def test_symmetrized_sum(self):
        # sum over j = 1, 2 of zeta^j + zeta^-j at p = 5 covers every
        # nontrivial root once; direct summation gives -1.
        p = 5
        total = oracle.zero(p)
        for j in (1, 2):
            total = total + oracle.zeta(p, j) + oracle.zeta(p, -j)
        assert oracle.rational_value(total) == -1

    def test_rejects_non_invariant(self):
        with pytest.raises(oracle.NonRationalError):
            oracle.rational_value(oracle.zeta(5))


# -- the reference field's schoolbook convolution against the cyclic sum ----

def cyclic_sum(p, x, y):
    """Entry k of the product mod x^p - 1 as the sum of x[i] y[j] over
    i + j = k mod p, with no linear product and no fold."""
    out = [0] * p
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[(i + j) % p] += a * b
    return out


CONV_PRIMES = [p for p in range(3, 400) if is_prime(p)]
SMALL_PRIMES = [p for p in CONV_PRIMES if p <= 41]


@st.composite
def integer_vector(draw, length):
    """A vector of the given length whose entries reach +-2**bits, for a
    drawn bits <= 70 (so every digit width is exercised), all of one sign
    or mixed."""
    bits = draw(st.integers(min_value=0, max_value=70))
    sign = draw(st.sampled_from(["+", "-", "+-"]))
    lo = -(2 ** bits) if "-" in sign else 0
    hi = 2 ** bits if "+" in sign else 0
    return draw(st.lists(st.integers(min_value=lo, max_value=hi),
                         min_size=length, max_size=length))


@st.composite
def convolution_case(draw):
    """p up to a few hundred, and len(x) + len(y) - 1 below, equal to or
    above p (up to 2p each), with empty and one-entry vectors."""
    p = draw(st.sampled_from(CONV_PRIMES) if draw(st.booleans())
             else st.sampled_from(SMALL_PRIMES))
    relation = draw(st.sampled_from(["below", "equal", "above", "any"]))
    if relation == "below":
        total = draw(st.integers(min_value=1, max_value=p - 1))
    elif relation == "equal":
        total = p
    elif relation == "above":
        total = draw(st.integers(min_value=p + 1, max_value=4 * p - 1))
    else:
        total = None
    if total is None:
        lx = draw(st.sampled_from([0, 1, draw(st.integers(0, 2 * p))]))
        ly = draw(st.sampled_from([0, 1, draw(st.integers(0, 2 * p))]))
    else:  # len(x) + len(y) - 1 == total, both lengths >= 1
        lx = draw(st.integers(min_value=max(1, total + 1 - 2 * p),
                              max_value=min(2 * p, total)))
        ly = total + 1 - lx
    return p, draw(integer_vector(lx)), draw(integer_vector(ly))


@settings(max_examples=150, deadline=None)
@given(convolution_case())
def test_convolve_matches_schoolbook(case):
    p, x, y = case
    assert oracle.convolve(p, x, y) == cyclic_sum(p, x, y)


@pytest.mark.parametrize("p,x,y", [
    (5, [], []),
    (5, [], [1, 2, 3]),
    (5, [0] * 8, [7, -8, 9, 1, 2, 3]),
    (5, [0], [2 ** 70]),
    (7, [3], [-4]),
    (7, [-(2 ** 70)], [2 ** 70, -(2 ** 70), 1]),
    (3, [1] * 8, [1, -1, 1, 2, 3, 4, 5]),             # folds four times
    (7, [2 ** 30] * 6, [2 ** 30] * 6),                # eight-byte digits
    (7, [2 ** 32] * 6, [2 ** 32] * 6),                # nine-byte digits
    (7, [-(2 ** 20)] * 6, [2 ** 20] * 7),             # six-byte digits
    (13, list(range(-12, 14)), list(range(26, 0, -1))),
    # coefficients reaching the bound 8 * 2**44 = 2**47: in balanced
    # digits +2**47 needs seven bytes, although it fits in six
    (17, [-(2 ** 22)] * 8, [-(2 ** 22)] * 8),
    (17, [-(2 ** 22)] * 8, [2 ** 22] * 8),
])
def test_convolve_edge_vectors(p, x, y):
    assert oracle.convolve(p, x, y) == cyclic_sum(p, x, y)
    assert len(oracle.convolve(p, x, y)) == p


# -- representation: one numerator tuple over one positive denominator -------

def old_reduction(p, coeffs):
    """The Fraction-vector reduction mod Phi_p of the earlier
    representation: pad to length p, subtract the zeta^(p-1) coordinate."""
    vec = [Fraction(c) for c in coeffs] + [Fraction(0)] * (p - len(coeffs))
    top = vec[p - 1]
    return tuple(c - top for c in vec[: p - 1])


def assert_canonical(x):
    assert len(x.nums) == x.p - 1
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    assert all(type(n) is int for n in x.nums + (x.den,))


fractions = st.fractions(max_denominator=10 ** 6).filter(
    lambda f: abs(f.numerator) < 10 ** 12)


@st.composite
def element(draw, p):
    return Field(p, draw(st.lists(fractions, max_size=p)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_operation_returns_lowest_terms(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    x, y = data.draw(element(p)), data.draw(element(p))
    q = data.draw(fractions)
    k = data.draw(st.integers(min_value=1, max_value=p - 1))
    nums = data.draw(st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=p))
    den = data.draw(st.integers(-10 ** 6, 10 ** 6).filter(bool))
    for value in (x, y, x + y, x - y, x - x, -x, x * y, x * q, q * x,
                  x * 0, x + q, q - x, x.galois(k),
                  Field.from_numerators(p, nums, den)):
        assert_canonical(value)
    assert (x - x).den == 1 and not any((x - x).nums)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equal_elements_built_differently_agree(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    coeffs = data.draw(st.lists(fractions, min_size=p, max_size=p))
    x = Field(p, coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    scale = data.draw(st.integers(-50, 50).filter(bool))
    y = Field.from_numerators(
        p, [c.numerator * (den // c.denominator) * scale for c in coeffs],
        den * scale)
    k = data.draw(st.integers(min_value=1, max_value=p - 1))
    z = x.galois(k).galois(pow(k, -1, p))
    w = Field(p, list(x.coeffs))
    for other in (y, z, w):
        assert other == x and hash(other) == hash(x)
        assert (other.nums, other.den) == (x.nums, x.den)
    assert Field.from_numerators(p, [6 * n for n in x.nums], 6 * x.den) == x


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coeffs_match_the_fraction_reduction(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    coeffs = data.draw(st.lists(fractions, max_size=p))
    assert Field(p, coeffs).coeffs == old_reduction(p, coeffs)
    nums = data.draw(st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=p))
    den = data.draw(st.integers(-10 ** 6, 10 ** 6).filter(bool))
    assert (Field.from_numerators(p, nums, den).coeffs
            == old_reduction(p, [Fraction(n, den) for n in nums]))


def test_zero_and_rationals_are_canonical():
    assert (oracle.zero(7).nums, oracle.zero(7).den) == ((0,) * 6, 1)
    assert Field.from_numerators(7, [0] * 7, -9) == oracle.zero(7)
    half = Field.from_rational(5, Fraction(-3, 6))
    assert (half.nums, half.den) == ((-1, 0, 0, 0), 2)
    assert half == Fraction(-1, 2) and hash(half) == hash(
        Field.from_numerators(5, [5, 0, 0, 0, 0], -10))
    with pytest.raises(ZeroDivisionError):
        Field.from_numerators(5, [1], 0)
    with pytest.raises(ValueError):
        Field.from_numerators(5, [1] * 6, 1)
