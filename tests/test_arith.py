"""Continued fractions and cyclotomic field arithmetic."""

import cmath
import random
from fractions import Fraction

import pytest

import spectral_oracle as oracle
from brieskorn import Cyclotomic, hj_evaluate, hj_expand


def eval_oracle(terms):
    """Independent bottom-up evaluation of t1 - 1/(t2 - 1/(...))."""
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        value = Fraction(t) - Fraction(1) / value
    return value


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
            assert hj_evaluate(exp.terms) == Fraction(a, b)

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
            total = sum((Cyclotomic.zeta(p, j) for j in range(1, p)),
                        Cyclotomic.one(p))
            assert oracle.is_zero(total)

    def test_inverse(self):
        z = Cyclotomic.zeta(5)
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

        z = Cyclotomic.zeta(3)
        value = oracle.div((z + 1) * (z * z + 1), (z - 1) * (z * z - 1))
        assert value == Fraction(num[0], den[0]) == Fraction(1, 3)

    def test_field_axioms_random(self):
        rng = random.Random(13)
        for p in (5, 7):
            def rand_elt():
                return Cyclotomic(p, [Fraction(rng.randint(-4, 4),
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
                x = Cyclotomic(p, coeffs)
                y = Cyclotomic(p, [rng.randint(-3, 3) for _ in range(p - 1)])
                exact = oracle.to_complex(x * y + x - y)
                naive = (sum(c * zc ** k for k, c in enumerate(coeffs))
                         * sum(c * zc ** k for k, c in enumerate(y.coeffs))
                         + oracle.to_complex(x) - oracle.to_complex(y))
                assert abs(exact - naive) < 1e-9

    def test_galois_orbit_of_zeta(self):
        z = Cyclotomic.zeta(7)
        for k in range(1, 7):
            assert z.galois(k) == Cyclotomic.zeta(7, k)
        with pytest.raises(ValueError):
            z.galois(7)

    def test_powers(self):
        z = Cyclotomic.zeta(5)
        assert oracle.power(z, 5) == 1
        assert oracle.power(z, -1) == Cyclotomic.zeta(5, 4)

    def test_requires_odd_prime(self):
        with pytest.raises(ValueError):
            Cyclotomic.zeta(4)
        with pytest.raises(ValueError):
            Cyclotomic.zeta(2)


class TestRationalValue:
    def test_root_of_unity_sum(self):
        for p in (5, 7):
            total = sum((Cyclotomic.zeta(p, j) for j in range(2, p)),
                        Cyclotomic.zeta(p, 1))
            assert oracle.rational_value(total) == -1

    def test_embedded_constant(self):
        x = Cyclotomic.from_rational(5, Fraction(7, 2))
        assert oracle.rational_value(x) == Fraction(7, 2)

    def test_symmetrized_sum(self):
        # sum over j = 1, 2 of zeta^j + zeta^-j at p = 5 covers every
        # nontrivial root once; direct summation gives -1.
        p = 5
        total = Cyclotomic.zero(p)
        for j in (1, 2):
            total = total + Cyclotomic.zeta(p, j) + Cyclotomic.zeta(p, -j)
        assert oracle.rational_value(total) == -1

    def test_rejects_non_invariant(self):
        with pytest.raises(oracle.NonRationalError):
            oracle.rational_value(Cyclotomic.zeta(5))
