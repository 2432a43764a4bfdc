"""Reference kernels for the spectral stage, kept as test oracles.

The reference field Q(zeta_p) lives here: ``Field`` stores an element as
its canonical residue modulo Phi_p = 1 + x + ... + x^(p-1), one integer
numerator tuple over the basis 1, zeta, ..., zeta^(p-2) over one positive
denominator in lowest terms, so equality, hashing and the Galois action
are exact.  It has the Fraction-vector constructor, rational values,
sums, negation and the product by the schoolbook ``convolve``, with
equality against rationals.  The package's own values are length-p int
vectors v standing for sum_i v_i zeta^i / p^2, exact only up to an added
constant vector; a test lifts one into the reference field with ``lift``,
which reduces it, before it compares or computes with it.  Around the
field sit the constructors zero, one and zeta^k, the zero test, the shift
by a power of zeta, the Euclid inverse against Phi_p with division,
powers (negative ones invert first), the Galois-checked rational value,
the float embedding, the lens-space torsion representative and the
Galois-checked profile of a package vector.

The kernels are the schoolbook integer convolution, the convolution path
of nu (p^2 nu as the product of two integer coth vectors, in the
package's vector format: the oracle for its recurrence, whose vector is
this one less the constant 4 T(0), with T(0) summed by
``cross_term_at_zero``), the dense-``Fraction`` version of the
cyclotomic product, the Euclid-based inverse of zeta^m - 1, the
three-product isolated-point defect, the fixed-sphere defect by Euclid
division, eta(zeta) summed one package nu vector per fixed point (the
oracle for the sum by class), eta evaluated separately at every
zeta^j, the Galois-checked eta profile and its inverse transform, the
Fourier and cotangent-sum rho transforms (integer vectors over a common
denominator, each entry checked rational), and the lens search that
scans every pair (r, s).  The package
computes eta(zeta) once and reads rho tables and lens matches off it; the
tests in ``test_spectral_kernels.py`` check that both paths agree exactly.

``eta_orbifold`` is eta(zeta) from the Seifert invariants alone, by the
orbifold G-signature formula, with no resolution and no markup: its
exact vector is summed over D = lcm(a1 a2 a3, a1^2, a2^2, a3^2) and must
divide by it.  Its cone terms read H by the direct sum, a table
recurrence or floor sums.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Sequence, Union

from brieskorn import spectral
from brieskorn.arith import is_prime
from brieskorn.records import InternalInvariantError
from brieskorn.seifert import check_order, seifert_invariants
from brieskorn.spectral import LensCandidate, canonical_lens_pair

Scalar = Union[int, Fraction]


def convolve(p: int, x, y):
    """Cyclic product of two integer vectors modulo x^p - 1 (length p),
    by the schoolbook double loop."""
    full = [0] * max(len(x) + len(y) - 1, p)
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                full[k] += a * b
    for k in range(len(full) - 1, p - 1, -1):
        full[k - p] += full[k]
    return full[:p]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _canonical(p: int, nums: Sequence[int], den: int):
    """sum_i (nums[i]/den) zeta^i, len(nums) <= p, as a reduced numerator
    tuple of length p - 1 over a positive denominator, in lowest terms."""
    if len(nums) > p:
        raise ValueError("coefficient vector longer than the field degree")
    if not den:
        raise ZeroDivisionError("zero denominator")
    # Kill the zeta^(p-1) coordinate via zeta^(p-1) = -(1 + ... + zeta^(p-2)).
    top = nums[p - 1] if len(nums) == p else 0
    vec = [n - top for n in nums[: p - 1]] if top else list(nums[: p - 1])
    vec += [0] * (p - 1 - len(vec))
    g = gcd(den, *vec)
    if den < 0:
        g = -g
    if g != 1:
        vec = [n // g for n in vec]
        den //= g
    return tuple(vec), den


class Field:
    """An element of the reference field Q(zeta_p) (p an odd prime):
    sum_i (nums[i]/den) zeta^i for i < p - 1, with den > 0 and
    gcd(den, *nums) = 1 (zero is stored with den = 1), with the ring
    operations, mixed freely with ints and Fractions."""

    __slots__ = ("p", "nums", "den")

    def __init__(self, p: int, coeffs: Sequence[Scalar]):
        if not is_prime(p) or p < 3:
            raise ValueError(f"order must be an odd prime >= 3, got {p}")
        vec = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vec))
        self.p = p
        self.nums, self.den = _canonical(
            p, [c.numerator * (den // c.denominator) for c in vec], den)

    @classmethod
    def _raw(cls, p: int, nums, den: int) -> "Field":
        # Internal fast path: (nums, den) already canonical.
        self = object.__new__(cls)
        self.p, self.nums, self.den = p, nums, den
        return self

    @classmethod
    def from_numerators(cls, p: int, nums: Sequence[int], den: int) -> "Field":
        """The element sum_i (nums[i]/den) zeta^i, for len(nums) <= p and
        den != 0: one reduction mod Phi_p and one gcd pass."""
        return cls._raw(p, *_canonical(p, nums, den))

    @classmethod
    def from_rational(cls, p: int, value: Scalar) -> "Field":
        return cls(p, [value])

    @property
    def coeffs(self):
        """The coefficients over 1, zeta, ..., zeta^(p-2) as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def galois(self, k: int) -> "Field":
        """The automorphism zeta -> zeta^k, for k coprime to p.

        It permutes the basis of Z[zeta] (up to the reduction), an
        invertible integer map, so the image stays in lowest terms."""
        p = self.p
        if gcd(k, p) != 1:
            raise ValueError(f"{k} is not invertible mod {p}")
        kinv = pow(k, -1, p)
        src = self.nums + (0,)
        full = [src[(j * kinv) % p] for j in range(p)]  # coefficient of zeta^j
        top = full[p - 1]
        return Field._raw(
            p, tuple(a - top for a in full[: p - 1]) if top else tuple(full[: p - 1]),
            self.den)

    def _coerce(self, other) -> "Field":
        if isinstance(other, Field):
            if other.p != self.p:
                raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")
            return other
        return Field.from_rational(self.p, other)

    def _combine(self, other, sign: int) -> "Field":
        # self + sign * other over the least common denominator.
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        sx, sy = den // self.den, sign * (den // other.den)
        return Field.from_numerators(
            self.p, [a * sx + b * sy for a, b in zip(self.nums, other.nums)], den)

    def __add__(self, other) -> "Field":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Field":
        return Field._raw(self.p, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other) -> "Field":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Field":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Field":
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return Field.from_numerators(
                self.p, [a * q.numerator for a in self.nums],
                self.den * q.denominator)
        other = self._coerce(other)
        return Field.from_numerators(
            self.p, convolve(self.p, self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Field.from_rational(self.p, other)
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p == other.p and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.p, self.nums, self.den))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"Field(p={self.p}, {body})"


def lift(v) -> Field:
    """The package's vector v, sum_i v_i zeta^i / p^2 for p = len(v), as an
    element of the reference field."""
    return Field.from_numerators(len(v), v, len(v) ** 2)


def profile(v) -> "EtaProfile":
    """The Galois-checked profile j -> value at zeta^j of the package's
    vector v."""
    x = lift(v)
    return EtaProfile(x.p, {j: x.galois(j) for j in range(1, x.p)})


class NonRationalError(ValueError):
    """A cyclotomic number expected to be Galois-invariant was not."""


def zero(p: int) -> Field:
    return Field(p, [])


def one(p: int) -> Field:
    return Field(p, [1])


def zeta(p: int, k: int = 1) -> Field:
    """zeta_p^k (any integer k, exponent taken mod p)."""
    vec = [0] * p
    vec[k % p] = 1
    return Field(p, vec)


def coth_numerators(p: int, m: int):
    """p(1 + 2/(zeta^m - 1)) = p + 2 sum_k k zeta^{mk} as a length-p
    integer vector."""
    out = [0] * p
    out[0] = p
    for k in range(1, p):
        out[(m * k) % p] = 2 * k
    return out


def nu_by_convolution(a: int, b: int, p: int):
    """The package's vector of nu(a, b; zeta), p^2 nu, as the cyclic
    product of the two coth vectors: the convolution path the package's
    recurrence replaces."""
    check_order(p)
    a, b = a % p, b % p
    if a == 0 or b == 0:
        raise ValueError(f"rotation pair ({a},{b}) must be nonzero mod {p}")
    return tuple(convolve(p, coth_numerators(p, a), coth_numerators(p, b)))


def cross_term_at_zero(a: int, b: int, p: int) -> int:
    """T(0) = sum_{k>=1} k (p - (d k mod p)) for d = a b^-1 mod p: the
    cross term (A_a * A_b)[0] of nu(a, b; zeta)'s product vector, by one
    O(p) sum.  The package's kernel starts its walk at T(0) := 0, so its
    vector is nu_by_convolution less 4 T(0) in every entry."""
    d = a * pow(b, -1, p) % p
    return sum(k * (p - d * k % p) for k in range(1, p))


def inverse(x: Field) -> Field:
    """Field inverse via the extended Euclidean algorithm against Phi_p."""
    if is_zero(x):
        raise ZeroDivisionError("division by zero in Q(zeta_p)")
    p = x.p
    phi = [Fraction(1)] * p  # Phi_p = 1 + x + ... + x^(p-1)
    r0, t0 = phi, [Fraction(0)]
    r1, t1 = list(x.coeffs), [Fraction(1)]
    while _poly_degree(r1) > 0:
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    if _poly_degree(r1) != 0:
        raise ArithmeticError("gcd with Phi_p is not constant; p not prime?")
    c = r1[0]
    return Field(p, [y / c for y in t1])


def div(x, y) -> Field:
    """x / y in Q(zeta_p); either side may be a rational scalar."""
    p = x.p if isinstance(x, Field) else y.p
    if not isinstance(y, Field):
        y = Field.from_rational(p, y)
    return x * inverse(y)


def is_zero(x: Field) -> bool:
    return all(c == 0 for c in x.coeffs)


def mul_zeta_power(x: Field, k: int) -> Field:
    """x * zeta^k, as a cyclic coefficient shift."""
    full = [Fraction(0)] * x.p
    for i, a in enumerate(x.coeffs):
        full[(i + k) % x.p] = a
    return Field(x.p, full)


def power(x: Field, n: int) -> Field:
    """x^n for any integer n; a negative power inverts first."""
    if n < 0:
        return power(inverse(x), -n)
    result = one(x.p)
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def torsion_lens(p: int, r: int, s: int) -> Field:
    """Reidemeister torsion representative (zeta^r - 1)(zeta^s - 1)."""
    check_order(p)
    if gcd(r * s, p) != 1:
        raise ValueError(f"rotation numbers ({r},{s}) must be coprime to {p}")
    return (zeta(p, r) - 1) * (zeta(p, s) - 1)


def is_rational(x: Field) -> bool:
    return all(c == 0 for c in x.coeffs[1:])


def rational_value(x: Field) -> Fraction:
    """The value of a Galois-invariant element, as an exact rational.

    Invariance is verified by applying every automorphism; a
    non-invariant input raises NonRationalError rather than being
    projected.
    """
    for k in range(2, x.p):
        if x.galois(k) != x:
            raise NonRationalError(
                f"not fixed by zeta -> zeta^{k}; no rational value")
    if not is_rational(x):
        # Invariant under the full Galois group but not a constant
        # vector: impossible for prime p (the fixed field is Q).
        raise NonRationalError("Galois-invariant element is not constant")
    return x.coeffs[0]


def to_complex(x: Field) -> complex:
    """Float embedding at zeta = e^(2 pi i / p) (cross-checks only)."""
    z = cmath.exp(2j * cmath.pi / x.p)
    return sum(float(c) * z ** k for k, c in enumerate(x.coeffs))


# -- dense polynomial helpers over Fraction (for the inverse only) ----------

def _poly_degree(f) -> int:
    for i in range(len(f) - 1, -1, -1):
        if f[i] != 0:
            return i
    return -1


def _poly_sub(f, g):
    n = max(len(f), len(g))
    f = list(f) + [Fraction(0)] * (n - len(f))
    g = list(g) + [Fraction(0)] * (n - len(g))
    return [a - b for a, b in zip(f, g)]


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1 if f and g else 0)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] += a * b
    return out


def _poly_divmod(f, g):
    df, dg = _poly_degree(f), _poly_degree(g)
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f) + [Fraction(0)] * (max(df, dg) + 1 - len(f))
    quot = [Fraction(0)] * (max(df - dg, 0) + 1)
    lead = g[dg]
    for k in range(df - dg, -1, -1):
        c = rem[k + dg] / lead
        if c:
            quot[k] = c
            for i in range(dg + 1):
                rem[k + i] -= c * g[i]
    return quot, rem



def mul(x: Field, y: Field) -> Field:
    """Dense convolution over Fraction, then reduction mod Phi_p."""
    p = x.p
    full = [Fraction(0)] * p
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            if b:
                full[(i + j) % p] += a * b
    return Field(p, full)


@lru_cache(maxsize=None)
def inv_zeta_minus_one(p: int, m: int) -> Field:
    """1/(zeta^m - 1) by the extended Euclidean algorithm against Phi_p."""
    return inverse(zeta(p, m) - 1)


@lru_cache(maxsize=None)
def nu_defect(a: int, b: int, p: int, j: int = 1) -> Field:
    """(t^a+1)(t^b+1) / ((t^a-1)(t^b-1)) at t = zeta^j, as three products."""
    a, b, j = a % p, b % p, j % p
    za = zeta(p, j * a)
    zb = zeta(p, j * b)
    return mul(mul(mul(za + 1, zb + 1), inv_zeta_minus_one(p, j * a)),
               inv_zeta_minus_one(p, j * b))


def sphere_defect(w: int, c: int, p: int, j: int = 1) -> Field:
    """w * (-4 t^c)/(t^c - 1)^2 at t = zeta^j, by Euclid division."""
    zc = zeta(p, j * c)
    return mul(mul(Field.from_rational(p, -4 * w), zc),
               inverse(mul(zc - 1, zc - 1)))


def eta_value(markup, signature: int, j: int) -> Field:
    """eta at zeta^j of a markup's fixed set and a signature, summed term
    by term over Fraction."""
    p = markup.p
    total = Field.from_rational(p, -signature)
    for a, b in markup.isolated_points:
        total = total + nu_defect(a, b, p, j)
    for _, w, c in markup.fixed_spheres:
        total = total + sphere_defect(w, c, p, j)
    return total


def eta_per_term(markup, signature: int):
    """eta(zeta) in the package's vector format, summed term by term: one
    package nu_defect vector per isolated point and per fixed sphere,
    added in turn.  The oracle for eta_from_fixed_data, which adds one
    vector per class (a, b) with its multiplicity."""
    p = markup.p
    terms = [(1, a, b) for a, b in markup.isolated_points]
    terms += [(-w, c, c) for _, w, c in markup.fixed_spheres]
    acc = [0] * p
    acc[0] = p * p * (sum(w for _, w, _ in markup.fixed_spheres) - signature)
    for k, a, b in terms:
        acc = [s + k * n for s, n in zip(acc, spectral.nu_defect(a, b, p))]
    return tuple(acc)


# ---------------------------------------------------------------------------
# eta from the Seifert invariants alone (the orbifold G-signature formula)
# ---------------------------------------------------------------------------
#
# With f(u) = (u + 1)/(u - 1), P = a1 a2 a3, beta_i = |b_i| for the
# Seifert invariants b_i, w_i = e^(2 pi i / a_i) and
# L(t) = -4t/(t - 1)^2 = 1 - nu(1, 1; t),
#
#     eta(t) = 1 - L(t)/P + sum_i C_i(t),
#     C_i(t) = (1/a_i) sum_{k=1}^{a_i - 1} f(w_i^k) f(w_i^(beta_i k) t).
#
# In the package's vector format (entries scaled by p^2) the term 1 is p^2
# at entry 0, -L/P is (nu(1, 1) - p^2 e_0)/P, and C_i has entry j equal
# to (2 p^2 / a_i^2) H_i(pi_i j mod a_i), for pi_i = p^-1 mod a_i,
# kappa_i = (beta_i p)^-1 mod a_i and
#
#     H(s) = sum_{y=1}^{a-1} (a - 2y) ((kappa y - s) mod a).
#
# The terms are summed over D = lcm(P, a1^2, a2^2, a3^2), and every
# entry's difference from entry 0 must divide by D.  The formula replaces
# each branch's chain of fixed points by one cone-point average
# (Kawasaki, Topology 17 (1978)), so its cost does not grow with the
# number of nodes.


def h_direct(a: int, kappa: int, residues):
    """H(s) at each s of residues, summed directly: O(a) per s."""
    return [sum((a - 2 * y) * ((kappa * y - s) % a) for y in range(1, a))
            for s in residues]


def h_table(a: int, kappa: int, residues):
    """H(s) at each s of residues, read off the table H(0), ..., H(a - 1)
    built by H(s + 1) = H(s) + a (a - 2 y*) with y* = kappa^-1 s mod a
    (the term is 0 when y* = 0): raising s by one lowers every residue
    (kappa y - s) mod a by one except at y = y*, where it wraps from 0 to
    a - 1, and the weights a - 2y sum to 0.  O(a)."""
    inverse_kappa = pow(kappa, -1, a)
    table = h_direct(a, kappa, [0])
    for s in range(a - 1):
        y = inverse_kappa * s % a
        table.append(table[-1] + (a * (a - 2 * y) if y else 0))
    return [table[s] for s in residues]


def floor_sums(a: int, b: int, c: int, n: int):
    """(F, G, S): the sums over i = 0..n of q_i, i q_i and q_i^2 for
    q_i = floor((a i + b)/c), with a, b >= 0 and c > 0, by the Euclid-like
    recursion behind Dedekind-sum reciprocity: O(log) steps."""
    if a >= c or b >= c:
        qa, qb = a // c, b // c
        f, g, h = floor_sums(a % c, b % c, c, n)
        s1, s2 = n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6
        return (f + qa * s1 + qb * (n + 1), g + qa * s2 + qb * s1,
                h + qa * qa * s2 + qb * qb * (n + 1) + 2 * qa * qb * s1
                + 2 * qb * f + 2 * qa * g)
    m = (a * n + b) // c
    if m == 0:
        return 0, 0, 0
    f, g, h = floor_sums(c, c - b - 1, a, m - 1)
    total = n * m - f
    return (total, (m * n * (n + 1) - h - f) // 2,
            n * m * (m + 1) - 2 * g - 2 * f - total)


def h_floor(a: int, kappa: int, residues):
    """H(s) at each s of residues by floor sums, O(log a) per s: with
    B = a - s, (kappa y - s) mod a = kappa y + B - a floor((kappa y + B)/a),
    and the weights a - 2y sum to 0, so
    H(s) = kappa (a a(a-1)/2 - (a-1) a (2a-1)/3) - a (a F0 - 2 F1) for
    F0 and F1 the sums over y = 1..a-1 of floor((kappa y + B)/a) and of y
    times it."""
    weights = kappa * (a * a * (a - 1) // 2 - (a - 1) * a * (2 * a - 1) // 3)
    out = []
    for s in residues:
        f, g, _ = floor_sums(kappa, a - s, a, a - 1)
        f -= (a - s) // a          # the term at y = 0
        out.append(weights - a * (a * f - 2 * g))
    return out


def orbifold_terms(triple, p: int, h=h_direct, betas=None):
    """D and the terms of eta(zeta) from the Seifert invariants, each a
    length-p int vector in the package's format scaled by D: "1", the
    nu(1, 1)/P and -p^2 e_0/P halves of -L/P, and "cones", the sum of
    the C_i with each H_i by h.  betas defaults to the |b_i|."""
    entries, product = triple.entries, triple.product
    if betas is None:
        betas = [-b for b in seifert_invariants(triple).b]
    d = lcm(product, *(a * a for a in entries))
    e0 = [1] + [0] * (p - 1)
    cones = [0] * p
    for a, beta in zip(entries, betas):
        pi, kappa = pow(p, -1, a), pow(beta * p, -1, a)
        weight = 2 * p * p * (d // (a * a))
        values = h(a, kappa, [pi * j % a for j in range(p)])
        cones = [x + weight * v for x, v in zip(cones, values)]
    return d, {
        "1": [d * p * p * x for x in e0],
        "nu(1,1)/P": [d // product * n for n in spectral.nu_defect(1, 1, p)],
        "-p^2 e_0/P": [-(d // product) * p * p * x for x in e0],
        "cones": cones,
    }


def eta_from_terms(d: int, terms):
    """The sum of the terms over d as an int vector, equal up to an added
    constant; a difference from entry 0 that d does not divide raises
    InternalInvariantError."""
    total = [sum(column) for column in zip(*terms.values())]
    if any((x - total[0]) % d for x in total):
        raise InternalInvariantError(
            f"an entry of eta's terms differs from entry 0 by a non-multiple "
            f"of D = {d}")
    return tuple((x - total[0] % d) // d for x in total)


def eta_orbifold(triple, p: int, h=h_direct):
    """eta(zeta) of the quotient data of Sigma(a1, a2, a3) from its
    Seifert invariants alone, equal to eta_brieskorn up to an added
    constant."""
    check_order(p)
    return eta_from_terms(*orbifold_terms(triple, p, h))


def eta_values(markup, signature: int):
    """j -> eta at zeta^j, each evaluated on its own."""
    return {j: eta_value(markup, signature, j) for j in range(1, markup.p)}


def _rotated(row, shift):
    """A length-p vector multiplied by zeta^shift (a cyclic rotation)."""
    shift %= len(row)
    return row[-shift:] + row[:-shift] if shift else row


def _numerator_rows(values):
    """Length-p integer vectors of the values over their common denominator."""
    den = lcm(*(x.den for x in values))
    return [[n * (den // x.den) for n in x.nums] + [0] for x in values], den


def rho_from_eta(values, p: int):
    """rho(l) = (1/p) sum_j eta_j (zeta^{jl} - 1), each entry checked
    Galois-invariant by rational_value."""
    rows, den = _numerator_rows([values[j] for j in range(1, p)])
    base = [-sum(col) for col in zip(*rows)]
    out = []
    for ell in range(p):
        acc = base
        for j, row in enumerate(rows, 1):
            acc = [a + b for a, b in zip(acc, _rotated(row, j * ell))]
        out.append(rational_value(Field.from_numerators(p, acc, den)) / p)
    return tuple(out)


def rho_lens_exact(p: int, r: int, s: int, ell: int) -> Fraction:
    """(1/2p) sum_k nu(r,s;zeta^k) (zeta^{kl} + zeta^{-kl} - 2), the
    cotangent sum in cyclotomic form, checked Galois-invariant."""
    rows, den = _numerator_rows([nu_defect(r, s, p, k) for k in range(1, p)])
    acc = [0] * p
    for k, row in enumerate(rows, 1):
        acc = [a + x + y - 2 * z for a, x, y, z in
               zip(acc, _rotated(row, k * ell), _rotated(row, -k * ell), row)]
    return (rational_value(Field.from_numerators(p, acc, den))
            * Fraction(1, 2 * p))


@dataclass(frozen=True)
class EtaProfile:
    """Map j -> eta at t = zeta^j, checked Galois-equivariant: the value at
    j must be the image of the value at 1 under zeta -> zeta^j."""

    p: int
    values: Dict[int, Field]

    def __post_init__(self):
        if sorted(self.values) != list(range(1, self.p)):
            raise ValueError("profile must cover j = 1 .. p-1")
        base = self.values[1]
        for j in range(2, self.p):
            if self.values[j] != base.galois(j):
                raise ValueError(f"profile is not Galois-equivariant at j={j}")


def eta_from_rho(table, j: int) -> Field:
    """Inverse transform sum_l rho(l) zeta^{-jl}, recovering eta at zeta^j."""
    p = len(table)
    total = zero(p)
    for ell, rho in enumerate(table):
        if rho:
            total = total + mul_zeta_power(Field.from_rational(p, rho), -j * ell)
    return total


def _residue_class(x: int, p: int) -> int:
    r = x % p
    return min(r, p - r)


def ll_extension_search(triple, p: int, sigma_rho):
    """Scan every canonical pair (r, s) mod p for the multiset and product
    congruences and compare full rho tables (sigma_rho against the lens
    table from rho_lens_exact)."""
    product_residue = triple.product % p
    target = tuple(sorted(_residue_class(a, p) for a in triple.entries))
    candidates = []
    seen = set()
    for r in range(1, p):
        for s in range(r, p):
            pair = canonical_lens_pair(r, s, p)
            if pair in seen:
                continue
            seen.add(pair)
            multiset = tuple(sorted((_residue_class(r, p), _residue_class(s, p), 1)))
            if multiset != target or (r * s) % p != product_residue:
                continue
            lens_rho = tuple(rho_lens_exact(p, pair[0], pair[1], ell)
                             for ell in range(p))
            candidates.append(LensCandidate(
                p=p, r=pair[0], s=pair[1],
                product_residue=product_residue,
                rs_residue=(r * s) % p,
                multiset_residues=target,
                rho_match=(lens_rho == sigma_rho),
            ))
    return tuple(sorted(candidates, key=lambda c: (c.r, c.s)))
