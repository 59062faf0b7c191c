"""Tests for the exact polynomial / rational-function arithmetic layer."""

from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prymkit import polynomials
from prymkit.covers import _powmod
from prymkit.polynomials import (
    Poly,
    RatFunc,
    TPoly,
    _divmod,
    _gcd_mod,
    _igcd,
    _mul,
    _pack,
    _unpack,
    horner,
    power,
    pseudo_remainder,
    resultant,
    yun_squarefree,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
polys = st.lists(rationals, min_size=0, max_size=5).map(Poly)
# t-polynomials over Q[x]: zero coefficients leave degree gaps in t, which
# make the remainder sequence abnormal
xpolys = st.one_of(st.just(Poly.zero()), st.lists(rationals, max_size=3).map(Poly))
tpolys = st.lists(xpolys, max_size=5).map(lambda cs: TPoly(cs, Poly.zero()))
monic_tpolys = st.lists(xpolys, min_size=1, max_size=2).map(
    lambda cs: TPoly(cs + [Poly.one()], Poly.zero()))


def tp(*rows) -> TPoly:
    """t-polynomial from ascending rows of ascending x-coefficients."""
    return TPoly([Poly(r) for r in rows], Poly.zero())


def at(p: Poly, x0) -> Fraction:
    """p(x0) by Horner's rule on the Fraction coefficients."""
    return horner(p.coeffs, Fraction(x0), Fraction(0))


def tdivmod(a: TPoly, b: TPoly) -> tuple[TPoly, TPoly]:
    """(q, r) with a = q*b + r and deg r < deg b, for b monic: schoolbook
    division, each quotient coefficient the popped leading coefficient."""
    *low, _ = b.coeffs
    r, q = list(a.coeffs), []
    while len(r) > len(low):
        q.append(r.pop())
        for k, c in enumerate(low):
            r[len(r) - len(low) + k] -= q[-1] * c
    return TPoly(q[::-1], Poly.zero()), TPoly(r, Poly.zero())


def sylvester_resultant_at(a: TPoly, b: TPoly, x0: Fraction) -> Fraction:
    """Res_t(a, b) at x = x0 as the determinant of the Sylvester matrix of
    the formal degrees, by Gaussian elimination over Fraction."""
    da, db = a.degree, b.degree
    ca = [at(a.coeff(k), x0) for k in range(da, -1, -1)]
    cb = [at(b.coeff(k), x0) for k in range(db, -1, -1)]
    n, zero = da + db, Fraction(0)
    m = [[zero] * i + ca + [zero] * (db - 1 - i) for i in range(db)]
    m += [[zero] * i + cb + [zero] * (da - 1 - i) for i in range(da)]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def sympy_sqf_blocks(p: TPoly) -> list[tuple[TPoly, int]]:
    """Squarefree decomposition in t by sympy over QQ.frac_field(x),
    converted back to monic t-polynomials with Poly coefficients."""
    x, t = sympy.symbols("x t")
    expr = sympy.Integer(0)
    for k in range(p.degree + 1):
        expr += sum(sympy.Rational(a.numerator, a.denominator) * x ** i
                    for i, a in enumerate(p.coeff(k).coeffs)) * t ** k
    sp = sympy.Poly(expr, t, domain=sympy.QQ.frac_field(x))
    out = []
    for fac, e in sp.sqf_list()[1]:
        coeffs = [Poly([str(c) for c in reversed(
                      sympy.Poly(sympy.cancel(fac.nth(k)), x).all_coeffs())])
                  for k in range(fac.degree() + 1)]
        out.append((TPoly(coeffs, Poly.zero()), int(e)))
    return out


class TestPoly:
    def test_degree_and_normalization(self):
        assert Poly((1, 2, 0, 0)).degree == 1
        assert Poly.zero().degree == -1
        assert Poly((0,)).is_zero()

    @settings(max_examples=80, deadline=None)
    @given(polys, polys)
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero()

    @settings(max_examples=80, deadline=None)
    @given(polys, polys)
    def test_gcd_divides_both(self, a, b):
        g = a.gcd(b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        assert (a % g).is_zero()
        assert (b % g).is_zero()
        assert g.lc == 1

    def test_exact_division_raises_on_remainder(self):
        with pytest.raises(ValueError):
            Poly((1, 1)) / Poly((0, 1))

    def test_evaluation_and_roots(self):
        p = Poly((-1, 0, 1))   # x^2 - 1
        assert at(p, 1) == 0 and at(p, 2) == 3
        assert at(p, "1/2") == Fraction(-3, 4)
        assert at(p, -1) == 0 and at(p * p, -1) == 0 and at(p, 3) == 8

    def test_power_edges(self):
        x = Poly.x()
        t = TPoly((Poly.zero(), Poly.one()), Poly.zero())
        for base, one in ((x, Poly.one()), (t, TPoly((Poly.one(),), Poly.zero()))):
            assert base ** 0 == one
            assert power(base, 1) is base
            with pytest.raises(ValueError):
                base ** -1
            with pytest.raises(ValueError):
                power(base, 0)

    def test_power_squares_only_what_it_uses(self, monkeypatch):
        # x ** 5, 5 = 0b101: the result starts at x, so two squarings and
        # one product into it, and none with the unit
        calls = []
        mul = Poly.__mul__

        def counting_mul(a, b):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        assert Poly.x() ** 5 == Poly((0, 0, 0, 0, 0, 1))
        assert len(calls) == 3

    def test_squarefree_predicate(self):
        assert Poly((-1, 0, 1)).is_squarefree()
        assert not (Poly((0, 1)) * Poly((0, 1))).is_squarefree()


def ref(cs) -> tuple:
    """Reference form of a polynomial: Fraction coefficients, ascending,
    trailing zeros dropped."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1) -> tuple:
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return ref(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_divmod(a, b) -> tuple[tuple, tuple]:
    """Schoolbook long division over Q."""
    r, k = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(a) - k, 0)
    for i in range(len(a) - 1 - k, -1, -1):
        q[i] = r[i + k] / b[-1]
        for j, c in enumerate(b):
            r[i + j] -= q[i] * c
    return ref(q), ref(r[:k])


def assert_canonical(p: Poly):
    """Positive denominator prime to the content, no trailing zero, zero
    stored as ((), 1), and coeffs its Fraction reading."""
    assert p.denom > 0 and gcd(p.denom, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0
    assert p.ints or p.denom == 1
    assert p.coeffs == tuple(Fraction(c, p.denom) for c in p.ints)


big_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
coeff_lists = st.lists(big_rationals, max_size=7).map(ref)
divisors = coeff_lists.filter(bool)
# non-monic divisors with fractional coefficients, the leading one negative
FRACTIONAL = (Fraction(1, 3), Fraction(-2, 5), Fraction(-5, 6))


class TestPolyIntegerCore:
    """The integer numerators over one denominator against the Fraction
    reference above."""

    @settings(max_examples=150, deadline=None)
    @given(coeff_lists, coeff_lists, big_rationals)
    @example((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2),), Fraction(2))
    def test_ring_operations(self, a, b, c):
        pa, pb = Poly(a), Poly(b)
        for got, want in ((pa + pb, ref_add(a, b)), (pa - pb, ref_add(a, b, -1)),
                          (pa * pb, ref_mul(a, b)), (pa.scale(c), ref_mul(a, (c,))),
                          (-pa, ref_add((), a, -1)), (pa * c, ref_mul(a, (c,)))):
            assert_canonical(got)
            assert got.coeffs == want

    @settings(max_examples=150, deadline=None)
    @given(coeff_lists, divisors)
    @example((1, 2, 3, 4), FRACTIONAL)
    def test_divmod_by_non_monic_divisors(self, a, b):
        q, r = Poly(a).divmod(Poly(b))
        assert_canonical(q)
        assert_canonical(r)
        assert (q.coeffs, r.coeffs) == ref_divmod(a, b)

    @settings(max_examples=100, deadline=None)
    @given(coeff_lists, divisors, big_rationals)
    @example((1,), FRACTIONAL, Fraction(1, 7))
    def test_exact_division(self, a, b, c):
        prod = Poly(a) * Poly(b)
        assert prod / Poly(b) == Poly(a)
        if len(b) > 1 and c:
            with pytest.raises(ValueError, match="inexact"):
                (prod + c) / Poly(b)

    @settings(max_examples=150, deadline=None)
    @given(coeff_lists, big_rationals)
    @example(FRACTIONAL, Fraction(-3, 4))
    def test_evaluation_derivative_monic(self, a, x0):
        p = Poly(a)
        assert at(p, x0) == sum(c * x0 ** i for i, c in enumerate(a))
        assert_canonical(p.derivative())
        assert p.derivative().coeffs == ref(i * c for i, c in enumerate(a) if i)
        if a:
            assert_canonical(p.monic())
            assert p.monic().coeffs == ref(c / a[-1] for c in a)

    @settings(max_examples=100, deadline=None)
    @given(coeff_lists, coeff_lists)
    @example((2, 4), (Fraction(1, 3),))
    def test_canonical_pairs(self, a, b):
        # one polynomial reached two ways is one (ints, denom) pair
        pa, pb = Poly(a), Poly(b)
        for p, other in ((pa, pa + pb - pb), (pa, pa * Poly.constant(3) / 3),
                         (pa, Poly([str(c) for c in a])), (pb, pb * pa - pb * pa + pb)):
            assert_canonical(other)
            assert (p.ints, p.denom) == (other.ints, other.denom)
            assert p == other and hash(p) == hash(other)
        zero = pa - pa
        assert (zero.ints, zero.denom) == ((), 1) and zero == Poly.zero()

    def test_constants_hash_like_their_values(self):
        for v in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3)):
            p = Poly.constant(v)
            assert p == v and hash(p) == hash(v)
            assert v in {p} and p in {v}
        assert {Poly.zero(): "zero"}[0] == "zero"
        assert Poly.x() != 0 and Poly.x() not in {0, 1}


def ref_squarefree(a) -> bool:
    """Nonzero with a constant gcd(a, a'): Euclid on Fraction coefficients."""
    r0, r1 = ref(a), ref(i * c for i, c in enumerate(a) if i)
    while r1:
        r0, r1 = r1, ref_divmod(r0, r1)[1]
    return len(r0) == 1


SMALL_PRIMES = (3, 5, 7, 11, 13)


class TestSquarefreeCertificate:
    """Poly.is_squarefree, certified mod a prime from 3 to 13 or by the gcd
    over Z, against Euclid over Fraction."""

    @settings(max_examples=200, deadline=None)
    @given(coeff_lists)
    @example(())
    @example((Fraction(-7, 3),))
    @example((Fraction(5, 2), Fraction(-3, 4)))
    def test_against_fraction_euclid(self, a):
        assert Poly(a).is_squarefree() == ref_squarefree(a)

    @settings(max_examples=100, deadline=None)
    @given(coeff_lists.filter(lambda g: len(g) > 1), coeff_lists)
    def test_square_times_a_factor(self, g, h):
        p = Poly(g) * Poly(g) * Poly(h)
        assert not p.is_squarefree() and not ref_squarefree(p.coeffs)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(-30, 30), coeff_lists, st.booleans())
    @example(3, 1, (1,), True)
    @example(13, -2, (Fraction(1, 2), 1), True)
    @example(7, 0, (1, 1), False)
    def test_leading_numerator_divisible_by_a_small_prime(self, prime, c, h, square):
        # for c prime to p, (p*x + c)^2 reduces mod p to the constant c^2: a
        # check at that prime would call every such square squarefree
        lin = Poly((c, prime))
        p = (lin * lin if square else lin) * Poly(h)
        assert p.is_squarefree() == ref_squarefree(p.coeffs)

    def test_every_prime_fails_then_gcd_over_z(self, monkeypatch):
        # t^2 - 15015 and t^2 - 2 are squarefree; 15015 = 3*5*7*11*13
        # divides disc(t^2 - 15015), so only that one reaches the gcd over Z
        calls, gcd_q = [], Poly.gcd
        monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(a) or gcd_q(a, b))
        assert Poly((-15015, 0, 1)).is_squarefree() and len(calls) == 1
        assert Poly((-2, 0, 1)).is_squarefree() and len(calls) == 1
        # 15015*(x - 1)^2: each prime divides the leading numerator
        assert not Poly((15015, -30030, 15015)).is_squarefree() and len(calls) == 2
        assert not Poly.zero().is_squarefree()

    def test_integer_roots_to_degree_280_without_euclid(self):
        # prod_{|i| <= 140, i != 3} (x - i): each prime 3..13 divides two
        # roots' difference, so every certificate fails and the gcd with f'
        # is taken by _igcd
        f = Poly.one()
        for i in range(-140, 141):
            f = f * Poly((-i, 1)) if i != 3 else f
        assert f.degree == 280 and f.is_squarefree()


def naive_mod(a, m) -> list:
    """Entries of a mod m, trailing zeros dropped."""
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def naive_mulmod(a, b, m) -> list:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return naive_mod(out, m)


def naive_remmod(a, b, p) -> list:
    """a mod b over the field Z/p, b nonzero mod p: subtract multiples of
    b's leading term until the degree drops."""
    a, b = naive_mod(a, p), naive_mod(b, p)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c, s = a[-1] * inv % p, len(a) - len(b)
        a = naive_mod([x - c * b[i - s] if i >= s else x for i, x in enumerate(a)], p)
    return a


int_lists = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8)


class TestModularKernel:
    """The integer-list helpers mod m against naive references."""

    @settings(max_examples=200, deadline=None)
    @given(int_lists, st.lists(st.integers(-50, 50), max_size=4),
           st.sampled_from((2, 3, 7, 9, 25, 11 ** 3)), st.integers(-40, 40))
    @example([-5, 14, -9], [3], 3, 1)
    @example([1, 2, 9, 18], [0, 1], 9, 1)
    @example([1, 2, 9, 18], [0, 1], 9, -7)      # lc(b) a unit, not 1
    def test_divmod_unreduced_and_negative(self, a, low, m, lc):
        assume(gcd(lc, m) == 1)
        b = low + [lc]
        q, r = _divmod(a, b, m)
        assert all(0 <= c < m for c in q + r)
        assert r == naive_mod(r, m) and len(r) < len(b)
        qb = naive_mulmod(q, b, m)
        assert naive_mod([x - y for x, y in zip_longest(a, qb, fillvalue=0)], m) == r

    @settings(max_examples=200, deadline=None)
    @given(int_lists, int_lists, st.sampled_from(SMALL_PRIMES))
    @example([0, 1], [-1, 0, 1], 3)
    @example([2, 3], [0, 0, 4], 5)      # a shorter than b: the first quotient is empty
    @example([3, 0, 2], [6], 3)         # b = 0 mod p: g is a mod p made monic
    @example([3], [-6, 9], 3)           # a = b = 0 mod p: g = []
    def test_gcd_mod_against_euclid_mod_p(self, a, b, p):
        g, qs = _gcd_mod(a, b, p)
        r0, r1 = naive_mod(a, p), naive_mod(b, p)
        while r1:
            r0, r1 = r1, naive_remmod(r0, r1, p)
        assert g == (naive_mod([c * pow(r0[-1], -1, p) for c in r0], p) if r0 else [])
        # the quotients rebuild Euclid's remainders down to 0, the last
        # nonzero one a multiple of g
        r0, r1 = naive_mod(a, p), naive_mod(b, p)
        for q in qs:
            assert r1
            r0, r1 = r1, naive_mod([x - y for x, y in zip_longest(
                r0, naive_mulmod(q, r1, p), fillvalue=0)], p)
            assert len(r1) < len(r0)
        assert not r1 and (naive_mod([c * pow(r0[-1], -1, p) for c in r0], p) if r0 else []) == g

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=5), int_lists,
           st.sampled_from(SMALL_PRIMES))
    @example([0], [0, 1], 3)
    def test_powmod_against_repeated_multiplication(self, low, a, p):
        # k = 1, odd and even k; f monic of degree 1 to 5, a reduced below it
        f = [c % p for c in low] + [1]
        a = naive_remmod(a, f, p)
        want = a
        for k in range(1, 12):
            assert _powmod(a, k, f, p) == want, k
            want = naive_remmod(naive_mulmod(want, a, p), f, p)


# the trivial operands Q[x] takes its shortcuts on, and other constants
trivial_constants = st.one_of(
    st.sampled_from((0, 1, -1, Fraction(1, 3), Fraction(-5, 2), -4)), big_rationals)


class TestTrivialOperands:
    """Zero, unit and constant operands against the Fraction reference."""

    @settings(max_examples=200, deadline=None)
    @given(coeff_lists, trivial_constants)
    @example((Fraction(1, 2), -3), 0)
    @example((Fraction(1, 2), -3), -1)
    @example((Fraction(2, 3),), Fraction(-5, 2))
    def test_constant_on_either_side(self, a, c):
        p, k, kc = Poly(a), Poly.constant(c), (c,)
        cases = [(p + k, ref_add(a, kc)), (k + p, ref_add(a, kc)), (p + c, ref_add(a, kc)),
                 (p - k, ref_add(a, kc, -1)), (k - p, ref_add(kc, a, -1)),
                 (c - p, ref_add(kc, a, -1)), (p * k, ref_mul(a, kc)),
                 (k * p, ref_mul(a, kc)), (c * p, ref_mul(a, kc)), (p.scale(c), ref_mul(a, kc))]
        if c:
            inv = (1 / Fraction(c),)
            cases += [(p / k, ref_mul(a, inv)), (p / c, ref_mul(a, inv))]
        else:
            for divisor in (k, c):
                with pytest.raises(ZeroDivisionError):
                    p / divisor
        if len(a) == 1:
            cases.append((k / p, ref_mul(kc, (1 / a[0],))))
        for got, want in cases:
            assert_canonical(got)
            assert got.coeffs == want
            if got.degree < 1:      # a constant equals and hashes like its value
                value = want[0] if want else Fraction(0)
                assert got == value and hash(got) == hash(value)

    def test_trivial_operands_return_an_operand(self):
        p, zero, one = Poly((Fraction(1, 2), -3)), Poly.zero(), Poly.one()
        assert zero is Poly.zero() and one is Poly.one() is p.one_like()
        for got in (p + zero, zero + p, p - zero, p * one, one * p, p * 1, p / one, p / 1):
            assert got is p
        assert p * zero is zero and zero * p is zero and zero / p is zero
        assert zero - p == -p
        # a zero result that takes no shortcut is the shared zero too
        assert Poly.zero() is p.one_like() - Poly.one()
        assert p - p is zero and p + -p is zero and (p * p).divmod(p)[1] is zero

    @settings(max_examples=100, deadline=None)
    @given(tpolys, monic_tpolys, trivial_constants.filter(bool))
    @example(tp((1,), (0, 1), (1,)), tp((2,), (1,)), Fraction(-5, 2))
    def test_monic_and_pseudo_remainder_unit_against_scaled(self, a, b, c):
        # b is monic; scaled = c * b has leading coefficient c
        scaled = b.map_coeffs(lambda x: x * c, Poly.zero())
        assert b.monic() == b and scaled.monic() == b
        k = max(a.degree - b.degree + 1, 0)
        want = pseudo_remainder(a, b).map_coeffs(lambda x: x * Fraction(c) ** k, Poly.zero())
        assert pseudo_remainder(a, scaled) == want


class TestTPolyDivmod:
    """By a monic divisor the pseudo-remainder is the t-remainder."""

    @settings(max_examples=60, deadline=None)
    @given(tpolys, monic_tpolys)
    @example(tp((1,), (0, 1), (1,)), tp((2,), (1,)))
    @example(tp((1,)), tp((0, 1), (), (1,)))        # a shorter dividend is its remainder
    def test_identity_by_monic_divisor(self, a, b):
        q, r = tdivmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert pseudo_remainder(a, b) == r

    def test_zero_divisor_refused(self):
        with pytest.raises(ZeroDivisionError):
            pseudo_remainder(tp((1,), (0, 1), (1,)), TPoly((), Poly.zero()))


class TestRatFunc:
    def test_normalization(self):
        r = RatFunc(Poly((0, 2)), Poly((0, 0, 4)))   # 2x / 4x^2 = 1/(2x)
        assert r.num == Poly.constant(Fraction(1, 2))
        assert r.den == Poly((0, 1))

    @settings(max_examples=50, deadline=None)
    @given(polys, polys)
    def test_field_inverse(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        r = RatFunc(a, b)
        assert r * r.inverse() == RatFunc.one()


class TestResultant:
    def test_linear_pair(self):
        # Res(t - p, t - q) = q - p evaluated via the shared-root criterion
        a = tp((0, -1), (1,))
        b = tp((0, 1), (1,))
        assert resultant(a, b) == Poly((0, 2))    # (x) - (-x)
        # over denominators: Res(t/2 - x/3, 3t + 1) = 1/2 + x
        assert resultant(tp((0, Fraction(-1, 3)), (Fraction(1, 2),)),
                         tp((1,), (3,))) == Poly((Fraction(1, 2), 1))

    def test_vanishes_iff_common_root(self):
        a = tp((0, -1), (1,))
        assert resultant(a, a).is_zero()
        assert resultant(a, TPoly((), Poly.zero())).is_zero()

    def test_quadratic_discriminant_shape(self):
        # Res_t(t^2 - x, 2t) = -4x, and with the operands swapped, (-1)^(2*1) times it
        a = tp((0, -1), (), (1,))
        b = tp((), (2,))
        assert resultant(a, b) == Poly((0, -4)) == resultant(b, a)
        # Res_t(t^2 - x, t/3) = -x/9: D_b = 3 enters as D_b^(deg a)
        assert resultant(a, tp((), (Fraction(1, 3),))) == Poly((0, Fraction(-1, 9)))

    @settings(max_examples=60, deadline=None)
    @given(tpolys, tpolys)
    @example(tp((), (), (), (), (1,)), tp((1,), (), (0, 1)))     # gap 2 then 1
    @example(tp((0, 1), (), (1,)), tp((3, 2)))                  # constant in t
    @example(tp((0, 0, 2), (1, 1), (), (3,)), tp((1,), (0, 2), (5,)))
    # degrees 5, 4, 2, ...: a gap of 2 once h != 1, so h's update is read
    @example(tp((), (), (-3,), (), (-1, 1), (1,)), tp((0, 2), (2, -2), (), (), (3,)))
    def test_matches_sylvester_determinant(self, a, b):
        res = resultant(a, b)
        if a.is_zero() or b.is_zero():
            assert res.is_zero()
            return
        xdeg = lambda p: max(c.degree for c in p.coeffs)
        bound = a.degree * xdeg(b) + b.degree * xdeg(a)
        assert res.degree <= bound
        for k in range(-1, bound + 1):      # bound + 2 points fix res
            x0 = Fraction(k, 3)
            assert at(res, x0) == sylvester_resultant_at(a, b, x0)
        if (a.degree * b.degree) % 2 == 0:
            assert resultant(b, a) == res
        else:
            assert resultant(b, a) == -res

    @settings(max_examples=30, deadline=None)
    @given(tpolys, tpolys, monic_tpolys)
    def test_common_factor_gives_zero(self, a, b, f):
        if a.is_zero() or b.is_zero():
            return
        a, b = a * f, b * f
        assert resultant(a, b).is_zero()
        for x0 in (Fraction(-1), Fraction(1, 2), Fraction(2)):
            assert sylvester_resultant_at(a, b, x0) == 0


class TestKronecker:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.one_of(
            st.integers(-(2 ** (k - 1)) + 1, 2 ** (k - 1) - 1),
            st.sampled_from([0, 2 ** (k - 1) - 1, -(2 ** (k - 1)) + 1])), max_size=8))))
    def test_unpack_inverts_pack(self, case):
        k, c = case
        while c and not c[-1]:
            c.pop()
        assert _unpack(_pack(c, k), k) == c


class TestDivexact:
    """The 2-adic exact quotient against //, on exact products."""

    # quotients and divisors from one bit to well past CPython's Karatsuba
    # cutoff (about 2,100 bits), signed, each divisor times a power of 2
    sized = st.one_of(st.integers(-9, 9), st.integers(-2 ** 64, 2 ** 64),
                      st.integers(-2 ** 4000, 2 ** 4000))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(sized, min_size=1, max_size=6), sized.filter(bool), st.integers(0, 200))
    @example([5], 5, 0)             # 25 / 5: a quotient with bits(a) - bits(d) + 1 bits
    @example([-5, 7], -5 * 2 ** 3, 3)
    @example([2 ** 100 - 1], 1, 0)
    @example([0, 0], 3 * 2 ** 70, 70)
    def test_matches_floor_division(self, quotients, base, s):
        d = base * 2 ** s
        nums = [q * d for q in quotients]
        assert polynomials._divexact(nums, d) == quotients == [a // d for a in nums]


def trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def sympy_zz_gcd(a: list, b: list) -> list:
    """gcd(a, b) over ZZ by sympy, ascending, [] for zero."""
    x = sympy.Symbol("x")
    g = sympy.Poly(a[::-1] or [0], x, domain="ZZ").gcd(sympy.Poly(b[::-1] or [0], x, domain="ZZ"))
    return trim([int(c) for c in reversed(g.all_coeffs())])


def counting_pack(monkeypatch) -> list:
    """Record the width of every _pack call; past 2^12 bits, fail, so that
    a loop that never accepts a candidate ends."""
    widths, pack = [], polynomials._pack

    def counted(ints, k):
        assert k <= 4096, "no candidate accepted"
        widths.append(k)
        return pack(ints, k)

    monkeypatch.setattr(polynomials, "_pack", counted)
    return widths


zz = st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80))
zz_lists = st.lists(zz, max_size=4).map(trim)


class TestIgcd:
    """The heuristic gcd over Z: (g, a/g, b/g), lc(g) > 0."""

    def test_surplus_content_dropped(self, monkeypatch):
        # x^2 + x and x^2 + x + 2 are coprime, but both are even at every
        # integer: the values' gcd 2 reads back as the constant 2, and only
        # its primitive part 1 divides both
        widths = counting_pack(monkeypatch)
        assert _igcd([0, 1, 1], [2, 1, 1]) == ([1], [0, 1, 1], [2, 1, 1])
        assert widths == [3, 3]

    def test_first_candidate_fails_then_k_doubles(self, monkeypatch):
        # (x - 1)(x + 2) and (x - 1)(x^2 + 1) at xi = 8 have the gcd 35, which
        # reads back as x^2 - 4x + 3 and divides neither; at xi = 64 it is 63
        widths = counting_pack(monkeypatch)
        assert _igcd([-2, 1, 1], [-1, 1, -1, 1]) == ([-1, 1], [2, 1], [1, 0, 1])
        assert widths == [3, 3, 6, 6]

    def test_bound_twice_the_smaller_norm(self):
        # xi = 16 > ||x - 12||_inf + 2 is too small: the values 4 and 68
        # have the gcd 4, whose digits, the constant 4, have the primitive
        # part 1, which divides both; xi = 32 > 2*12 + 2 reads 20 as x - 12
        assert _igcd([-12, 1], [-12, -11, 1]) == ([-12, 1], [1], [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(zz_lists, zz_lists, zz_lists, st.integers(-6, 6))
    @example([1, 2], [], [1], 1)                         # b = 0
    @example([], [], [], 1)                              # a = b = 0
    @example([3, -1], [1, 0, -1], [1, 1], 2)             # lc < 0, content 2
    @example([2 ** 70, 1], [5, 2 ** 65], [-(2 ** 64), 3, 7], 3)
    def test_against_sympy(self, u, v, w, c):
        # a = c*u*w and b = v*w share the planted factor w
        a, b = trim(_mul(_mul(u, w), [c])), trim(_mul(v, w))
        g, qa, qb = _igcd(a, b)
        assert g == sympy_zz_gcd(a, b)
        assert trim(_mul(g, qa)) == a and trim(_mul(g, qb)) == b


class TestYun:
    def test_profile(self):
        x = Poly.x()
        lin = TPoly((-x, Poly.one()), Poly.zero())          # t - x
        blocks = yun_squarefree(lin * lin)
        assert len(blocks) == 1
        q, m = blocks[0]
        assert m == 2
        assert q == lin

    def test_reconstruction(self):
        x = Poly.x()
        a = TPoly((-x, Poly.one()), Poly.zero())
        b = TPoly((Poly.one(), Poly.one()), Poly.zero())
        p = a * a * a * b
        blocks = yun_squarefree(p)
        acc = TPoly((Poly.one(),), Poly.zero())
        for q, m in blocks:
            acc = acc * q ** m
        assert acc == p

    def test_rational_profile(self):
        # (t - x/2)^2 (t + 1/3): denominators in the blocks, cleared by t -> t/6
        half, third = tp((0, Fraction(-1, 2)), (1,)), tp((Fraction(1, 3),), (1,))
        assert yun_squarefree(half * half * third) == [(third, 1), (half, 2)]

    def test_retry_from_a_narrow_slot(self, monkeypatch):
        # a one-bit first slot cannot certify anything, so the loop widens
        # it until the certificate holds, and the blocks are Yun's
        x = Poly.x()
        q1 = tp((Fraction(-7, 2), 3), (0, Fraction(3, 5)), (1,))
        q2 = TPoly((-x, Poly.one()), Poly.zero())
        p = q1 * q1 * q2 * q2 * q2
        expected = yun_squarefree(p)
        assert expected == [(q1, 2), (q2, 3)]
        widths = []
        pack = polynomials._pack
        monkeypatch.setattr(polynomials, "_width", lambda bound: 1)
        monkeypatch.setattr(polynomials, "_pack",
                            lambda ints, k: widths.append(k) or pack(ints, k))
        assert yun_squarefree(p) == expected
        assert widths[0] == 1 and len(set(widths)) > 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(monic_tpolys, st.integers(1, 3)),
                    min_size=1, max_size=3)
           .filter(lambda fs: sum(q.degree * e for q, e in fs) <= 6))
    # denominators in every block, so t is scaled by their lcm
    @example([(tp((Fraction(-7, 2), 3), (0, Fraction(3, 5)), (1,)), 2),
              (tp((0, Fraction(1, 6)), (1,)), 2)])
    @example([(tp((Fraction(5, 4),), (Fraction(-1, 3), Fraction(2, 7)), (1,)), 1),
              (tp((0, 0, Fraction(1, 2)), (1,)), 2), (tp((Fraction(2, 3), 1), (1,)), 1)])
    def test_matches_sympy_sqf_list(self, factors):
        p = TPoly((Poly.one(),), Poly.zero())
        for q, e in factors:
            p = p * q ** e
        assert yun_squarefree(p) == sympy_sqf_blocks(p)
