"""Tests for spectral-polynomial structure: squarefree profiles, trace
translation, power/product maps, and the degree-2 Galois machinery."""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import pytest
import sympy

from prymkit import covers
from prymkit.covers import (
    DoubleCoverData,
    Surd,
    TwistedSpectralPoly,
    _factor_over_quadratic_field,
    _poly_xgcd,
    _x_adic_lift,
    factors_coprime,
    galois_pushforward,
    phi_k,
    phi_pair,
    is_trace_free,
    pullback_splits,
    squarefree_decompose,
    trace_translate,
    verify_component_degree_bounds,
)
from prymkit.norms import SpectralPoly, spectral_mul, spectral_pow
from prymkit.polynomials import Poly, TPoly, yun_squarefree
from prymkit.verify import (
    random_spectral,
    random_squarefree,
    random_twisted,
)

X = Poly.x()


def spoly(n, deg_m, *coeffs):
    return SpectralPoly(n, deg_m, tuple(coeffs))


def _inv(c: Surd) -> Surd:
    """1/c in Q(sqrt(d)) as conj(c)/N(c); N(c) = a^2 - d*b^2 is nonzero
    for c nonzero, as d is not a square."""
    n = c.a * c.a - c.d * c.b * c.b
    return Surd(c.a / n, -c.b / n, c.d)


@dataclass(frozen=True)
class KNum:
    """a + b*sqrt(d) in the field Q(sqrt(d)), d not a square: the oracles'
    own K-arithmetic, written apart from covers.Surd, and a coefficient
    ring for TPoly (is_zero and one_like)."""

    a: Fraction
    b: Fraction
    d: Fraction

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def one_like(self) -> "KNum":
        return KNum(Fraction(1), Fraction(0), self.d)

    def __add__(self, other: "KNum") -> "KNum":
        return KNum(self.a + other.a, self.b + other.b, self.d)

    def __neg__(self) -> "KNum":
        return KNum(-self.a, -self.b, self.d)

    def __sub__(self, other: "KNum") -> "KNum":
        return self + (-other)

    def __mul__(self, other: "KNum") -> "KNum":
        return KNum(self.a * other.a + self.d * self.b * other.b,
                    self.a * other.b + self.b * other.a, self.d)

    def conjugate(self) -> "KNum":
        return KNum(self.a, -self.b, self.d)

    def inverse(self) -> "KNum":
        n = self.a * self.a - self.d * self.b * self.b
        return KNum(self.a / n, -self.b / n, self.d)


def _k_tpoly(p: Poly, q: Poly, d: Fraction) -> TPoly:
    """p + sqrt(d)*q as a t-polynomial over K = Q(sqrt(d))."""
    zero = KNum(Fraction(0), Fraction(0), d)
    return TPoly([KNum(a, b, d) for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0)],
                 zero)


def _k_conj(p: TPoly) -> TPoly:
    return p.map_coeffs(KNum.conjugate, p.czero)


def _k_parts(p: TPoly) -> tuple[Poly, Poly]:
    """(A, B) with p = A + sqrt(d)*B, A and B in Q[t]."""
    return Poly(c.a for c in p.coeffs), Poly(c.b for c in p.coeffs)


class TestSquarefreeDecompose:
    def test_squarefree_input_single_block(self):
        s = spoly(2, 1, Poly.zero(), -X)   # t^2 - x
        fac = squarefree_decompose(s)
        assert len(fac.factors) == 1
        assert fac.factors[0][1] == 1
        assert fac.reconstruct() == s

    def test_double_root_block(self):
        lin = spoly(1, 1, -X)
        s = spectral_pow(lin, 2)
        fac = squarefree_decompose(s)
        assert [(q, m) for q, m in fac.factors] == [(lin, 2)]

    def test_mixed_profile(self):
        quad = spoly(2, 1, Poly.zero(), -X)            # t^2 - x
        lin = spoly(1, 1, Poly.constant(-1))           # t - 1
        s = spectral_mul(spectral_pow(quad, 2), lin)
        fac = squarefree_decompose(s)
        got = {(q, m) for q, m in fac.factors}
        assert got == {(quad, 2), (lin, 1)}
        assert fac.reconstruct() == s

    def test_random_reconstruction(self):
        rng = random.Random(13)
        for _ in range(15):
            s = random_spectral(rng, max_n=4)
            fac = squarefree_decompose(s)
            assert fac.reconstruct() == s


class TestDegreeBounds:
    def test_nondivisor_rejected(self):
        s = spoly(2, 1, Poly.zero(), -X)
        cand = spoly(1, 1, -X)
        with pytest.raises(ValueError):
            verify_component_degree_bounds(s, cand)

    def test_split_factors_pass(self):
        b = spoly(1, 1, -X)
        c = spoly(1, 1, X)
        s = spectral_mul(b, c)
        assert verify_component_degree_bounds(s, b)
        assert verify_component_degree_bounds(s, c)

    def test_bounds_inherited_by_blocks(self):
        rng = random.Random(19)
        for _ in range(15):
            parts = [random_spectral(rng, max_n=2) for _ in range(2)]
            s = spectral_mul(parts[0], parts[1])
            for q, _m in squarefree_decompose(s).factors:
                assert verify_component_degree_bounds(s, q)


class TestTraceTranslate:
    def test_already_trace_free(self):
        s = spoly(2, 1, Poly.zero(), -X)
        assert trace_translate(s) == s

    def test_complete_the_square(self):
        s = spoly(2, 1, X.scale(2), X * X)   # (t + x)^2
        out = trace_translate(s)
        assert out == spoly(2, 1, Poly.zero(), Poly.zero())

    def test_cubic_pinned_value(self):
        s = spoly(3, 0, Poly.constant(3), Poly.zero(), Poly.zero())
        out = trace_translate(s)
        assert out == spoly(3, 0, Poly.zero(), Poly.constant(-3), Poly.constant(2))

    def test_idempotent_random(self):
        rng = random.Random(7)
        for _ in range(15):
            s = random_spectral(rng, max_n=4)
            once = trace_translate(s)
            assert once.coeffs[0].is_zero()
            assert trace_translate(once) == once

    def test_preserves_multiplicity_profile(self):
        lin = spoly(1, 1, X)
        s = spectral_pow(lin, 3)
        prof = sorted(m for _q, m in squarefree_decompose(s).factors)
        prof2 = sorted(m for _q, m in
                       squarefree_decompose(trace_translate(s)).factors)
        assert prof == prof2


class TestPowerAndProductMaps:
    def test_identity_power(self):
        s = spoly(2, 1, X, Poly.zero())
        assert phi_k(s, 1) == s

    def test_power_below_one_rejected(self):
        s = spoly(1, 1, -X)
        for k in (0, -1):
            with pytest.raises(ValueError, match="power must be >= 1"):
                phi_k(s, k)
            with pytest.raises(ValueError, match="power must be >= 1"):
                spectral_pow(s, k)

    def test_binomial_square(self):
        s = spoly(1, 1, -X)
        assert phi_k(s, 2) == spoly(2, 1, X.scale(-2), X * X)

    def test_power_composition(self):
        rng = random.Random(37)
        for _ in range(10):
            s = random_spectral(rng, max_n=2)
            assert phi_k(s, 6) == phi_k(phi_k(s, 2), 3)

    def test_power_multiplies_profile(self):
        quad = spoly(2, 1, Poly.zero(), -X)
        cubed = phi_k(quad, 3)
        fac = squarefree_decompose(cubed)
        assert [(q, m) for q, m in fac.factors] == [(quad, 3)]

    def test_product_trace_additivity(self):
        b = spoly(1, 1, -X)
        c = spoly(1, 1, X)
        out = phi_pair(b, c)
        assert out == spoly(2, 1, Poly.zero(), -(X * X))
        assert is_trace_free(out)
        d = spoly(1, 1, Poly.one())
        assert not is_trace_free(phi_pair(b, d))

    def test_coprimality_predicate(self):
        b = spoly(1, 1, -X)
        c = spoly(1, 1, X)
        assert factors_coprime(b, c)
        assert not factors_coprime(b, b)


class TestDoubleCover:
    def test_squarefree_required(self):
        with pytest.raises(ValueError):
            DoubleCoverData(X * X)
        with pytest.raises(ValueError):
            DoubleCoverData(Poly.one())

    def test_twisted_degree_bounds(self):
        cover = DoubleCoverData(X * X - 1)    # half_degree 1
        with pytest.raises(ValueError):
            TwistedSpectralPoly(cover, 1, 1, ((X * X, Poly.zero()),))
        with pytest.raises(ValueError):
            TwistedSpectralPoly(cover, 1, 1, ((Poly.zero(), X),))

    def test_zero_v_meets_any_bound(self):
        # on y^2 = x^3 + 1 with deg_m = 0 the bound on v_1 is 0 - 2 = -2, and
        # a zero v_1 (degree -1) meets it: s = t^2 is the norm of W = t
        cover = DoubleCoverData(X ** 3 + Poly.one())
        w = TwistedSpectralPoly(cover, 1, 0, ((Poly.zero(), Poly.zero()),))
        assert galois_pushforward(cover, w) == spoly(2, 0, Poly.zero(), Poly.zero())
        with pytest.raises(ValueError):
            TwistedSpectralPoly(cover, 1, 0, ((Poly.zero(), Poly.one()),))

    @pytest.mark.parametrize("f", [X ** 3 + Poly.one(), X * X + Poly.one()])
    def test_split_with_zero_v(self, f):
        cover = DoubleCoverData(f)
        one, zero = Poly.one(), Poly.zero()
        w = pullback_splits(cover, spoly(2, 0, zero, zero))               # t^2
        assert w is not None and w.pairs == ((zero, zero),)
        s = spoly(4, 0, zero, -2 * one, zero, one)                        # (t^2 - 1)^2
        w = pullback_splits(cover, s)
        assert w is not None and w.pairs == ((zero, zero), (-one, zero))
        assert galois_pushforward(cover, w) == s

    def test_pushforward_conjugate_pair(self):
        cover = DoubleCoverData(X * X - 1)
        tw = TwistedSpectralPoly(cover, 1, 1, ((Poly.zero(), Poly.constant(-1)),))
        pushed = galois_pushforward(cover, tw)   # (t - y)(t + y) = t^2 - f
        assert pushed == spoly(2, 1, Poly.zero(), -(X * X - 1))

    def test_pushforward_invariant_input_is_square(self):
        cover = DoubleCoverData(X * X - 1)
        u = Poly((1, 1))
        tw = TwistedSpectralPoly(cover, 1, 1, ((-u, Poly.zero()),))
        pushed = galois_pushforward(cover, tw)
        assert pushed == phi_k(spoly(1, 1, -u), 2)

    def test_trace_is_twice_invariant_part(self):
        rng = random.Random(43)
        for _ in range(10):
            cover = DoubleCoverData(random_squarefree(rng))
            m = rng.randint(1, 3)
            tw = random_twisted(rng, cover, m, deg_m=1)
            pushed = galois_pushforward(cover, tw)
            assert pushed.n == 2 * m
            assert pushed.coeffs[0] == tw.pairs[0][0].scale(2)


class TestSurd:
    def test_different_covers_rejected(self):
        a = Surd(X, Poly.one(), X * X - 1)
        b = Surd(X, Poly.one(), X * X - 2)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_pushforward_on_another_cover_rejected(self):
        tw = TwistedSpectralPoly(DoubleCoverData(X * X - 1), 1, 1,
                                 ((Poly.zero(), Poly.constant(-1)),))
        with pytest.raises(ValueError):
            galois_pushforward(DoubleCoverData(X * X - 2), tw)

    def test_quadratic_field_inverse_and_conjugation(self):
        rng = random.Random(11)
        d = Fraction(5, 3)     # not a square in Q

        def nonzero():
            while True:
                x = Surd(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                         Fraction(rng.randint(-20, 20), rng.randint(1, 9)), d)
                if x.a or x.b:
                    return x

        for _ in range(25):
            x, y = nonzero(), nonzero()
            assert x * _inv(x) == Surd(1, 0, d)
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            assert (x * y) * _inv(y) == x
            assert x.conjugate().conjugate() == x
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    def test_tpoly_divides_only_by_monic_divisors(self):
        # over a field too, the divisor must be monic, not merely invertible
        d, t, zero = Fraction(5, 3), TestQuadraticFieldFactoring._t, Poly.zero()
        a = _k_tpoly(t(1, 0, 1), zero, d)                    # t^2 + 1
        for op in (a.divmod, a.__mod__, a.__truediv__):
            with pytest.raises(ValueError):
                op(_k_tpoly(t(1, 2), zero, d))               # 2t + 1
        b = _k_tpoly(t(1, 1), t(-1), d)                      # t + 1 - sqrt(d)
        q, r = a.divmod(b)
        assert q * b + r == a and r.degree < b.degree

    def test_xgcd_cofactor_of_a_non_monic_pair(self):
        # every remainder after b is scaled monic before it divides, so the
        # gcd comes out monic and tau * b = g mod a
        a = Poly([Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 2)])
        b = Poly([Fraction(-7, 4), Fraction(2, 3), Fraction(3)])
        g, tau = _poly_xgcd(a, b)
        assert g == Poly.one()
        assert tau.degree < a.degree
        assert (tau * b) % a == g
        c = Poly([Fraction(2, 5), Fraction(-3)])             # a common factor
        g, tau = _poly_xgcd(a * c, b * c)
        assert g == c.monic()
        assert (tau * b * c - g) % (a * c) == Poly.zero()


class TestPullbackSplits:
    def test_recovers_linear_twist(self):
        cover = DoubleCoverData(X * X - 1)
        s = spoly(2, 1, Poly.zero(), -(X * X - 1))   # t^2 - f
        w = pullback_splits(cover, s)
        assert w is not None
        assert galois_pushforward(cover, w) == s

    def test_non_image_rejected(self):
        cover = DoubleCoverData(X * X - 1)
        s = spoly(2, 1, Poly.zero(), -X)             # t^2 - x
        assert pullback_splits(cover, s) is None

    def test_odd_degree_rejected(self):
        cover = DoubleCoverData(X * X - 1)
        with pytest.raises(ValueError):
            pullback_splits(cover, spoly(1, 1, -X))

    def test_round_trip_random(self):
        rng = random.Random(47)
        for _ in range(8):
            cover = DoubleCoverData(random_squarefree(rng))
            m = rng.randint(1, 2)
            tw = random_twisted(rng, cover, m, deg_m=1)
            pushed = galois_pushforward(cover, tw)
            back = pullback_splits(cover, pushed)
            assert back is not None
            assert galois_pushforward(cover, back) == pushed

    @staticmethod
    def _count_yun(monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return yun_squarefree(p)
        monkeypatch.setattr(covers, "yun_squarefree", counting)
        return calls

    def test_squarefree_input_skips_yun(self, monkeypatch):
        # f(0) = 1 is a square, so the first good point is x0 = -1, where
        # s(-1, t) is squarefree: that point certifies s without Yun
        calls = self._count_yun(monkeypatch)
        one = Poly.one()
        cover = DoubleCoverData(X * X + one)
        s = spectral_mul(
            galois_pushforward(cover, TwistedSpectralPoly(cover, 1, 1, ((X, one),))),
            galois_pushforward(cover, TwistedSpectralPoly(
                cover, 1, 1, ((Poly.constant(2), -one),))))
        w = pullback_splits(cover, s)
        assert w is not None and galois_pushforward(cover, w) == s
        assert calls == []

    def test_non_squarefree_input_runs_yun(self, monkeypatch):
        calls = self._count_yun(monkeypatch)
        cover = DoubleCoverData(X * X - 2)
        inert = spoly(2, 1, Poly.zero(), -(3 * X - 1))
        tw = random_twisted(random.Random(5), cover, 2, deg_m=1)
        s = spectral_mul(galois_pushforward(cover, tw), spectral_pow(inert, 2))
        w = pullback_splits(cover, s)
        assert w is not None and galois_pushforward(cover, w) == s
        assert len(calls) == 1

    def test_certified_split_tests_its_point_once(self, monkeypatch):
        # the block is split at the point that certified s, so q(x0) itself
        # is tested once; squarefree tests of other polynomials do not count
        cover = DoubleCoverData(X * X - 3)
        s = galois_pushforward(cover, random_twisted(random.Random(3), cover, 3, deg_m=1))
        _x0, _d0, qq = next(covers._good_points(cover.f, s.as_tpoly()))
        calls = []
        is_squarefree = Poly.is_squarefree

        def counting(p):
            if p == qq:
                calls.append(p)
            return is_squarefree(p)
        monkeypatch.setattr(Poly, "is_squarefree", counting)
        w = pullback_splits(cover, s)
        assert w is not None and galois_pushforward(cover, w) == s
        assert len(calls) == 1

    def test_degenerate_first_point_falls_back(self, monkeypatch):
        # (t^2 - x)((t - x - 1)^2 - x) is squarefree over Q(x), but at the
        # first good point x0 = -1 of y^2 = x it becomes (t^2 + 1)^2
        calls = self._count_yun(monkeypatch)
        cover = DoubleCoverData(X)
        s = spectral_mul(spoly(2, 1, Poly.zero(), -X),
                         spoly(2, 1, (X + 1).scale(-2), X * X + X + 1))
        w = pullback_splits(cover, s)
        assert len(calls) == 1
        assert w is not None and galois_pushforward(cover, w) == s
        assert w.pairs == (
            (-X - 1, Poly.constant(-2)),
            (X, X + 1),
        )


def _sympy_factors_q(p: Poly) -> list[Poly]:
    """The monic factors of p over Q from sympy's factor_list over QQ."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _const, raw = sympy.Poly(coeffs, sympy.Symbol("t"), domain=sympy.QQ).factor_list()
    return [Poly(Fraction(int(c.numerator), int(c.denominator))
                 for c in reversed(fac.rep.to_list())).monic() for fac, _e in raw]


class TestFactorOverQ:
    """Zassenhaus over Q against sympy's factoring over QQ, read off the
    factors over Q(i): A^2 + B^2 for each conjugate pair A +- i*B, and A for
    each self-conjugate factor."""

    D = Fraction(-1)

    @classmethod
    def _check(cls, p):
        got = _factor_over_quadratic_field(p, cls.D)
        over_q = [g.a * g.a - (g.b * g.b).scale(cls.D) if g.b else g.a
                  for i, g in enumerate(got) if i <= got.index(g.conjugate())]
        assert sorted(over_q, key=repr) == sorted(_sympy_factors_q(p), key=repr), p
        return over_q

    def test_random_products(self):
        rng = random.Random(2024)

        def rat():
            return Fraction(rng.randint(-30, 30), rng.randint(1, 6))

        seen = 0
        while seen < 60:
            p = Poly.constant(Fraction(rng.choice([1, -1, 3, 5, -7]), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5)):
                k = rng.randint(1, 4)
                p = p * Poly([rat() for _ in range(k)] + [Fraction(rng.randint(1, 9))])
            if 0 < p.degree <= 12 and p.is_squarefree():
                self._check(p)
                seen += 1

    def test_recombination(self):
        # t^4 - 10t^2 + 1 and t^4 + 1 are irreducible over Q but split mod
        # every prime, so their factors mod l must be recombined
        t = TestQuadraticFieldFactoring._t
        p1, p2 = t(1, 0, -10, 0, 1), t(1, 0, 0, 0, 1)
        assert sorted(self._check(p1 * p2), key=repr) == sorted([p1, p2], key=repr)
        assert len(self._check(p1 * p2 * t(-1, 3) * t(2, 0, -5))) == 4

    def test_not_squarefree_refused(self):
        # squarefree mod no prime: the search gives up after the bad primes
        # split in K that a nonzero Res(f, f') could account for
        t = TestQuadraticFieldFactoring._t
        for d in (self.D, Fraction(12)):
            with pytest.raises(ValueError):
                _factor_over_quadratic_field(t(1, 1) * t(1, 1) * t(3, 0, 1), d)

    def test_factor_needs_the_full_lift(self):
        # l = 5, which splits in Q(i), and the lift goes to 5^16.  One
        # squaring short, 5^8 = 390625 cannot hold lc * 49006 = 1372168 in
        # its symmetric range, and the quadratic factor splits mod 5, so t -
        # 49006 is not left over as the last cofactor: it has to be
        # recovered from the lift
        t = TestQuadraticFieldFactoring._t
        p = t(-49006, 1) * t(-150, -729, 28)
        assert t(-49006, 1) in self._check(p)
        assert t(-49006, 1) in self._check(p.scale(Fraction(-2, 3)))

    def test_one_prime_one_lift(self, monkeypatch):
        # the quartic, irreducible over Q, splits over Q(sqrt 12) through
        # the lifted factors that found it over Q: one factoring mod l and
        # one Hensel tree serve both stages
        mods, depths, depth = [], [], [0]
        factor_mod, hensel = covers._factor_mod, covers._hensel

        def counting_factor_mod(*args):
            mods.append(args)
            return factor_mod(*args)

        def counting_hensel(*args):
            depths.append(depth[0])
            depth[0] += 1
            try:
                return hensel(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(covers, "_factor_mod", counting_factor_mod)
        monkeypatch.setattr(covers, "_hensel", counting_hensel)
        t = TestQuadraticFieldFactoring._t
        got = _factor_over_quadratic_field(t(1, 0, -10, 0, 1) * t(-3, 1), Fraction(12))
        assert len(mods) == 1 and depths.count(0) == 1
        assert len(got) == 3


def _sympy_factors(qq: Poly, d: Fraction) -> list[Surd]:
    """The monic factors A + sqrt(d)*B of qq over Q(sqrt(d)) from sympy's
    algebraic-field domain, whose elements are listed in descending powers
    of sqrt(d), made monic in KNum."""
    dom = sympy.QQ.algebraic_field(sympy.sqrt(sympy.Rational(d.numerator, d.denominator)))
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(qq.coeffs)]
    _const, raw = sympy.Poly(coeffs, sympy.Symbol("t"), domain=dom).factor_list()
    out = []
    for fac, _e in raw:
        coeffs = []
        for c in reversed(fac.rep.to_list()):
            vals = [Fraction(int(v.numerator), int(v.denominator)) for v in c.to_list()]
            b, a = [Fraction(0)] * (2 - len(vals)) + vals
            coeffs.append(KNum(a, b, d))
        inv = coeffs[-1].inverse()
        monic = [c * inv for c in coeffs]
        out.append(Surd(Poly(c.a for c in monic), Poly(c.b for c in monic), d))
    return out


class TestQuadraticFieldFactoring:
    """Factoring over K = Q(sqrt(d)) (over Q, then through the same prime,
    split in K) against sympy's factoring over the algebraic field, on d
    negative, fractional, with a square factor and on both sides of 1."""

    DS = [Fraction(-12), Fraction(-7, 5), Fraction(-3), Fraction(-1), Fraction(1, 2),
          Fraction(2), Fraction(5), Fraction(8, 3), Fraction(12), Fraction(50),
          Fraction(99, 7)]

    @staticmethod
    def _check(qq, d):
        got = _factor_over_quadratic_field(qq, d)
        assert sorted(got, key=repr) == sorted(_sympy_factors(qq, d), key=repr), (qq, d)
        assert [g.a.degree for g in got] == sorted(g.a.degree for g in got)
        return got

    @staticmethod
    def _t(*coeffs):
        return Poly([Fraction(c) for c in coeffs])

    @pytest.mark.parametrize("d", DS)
    def test_t_squared_minus_d_splits(self, d):
        # t^2 - d = (t - sqrt(d))(t + sqrt(d)), the degree-2 split
        got = self._check(Poly([-d, 0, 1]), d)
        t = Poly.x()
        assert set(got) == {Surd(t, Poly.one(), d), Surd(t, -Poly.one(), d)}

    @pytest.mark.parametrize("d", DS)
    def test_fixed_cases(self, d):
        t = self._t
        # t^4 + 1 splits only over Q(i), Q(sqrt 2) and Q(sqrt -2)
        got = self._check(t(1, 0, 0, 0, 1), d)
        if any(covers._is_square(d / c) for c in (-1, 2, -2)):
            assert len(got) == 2
        else:
            assert got == [Surd(t(1, 0, 0, 0, 1), Poly.zero(), d)]
        assert len(self._check(t(-2, 0, 0, 1), d)) == 1
        # the minimal polynomial of sqrt 2 + sqrt 3, split over Q(sqrt 12)
        self._check(t(1, 0, -10, 0, 1) * t(-3, 1), d)
        assert len(self._check(t(1, 0, -10, 0, 1), Fraction(12))) == 2

    def test_split_needs_the_full_lift(self):
        # (t + 53)^2 - 16*162 = (t + 53 - 4 sqrt 162)(t + 53 + 4 sqrt 162),
        # through l = 7 and a lift to 7^8.  One squaring short, 7^4 = 2401
        # cannot hold B = 2 * 4 * 162 = 1296 in its symmetric range, and a
        # bound without its sqrt|e| factor (1936) would stop there too
        t = self._t
        got = self._check(t(217, 106, 1), Fraction(162))
        assert [g.b for g in got] == [Poly.constant(-4), Poly.constant(4)]

    @pytest.mark.parametrize("d", DS)
    def test_random_products(self, d):
        rng = random.Random(int(d * 3))

        def rat():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

        seen = 0
        while seen < 20:
            qq = Poly.one()
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(1, 3)
                if rng.random() < 0.5:     # g * conj(g), g over K
                    g = Surd(Poly([rat() for _ in range(k)] + [Fraction(1)]),
                             Poly([rat() for _ in range(k)]), d)
                    qq = qq * (g * g.conjugate()).a
                else:
                    qq = qq * Poly([rat() for _ in range(k)] + [Fraction(1)])
            if 0 < qq.degree <= 12 and qq.is_squarefree():
                self._check(qq, d)
                seen += 1


def _surely_not_square(p: Poly) -> bool:
    """Odd degree or a negative leading coefficient: not a square in Q[x]."""
    return p.degree % 2 == 1 or p.coeffs[-1] < 0


class TestSplitOracle:
    """Ground truth by construction, sharing no code with the splitter.
    A norm N(W) = W * conj(W) splits.  If neither a nor a*f is a square in
    Q[x], then a is no square in K = Q(x)(y), so t^2 - a is irreducible
    over K and coprime to the norm of a product of linear factors; hence
    N(W) * (t^2 - a)^e splits exactly when e is even."""

    CASES = [  # (f, deg_m, a)
        (X * X - 2, 1, 3 * X - 1),
        (X, 1, -(X * X) - 1),
        (2 * X + 1, 1, Poly.constant(-5)),
        (X * X * X - X, 2, -2 * X ** 4 + X),
    ]

    @staticmethod
    def _norm_of_linears(rng, cover, deg_m, count=2):
        s = None
        for _ in range(count):
            piece = galois_pushforward(cover, random_twisted(rng, cover, 1, deg_m))
            s = piece if s is None else spectral_mul(s, piece)
        return s

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_inert_factor_splits_iff_even(self, case):
        f, deg_m, a = self.CASES[case]
        assert _surely_not_square(a) and _surely_not_square(a * f)
        cover = DoubleCoverData(f)
        inert = spoly(2, deg_m, Poly.zero(), -a)
        rng = random.Random(case)
        for e in range(4):
            s = self._norm_of_linears(rng, cover, deg_m)
            if e:
                s = spectral_mul(s, spectral_pow(inert, e))
            w = pullback_splits(cover, s)
            assert (w is not None) == (e % 2 == 0), (case, e)
            if w is not None:
                assert galois_pushforward(cover, w) == s

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_norm_of_y_multiple_splits(self, case):
        f, deg_m, _a = self.CASES[case]
        cover = DoubleCoverData(f)
        h = Poly.constant(3)
        s = spectral_mul(self._norm_of_linears(random.Random(case), cover, deg_m),
                         spoly(2, deg_m, Poly.zero(), -(f * h * h)))
        w = pullback_splits(cover, s)
        assert w is not None
        assert galois_pushforward(cover, w) == s

    def test_two_pair_block_witness_pinned(self):
        # N(W1) * N(W2) has four witnesses W1^(+-) * W2^(+-); the splitter
        # returns conj(W1) * W2, so a change of search order shows here
        one = Poly.one()
        cover = DoubleCoverData(X * X + one)
        w1 = TwistedSpectralPoly(cover, 1, 1, ((X, one),))                # t + x + y
        w2 = TwistedSpectralPoly(cover, 1, 1, ((Poly.constant(2), -one),))  # t + 2 - y
        s = spectral_mul(galois_pushforward(cover, w1),
                         galois_pushforward(cover, w2))
        w = pullback_splits(cover, s)
        assert w is not None and galois_pushforward(cover, w) == s
        assert w.pairs == (
            (X + 2, Poly.constant(-2)),
            (X * X + 2 * X + 1, -X - 2),
        )


class TestXAdicLift:
    """The lift in z = x - x0 on pairs of rational t-polynomials, against
    W * conj(W) = q(x0 + z) mod z^prec and against the step it replaced,
    both written here over K = Q(sqrt(d)) on KNum coefficients: a_k =
    (tau * err_k) mod a0 with tau * conj(a0) = 1 mod a0."""

    PREC = 5

    @staticmethod
    def _k_xgcd(a: TPoly, b: TPoly) -> tuple[TPoly, TPoly]:
        """(g, tau): the monic gcd of a and b over K and tau * b = g mod a,
        by a remainder sequence scaled monic with KNum.inverse."""
        zero = a.czero
        r0, r1, t0, t1 = a, b, TPoly((), zero), TPoly((zero.one_like(),), zero)
        while not r1.is_zero():
            u = TPoly((r1.lc.inverse(),), zero)
            r1, t1 = u * r1, u * t1
            q, r = r0.divmod(r1)
            r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
        return r0, t0

    @pytest.mark.parametrize("d", [Fraction(-3), Fraction(-7, 5), Fraction(8, 3), Fraction(5)])
    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_lift_against_k_arithmetic(self, d, pairs):
        rng = random.Random(f"{d}:{pairs}")
        zero = Poly.zero()
        one = _k_tpoly(Poly.one(), zero, d)

        def rat():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

        for _ in range(3):
            # a candidate half: one factor of degree 1 or 2 from each of
            # `pairs` conjugate pairs, prime to its conjugate
            g = None
            while g != one:
                a0 = one
                for _ in range(pairs):
                    k = rng.randint(1, 2)
                    a0 = a0 * _k_tpoly(Poly([rat() for _ in range(k)] + [Fraction(1)]),
                                       Poly([rat() for _ in range(k)]), d)
                g, tau = self._k_xgcd(a0, _k_conj(a0))
            h = a0.degree
            # s_k is the z^k coefficient of q(x0 + z), with q(x0) = a0 * conj(a0)
            s = [_k_parts(a0 * _k_conj(a0))[0]]
            s += [Poly([rat() for _ in range(2 * h)]) for _ in range(1, self.PREC)]
            P, Q = _x_adic_lift(s, *_k_parts(a0), d)
            assert len(P) == len(Q) == self.PREC
            assert all(p.degree < h and q.degree < h for p, q in zip(P[1:], Q[1:]))
            w = [_k_tpoly(p, q, d) for p, q in zip(P, Q)]
            assert w[0] == a0
            for k in range(self.PREC):
                acc = TPoly((), one.czero)
                for i in range(k + 1):
                    acc = acc + w[i] * _k_conj(w[k - i])
                assert acc == _k_tpoly(s[k], zero, d), (k, acc)
            old = [a0]
            for k in range(1, self.PREC):
                err = _k_tpoly(s[k], zero, d)
                for i in range(1, k):
                    err = err - old[i] * _k_conj(old[k - i])
                old.append((tau * err) % a0)
            assert w == old
