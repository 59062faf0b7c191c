"""Tests for spectral-polynomial structure: squarefree profiles, trace
translation, power/product maps, and the degree-2 Galois machinery."""

import functools
import importlib.util
import math
import operator
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prymkit import covers, factoring, polynomials
from prymkit.covers import (
    DoubleCoverData,
    FactoredSpectral,
    Surd,
    TwistedSpectralPoly,
    _poly_shift,
    _x_adic_lift,
    galois_pushforward,
    pullback_splits,
    squarefree_decompose,
    trace_translate,
)
from prymkit.factoring import _divmod, _mod, factor_over_quadratic_field
from prymkit.norms import SpectralPoly, factors_coprime, spectral_mul, spectral_pow
from prymkit.polynomials import Poly, TPoly, _add, _bareiss, _mul, horner, yun_squarefree
from prymkit.serialize import cover_from_json, spectral_from_json
from prymkit.verify import (
    random_poly,
    random_spectral,
    random_squarefree,
    random_twisted,
)

X = Poly.x()


def spoly(n, deg_m, *coeffs):
    return SpectralPoly(n, deg_m, tuple(coeffs))


def at(p: Poly, x0) -> Fraction:
    """p(x0) by Horner's rule on the Fraction coefficients."""
    return horner(p.coeffs, Fraction(x0), Fraction(0))


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


def _k_divmod(a: TPoly, b: TPoly) -> tuple[TPoly, TPoly]:
    """(q, r) with a = q*b + r and deg r < deg b, for b monic over K."""
    *low, _ = b.coeffs
    r, q = list(a.coeffs), []
    while len(r) > len(low):
        q.append(r.pop())
        for k, c in enumerate(low):
            r[len(r) - len(low) + k] -= q[-1] * c
    return TPoly(q[::-1], a.czero), TPoly(r, a.czero)


def _k_prem(a: TPoly, b: TPoly) -> TPoly:
    """lc(b)^(deg a - deg b + 1) * a mod b over K by ring operations alone,
    no coefficient divided: the pseudo-division written apart from _k_divmod."""
    r, (*low, lb) = list(a.coeffs), b.coeffs
    while len(r) > len(low):
        c = r.pop()
        r = [x * lb for x in r]
        for k, y in enumerate(low):
            r[len(r) - len(low) + k] -= c * y
    return TPoly(r, a.czero)


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

    def test_runs_no_block_product(self, monkeypatch):
        # Yun's certificate proves prod q_i^i = s, so no product of the
        # blocks runs; reconstruct and sympy's sqf_list check them after
        quad = spoly(2, 1, Poly.zero(), -X)
        lin = spoly(1, 1, -X)
        rng = random.Random(29)
        cases = [quad, spectral_pow(lin, 2),
                 spectral_mul(spectral_pow(quad, 2), spoly(1, 1, Poly.constant(-1))),
                 spectral_mul(spectral_pow(random_spectral(rng, max_n=2), 3),
                              random_spectral(rng, max_n=3))]

        def product(*args):
            raise AssertionError("a product of the blocks ran")
        with monkeypatch.context() as patched:
            for name in ("spectral_mul", "spectral_pow"):
                patched.setattr(covers, name, product)
            patched.setattr(FactoredSpectral, "reconstruct", product)
            facs = [squarefree_decompose(s) for s in cases]
        for s, fac in zip(cases, facs):
            assert fac.reconstruct() == s
            assert ([(_sympy_tpoly(q.as_tpoly()), e) for q, e in fac.factors] ==
                    _sympy_tpoly(s.as_tpoly()).sqf_list()[1])
        assert max(e for _, e in facs[-1].factors) >= 3


def _sympy_tpoly(p: TPoly) -> sympy.Poly:
    """p as a polynomial in t over sympy's QQ.frac_field(x)."""
    x, t = sympy.symbols("x t")
    return sympy.Poly(sum(sum(sympy.Rational(a.numerator, a.denominator) * x ** i
                              for i, a in enumerate(p.coeff(k).coeffs)) * t ** k
                          for k in range(p.degree + 1)), t, domain=sympy.QQ.frac_field(x))


def within_bounds(q, deg_m):
    """deg b_j <= j * deg_m for every coefficient of the monic t-polynomial q."""
    t = q.as_tpoly()
    return all(t.coeff(t.degree - j).degree <= j * deg_m for j in range(1, t.degree + 1))


class TestDegreeBounds:
    def test_split_factors_pass(self):
        b = spoly(1, 1, -X)
        c = spoly(1, 1, X)
        s = spectral_mul(b, c)
        assert within_bounds(b, s.deg_m) and within_bounds(c, s.deg_m)
        # a factor of degree 1 with a quadratic coefficient breaks them
        with pytest.raises(ValueError, match="exceeds the bound"):
            SpectralPoly.from_tpoly(TPoly((-(X * X), Poly.one()), Poly.zero()), s.deg_m)

    def test_bounds_inherited_by_blocks(self):
        rng = random.Random(19)
        for _ in range(15):
            parts = [random_spectral(rng, max_n=2) for _ in range(2)]
            s = spectral_mul(parts[0], parts[1])
            for q, _m in squarefree_decompose(s).factors:
                assert within_bounds(q, s.deg_m)


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
        assert spectral_pow(s, 1) == s

    def test_power_below_one_rejected(self):
        s = spoly(1, 1, -X)
        for k in (0, -1):
            with pytest.raises(ValueError, match="power must be >= 1"):
                spectral_pow(s, k)

    def test_binomial_square(self):
        s = spoly(1, 1, -X)
        assert spectral_pow(s, 2) == spoly(2, 1, X.scale(-2), X * X)

    def test_power_composition(self):
        rng = random.Random(37)
        for _ in range(10):
            s = random_spectral(rng, max_n=2)
            assert spectral_pow(s, 6) == spectral_pow(spectral_pow(s, 2), 3)

    def test_power_multiplies_profile(self):
        quad = spoly(2, 1, Poly.zero(), -X)
        cubed = spectral_pow(quad, 3)
        fac = squarefree_decompose(cubed)
        assert [(q, m) for q, m in fac.factors] == [(quad, 3)]

    def test_product_trace_additivity(self):
        b = spoly(1, 1, -X)
        c = spoly(1, 1, X)
        out = spectral_mul(b, c)
        assert out == spoly(2, 1, Poly.zero(), -(X * X))
        assert out.coeffs[0].is_zero()
        d = spoly(1, 1, Poly.one())
        assert not spectral_mul(b, d).coeffs[0].is_zero()

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
        assert pushed == spectral_pow(spoly(1, 1, -u), 2)

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

    def test_norm_is_the_conjugate_product(self):
        # on the cover (Q[x][t], d = f) and at a point (Q[t], d = f(x0))
        rng = random.Random(29)
        for _ in range(20):
            cover = DoubleCoverData(random_squarefree(rng, 3))
            w = random_twisted(rng, cover, rng.randint(1, 3), rng.randint(1, 2)).as_surd()
            x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            w0 = Surd(Poly(at(c, x0) for c in w.a.coeffs), Poly(at(c, x0) for c in w.b.coeffs),
                      at(cover.f, x0))
            for v in (w, w0, w.conjugate(), Surd(w.a, w.a + w.b, w.d)):
                prod = v * v.conjugate()
                assert v.norm() == prod.a and prod.b.is_zero()
        assert Surd(X, Poly.one(), Fraction(3)).norm() == X * X - 3

    def test_pseudo_remainder_by_monic_divisor_over_k(self):
        # over a field too, the pseudo-remainder by a monic divisor is the
        # remainder, with no coefficient divided: the two K-oracles agree
        d, t, zero = Fraction(5, 3), TestQuadraticFieldFactoring._t, Poly.zero()
        a = _k_tpoly(t(1, 0, 1), zero, d)                    # t^2 + 1
        b = _k_tpoly(t(1, 1), t(-1), d)                      # t + 1 - sqrt(d)
        q, r = _k_divmod(a, b)
        assert q * b + r == a and r.degree < b.degree
        assert _k_prem(a, b) == r


class TestPullbackSplits:
    def test_recovers_linear_twist(self):
        cover = DoubleCoverData(X * X - 1)
        s = spoly(2, 1, Poly.zero(), -(X * X - 1))   # t^2 - f
        w = pullback_splits(cover, s)
        assert w is not None
        assert galois_pushforward(cover, w) == s

    def test_half_with_zero_constant_term(self, monkeypatch):
        # W = t^2 + (x + 2)*t + 5x + y*(t + 1) on y^2 = x - 3: at x0 = 0 the
        # half's A0 = t^2 + 2t has no constant term, so the lift's operator
        # has a zero first pivot, and the Gauss-Jordan kernel swaps rows
        seen, bareiss = [], covers._bareiss
        monkeypatch.setattr(covers, "_bareiss",
                            lambda rows, jordan=False: seen.append((rows, jordan))
                            or bareiss(rows, jordan))
        cover = DoubleCoverData(X - 3)
        w = TwistedSpectralPoly(cover, 2, 1, ((X + 2, Poly.one()), (5 * X, Poly.one())))
        s = galois_pushforward(cover, w)
        got = pullback_splits(cover, s)
        assert got is not None and galois_pushforward(cover, got) == s
        assert seen and seen[0][1] and seen[0][0][0][0] == 0

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

    @staticmethod
    def _yun_input():
        """A pushforward times the square of a block inert on y^2 = x^2 - 2."""
        cover = DoubleCoverData(X * X - 2)
        inert = spoly(2, 1, Poly.zero(), -(3 * X - 1))
        tw = random_twisted(random.Random(5), cover, 2, deg_m=1)
        return cover, spectral_mul(galois_pushforward(cover, tw), spectral_pow(inert, 2))

    def test_non_squarefree_input_runs_yun(self, monkeypatch):
        # each block has W * conj(W) = q and Yun proves prod q^e = s, so
        # the witness is not pushed forward inside the splitter
        calls = self._count_yun(monkeypatch)
        cover, s = self._yun_input()

        def pushforward(*args):
            raise AssertionError("the witness was pushed forward again")
        with monkeypatch.context() as patched:
            patched.setattr(covers, "galois_pushforward", pushforward)
            w = pullback_splits(cover, s)
        assert w is not None and galois_pushforward(cover, w) == s
        assert len(calls) == 1

    def test_certified_split_tests_its_point_once(self, monkeypatch):
        # the block is split from the factors that certified s at its first
        # good point x0 = 0: q(x0) is factored once, and Poly.is_squarefree
        # runs on no point's q(x0)
        cover = DoubleCoverData(X * X - 3)
        s = galois_pushforward(cover, random_twisted(random.Random(3), cover, 3, deg_m=1))
        qq = Poly([at(c, 0) for c in s.as_tpoly().coeffs])
        factored, tested = [], []
        factor, is_squarefree = factoring.factor_over_quadratic_field, Poly.is_squarefree

        def counting_factor(p, d):
            factored.append(p)
            return factor(p, d)

        def counting(p):
            tested.append(p)
            return is_squarefree(p)
        monkeypatch.setattr(factoring, "factor_over_quadratic_field", counting_factor)
        monkeypatch.setattr(Poly, "is_squarefree", counting)
        w = pullback_splits(cover, s)
        assert w is not None and galois_pushforward(cover, w) == s
        assert factored[0] == qq and factored.count(qq) == 1
        assert tested == []

    def test_squarefree_mod_only_in_the_prime_search(self, monkeypatch):
        # split-accept and split-reject inputs 0..49 of bench/gen.py: every
        # squarefree test mod p is one of the l search's, 133 in all
        spec = importlib.util.spec_from_file_location(
            "_bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        searching, calls = [False], []
        lifted_factors, squarefree_mod = factoring._lifted_factors, factoring._squarefree_mod

        def search(*args):
            searching[0] = True
            try:
                return lifted_factors(*args)
            finally:
                searching[0] = False

        def counting(f, p):
            calls.append(searching[0])
            return squarefree_mod(f, p)
        monkeypatch.setattr(factoring, "_lifted_factors", search)
        monkeypatch.setattr(factoring, "_squarefree_mod", counting)
        for kind in ("split-accept", "split-reject"):
            for i in range(50):
                _argv, doc = gen.make_input(kind, i)
                pullback_splits(cover_from_json(doc["cover"]), spectral_from_json(doc["spectral"]))
        assert all(calls) and len(calls) == 133

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

    def test_certified_witness_read_back(self, monkeypatch):
        # -W has the norm of W, but its t^m coefficient is -1: on the
        # certified path and after Yun (one block -W, one y-free half) the
        # pairs read off the product must not pass as a witness
        split = covers._split_squarefree_block

        def negated(*args):
            w = split(*args)
            return None if w is None else Surd(-w.a, -w.b, w.d)
        monkeypatch.setattr(covers, "_split_squarefree_block", negated)
        calls = self._count_yun(monkeypatch)
        cover = DoubleCoverData(X * X - 3)
        s = galois_pushforward(cover, random_twisted(random.Random(3), cover, 2, deg_m=1))
        with pytest.raises(RuntimeError, match="uncertified"):
            pullback_splits(cover, s)
        assert calls == []
        with pytest.raises(RuntimeError, match="uncertified"):
            pullback_splits(*self._yun_input())
        assert len(calls) == 1


class TestTaylorShift:
    """_poly_shift(p, a) on integer numerators against evaluation: the
    shifted polynomial at x0 is p at x0 + a."""

    POLYS = [Poly.zero(), Poly.constant(Fraction(-7, 3)), X, -X * X * X + 5 * X - 2,
             Poly([Fraction(1, 6), Fraction(-5, 4), 0, Fraction(2, 9), Fraction(-1, 12)])]

    @pytest.mark.parametrize("a", [0, 1, -1, 7, -7, 10 ** 30])
    def test_against_evaluation(self, a):
        for p in self.POLYS:
            shifted = _poly_shift(p, a)
            assert shifted.degree == p.degree
            for x0 in (0, 1, -3, Fraction(2, 5), 10 ** 12):
                assert at(shifted, x0) == at(p, x0 + a), (p, a, x0)
            assert _poly_shift(shifted, -a) == p


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
        got = factor_over_quadratic_field(p, cls.D)
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
        # not squarefree mod the first split prime, and the gcd over Z
        # finds the square: None, with no prime searched further
        t = TestQuadraticFieldFactoring._t
        for d in (self.D, Fraction(12)):
            assert factor_over_quadratic_field(t(1, 1) * t(1, 1) * t(3, 0, 1), d) is None

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.fractions(-6, 6, max_denominator=3), min_size=1,
                                       max_size=3),
                              st.integers(-3, 3).filter(bool), st.integers(1, 3)),
                    min_size=1, max_size=4),
           st.fractions(-20, 20, max_denominator=6).filter(bool),
           st.sampled_from((Fraction(-1), Fraction(-7, 5), Fraction(2), Fraction(12))))
    @example([([1], 1, 1), ([2], 2, 1)], Fraction(-3), Fraction(-1))     # -6(t + 1)^2
    @example([([0, 5], -1, 1), ([3], 1, 2)], Fraction(15), Fraction(12))
    @example([([1, 1], 5, 1)], Fraction(1), Fraction(-1))                 # fails at l = 5
    def test_none_exactly_when_sympy_finds_a_square(self, parts, content, d):
        # products with and without squares, with content and negative
        # leading coefficients; sympy's sqf_list over QQ is the reference
        qq = Poly.constant(content)
        for low, lc, e in parts:
            qq = qq * Poly(low + [lc]) ** e
        assume(qq.degree <= 12)
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(qq.coeffs)]
        _c, sqf = sympy.Poly(coeffs, sympy.Symbol("t"), domain=sympy.QQ).sqf_list()
        got = factor_over_quadratic_field(qq, d)
        assert (got is None) == any(k > 1 for _g, k in sqf)
        if got is not None:
            assert functools.reduce(operator.mul, got) == Surd(qq.monic(), Poly.zero(), d)

    def test_squarefree_past_failing_primes(self, monkeypatch):
        # over Q(i) the split primes are 5, 13, 17, ...: 5t^2 + t + 1 fails
        # at 5 (its leading coefficient), 65t^2 + t + 1 and t^2 + 65 (a root
        # repeated mod 5 and 13) at 5 and 13; the gcd over Z finds each
        # squarefree, and l is the next split prime that keeps it so
        primes, factor_mod = [], factoring._factor_mod

        def recording(f, p):
            primes.append(p)
            return factor_mod(f, p)
        monkeypatch.setattr(factoring, "_factor_mod", recording)
        t = TestQuadraticFieldFactoring._t
        for p in (t(1, 1, 5), t(1, 1, 65), t(65, 0, 1)):
            TestQuadraticFieldFactoring._check(p, self.D)
        assert primes == [13, 17, 17]

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
        # the lifted factors that found it over Q: one factoring mod l = 11,
        # (t - 3)(t^2 + t + 1)(t^2 - t + 1), and each modular factor lifted
        # once, the linear one by Newton's method and the quadratics as the
        # two leaves of one Hensel tree
        mods, roots, leaves, depths, depth = [], [], [], [], [0]
        factor_mod, newton_root = factoring._factor_mod, factoring._newton_root
        hensel = factoring._hensel

        def counting_factor_mod(*args):
            mods.append(factor_mod(*args))
            return mods[-1]

        def counting_newton_root(f, *args):
            if f != [-12, 0, 1]:     # not the lift of sqrt(12)
                roots.append(f)
            return newton_root(f, *args)

        def counting_hensel(*args):
            depths.append(depth[0])
            depth[0] += 1
            try:
                out = hensel(*args)
                leaves.extend(out if len(args[1]) == 1 else [])
                return out
            finally:
                depth[0] -= 1
        monkeypatch.setattr(factoring, "_factor_mod", counting_factor_mod)
        monkeypatch.setattr(factoring, "_newton_root", counting_newton_root)
        monkeypatch.setattr(factoring, "_hensel", counting_hensel)
        t = TestQuadraticFieldFactoring._t
        got = factor_over_quadratic_field(t(1, 0, -10, 0, 1) * t(-3, 1), Fraction(12))
        assert len(mods) == 1 and sorted(map(len, mods[0])) == [2, 3, 3]
        assert len(roots) == 1 and len(leaves) == 2 and depths.count(0) == 1
        assert len(got) == 3


def _tree_xgcd(a: list, b: list, p: int) -> tuple[list, list]:
    """(g, t): g = gcd(a, b) mod p, t*b = g mod a, for a monic, by the
    extended Euclid that carries t along every step."""
    r0, r1, t0, t1 = _mod(a, p), _mod(b, p), [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, t1 = [c * inv % p for c in r1], [c * inv % p for c in t1]
        q, r = _divmod(r0, r1, p)
        r0, r1, t0, t1 = r1, r, t1, _mod(_add(t0, _mul(q, t1), -1), p)
    return r0, t0


def _tree_lift(f: list, fs: list, p: int, m: int) -> list:
    """Every factor in fs lifted through one Hensel factor tree (MCA §15.5,
    Alg. 15.10), linear ones included, with its own extended Euclid: the
    reference for factoring._lifted_factors, whose Newton roots and cofactors
    must give the same factors."""
    if len(fs) == 1:
        return [_mod(f, m)]
    k = len(fs) // 2
    g, h = factoring._prod(fs[:k], p), factoring._prod(fs[k:], p)
    q, t = p, _tree_xgcd(g, h, p)[1]
    s = _divmod(_add([1], _mul(t, h), -1), g, p)[0]
    while q < m:
        q *= q
        e = _mod(_add(f, _mul(g, h), -1), q)
        c, r = _divmod(_mul(s, e), h, q)
        g, h = _mod(_add(g, _add(_mul(t, e), _mul(c, g))), q), _mod(_add(h, r), q)
        b = _mod(_add(_add(_mul(s, g), _mul(t, h)), [1], -1), q)
        c, r = _divmod(_mul(s, b), h, q)
        s, t = _mod(_add(s, r, -1), q), _mod(_add(t, _add(_mul(t, b), _mul(c, g)), -1), q)
    return _tree_lift(g, fs[:k], p, m) + _tree_lift(h, fs[k:], p, m)


class TestLiftedFactors:
    """factoring._lifted_factors against the factor tree alone: f is built
    squarefree mod a chosen prime l, from distinct roots and random monic
    factors of degree 2-4, and e, the square of the odd primes below l,
    makes l the prime it picks."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((3, 5, 7, 11, 13)),
           st.lists(st.integers(0, 12), max_size=6, unique=True),
           st.lists(st.lists(st.integers(0, 12), min_size=2, max_size=4), max_size=3),
           st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=10),
           st.integers(1, 60), st.integers(0, 10 ** 40))
    @example(5, [0, 1, 2, 3], [], [7, -3], 1, 10 ** 6)          # only linear factors
    @example(3, [], [[1, 0], [2, 1]], [5], 2, 10 ** 9)          # none: t^2 + 1, t^2 + t + 2
    @example(7, [1, 4], [[1, 0], [3, 1, 0]], [9, 9, 9], 3, 10 ** 20)    # some
    @example(11, [5], [], [], 1, 0)                              # degree 1, m = l
    @example(13, [], [[2, 0], [6, 0], [2, 0, 0]], [1, 2, 3], 5, 10 ** 30)   # a tree of 3
    def test_against_the_tree_alone(self, p, roots, others, noise, c, bound):
        roots = sorted({x % p for x in roots})
        f0 = functools.reduce(lambda a, b: _mod(_mul(a, b), p),
                              [[-x, 1] for x in roots] + [g + [1] for g in others], [1])
        assume(1 <= len(f0) - 1 <= 10 and c % p)
        f = [c * x for x in _add(f0, [p * y for y in noise[:len(f0) - 1]])]
        assume(factoring._squarefree_mod(f, p))
        e = functools.reduce(operator.mul, (q for q in (3, 5, 7, 11) if q < p), 1) ** 2
        fs, m, r = factoring._lifted_factors(f, bound, e)
        assert m > bound and (m == p or math.isqrt(m) ** 2 == m <= bound * bound)
        assert (r * r - e) % m == 0
        monic = _mod([x * pow(f[-1], -1, m) for x in f], m)
        mod_l = factoring._factor_mod(_mod(monic, p), p)
        assert fs == _tree_lift(monic, mod_l, p, m)
        assert [_mod(g, p) for g in fs] == mod_l

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((3, 5, 7, 11, 13)),
           st.lists(st.integers(-50, 50), min_size=1, max_size=5),
           st.lists(st.integers(-50, 50), min_size=1, max_size=5),
           st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=10), st.integers(0, 3))
    @example(3, [1, 0], [2, 1], [], 1)           # t^2 + 1, t^2 + t + 2; last remainder 2
    @example(5, [2, 0, 1], [1], [4, 4], 2)       # deg g > deg h; last remainder 2
    def test_one_node(self, p, low_g, low_h, noise, j):
        # one node of the tree on g*h mod p: its s and t, rebuilt from the
        # gcd's quotients, must make g*h = f mod p^2, p^4, ..., m
        g, h = _mod(low_g + [1], p), _mod(low_h + [1], p)
        assume(len(factoring._gcd_mod(g, h, p)[0]) == 1)
        f = _add(_mul(g, h), [p * y for y in noise[:len(g) + len(h) - 2]])
        m = p ** 2 ** j
        got = factoring._hensel(f, [g, h], p, m)
        assert [_mod(x, p) for x in got] == [g, h]
        assert all(x[-1] == 1 and x == _mod(x, m) for x in got)
        assert _mod(_add(f, _mul(*got), -1), m) == []


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
        got = factor_over_quadratic_field(qq, d)
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

    # Zassenhaus over Q joins lifted factors, all linear, into each Q-factor,
    # and tries a subset that passes the constant-term test but does not
    # divide: over Q(i) (t^2 + 1)(t^2 + 4) and (t^2 + 1)(t^2 + 4)(t^2 + 9),
    # monic, so a failing trial fails only in its remainder, and the
    # non-monic (2t^2 + 1)(t^2 + 2) over Q(sqrt 12)
    ZASSENHAUS = [([(1, 0, 1), (4, 0, 1)], Fraction(-1)),
                  ([(1, 0, 1), (4, 0, 1), (9, 0, 1)], Fraction(-1)),
                  ([(1, 0, 2), (2, 0, 1)], Fraction(12))]

    @pytest.mark.parametrize("factors, d", ZASSENHAUS)
    def test_zassenhaus_divides_integer_lists(self, factors, d, monkeypatch):
        qq = functools.reduce(operator.mul, (self._t(*f) for f in factors))
        lifted, trials = [], []
        lifted_factors, zdivmod = factoring._lifted_factors, factoring._zdivmod

        def recording_lift(*args):
            out = lifted_factors(*args)
            lifted.append(out[0])
            return out

        def recording_trial(a, b):
            q, r = zdivmod(a, b)
            trials.append((len(b) - 1, any(r)))
            return q, r

        with monkeypatch.context() as m:
            m.setattr(factoring, "_lifted_factors", recording_lift)
            m.setattr(factoring, "_zdivmod", recording_trial)
            got = factor_over_quadratic_field(qq, d)
        assert all(len(g) == 2 for g in lifted[0])
        assert any(deg >= 2 and not failed for deg, failed in trials)
        assert any(failed for _, failed in trials)
        assert sorted(got, key=repr) == sorted(_sympy_factors(qq, d), key=repr)
        over_q = [g.a * g.a - (g.b * g.b).scale(d) if g.b else g.a
                  for i, g in enumerate(got) if i <= got.index(g.conjugate())]
        assert sorted(over_q, key=repr) == sorted(_sympy_factors_q(qq), key=repr)

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


class TestLinearCoverOracle:
    """Ground truth for "splits" on y^2 = a*x + b from sympy alone, sharing
    no code with covers or factoring.  With x = (z^2 - b)/a, Q[x, y]/(y^2 -
    f) is Q[z], y = z and conjugation is z -> -z, so s_a has a witness iff
    every irreducible factor of s_a(x(z), t) over Q that z -> -z fixes has
    even multiplicity."""

    @staticmethod
    def _oracle(f: Poly, s: SpectralPoly) -> bool:
        z, t = sympy.symbols("z t")

        def expr(p: Poly, at):
            return sum(sympy.Rational(c.numerator, c.denominator) * at ** i
                       for i, c in enumerate(p.coeffs))
        b, a = f.coeffs
        x = (z * z - sympy.Rational(b.numerator, b.denominator)) / sympy.Rational(
            a.numerator, a.denominator)
        lifted = t ** s.n + sum(expr(c, x) * t ** (s.n - j) for j, c in enumerate(s.coeffs, 1))
        _c, factors = sympy.factor_list(sympy.expand(lifted), z, t)
        for g, e in factors:
            fixed = (sympy.Poly(g, z, t, domain=sympy.QQ).monic()
                     == sympy.Poly(g.subs(z, -z), z, t, domain=sympy.QQ).monic())
            if fixed and e % 2:
                return False
        return True

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(-4, 4, max_denominator=3).filter(bool),
           st.fractions(-4, 4, max_denominator=3), st.integers(0, 10 ** 6),
           st.lists(st.tuples(st.sampled_from(("push", "inert", "linear")),
                              st.integers(1, 2)), min_size=1, max_size=3))
    @example(Fraction(1), Fraction(0), 0, [("inert", 1)])
    @example(Fraction(2), Fraction(-1), 1, [("push", 1), ("inert", 2)])
    @example(Fraction(-1, 2), Fraction(3), 2, [("linear", 1), ("push", 1)])
    def test_splits_agrees_with_the_z_line(self, a, b, seed, pieces):
        # s_a a product of pushforwards, random quadratics (mostly inert on
        # the cover) and linear factors, each to the power 1 or 2, and one
        # more linear factor when the degree is odd
        cover, rng = DoubleCoverData(Poly([b, a])), random.Random(seed)
        s = None
        for kind, e in pieces:
            if kind == "push":
                piece = galois_pushforward(cover, random_twisted(rng, cover, 1, 1))
            elif kind == "inert":
                piece = spoly(2, 1, random_poly(rng, 1), random_poly(rng, 2))
            else:
                piece = spoly(1, 1, random_poly(rng, 1))
            piece = spectral_pow(piece, e)
            s = piece if s is None else spectral_mul(s, piece)
        if s.n % 2:
            s = spectral_mul(s, spoly(1, 1, random_poly(rng, 1)))
        assume(s.n <= 8)
        w = pullback_splits(cover, s)
        assert (w is not None) == self._oracle(cover.f, s)
        if w is not None:
            assert galois_pushforward(cover, w) == s


def _stall_adversary(k: int) -> tuple[DoubleCoverData, SpectralPoly]:
    """c_k(t) + x on y^2 = x - 3, c_k = prod_{i=1..k} ((t + i)^2 + 3i^2):
    k conjugate pairs over Q(sqrt(-3)) at x0 = 0, and no witness."""
    c = Poly.one()
    for i in range(1, k + 1):
        c = c * Poly((4 * i * i, 2 * i, 1))
    coeffs = [Poly.constant(a) for a in reversed(c.coeffs[:-1])]
    coeffs[-1] = coeffs[-1] + X
    return DoubleCoverData(X - 3), spoly(2 * k, 1, *coeffs)


def _reference_seconds(seconds: float) -> float:
    """Host seconds as reference seconds: a reference second is the time in
    which the pure-Python kernel of bench/run.py runs 1 / 1.4 ms times."""
    def kernel():
        s = 0
        for i in range(5000):
            s = (s * 31 + i) % 1000003
        table: dict = {}
        for i in range(800):
            key = ((i * 7919) % 1013, i & 7)
            table[key] = table.get(key, 0) + i
        sorted(table.items())

    took = []
    for _ in range(9):
        t0 = time.perf_counter()
        kernel()
        took.append(time.perf_counter() - t0)
    return seconds * 1.4e-3 / statistics.median(took)


class TestSplitterStall:
    """A block with many pairs at x0 but none over the cover: a
    self-conjugate factor at a further good point rejects it before the
    2^(pairs - 1) candidate lifts."""

    def test_k6_rejected_without_a_lift(self, monkeypatch):
        calls = {"factors": [], "lifts": 0}
        factor, lift = factoring.factor_over_quadratic_field, covers._x_adic_lift

        def counting_factor(*args):
            out = factor(*args)
            calls["factors"].append(len(out))
            return out

        def counting_lift(*args):
            calls["lifts"] += 1
            return lift(*args)
        monkeypatch.setattr(factoring, "factor_over_quadratic_field", counting_factor)
        monkeypatch.setattr(covers, "_x_adic_lift", counting_lift)
        assert pullback_splits(*_stall_adversary(6)) is None
        # six pairs of linear factors at x0 = 0; at the next good point,
        # x0 = -1 with d0 = -4, the block stays irreducible, so self-conjugate
        assert calls["factors"] == [12, 1]
        assert calls["lifts"] <= 1

    @pytest.mark.parametrize("k", [9, 12])
    def test_rejected_in_bounded_time(self, k):
        cover, s = _stall_adversary(k)
        t0 = time.perf_counter()
        assert pullback_splits(cover, s) is None
        assert _reference_seconds(time.perf_counter() - t0) < 1.0


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


class TestAdjugate:
    """The Gauss-Jordan mode of polynomials._bareiss, which inverts the
    lift's operator once: [M | I] ends with X in its right half, X*M = D*I,
    and D is sympy's determinant exactly, sign included, at the default
    2-adic threshold and with every step taken 2-adically."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 2], [0, 3, 0], [5, 0, 0]])
    @example([[0, 0, 3, 0], [2, 0, 3, 3], [1, 2, 0, 3], [0, 1, 0, 0]])
    @example([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])    # three swaps
    def test_x_times_m_is_d_times_identity(self, m):
        m[0][0] = 0     # a zero first pivot: the first step swaps rows
        n, det = len(m), int(sympy.Matrix(m).det())
        threshold = polynomials.DIVEXACT_BITS
        try:
            for bits in (threshold, 0):
                polynomials.DIVEXACT_BITS = bits
                rows, D = _bareiss([row + [int(i == j) for j in range(n)]
                                    for i, row in enumerate(m)], jordan=True)
                assert D == det
                X = [row[n:] for row in rows]
                assert not det or [[sum(X[i][k] * m[k][j] for k in range(n)) for j in range(n)]
                                   for i in range(n)] == [[D * (i == j) for j in range(n)]
                                                          for i in range(n)]
        finally:
            polynomials.DIVEXACT_BITS = threshold


class TestXAdicLift:
    """The lift in z = x - x0 on pairs of rational t-polynomials, against
    W * conj(W) = q(x0 + z) mod z^prec for a constant F = (d,), written here
    over K = Q(sqrt(d)) on KNum coefficients, and against the route it
    replaced: a_k = (tau * err_k) mod a0 with tau * conj(a0) = 1 mod a0 for
    f(x0 + z) read as d*g^2, then Q = g^-1 times a_k's sqrt(d) part."""

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
            q, r = _k_divmod(r0, r1)
            r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
        return r0, t0

    @classmethod
    def _candidate(cls, rng: random.Random, d: Fraction, pairs: int) -> tuple[TPoly, list]:
        """(a0, s): a candidate half over K, one factor of degree 1 or 2 from
        each of `pairs` conjugate pairs, prime to its conjugate, and s_k, the
        z^k coefficient of a q(x0 + z) with q(x0) = a0 * conj(a0)."""
        one = _k_tpoly(Poly.one(), Poly.zero(), d)

        def rat():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

        g = None
        while g != one:
            a0 = one
            for _ in range(pairs):
                k = rng.randint(1, 2)
                a0 = a0 * _k_tpoly(Poly([rat() for _ in range(k)] + [Fraction(1)]),
                                   Poly([rat() for _ in range(k)]), d)
            g = cls._k_xgcd(a0, _k_conj(a0))[0]
        s = [_k_parts(a0 * _k_conj(a0))[0]]
        return a0, s + [Poly([rat() for _ in range(2 * a0.degree)]) for _ in range(1, cls.PREC)]

    @classmethod
    def _old_route(cls, a0: TPoly, s: list) -> list[TPoly]:
        """The lift against a constant d over K: a_k = (tau * err_k) mod a0."""
        tau, zero = cls._k_xgcd(a0, _k_conj(a0))[1], Poly.zero()
        old = [a0]
        for k in range(1, len(s)):
            err = _k_tpoly(s[k], zero, a0.czero.d)
            for i in range(1, k):
                err = err - old[i] * _k_conj(old[k - i])
            old.append(_k_divmod(tau * err, a0)[1])
        return old

    @pytest.mark.parametrize("d", [Fraction(-3), Fraction(-7, 5), Fraction(8, 3), Fraction(5)])
    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_lift_against_k_arithmetic(self, d, pairs):
        rng = random.Random(f"{d}:{pairs}")
        zero = Poly.zero()
        for _ in range(3):
            a0, s = self._candidate(rng, d, pairs)
            h = a0.degree
            P, Q = _x_adic_lift(s, *_k_parts(a0), (d,))
            assert len(P) == len(Q) == self.PREC
            assert all(p.degree < h and q.degree < h for p, q in zip(P[1:], Q[1:]))
            w = [_k_tpoly(p, q, d) for p, q in zip(P, Q)]
            assert w[0] == a0
            for k in range(self.PREC):
                acc = TPoly((), a0.czero)
                for i in range(k + 1):
                    acc = acc + w[i] * _k_conj(w[k - i])
                assert acc == _k_tpoly(s[k], zero, d), (k, acc)
            assert w == self._old_route(a0, s)

    @staticmethod
    def _inv_sqrt(u: list, n: int) -> list:
        """(1 + w)^(-1/2) mod z^n for the series u = 1 + w, by Newton's
        iteration h <- h*(3 - u*h^2)/2, on Fraction lists."""
        def mul(a, b, k):
            return [sum(a[i] * b[j - i] for i in range(max(0, j - len(b) + 1), min(j + 1, len(a))))
                    for j in range(k)]

        h, k = [Fraction(1)], 1
        while k < n:
            k = min(2 * k, n)
            corr = [-c for c in mul(u, mul(h, h, k), k)]
            corr[0] += 3
            h = [c / 2 for c in mul(h, corr, k)]
        return h

    @pytest.mark.parametrize("deg_f", [1, 2, 3, 4])
    def test_lift_against_f_of_x0_plus_z(self, deg_f):
        # F = f(x0 + z) for a random f and integer x0 with d = f(x0) not a
        # square: P^2 - F*Q^2 = s mod z^PREC over Q, and against the route
        # it replaced, the lift against d and g^-1 = (F/d)^(-1/2): the same
        # P, and Q = g^-1 times that lift's sqrt(d) part
        rng = random.Random(f"F:{deg_f}")
        for _ in range(3):
            d = Fraction(0)
            while not d or covers._is_square(d):
                f = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(deg_f)]
                         + [Fraction(rng.choice([-3, -1, 1, 2]))])
                F = _poly_shift(f, rng.randint(-6, 6)).coeffs
                d = F[0]
            a0, s = self._candidate(rng, d, rng.randint(1, 3))
            P, Q = _x_adic_lift(s, *_k_parts(a0), F)
            assert all(p.degree < a0.degree and q.degree < a0.degree
                       for p, q in zip(P[1:], Q[1:]))
            for k in range(self.PREC):
                acc = sum((P[i] * P[k - i] for i in range(k + 1)), Poly.zero())
                for l in range(min(k, deg_f) + 1):
                    for i in range(k - l + 1):
                        acc = acc - (Q[i] * Q[k - l - i]).scale(F[l])
                assert acc == s[k], k
            old = [_k_parts(w) for w in self._old_route(a0, s)]
            assert P == [p for p, _ in old]
            g_inv = self._inv_sqrt([c / d for c in F], self.PREC)
            for k in range(self.PREC):
                assert Q[k] == sum((old[i][1].scale(g_inv[k - i]) for i in range(k + 1)),
                                   Poly.zero()), k

    @staticmethod
    def _sympy(p: Poly, x):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
                          or [0], x, domain=sympy.QQ)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(fractions, min_size=n, max_size=n),
        st.lists(fractions, min_size=1, max_size=n))), fractions.filter(bool))
    @example(([Fraction(1, 3), Fraction(-2), Fraction(5, 2)], [Fraction(-7, 4), Fraction(2, 3)]),
             Fraction(-3, 5))
    def test_cofactor_is_the_inverse_mod_a(self, case, d):
        # with s = (a^2 - d*b^2, 1), Q_1 = 1 * v mod a is the cofactor v =
        # (-2*d*b)^-1 mod a itself, read off the operator's adjugate
        low, b_coeffs = case
        a, b = Poly(low + [Fraction(1)]), Poly(b_coeffs)
        x = sympy.Symbol("x")
        sa, sb = self._sympy(a, x), self._sympy(b * Poly.constant(-2 * d), x)
        assume(not b.is_zero() and sympy.gcd(sa, sb).degree() == 0)
        _, Q = _x_adic_lift([a * a - (b * b).scale(d), Poly.one()], a, b, (d,))
        v = Q[1]
        assert v.degree < a.degree
        assert sympy.rem(self._sympy(v * b.scale(-2 * d), x), sa).as_expr() == 1
        want = sympy.invert(sb, sa)
        assert v == Poly([Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())])


class TestGoodPoints:
    """The splitter's search for a good point has no window: the first
    point where a squarefree block stays squarefree may lie past any
    bound in the degrees.  (Last in the file: a splitter that accepted a
    wrong factor here would lift it to 142 terms of 1,900-bit numbers.)"""

    def test_first_squarefree_point_past_every_small_integer(self):
        # s_a = t^2 - P, P = prod_{i=-140..140} (x - i), on y^2 = x - 3:
        # s_a(x0) = t^2 at every integer |x0| <= 140, so the first good
        # point where it is squarefree is x0 = -141.  A witness t + u + y*v
        # has norm (t + u)^2 - (x - 3)*v^2, so it needs u = 0 and P =
        # (x - 3)*v^2; P/(x - 3), of degree 280 with the 280 distinct roots
        # i != 3, is squarefree and no square, so there is none
        cover = DoubleCoverData(X - 3)
        p = functools.reduce(operator.mul, (X - i for i in range(-140, 141)))
        q, r = polynomials._zdivmod(p.ints, [-3, 1])
        rest = Poly(q)
        assert not any(r) and rest.degree == 280 and rest.denom == 1
        assert all(horner(rest.ints, i, 0) == 0 for i in range(-140, 141) if i != 3)
        assert pullback_splits(cover, spoly(2, 142, Poly.zero(), -p)) is None
