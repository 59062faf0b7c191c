"""Structure theory of spectral polynomials: multiplicity (squarefree)
decomposition, factor degree bounds, trace translation, the power and
product maps between characteristic spaces, and the degree-2 Galois
pushforward with its bounded inverse (the membership test for descent
along a double cover).

The double cover is modeled concretely as y^2 = f(x) with f squarefree.
A function on it, polynomial in t, is one Surd P + y*Q: P and Q are
t-polynomials over Q[x] and d is f as a constant t-polynomial, so the
product with the conjugate P - y*Q is P^2 - f*Q^2.  The same type over
Q[t], A + sqrt(d0)*B, is a factor of q(x0, t) over the field Q(sqrt(d0)),
d0 = f(x0), at a point x0.  The splitter finds those factors from one lift
of q(x0)'s factors mod a prime split in the field (Zassenhaus over Q, then
each even Q-factor split from its own lifted factors), and lifts a half
A + sqrt(d0)*B in x - x0 on pairs of Poly in t, to a precision set by the
block's own slope max ceil(deg c_i / (n - i)).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .norms import SpectralPoly, spectral_mul, spectral_pow
from .polynomials import (
    Poly,
    TPoly,
    horner,
    pseudo_remainder,
    power,
    resultant,
    yun_squarefree,
)


@dataclass(frozen=True)
class FactoredSpectral:
    """Multiplicity profile of a spectral polynomial: squarefree, pairwise
    coprime monic blocks q_i with multiplicities, multiplying back to the
    input exactly.  Blocks are squarefree over Q(x) but not necessarily
    irreducible (full factorization is deliberately out of scope)."""

    deg_m: int
    factors: tuple[tuple[SpectralPoly, int], ...]

    def reconstruct(self) -> SpectralPoly:
        acc = None
        for block, mult in self.factors:
            piece = spectral_pow(block, mult)
            acc = piece if acc is None else spectral_mul(acc, piece)
        if acc is None:
            raise ValueError("empty factorization")
        return acc


def squarefree_decompose(s: SpectralPoly) -> FactoredSpectral:
    """Yun decomposition of s in t over Q(x), computed in Q[x][t]
    (polynomials.yun_squarefree); exact reconstruction holds and every
    block inherits the graded degree bounds."""
    out = [(SpectralPoly.from_tpoly(q, s.deg_m), mult)
           for q, mult in yun_squarefree(s.as_tpoly())]
    fac = FactoredSpectral(s.deg_m, tuple(out))
    if fac.reconstruct() != s:
        raise RuntimeError("squarefree decomposition failed to reconstruct")
    return fac


def verify_component_degree_bounds(s: SpectralPoly, factor: SpectralPoly) -> bool:
    """Check that a monic factor of s satisfies the graded degree bounds
    deg(b_j) <= j * deg_m.  Raises if the candidate does not divide s over
    Q(x), decided by a zero pseudo-remainder over Q[x]."""
    ft = factor.as_tpoly()
    if not pseudo_remainder(s.as_tpoly(), ft).is_zero():
        raise ValueError("candidate does not divide the spectral polynomial")
    d = ft.degree
    for j in range(1, d + 1):
        if ft.coeff(d - j).degree > j * s.deg_m:
            return False
    return True


def trace_translate(s: SpectralPoly) -> SpectralPoly:
    """Change of variables t -> t - a_1/n, killing the t^(n-1) coefficient
    while preserving the graded degree bounds.  Idempotent."""
    shift = s.coeffs[0].scale(Fraction(-1, s.n))
    out = SpectralPoly.from_tpoly(_tpoly_shift(s.as_tpoly(), shift), s.deg_m)
    if not out.coeffs[0].is_zero():
        raise RuntimeError("translation failed to kill the trace")  # unreachable
    return out


def phi_k(s_b: SpectralPoly, k: int) -> SpectralPoly:
    """The k-th power map between characteristic spaces: s -> s^k;
    spectral_pow rejects k < 1."""
    return spectral_pow(s_b, k)


def phi_pair(s_b: SpectralPoly, s_c: SpectralPoly) -> SpectralPoly:
    """The product map (b, c) -> a with s_a = s_b * s_c; the result is
    trace-free iff b_1 + c_1 = 0."""
    return spectral_mul(s_b, s_c)


def is_trace_free(s: SpectralPoly) -> bool:
    return s.coeffs[0].is_zero()


@dataclass(frozen=True)
class DoubleCoverData:
    """The double cover y^2 = f(x) with f squarefree; the concrete model of
    the degree-2 cyclic Galois cover, with involution y -> -y."""

    f: Poly

    def __post_init__(self):
        if self.f.degree < 1:
            raise ValueError("cover polynomial must be nonconstant")
        if not self.f.is_squarefree():
            raise ValueError("cover polynomial must be squarefree")

    @property
    def half_degree(self) -> int:
        """Ceil(deg f / 2): the pole order of y at infinity."""
        return (self.f.degree + 1) // 2


@dataclass(frozen=True)
class Surd:
    """Element a + b*sqrt(d) of R[sqrt(d)], R an exact coefficient ring.

    On the double cover R = Q[x][t] and d = f as a constant t-polynomial,
    so sqrt(d) is y and the element is the function a + y*b, polynomial in
    t, reduced mod y^2 = f.  At a specialization point x0, R = Q[t] and d =
    f(x0) is a non-square: the element is a polynomial in t over the
    quadratic number field Q(sqrt(d))."""

    a: object
    b: object
    d: object

    def _check(self, other: "Surd"):
        if self.d is not other.d and self.d != other.d:
            raise ValueError("operands live on different double covers")

    def __add__(self, other: "Surd") -> "Surd":
        self._check(other)
        return Surd(self.a + other.a, self.b + other.b, self.d)

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other: "Surd") -> "Surd":
        return self + (-other)

    def __mul__(self, other: "Surd") -> "Surd":
        self._check(other)
        return Surd(self.a * other.a + self.d * (self.b * other.b),
                    self.a * other.b + other.a * self.b, self.d)

    def conjugate(self) -> "Surd":
        return Surd(self.a, -self.b, self.d)


def _on_cover(p: TPoly, f: Poly) -> Surd:
    """p + y*0 on y^2 = f, for p in Q[x][t]."""
    z = p.czero
    return Surd(p, TPoly((), z), TPoly((f,), z))


@dataclass(frozen=True)
class TwistedSpectralPoly:
    """Monic degree-m polynomial in t whose coefficients b_j = u_j + y*v_j
    are functions on the double cover, with the graded bounds inherited from
    the pulled-back line bundle: deg(u_j) <= j*deg_m and, unless v_j = 0,
    deg(v_j) <= j*deg_m - ceil(deg f / 2)."""

    cover: DoubleCoverData
    m: int
    deg_m: int
    pairs: tuple[tuple[Poly, Poly], ...]  # (u_j, v_j) for j = 1..m

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("degree must be >= 1")
        if len(self.pairs) != self.m:
            raise ValueError(f"need exactly {self.m} coefficient pairs")
        h = self.cover.half_degree
        for j, (u, v) in enumerate(self.pairs, start=1):
            if u.degree > j * self.deg_m:
                raise ValueError(f"deg(u_{j}) exceeds the bound {j}*{self.deg_m}")
            if v and v.degree > j * self.deg_m - h:
                raise ValueError(
                    f"deg(v_{j}) exceeds the bound {j}*{self.deg_m} - {h}")

    def as_surd(self) -> Surd:
        """s_b = P + y*Q with P = t^m + sum u_j t^(m-j), Q = sum v_j t^(m-j)."""
        z = Poly.zero()
        return Surd(TPoly([u for u, _ in reversed(self.pairs)] + [Poly.one()], z),
                    TPoly([v for _, v in reversed(self.pairs)], z), TPoly((self.cover.f,), z))


def galois_pushforward(cover: DoubleCoverData,
                       s_b: TwistedSpectralPoly) -> SpectralPoly:
    """Product of s_b with its Galois conjugate, reduced mod y^2 = f; the
    y-components cancel and the result descends to a spectral polynomial of
    degree 2m over the base.  Its t^(2m-1) coefficient is twice the
    invariant part of b_1."""
    if s_b.cover != cover:
        raise ValueError("twisted polynomial lives on a different cover")
    w = s_b.as_surd()
    norm = w * w.conjugate()
    if not norm.b.is_zero():
        raise RuntimeError("pushforward retained y-dependence; "
                           "conjugate-product arithmetic is broken")
    return SpectralPoly.from_tpoly(norm.a, s_b.deg_m)


def pullback_splits(cover: DoubleCoverData,
                    s_a: SpectralPoly) -> Optional[TwistedSpectralPoly]:
    """Bounded inverse of the pushforward: find a twisted polynomial s_b
    with galois_pushforward(cover, s_b) = s_a, or None when no such
    polynomial with rational coefficients and the graded degree bounds
    exists.

    Writing s_b = P + y*Q, the condition is P^2 - f*Q^2 = s_a, i.e. s_a is
    the norm of a monic degree-m polynomial over the quadratic function
    field K = Q(x)(y).  The search runs blockwise over the multiplicity
    profile of s_a: [(s_a, 1)] when s_a(x0, t) is squarefree at the first
    good point x0 (_good_points), which certifies that s_a, monic in t,
    has disc_t(s_a)(x0) != 0 and so is squarefree over Q(x); otherwise
    Yun's decomposition in Q[x][t] (yun_squarefree).  Each squarefree
    block is split over K at x0 for a certified s_a, else at its first good
    point where it stays squarefree, factoring over the resulting quadratic
    number field and Hensel-lifting each candidate half back to a
    polynomial witness; a block with no witness contributes half its even
    multiplicity y-free, and an odd one there rules out any witness.
    The assembled witness is certified by re-pushforward.

    The assembled witness meets the graded bounds, so building it cannot
    fail: its t-roots are roots of s_a, which (as deg a_j <= j*deg_m) have
    pole order <= deg_m at the places over infinity, in units of the pole
    order of x.  So b_j and its conjugate have pole order <= j*deg_m, and
    u_j = (b_j + conj b_j)/2 has deg u_j <= j*deg_m, while y*v_j =
    (b_j - conj b_j)/2, y of pole order deg f / 2, has deg v_j <= j*deg_m -
    ceil(deg f / 2).  Were this false, the TwistedSpectralPoly constructor
    would raise ValueError (exit 3) rather than return a wrong None."""
    if s_a.n % 2 != 0:
        raise ValueError("pullback splitting needs even degree in t")
    m = s_a.n // 2
    s = s_a.as_tpoly()
    point = next(_good_points(cover.f, s), None)
    certified = point is not None and point[2].is_squarefree()
    acc = one = _on_cover(TPoly((Poly.one(),), Poly.zero()), cover.f)
    for q, e in [(s, 1)] if certified else yun_squarefree(s):
        if not certified:
            point = next((p for p in _good_points(cover.f, q) if p[2].is_squarefree()), None)
        w = _split_squarefree_block(cover, q, point)
        if w is None:
            if e % 2 != 0:
                return None
            w, e = _on_cover(q, cover.f), e // 2
        acc = acc * power(w, e, one)
    pairs = tuple((acc.a.coeff(j), acc.b.coeff(j)) for j in reversed(range(m)))
    witness = TwistedSpectralPoly(cover, m, s_a.deg_m, pairs)
    if galois_pushforward(cover, witness) != s_a:
        raise RuntimeError("splitter produced an uncertified witness")
    return witness


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def _good_points(f: Poly, q: TPoly):
    """(x0, f(x0), q(x0, t)) at the good points x0 in the order 0, -1, 1,
    -2, ...: those where f(x0) is a nonzero non-square."""
    for trial in range(0, 40 * (q.degree + f.degree + 4)):
        x0 = Fraction((-1) ** trial * ((trial + 1) // 2))
        d0 = f(x0)
        if d0 != 0 and not _is_square(d0):
            yield x0, d0, Poly([c(x0) for c in q.coeffs])


def _poly_shift(p: Poly, a: Fraction) -> Poly:
    """p(x + a), by Horner."""
    return horner(p.coeffs, Poly((a, 1)), Poly.zero())


def _tpoly_shift(p: TPoly, a) -> TPoly:
    """p(t + a), by Horner, for a in the coefficient ring of p."""
    z = p.czero
    return horner([TPoly((c,), z) for c in p.coeffs], TPoly((a, z.one_like()), z),
                  TPoly((), z))


def _series_inv_sqrt(u: Poly, n: int) -> Poly:
    """(1 + w)^(-1/2) mod z^n for the series u = 1 + w, by Newton iteration."""
    if u.truncate(1) != 1:
        raise ValueError("series must have constant term 1")
    h, k = Poly.one(), 1
    while k < n:
        k = min(2 * k, n)
        corr = 3 - (u * (h * h).truncate(k)).truncate(k)
        h = (h * corr).truncate(k).scale(Fraction(1, 2))
    return h


def _transpose(ps: list, n: int) -> list[Poly]:
    """[sum_i ps[i]_j v^i for j < n]: coefficients in one variable, read in the other."""
    return [Poly(p.coeffs[j] if j <= p.degree else 0 for p in ps) for j in range(n)]


def _poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Extended Euclid over Q as a monic remainder sequence: the monic gcd
    g of a and b (b nonzero) and the t with s*a + t*b = g."""
    r0, r1, t0, t1 = a, b, Poly.zero(), Poly.one()
    while r1:
        r1, t1 = r1.monic(), t1.scale(1 / r1.lc)
        q, r = r0.divmod(r1)
        r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
    return r0, t0


def _x_adic_lift(s: list[Poly], a: Poly, b: Poly, d: Fraction) -> tuple[list, list]:
    """Linear Hensel lifting in z (MCA §15.4) of a + sqrt(d)*b, a monic and
    prime to b, to W = sum (P_k + sqrt(d)*Q_k) z^k with W * conj(W) = sum
    s_k z^k mod z^len(s), s_0 = a^2 - d*b^2 and deg s_k < 2 deg a.  Term k
    solves 2*(P_k*a - d*Q_k*b) = err_k in Q[t] (the sqrt(d) parts cancel in
    pairs): Q_k = err_k*v mod a, v = (-2*d*b)^-1 mod a, and P_k is an exact
    quotient by a; deg P_k, deg Q_k < deg a makes them unique."""
    v = _poly_xgcd(a, b)[1].scale(-1 / (2 * d))
    P, Q = [a], [b]
    for k in range(1, len(s)):
        err = s[k]
        for i in range(1, k):
            err = err - P[i] * P[k - i] + (Q[i] * Q[k - i]).scale(d)
        qk = (err * v) % a
        P.append((err.scale(Fraction(1, 2)) + (qk * b).scale(d)) / a)
        Q.append(qk)
    return P, Q


# -- factoring over Q and over Q(sqrt(d)), on integer polynomials: lists of
# ints, ascending, with no trailing zeros and, reduced mod m, entries in [0, m)


def _mod(a: list, m: int, sym: bool = False) -> list:
    """a mod m, with entries in (-m/2, m/2] when sym."""
    a = [c % m for c in a]
    while a and not a[-1]:
        a.pop()
    return [c - m if 2 * c > m else c for c in a] if sym else a


def _add(a: list, b: list, k: int = 1) -> list:
    """a + k*b, perhaps with trailing zeros."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += k * c
    return out


def _mul(a: list, b: list) -> list:
    """a*b."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _prod(fs: list, m: int) -> list:
    return functools.reduce(lambda acc, g: _mod(_mul(acc, g), m), fs, [1])


def _divmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by b mod m, b monic."""
    r = _mod(a, m)
    q = [0] * max(len(r) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + len(b) - 1] % m
        for j, y in enumerate(b):
            r[i + j] -= c * y
    return q, _mod(r[:len(b) - 1], m)


def _xgcd(a: list, b: list, p: int) -> tuple[list, list]:
    """(g, t): g = gcd(a, b) mod the prime p, monic if a is or b != 0, t*b = g mod a."""
    r0, r1, t0, t1 = _mod(a, p), _mod(b, p), [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, t1 = [c * inv % p for c in r1], [c * inv % p for c in t1]
        q, r = _divmod(r0, r1, p)
        r0, r1, t0, t1 = r1, r, t1, _mod(_add(t0, _mul(q, t1), -1), p)
    return r0, t0


def _powmod(a: list, k: int, f: list, p: int) -> list:
    """a^k mod (f, p), f monic, by squaring."""
    if k == 0:
        return [1]
    h = _powmod(_divmod(_mul(a, a), f, p)[1], k // 2, f, p)
    return _divmod(_mul(h, a), f, p)[1] if k & 1 else h


def _factor_mod(f: list, p: int) -> list:
    """The monic irreducible factors of f, monic and squarefree mod the odd
    prime p: those of degree i make up g = gcd(f, t^(p^i) - t) once smaller
    degrees are divided out, and g splits by gcd(g, a^((p^i - 1)/2) - 1) for
    random a, seeded from f (MCA Algs. 14.3 and 14.8)."""
    out, h, i, rng = [], [0, 1], 0, random.Random(hash(tuple(f)))
    while len(f) > 2 * i + 2:
        i += 1
        h = _powmod(h, p, f, p)
        g = _xgcd(f, _add(h, [0, 1], -1), p)[0]
        f, todo = _divmod(f, g, p)[0], [g] * (len(g) > 1)
        while todo:
            g = todo.pop()
            if len(g) == i + 1:
                out.append(g)
                continue
            a = [rng.randrange(p) for _ in g[1:]]
            b = _xgcd(g, _add(_powmod(a, (p ** i - 1) // 2, g, p), [1], -1), p)[0]
            todo += [b, _divmod(g, b, p)[0]] if 1 < len(b) < len(g) else [g]
    return out + [f] * (len(f) > 1)


def _hensel(f: list, fs: list, p: int, m: int) -> list:
    """The monic factors of f mod m = p^(2^j) that are fs mod p, for f monic
    and fs pairwise coprime with product f mod p: a factor tree (MCA §15.5)
    of quadratic Hensel steps (MCA Alg. 15.10) on g*h = f and s*g + t*h = 1."""
    if len(fs) == 1:
        return [_mod(f, m)]
    k = len(fs) // 2
    g, h = _prod(fs[:k], p), _prod(fs[k:], p)
    q, t = p, _xgcd(g, h, p)[1]
    s = _divmod(_add([1], _mul(t, h), -1), g, p)[0]
    while q < m:
        q *= q
        e = _mod(_add(f, _mul(g, h), -1), q)
        c, r = _divmod(_mul(s, e), h, q)
        g, h = _mod(_add(g, _add(_mul(t, e), _mul(c, g))), q), _mod(_add(h, r), q)
        b = _mod(_add(_add(_mul(s, g), _mul(t, h)), [1], -1), q)
        c, r = _divmod(_mul(s, b), h, q)
        s, t = _mod(_add(s, r, -1), q), _mod(_add(t, _add(_mul(t, b), _mul(c, g)), -1), q)
    return _hensel(g, fs[:k], p, m) + _hensel(h, fs[k:], p, m)


def _lifted_factors(f: list, bound: int, e: int) -> tuple[list, int, int]:
    """(fs, m, r): for the first odd prime l prime to e with e a square mod
    l, lc(f) a unit and f squarefree mod l, fs are f's monic factors mod m,
    the first l^(2^j) > bound, and r^2 = e mod m (Newton's method).  Primes
    failing the last two tests divide Res(f, f'), which is below ((n + 1)
    max|f_i|)^(2n), so more of them prove it zero (ValueError)."""
    bad = 2 * len(f) * (len(f) * max(map(abs, f))).bit_length()
    for p in (p for p in itertools.count(3, 2)
              if all(p % k for k in range(3, math.isqrt(p) + 1, 2))
              and e % p and pow(e, p // 2, p) == 1):
        if f[-1] % p and len(_xgcd(f, [i * c for i, c in enumerate(f)][1:], p)[0]) == 1:
            break
        if (bad := bad - 1) < 0:
            raise ValueError("cannot factor a polynomial that is not squarefree")
    m, r = p, next(r for r in range(p) if (r * r - e) % p == 0)
    while m <= bound:
        m *= m
        r = (r - (r * r - e) * pow(2 * r, -1, m)) % m
    monic = _mod([c * pow(f[-1], -1, m) for c in f], m)
    return _hensel(monic, _factor_mod(_mod(monic, p), p), p, m), m, r


def _factor_over_quadratic_field(qq: Poly, d: Fraction) -> list[Surd]:
    """Monic irreducible factors A + sqrt(d)*B over K = Q(sqrt(d)), d not a
    square, of a squarefree rational qq, as Surds over Q[t], sorted.

    The primitive f = c*t^n + ... of qq is factored mod the first prime l
    that splits in K (e = num(d)*den(d) = r^2 mod l) and keeps f squarefree,
    and lifted once, mod l^M > 2^(n+1)*(||f||_2 + 1)*max(c, sqrt|e| + 1).  By
    Gauss's lemma over the integers of K, c*G is integral for a monic factor
    G of f over K, with coefficients at most 2^k*||f||_2 (Landau-Mignotte,
    MCA §6.6).  So over Q (Zassenhaus, MCA Alg. 15.19) c times k lifted
    factors, in the symmetric range, is a factor when its primitive part
    divides f, tried only when its constant term divides c*f(0), as a
    factor's does (Gauss's lemma).  A Q-factor P = G*conj(G), of even
    degree 2k, splits over K (Belabas, van Hoeij, Kluners and Steel, JTNB
    21, 2009) through its own lifted factors: sqrt(e) -> r embeds K in Q_l,
    taking G = a + b*sqrt(e) and conj(G) to complementary products G1, G2,
    so A = c*(G1 + G2) and B = c*r*(G1 - G2) are 2c*a and 2c*b*e (|B| <=
    2^(k+1)*||f||_2*sqrt|e|, k <= n/2) in the symmetric range, and e*A^2 -
    B^2 = 4e*c^2*P decides it exactly.  Only subsets with P's first lifted
    factor are tried, as conj swaps G1 and G2."""
    f = list(qq.monic().ints)
    c, n, e = f[-1], len(f) - 1, d.numerator * d.denominator
    bound = (2 ** (n + 1) * (math.isqrt(sum(x * x for x in f)) + 1) *
             max(c, math.isqrt(abs(e)) + 1))
    fs, m, r = _lifted_factors(f, bound, e)
    over_q, left, k, rest = [], list(range(len(fs))), 1, Poly(f)
    while 2 * k <= len(left):
        for sub in itertools.combinations(left, k):
            g = _mod([rest.ints[-1] * x for x in _prod([fs[i] for i in sub], m)], m, sym=True)
            if g[0] and rest.ints[-1] * rest.ints[0] % g[0]:
                continue    # g(0) divides lc(rest)*rest(0) if g is a factor
            quo, rem = rest.divmod(Poly(g).scale(Fraction(1, math.gcd(*g))))
            if not rem:     # the primitive part of g divides rest, so quo is in Z[t]
                over_q.append((Poly(g).monic(), sub))
                rest, left = quo, [i for i in left if i not in sub]
                break
        else:
            k += 1
    out = []
    for p, sub in over_q + [(rest.monic(), left)]:
        picks = itertools.chain.from_iterable(
            itertools.combinations(sub[1:], j) for j in range(len(sub)))
        for pick in picks if p.degree % 2 == 0 else ():
            if sum(len(fs[i]) - 1 for i in (sub[0],) + pick) != p.degree // 2:
                continue
            g1 = _prod([fs[i] for i in (sub[0],) + pick], m)
            g2 = _prod([fs[i] for i in sub[1:] if i not in pick], m)
            a = Poly(_mod([c * x for x in _add(g1, g2)], m, sym=True))
            b = Poly(_mod([c * r * x for x in _add(g1, g2, -1)], m, sym=True))
            if a * a * e - b * b == p.scale(4 * e * c * c):
                h = Surd(a.scale(Fraction(1, 2 * c)), b.scale(Fraction(1, 2 * c * d.numerator)), d)
                out += [h, h.conjugate()]
                break
        else:
            out.append(Surd(p, Poly.zero(), d))
    return sorted(out, key=lambda g: (g.a.degree, list(itertools.zip_longest(
        g.a.coeffs, g.b.coeffs, fillvalue=Fraction(0)))))


def _split_squarefree_block(cover: DoubleCoverData, q: TPoly, point) -> Optional[Surd]:
    """Witness for a squarefree monic block: a function W = P + y*Q on the
    double cover, P monic in t, such that W * conj(W) = q, or None when q
    has a factor that stays irreducible over the cover's function field
    (which blocks any such factorization).

    Strategy: at point = (x0, f(x0), q(x0, t)), a good point (_good_points)
    where q stays squarefree, factor q(x0) over K = Q(sqrt(f(x0))) with
    _factor_over_quadratic_field (one l-adic lift, l split in K), each
    factor a Surd A + sqrt(f(x0))*B over Q[t].  As q(x0) = W(x0) *
    conj(W(x0)) is squarefree, a witness exists only if no factor is
    self-conjugate, and W(x0) then takes one factor from each conjugate
    pair; as W and conj(W) are interchangeable, it takes factor 0's partner,
    and 2^(pairs - 1) halves remain, products of Surds.  Each is
    Hensel-lifted to a series in (x - x0) whose terms are pairs of
    t-polynomials over Q (_x_adic_lift), once per candidate; the witness
    is recovered exactly and certified.  Its degree is bounded by q's own
    slope s = max ceil(deg c_i / (n - i)) over q = t^n + sum c_i t^i: a
    root of q has pole order at most s (in units of that of x), as its
    t^n term would otherwise outgrow the rest, so u_j and v_j have degree
    at most j*s <= half*s, and half*s + 1 terms of the series hold them.
    q is monic in t, so a squarefree q(x0) means disc_t(q)(x0) != 0: q is
    squarefree over Q(x)."""
    if q.degree % 2 != 0:
        return None
    n, half, f = q.degree, q.degree // 2, cover.f
    if point is None:
        raise RuntimeError("no good specialization point found")
    x0, d0, qq = point

    factors = _factor_over_quadratic_field(qq, d0)
    partner = [factors.index(g.conjugate()) for g in factors]
    if any(i == j for i, j in enumerate(partner)):
        return None

    slope = max([0] + [-(-c.degree // (n - i)) for i, c in enumerate(q.coeffs[:n])])
    prec = half * slope + 1
    # q and f re-expanded around x0: series in z = x - x0, s_k in Q[t]
    s_terms = _transpose([_poly_shift(c, x0) for c in q.coeffs], prec)
    g_inv = _series_inv_sqrt(_poly_shift(f, x0).scale(1 / d0), prec)

    # the other pairs by ascending lower index, partner first: a fixed
    # order, which decides the witness returned when several exist
    rest = [(j, i) for i, j in enumerate(partner) if 0 < i < j]
    q_lift = _on_cover(q, f)
    for picks in itertools.product(*rest):
        a0 = functools.reduce(lambda g, i: g * factors[i], picks, factors[partner[0]])
        # the lift of conj(a0) is the conjugate of the lift of a0 (Hensel
        # lifting is unique), so only a0's half is solved for
        P, Q = _x_adic_lift(s_terms, a0.a, a0.b, d0)
        # reassemble W, the conjugate of the lift: with y = sqrt(d0)*g, g =
        # sqrt(f(x0 + z)/d0), its t^j coefficient is u_j + y*v_j, where
        # u_j(x0 + z) = sum_k P_k[j] z^k and g*v_j(x0 + z) = -sum_k Q_k[j] z^k
        w = Surd(TPoly([_poly_shift(pj, -x0) for pj in _transpose(P, half + 1)], q.czero),
                 TPoly([_poly_shift(-(qj * g_inv).truncate(prec), -x0)
                        for qj in _transpose(Q, half + 1)], q.czero), q_lift.d)
        if w * w.conjugate() == q_lift:
            return w
    return None


def factors_coprime(s_b: SpectralPoly, s_c: SpectralPoly) -> bool:
    """Coprimality over Q(x), decided by the resultant."""
    r = resultant(s_b.as_tpoly(), s_c.as_tpoly())
    return not r.is_zero()
