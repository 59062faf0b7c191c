"""Factoring over Q and over K = Q(sqrt(d)) on integer polynomials mod
primes: the splitter's one squarefree decision at a point x0 and its l-adic
factoring of q(x0).  Only the splitter in covers imports this module.

factor_over_quadratic_field returns q(x0)'s monic irreducible factors over
K, or None when q(x0) is not squarefree.  It factors mod the first odd
prime l split in K that keeps q(x0) squarefree, which proves q(x0)
squarefree over Q; at the first split prime that fails, one gcd over Z
decides.  The factors mod l are lifted once, linear ones by Newton's
iteration and the rest by one Hensel tree; Zassenhaus joins them over Q,
and each even Q-factor splits over K from its own lifted factors.
Integer lists mod m are ascending, with no trailing zeros and, reduced,
entries in [0, m).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from .covers import Surd
from .polynomials import Poly, _add, _deriv, _igcd, _mul, _poly, _zdivmod


def _mod(a: Sequence, m: int, sym: bool = False) -> list:
    """a mod m, with entries in (-m/2, m/2] when sym."""
    a = [c % m for c in a]
    while a and not a[-1]:
        a.pop()
    return [c - m if 2 * c > m else c for c in a] if sym else a


def _divmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by b mod m, lc(b) a unit mod m.  a need
    not be reduced; the quotient's entries are, but top entries of a that
    vanish mod m leave zeros at its top.  Division in Z/m, not _zdivmod's Z."""
    r, n, u = list(a), len(b) - 1, pow(b[-1], -1, m)
    q = [0] * max(len(r) - n, 0)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + n] * u % m
        for j in range(n):
            r[i + j] -= c * b[j]
    return q, _mod(r[:n], m)


def _gcd_mod(a: Sequence, b: Sequence, p: int) -> tuple[list, list]:
    """(g, qs): g = gcd(a, b) mod the prime p, monic (or []), and the quotients
    of Euclid's remainders r_(i+1) = r_(i-1) - q_i*r_i, left as they fall:
    only g is made monic, and no cofactor is built (_hensel rebuilds its own)."""
    r0, r1, qs = _mod(a, p), _mod(b, p), []
    while r1:
        q, r = _divmod(r0, r1, p)
        qs.append(q)
        r0, r1 = r1, r
    return [c * pow(r0[-1], -1, p) % p for c in r0] if r0 else r0, qs


def _squarefree_mod(f: Sequence, p: int) -> bool:
    """f keeps its degree and gcd(f, f') = 1 mod the prime p, so disc(f) !=
    0 mod p: f, nonzero, is squarefree."""
    return bool(f[-1] % p) and len(_gcd_mod(f, _deriv(f), p)[0]) == 1


def _prod(fs: list, m: int) -> list:
    return functools.reduce(lambda acc, g: _mod(_mul(acc, g), m), fs, [1])


def _powmod(a: list, k: int, f: list, p: int) -> list:
    """a^k mod (f, p), f monic, for k >= 1 and a reduced with deg a < deg f:
    per bit of k below the top, a square, a product by a if set, each reduced
    mod f in place, building no quotient: 1.14-1.26x faster than _divmod's
    remainder on the 1,694 calls of the galois corpus (Python 3.11.7)."""
    n, h = len(f) - 1, a
    for bit in bin(k)[3:]:
        for x in (h, a) if bit == "1" else (h,):   # h*h, then h*a
            r = _mul(h, x)
            for i in range(len(r) - 1, n - 1, -1):
                c = r[i] % p
                if c:
                    for j in range(n):
                        r[i - n + j] -= c * f[j]
            h = _mod(r[:n], p)
    return h


def _factor_mod(f: list, p: int) -> list:
    """The monic irreducible factors of f, monic and squarefree mod the odd
    prime p: those of degree i make up g = gcd(f, t^(p^i) - t) once smaller
    degrees are divided out, and g splits by gcd(g, a^((p^i - 1)/2) - 1) for
    random a seeded from f, by gcds with no cofactor (MCA Algs. 14.3, 14.8)."""
    out, h, i, rng = [], [0, 1], 0, random.Random(hash(tuple(f)))
    while len(f) > 2 * i + 2:
        i += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _add(h, [0, 1], -1), p)[0]
        f, todo = _divmod(f, g, p)[0], [g] * (len(g) > 1)
        h = _divmod(h, f, p)[1]
        while todo:
            g = todo.pop()
            if len(g) == i + 1:
                out.append(g)
                continue
            a = [rng.randrange(p) for _ in g[1:]]
            b = _gcd_mod(g, _add(_powmod(a, (p ** i - 1) // 2, g, p), [1], -1), p)[0]
            todo += [b, _divmod(g, b, p)[0]] if 1 < len(b) < len(g) else [g]
    return out + [f] * (len(f) > 1)


def _hensel(f: list, fs: list, p: int, m: int) -> list:
    """The monic factors of f mod m = p^(2^j) that are fs mod p, for f monic
    and fs pairwise coprime with product f mod p: a factor tree (MCA §15.5)
    of quadratic Hensel steps (MCA Alg. 15.10) on g*h = f and s*g + t*h = 1,
    s and t rebuilt from _gcd_mod's quotients (MCA §3.2); _lifted_factors
    gives it the factors of degree 2 and more."""
    if len(fs) < 2:
        return [_mod(f, m)] * len(fs)
    k = len(fs) // 2
    g, h = _prod(fs[:k], p), _prod(fs[k:], p)
    t0, t = [], [1]
    for c in _gcd_mod(g, h, p)[1]:      # t_i*h = r_i mod g along Euclid's remainders
        t0, t = t, _mod(_add(t0, _mul(c, t), -1), p)
    c, r = _divmod(_mul(t0, h), g, p)   # t0*h = c*g + r, r the last remainder, a unit
    u = pow(r[0], -1, p)
    q, s, t = p, [-x * u % p for x in c], [x * u % p for x in t0]
    while q < m:
        q *= q
        e = _mod(_add(f, _mul(g, h), -1), q)
        c, r = _divmod(_mul(s, e), h, q)
        g, h = _mod(_add(g, _add(_mul(t, e), _mul(c, g))), q), _mod(_add(h, r), q)
        if q >= m:
            break   # s and t are read only by a further step
        b = _mod(_add(_add(_mul(s, g), _mul(t, h)), [1], -1), q)
        c, r = _divmod(_mul(s, b), h, q)
        s, t = _mod(_add(s, r, -1), q), _mod(_add(t, _add(_mul(t, b), _mul(c, g)), -1), q)
    return _hensel(g, fs[:k], p, m) + _hensel(h, fs[k:], p, m)


def _newton_root(f: list, x: int, p: int, m: int) -> int:
    """The root of f mod m = p^(2^j) that is x mod p, a simple root of f mod
    p: x <- x - f(x)/f'(x) mod p^2, p^4, ..., m (Newton's iteration, MCA
    §9.4), f(x) and f'(x) from one Horner pass."""
    q = p
    while q < m:
        q, v, d = q * q, 0, 0
        for c in reversed(f):
            v, d = (v * x + c) % q, (d * x + v) % q
        x = (x - v * pow(d, -1, q)) % q
    return x


def _lifted_factors(f: list, bound: int, e: int) -> Optional[tuple[list, int, int]]:
    """(fs, m, r), or None when f has a repeated factor.  For the first odd
    prime l prime to e with e a square mod l and f squarefree mod l (lc(f) a
    unit), fs are f's monic factors mod m, the first l^(2^j) > bound, in
    _factor_mod's order, and r^2 = e mod m.  At the first such prime that
    fails, gcd(f, f') over Z decides; a squarefree f fails only at the
    primes dividing lc(f)*disc(f), so the search ends.  r and x for each
    factor t - x mod l are lifted by _newton_root, the rest by one Hensel
    tree from f / prod (t - x), an exact division mod m."""
    primes = (p for p in itertools.count(3, 2)
              if all(p % k for k in range(3, math.isqrt(p) + 1, 2))
              and e % p and pow(e, p // 2, p) == 1)
    p = next(primes)
    if not _squarefree_mod(f, p):
        if len(_igcd(f, _deriv(f))[0]) > 1:
            return None
        p = next(p for p in primes if _squarefree_mod(f, p))
    m, r = p, next(r for r in range(p) if (r * r - e) % p == 0)
    while m <= bound:
        m *= m
    r = _newton_root([-e, 0, 1], r, p, m)
    monic = _mod([c * pow(f[-1], -1, m) for c in f], m)
    fs = _factor_mod(_mod(monic, p), p)
    lin = {i: [-_newton_root(monic, -g[0], p, m) % m, 1] for i, g in enumerate(fs) if len(g) == 2}
    rest, rem = _divmod(monic, _prod(lin.values(), m), m)
    if rem:
        raise ArithmeticError("a lifted root is not a root mod m")
    lifted = iter(_hensel(rest, [g for g in fs if len(g) > 2], p, m))
    return [lin[i] if i in lin else next(lifted) for i in range(len(fs))], m, r


def factor_over_quadratic_field(qq: Poly, d: Fraction) -> Optional[list[Surd]]:
    """Monic irreducible factors A + sqrt(d)*B over K = Q(sqrt(d)), d not a
    square, of a nonconstant rational qq, as Surds over Q[t], sorted; None
    when qq is not squarefree.

    The primitive f = c*t^n + ... of qq is factored mod l (_lifted_factors;
    e = num(d)*den(d) = r^2 mod l) and lifted once, mod l^M >
    2^(n+1)*(||f||_2 + 1)*max(c, sqrt|e| + 1).  By Gauss's lemma over the
    integers of K, c*G is integral for a monic factor G of f over K, with
    coefficients at most 2^k*||f||_2 (Landau-Mignotte, MCA §6.6).  So over Q
    (Zassenhaus, MCA Alg. 15.19) c times k lifted factors, in the symmetric
    range, is a factor when its primitive part divides f, tried only when
    its constant term divides c*f(0), as a factor's does (Gauss's lemma).  A
    Q-factor P = G*conj(G), of even degree 2k, splits over K (Belabas, van
    Hoeij, Kluners and Steel, JTNB 21, 2009) through its own lifted factors:
    sqrt(e) -> r embeds K in Q_l, taking G = a + b*sqrt(e) and conj(G) to
    complementary products G1, G2, so A = c*(G1 + G2) and B = c*r*(G1 - G2)
    are 2c*a and 2c*b*e (|B| <= 2^(k+1)*||f||_2*sqrt|e|, k <= n/2) in the
    symmetric range, and e*A^2 - B^2 = 4e*c^2*P decides it exactly.  Only
    subsets with P's first lifted factor are tried, as conj swaps G1 and G2."""
    f = list(qq.monic().ints)
    c, n, e = f[-1], len(f) - 1, d.numerator * d.denominator
    bound = (2 ** (n + 1) * (math.isqrt(sum(x * x for x in f)) + 1) *
             max(c, math.isqrt(abs(e)) + 1))
    lifted = _lifted_factors(f, bound, e)
    if lifted is None:
        return None
    fs, m, r = lifted
    over_q, left, k, rest = [], list(range(len(fs))), 1, f
    while 2 * k <= len(left):
        for sub in itertools.combinations(left, k):
            g = _mod([rest[-1] * x for x in _prod([fs[i] for i in sub], m)], m, sym=True)
            if g[0] and rest[-1] * rest[0] % g[0]:
                continue    # g(0) divides lc(rest)*rest(0) if g is a factor
            cg = math.gcd(*g)
            quo, rem = _zdivmod(rest, [x // cg for x in g])
            if not any(rem):    # the primitive g divides the primitive rest over Z
                over_q.append((_poly(g, g[-1]), sub))
                rest, left = quo, [i for i in left if i not in sub]
                break
        else:
            k += 1
    out = []
    for p, sub in over_q + [(_poly(list(rest), rest[-1]), left)]:
        picks = itertools.chain.from_iterable(
            itertools.combinations(sub[1:], j) for j in range(len(sub)))
        for pick in picks if p.degree % 2 == 0 else ():
            if sum(len(fs[i]) - 1 for i in (sub[0],) + pick) != p.degree // 2:
                continue
            g1 = _prod([fs[i] for i in (sub[0],) + pick], m)
            g2 = _prod([fs[i] for i in sub[1:] if i not in pick], m)
            a = _poly(_mod([c * x for x in _add(g1, g2)], m, sym=True), 1)
            b = _poly(_mod([c * r * x for x in _add(g1, g2, -1)], m, sym=True), 1)
            if a * a * e - b * b == p.scale(4 * e * c * c):
                h = Surd(a.scale(Fraction(1, 2 * c)), b.scale(Fraction(1, 2 * c * d.numerator)), d)
                out += [h, h.conjugate()]
                break
        else:
            out.append(Surd(p, Poly.zero(), d))
    return sorted(out, key=lambda g: (g.a.degree, list(itertools.zip_longest(
        g.a.coeffs, g.b.coeffs, fillvalue=Fraction(0)))))
