"""Structure theory of spectral polynomials: multiplicity (squarefree)
decomposition, trace translation, and the degree-2 Galois pushforward with
its bounded inverse (the membership test for descent along a double cover).

The double cover is modeled concretely as y^2 = f(x) with f squarefree.
A function on it, polynomial in t, is one Surd P + y*Q: P and Q are
t-polynomials over Q[x] and d is f as a constant t-polynomial, so the
product with the conjugate P - y*Q is P^2 - f*Q^2.  The same type over
Q[t], A + sqrt(d0)*B, is a factor of q(x0, t) over the field Q(sqrt(d0)),
d0 = f(x0), at a point x0; Surd.norm is a^2 - d*b^2, the pushforward and
the splitter's certificate.  The splitter finds those factors from one lift
of q(x0)'s factors mod a prime split in the field (linear ones as roots,
by Newton's iteration, the rest by one Hensel tree; Zassenhaus over Q, then
each even Q-factor split from its own lifted factors), and lifts a half
A + sqrt(d0)*B in z = x - x0 to the witness's own series P, Q with P^2 -
f(x0 + z)*Q^2 = q(x0 + z), to a precision set by the block's own slope max
ceil(deg c_i / (n - i)): on integer rows, through one fraction-free inverse
of the lift's operator per candidate.  x0 is an integer, so specialising and
shifting (a Taylor shift) at x0 run on integer numerators.
Poly.is_squarefree, certified mod a small prime before any gcd over Z,
tests f and q(x0); the l-adic factoring shares that certificate, its gcd
mod p (no cofactor built) and the integer-list helpers in polynomials.py.
Each answer is proved once, by Yun's certificate and W.norm() == q per
block; re-multiplying blocks and re-pushing a witness are verify's checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .norms import SpectralPoly, spectral_mul, spectral_pow
from .polynomials import (
    Poly, TPoly, _add, _bareiss, _divmod, _gcd_mod, _mod, _mul, _poly, _rows, _squarefree_mod,
    _zdivmod, horner, power, yun_squarefree)


@dataclass(frozen=True)
class FactoredSpectral:
    """Multiplicity profile of a spectral polynomial: squarefree, pairwise
    coprime monic blocks q_i with multiplicities, multiplying back to the
    input exactly (Yun's certificate; reconstruct re-checks it in verify).
    Blocks are squarefree over Q(x) but not necessarily irreducible (full
    factorization is deliberately out of scope)."""

    deg_m: int
    factors: tuple[tuple[SpectralPoly, int], ...]

    def reconstruct(self) -> SpectralPoly:
        return functools.reduce(spectral_mul, (spectral_pow(q, e) for q, e in self.factors))


def squarefree_decompose(s: SpectralPoly) -> FactoredSpectral:
    """Yun decomposition of s in t over Q(x), computed at one certified
    Kronecker point x = 2^k (polynomials.yun_squarefree), whose certificate
    proves prod q_i^i = s exactly, so the blocks are not multiplied back
    here; every block inherits the graded degree bounds, which
    SpectralPoly.from_tpoly enforces on each block."""
    return FactoredSpectral(s.deg_m, tuple(
        (SpectralPoly.from_tpoly(q, s.deg_m), mult) for q, mult in yun_squarefree(s.as_tpoly())))


def trace_translate(s: SpectralPoly) -> SpectralPoly:
    """Change of variables t -> t - a_1/n, killing the t^(n-1) coefficient
    (exactly: a_1 + n*(-a_1/n) = 0 over Q[x], and verify's structure_maps
    checks the result) while preserving the graded degree bounds.  Idempotent."""
    shift = s.coeffs[0].scale(Fraction(-1, s.n))
    return SpectralPoly.from_tpoly(_tpoly_shift(s.as_tpoly(), shift), s.deg_m)


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

    def __mul__(self, other: "Surd") -> "Surd":
        self._check(other)
        return Surd(self.a * other.a + self.d * (self.b * other.b),
                    self.a * other.b + other.a * self.b, self.d)

    def conjugate(self) -> "Surd":
        return Surd(self.a, -self.b, self.d)

    def norm(self):
        """a^2 - d*b^2, the product with the conjugate (its sqrt(d) part is 0)."""
        return self.a * self.a - self.d * (self.b * self.b)


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
    """Product of s_b = P + y*Q with its Galois conjugate mod y^2 = f, the
    norm P^2 - f*Q^2: its y-part P*Q - P*Q is zero as TPoly multiplication
    commutes, so it descends, unchecked, to a spectral polynomial of degree
    2m over the base.  Its t^(2m-1) coefficient is twice that of u_1."""
    if s_b.cover != cover:
        raise ValueError("twisted polynomial lives on a different cover")
    return SpectralPoly.from_tpoly(s_b.as_surd().norm(), s_b.deg_m)


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
    Yun's decomposition over Q(x) (yun_squarefree).  Each squarefree
    block is split over K at x0 for a certified s_a, else at its first good
    point where it stays squarefree, factoring over the resulting quadratic
    number field and Hensel-lifting each candidate half back to a
    polynomial witness; a block with no witness contributes half its even
    multiplicity y-free, and an odd one there rules out any witness.
    The witness is the product W of the blocks' W_q, read back and not
    pushed forward: W_q * conj(W_q) = q was checked exactly (or W_q is a
    y-free q^(e/2)), and Yun's certificate proves prod q^e = s_a.

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
    point = next(_good_points(cover.f, s))
    certified = point[2].is_squarefree()
    acc = None
    for q, e in [(s, 1)] if certified else yun_squarefree(s):
        if not certified:
            point = next(p for p in _good_points(cover.f, q) if p[2].is_squarefree())
        w = _split_squarefree_block(cover, q, point)
        if w is None:
            if e % 2 != 0:
                return None
            w, e = Surd(q, TPoly((), q.czero), TPoly((cover.f,), q.czero)), e // 2
        w = power(w, e)
        acc = w if acc is None else acc * w
    pairs = tuple((acc.a.coeff(j), acc.b.coeff(j)) for j in reversed(range(m)))
    witness = TwistedSpectralPoly(cover, m, s_a.deg_m, pairs)
    if witness.as_surd() != acc:
        raise RuntimeError("splitter produced an uncertified witness")
    return witness


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def _good_points(f: Poly, q: TPoly):
    """(x0, f(x0), q(x0, t)) at the good points x0 in the order 0, -1, 1,
    -2, ...: those where f(x0) is a nonzero non-square, x0 an integer.

    Infinitely many, so a search for one where a squarefree q stays
    squarefree ends: q(x0) does at all x0 but the finitely many roots of
    disc_t(q).  For F = c*f in Z[x], infinitely many primes p divide some
    F(x1) (Schur), and all but finitely many divide neither c nor Res(F, F')
    != 0 (f is squarefree).  Then p divides F(x) once at x1 or x1 + p, and
    at all x in its class mod p^2, where f(x) is a nonzero non-square."""
    rows, den = _rows(q.coeffs)
    for trial in itertools.count():
        x0 = (-1) ** trial * ((trial + 1) // 2)
        d0 = Fraction(horner(f.ints, x0, 0), f.denom)
        if d0 != 0 and not _is_square(d0):
            yield x0, d0, _poly([horner(c, x0, 0) for c in rows], den)


def _poly_shift(p: Poly, a: int) -> Poly:
    """p(x + a), a an integer: Taylor shift on the numerators (von zur Gathen-Gerhard 1997)."""
    c = list(p.ints)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return _poly(c, p.denom)


def _tpoly_shift(p: TPoly, a) -> TPoly:
    """p(t + a), by Horner, for a in the coefficient ring of p."""
    z = p.czero
    return horner([TPoly((c,), z) for c in p.coeffs], TPoly((a, z.one_like()), z),
                  TPoly((), z))


def _transpose(ps: list, n: int) -> list[Poly]:
    """[sum_i ps[i]_j v^i for j < n]: coefficients in one variable, read in the other."""
    cols, den = _rows(ps)
    return [_poly([c[j] if j < len(c) else 0 for c in cols], den) for j in range(n)]


def _x_adic_lift(s: list[Poly], a: Poly, b: Poly, F) -> tuple[list, list]:
    """Linear Hensel lifting in z (MCA §15.4) of a + sqrt(F_0)*b, a monic of
    degree h and prime to b, to P = sum P_k z^k and Q = sum Q_k z^k over Q[t]
    with P_0 = a, Q_0 = b and P^2 - F*Q^2 = sum s_k z^k mod z^len(s), for F =
    sum F_l z^l a sequence of rationals (f(x0 + z), so F_0 = f(x0) is not a
    square), s_0 = a^2 - F_0*b^2 and deg s_k < 2h.  Order k solves

        2*(a*P_k - F_0*b*Q_k) = s_k - sum_(0<i<k) P_i*P_(k-i)
                                + F_0*sum_(0<i<k) Q_i*Q_(k-i) + sum_(l>0) F_l*(Q^2)_(k-l)

    and deg P_k, deg Q_k < h makes the solution unique, as a is prime to b.
    That operator's matrix, cleared of denominators (times e0*phi/2, P_0 and
    Q_0 being integers over e0 and F over phi), is inverted once by
    fraction-free Gauss-Jordan on [M | I] (polynomials._bareiss); each order
    is then one product by X on integer rows, over one denominator, and one
    Poly is built per P_k and per Q_k."""
    h, phi = a.degree, math.lcm(*(c.denominator for c in F))
    fz = [c.numerator * (phi // c.denominator) for c in F]
    (p0, q0), e0 = _rows((a, b))
    ps, qs, es = [p0], [q0], [e0]
    cols = ([[0] * i + [phi * c for c in ps[0]] for i in range(h)] +
            [[0] * i + [-fz[0] * c for c in qs[0]] for i in range(h)] +
            [[0] * i + [1] for i in range(2 * h)])     # [M | I]
    rows, D = _bareiss([[c[r] if r < len(c) else 0 for c in cols] for r in range(2 * h)],
                       jordan=True)
    X = [row[2 * h:] for row in rows]
    sq = [(_mul(qs[0], qs[0]), e0 * e0)]    # (Q^2)_j, integers over one denominator
    for k in range(1, len(s)):
        # the sums over 0 < i < k, each pair of terms once, over their lcm L
        L = math.lcm(*(es[i] * es[k - i] for i in range(1, k)))
        pp, qq = [], []
        for i in range(1, k // 2 + 1):
            c = L // (es[i] * es[k - i]) * (1 if 2 * i == k else 2)
            pp, qq = _add(pp, _mul(ps[i], ps[k - i]), c), _add(qq, _mul(qs[i], qs[k - i]), c)
        tail = [(fz[l], *sq[k - l]) for l in range(1, min(k + 1, len(fz)))]
        den = math.lcm(s[k].denom, L, *(w for _, _, w in tail))
        R = _add(_add([c * (phi * den // s[k].denom) for c in s[k].ints], pp, -phi * den // L),
                 qq, fz[0] * den // L)
        for fl, w, wd in tail:
            R = _add(R, w, fl * den // wd)
        # R = phi*den times the right side, so (P_k, Q_k) = e0*X*R / (2*D*den)
        x = [e0 * sum(map(operator.mul, row, R)) for row in X]
        e = 2 * D * den
        g = math.gcd(e, *x) * (1 if e > 0 else -1)
        ps.append([c // g for c in x[:h]])
        qs.append([c // g for c in x[h:]])
        es.append(e // g)
        wd = math.lcm(L, e0 * es[k])
        sq.append((_add([c * (wd // L) for c in qq], _mul(qs[0], qs[k]), 2 * wd // (e0 * es[k])),
                   wd))
    return ([a] + [_poly(p, e) for p, e in zip(ps[1:], es[1:])],
            [b] + [_poly(q, e) for q, e in zip(qs[1:], es[1:])])


# -- factoring over Q and over Q(sqrt(d)), on integer polynomials mod m
# (the list helpers of polynomials.py)


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


def _lifted_factors(f: list, bound: int, e: int) -> tuple[list, int, int]:
    """(fs, m, r): for the first odd prime l prime to e with e a square mod
    l, lc(f) a unit and f squarefree mod l, fs are f's monic factors mod m,
    the first l^(2^j) > bound, in _factor_mod's order, and r^2 = e mod m.
    Primes failing the last two tests divide Res(f, f'), which is below
    ((n + 1) max|f_i|)^(2n), so more of them prove it zero (ValueError).
    r and x for each factor t - x mod l are lifted by _newton_root, the rest
    by one Hensel tree from f / prod (t - x), an exact division mod m."""
    bad = 2 * len(f) * (len(f) * max(map(abs, f))).bit_length()
    for p in (p for p in itertools.count(3, 2)
              if all(p % k for k in range(3, math.isqrt(p) + 1, 2))
              and e % p and pow(e, p // 2, p) == 1):
        if _squarefree_mod(f, p):
            break
        if (bad := bad - 1) < 0:
            raise ValueError("cannot factor a polynomial that is not squarefree")
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
    Hensel-lifted against f(x0 + z), z = x - x0, to the series P, Q of the
    witness's own parts (_x_adic_lift), once per candidate; W is read off
    them exactly and certified by W.norm() = q.  Its degree is
    bounded by q's own slope s = max ceil(deg c_i / (n - i)) over q = t^n +
    sum c_i t^i: a root of q has pole order at most s (in units of that of
    x), as its t^n term would otherwise outgrow the rest, so u_j and v_j
    have degree at most j*s <= half*s, and half*s + 1 terms hold them.
    q is monic in t, so a squarefree q(x0) means disc_t(q)(x0) != 0: q is
    squarefree over Q(x).  As W is in Q[x][y][t], the self-conjugate test
    holds at every such point: with two or more pairs 3 more are tried before
    any lift (Hilbert irreducibility: few split every factor of a q with no W)."""
    if q.degree % 2 != 0:
        return None
    n, half, f = q.degree, q.degree // 2, cover.f
    x0, d0, qq = point

    factors = _factor_over_quadratic_field(qq, d0)
    partner = [factors.index(g.conjugate()) for g in factors]
    if any(i == j for i, j in enumerate(partner)):
        return None
    further = (p for p in _good_points(f, q) if p[0] != x0 and p[2].is_squarefree())
    for _x1, d1, q1 in itertools.islice(further, 3 if len(factors) > 2 else 0):
        if any(not g.b for g in _factor_over_quadratic_field(q1, d1)):
            return None

    slope = max([0] + [-(-c.degree // (n - i)) for i, c in enumerate(q.coeffs[:n])])
    prec = half * slope + 1
    # q and f re-expanded around x0: series in z = x - x0, s_k in Q[t], F_l in Q
    s_terms = _transpose([_poly_shift(c, x0) for c in q.coeffs], prec)
    F = _poly_shift(f, x0).coeffs

    # the other pairs by ascending lower index, partner first: a fixed
    # order, which decides the witness returned when several exist
    rest = [(j, i) for i, j in enumerate(partner) if 0 < i < j]
    d = TPoly((f,), q.czero)
    for picks in itertools.product(*rest):
        a0 = functools.reduce(lambda g, i: g * factors[i], picks, factors[partner[0]])
        # the lift of conj(a0) is the conjugate of the lift of a0 (Hensel
        # lifting is unique), so only a0's half is solved for
        P, Q = _x_adic_lift(s_terms, a0.a, a0.b, F)
        # reassemble W, the conjugate of the lift: its t^j coefficient is
        # u_j + y*v_j, u_j(x0 + z) = sum_k P_k[j] z^k, v_j(x0 + z) = -sum_k Q_k[j] z^k
        w = Surd(TPoly([_poly_shift(pj, -x0) for pj in _transpose(P, half + 1)], q.czero),
                 TPoly([_poly_shift(-qj, -x0) for qj in _transpose(Q, half + 1)], q.czero), d)
        if w.norm() == q:
            return w
    return None
