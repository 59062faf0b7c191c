"""Structure theory of spectral polynomials: multiplicity (squarefree)
decomposition, trace translation, and the degree-2 Galois pushforward with
its bounded inverse (the membership test for descent along a double cover).

The double cover is modeled concretely as y^2 = f(x) with f squarefree.
A function on it, polynomial in t, is one Surd P + y*Q: P and Q are
t-polynomials over Q[x] and d is f as a constant t-polynomial, so the
product with the conjugate P - y*Q is P^2 - f*Q^2.  The same type over
Q[t], A + sqrt(d0)*B, is a factor of q(x0, t) over the field Q(sqrt(d0)),
d0 = f(x0), at a point x0; Surd.norm is a^2 - d*b^2, the pushforward and
the splitter's certificate.  The splitter takes those factors from
factoring.py, whose None is its one squarefree test of q(x0), and lifts a
half A + sqrt(d0)*B in z = x - x0 to the witness's series P, Q with P^2 -
f(x0 + z)*Q^2 = q(x0 + z), to a precision set by the block's own slope max
ceil(deg c_i / (n - i)), on integer rows, through one fraction-free inverse
of the lift's operator per candidate.  x0 is an integer, so specialising
and shifting (a Taylor shift) at x0 run on integer numerators.  Each answer
is proved once, by Yun's certificate and W.norm() == q per block;
re-multiplying blocks and re-pushing a witness are verify's checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .norms import SpectralPoly, spectral_mul, spectral_pow
from .polynomials import (
    Poly, TPoly, _add, _bareiss, _mul, _poly, _rows, horner, power, yun_squarefree)


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
    Yun's decomposition over Q(x) (yun_squarefree).  A block of even degree
    is split over K from its factors at x0 for a certified s_a, else at its
    first good point where it stays squarefree, each candidate half
    Hensel-lifted back to a polynomial witness; an odd-degree one has no
    witness, and no point is sought for it.  A block with no witness gives
    half its even multiplicity y-free; an odd one rules out any witness.
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
    points = _good_points(cover.f, s)
    first = next(points)
    certified = first[2] is not None
    acc = None
    for q, e in [(s, 1)] if certified else yun_squarefree(s):
        w = None if q.degree % 2 else _split_squarefree_block(
            cover, q, itertools.chain([first], points) if certified else _good_points(cover.f, q))
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
    """(x0, f(x0), factors) at the good points x0 in the order 0, -1, 1,
    -2, ...: those where f(x0) is a nonzero non-square, x0 an integer;
    factors is factoring's for q(x0, t) over Q(sqrt(f(x0))), None where q(x0)
    is not squarefree (imported here, so only the splitter loads factoring).

    Infinitely many, so a search for one where a squarefree q stays
    squarefree ends: q(x0) does at all x0 but the finitely many roots of
    disc_t(q).  For F = c*f in Z[x], infinitely many primes p divide some
    F(x1) (Schur), and all but finitely many divide neither c nor Res(F, F')
    != 0 (f is squarefree).  Then p divides F(x) once at x1 or x1 + p, and
    at all x in its class mod p^2, where f(x) is a nonzero non-square."""
    from .factoring import factor_over_quadratic_field

    rows, den = _rows(q.coeffs)
    for trial in itertools.count():
        x0 = (-1) ** trial * ((trial + 1) // 2)
        d0 = Fraction(horner(f.ints, x0, 0), f.denom)
        if d0 != 0 and not _is_square(d0):
            yield x0, d0, factor_over_quadratic_field(
                _poly([horner(c, x0, 0) for c in rows], den), d0)


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


def _split_squarefree_block(cover: DoubleCoverData, q: TPoly, points) -> Optional[Surd]:
    """Witness for a squarefree monic block of even degree: a function W =
    P + y*Q on the double cover, P monic in t, such that W * conj(W) = q, or
    None when q has a factor that stays irreducible over the cover's
    function field (which blocks any such factorization).

    Strategy: points are q's good points (_good_points) from the first; at
    the first, x0, where q stays squarefree, q(x0) comes factored over K =
    Q(sqrt(f(x0))), each factor a Surd A + sqrt(f(x0))*B over Q[t].  As
    q(x0) = W(x0) * conj(W(x0)) is squarefree, a witness exists only if no
    factor is self-conjugate, and W(x0) then takes one factor from each
    conjugate pair; as W and conj(W) are interchangeable, it takes factor
    0's partner, and 2^(pairs - 1) halves remain, products of Surds.  Each
    is Hensel-lifted against f(x0 + z), z = x - x0, to the series P, Q of
    the witness's own parts (_x_adic_lift), once per candidate; W is read
    off them exactly and certified by W.norm() = q.  Its degree is bounded
    by q's own slope s = max ceil(deg c_i / (n - i)) over q = t^n + sum c_i
    t^i: a root of q has pole order at most s (in units of that of x), as
    its t^n term would otherwise outgrow the rest, so u_j and v_j have
    degree at most j*s <= half*s, and half*s + 1 terms hold them.  q is
    monic in t, so a squarefree q(x0) means disc_t(q)(x0) != 0: q is
    squarefree over Q(x).  As W is in Q[x][y][t], the self-conjugate test
    holds at every such point: with two or more pairs 3 more are tried before
    any lift (Hilbert irreducibility: few split every factor of a q with no W)."""
    n, half, f = q.degree, q.degree // 2, cover.f
    squarefree = (p for p in points if p[2] is not None)
    x0, _d0, factors = next(squarefree)

    partner = [factors.index(g.conjugate()) for g in factors]
    if any(i == j for i, j in enumerate(partner)):
        return None
    for _x1, _d1, further in itertools.islice(squarefree, 3 if len(factors) > 2 else 0):
        if any(not g.b for g in further):
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
