"""Structure theory of spectral polynomials: multiplicity (squarefree)
decomposition, factor degree bounds, trace translation, the power and
product maps between characteristic spaces, and the degree-2 Galois
pushforward with its bounded inverse (the membership test for descent
along a double cover).

The double cover is modeled concretely as y^2 = f(x) with f squarefree;
a function on it is a Surd u + y*v, reduced modulo the defining relation.
The same type, a + b*sqrt(d) with rational a, b, is the arithmetic of the
quadratic number field Q(sqrt(f(x0))) at a specialization point x0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .norms import SpectralPoly, spectral_mul, spectral_pow
from .polynomials import (
    Poly,
    TPoly,
    horner,
    pseudo_remainder,
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

    On the double cover R = Q[x] and d = f, so sqrt(d) is y and the element
    is the function a + y*b reduced mod y^2 = f.  At a specialization point
    x0, R = Q and d = f(x0) is a non-square, so R[sqrt(d)] is a field."""

    a: object
    b: object
    d: object

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def one_like(self) -> "Surd":
        # d ** 0 and d * 0 are the one and zero of R, whichever ring it is
        return Surd(self.d ** 0, self.d * 0, self.d)

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

    def __rmul__(self, n: int) -> "Surd":
        # an integer scalar, as in TPoly.derivative: scale both parts
        return Surd(n * self.a, n * self.b, self.d)

    def conjugate(self) -> "Surd":
        return Surd(self.a, -self.b, self.d)

    def inverse(self) -> "Surd":
        # the norm a^2 - d*b^2 is nonzero because d is not a square
        n = self.a * self.a - self.d * self.b * self.b
        return Surd(self.a / n, -self.b / n, self.d)


def _lift(coeffs, d) -> TPoly:
    """The t-polynomial with coefficients c + 0*sqrt(d), for c in coeffs
    (ascending): from Q[x][t] to the cover when d = f, from Q[t] to
    Q(sqrt(d))[t] when d = f(x0)."""
    zero = d * 0
    return TPoly([Surd(c, zero, d) for c in coeffs], Surd(zero, zero, d))


def _conj(p: TPoly) -> TPoly:
    """p with sqrt(d) -> -sqrt(d) in every coefficient."""
    return p.map_coeffs(Surd.conjugate, p.czero)


@dataclass(frozen=True)
class TwistedSpectralPoly:
    """Monic degree-m polynomial in t whose coefficients b_j = u_j + y*v_j
    are functions on the double cover, with the graded bounds inherited from
    the pulled-back line bundle: deg(u_j) <= j*deg_m and
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
            if v.degree > j * self.deg_m - h:
                raise ValueError(
                    f"deg(v_{j}) exceeds the bound {j}*{self.deg_m} - {h}")

    def as_tpoly(self) -> TPoly:
        """s_b = P + y*Q with P = t^m + sum u_j t^(m-j), Q = sum v_j t^(m-j)."""
        f = self.cover.f
        y = Surd(Poly.zero(), Poly.one(), f)
        p = _lift([u for u, _ in reversed(self.pairs)] + [Poly.one()], f)
        return p + _lift([v for _, v in reversed(self.pairs)], f).scale(y)


def galois_pushforward(cover: DoubleCoverData,
                       s_b: TwistedSpectralPoly) -> SpectralPoly:
    """Product of s_b with its Galois conjugate, reduced mod y^2 = f; the
    y-components cancel and the result descends to a spectral polynomial of
    degree 2m over the base.  Its t^(2m-1) coefficient is twice the
    invariant part of b_1."""
    if s_b.cover != cover:
        raise ValueError("twisted polynomial lives on a different cover")
    w = s_b.as_tpoly()
    coeffs = []
    for c in (w * _conj(w)).coeffs:
        if c.b:
            raise RuntimeError("pushforward retained y-dependence; "
                               "conjugate-product arithmetic is broken")
        coeffs.append(c.a)
    return SpectralPoly.from_tpoly(TPoly(coeffs, Poly.zero()), s_b.deg_m)


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
    acc = _lift([Poly.one()], cover.f)
    for q, e in [(s, 1)] if certified else yun_squarefree(s):
        if not certified:
            point = next((p for p in _good_points(cover.f, q) if p[2].is_squarefree()), None)
        w = _split_squarefree_block(cover, q, s_a.deg_m, point)
        if w is None:
            if e % 2 != 0:
                return None
            acc = acc * _lift(q.coeffs, cover.f) ** (e // 2)
        else:
            acc = acc * w ** e
    pairs = tuple((c.a, c.b) for c in reversed(acc.coeffs[:m]))
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


def _series_mul(a: list, b: list, n: int) -> list:
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _series_inv_sqrt(u: list, n: int) -> list:
    """(1 + w)^(-1/2) mod z^n for u = 1 + w, by Newton iteration."""
    if u[0] != 1:
        raise ValueError("series must have constant term 1")
    h = [Fraction(1)]
    k = 1
    while k < n:
        k = min(2 * k, n)
        hh = _series_mul(h, h, k)
        corr = [-c for c in _series_mul(u, hh, k)]
        corr[0] += 3
        h = [c / 2 for c in _series_mul(h, corr, k)]
    return h


def _tpoly_xgcd(a: TPoly, b: TPoly) -> tuple[TPoly, TPoly]:
    """Extended Euclid as a monic remainder sequence over field coefficients:
    the monic gcd g of a and b (b nonzero) and the t with s*a + t*b = g."""
    r0, r1 = a, b
    t0, t1 = TPoly((), a.czero), TPoly((a.czero.one_like(),), a.czero)
    while not r1.is_zero():
        u = r1.lc.inverse()
        r1, t1 = r1.scale(u), t1.scale(u)
        qt, rr = r0.divmod(r1)
        r0, r1 = r1, rr
        t0, t1 = t1, t0 - qt * t1
    return r0, t0


def _factor_over_q(p: Poly) -> list[Poly]:
    """The distinct monic irreducible factors of p over Q, by sympy."""
    # imported here: pi0, endoscopy, norm and factor never need sympy
    import sympy

    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _const, raw = sympy.Poly(coeffs, sympy.Symbol("t"), domain=sympy.QQ).factor_list()
    return [Poly(Fraction(int(c.numerator), int(c.denominator))
                 for c in reversed(fac.rep.to_list())).monic() for fac, _e in raw]


def _factor_over_quadratic_field(qq: Poly, d: Fraction) -> list[TPoly]:
    """Monic irreducible factors of a squarefree rational qq over K =
    Q(sqrt(d)), d not a square, sorted, by Trager's algorithm (SYMSAC 1976):
    sympy factors over Q only.  A Q-irreducible factor p of odd degree stays
    irreducible over K, for Gal(K/Q) would swap its K-factors, making p =
    g * conj(g) of even degree.  An even-degree p is shifted to p_c(t) =
    p(t - c*sqrt(d)), c = 1, 2, ..., until N = p_c * conj(p_c) in Q[t] is
    squarefree; then (Trager) the gcds of p_c with the Q-factors of N are
    its K-factors, so p stays irreducible when N does, else p = g * conj(g),
    g = gcd(N_1, p_c) shifted t -> t + c*sqrt(d).  c fails only when two
    roots of p differ by 2c*sqrt(d), at most one c per ordered pair of
    roots, so c <= deg p * (deg p - 1) + 1 (c = 0 gives N = p^2)."""
    rt = Surd(Fraction(0), Fraction(1), d)
    out = []
    for p in _factor_over_q(qq):
        pk = _lift(p.coeffs, d)
        if p.degree % 2 == 0:
            for c in range(1, p.degree * (p.degree - 1) + 2):
                pc = _tpoly_shift(pk, -c * rt)
                norm = Poly(w.a for w in (pc * _conj(pc)).coeffs)
                if norm.is_squarefree():
                    break
            else:
                raise RuntimeError("no shift makes the norm squarefree")  # unreachable
            n1, *rest = _factor_over_q(norm)
            if rest:
                g = _tpoly_shift(_tpoly_xgcd(_lift(n1.coeffs, d), pc)[0], c * rt)
                out += [g, _conj(g)]
                continue
        out.append(pk)
    out.sort(key=lambda p: (p.degree, [(c.a, c.b) for c in p.coeffs]))
    return out


def _split_squarefree_block(cover: DoubleCoverData, q: TPoly, deg_m: int,
                            point) -> Optional[TPoly]:
    """Witness for a squarefree monic block: a monic t-polynomial W with
    coefficients on the double cover such that W * conj(W) = q, or None
    when q has a factor that stays irreducible over the cover's function
    field (which blocks any such factorization).

    Strategy: specialize x at point = (x0, f(x0), q(x0, t)), a good point
    (_good_points) where q stays squarefree, and factor q(x0) over the
    quadratic number field Q(sqrt(f(x0))).  Since q(x0) = W(x0) * conj(W(x0)) is
    squarefree, a witness exists only if no factor is self-conjugate, and
    then W(x0) takes exactly one factor from each conjugate pair.  W and
    conj(W) are interchangeable, so the pair of factor 0 always gives
    factor 0's partner, and 2^(pairs - 1) halves remain.  Each is
    Hensel-lifted, together with its conjugate, to a series in (x - x0);
    the true witness is a polynomial of bounded degree, so it is recovered
    exactly and certified.  q is monic in t, so a squarefree q(x0) means
    disc_t(q)(x0) != 0: q is squarefree over Q(x) too."""
    d = q.degree
    if d % 2 != 0:
        return None
    half = d // 2
    f = cover.f
    if point is None:
        raise RuntimeError("no good specialization point found")
    x0, d0, qq = point

    factors = _factor_over_quadratic_field(qq, d0)
    partner = [factors.index(_conj(p)) for p in factors]
    if any(i == j for i, j in enumerate(partner)):
        return None

    prec = half * max(deg_m, 1) + 2
    # q and f re-expanded around x0: coefficients of powers of z = x - x0
    q_shift = [_poly_shift(c, x0) for c in q.coeffs]
    s_terms = [_lift([cz.coeffs[k] if k <= cz.degree else Fraction(0)
                      for cz in q_shift], d0) for k in range(prec)]
    f_shift = _poly_shift(f, x0)
    u = [c / d0 for c in f_shift.coeffs] + [Fraction(0)] * prec
    g_inv = _series_inv_sqrt(u, prec)

    # the other pairs by ascending lower index, partner first: a fixed
    # order, which decides the witness returned when several exist
    rest = [(j, i) for i, j in enumerate(partner) if 0 < i < j]
    q_lift = _lift(q.coeffs, f)
    for picks in itertools.product(*rest):
        a0 = factors[partner[0]]
        for i in picks:
            a0 = a0 * factors[i]
        b0 = _conj(a0)
        _g, tau = _tpoly_xgcd(a0, b0)
        # the lift of b0 is the conjugate of the lift of a0 (Hensel
        # lifting is unique), so only a0's half is solved for
        a_terms, b_terms = [a0], [b0]
        for k in range(1, prec):
            err = s_terms[k]
            for i in range(1, k):
                err = err - a_terms[i] * b_terms[k - i]
            ak = (tau * err) % a0
            a_terms.append(ak)
            b_terms.append(_conj(ak))
        # reassemble: coefficient j of W is P_j + y*Q_j with
        # a-part = P_j(x0 + z) and b-part = g(z)*Q_j(x0 + z), y = sqrt(d0)*g
        coeffs = []
        for j in range(half + 1):
            a_ser = [term.coeff(j).a for term in a_terms]
            b_ser = [term.coeff(j).b for term in b_terms]
            p_j = _poly_shift(Poly(a_ser), -x0)
            q_j = _poly_shift(Poly(_series_mul(b_ser, g_inv, prec)), -x0)
            coeffs.append(Surd(p_j, q_j, f))
        w = TPoly(coeffs, q_lift.czero)
        if w * _conj(w) == q_lift:
            return w
    return None


def factors_coprime(s_b: SpectralPoly, s_c: SpectralPoly) -> bool:
    """Coprimality over Q(x), decided by the resultant."""
    r = resultant(s_b.as_tpoly(), s_c.as_tpoly())
    return not r.is_zero()
