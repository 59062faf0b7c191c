"""Norm maps on quotient algebras B = R[t]/(s_a) over R = Q[x].

The norm of an algebra element u is the determinant of the multiplication
map by u on B, viewed as a free rank-n R-module with basis 1, t, ...,
t^(n-1), taken on integers: with denominators cleared, s_a and u are packed
at one Kronecker point x = 2^k and the Bareiss kernel of polynomials.py
gives the determinant there over Z, which unpacks exactly.  The
multiplicativity, pullback, reduced and multiplicity laws are shipped as
executable checks.  The cross-check N = Res_t(s_a, U), which shares none of
that route's code, is proved at one point: with A = D_a s_a and B = D_b U
over Z, N D_a^(deg U) D_b^n - Res_t(A, B) is below N's part plus the Sylvester
permanent ||A||_1^(deg U) ||B||_1^n, and at x = 2^k with 2^(k-1) above that,
where lc_t(A) = D_a and lc_t(B) do not vanish, it is 0 iff its value is.
polynomials' integer resultant engine gives Res_t(A, B)(x) from the values
of A's and B's coefficients at x, which are read from s_a and u directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

from .polynomials import (
    Poly, TPoly, _bareiss, _pack, _poly, _resultant_at, _rows, _unpack, _width, as_fraction,
    horner, pseudo_remainder)


class ParentMismatch(ValueError):
    """Algebra elements attached to different quotient algebras."""


@dataclass(frozen=True)
class SpectralPoly:
    """Monic polynomial t^n + a_1 t^(n-1) + ... + a_n over Q[x] with the
    graded degree bounds deg(a_j) <= j * deg_m (sections of the j-th power
    of a degree-deg_m line bundle on one affine chart of P^1)."""

    n: int
    deg_m: int
    coeffs: tuple[Poly, ...]  # (a_1, ..., a_n)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spectral degree must be >= 1")
        if self.deg_m < 0:
            raise ValueError("deg_m must be >= 0")
        if len(self.coeffs) != self.n:
            raise ValueError(f"need exactly {self.n} coefficients a_1..a_n")
        for j, a in enumerate(self.coeffs, start=1):
            if a.degree > j * self.deg_m:
                raise ValueError(
                    f"deg(a_{j}) = {a.degree} exceeds the bound {j}*{self.deg_m}")

    @classmethod
    def from_tpoly(cls, p: TPoly, deg_m: int) -> "SpectralPoly":
        """Build from a monic t-polynomial with Poly coefficients."""
        if p.degree < 1 or p.lc != Poly.one():
            raise ValueError("spectral polynomial must be monic in t")
        n = p.degree
        return cls(n, deg_m, tuple(p.coeff(n - j) for j in range(1, n + 1)))

    def as_tpoly(self) -> TPoly:
        cs = [Poly.zero()] * (self.n + 1)
        cs[self.n] = Poly.one()
        for j, a in enumerate(self.coeffs, start=1):
            cs[self.n - j] = a
        return TPoly(cs, Poly.zero())

    def element_from_tpoly(self, p: TPoly) -> "AlgebraElement":
        r = pseudo_remainder(p, self.as_tpoly())   # the remainder, as s_a is monic
        coords = [r.coeff(i) for i in range(self.n)]
        return AlgebraElement(self, tuple(coords))


@dataclass(frozen=True)
class AlgebraElement:
    """Element of B = Q[x][t]/(s_a) as coordinates in the basis 1..t^(n-1)."""

    parent: SpectralPoly
    coords: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.coords) != self.parent.n:
            raise ValueError(f"need {self.parent.n} coordinates")

    def as_tpoly(self) -> TPoly:
        return TPoly(self.coords, Poly.zero())

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.parent != other.parent:
            raise ParentMismatch("product of elements of different algebras")
        return self.parent.element_from_tpoly(self.as_tpoly() * other.as_tpoly())

    def scale(self, c) -> "AlgebraElement":
        c = as_fraction(c)
        return AlgebraElement(self.parent, tuple(p.scale(c) for p in self.coords))

    def reduce_mod(self, target: SpectralPoly) -> "AlgebraElement":
        """Image in the quotient by a monic divisor of the parent polynomial."""
        return target.element_from_tpoly(self.as_tpoly())


def _columns(s_low, u) -> list:
    """Columns u * t^j mod s, j < n, for a monic s with low coefficients
    s_low: ring operations only, so Poly and packed int entries share them."""
    cols = [list(u)]
    for _ in range(len(s_low) - 1):
        top = cols[-1][-1]
        cols.append([-(top * s_low[0])] + [c - top * a for c, a in zip(cols[-1], s_low[1:])])
    return cols


def mul_matrix(s_a: SpectralPoly, u: AlgebraElement) -> list[list[Poly]]:
    """Matrix of multiplication by u on B in the basis 1, t, ..., t^(n-1);
    column j holds the coordinates of u * t^j reduced mod s_a."""
    if u.parent != s_a:
        raise ParentMismatch("element does not belong to the algebra")
    return [list(row) for row in zip(*_columns(s_a.as_tpoly().coeffs[:-1], u.coords))]


def poly_matrix_det(m: list[list[Poly]]) -> Poly:
    """Exact determinant over Q[x]: rows cleared of denominators and packed
    at x = 2^k above the permanent bound (product of row sums), Bareiss over Z."""
    scales = [lcm(*(p.denom for p in row)) for row in m]
    rows = [[(p.ints, d // p.denom) for p in row] for row, d in zip(m, scales)]
    k = _width(prod(sum(sum(map(abs, c)) * f for c, f in row) for row in rows))
    det = _bareiss([[_pack(c, k) * f for c, f in row] for row in rows])[1]
    return _poly(_unpack(det, k), prod(scales))


def norm_element(s_a: SpectralPoly, u: AlgebraElement) -> Poly:
    """N(u) = det of multiplication by u on Q[x][t]/(s_a) = N(U~) / (E D^(n-1))^n
    for s~(t) = D^n s_a(t/D) and U~ = sum E c_i D^(n-1-i) t^i in Z[x][t], D and
    E the lcms of the denominators of s_a and u = sum c_i t^i.  N(U~) =
    Res_t(s~, U~) is below the Sylvester permanent ||s~||_1^(deg U~) ||U~||_1^n,
    so it unpacks from its value at x = 2^k."""
    if u.parent != s_a:
        raise ParentMismatch("element does not belong to the algebra")
    n, den, e = s_a.n, lcm(*(a.denom for a in s_a.coeffs)), lcm(*(c.denom for c in u.coords))
    s_low = [(a, den ** j // a.denom) for j, a in enumerate(s_a.coeffs, start=1)][::-1]
    u_low = [(c, e // c.denom * den ** (n - 1 - i)) for i, c in enumerate(u.coords)]
    deg = max((i for i, c in enumerate(u.coords) if c), default=0)
    size = lambda terms: sum(sum(map(abs, p.ints)) * f for p, f in terms)
    k = _width((1 + size(s_low)) ** deg * size(u_low) ** n)
    s_k, u_k = ([_pack(p.ints, k) * f for p, f in terms] for terms in (s_low, u_low))
    return _poly(_unpack(_bareiss(_columns(s_k, u_k))[1], k), (e * den ** (n - 1)) ** n)


def norm_resultant_oracle(s_a: SpectralPoly, u: AlgebraElement, norm: Poly) -> bool:
    """Whether norm = Res_t(s_a, U) = det(mu_u), U the t-polynomial of u: with
    s_a = A / D_a and U = B / D_b on integer rows, P = norm.ints D_a^m D_b^n -
    norm.denom Res_t(A, B), m = deg U, has coefficients below N's part plus
    norm.denom times the permanent, so P(x) = 0 iff P = 0 at _resultant_at's x:
    P(x)'s balanced base-x digits are P's coefficients.  A zero U has norm 0,
    and for a U constant in t the sequence takes no step and gives U^n."""
    m = max((i for i, c in enumerate(u.coords) if c), default=-1)
    if m < 0:
        return not norm.ints
    (ra, da), (rb, db) = _rows((*s_a.coeffs[::-1], Poly.one())), _rows(u.coords[:m + 1])
    scale = da ** m * db ** s_a.n
    x, res = _resultant_at(ra, rb, sum(map(abs, norm.ints)) * scale, norm.denom)
    return horner(norm.ints, x, 0) * scale == norm.denom * res


def norm_multiplicativity_check(s_a: SpectralPoly, u: AlgebraElement,
                                v: AlgebraElement) -> bool:
    """det(mu_{u v}) = det(mu_u) * det(mu_v), exactly."""
    if u.parent != s_a or v.parent != s_a:
        raise ParentMismatch("elements do not belong to the algebra")
    return norm_element(s_a, u * v) == norm_element(s_a, u) * norm_element(s_a, v)


def norm_power_law(p: SpectralPoly, m: int, u: AlgebraElement) -> bool:
    """On the non-reduced algebra R[t]/(p^m), the norm of u equals the m-th
    power of the norm of u mod p on R[t]/(p)."""
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    power = spectral_pow(p, m)
    if u.parent != power:
        raise ParentMismatch("element must live over the m-th power of p")
    full = norm_element(power, u)
    reduced = norm_element(p, u.reduce_mod(p))
    return full == reduced ** m


def factors_coprime(s_b: SpectralPoly, s_c: SpectralPoly) -> bool:
    """Coprimality over Q(x): Res_t(s_b, s_c) is not 0 at _resultant_at's point."""
    return _resultant_at(*(_rows((*s.coeffs[::-1], Poly.one()))[0] for s in (s_b, s_c)))[1] != 0


def norm_component_law(s_b: SpectralPoly, s_c: SpectralPoly,
                       u: AlgebraElement) -> bool:
    """On the reducible algebra R[t]/(s_b * s_c) with coprime factors, the
    norm splits as the product of the two component norms."""
    if not factors_coprime(s_b, s_c):
        raise ValueError("factors are not coprime over Q(x)")
    prod_poly = spectral_mul(s_b, s_c)
    if u.parent != prod_poly:
        raise ParentMismatch("element must live over the product polynomial")
    full = norm_element(prod_poly, u)
    return full == (norm_element(s_b, u.reduce_mod(s_b))
                    * norm_element(s_c, u.reduce_mod(s_c)))


def spectral_mul(a: SpectralPoly, b: SpectralPoly) -> SpectralPoly:
    if a.deg_m != b.deg_m:
        raise ValueError("incompatible deg_m")
    return SpectralPoly.from_tpoly(a.as_tpoly() * b.as_tpoly(), a.deg_m)


def spectral_pow(p: SpectralPoly, m: int) -> SpectralPoly:
    if m < 1:
        raise ValueError("power must be >= 1")
    return SpectralPoly.from_tpoly(p.as_tpoly() ** m, p.deg_m)
