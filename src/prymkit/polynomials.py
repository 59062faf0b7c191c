"""Exact univariate polynomial and rational-function arithmetic over Q.

Everything here is dense, immutable and exact.  ``Poly`` is a polynomial in
one base variable x, held as integer numerators over one positive common
denominator (the form of FLINT's fmpq_poly; von zur Gathen-Gerhard, Modern
Computer Algebra, ch. 8), so its arithmetic runs on Python ints with one
normalising gcd per result; its ``coeffs`` are read as fractions.Fraction.
``RatFunc`` is its field of fractions, and ``TPoly`` a dense polynomial in an
outer variable t whose coefficients may be Poly, RatFunc or any type
supporting ring arithmetic, is_zero() and one_like().  ``RatFunc``,
``tpoly_over_ratfunc`` and ``tpoly_to_poly_coeffs`` have no caller in the
package; they are kept only because the benchmark tracer bench/spans.py
binds them.  A t-polynomial is
divided only by a monic divisor, so t-division needs ring operations alone
and keeps Poly coefficients in Q[x].

Resultants, gcds and Yun's decomposition of t-polynomials share one engine,
the subresultant pseudo-remainder sequence, whose divisions are exact in the
coefficient ring: over Q[x] no rational function in x is ever formed.
Horner's rule (``horner``) and repeated squaring (``power``) are written
once, for any ring.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap, zip_longest
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, str]


def as_fraction(v: Scalar) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as a rational number")


def horner(coeffs: Sequence, x, acc):
    """The polynomial with ascending coefficients coeffs evaluated at x by
    Horner's rule; acc is the zero of the result's ring."""
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def power(base, k: int, one):
    """base ** k by repeated squaring; one is the unit of base's ring.  No
    square is taken past the top bit of k, where it would go unused."""
    if k < 0:
        raise ValueError("negative power")
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


class Poly:
    """Polynomial over Q: coefficient i is ints[i] / denom.  The pair is
    canonical (ascending, no trailing zeros, denom > 0, gcd(content, denom)
    = 1, zero is ((), 1)), so == and hash compare it; ``coeffs``, the
    Fraction coefficients, is built on first read."""

    __slots__ = ("ints", "denom", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        _init(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _poly([], 1)

    @classmethod
    def one(cls) -> "Poly":
        return _poly([1], 1)

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        c = as_fraction(c)
        return _poly([c.numerator], c.denominator)

    @classmethod
    def x(cls) -> "Poly":
        return _poly([0, 1], 1)

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        try:
            return self._coeffs
        except AttributeError:
            cs = tuple(Fraction(c, self.denom) for c in self.ints)
            object.__setattr__(self, "_coeffs", cs)
            return cs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def one_like(self) -> "Poly":
        return Poly.one()

    @property
    def lc(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.denom)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.denom == other.denom

    def __hash__(self):
        if self.degree < 1:     # a constant hashes like its value, which it equals
            return hash(self(0))
        return hash((self.ints, self.denom))

    def __bool__(self) -> bool:
        return bool(self.ints)

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other)
        return NotImplemented

    def _plus(self, other, op):
        """self op other for op add or sub, over the lcm of the denominators."""
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self.ints, other.ints, self.denom
        if den != other.denom:
            g = gcd(den, other.denom)
            a = [c * (other.denom // g) for c in a]
            b = [c * (den // g) for c in b]
            den *= other.denom // g
        return _poly(list(starmap(op, zip_longest(a, b, fillvalue=0))), den)

    def __add__(self, other):
        return self._plus(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.ints], self.denom)

    def __sub__(self, other):
        return self._plus(other, sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        return power(self, k, Poly.one())

    def scale(self, c: Scalar) -> "Poly":
        c = as_fraction(c)
        return _poly([a * c.numerator for a in self.ints], self.denom * c.denominator)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division over Q, by pseudo-division over Z: with B the
        primitive part of other's numerators, s * ints = Q * B + R for an
        integer s that grows only when a leading coefficient is not
        divisible by lc(B), never for an exact division (Gauss's lemma)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        k = other.degree
        if self.degree < k:
            return Poly.zero(), self
        cb = gcd(*other.ints)
        *low, lb = [c // cb for c in other.ints]
        r, q, s = list(self.ints), [], 1
        while len(r) > k:
            c = r.pop()
            f = abs(lb) // gcd(c, lb)
            if f != 1:
                r, q, s, c = [x * f for x in r], [x * f for x in q], s * f, c * f
            q.append(c // lb)
            j = len(r) - k
            r[j:] = map(sub, r[j:], [q[-1] * x for x in low])
        den = s * self.denom
        return _poly([c * other.denom for c in q[::-1]], den * cb), _poly(r, den)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __truediv__(self, other):
        """Exact division; raises if the quotient is not polynomial."""
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return _poly(list(self.ints), self.ints[-1])

    def derivative(self) -> "Poly":
        return _poly([i * c for i, c in enumerate(self.ints) if i], self.denom)

    def truncate(self, k: int) -> "Poly":
        """self mod x^k: a power series cut at order k."""
        return _poly(list(self.ints[:k]), self.denom)

    def __call__(self, x0: Scalar) -> Fraction:
        """Horner's rule on the integers: sum ints[i] p^i q^(deg - i) for
        x0 = p/q, over denom * q^deg."""
        x0 = as_fraction(x0)
        p, q = x0.numerator, x0.denominator
        acc, qk = 0, 1
        for c in reversed(self.ints):
            acc, qk = acc * p + c * qk, qk * q
        return Fraction(acc * q, self.denom * qk)

    def root_multiplicity(self, x0: Scalar) -> int:
        """Order of vanishing at x0 (0 if not a root)."""
        if self.is_zero():
            raise ValueError("zero polynomial vanishes everywhere")
        x0 = as_fraction(x0)
        lin = Poly((-x0, 1))
        p, mult = self, 0
        while True:
            q, r = p.divmod(lin)
            if not r.is_zero():
                return mult
            p, mult = q, mult + 1

    def is_squarefree(self) -> bool:
        if self.is_zero():
            return False
        return self.gcd(self.derivative()).degree <= 0

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _init(p: Poly, ints: list, den: int):
    """Set p to ints / den in canonical form: trailing zeros dropped, the
    sign moved into the numerators and the common gcd divided out."""
    while ints and not ints[-1]:
        ints.pop()
    if den < 0:
        ints, den = [-c for c in ints], -den
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            ints, den = [c // g for c in ints], den // g
    object.__setattr__(p, "ints", tuple(ints))
    object.__setattr__(p, "denom", den)


def _poly(ints: list, den: int) -> Poly:
    """The Poly ints / den, the list ints consumed."""
    p = object.__new__(Poly)
    _init(p, ints, den)
    return p


class RatFunc:
    """Rational function over Q: num/den with monic den and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly.one()
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num / g, den / g
            c = den.lc
            num, den = num.scale(1 / c), den.scale(1 / c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(Poly.one())

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc(Poly.constant(other))
        return NotImplemented

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def one_like(self) -> "RatFunc":
        return RatFunc.one()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"{self!r} is not a polynomial")
        return self.num.scale(1 / self.den.coeffs[0])

    def __eq__(self, other) -> bool:
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return self.inverse() ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    def __repr__(self):
        if self.den.degree == 0 and self.den.coeffs and self.den.coeffs[0] == 1:
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


class TPoly:
    """Dense polynomial in the spectral variable t over an exact coefficient ring.

    Coefficients are any objects implementing +, -, *, an integer scalar on
    the left (i * c), is_zero() and one_like() (the unit of their ring);
    ``monic`` alone also needs /.  Ascending order, no trailing zeros.
    """

    __slots__ = ("coeffs", "czero")

    def __init__(self, coeffs: Sequence, czero):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "czero", czero)

    def __setattr__(self, *a):
        raise AttributeError("TPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.czero

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("TPoly", self.coeffs))

    def __add__(self, other: "TPoly") -> "TPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return TPoly(out, self.czero)

    def __neg__(self) -> "TPoly":
        return TPoly(tuple(-c for c in self.coeffs), self.czero)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        if self.is_zero() or other.is_zero():
            return TPoly((), self.czero)
        out = [self.czero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TPoly(out, self.czero)

    def __pow__(self, k: int) -> "TPoly":
        return power(self, k, TPoly((self.czero.one_like(),), self.czero))

    def divmod(self, other: "TPoly") -> tuple["TPoly", "TPoly"]:
        """Division by a monic divisor (else ValueError): each quotient
        coefficient is the remainder's popped leading coefficient."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        *d, ld = other.coeffs
        if ld != self.czero.one_like():
            raise ValueError("t-polynomials divide only by monic divisors")
        r, q = list(self.coeffs), []
        while len(r) > len(d):
            q.append(r.pop())
            j = len(r) - len(d)
            for k, dk in enumerate(d):
                r[j + k] = r[j + k] - q[-1] * dk
        return TPoly(q[::-1], self.czero), TPoly(r, self.czero)

    def __mod__(self, other: "TPoly") -> "TPoly":
        return self.divmod(other)[1]

    def __truediv__(self, other: "TPoly") -> "TPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact division of t-polynomials")
        return q

    def monic(self) -> "TPoly":
        """Divide by the leading coefficient, which must divide every
        coefficient exactly (always so over a field)."""
        lc = self.lc
        return TPoly(tuple(c / lc for c in self.coeffs), self.czero)

    def derivative(self) -> "TPoly":
        return TPoly([i * c for i, c in enumerate(self.coeffs) if i], self.czero)

    def map_coeffs(self, fn, new_zero) -> "TPoly":
        return TPoly(tuple(fn(c) for c in self.coeffs), new_zero)

    def __repr__(self):
        return f"TPoly({list(self.coeffs)!r})"


def tpoly_over_ratfunc(p: TPoly) -> TPoly:
    """Lift a TPoly with Poly coefficients to RatFunc coefficients."""
    return p.map_coeffs(lambda c: RatFunc(c), RatFunc.zero())


def tpoly_to_poly_coeffs(p: TPoly) -> TPoly:
    """Lower RatFunc coefficients back to Poly; raises if any denominator
    is nontrivial."""
    return p.map_coeffs(lambda c: c.as_poly(), Poly.zero())


def pseudo_remainder(a: TPoly, b: TPoly) -> TPoly:
    """lc(b)^(deg a - deg b + 1) * a mod b, without division in the
    coefficient ring; a itself when deg a < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-remainder by the zero polynomial")
    r = list(a.coeffs)
    *d, lb = b.coeffs
    while len(r) > len(d):
        c = r.pop()
        j = len(r) - len(d)
        r = [x * lb for x in r]
        for k, dk in enumerate(d):
            r[j + k] = r[j + k] - c * dk
    return TPoly(r, a.czero)


def _subresultant_prs(a: TPoly, b: TPoly):
    """Subresultant pseudo-remainder sequence (Collins 1967; Brown-Traub
    1971) of a and b, ordered so that deg a >= deg b.  Each step replaces
    (a, b) by (b, prem(a, b) / (g * h^delta)); the bookkeeping of g and h
    keeps every division exact in the coefficient ring.  Stops once b is
    constant or zero and returns (a, b, h, sign), sign being the product
    of (-1)^(deg a * deg b) over the swap and the steps."""
    sign = 1
    if a.degree < b.degree:
        a, b, sign = b, a, (-1) ** (a.degree * b.degree)
    g = h = a.czero.one_like()
    while b.degree > 0:
        delta = a.degree - b.degree
        if a.degree % 2 and b.degree % 2:
            sign = -sign
        r = pseudo_remainder(a, b)
        if r.is_zero():
            return b, r, h, sign
        divisor = g * h ** delta
        a, b = b, TPoly(tuple(c / divisor for c in r.coeffs), r.czero)
        g = a.lc
        if delta:
            h = g ** delta / h ** (delta - 1)
    return a, b, h, sign


def resultant(a: TPoly, b: TPoly):
    """Res_t(a, b), the last subresultant of a and b, computed by the
    subresultant pseudo-remainder sequence.  Every division is exact in the
    coefficient ring, so Poly coefficients give a Poly result directly;
    field coefficients such as RatFunc work unchanged."""
    a, b, h, sign = _subresultant_prs(a, b)
    if b.is_zero():
        return b.czero
    res = b.lc ** a.degree / h ** max(a.degree - 1, 0)
    return res if sign == 1 else -res


def _monic_gcd(a: TPoly, b: TPoly) -> TPoly:
    """Monic gcd over the fraction field of the coefficients, for a pair in
    which one polynomial is monic: the last nonzero subresultant divided by
    its leading coefficient, a division that Gauss's lemma makes exact over
    Q[x]."""
    a, b, _h, _sign = _subresultant_prs(a, b)
    return (a if b.is_zero() else b).monic()


def yun_squarefree(p: TPoly) -> list[tuple[TPoly, int]]:
    """Yun's squarefree decomposition in t of a monic t-polynomial, over the
    fraction field of its coefficients (characteristic zero).  Returns
    [(q_i, i)] with p = prod q_i^i, the q_i squarefree, monic and pairwise
    coprime; blocks with q_i = 1 are omitted.  Every gcd has a monic
    argument and every quotient a monic divisor, so Poly coefficients stay
    in Q[x] throughout."""
    if p.degree < 1:
        return []
    p = p.monic()
    dp = p.derivative()
    g = _monic_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    c = p / g
    d = dp / g - c.derivative()
    blocks = []
    i = 1
    while c.degree > 0:
        q = _monic_gcd(c, d)
        if q.degree > 0:
            blocks.append((q, i))
        c = c / q
        d = d / q - c.derivative()
        i += 1
    return blocks
