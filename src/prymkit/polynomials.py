"""Exact univariate polynomial and rational-function arithmetic over Q.

Everything here is dense, immutable and exact.  ``Poly`` holds a polynomial
in x as integer numerators over one positive denominator (FLINT's fmpq_poly;
von zur Gathen-Gerhard, Modern Computer Algebra, ch. 8), so its arithmetic
runs on Python ints with one normalising gcd per result; ``coeffs`` reads
them as Fractions.  ``RatFunc`` is its field of fractions, and ``TPoly`` a
dense polynomial in t over any ring with is_zero() and one_like(); only the
benchmark tracer bench/spans.py calls ``RatFunc``, ``tpoly_over_ratfunc``
and ``tpoly_to_poly_coeffs``.  By a monic divisor ``pseudo_remainder`` is
the t-remainder.

There is one gcd over Q, ``_igcd``, the heuristic gcd GCDHEU (Char, Geddes
and Gonnet 1989) on integer numerators: under ``Poly.gcd``, the Q fallback of
``Poly.is_squarefree`` and Yun's loop, run on integers at one Kronecker point
x = 2^k (MCA section 8.4).

``resultant`` and ``pseudo_remainder`` take t-polynomials with Poly
coefficients and run on integer rows: each operand's denominators are
cleared by their lcm, row i is the integer list of the coefficient of t^i,
products go through ``_mul`` and exact quotients through ``_zdivmod``, and
one Poly is built per coefficient of the result.  The subresultant sequence
is exact over Z[x], so no rational function in x is formed.  ``horner`` and
``power`` serve any ring; they and TPoly arithmetic hand Poly mostly trivial
operands: a zero, unit or constant one, told apart by its number of
numerators, costs one scan of the other's, and a sum with the shared
``zero`` or a product or quotient by ``one`` returns an operand itself;
every zero that ``_poly`` builds is that shared ``zero``.
``_bareiss``, beside the Kronecker packing, is the one fraction-free
elimination over Z: the norm's and verify's determinants and the lift's
inverse in covers.py; its large steps divide 2-adically by ``_divexact``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap, zip_longest
from math import gcd, lcm, prod
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


def power(base, k: int, one=None):
    """base ** k by repeated squaring.  one, the unit of base's ring, is the
    result for k = 0 and is needed only then.  The result starts from its
    first factor, so no product with one is taken, and no square past the
    top bit of k."""
    if k < 0:
        raise ValueError("negative power")
    if not k:
        if one is None:
            raise ValueError("the zero power needs the ring's unit")
        return one
    while not k & 1:
        base, k = base * base, k >> 1
    result, k = base, k >> 1
    while k:
        base = base * base
        if k & 1:
            result = result * base
        k >>= 1
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
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

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
        return _ONE

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
            return hash(self.lc if self.ints else 0)
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
        if not other.ints:
            return self
        if not self.ints:
            return other if op is add else -other
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
        if len(b) <= 1:
            return _times(self, b[0], other.denom) if b else _ZERO
        if len(a) <= 1:
            return _times(other, a[0], self.denom) if a else _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        return power(self, k, _ONE)

    def scale(self, c: Scalar) -> "Poly":
        c = as_fraction(c)
        return _times(self, c.numerator, c.denominator)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division over Q, by pseudo-division over Z: with B the
        primitive part of other's numerators, s * ints = Q * B + R for an
        integer s that grows only when a leading coefficient is not
        divisible by lc(B), never for an exact division (Gauss's lemma)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        k = other.degree
        if self.degree < k:
            return _ZERO, self
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
        if len(other.ints) == 1:
            return _times(self, other.denom, other.ints[0])
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd: _igcd's on the numerators, whose candidate is the gcd once it
        divides both (GCL Thm 7.7), in a loop that ends (see _igcd)."""
        g = _igcd(self.ints, other.ints)[0]
        return _poly(g, g[-1]) if g else _ZERO

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return _poly(list(self.ints), self.ints[-1])

    def derivative(self) -> "Poly":
        return _poly(_deriv(self.ints), self.denom)

    def is_squarefree(self) -> bool:
        """No repeated factor over Q: certified mod a prime p from 3 to 13
        (_squarefree_mod), else by Poly.gcd(F, F') = 1 (GCL Thm 7.7; see _igcd)."""
        return bool(self.ints) and (any(_squarefree_mod(self.ints, p) for p in (3, 5, 7, 11, 13))
                                    or self.gcd(self.derivative()).degree <= 0)

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
    _set_ints(p, tuple(ints))
    _set_denom(p, den)


# the slots' own setters, cheaper than object.__setattr__ past Poly's refusal
_set_ints, _set_denom = Poly.ints.__set__, Poly.denom.__set__


def _poly(ints: list, den: int) -> Poly:
    """The Poly ints / den, the list ints consumed; a zero is the shared ``zero``."""
    if not any(ints):
        return _ZERO
    p = object.__new__(Poly)
    _init(p, ints, den)
    return p


_ZERO = object.__new__(Poly)
_init(_ZERO, [], 1)
_ONE = _poly([1], 1)


def _times(p: Poly, n: int, d: int) -> Poly:
    """p * (n / d) for integers n and d != 0: p itself when n = d, else one
    scan of p's numerators and the normalisation."""
    if not n or not p.ints:
        return _ZERO
    if n == d:
        return p
    return _poly([a * n for a in p.ints], p.denom * d)


# -- integer polynomials as lists of ints, ascending: packed into one int at
# x = 2^k (Kronecker substitution), and mod m for the squarefree test above
# and covers.py, with no trailing zeros and, reduced, entries in [0, m)


def _width(bound: int) -> int:
    """The least k with 2^(k-1) > bound: a k-bit slot holds |c| <= bound."""
    return bound.bit_length() + 1


def _pack(ints: Sequence, k: int) -> int:
    """ints (ascending) at x = 2^k, by Horner's rule with shifts."""
    acc = 0
    for c in reversed(ints):
        acc = (acc << k) + c
    return acc


def _unpack(v: int, k: int) -> list:
    """The balanced base-2^k digits of v, lowest first, in [-2^(k-1),
    2^(k-1)) with a borrow: _pack's inverse on |c_i| < 2^(k-1) for k >= 2."""
    half, mask, out = 1 << (k - 1), (1 << k) - 1, []
    for _ in range(abs(v).bit_length() // k + 2):
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> k
    while out and not out[-1]:
        out.pop()
    return out


def _divexact(nums: Sequence, d: int) -> list:
    """[a // d for a in nums], every division exact, by 2-adic division
    (Jebelean 1993): for d = 2^s * o, o odd, and inv = 1/o mod 2^B from
    Newton's iteration, once for all of nums, a / d is ((a >> s) * inv) mod
    2^B read in [-2^(B-1), 2^(B-1)).  An exact quotient has at most bits(a)
    - bits(d) + 1 bits, so B one more than the largest covers its sign."""
    s = (d & -d).bit_length() - 1
    o, top = d >> s, max(abs(a).bit_length() for a in nums)
    b = max(top - abs(d).bit_length() + 2, 1)
    inv, p = 1, 1
    while p < b:
        p = min(2 * p, b)
        inv = inv * (2 - (o & ((1 << p) - 1)) * inv) & ((1 << p) - 1)
    half, mask = 1 << (b - 1), (1 << b) - 1
    return [((((a >> s) & mask) * inv + half) & mask) - half for a in nums]


# A Bareiss step divides 2-adically once (rows updated * columns - 1) times
# the bits of its divisor reach this: the 2-adic inverse, paid once per
# step, costs about three quotients, and CPython divides big ints in
# quadratic time but multiplies them by Karatsuba
DIVEXACT_BITS = 1 << 16


def _bareiss(rows: Sequence, jordan: bool = False) -> tuple[list, int]:
    """(rows', det) for the square block of the first len(rows) columns of
    integer rows, by fraction-free elimination (Bareiss, Math. Comp. 22,
    1968): each update is divided exactly by the previous pivot, and all of
    one step's divisions, sharing it, go 2-adically (_divexact) on a large
    step.  A zero pivot is swapped with a lower row, the moved row negated,
    so the last pivot is the determinant; a singular block returns 0.  With
    jordan the rows above each pivot are updated too, so for rows [M | I]
    the columns past M hold X with X*M = det*I (Gauss-Jordan).  Columns up
    to each pivot's are left as they stand."""
    m, prev = [list(r) for r in rows], 1
    n = len(m)
    for k in range(n if jordan else n - 1):     # forward, no row is below the last pivot
        top = m[k]
        if not top[k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return m, 0
            m[k], m[i] = [-c for c in m[i]], top
            top = m[k]
        p, cols = top[k], range(k + 1, len(top))
        others = [*range(k), *range(k + 1, n)] if jordan else range(k + 1, n)
        if (len(others) * len(cols) - 1) * prev.bit_length() < DIVEXACT_BITS:
            for i in others:
                row = m[i]
                c = row[k]
                for j in cols:
                    row[j] = (row[j] * p - c * top[j]) // prev
        else:
            q = _divexact([m[i][j] * p - m[i][k] * top[j] for i in others for j in cols], prev)
            for r, i in enumerate(others):
                m[i][k + 1:] = q[r * len(cols):(r + 1) * len(cols)]
        prev = p
    return m, m[n - 1][n - 1] if m else 1


def _deriv(a: Sequence) -> list:
    """The derivative of a."""
    return [i * c for i, c in enumerate(a)][1:]


def _mod(a: Sequence, m: int, sym: bool = False) -> list:
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
    """a*b, perhaps with trailing zeros if a or b has them."""
    if len(a) == 1:
        return [a[0] * y for y in b]
    if len(b) == 1:
        return [x * b[0] for x in a]
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zdivmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """(q, r), a = q*b + r over Z, r as long as a, each quotient entry floored
    by lc(b) until one leaves a remainder: b divides a exactly iff r is 0."""
    r, n = list(a), len(b) - 1
    q = [0] * max(len(r) - n, 0)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + n] // b[-1]
        for j, y in enumerate(b):
            r[i + j] -= c * y
        if r[i + n]:
            break
    return q, r


def _igcd(a: Sequence, b: Sequence) -> tuple[list, list, list]:
    """(g, a/g, b/g), g = gcd(a, b) over Z with lc(g) > 0, ([], [], []) for a =
    b = 0.  GCDHEU (Char, Geddes and Gonnet 1989) on a, b made primitive: h is
    the primitive part of the balanced digits of gcd(a(xi), b(xi)), xi = 2^K >
    2*min(||a||_inf, ||b||_inf) + 2, and is g if a and b divide exactly by it
    (GCL Thm 7.7); else K doubles, which ends: gcd(a(xi), b(xi)) = g(xi)*s, s |
    Res(a/g, b/g) != 0, so once 2^(K-1) > s*||g||_inf the digits are s*g."""
    if not (c := gcd(ca := gcd(*a), cb := gcd(*b))):
        return [], [], []
    a, b = ([x // ca for x in a] if ca else []), ([x // cb for x in b] if cb else [])
    k = (2 * min(max(map(abs, v)) for v in (a, b) if v) + 2).bit_length()
    while True:
        h = _unpack(gcd(_pack(a, k), _pack(b, k)), k)
        s = gcd(*h) if h[-1] > 0 else -gcd(*h)
        h = [x // s for x in h]
        (qa, ra), (qb, rb) = _zdivmod(a, h), _zdivmod(b, h)
        if not any(ra + rb):
            return [c * x for x in h], [ca // c * x for x in qa], [cb // c * x for x in qb]
        k *= 2


def _divmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by b mod m, lc(b) a unit mod m.  a need
    not be reduced; the quotient's entries are, but top entries of a that
    vanish mod m leave zeros at its top."""
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
    only g is made monic, and no cofactor is built (covers._hensel's is
    rebuilt from qs)."""
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
            _, n, d = _igcd(num.ints, den.ints)
            num, den = _poly([c * den.denom for c in n], num.denom * d[-1]), _poly(d, d[-1])
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

    def monic(self) -> "TPoly":
        """Divide by the leading coefficient, which must divide every
        coefficient exactly (always so over a field)."""
        lc = self.lc
        return TPoly(tuple(c / lc for c in self.coeffs), self.czero)

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


# -- t-polynomials over Z[x] as rows: row i is the integer list of the
# coefficient of t^i, no row and no list with a trailing zero


def _rows(p: TPoly) -> tuple[list, int]:
    """(rows, D): p = rows / D over the lcm D of its Poly coefficients' denominators."""
    den = lcm(*(c.denom for c in p.coeffs))
    return [[a * (den // c.denom) for a in c.ints] for c in p.coeffs], den


def _ipow(a: list, e: int) -> list:
    """a^e by e - 1 products."""
    out = a if e else [1]
    for _ in range(e - 1):
        out = _mul(out, a)
    return out


def _quo(a: list, b: list) -> list:
    """a / b, an exact quotient: from the top down, updating only the entries
    of a that later quotient entries read, none of the remainder's."""
    n, lb = len(b) - 1, b[-1]
    if not n:
        return a if lb == 1 else [x // lb for x in a]
    r, q = list(a), [0] * (len(a) - n)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + n] // lb
        lo = max(i, n)
        r[lo:i + n] = map(sub, r[lo:i + n], [c * y for y in b[lo - i:n]])
    return q


def _prem(a: list, b: list) -> list:
    """lc(b)^(len a - len b + 1) * a mod b on rows, a itself when shorter."""
    r, (*d, lb) = list(a), b
    while len(r) > len(d):
        c, j = r.pop(), len(r) - len(d)
        if lb != [1]:
            r = [_mul(x, lb) for x in r]
        if c:
            for k, y in enumerate(d):
                if y:
                    z = list(starmap(sub, zip_longest(r[j + k], _mul(c, y), fillvalue=0)))
                    while z and not z[-1]:
                        z.pop()
                    r[j + k] = z
    while r and not r[-1]:
        r.pop()
    return r


def _subresultant(a: list, b: list) -> list:
    """Res_t(a, b) over Z[x] for nonzero rows, by the subresultant pseudo-
    remainder sequence (Collins 1967; Brown-Traub 1971) of a and b ordered
    so that deg a >= deg b: each step replaces (a, b) by (b, prem(a, b) /
    (g * h^delta)), and the bookkeeping of g and h keeps every quotient
    exact over Z[x].  sign is the product of (-1)^(deg a * deg b) over the
    swap and the steps."""
    sign, g, h = 1, [1], [1]
    if len(a) < len(b):
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    while len(b) > 1:
        delta = len(a) - len(b)
        if not (len(a) % 2 or len(b) % 2):
            sign = -sign
        r = _prem(a, b)
        if not r:
            return []
        divisor = _mul(g, _ipow(h, delta))
        a, b = b, [_quo(c, divisor) for c in r]
        g = a[-1]
        if delta:
            h = _quo(_ipow(g, delta), _ipow(h, delta - 1))
    res = _quo(_ipow(b[0], len(a) - 1), _ipow(h, max(len(a) - 2, 0)))
    return res if sign == 1 else [-c for c in res]


def pseudo_remainder(a: TPoly, b: TPoly) -> TPoly:
    """lc(b)^(deg a - deg b + 1) * a mod b for Poly coefficients, with no
    division in Q[x]: a itself when deg a < deg b, and a mod b, the only
    t-remainder, when b is monic.  On rows a = A / D_a and b = B / D_b it is
    prem(A, B) / (D_a * D_b^(deg a - deg b + 1)), one Poly per coefficient."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-remainder by the zero polynomial")
    if a.degree < b.degree:
        return a
    (ra, da), (rb, db) = _rows(a), _rows(b)
    den = da * db ** (a.degree - b.degree + 1)
    return TPoly([_poly(c, den) for c in _prem(ra, rb)], _ZERO)


def resultant(a: TPoly, b: TPoly) -> Poly:
    """Res_t(a, b) for Poly coefficients, by the subresultant sequence on
    the integer rows of a = A / D_a and b = B / D_b: Res(A, B) = D_a^(deg b)
    * D_b^(deg a) * Res(a, b), so one Poly is built, over that denominator."""
    if a.is_zero() or b.is_zero():
        return _ZERO
    (ra, da), (rb, db) = _rows(a), _rows(b)
    return _poly(_subresultant(ra, rb), da ** b.degree * db ** a.degree)


def yun_squarefree(p: TPoly) -> list[tuple[TPoly, int]]:
    """Yun's decomposition [(q_i, i)] over Q(x) of a monic p: p = prod q_i^i,
    the q_i squarefree, monic, coprime and not 1.  Yun's loop runs over Z[t] on
    the monic p~(2^k, t), p~(t) = D^n p(t/D) for D the lcm of the denominators,
    each gcd monic and with its quotients from _igcd (GCL Thm 7.7); the blocks
    unpack to q~_i.  If 2^(k-1) > max(prod ||q~_i||_1^i, ||p~||_inf), prod
    q~_i^i - p~ has coefficients below 2^k and the root 2^k, so it is 0, and the
    q~_i(2^k, t), squarefree and coprime, are Yun's unique blocks; else k grows,
    which ends past the roots of the blocks' discriminants and resultants."""
    if p.degree < 1:
        return []
    p = p.monic()
    n, den = p.degree, lcm(*(c.denom for c in p.coeffs))
    rows = [[a * (den ** (n - j) // c.denom) for a in c.ints] for j, c in enumerate(p.coeffs)]
    top = max(abs(a) for row in rows for a in row)
    k = _width(sum(abs(a) for row in rows for a in row) << (n + 1))
    while True:
        f = [_pack(row, k) for row in rows]
        _, c, y = _igcd(f, _deriv(f))
        i, blocks = 1, []
        while len(c) > 1:
            q, c, y = _igcd(c, _add(y, _deriv(c), -1))
            if len(q) > 1:
                blocks.append(([_unpack(a, k) for a in q], i))
            i += 1
        bound = prod(sum(abs(a) for row in q for a in row) ** i for q, i in blocks)
        if 1 << (k - 1) > max(bound, top):
            return [(TPoly([_poly(row, den ** (len(q) - 1 - j)) for j, row in enumerate(q)],
                           _ZERO), i) for q, i in blocks]
        k = max(2 * k, _width(2 * bound))
