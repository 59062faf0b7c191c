"""Exact integer-matrix and finite-abelian-group engine.

Subgroups of (Z/M)^(2g) are represented by the Hermite basis of their
preimage lattice in Z^(2g), the only form stored; since that basis is unique
for the subgroup, two subgroups are equal iff their stored bases are equal.
Canonical generators (the basis mod M) are derived for output only.
Intersection, multiplication preimage and kernel are one restriction
{x in H : image(x) in L}: one Hermite form of rows stacked from the Hermite
bases of H and L, whose right-hand rows are the result's Hermite basis.
The image of a homomorphism is the subgroup its matrix rows generate, a
Hermite form half as wide as the kernel's; the ``pi0`` check of the
character restriction reads the image's order, not the kernel's.
``embed`` scales a Hermite basis and runs no elimination.  The Hermite form
is the only normal-form kernel: it clears each column using only the rows
still nonzero there.  The Smith form is built from alternating Hermite
forms, which ``structure()`` runs with no transforms carried.
Integer matrices are row lists of a given width.  ``bareiss_det``,
fraction-free over Z, is the determinant of ``verify``'s unimodularity
check and, at a Kronecker point x = 2^k, of the norm engine.  All values
are immutable and all operations are pure functions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod


class AmbientMismatch(ValueError):
    """Operands live in different ambient groups."""


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination (Bareiss 1968): every division is exact, so no fraction is
    ever formed; a singular matrix returns its zero pivot."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def smith_normal_form(rows: list[list[int]], cols: int) -> tuple[list[list[int]], ...]:
    """Smith normal form of the matrix A with the given rows, each of length
    cols (passed apart, since a matrix with no rows has no row to measure):
    U, D, V as row lists with U*A*V = D, U and V unimodular, D diagonal
    with nonnegative entries, d_1 | d_2 | ... and zeros last."""
    m, u, vt = _smith_alternation([list(r) for r in rows], cols,
                                  _diagonal([1] * len(rows)), _diagonal([1] * cols))
    return u, m, _transpose(vt, cols)


def _smith_alternation(m: list[list[int]], c: int, u: list[list[int]],
                       vt: list[list[int]]) -> tuple[list[list[int]], ...]:
    """Diagonalise m (rows of width c) by alternating Hermite forms
    (Kannan-Bachem): the row HNF of [m | u], then the row HNF of
    [m^T | vt], until m is diagonal with d_1 | d_2 | ....  u and vt ride
    along as right-hand blocks; no row vanishes if they are unimodular, or
    if they have zero width and m is nonsingular.  A pair d_i, d_j with d_i
    not dividing d_j is repaired by adding column j to column i; the next
    row HNF puts gcd(d_i, d_j) at (i, i).  Returns m, u and vt."""
    r = len(m)
    while True:
        m, u = _carried_hnf(m, u, c)
        mt, vt = _carried_hnf(_transpose(m, c), vt, r)
        m = _transpose(mt, r)
        if any(e for i, row in enumerate(m) for j, e in enumerate(row) if i != j):
            continue
        d = [m[i][i] for i in range(min(r, c)) if m[i][i]]
        pair = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                     if d[j] % d[i]), None)
        if pair is None:
            return m, u, vt
        i, j = pair
        for row in m:
            row[i] += row[j]
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]


def _carried_hnf(m: list[list[int]], carry: list[list[int]],
                 width: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row HNF of [m | carry], split back into its two blocks; m has width
    columns, and no row may vanish (see ``_smith_alternation``)."""
    h = hermite_normal_form([x + y for x, y in zip(m, carry)])
    return [row[:width] for row in h], [row[width:] for row in h]


def _transpose(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Transpose of a matrix given by its rows, each of length cols."""
    return [[row[j] for row in rows] for j in range(cols)]


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by integer rows:
    row echelon, positive pivots, entries above each pivot reduced into
    [0, pivot).  Zero rows are dropped.  Unique for the row lattice.

    Each column is cleared using only the rows still nonzero there; a row
    that vanishes in the column is set aside for the later columns."""
    if not rows:
        return []
    work = [list(r) for r in rows]
    done: list[list[int]] = []
    for c in range(len(work[0])):
        live, rest = [], []
        for r in work:
            (live if r[c] else rest).append(r)
        if not live:
            continue
        work = rest
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[c]))
            p = piv[c]
            nxt = [piv]
            for r in live:
                if r is not piv:
                    q = r[c] // p
                    r = [a - q * b for a, b in zip(r, piv)]
                    (nxt if r[c] else work).append(r)
            live = nxt
        piv = live[0]
        if piv[c] < 0:
            piv = [-e for e in piv]
        for i, r in enumerate(done):
            q = r[c] // piv[c]
            if q:
                done[i] = [a - q * b for a, b in zip(r, piv)]
        done.append(piv)
    return done


def _right_block(rows: list[list[int]], j: int) -> list[list[int]]:
    """Hermite basis of {x : (0, x) in the lattice spanned by rows}, with 0
    of length j: the tails of the Hermite rows whose pivot lies past
    column j."""
    return [r[j:] for r in hermite_normal_form(rows) if not any(r[:j])]


def left_kernel(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Hermite basis of the lattice {w : w * A = 0} of integer row vectors,
    A the matrix with the given rows, each of length cols (as in
    ``smith_normal_form``): the right-hand block of the lattice spanned by
    the rows of [A | I]."""
    return _right_block([[*r, *e] for r, e in zip(rows, _diagonal([1] * len(rows)))], cols)


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group in invariant-factor form d_1 | d_2 | ... , all
    factors >= 2; the trivial group is the empty list."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(f < 2 for f in fs):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError("divisibility chain violated")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1


@dataclass(frozen=True)
class TorsionAmbient:
    """The group (Z/M)^(2g), a finite model of the M-torsion of Pic^0(C)."""

    g: int
    M: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("genus must be positive")
        if self.M < 1:
            raise ValueError("modulus must be positive")

    @property
    def rank(self) -> int:
        return 2 * self.g

    @property
    def order(self) -> int:
        return self.M ** self.rank

    def full_subgroup(self) -> "TorsionSubgroup":
        return TorsionSubgroup(self, _diagonal([1] * self.rank))

    def trivial_subgroup(self) -> "TorsionSubgroup":
        return TorsionSubgroup(self, _diagonal([self.M] * self.rank))

    def torsion_subgroup(self, n: int) -> "TorsionSubgroup":
        """The n-torsion subgroup; requires n | M."""
        if self.M % n != 0:
            raise ValueError(f"{n}-torsion needs {n} | {self.M}")
        return TorsionSubgroup(self, _diagonal([self.M // n] * self.rank))


@dataclass(frozen=True)
class TorsionSubgroup:
    """Subgroup of a TorsionAmbient, held as the Hermite basis of its
    preimage lattice in Z^rank (a lattice containing M*Z^rank).

    The basis is unique for the subgroup, so equality of subgroups is
    equality of the dataclass (same ambient, identical basis).  Its rows are
    stored as tuples, so no caller can change them.
    """

    ambient: TorsionAmbient
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(map(tuple, self.basis)))

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Canonical generators: the basis rows reduced mod M, zero rows dropped."""
        M = self.ambient.M
        reduced = [tuple(e % M for e in r) for r in self.basis]
        return tuple(r for r in reduced if any(r))

    @cached_property
    def exponent(self) -> int:
        """Least e with e*H = 0: M over the gcd of M and every basis entry."""
        return self.ambient.M // gcd(self.ambient.M, *(e for r in self.basis for e in r))

    @property
    def order(self) -> int:
        det = prod(self.basis[i][i] for i in range(len(self.basis)))
        return self.ambient.M ** self.ambient.rank // det

    def contains(self, vec: tuple[int, ...]) -> bool:
        """Membership of an ambient coordinate vector."""
        if len(vec) != self.ambient.rank:
            raise ValueError("vector has wrong length")
        v = list(vec)
        for row in self.basis:
            c = next(j for j, e in enumerate(row) if e != 0)
            if v[c] % row[c] == 0:
                q = v[c] // row[c]
                if q:
                    for k in range(len(v)):
                        v[k] -= q * row[k]
        return all(e == 0 for e in v)

    def is_subgroup_of(self, other: "TorsionSubgroup") -> bool:
        if self.ambient != other.ambient:
            raise AmbientMismatch("subgroup comparison across ambients")
        return all(other.contains(row) for row in self.basis)

    def elements(self) -> set[tuple[int, ...]]:
        """Exhaustive element set (desk scale only)."""
        M = self.ambient.M
        k = self.ambient.rank
        seen = {(0,) * k}
        frontier = [(0,) * k]
        while frontier:
            cur = frontier.pop()
            for gvec in self.basis:
                nxt = tuple((a + b) % M for a, b in zip(cur, gvec))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def embed(self, target: TorsionAmbient) -> "TorsionSubgroup":
        """Unique torsion-compatible embedding into a larger modulus:
        a generator v mod M0 maps to (M/M0) * v mod M."""
        M0, M = self.ambient.M, target.M
        if target.g != self.ambient.g:
            raise AmbientMismatch("embedding must preserve the genus")
        if M % M0 != 0:
            raise AmbientMismatch(f"cannot embed Z/{M0} torsion into Z/{M}")
        # s times L's Hermite basis is that of s*L, the image's preimage lattice
        s = M // M0
        return TorsionSubgroup(target, [[e * s for e in r] for r in self.basis])


def subgroup_from_generators(ambient: TorsionAmbient, rows) -> TorsionSubgroup:
    """Canonical subgroup of (Z/M)^(2g) generated by the given rows, lists or
    tuples of 2g integers each."""
    if any(len(r) != ambient.rank for r in rows):
        raise ValueError(f"each generator needs {ambient.rank} entries, the ambient rank")
    M = ambient.M
    return TorsionSubgroup(ambient, hermite_normal_form(
        [[e % M for e in r] for r in rows] + _diagonal([M] * ambient.rank)))


def _diagonal(d: list[int]) -> list[list[int]]:
    """Rows of the diagonal matrix with diagonal d."""
    return [[e if i == j else 0 for j in range(len(d))] for i, e in enumerate(d)]


def _restrict(h: TorsionSubgroup, image, lattice) -> TorsionSubgroup:
    """{x in H : image(x) in L}, for image linear from Z^k to Z^j (modulo
    L) and L a lattice given by a basis: the right-hand block of one
    Hermite form of (image(b), b), b in the Hermite basis of H's preimage
    lattice, and (l, 0), l in L.

    Condition: M*image(Z^k) lies in L, M the modulus of H's ambient, so the
    result contains M*Z^k, as a ``TorsionSubgroup`` basis must; each caller says
    why the condition holds."""
    k = h.ambient.rank
    rows = [[*image(b), *b] for b in h.basis] + [[*l] + [0] * k for l in lattice]
    return TorsionSubgroup(h.ambient, _right_block(rows, len(rows[0]) - k))


def intersect(h1: TorsionSubgroup, h2: TorsionSubgroup) -> TorsionSubgroup:
    """Setwise intersection of two subgroups of the same ambient."""
    if h1.ambient != h2.ambient:
        raise AmbientMismatch("intersection across different ambients")
    # M*Z^k lies in H2's preimage lattice, as in every Hermite basis here
    return _restrict(h1, lambda x: x, h2.basis)


def preimage_mul(m: int, h: TorsionSubgroup) -> TorsionSubgroup:
    """Full preimage {x : m*x in H} under multiplication by m.

    Precondition: m * exponent(H) divides the ambient modulus, so the finite
    model captures the whole preimage inside the torsion of Pic^0(C)."""
    if m < 1:
        raise ValueError("multiplier must be positive")
    M = h.ambient.M
    exp = h.exponent
    if M % (m * exp) != 0:
        raise ValueError(
            f"preimage under [{m}] needs {m}*exponent({exp}) | modulus {M}; "
            "enlarge the ambient modulus")
    if m == 1:
        return h
    # m*M*Z^k lies in M*Z^k, which H's preimage lattice contains
    return _restrict(h.ambient.full_subgroup(), lambda x: [m * e for e in x],
                     h.basis)


def structure(h: TorsionSubgroup) -> FinAbGroup:
    """Invariant factors of H as an abstract finite abelian group.

    The preimage lattice L of H in Z^k contains M*Z^k.  If the Smith
    diagonal of L's basis is d_1 | ... | d_k, then in the Smith basis
    L = (+) d_i*Z, so H = L / M*Z^k = (+) Z/(M/d_i): the invariant factors
    are the values M/d_i that exceed 1, in ascending order."""
    M, k = h.ambient.M, h.ambient.rank
    # zero-width carried blocks: the basis is nonsingular, so no row vanishes
    d, _, _ = _smith_alternation([list(r) for r in h.basis], k, [[]] * k, [[]] * k)
    factors = sorted(M // d[i][i] for i in range(k) if d[i][i] < M)
    group = FinAbGroup(tuple(factors))
    assert group.order == h.order
    return group


def dual_group(g: FinAbGroup) -> FinAbGroup:
    """Character group; isomorphic to g, returned as a fresh value so the
    domain/codomain roles stay explicit."""
    return FinAbGroup(g.invariant_factors)


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between torsion ambients given by a coordinate matrix:
    x (row vector) maps to x @ matrix mod the codomain modulus."""

    domain: TorsionAmbient
    codomain: TorsionAmbient
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = tuple(map(tuple, self.matrix))
        object.__setattr__(self, "matrix", m)
        if len(m) != self.domain.rank or any(len(r) != self.codomain.rank for r in m):
            raise ValueError("matrix shape does not match domain/codomain ranks")
        # well-definedness: M_dom * e_i must map into the codomain relations
        if any(self.domain.M * e % self.codomain.M for r in m for e in r):
            raise ValueError("homomorphism not well defined on relations")

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if len(vec) != self.domain.rank:
            raise ValueError("vector has wrong length")
        Mc = self.codomain.M
        return tuple(sum(map(operator.mul, vec, col)) % Mc for col in zip(*self.matrix))

    def kernel(self) -> TorsionSubgroup:
        """{x : x*A in Mc*Z^kc}, restricted from the full domain."""
        # well defined: Md*A = 0 mod Mc, so Md*Z^kd maps into Mc*Z^kc
        return _restrict(self.domain.full_subgroup(), self.apply,
                         _diagonal([self.codomain.M] * self.codomain.rank))

    def image(self) -> TorsionSubgroup:
        return subgroup_from_generators(self.codomain, self.matrix)


def dual_of_inclusion(k_sub: TorsionSubgroup, n: int) -> GroupHom:
    """Restriction-of-characters map A[n] -> dual(K) for K inside the
    n-torsion of its ambient.

    Characters of A[n] = (Z/n)^(2g) are identified with A[n] through the
    standard pairing <x, y> = sum x_j y_j / n mod 1; the map sends x to the
    tuple of pairings with K's canonical generators, realizing dual(K) as a
    subgroup of (Z/n)^(2g).  The map is surjective onto that realization and
    its kernel is the annihilator of K, of order n^(2g) / |K|."""
    amb = k_sub.ambient
    if amb.M % n != 0:
        raise ValueError(f"ambient modulus {amb.M} is not divisible by {n}")
    if n % k_sub.exponent != 0:
        raise ValueError("subgroup is not contained in the n-torsion")
    step = amb.M // n
    gens = k_sub.generators
    # column j of the matrix is generator j scaled down by step, zeros past the last
    pad = [0] * (amb.rank - len(gens))
    small = TorsionAmbient(amb.g, n)
    return GroupHom(small, small, [[r[i] // step for r in gens] + pad for i in range(amb.rank)])
