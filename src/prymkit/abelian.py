"""Exact integer-matrix and finite-abelian-group engine.

A subgroup of (Z/M)^(2g) is stored as its canonical generators: the rows
of the Hermite basis of its preimage lattice in Z^(2g) whose pivot is below
M.  The other basis rows are exactly M*e_c and stay implicit; since that
basis is unique for the subgroup, two subgroups are equal iff their stored
generators are.  Every subgroup is built by the
Hermite form modulo M, which eliminates only these rows, never a stacked
M*I, and all work stays modulo M.  [m]^(-1)(H) is spanned by H's generators
over m and the (M/m)*e_c.  Intersection and kernel are one restriction
{x in H : image(x) in L}: the right-hand rows of one Hermite form modulo M
of the generators of H and L, stacked.  A homomorphism maps one ambient to
itself; ``pi0`` reads the order of its image, the subgroup its rows span.
``embed`` scales the generators and runs no elimination; order, exponent and
the invariant factors are read off the generators.  The Hermite form, with or
without a modulus, is the only normal-form kernel: it clears each column
using only the rows still nonzero there.  The Smith form is built from
alternating Hermite forms, which ``structure()`` runs with no transforms
carried.  Integer matrices are row lists of a given width.  No determinant
is taken here: the one Bareiss elimination is ``polynomials._bareiss``.
All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, prod


class AmbientMismatch(ValueError):
    """Operands live in different ambient groups."""


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


def hermite_normal_form(rows: list[list[int]], modulus: int | None = None) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by integer rows:
    row echelon, positive pivots, entries above each pivot reduced into
    [0, pivot).  Zero rows are dropped.  Unique for the row lattice.  Each
    column is cleared using only the rows still nonzero there; a row that
    vanishes in the column is set aside for the later columns.

    With a modulus M, the form of the rows and M*Z^k, modulo M (Cohen,
    Alg. 2.4.8): rows are reduced mod M, M*e_c joins column c only if some
    row is live there, a row set aside is reduced mod M, and so are the
    entries above the implicit pivot M of a column where no row is live.
    The rows of pivot M, exactly the M*e_c, are not emitted."""
    if modulus:
        rows = [r for r in ([e % modulus for e in r] for r in rows) if any(r)]
    if not rows:
        return []
    work = [list(r) for r in rows]
    width = len(work[0])
    done: list[list[int]] = []
    for c in range(width):
        live, rest = [], []
        for r in work:
            (live if r[c] else rest).append(r)
        if not live:
            if modulus:
                for r in done:
                    r[c] %= modulus
            continue
        work = rest
        if modulus:
            live.append([0] * c + [modulus] + [0] * (width - c - 1))
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[c]))
            p = piv[c]
            nxt = [piv]
            for r in live:
                if r is not piv:
                    q = r[c] // p
                    r = [a - q * b for a, b in zip(r, piv)]
                    if modulus and not r[c]:
                        r = [e % modulus for e in r]
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


def left_kernel(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Hermite basis of the lattice {w : w * A = 0} of integer row vectors,
    A the matrix with the given rows, each of length cols (as in
    ``smith_normal_form``): the tails of the Hermite rows of [A | I] whose
    pivot lies past column cols."""
    h = hermite_normal_form([[*r, *e] for r, e in zip(rows, _diagonal([1] * len(rows)))])
    return [r[cols:] for r in h if not any(r[:cols])]


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
        return TorsionSubgroup(self, _diagonal([1] * self.rank) if self.M > 1 else [])

    def trivial_subgroup(self) -> "TorsionSubgroup":
        return TorsionSubgroup(self, [])

    def torsion_subgroup(self, n: int) -> "TorsionSubgroup":
        """The n-torsion subgroup; requires n | M."""
        if self.M % n != 0:
            raise ValueError(f"{n}-torsion needs {n} | {self.M}")
        return TorsionSubgroup(self, _diagonal([self.M // n] * self.rank) if n > 1 else [])


@dataclass(frozen=True)
class TorsionSubgroup:
    """Subgroup of a TorsionAmbient, held as its canonical generators: the
    rows of the Hermite basis of its preimage lattice in Z^rank (a lattice
    containing M*Z^rank) whose pivot is below M.  Every other basis row is
    exactly M*e_c, so it is left implicit.  The Hermite basis is unique for
    the subgroup, so equality of subgroups is equality of the dataclass
    (same ambient, identical generators).  The rows are stored as tuples,
    so no caller can change them.
    """

    ambient: TorsionAmbient
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(map(tuple, self.generators)))

    @property
    def exponent(self) -> int:
        """Least e with e*H = 0: M over the gcd of M and every generator entry."""
        return self.ambient.M // gcd(self.ambient.M, *(e for r in self.generators for e in r))

    @property
    def order(self) -> int:
        """The product of M over each generator's pivot, its first nonzero entry."""
        return prod(self.ambient.M // next(filter(None, r)) for r in self.generators)

    def contains(self, vec: tuple[int, ...]) -> bool:
        """Membership of an ambient coordinate vector: reduced by the
        generators, it must be 0 mod M."""
        if len(vec) != self.ambient.rank:
            raise ValueError("vector has wrong length")
        v = list(vec)
        for row in self.generators:
            c = next(j for j, e in enumerate(row) if e)
            q = v[c] // row[c]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return all(e % self.ambient.M == 0 for e in v)

    def is_subgroup_of(self, other: "TorsionSubgroup") -> bool:
        if self.ambient != other.ambient:
            raise AmbientMismatch("subgroup comparison across ambients")
        return all(other.contains(row) for row in self.generators)

    def elements(self) -> set[tuple[int, ...]]:
        """Exhaustive element set (desk scale only)."""
        M = self.ambient.M
        k = self.ambient.rank
        seen = {(0,) * k}
        frontier = [(0,) * k]
        while frontier:
            cur = frontier.pop()
            for gvec in self.generators:
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
        # s times L's Hermite basis is that of s*L, the image's preimage
        # lattice, and s*M0*e_c = M*e_c stays implicit
        s = M // M0
        return TorsionSubgroup(target, [[e * s for e in r] for r in self.generators])


def subgroup_from_generators(ambient: TorsionAmbient, rows) -> TorsionSubgroup:
    """Canonical subgroup of (Z/M)^(2g) generated by the given rows, lists or
    tuples of 2g integers each."""
    if any(len(r) != ambient.rank for r in rows):
        raise ValueError(f"each generator needs {ambient.rank} entries, the ambient rank")
    return TorsionSubgroup(ambient, hermite_normal_form(rows, ambient.M))


def _diagonal(d: list[int]) -> list[list[int]]:
    """Rows of the diagonal matrix with diagonal d."""
    return [[e if i == j else 0 for j in range(len(d))] for i, e in enumerate(d)]


def _restrict(h: TorsionSubgroup, image, lattice) -> TorsionSubgroup:
    """{x in H : image(x) in L}, for image linear from Z^k to itself modulo
    M, the modulus of H's ambient, and L spanned by the given rows and
    M*Z^k: the right-hand block of one Hermite form modulo M of the rows
    (image(b), b), b a generator of H, and (l, 0), l a row of L."""
    k = h.ambient.rank
    rows = [[*image(b), *b] for b in h.generators] + [[*l] + [0] * k for l in lattice]
    return TorsionSubgroup(h.ambient, [r[k:] for r in hermite_normal_form(rows, h.ambient.M)
                                       if not any(r[:k])])


def intersect(h1: TorsionSubgroup, h2: TorsionSubgroup) -> TorsionSubgroup:
    """Setwise intersection of two subgroups of the same ambient."""
    if h1.ambient != h2.ambient:
        raise AmbientMismatch("intersection across different ambients")
    return _restrict(h1, lambda x: x, h2.generators)


def preimage_mul(m: int, h: TorsionSubgroup) -> TorsionSubgroup:
    """Full preimage {x : m*x in H} under multiplication by m.

    Precondition: m * exponent(H) divides the ambient modulus, so the finite
    model captures the whole preimage inside the torsion of Pic^0(C).  Then m
    divides M and every generator entry, and the preimage's lattice, H's
    over m, is spanned by the generators over m and the (M/m)*e_c."""
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
    rows = [[e // m for e in r] for r in h.generators] + _diagonal([M // m] * h.ambient.rank)
    return TorsionSubgroup(h.ambient, hermite_normal_form(rows, M))


def structure(h: TorsionSubgroup) -> FinAbGroup:
    """Invariant factors of H as an abstract finite abelian group.

    H's preimage lattice L in Z^k is spanned by its r generators G and
    M*Z^k.  At each pivot column c of G, M*e_c less a combination of the
    implicit rows M*e_j is M*w_c in span(G), w_c being 1 at c and 0 at G's
    other pivots; the w_c span the saturation S of span(G), so M*S lies in
    span(G) and G's Smith diagonal d_1 | ... | d_r divides M.  Hence
    L = (+) d_i*Z (+) M*Z^(k-r) in the Smith basis and H = (+) Z/(M/d_i):
    the invariant factors are the M/d_i above 1, ascending.  The trivial
    group has no generators and runs no elimination."""
    M, r = h.ambient.M, len(h.generators)
    if not r:
        return FinAbGroup(())
    # G's transpose has an r x r nonsingular Hermite form with G's Smith
    # diagonal; zero-width carried blocks, so no row vanishes
    t = hermite_normal_form(_transpose(h.generators, h.ambient.rank))
    d, _, _ = _smith_alternation(t, r, [[]] * r, [[]] * r)
    group = FinAbGroup(tuple(sorted(M // d[i][i] for i in range(r) if d[i][i] < M)))
    assert group.order == h.order
    return group


def dual_group(g: FinAbGroup) -> FinAbGroup:
    """Character group; isomorphic to g, returned as a fresh value so the
    domain/codomain roles stay explicit."""
    return FinAbGroup(g.invariant_factors)


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism of a torsion ambient (Z/M)^(2g) to itself, given by a
    square coordinate matrix of the ambient's rank: x (row vector) maps to
    x @ matrix mod M."""

    ambient: TorsionAmbient
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = tuple(map(tuple, self.matrix))
        object.__setattr__(self, "matrix", m)
        k = self.ambient.rank
        if len(m) != k or any(len(r) != k for r in m):
            raise ValueError("matrix shape does not match the ambient rank")

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if len(vec) != self.ambient.rank:
            raise ValueError("vector has wrong length")
        M = self.ambient.M
        return tuple(sum(map(operator.mul, vec, col)) % M for col in zip(*self.matrix))

    def kernel(self) -> TorsionSubgroup:
        """{x : x*A = 0 mod M}, restricted from the full ambient."""
        return _restrict(self.ambient.full_subgroup(), self.apply, [])

    def image(self) -> TorsionSubgroup:
        return subgroup_from_generators(self.ambient, self.matrix)


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
    return GroupHom(small, [[r[i] // step for r in gens] + pad for i in range(amb.rank)])
