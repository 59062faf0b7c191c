"""Combinatorial spectral-cover descriptors and their headline computations:
the finite group K cut out by the component kernels, the component group of
the Prym variety as the character group of K, the surjection from n-torsion,
the C_n criterion, and the endoscopic dimension and bound formulas.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from math import lcm

from .abelian import (
    AmbientMismatch,
    FinAbGroup,
    GroupHom,
    TorsionAmbient,
    TorsionSubgroup,
    dual_group,
    dual_of_inclusion,
    intersect,
    preimage_mul,
    structure,
)


class DescriptorError(ValueError):
    """A spectral-cover descriptor violates its invariants."""


class InvariantViolation(RuntimeError):
    """A computed quantity contradicts a structural invariant that is
    supposed to hold for every valid descriptor."""


@dataclass(frozen=True)
class ComponentData:
    """One irreducible component: reduced degree d, multiplicity m, and the
    kernel subgroup K of pullback to the normalized reduced component.
    K must lie in the d-torsion of its ambient."""

    degree: int
    multiplicity: int
    kernel: TorsionSubgroup

    def __post_init__(self):
        if self.degree < 1:
            raise DescriptorError("component degree must be >= 1")
        if self.multiplicity < 1:
            raise DescriptorError("component multiplicity must be >= 1")
        if self.degree % self.kernel.exponent != 0:
            raise DescriptorError(
                f"kernel of exponent {self.kernel.exponent} is not killed by the "
                f"component degree {self.degree}")


@dataclass(frozen=True)
class SpectralCoverDescriptor:
    """Combinatorial cover data: total degree n, base genus g, and one
    ComponentData per irreducible component.  Degrees must satisfy
    sum(m_i * d_i) = n and all kernels must share one genus."""

    n: int
    g: int
    components: tuple[ComponentData, ...]

    def __post_init__(self):
        if self.g < 1:
            raise DescriptorError("genus must be >= 1")
        if not self.components:
            raise DescriptorError("descriptor needs at least one component")
        total = sum(c.degree * c.multiplicity for c in self.components)
        if total != self.n:
            raise DescriptorError(
                f"degree additivity violated: sum(m_i*d_i) = {total} != n = {self.n}")
        genera = {c.kernel.ambient.g for c in self.components}
        if len(genera) != 1 or genera != {self.g}:
            raise DescriptorError("all component kernels must live at the base genus")

    @cached_property
    def k(self) -> TorsionSubgroup:
        """K = intersection of the preimages [m_i]^(-1)(K_i), computed once
        per descriptor in the common ambient (Z/M)^(2g) with
        M = ambient_modulus(self).  K lies in the n-torsion: exp(K) divides
        every m_i * d_i, hence their gcd, which divides n = sum(m_i * d_i)."""
        ambient = TorsionAmbient(self.g, ambient_modulus(self))
        return reduce(intersect, (preimage_mul(c.multiplicity, c.kernel.embed(ambient))
                                  for c in self.components))


def ambient_modulus(desc: SpectralCoverDescriptor) -> int:
    """Smallest modulus M such that (Z/M)^(2g) contains the n-torsion and
    every preimage [m_i]^(-1)(K_i): since exp(K_i) | d_i, every preimage has
    exponent dividing m_i * d_i, so M = lcm(n, lcm_i(m_i * d_i)) suffices."""
    return lcm(desc.n, *(c.degree * c.multiplicity for c in desc.components))


def prym_component_group(desc: SpectralCoverDescriptor) -> TorsionSubgroup:
    """K = intersection of the preimages [m_i]^(-1)(K_i), computed in the
    common ambient (Z/M)^(2g) with M = ambient_modulus(desc).  K is computed
    once per descriptor and held on it (``desc.k``); every function here
    reads that value."""
    return desc.k


def pi0_prym(desc: SpectralCoverDescriptor) -> FinAbGroup:
    """Group of connected components of the Prym variety: the character
    group of K.  Its order is bounded by n^(2g)."""
    result = dual_group(structure(desc.k))
    if result.order > desc.n ** (2 * desc.g):
        raise InvariantViolation("component group exceeds the n^(2g) bound")
    return result


def phi_surjection(desc: SpectralCoverDescriptor) -> GroupHom:
    """The surjection from the n-torsion of Pic^0(C) onto the component
    group, realized as restriction of characters to K.  K lies in the
    n-torsion (see ``SpectralCoverDescriptor.k``; ``dual_of_inclusion``
    checks it), so |K| divides n^(2g).  The map is verified on
    its image: by the first isomorphism theorem |ker| * |im| = n^(2g), so
    the kernel has order n^(2g) / |K| exactly when |im| = |K|, that is,
    when the map is onto its realization of dual(K)."""
    k = desc.k
    hom = dual_of_inclusion(k, desc.n)
    if hom.image().order != k.order:
        raise InvariantViolation("character restriction has the wrong kernel")
    return hom


def is_cn_cover(desc: SpectralCoverDescriptor) -> bool:
    """True iff the descriptor is the non-reduced cover with trivial
    nilpotent structure of order n: a single component with m = n (d*m = n
    then gives d = 1, and exp(K) | d a trivial kernel, so K = [n]^(-1)(0)
    and |K| = n^(2g)).  Cross-checked against |K| = n^(2g), which for
    geometrically meaningful kernels (K_i proper in the d_i-torsion when
    d_i > 1) is an equivalent characterization."""
    shape = len(desc.components) == 1 and desc.components[0].multiplicity == desc.n
    maximal = desc.k.order == desc.n ** (2 * desc.g)
    if maximal and not shape:
        raise InvariantViolation(
            "descriptor attains |K| = n^(2g) without C_n shape; its kernels "
            "are not realizable by a spectral cover")
    return shape


def endoscopic_dim(n: int, d: int, g: int) -> int:
    """Dimension (n^2/d - 1)(g - 1) of the trace-free endoscopic locus for a
    cyclic subgroup of order d dividing n; d = 1 gives the whole base."""
    if n < 1 or d < 1 or g < 1:
        raise ValueError("n, d, g must be positive")
    if n % d != 0:
        raise ValueError(f"{d} does not divide {n}")
    return (n * n // d - 1) * (g - 1)


def _prime_factors(n: int):
    """The prime factors of n with multiplicity, in ascending order, by trial
    division by 2 and the odd numbers up to sqrt(n); reading only the first
    stops the division there."""
    p = 2
    while p * p <= n:
        while n % p == 0:
            yield p
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        yield n


def smallest_prime_divisor(n: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    return next(_prime_factors(n))


def variant_bound(n: int, g: int, p: int | None = None) -> tuple[int, int]:
    """Codimension c_n = n^2 (1 - 1/p)(g - 1) for p the smallest prime
    divisor of n, and the derived cohomological degree bound 2*c_n.  A
    caller that has already factored n passes p."""
    if n < 2:
        raise ValueError("need n >= 2")
    if g < 1:
        raise ValueError("need g >= 1")
    if p is None:
        p = smallest_prime_divisor(n)
    c_n = n * n * (p - 1) * (g - 1) // p
    assert c_n == endoscopic_dim(n, 1, g) - endoscopic_dim(n, p, g)
    return c_n, 2 * c_n


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in ascending order."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _divisors(Counter(_prime_factors(n)))


def _divisors(factors: dict[int, int]) -> list[int]:
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


@dataclass(frozen=True)
class EndoscopyReport:
    """Dimension table of the endoscopic loci for one (n, g), the
    codimension c_n, the degree bound 2*c_n, and the distinct prime
    factors of n in ascending order."""

    n: int
    g: int
    dims: dict[int, int]
    c_n: int
    bound: int
    primes: tuple[int, ...]

    def __post_init__(self):
        prime_max = max(self.dims[p] for p in self.primes)
        if self.c_n != self.dims[1] - prime_max:
            raise InvariantViolation("codimension inconsistent with dimension table")
        if self.dims[self.primes[0]] != prime_max:
            raise InvariantViolation("largest endoscopic locus not at the smallest prime")


def endoscopy_report(n: int, g: int) -> EndoscopyReport:
    factors = Counter(_prime_factors(n))  # the one trial division of n
    dims = {d: endoscopic_dim(n, d, g) for d in _divisors(factors)}
    c_n, bound = variant_bound(n, g, min(factors, default=None))
    return EndoscopyReport(n=n, g=g, dims=dims, c_n=c_n, bound=bound,
                           primes=tuple(factors))


def gamma_in_k(desc: SpectralCoverDescriptor, gamma: TorsionSubgroup) -> bool:
    """Group-theoretic side of the endoscopic membership test: is the cyclic
    subgroup gamma of the n-torsion contained in K?"""
    if not structure(gamma).is_cyclic():
        raise ValueError("gamma must be cyclic")
    if desc.n % gamma.exponent != 0:
        raise ValueError("gamma is not contained in the n-torsion")
    if gamma.ambient.g != desc.g:
        raise AmbientMismatch("gamma lives at a different genus")
    k = desc.k
    big = TorsionAmbient(desc.g, lcm(k.ambient.M, gamma.ambient.M))
    k_emb = k.embed(big)
    gamma_emb = gamma.embed(big)
    return gamma_emb.is_subgroup_of(k_emb)
