"""Seeded, self-contained verification suites for the library invariants.

Each suite is a pure function of an integer seed returning one record per
property: {"property": name, "passed": bool, "detail": human-readable}.
The random generators here are also used by the test suite.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .abelian import (
    TorsionAmbient,
    TorsionSubgroup,
    dual_of_inclusion,
    hermite_normal_form,
    intersect,
    preimage_mul,
    smith_normal_form,
    subgroup_from_generators,
)
from .covers import (
    DoubleCoverData,
    TwistedSpectralPoly,
    galois_pushforward,
    pullback_splits,
    squarefree_decompose,
    trace_translate,
)
from .norms import (
    AlgebraElement,
    SpectralPoly,
    factors_coprime,
    norm_component_law,
    norm_element,
    norm_multiplicativity_check,
    norm_power_law,
    norm_resultant_oracle,
    spectral_mul,
    spectral_pow,
)
from .polynomials import Poly, _bareiss
from .spectral import (
    ComponentData,
    SpectralCoverDescriptor,
    divisors,
    gamma_in_k,
    is_cn_cover,
    phi_surjection,
    pi0_prym,
    prym_component_group,
    variant_bound,
    endoscopic_dim,
    smallest_prime_divisor,
)


# -- random generators ----------------------------------------------------

def random_int_matrix(rng: random.Random, max_dim: int = 6,
                      bound: int = 50) -> list[list[int]]:
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


def random_subgroup(rng: random.Random, ambient: TorsionAmbient,
                    max_gens: int = 2, proper: bool = False) -> TorsionSubgroup:
    """Random subgroup; with proper=True the full ambient group is excluded
    (resampled toward smaller subgroups, falling back to trivial)."""
    k = ambient.rank
    for _ in range(12):
        ngens = rng.randint(0, max_gens)
        rows = [[rng.randrange(ambient.M) for _ in range(k)] for _ in range(ngens)]
        h = subgroup_from_generators(ambient, rows)
        if not proper or h.order < ambient.order:
            return h
    return ambient.trivial_subgroup()


def random_descriptor(rng: random.Random, max_n: int = 6,
                      max_g: int = 2) -> SpectralCoverDescriptor:
    """Random valid descriptor.  Kernels K_i are random subgroups of the
    d_i-torsion; for d_i >= 2 the full d_i-torsion itself is excluded, since
    the pullback kernel of an actual degree-d_i cover is always a proper
    subgroup of the d_i-torsion (it misses the polarization-dual classes)."""
    n = rng.randint(2, max_n)
    g = rng.randint(1, max_g)
    parts: list[tuple[int, int]] = []
    rem = n
    while rem > 0:
        if parts and rng.random() < 0.5:
            d = rng.choice(divisors(rem))
            m = rem // d
        else:
            d = rng.randint(1, rem)
            m = rng.randint(1, rem // d)
        parts.append((d, m))
        rem -= d * m
    comps = []
    for d, m in parts:
        ambient = TorsionAmbient(g, d)
        kernel = random_subgroup(rng, ambient, proper=(d >= 2))
        comps.append(ComponentData(d, m, kernel))
    return SpectralCoverDescriptor(n, g, tuple(comps))


def cn_descriptor(n: int, g: int) -> SpectralCoverDescriptor:
    """The non-reduced cover with trivial nilpotent structure of order n."""
    ambient = TorsionAmbient(g, 1)
    return SpectralCoverDescriptor(
        n, g, (ComponentData(1, n, ambient.trivial_subgroup()),))


def random_poly(rng: random.Random, max_deg: int, bound: int = 5) -> Poly:
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return Poly.zero()
    cs = [Fraction(rng.randint(-bound, bound)) for _ in range(deg + 1)]
    if cs[-1] == 0:
        cs[-1] = Fraction(rng.choice([1, -1, 2, -2]))
    return Poly(cs)


def random_spectral(rng: random.Random, max_n: int = 4,
                    deg_m: int = 1) -> SpectralPoly:
    n = rng.randint(1, max_n)
    coeffs = tuple(random_poly(rng, j * deg_m) for j in range(1, n + 1))
    return SpectralPoly(n, deg_m, coeffs)


def random_element(rng: random.Random, parent: SpectralPoly,
                   max_deg: int = 2) -> AlgebraElement:
    return AlgebraElement(
        parent, tuple(random_poly(rng, max_deg) for _ in range(parent.n)))


def random_squarefree(rng: random.Random, max_deg: int = 2) -> Poly:
    for _ in range(50):
        p = random_poly(rng, max_deg)
        if p.degree >= 1 and p.is_squarefree():
            return p
    return Poly.x()


def random_twisted(rng: random.Random, cover: DoubleCoverData, m: int,
                   deg_m: int, bound: int = 3) -> TwistedSpectralPoly:
    h = cover.half_degree
    pairs = []
    for j in range(1, m + 1):
        u = random_poly(rng, j * deg_m, bound)
        v_deg = j * deg_m - h
        v = random_poly(rng, v_deg, bound) if v_deg >= 0 else Poly.zero()
        pairs.append((u, v))
    return TwistedSpectralPoly(cover, m, deg_m, tuple(pairs))


# -- suite helpers --------------------------------------------------------

def _matmul(a: list, b: list) -> list[list[int]]:
    """Product of two integer matrices given by their rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _record(results: list, name: str, passed: bool, detail: str):
    results.append({"property": name, "passed": bool(passed), "detail": detail})


# -- suites ---------------------------------------------------------------

def suite_abelian(seed: int) -> list[dict]:
    rng = random.Random(seed)
    results: list[dict] = []

    ok, detail = True, ""
    for _ in range(60):
        a = random_int_matrix(rng)
        u, d, v = smith_normal_form(a, len(a[0]))
        if (_matmul(_matmul(u, a), v) != d
                or abs(_bareiss(u)[1]) != 1 or abs(_bareiss(v)[1]) != 1):
            ok, detail = False, f"decomposition failed on {a}"
            break
        diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
        nz = [e for e in diag if e != 0]
        if any(e < 0 for e in diag) or any(b % a_ != 0 for a_, b in zip(nz, nz[1:])):
            ok, detail = False, f"diagonal not a divisor chain: {diag}"
            break
    _record(results, "snf_soundness", ok, detail)

    ok, detail = True, ""
    for _ in range(25):
        g = rng.randint(1, 2)
        M = rng.choice([2, 3, 4, 6])
        ambient = TorsionAmbient(g, M)
        h = random_subgroup(rng, ambient, max_gens=2)
        elems = sorted(h.elements())
        alt = [list(rng.choice(elems)) for _ in range(rng.randint(1, 4))]
        h2 = subgroup_from_generators(ambient, alt)
        if not h2.is_subgroup_of(h):
            ok, detail = False, "span of elements escaped the subgroup"
            break
        if h2.elements() == set(elems) and h2 != h:
            ok, detail = False, "equal subgroups with different canonical forms"
            break
    _record(results, "canonical_form_uniqueness", ok, detail)

    ok, detail = True, ""
    for _ in range(15):
        M = rng.choice([4, 6, 8, 9])
        ambient = TorsionAmbient(1, M)
        h = random_subgroup(rng, ambient)
        m = rng.choice([d for d in divisors(M) if M % (d * h.exponent) == 0])
        pre = preimage_mul(m, h)
        helems = h.elements()
        expected = {v for v in product(range(M), repeat=ambient.rank)
                    if tuple((m * e) % M for e in v) in helems}
        if pre.elements() != expected:
            ok, detail = False, f"preimage mismatch at M={M}, m={m}"
            break
    _record(results, "preimage_adjunction", ok, detail)

    ok, detail = True, ""
    for _ in range(15):
        M = rng.choice([4, 6, 8])
        ambient = TorsionAmbient(1, M)
        h1 = random_subgroup(rng, ambient)
        h2 = random_subgroup(rng, ambient)
        if intersect(h1, h2).elements() != h1.elements() & h2.elements():
            ok, detail = False, f"intersection mismatch at M={M}"
            break
    _record(results, "intersection_exhaustive", ok, detail)

    ok, detail = True, ""
    for n in (2, 3, 4):
        ambient = TorsionAmbient(1, n)
        seen = set()
        for v1 in product(range(n), repeat=2):
            for v2 in product(range(n), repeat=2):
                h = subgroup_from_generators(ambient, [v1, v2])
                if h in seen:
                    continue
                seen.add(h)
                hom = dual_of_inclusion(h, n)
                if hom.kernel().order * h.order != n ** 2:
                    ok, detail = False, f"kernel size wrong for subgroup of (Z/{n})^2"
        if not ok:
            break
    _record(results, "character_restriction_kernel", ok, detail)
    return results


def suite_spectral(seed: int) -> list[dict]:
    rng = random.Random(seed)
    results: list[dict] = []

    ok, detail = True, ""
    for _ in range(60):
        desc = random_descriptor(rng)
        bound = desc.n ** (2 * desc.g)
        group = pi0_prym(desc)
        if group.order > bound:
            ok, detail = False, f"bound violated: {group.order} > {bound}"
            break
        phi_surjection(desc)  # raises on any internal inconsistency
        if (group.order == bound) != is_cn_cover(desc):
            ok, detail = False, "maximality does not match the C_n shape"
            break
    _record(results, "pi0_bound_and_surjection", ok, detail)

    ok, detail = True, ""
    for _ in range(20):
        desc = random_descriptor(rng, max_n=4)
        k_before = prym_component_group(desc)
        idx = rng.randrange(len(desc.components))
        comp = desc.components[idx]
        amb = comp.kernel.ambient
        extra = [rng.randrange(amb.M) for _ in range(amb.rank)]
        bigger = subgroup_from_generators(amb, [*comp.kernel.generators, extra])
        if any((comp.degree * e) % amb.M != 0 for e in extra):
            continue
        comps = list(desc.components)
        comps[idx] = ComponentData(comp.degree, comp.multiplicity, bigger)
        desc2 = SpectralCoverDescriptor(desc.n, desc.g, tuple(comps))
        k_after = prym_component_group(desc2)
        big = TorsionAmbient(desc.g, k_before.ambient.M * k_after.ambient.M)
        if not k_before.embed(big).is_subgroup_of(k_after.embed(big)):
            ok, detail = False, "enlarging a kernel shrank K"
            break
    _record(results, "kernel_monotonicity", ok, detail)

    ok, detail = True, ""
    for n in range(2, 13):
        for g in range(1, 6):
            c_n, bnd = variant_bound(n, g)
            p = smallest_prime_divisor(n)
            if c_n != endoscopic_dim(n, 1, g) - endoscopic_dim(n, p, g) or bnd != 2 * c_n:
                ok, detail = False, f"formula mismatch at n={n}, g={g}"
    _record(results, "codimension_formula", ok, detail)

    # the oracle embeds v in (Z/M)^(2g) by M // n and looks it up in K's
    # element set, built by closure over K's generators; at n <= 6, M != n
    # with K != 0 occurs, and half the v are drawn from K itself
    ok, detail = True, ""
    for _ in range(30):
        desc = random_descriptor(rng, max_n=6)
        n, M = desc.n, desc.k.ambient.M
        elements = desc.k.elements()
        v = ([e // (M // n) for e in rng.choice(sorted(elements))] if rng.random() < 0.5
             else [rng.randrange(n) for _ in range(2 * desc.g)])
        gamma = subgroup_from_generators(TorsionAmbient(desc.g, n), [v])
        if gamma_in_k(desc, gamma) != (tuple((M // n) * e % M for e in v) in elements):
            ok, detail = False, f"membership of <{v}> in K disagrees with K's elements"
            break
    _record(results, "gamma_membership", ok, detail)
    return results


def suite_norm(seed: int) -> list[dict]:
    rng = random.Random(seed)
    results: list[dict] = []

    ok, detail = True, ""
    for _ in range(30):
        s = random_spectral(rng)
        u, v = random_element(rng, s), random_element(rng, s)
        if not norm_multiplicativity_check(s, u, v):
            ok, detail = False, "multiplicativity failed"
            break
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if norm_element(s, u.scale(lam)) != norm_element(s, u).scale(lam ** s.n):
            ok, detail = False, "scalar law failed"
            break
        r = random_poly(rng, 2)
        pullback = AlgebraElement(
            s, (r,) + (Poly.zero(),) * (s.n - 1))
        if norm_element(s, pullback) != r ** s.n:
            ok, detail = False, "pullback law failed"
            break
    _record(results, "multiplicativity_scalar_pullback", ok, detail)

    ok, detail = True, ""
    for _ in range(15):
        p = random_spectral(rng, max_n=2)
        m = rng.randint(1, 2)
        u = random_element(rng, spectral_pow(p, m))
        if not norm_power_law(p, m, u):
            ok, detail = False, "power law failed"
            break
    _record(results, "power_law", ok, detail)

    ok, detail = True, ""
    count = 0
    while count < 15:
        b = random_spectral(rng, max_n=2)
        c = random_spectral(rng, max_n=2)
        if not factors_coprime(b, c):
            continue
        count += 1
        u = random_element(rng, spectral_mul(b, c))
        if not norm_component_law(b, c, u):
            ok, detail = False, "component law failed"
            break
    _record(results, "component_law", ok, detail)

    ok, detail = True, ""
    for _ in range(20):
        s = random_spectral(rng)
        u = random_element(rng, s)
        if not norm_resultant_oracle(s, u, norm_element(s, u)):
            ok, detail = False, "determinant disagrees with the resultant"
            break
    _record(results, "resultant_cross_check", ok, detail)
    return results


def suite_galois(seed: int) -> list[dict]:
    rng = random.Random(seed)
    results: list[dict] = []

    ok, detail = True, ""
    for _ in range(10):
        cover = DoubleCoverData(random_squarefree(rng))
        m = rng.randint(1, 2)
        tw = random_twisted(rng, cover, m, deg_m=1)
        pushed = galois_pushforward(cover, tw)
        if pushed.coeffs[0] != tw.pairs[0][0].scale(2):
            ok, detail = False, "trace of pushforward is not twice the invariant part"
            break
        back = pullback_splits(cover, pushed)
        if back is None or galois_pushforward(cover, back) != pushed:
            ok, detail = False, "round-trip through the splitter failed"
            break
    _record(results, "pushforward_roundtrip", ok, detail)

    ok, detail = True, ""
    rejected = 0
    attempts = 0
    while rejected < 6 and attempts < 60:
        attempts += 1
        cover = DoubleCoverData(random_squarefree(rng))
        n = 2 * rng.randint(1, 2)
        s = SpectralPoly(n, 1, tuple(random_poly(rng, j) for j in range(1, n + 1)))
        back = pullback_splits(cover, s)
        if back is None:
            rejected += 1
        elif galois_pushforward(cover, back) != s:
            ok, detail = False, "splitter returned an uncertified witness"
            break
    if rejected == 0:
        ok, detail = False, "no generic polynomial was rejected"
    _record(results, "generic_rejection", ok, detail)

    ok, detail = True, ""
    for _ in range(10):
        s = random_spectral(rng, max_n=3)
        fac = squarefree_decompose(s)
        if fac.reconstruct() != s:
            ok, detail = False, "decomposition did not reconstruct"
            break
        t1 = trace_translate(s)
        if not t1.coeffs[0].is_zero() or trace_translate(t1) != t1:
            ok, detail = False, "trace translation not idempotent"
            break
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        if spectral_pow(s, k1 * k2) != spectral_pow(spectral_pow(s, k1), k2):
            ok, detail = False, "power maps do not compose"
            break
        s2 = random_spectral(rng, max_n=2)
        prod_poly = spectral_mul(s, s2)
        if prod_poly.coeffs[0] != s.coeffs[0] + s2.coeffs[0]:
            ok, detail = False, "trace additivity failed for the product map"
            break
    _record(results, "structure_maps", ok, detail)
    return results


SUITES = {
    "abelian": suite_abelian,
    "spectral": suite_spectral,
    "norm": suite_norm,
    "galois": suite_galois,
}


def run_suite(name: str, seed: int) -> list[dict]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name](seed)
