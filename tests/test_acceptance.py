"""End-to-end acceptance checks.

Each check prints a PASS/FAIL line with its runtime so the suite doubles as
an auditable report; a check fails if its assertions fail or if it exceeds
its time budget.
"""

import random
import time
from fractions import Fraction

from prymkit.abelian import (
    IntMatrix,
    TorsionAmbient,
    smith_normal_form,
)
from prymkit.covers import (
    DoubleCoverData,
    TwistedSpectralPoly,
    galois_pushforward,
    pullback_splits,
    squarefree_decompose,
)
from prymkit.norms import (
    SpectralPoly,
    norm_component_law,
    norm_element,
    norm_multiplicativity_check,
    norm_power_law,
    norm_resultant_oracle,
    spectral_mul,
    spectral_pow,
)
from prymkit.polynomials import Poly
from prymkit.spectral import (
    ambient_modulus,
    endoscopy_report,
    is_cn_cover,
    phi_surjection,
    pi0_prym,
    prym_component_group,
    variant_bound,
)
from prymkit.verify import (
    cn_descriptor,
    random_descriptor,
    random_element,
    random_int_matrix,
    random_poly,
    random_squarefree,
    random_twisted,
)


def _run(num: int, label: str, limit: float, body) -> None:
    start = time.time()
    err = None
    try:
        body()
    except Exception as exc:       # re-raised after reporting
        err = exc
    elapsed = time.time() - start
    ok = err is None and elapsed < limit
    print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s / limit {limit:.0f}s]", flush=True)
    if err is not None:
        raise err
    assert elapsed < limit, f"acceptance {num} exceeded {limit}s"


def test_1_cyclic_golden_case():
    def body():
        for n in range(2, 7):
            for g in range(1, 4):
                group = pi0_prym(cn_descriptor(n, g))
                assert group.invariant_factors == (n,) * (2 * g)
                assert group.order == n ** (2 * g)

    _run(1, "maximal component group on the order-n nilpotent cover", 1.0, body)


def test_2_bound_and_surjectivity_sweep():
    def body():
        rng = random.Random(20260823)
        for _ in range(500):
            desc = random_descriptor(rng, max_n=6, max_g=2)
            k = prym_component_group(desc)
            group = pi0_prym(desc)
            n2g = desc.n ** (2 * desc.g)
            assert group.order == k.order <= n2g
            assert k.is_subgroup_of(k.ambient.torsion_subgroup(desc.n))
            hom = phi_surjection(desc)
            assert hom.image().order == group.order
            assert hom.kernel().order * group.order == n2g
            assert (group.order == n2g) == is_cn_cover(desc)

    _run(2, "component-group bound, surjectivity, n-torsion, maximality",
         30.0, body)


def _brute_force_k(desc, modulus):
    vectors = [()]
    for _ in range(2 * desc.g):
        vectors = [v + (e,) for v in vectors for e in range(modulus)]
    ambient = TorsionAmbient(desc.g, modulus)
    embedded = [(c.multiplicity, c.kernel.embed(ambient))
                for c in desc.components]
    out = set()
    for v in vectors:
        if all(k.contains(tuple((m * e) % modulus for e in v))
               for m, k in embedded):
            out.add(v)
    return out


def test_3_brute_force_kernel_equivalence():
    def body():
        rng = random.Random(3)
        checked = 0
        cases = [cn_descriptor(n, g) for n in range(2, 5) for g in (1, 2)]
        while len(cases) < 160:
            cases.append(random_descriptor(rng, max_n=6, max_g=2))
        for desc in cases:
            modulus = ambient_modulus(desc)
            if modulus ** (2 * desc.g) > 4096:
                continue
            k = prym_component_group(desc)
            assert k.elements() == _brute_force_k(desc, modulus)
            checked += 1
        assert checked >= 40, f"only {checked} descriptors were small enough"

    _run(3, "canonical subgroup algebra vs exhaustive enumeration", 60.0, body)


def _cokernel_order_brute(a: IntMatrix, exponent: int) -> int:
    span = {(0,) * a.rows}
    frontier = [(0,) * a.rows]
    cols = [tuple(a.get(i, j) % exponent for i in range(a.rows))
            for j in range(a.cols)]
    while frontier:
        v = frontier.pop()
        for c in cols:
            w = tuple((x + y) % exponent for x, y in zip(v, c))
            if w not in span:
                span.add(w)
                frontier.append(w)
    total = exponent ** a.rows
    assert total % len(span) == 0
    return total // len(span)


def test_4_smith_normal_form_with_cokernel_oracle():
    def body():
        rng = random.Random(4)
        brute_checked = 0
        for _ in range(1000):
            a = random_int_matrix(rng, max_dim=6, bound=50)
            u, d, v = smith_normal_form(a)
            assert u.is_unimodular() and v.is_unimodular()
            assert u @ a @ v == d
            diag = [d.get(i, i) for i in range(min(d.rows, d.cols))]
            for i in range(len(diag) - 1):
                if diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            nonzero = [e for e in diag if e != 0]
            if len(nonzero) < a.rows:
                continue   # infinite cokernel
            exponent = nonzero[-1]
            if exponent ** a.rows > 10 ** 4:
                continue
            order = 1
            for e in nonzero:
                order *= e
            assert order == _cokernel_order_brute(a, exponent)
            brute_checked += 1
        assert brute_checked >= 50, f"only {brute_checked} brute-force checks"

    _run(4, "diagonalization identities and cokernel orders", 60.0, body)


def test_5_norm_laws():
    def body():
        rng = random.Random(5)

        def parent():
            n = rng.randint(1, 4)
            return SpectralPoly(
                n, 1, tuple(random_poly(rng, min(j, 4)) for j in range(1, n + 1)))

        for _ in range(100):
            s = parent()
            u, v = random_element(rng, s), random_element(rng, s)
            assert norm_multiplicativity_check(s, u, v)

        for _ in range(100):
            s = parent()
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            scalar = s.one().scale(lam)
            assert norm_element(s, scalar) == Poly.constant(lam ** s.n)

        for _ in range(100):
            s = parent()
            r = random_poly(rng, 3)
            pulled = s.element((r,) + (Poly.zero(),) * (s.n - 1))
            assert norm_element(s, pulled) == r ** s.n

        for _ in range(100):
            n_p = rng.randint(1, 2)
            p = SpectralPoly(n_p, 2,
                             tuple(random_poly(rng, 2) for _ in range(n_p)))
            m = rng.randint(1, 2)
            u = random_element(rng, spectral_pow(p, m))
            assert norm_power_law(p, m, u)

        for _ in range(100):
            while True:
                nb, nc = rng.randint(1, 2), rng.randint(1, 2)
                s_b = SpectralPoly(nb, 2,
                                   tuple(random_poly(rng, 2) for _ in range(nb)))
                s_c = SpectralPoly(nc, 2,
                                   tuple(random_poly(rng, 2) for _ in range(nc)))
                try:
                    u = random_element(rng, spectral_mul(s_b, s_c))
                    assert norm_component_law(s_b, s_c, u)
                    break
                except ValueError:
                    continue   # resampled: factors were not coprime

        for _ in range(50):
            s = parent()
            u = random_element(rng, s)
            assert norm_element(s, u) == norm_resultant_oracle(s, u)

    _run(5, "norm laws and resultant cross-check", 60.0, body)


def test_6_galois_round_trip_and_rejection():
    def body():
        rng = random.Random(6)
        for _ in range(50):
            cover = DoubleCoverData(random_squarefree(rng))
            m = rng.choice([1, 2, 3])
            tw = random_twisted(rng, cover, m, deg_m=rng.choice([1, 2]))
            pushed = galois_pushforward(cover, tw)
            assert pushed.n == 2 * m
            assert pushed.coeffs[0] == tw.pairs[0][0].scale(2)
            recovered = pullback_splits(cover, pushed)
            assert recovered is not None
            assert galois_pushforward(cover, recovered) == pushed

        rejected = 0
        attempts = 0
        while rejected < 50 and attempts < 400:
            attempts += 1
            cover = DoubleCoverData(random_squarefree(rng))
            m = rng.choice([1, 2])
            candidate = SpectralPoly(
                2 * m, 1, tuple(random_poly(rng, j) for j in range(1, 2 * m + 1)))
            if pullback_splits(cover, candidate) is None:
                rejected += 1
        assert rejected == 50, f"only {rejected} rejections in {attempts} tries"

    _run(6, "double-cover pushforward round-trip and rejection", 120.0, body)


def test_7_endoscopic_dimension_table():
    expected = {
        (2, 2): ({1: 3, 2: 1}, 2, 4),
        (3, 2): ({1: 8, 3: 2}, 6, 12),
        (4, 2): ({1: 15, 2: 7, 4: 3}, 8, 16),
        (5, 2): ({1: 24, 5: 4}, 20, 40),
        (6, 2): ({1: 35, 2: 17, 3: 11, 6: 5}, 18, 36),
        (2, 3): ({1: 6, 2: 2}, 4, 8),
        (3, 3): ({1: 16, 3: 4}, 12, 24),
        (4, 3): ({1: 30, 2: 14, 4: 6}, 16, 32),
        (5, 3): ({1: 48, 5: 8}, 40, 80),
        (6, 3): ({1: 70, 2: 34, 3: 22, 6: 10}, 36, 72),
    }

    def body():
        for (n, g), (dims, c_n, bound) in expected.items():
            report = endoscopy_report(n, g)
            assert report.dims == dims, (n, g)
            assert (report.c_n, report.bound) == (c_n, bound), (n, g)
            assert variant_bound(n, g) == (c_n, bound)

    _run(7, "endoscopic dimension and bound table", 10.0, body)


def test_8_codimension_strict_inequality():
    def body():
        for n in range(2, 13):
            for g in range(2, 7):
                _c_n, bound = variant_bound(n, g)
                assert bound > (n * n - 1) * (g - 1), (n, g)

    _run(8, "degree bound exceeds the base dimension", 10.0, body)


def _exact_poly(rng: random.Random, deg: int, bound: int = 5) -> Poly:
    """random_poly drawn until its degree is exactly deg."""
    while True:
        p = random_poly(rng, deg, bound)
        if p.degree == deg:
            return p


def test_9_stall_regimes():
    """The two inputs on which the Euclidean algorithm over Q(x) ran for
    minutes: the resultant oracle of an n = 5 norm, and Yun's decomposition
    of a degree-6 pushforward with x-degrees up to 12."""
    def body():
        rng = random.Random(9)
        s = SpectralPoly(5, 2, tuple(_exact_poly(rng, 2 * j) for j in range(1, 6)))
        u = s.element(tuple(_exact_poly(rng, 3) for _ in range(5)))
        assert norm_element(s, u) == norm_resultant_oracle(s, u)

        cover = DoubleCoverData(random_squarefree(rng))
        h = cover.half_degree
        pairs = tuple((_exact_poly(rng, 2 * j, 3), _exact_poly(rng, 2 * j - h, 3))
                      for j in range(1, 4))
        pushed = galois_pushforward(cover, TwistedSpectralPoly(cover, 3, 2, pairs))
        assert max(a.degree for a in pushed.coeffs) == 12
        assert squarefree_decompose(pushed).factors == ((pushed, 1),)
        square = spectral_pow(pushed, 2)
        assert squarefree_decompose(square).factors == ((pushed, 2),)

    _run(9, "n = 5 resultant oracle and degree-6 Yun", 10.0, body)


def test_10_declared_degree_bound_does_not_set_the_lift():
    """t^2 - x on y^2 = x declared with deg_m = 6400: the lift precision
    comes from the block's own slope, not the declared bound, so the split
    is as quick as at deg_m = 1 and returns the same witness t - y."""
    def body():
        cover = DoubleCoverData(Poly.x())
        pairs = {}
        for deg_m in (1, 6400):
            s = SpectralPoly(2, deg_m, (Poly.zero(), -Poly.x()))
            w = pullback_splits(cover, s)
            assert w is not None and galois_pushforward(cover, w) == s
            pairs[deg_m] = w.pairs
        assert pairs[6400] == pairs[1] == ((Poly.zero(), -Poly.one()),)

    _run(10, "split with a large declared deg_m", 2.0, body)
