"""Tests for spectral-cover descriptors, component groups and endoscopy."""

import random
from math import isqrt

import pytest

from prymkit import spectral, verify
from prymkit.abelian import (
    GroupHom,
    TorsionAmbient,
    structure,
    subgroup_from_generators,
)
from prymkit.spectral import (
    ComponentData,
    DescriptorError,
    InvariantViolation,
    SpectralCoverDescriptor,
    ambient_modulus,
    divisors,
    endoscopic_dim,
    endoscopy_report,
    gamma_in_k,
    is_cn_cover,
    phi_surjection,
    pi0_prym,
    prym_component_group,
    smallest_prime_divisor,
    variant_bound,
)
from prymkit.verify import cn_descriptor, random_descriptor


def zero_character_map(k_sub, n):
    """A wrong stand-in for dual_of_inclusion: the zero map on (Z/n)^(2g),
    whose image is trivial and whose kernel is everything."""
    small = TorsionAmbient(k_sub.ambient.g, n)
    return GroupHom(small, [[0] * small.rank] * small.rank)


def integral_descriptor(n: int, g: int) -> SpectralCoverDescriptor:
    amb = TorsionAmbient(g, n)
    return SpectralCoverDescriptor(
        n, g, (ComponentData(n, 1, amb.trivial_subgroup()),))


class TestDescriptors:
    def test_degree_additivity_enforced(self):
        amb = TorsionAmbient(1, 1)
        with pytest.raises(DescriptorError):
            SpectralCoverDescriptor(
                3, 1, (ComponentData(1, 2, amb.trivial_subgroup()),))

    def test_kernel_must_be_killed_by_degree(self):
        amb = TorsionAmbient(1, 4)
        quarter = subgroup_from_generators(amb, [[1, 0]])
        with pytest.raises(DescriptorError):
            ComponentData(2, 1, quarter)  # order-4 element not killed by 2

    def test_genus_consistency(self):
        a1 = TorsionAmbient(1, 1)
        a2 = TorsionAmbient(2, 1)
        with pytest.raises(DescriptorError):
            SpectralCoverDescriptor(
                2, 1, (ComponentData(1, 1, a1.trivial_subgroup()),
                       ComponentData(1, 1, a2.trivial_subgroup())))


class TestAmbientModulus:
    def test_integral_cover(self):
        assert ambient_modulus(integral_descriptor(4, 1)) == 4

    def test_cn(self):
        assert ambient_modulus(cn_descriptor(5, 1)) == 5

    def test_mixed_components(self):
        a2 = TorsionAmbient(1, 2)
        a3 = TorsionAmbient(1, 3)
        desc = SpectralCoverDescriptor(
            5, 1, (ComponentData(2, 1, a2.trivial_subgroup()),
                   ComponentData(3, 1, a3.trivial_subgroup())))
        assert ambient_modulus(desc) == 30


class TestComponentGroup:
    def test_integral_trivial(self):
        desc = integral_descriptor(3, 1)
        assert prym_component_group(desc).order == 1
        assert pi0_prym(desc).order == 1

    def test_cn_full_torsion(self):
        for n in (2, 3):
            for g in (1, 2):
                desc = cn_descriptor(n, g)
                group = pi0_prym(desc)
                assert group.invariant_factors == (n,) * (2 * g)
                assert group.order == n ** (2 * g)

    def test_order_two_kernel_component(self):
        # degree-2 integral cover whose pullback kernel is one 2-torsion class
        amb = TorsionAmbient(1, 2)
        k = subgroup_from_generators(amb, [[1, 0]])
        desc = SpectralCoverDescriptor(2, 1, (ComponentData(2, 1, k),))
        kk = prym_component_group(desc)
        assert kk.order == 2
        assert pi0_prym(desc).invariant_factors == (2,)

    def test_brute_force_oracle_small(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            desc = random_descriptor(rng, max_n=4, max_g=1)
            M = ambient_modulus(desc)
            if M ** (2 * desc.g) > 4096:
                continue
            checked += 1
            k = prym_component_group(desc)
            brute = _brute_force_k(desc, M)
            assert k.elements() == brute

    def test_trivial_k_structure_runs_no_elimination(self, monkeypatch):
        # K is held as its generator rows; a trivial K has none, and its
        # structure() is read off them without any Hermite form
        from prymkit import abelian

        rng = random.Random(12)
        descs = [random_descriptor(rng, max_n=8, max_g=3) for _ in range(20)]
        for desc in descs:
            assert structure(desc.k).order == desc.k.order
        trivial = [desc.k for desc in descs if desc.k.order == 1]
        assert trivial and all(k.generators == () for k in trivial)

        def forbidden(*args):
            raise AssertionError("Hermite form called")

        monkeypatch.setattr(abelian, "hermite_normal_form", forbidden)
        for k in trivial:
            assert structure(k).invariant_factors == ()

    def test_k_folds_the_preimages(self, monkeypatch):
        # K is the first preimage intersected with the others: one component
        # makes no intersect call, two components make one
        calls = []
        orig = spectral.intersect

        def counting(h1, h2):
            calls.append(1)
            return orig(h1, h2)

        monkeypatch.setattr(spectral, "intersect", counting)
        for desc in (cn_descriptor(4, 1), integral_descriptor(3, 2)):
            assert desc.k.order in (4 ** 2, 1)
        assert calls == []
        amb = TorsionAmbient(1, 2)
        two = SpectralCoverDescriptor(4, 1, (ComponentData(1, 2, amb.trivial_subgroup()),
                                             ComponentData(1, 2, amb.trivial_subgroup())))
        assert two.k.order == 2 ** 2
        assert len(calls) == 1

    def test_phi_surjection_kernel(self):
        amb = TorsionAmbient(1, 2)
        k = subgroup_from_generators(amb, [[1, 0]])
        desc = SpectralCoverDescriptor(2, 1, (ComponentData(2, 1, k),))
        hom = phi_surjection(desc)
        assert hom.kernel().order == 2
        assert hom.image().order == 2

    def test_phi_bijective_for_cn(self):
        desc = cn_descriptor(3, 1)
        hom = phi_surjection(desc)
        assert hom.kernel().order == 1
        assert hom.image().order == 3 ** 2

    def test_phi_kernel_random(self):
        # phi is checked on its image; its kernel, computed on its own,
        # has the order n^(2g) / |K| that the image check stands for
        rng = random.Random(23)
        for _ in range(30):
            desc = random_descriptor(rng, max_n=6, max_g=2)
            hom = phi_surjection(desc)
            assert hom.kernel().order * desc.k.order == desc.n ** (2 * desc.g)

    def test_phi_check_fires(self, monkeypatch):
        monkeypatch.setattr(spectral, "dual_of_inclusion", zero_character_map)
        amb = TorsionAmbient(1, 2)
        k = subgroup_from_generators(amb, [[1, 0]])
        desc = SpectralCoverDescriptor(2, 1, (ComponentData(2, 1, k),))
        assert desc.k.order == 2
        with pytest.raises(InvariantViolation, match="character restriction has the wrong kernel"):
            phi_surjection(desc)


def _brute_force_k(desc, M):
    rank = 2 * desc.g
    vectors = [()]
    for _ in range(rank):
        vectors = [v + (e,) for v in vectors for e in range(M)]
    out = set()
    for v in vectors:
        ok = True
        for comp in desc.components:
            m0 = comp.kernel.ambient.M
            scaled = tuple((comp.multiplicity * e) % M for e in v)
            # membership of scaled in K_i embedded at modulus M
            emb = comp.kernel.embed(TorsionAmbient(desc.g, M))
            if not emb.contains(scaled):
                ok = False
                break
        if ok:
            out.add(v)
    return out


class TestCnCriterion:
    def test_cn_true(self):
        assert is_cn_cover(cn_descriptor(4, 1))

    def test_integral_false(self):
        assert not is_cn_cover(integral_descriptor(4, 1))

    def test_two_component_split_false(self):
        n, g = 4, 1
        amb = TorsionAmbient(g, 2)
        desc = SpectralCoverDescriptor(
            n, g, (ComponentData(1, 2, amb.trivial_subgroup()),
                   ComponentData(1, 2, amb.trivial_subgroup())))
        assert not is_cn_cover(desc)
        assert pi0_prym(desc).order == (n // 2) ** (2 * g)

    def test_unrealizable_maximal_kernel_flagged(self):
        # single component of degree 2 whose kernel is the FULL 2-torsion:
        # |K| attains the bound without the C_n shape; such a kernel cannot
        # come from an actual degree-2 cover and the criterion refuses it
        amb = TorsionAmbient(1, 2)
        desc = SpectralCoverDescriptor(
            2, 1, (ComponentData(2, 1, amb.full_subgroup()),))
        with pytest.raises(InvariantViolation):
            is_cn_cover(desc)


class TestEndoscopyFormulas:
    def test_dimension_plug_ins(self):
        assert endoscopic_dim(2, 1, 2) == 3
        assert endoscopic_dim(2, 2, 2) == 1
        assert endoscopic_dim(5, 1, 3) == 48
        assert endoscopic_dim(6, 3, 2) == 11

    def test_genus_one_degenerates(self):
        for n in range(1, 7):
            for d in range(1, n + 1):
                if n % d == 0:
                    assert endoscopic_dim(n, d, 1) == 0

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            endoscopic_dim(4, 3, 2)

    def test_smallest_prime(self):
        assert smallest_prime_divisor(2) == 2
        assert smallest_prime_divisor(9) == 3
        assert smallest_prime_divisor(35) == 5
        assert smallest_prime_divisor(13) == 13
        # 10^12 - 11 is prime; 963,761,198,400 = 2^6 3^4 5^2 7 11 13 17 19 23
        assert smallest_prime_divisor(999_999_999_989) == 999_999_999_989
        assert smallest_prime_divisor(963_761_198_400) == 2

    def test_variant_bound_plug_ins(self):
        assert variant_bound(2, 2) == (2, 4)
        assert variant_bound(3, 2) == (6, 12)
        assert variant_bound(4, 3) == (16, 32)

    def test_report_table(self):
        rep = endoscopy_report(2, 2)
        assert rep.dims == {1: 3, 2: 1}
        assert (rep.c_n, rep.bound) == (2, 4)
        rep = endoscopy_report(6, 2)
        assert rep.dims == {1: 35, 2: 17, 3: 11, 6: 5}
        assert (rep.c_n, rep.bound) == (18, 36)

    def test_codimension_difference_identity(self):
        for n in range(2, 13):
            for g in range(1, 6):
                c_n, bound = variant_bound(n, g)
                p = smallest_prime_divisor(n)
                assert c_n == endoscopic_dim(n, 1, g) - endoscopic_dim(n, p, g)
                assert bound == 2 * c_n


class TestDivisors:
    def test_brute_force(self):
        for n in range(1, 501):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        # beyond that range, pair each d <= sqrt(n) with n // d
        for n, count in ((999_999_999_989, 2), (963_761_198_400, 6_720)):
            small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
            ds = divisors(n)
            assert ds == sorted(set(small + [n // d for d in small]))
            assert len(ds) == count

    def test_large_n(self):
        # 10^12 = 2^12 * 5^12 has 13 * 13 divisors
        ds = divisors(10 ** 12)
        assert len(ds) == 169
        assert ds == sorted(ds)
        assert all(10 ** 12 % d == 0 for d in ds)


class TestGammaMembership:
    def test_trivial_gamma(self):
        desc = integral_descriptor(2, 1)
        gamma = TorsionAmbient(1, 1).trivial_subgroup()
        assert gamma_in_k(desc, gamma)

    def test_gamma_equals_k(self):
        amb = TorsionAmbient(1, 2)
        k = subgroup_from_generators(amb, [[1, 0]])
        desc = SpectralCoverDescriptor(2, 1, (ComponentData(2, 1, k),))
        assert gamma_in_k(desc, k)

    def test_gamma_outside_trivial_k(self):
        desc = integral_descriptor(2, 1)
        amb = TorsionAmbient(1, 2)
        gamma = subgroup_from_generators(amb, [[1, 0]])
        assert not gamma_in_k(desc, gamma)

    def test_non_cyclic_rejected(self):
        desc = cn_descriptor(2, 1)
        gamma = TorsionAmbient(1, 2).full_subgroup()
        with pytest.raises(ValueError):
            gamma_in_k(desc, gamma)

    def test_anti_monotonicity(self):
        rng = random.Random(5)
        from prymkit.abelian import intersect, structure
        for _ in range(20):
            desc = random_descriptor(rng, max_n=4, max_g=1)
            n, g = desc.n, desc.g
            amb = TorsionAmbient(g, n)
            from prymkit.verify import random_subgroup
            g2 = random_subgroup(rng, amb)
            from prymkit.abelian import structure as _structure
            if not _structure(g2).is_cyclic():
                continue
            # gamma1 = subgroup of gamma2 generated by a doubled generator
            rows = g2.generators
            if not rows:
                continue
            g1 = subgroup_from_generators(amb, [[2 * e for e in rows[0]]])
            if not _structure(g1).is_cyclic():
                continue
            if gamma_in_k(desc, g2):
                assert gamma_in_k(desc, g1)

    def test_verify_property(self, monkeypatch):
        # the last spectral record passes at seeds 0-4, each seed drawing
        # gammas both inside and outside K
        answers = []

        def recording(desc, gamma):
            answers.append(gamma_in_k(desc, gamma))
            return answers[-1]

        monkeypatch.setattr(verify, "gamma_in_k", recording)
        for seed in range(5):
            answers.clear()
            assert verify.suite_spectral(seed)[-1] == {
                "property": "gamma_membership", "passed": True, "detail": ""}
            assert set(answers) == {True, False}

    def test_verify_oracle_scales_v_into_k_ambient(self, monkeypatch):
        # the oracle's M // n matters only when M != n and K != 0; here
        # n = 6, (d, m) = (2, 2), (1, 2) give M = 12 and K the 2-torsion,
        # where <(3, 0)> lies in K only as 6 = 2 * 3
        desc = SpectralCoverDescriptor(6, 1, (
            ComponentData(2, 2, TorsionAmbient(1, 2).trivial_subgroup()),
            ComponentData(1, 2, TorsionAmbient(1, 1).trivial_subgroup())))
        assert desc.k.ambient.M == 12 and desc.k.order == 4
        amb = TorsionAmbient(1, 6)
        assert gamma_in_k(desc, subgroup_from_generators(amb, [[3, 0]]))
        monkeypatch.setattr(verify, "random_descriptor", lambda rng, max_n=6: desc)
        assert verify.suite_spectral(0)[-1]["passed"]
