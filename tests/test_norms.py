"""Tests for the norm engine: multiplication matrices, determinants and
the multiplicativity/power/component laws."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from prymkit import norms, polynomials
from prymkit.norms import (
    AlgebraElement,
    ParentMismatch,
    SpectralPoly,
    factors_coprime,
    mul_matrix,
    norm_component_law,
    norm_element,
    norm_multiplicativity_check,
    norm_power_law,
    norm_resultant_oracle,
    poly_matrix_det,
    spectral_mul,
    spectral_pow,
)
from prymkit.polynomials import Poly, TPoly, resultant
from prymkit.verify import random_element, random_poly, random_spectral

X = Poly.x()


def one(s: SpectralPoly) -> AlgebraElement:
    """1 in Q[x][t]/(s)."""
    return AlgebraElement(s, (Poly.one(),) + (Poly.zero(),) * (s.n - 1))


def t_of(s: SpectralPoly) -> AlgebraElement:
    """t in Q[x][t]/(s), reduced mod s: -a_1 when n = 1."""
    return s.element_from_tpoly(TPoly((Poly.zero(), Poly.one()), Poly.zero()))


def rational_poly(rng: random.Random, deg: int) -> Poly:
    """A degree-deg Poly whose top coefficient, odd over even, is never an integer."""
    return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
                + [Fraction(2 * rng.randint(-4, 4) + 1, rng.choice((2, 4, 6)))])


def naive_det(m):
    """Cofactor-free Leibniz determinant; independent oracle for tiny sizes."""
    n = len(m)
    total = Poly.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly.one()
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + (term if sign == 1 else -term)
    return total


class TestMulMatrix:
    def test_identity_element(self):
        s = SpectralPoly(3, 1, (Poly.zero(), X, Poly.one()))
        m = mul_matrix(s, one(s))
        for i in range(3):
            for j in range(3):
                assert m[i][j] == (Poly.one() if i == j else Poly.zero())

    def test_t_on_square_root_cover(self):
        cases = [
            (SpectralPoly(2, 1, (Poly.zero(), -X)),   # t^2 - x
             (Poly.zero(), Poly.one()), [[Poly.zero(), X], [Poly.one(), Poly.zero()]]),
            (SpectralPoly(1, 1, (X,)), (-X,), [[-X]]),  # t + x, where t = -x
        ]
        for s, t_coords, matrix in cases:
            assert t_of(s) == AlgebraElement(s, t_coords)
            assert mul_matrix(s, t_of(s)) == matrix

    def test_companion_shape(self):
        a3 = Poly((1, 0, 0, 2))
        s = SpectralPoly(3, 1, (Poly.zero(), Poly.zero(), a3))  # t^3 + a_3
        m = mul_matrix(s, t_of(s))
        assert m[0] == [Poly.zero(), Poly.zero(), -a3]
        assert m[1] == [Poly.one(), Poly.zero(), Poly.zero()]
        assert m[2] == [Poly.zero(), Poly.one(), Poly.zero()]

    def test_reduction_divides_no_coefficient(self, monkeypatch):
        # s_a is monic in t, so reducing u * t^j mod s_a needs no Poly division
        rng = random.Random(4)
        s = SpectralPoly(4, 2, tuple(random_poly(rng, 2 * j) for j in range(1, 5)))
        u = random_element(rng, s)
        calls = []
        orig = Poly.divmod

        def counting(self, other):
            calls.append(1)
            return orig(self, other)

        monkeypatch.setattr(Poly, "divmod", counting)
        m = mul_matrix(s, u)
        assert calls == []
        assert m[0][0] == u.coords[0]

    def test_parent_mismatch(self):
        s1 = SpectralPoly(2, 1, (Poly.zero(), -X))
        s2 = SpectralPoly(2, 1, (Poly.zero(), X))
        with pytest.raises(ParentMismatch):
            mul_matrix(s1, t_of(s2))


class TestDeterminant:
    def test_bareiss_matches_naive(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 3)
            m = [[Poly([rng.randint(-3, 3) for _ in range(2)])
                  for _ in range(n)] for _ in range(n)]
            assert poly_matrix_det(m) == naive_det(m)

    def test_singular_and_empty(self):
        # a zero column, a zero last pivot, and the empty matrix: the
        # ring's own zero and one, never a bare int
        zero_column = [[Poly.zero(), X], [Poly.zero(), Poly.one()]]
        rank_one = [[X, X + 1], [X * X, X * X + X]]
        for m, expected in ((zero_column, Poly.zero()), (rank_one, Poly.zero()),
                            ([], Poly.one())):
            det = poly_matrix_det(m)
            assert type(det) is Poly and det == expected

    def test_companion_determinant_pinned(self):
        # det of multiplication by t on R[t]/(t^n + a_n) is (-1)^n * a_n,
        # frozen against the Leibniz oracle for n = 2, 3, 4
        for n in (2, 3, 4):
            a_n = Poly([1, 2])
            coeffs = tuple(Poly.zero() for _ in range(n - 1)) + (a_n,)
            s = SpectralPoly(n, 2, coeffs)
            m = mul_matrix(s, t_of(s))
            expected = a_n if n % 2 == 0 else -a_n
            assert naive_det(m) == expected
            assert norm_element(s, t_of(s)) == expected


class TestNormLaws:
    def test_scalar_element(self):
        s = SpectralPoly(3, 1, (Poly.zero(), X, Poly.one()))
        lam = Fraction(5, 2)
        u = one(s).scale(lam)
        assert norm_element(s, u) == Poly.constant(lam ** 3)

    def test_pullback_of_base_function(self):
        s = SpectralPoly(3, 1, (Poly.zero(), X, Poly.one()))
        r = Poly((1, -2, 0, 1))
        u = AlgebraElement(s, (r, Poly.zero(), Poly.zero()))
        assert norm_element(s, u) == r ** 3

    def test_multiplicativity_random(self):
        rng = random.Random(3)
        for _ in range(25):
            s = random_spectral(rng)
            u, v = random_element(rng, s), random_element(rng, s)
            assert norm_multiplicativity_check(s, u, v)

    def test_power_law_linear(self):
        p = SpectralPoly(1, 1, (-X,))       # t - x
        sq = spectral_pow(p, 2)
        assert norm_element(sq, t_of(sq)) == X * X
        assert norm_power_law(p, 2, t_of(sq))

    def test_power_law_random(self):
        rng = random.Random(17)
        for _ in range(15):
            p = random_spectral(rng, max_n=2)
            m = rng.randint(1, 3)
            u = random_element(rng, spectral_pow(p, m))
            assert norm_power_law(p, m, u)

    def test_component_law_split_points(self):
        b = SpectralPoly(1, 0, (Poly.constant(-1),))   # t - 1
        c = SpectralPoly(1, 0, (Poly.one(),))          # t + 1
        prod_poly = spectral_mul(b, c)
        assert norm_element(prod_poly, t_of(prod_poly)) == Poly.constant(-1)
        assert norm_component_law(b, c, t_of(prod_poly))

    def test_component_law_mixed_degrees(self):
        rng = random.Random(23)
        b = SpectralPoly(1, 1, (-X,))                    # t - x
        c = SpectralPoly(2, 1, (Poly.zero(), -X))        # t^2 - x
        prod_poly = spectral_mul(b, c)
        for _ in range(10):
            u = random_element(rng, prod_poly)
            assert norm_component_law(b, c, u)

    def test_component_law_rejects_common_factor(self):
        b = SpectralPoly(1, 1, (-X,))
        u = spectral_mul(b, b)
        with pytest.raises(ValueError):
            norm_component_law(b, b, t_of(u))

    def test_resultant_oracle(self):
        rng = random.Random(29)
        for _ in range(25):
            s = random_spectral(rng)
            u = random_element(rng, s)
            assert norm_resultant_oracle(s, u, norm_element(s, u))

    def test_resultant_oracle_with_denominators(self):
        # rational s_a and u: t is scaled by the lcm D of s_a's denominators
        # and u by E and powers of D before the integer determinant
        rng = random.Random(31)
        for n in (1, 2, 3, 4, 5):
            for _ in range(4):
                s = SpectralPoly(n, 1, tuple(rational_poly(rng, j) for j in range(1, n + 1)))
                u = AlgebraElement(s, tuple(rational_poly(rng, 1 if n > 3 else 2)
                                            for _ in range(n)))
                assert norm_resultant_oracle(s, u, norm_element(s, u))

    def test_resultant_oracle_shares_no_code_with_the_main_route(self, monkeypatch):
        # with the Bareiss kernel (under both of its names), the matrix
        # columns, the Kronecker packing and the 2-adic division each made
        # to raise, the oracle still accepts the main route's norm, which no
        # longer runs
        rng = random.Random(37)
        cases = [(s, random_element(rng, s, 3)) for s in (
            SpectralPoly(n, 2, tuple(random_poly(rng, 2 * j) for j in range(1, n + 1)))
            for n in (1, 3, 8))]
        # denominators in s_a and u, which the main route scales by t -> t/D
        s = SpectralPoly(2, 1, (Poly([Fraction(1, 2)]), Poly([0, Fraction(-1, 3)])))
        cases.append((s, AlgebraElement(s, (Poly([Fraction(1, 5)]), Poly([Fraction(2, 3), 1])))))
        want = [norm_element(s, u) for s, u in cases]

        def refuse(*args):
            raise AssertionError("the oracle reached the main route")

        for module, names in ((norms, ["_bareiss", "_columns", "_pack", "_unpack", "_width"]),
                              (polynomials, ["_bareiss", "_pack", "_unpack", "_width",
                                             "_divexact"])):
            for name in names:
                monkeypatch.setattr(module, name, refuse)
        assert all(norm_resultant_oracle(s, u, w) for (s, u), w in zip(cases, want))
        with pytest.raises(AssertionError, match="main route"):
            norm_element(*cases[-1])

    def test_power_of_two_scalar(self):
        # N(2) = 2^n is exactly the permanent bound ||2||_1^n, a power of
        # two: the slot must hold it strictly below 2^(k-1)
        for n in (1, 2, 3, 5):
            s = SpectralPoly(n, 1, tuple(Poly([1] * (j + 1)) for j in range(1, n + 1)))
            assert norm_element(s, one(s).scale(2)) == Poly.constant(2 ** n)
            assert poly_matrix_det([[Poly.constant(2) if i == j else Poly.zero()
                                     for j in range(n)] for i in range(n)]) == 2 ** n


class TestResultantCheck:
    """norm_resultant_oracle decides N = Res_t(s_a, U) at one point 2^k,
    and factors_coprime decides Res_t(s_b, s_c) != 0 at that point."""

    def cases(self):
        """(s_a, u) pairs with integer and with rational coefficients."""
        rng = random.Random(41)
        out = [(s, random_element(rng, s)) for s in (random_spectral(rng) for _ in range(8))]
        for n in (1, 2, 3, 4):
            s = SpectralPoly(n, 1, tuple(rational_poly(rng, j) for j in range(1, n + 1)))
            out.append((s, AlgebraElement(s, tuple(rational_poly(rng, 2)
                                                   for _ in range(n)))))
        return out

    def test_off_by_one_norms_rejected(self):
        for s, u in self.cases():
            norm = norm_element(s, u)
            assert norm_resultant_oracle(s, u, norm)
            top = Poly([0] * max(norm.degree, 0) + [1])
            assert not norm_resultant_oracle(s, u, norm + Poly.one())
            assert not norm_resultant_oracle(s, u, norm + top)

    def test_a_wrong_norm_vanishing_at_a_power_of_two_rejected(self):
        # N + x - 2^j agrees with N at x = 2^j only: the point must sit above
        # N's own coefficients as well as the resultant's
        for s, u in self.cases()[::3]:
            norm = norm_element(s, u)
            for j in range(1, 160):
                assert not norm_resultant_oracle(s, u, norm + X - Poly.constant(2 ** j))

    def test_zero_element(self):
        rng = random.Random(43)
        for s in (random_spectral(rng) for _ in range(5)):
            zero = AlgebraElement(s, (Poly.zero(),) * s.n)
            assert norm_element(s, zero) == Poly.zero()
            assert norm_resultant_oracle(s, zero, Poly.zero())
            assert not norm_resultant_oracle(s, zero, Poly.one())
            assert not norm_resultant_oracle(s, zero, X)

    def test_element_constant_in_t(self):
        s = SpectralPoly(3, 1, (Poly([Fraction(1, 2)]), Poly([0, Fraction(-1, 3)]), Poly.zero()))
        for j in range(1, 80):
            c = (X - Poly.constant(2 ** j)).scale(Fraction(1, 7))
            u = AlgebraElement(s, (c, Poly.zero(), Poly.zero()))
            assert norm_element(s, u) == c ** 3
            assert norm_resultant_oracle(s, u, c ** 3)
            assert not norm_resultant_oracle(s, u, c ** 3 + Poly.one())
            # N = 0 against a nonzero U that vanishes at x = 2^j
            assert not norm_resultant_oracle(s, u, Poly.zero())

    def test_zero_norm_against_a_nonzero_element(self):
        for s, u in self.cases():
            assert norm_resultant_oracle(s, u, Poly.zero()) == norm_element(s, u).is_zero()
        s = SpectralPoly(2, 1, (Poly.zero(), -X))                      # t^2 - x
        for j in range(1, 80):                                          # U = t - 2^j
            u = AlgebraElement(s, (Poly.constant(-2 ** j), Poly.one()))
            assert not norm_resultant_oracle(s, u, Poly.zero())

    def test_factors_coprime_agrees_with_the_resultant(self):
        rng = random.Random(47)
        pairs = [(random_spectral(rng, 3), random_spectral(rng, 3)) for _ in range(30)]
        pairs += [(SpectralPoly(n, 1, tuple(rational_poly(rng, j) for j in range(1, n + 1))),
                   SpectralPoly(m, 1, tuple(rational_poly(rng, j) for j in range(1, m + 1))))
                  for n, m in ((1, 2), (2, 2), (3, 1), (2, 3))]
        # a shared factor b, with and without denominators
        pairs += [(spectral_mul(b, c), spectral_mul(b, d))
                  for (b, c), (d, _) in zip(pairs[::3], pairs[1::3])]
        verdicts = [factors_coprime(b, c) for b, c in pairs]
        assert verdicts == [not resultant(b.as_tpoly(), c.as_tpoly()).is_zero()
                            for b, c in pairs]
        assert verdicts.count(False) >= 12

    def test_factors_coprime_above_every_small_point(self):
        # Res_t(t - x, t - 2^j) = 2^j - x vanishes at x = 2^j alone
        b = SpectralPoly(1, 1, (-X,))
        assert not factors_coprime(b, b)
        for j in range(1, 160):
            assert factors_coprime(b, SpectralPoly(1, 1, (Poly.constant(-2 ** j),)))


class TestQuasiFree:
    """u over p^3 reduced to p^i: its norm on R[t]/(p^i) is the i-th power
    of the reduced norm, by the filtration of the non-reduced algebra."""

    def test_reduced_level(self):
        p = SpectralPoly(1, 2, (-(X * X),))
        u = AlgebraElement(spectral_pow(p, 3), (Poly.one(), Poly.one(), Poly.zero()))  # 1 + t
        assert norm_power_law(p, 1, u.reduce_mod(p))
        assert norm_element(p, u.reduce_mod(p)) == X * X + 1

    def test_intermediate_level_squares(self):
        p = SpectralPoly(1, 2, (-(X * X),))
        u = AlgebraElement(spectral_pow(p, 3), (Poly.one(), Poly.one(), Poly.zero()))
        level = spectral_pow(p, 2)
        assert norm_power_law(p, 2, u.reduce_mod(level))
        assert norm_element(level, u.reduce_mod(level)) == (X * X + 1) ** 2

    def test_top_level_is_full_norm(self):
        rng = random.Random(41)
        p = random_spectral(rng, max_n=2)
        full = spectral_pow(p, 3)
        u = random_element(rng, full)
        assert u.reduce_mod(full) == u
        assert norm_power_law(p, 3, u.reduce_mod(full))

    def test_index_range(self):
        p = SpectralPoly(1, 1, (-X,))
        full = spectral_pow(p, 2)
        with pytest.raises(ValueError, match="multiplicity must be >= 1"):
            norm_power_law(p, 0, t_of(full))
        with pytest.raises(ParentMismatch):
            norm_power_law(p, 3, t_of(full))
