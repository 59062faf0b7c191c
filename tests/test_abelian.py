"""Tests for the integer-matrix and finite-abelian-group engine."""

import random
import signal
import time
from itertools import product
from math import gcd, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

from prymkit import abelian, polynomials
from prymkit.abelian import (
    AmbientMismatch,
    FinAbGroup,
    GroupHom,
    TorsionAmbient,
    dual_group,
    dual_of_inclusion,
    hermite_normal_form,
    intersect,
    left_kernel,
    preimage_mul,
    smith_normal_form,
    structure,
    subgroup_from_generators,
)
from prymkit.polynomials import _bareiss


def _snf_diag(d):
    return [row[i] for i, row in enumerate(d) if i < len(row)]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    """Row-list product, independent of the engine under test."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(rows):
    """The determinant by the one Bareiss kernel, polynomials._bareiss."""
    return _bareiss(rows)[1]


def _unimodular(m):
    return all(len(r) == len(m) for r in m) and abs(_det(m)) == 1


# sympy's regression case for its issue 23410: a column HNF that reads only
# the last min(m, n) rows of its input drops a pivot of this 3 x 2 matrix
SYMPY_HNF_READS_ALL_ROWS = sympy_hnf(sympy.Matrix([[1, 12], [0, 8], [0, 5]])).cols == 2


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form(_identity(2), 2)
        assert d == _identity(2)

    def test_rank_one_projector(self):
        _u, d, _v = smith_normal_form([[1, 0], [0, 0]], 2)
        assert _snf_diag(d) == [1, 0]

    @pytest.mark.parametrize("rows, diag", [
        ([[2, 4], [6, 8]], [2, 4]),
        # diagonal inputs whose divisibility needs repairing
        ([[2, 0], [0, 3]], [1, 6]),
        ([[6, 0, 0], [0, 4, 0], [0, 0, 9]], [1, 6, 36]),
        ([[0, 0], [0, 5]], [5, 0]),
        ([[5, 0, 0], [0, 0, 0], [0, 0, 3]], [1, 15, 0]),
    ], ids=["2x2", "diag(2,3)", "diag(6,4,9)", "diag(0,5)", "diag(5,0,3)"])
    def test_invariant_factors(self, rows, diag):
        u, d, v = smith_normal_form(rows, len(rows[0]))
        assert _snf_diag(d) == diag
        assert _matmul(_matmul(u, rows), v) == d
        assert _unimodular(u) and _unimodular(v)

    @pytest.mark.parametrize("shape", [(2, 3), (0, 3), (3, 0), (0, 0)],
                             ids=["2x3", "0x3", "3x0", "0x0"])
    def test_zero_matrix(self, shape):
        r, c = shape
        zero = [[0] * c for _ in range(r)]
        assert smith_normal_form(zero, c) == (_identity(r), zero, _identity(c))

    def test_det_singular_and_empty(self):
        # a zero column, a zero last pivot, and the empty matrix
        for rows, expected in (([[0, 1], [0, 2]], 0), ([[1, 2], [2, 4]], 0), ([], 1)):
            det = _det(rows)
            assert type(det) is int and det == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 7).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 300, 2 ** 300)),
                 min_size=n, max_size=n), min_size=n, max_size=n)))
    @example([])
    @example([[2 ** 300, 3, 1], [2 ** 301, 6, 2], [5, -7, 2 ** 200]])
    @example([[0, 2, 1], [3, 0, 0], [0, 0, -5]])   # one swap, det 30
    def test_det_2adic_steps_match_floor_division(self, rows):
        # every step 2-adic, then every step by //: the same determinant as
        # sympy's, sign included, through zero pivots, row swaps and negative
        # entries, with the empty matrix (det 1) and a singular one (det 0)
        want = int(sympy.Matrix(rows).det()) if rows else 1
        threshold = polynomials.DIVEXACT_BITS
        try:
            for bits in (0, float("inf")):
                polynomials.DIVEXACT_BITS = bits
                assert _det(rows) == want
        finally:
            polynomials.DIVEXACT_BITS = threshold

    def test_scale_soundness(self):
        # seeded random n x n matrices with entries in +-50; the alarm turns
        # coefficient blow-up into a failure instead of a hang
        def overrun(signum, frame):
            raise TimeoutError("Smith forms exceeded their 3 s budget")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, 3.0)
        try:
            for n in (10, 14, 20):
                rng = random.Random(n)
                a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
                start = time.perf_counter()
                u, d, v = smith_normal_form(a, n)
                elapsed = time.perf_counter() - start
                assert _matmul(_matmul(u, a), v) == d
                assert _unimodular(u) and _unimodular(v)
                diag = _snf_diag(d)
                assert all(b % a_ == 0 for a_, b in zip(diag, diag[1:]))
                # Bareiss shares no code with the Hermite form
                assert prod(diag) == abs(_det(a))
                assert diag[0] == gcd(*(e for r in a for e in r))
            assert elapsed < 0.1, f"20x20 Smith form took {elapsed:.3f} s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
    def test_random_soundness(self, rows, cols, seed):
        rng = random.Random(seed)
        a = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a, cols)
        assert _matmul(_matmul(u, a), v) == d
        assert _unimodular(u) and _unimodular(v)
        diag = _snf_diag(d)
        assert all(e >= 0 for e in diag)
        nz = [e for e in diag if e != 0]
        assert all(b % a_ == 0 for a_, b in zip(nz, nz[1:]))
        # off-diagonal must vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0

    def test_left_kernel_annihilates(self):
        a = [[2, 4], [1, 2], [3, 6]]
        for w in left_kernel(a, 2):
            assert _matmul([w], a) == [[0, 0]]
        assert len(left_kernel(a, 2)) == 2

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
    def test_left_kernel_spans_smith_kernel(self, rows, cols, seed):
        # the Smith rows U[rank:] span {w : w * A = 0}; tall, wide and
        # rank-deficient shapes all occur (A = B * C with an inner rank)
        rng = random.Random(seed)
        inner = rng.randint(0, min(rows, cols))
        b = [[rng.randint(-5, 5) for _ in range(inner)] for _ in range(rows)]
        c = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(inner)]
        a = _matmul(b, c) if inner else [[0] * cols for _ in range(rows)]
        u, d, _v = smith_normal_form(a, cols)
        rank = sum(1 for e in _snf_diag(d) if e != 0)
        assert hermite_normal_form(left_kernel(a, cols)) == hermite_normal_form(u[rank:])


class TestHermiteNormalForm:
    def test_reduction_above_pivot(self):
        basis = hermite_normal_form([[1, 4], [0, 9]])
        assert basis == [[1, 4], [0, 9]]
        basis = hermite_normal_form([[2, 7], [0, 3]])
        assert basis == [[2, 1], [0, 3]]

    def test_row_order_irrelevant(self):
        b1 = hermite_normal_form([[3, 1], [1, 2]])
        b2 = hermite_normal_form([[1, 2], [3, 1]])
        assert b1 == b2

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_against_sympy(self, data):
        # r x c rows, r > c allowed, with zero entries, negative entries,
        # zero rows and integer combinations of earlier rows (rank deficiency)
        c = data.draw(st.integers(1, 6))
        entry = st.one_of(st.just(0), st.integers(-9, 9))
        rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                  min_size=1, max_size=7))
        for a, b in data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                       max_size=2)):
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), [0] * c)
        if not SYMPY_HNF_READS_ALL_ROWS:
            # such a sympy reads only our first min(r, c) columns, so it is
            # compared only where every pivot (of the rational rref) lies there
            if any(j >= min(len(rows), c) for j in sympy.Matrix(rows).rref()[1]):
                return
        # sympy's form is column-style with pivots at the bottom right:
        # reverse each row, transpose, and read its columns back reversed
        h = sympy_hnf(sympy.Matrix([r[::-1] for r in rows]).T)
        expected = [[int(e) for e in reversed(h.col(j))] for j in range(h.cols)]
        expected.sort(key=lambda r: next(j for j, e in enumerate(r) if e))
        assert hermite_normal_form(rows) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_modulus_matches_stacked_form(self, data):
        # the form modulo M is the Hermite form of the rows stacked on M*I
        # with the rows of pivot M (exactly the M*e_c) left out; negative
        # entries, zero rows, no rows, M = 1 and more rows than columns occur
        c = data.draw(st.integers(1, 6))
        M = data.draw(st.integers(1, 60))
        entry = st.one_of(st.just(0), st.integers(-300, 300))
        rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), max_size=9))
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), [0] * c)
        stacked = hermite_normal_form(rows + [[M * (i == j) for j in range(c)]
                                              for i in range(c)])
        expected = [r for r in stacked if next(e for e in r if e) < M]
        # each row left out is M*e_c, so leaving it implicit loses nothing
        assert all(sorted(r) == [0] * (c - 1) + [M] for r in stacked if r not in expected)
        assert hermite_normal_form(rows, M) == expected


class TestSubgroups:
    def test_canonical_duplicates(self):
        amb = TorsionAmbient(1, 4)
        h1 = subgroup_from_generators(amb, [[2, 0]])
        h2 = subgroup_from_generators(amb, [[2, 0], [2, 0]])
        assert h1 == h2
        assert h1.order == 2

    @pytest.mark.parametrize("width", [1, 3])
    def test_generator_of_wrong_length_rejected(self, width):
        amb = TorsionAmbient(1, 4)
        with pytest.raises(ValueError):
            subgroup_from_generators(amb, [[2, 0], [1] * width])

    def test_list_and_tuple_rows_agree(self):
        amb = TorsionAmbient(2, 6)
        rows = [[2, 0, 3, 1], [0, 4, 0, 5]]
        h = subgroup_from_generators(amb, rows)
        assert subgroup_from_generators(amb, tuple(map(tuple, rows))) == h

    def test_full_group_from_coprime_generators(self):
        # requires genus-1 rank 2; realize Z/6 inside (Z/6)^2 on one axis
        amb = TorsionAmbient(1, 6)
        h = subgroup_from_generators(amb, [[2, 0], [3, 0]])
        assert h.order == 6
        assert structure(h).invariant_factors == (6,)

    def test_intersection_with_full_ambient(self):
        amb = TorsionAmbient(1, 4)
        h = subgroup_from_generators(amb, [[2, 1]])
        assert intersect(h, amb.full_subgroup()) == h

    def test_intersection_brute_force(self):
        amb = TorsionAmbient(1, 12)
        h1 = subgroup_from_generators(amb, [[2, 0], [0, 3]])
        h2 = subgroup_from_generators(amb, [[3, 0], [0, 2]])
        got = intersect(h1, h2)
        assert got.elements() == h1.elements() & h2.elements()

    def test_intersection_ambient_mismatch(self):
        h1 = TorsionAmbient(1, 4).full_subgroup()
        h2 = TorsionAmbient(1, 8).full_subgroup()
        with pytest.raises(AmbientMismatch):
            intersect(h1, h2)

    def test_membership(self):
        amb = TorsionAmbient(1, 8)
        h = subgroup_from_generators(amb, [[2, 4]])
        assert h.contains((2, 4))
        assert h.contains((6, 4))   # 3 * (2,4) = (6, 12) = (6, 4)
        assert not h.contains((1, 0))

    def test_is_subgroup_of_all_subgroups_small(self):
        for n in (2, 4, 6):
            amb = TorsionAmbient(1, n)
            vecs = [[a, b] for a in range(n) for b in range(n)]
            subs = {subgroup_from_generators(amb, [v1, v2])
                    for v1 in vecs for v2 in vecs}
            for h1 in subs:
                for h2 in subs:
                    assert h1.is_subgroup_of(h2) == (h1.elements() <= h2.elements())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_generators_reduced_and_generating(self, seed):
        # the derived generators: entries in [0, M), no zero row, and they
        # generate the subgroup they were read from
        rng = random.Random(seed)
        g = rng.randint(1, 2)
        amb = TorsionAmbient(g, rng.randint(1, 12))
        k = amb.rank
        rows = [[rng.randrange(amb.M) for _ in range(k)]
                for _ in range(rng.randint(0, k))]
        for h in (subgroup_from_generators(amb, rows),
                  amb.full_subgroup(), amb.trivial_subgroup()):
            gens = h.generators
            assert all(len(r) == k for r in gens)
            assert all(0 <= e < amb.M for r in gens for e in r)
            assert all(any(r) for r in gens)
            assert subgroup_from_generators(amb, gens) == h
        assert amb.trivial_subgroup().generators == ()

    def test_lattice_basis_once_per_subgroup(self, monkeypatch):
        from prymkit import abelian

        gens = [[2, 4], [3, 0]]
        ref = subgroup_from_generators(TorsionAmbient(1, 12), gens)
        expected = (ref.order, ref.contains((6, 0)), ref.contains((1, 0)),
                    structure(ref))
        h = subgroup_from_generators(TorsionAmbient(1, 12), gens)
        calls = []

        def counting(rows, modulus=None):
            # a subgroup's rows come from a Hermite form modulo M; the one
            # structure() takes of the generators' transpose has no modulus
            if modulus is not None:
                calls.append(1)
            return hermite_normal_form(rows, modulus)

        monkeypatch.setattr(abelian, "hermite_normal_form", counting)
        for _ in range(2):
            assert (h.order, h.contains((6, 0)), h.contains((1, 0)),
                    structure(h)) == expected
        assert len(calls) == 0
        for rows in (h.generators, h.basis):
            assert isinstance(rows, tuple)
            assert all(isinstance(row, tuple) for row in rows)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_lattice_basis_is_hermite_form(self, seed):
        # every constructor stores generators; they must be the rows of pivot
        # below M of the Hermite form of generators + M*I, computed afresh,
        # and the derived basis the whole form
        rng = random.Random(seed)
        g = rng.randint(1, 3)
        M = rng.randint(1, {1: 60, 2: 30, 3: 12}[g])
        amb = TorsionAmbient(g, M)
        k = amb.rank

        def random_subgroup(ambient):
            rows = [[rng.randrange(ambient.M) for _ in range(k)]
                    for _ in range(rng.randint(0, k))]
            return subgroup_from_generators(ambient, rows)

        h1, h2 = random_subgroup(amb), random_subgroup(amb)
        m = rng.choice([m for m in range(1, M + 1) if M % (m * h1.exponent) == 0])
        hom = GroupHom(amb, [[rng.randrange(M) for _ in range(k)] for _ in range(k)])
        results = [h1, intersect(h1, h2), preimage_mul(m, h1), hom.kernel(),
                   h1.embed(TorsionAmbient(g, M * rng.randint(1, 60 // M))),
                   amb.full_subgroup(), amb.trivial_subgroup(),
                   amb.torsion_subgroup(rng.choice([d for d in range(1, M + 1)
                                                    if M % d == 0]))]
        for h in results:
            fresh = hermite_normal_form(
                [*h.generators, *([h.ambient.M * (i == j) for j in range(k)]
                                  for i in range(k))])
            assert h.basis == tuple(map(tuple, fresh))
            assert h.generators == tuple(tuple(r) for r in fresh
                                         if any(e % h.ambient.M for e in r))

    def test_embed_scales_generators(self):
        small = TorsionAmbient(1, 2)
        h = subgroup_from_generators(small, [[1, 0]])
        big = h.embed(TorsionAmbient(1, 6))
        assert big.order == 2
        assert big.contains((3, 0))

    def test_embed_scales_hermite_basis_without_elimination(self, monkeypatch):
        from prymkit import abelian

        rng = random.Random(9)
        cases = []
        for _ in range(60):
            g = rng.randint(1, 3)
            M0 = rng.randint(1, {1: 30, 2: 12, 3: 6}[g])
            k = 2 * g
            rows = [[rng.randrange(M0) for _ in range(k)]
                    for _ in range(rng.randint(0, k))]
            h = subgroup_from_generators(TorsionAmbient(g, M0), rows)
            cases.append((h, TorsionAmbient(g, M0 * rng.randint(1, 6))))
        calls = []

        def counting(rows, modulus=None):
            calls.append(1)
            return hermite_normal_form(rows, modulus)

        monkeypatch.setattr(abelian, "hermite_normal_form", counting)
        embedded = [h.embed(target) for h, target in cases]
        assert calls == []
        monkeypatch.undo()
        for (h, target), big in zip(cases, embedded):
            s = target.M // h.ambient.M
            ref = subgroup_from_generators(target, [[s * e for e in r] for r in h.generators])
            assert big == ref
            assert big.basis == ref.basis

    def test_embed_needs_dividing_modulus(self):
        h = TorsionAmbient(1, 4).full_subgroup()
        with pytest.raises(AmbientMismatch):
            h.embed(TorsionAmbient(1, 6))
        with pytest.raises(AmbientMismatch):
            h.embed(TorsionAmbient(2, 8))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_canonicality_random(self, seed):
        rng = random.Random(seed)
        M = rng.choice([2, 3, 4, 6, 8])
        amb = TorsionAmbient(1, M)
        rows = [[rng.randrange(M), rng.randrange(M)]
                for _ in range(rng.randint(1, 3))]
        h = subgroup_from_generators(amb, rows)
        elems = sorted(h.elements())
        # regenerate from the full element set: same subgroup, same matrix
        h2 = subgroup_from_generators(amb, elems)
        assert h2 == h


class TestExponent:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_against_structure_and_elements(self, seed):
        rng = random.Random(seed)
        g = rng.randint(1, 2)
        M = rng.randint(1, {1: 24, 2: 6}[g])
        amb = TorsionAmbient(g, M)
        kind = rng.choice(["trivial", "full", "random", "random"])
        if kind == "trivial":
            h = amb.trivial_subgroup()
        elif kind == "full":
            h = amb.full_subgroup()
        else:
            rows = [[rng.randrange(M) * rng.choice([1, rng.randint(1, M)])
                     for _ in range(amb.rank)]
                    for _ in range(rng.randint(0, amb.rank + 1))]
            h = subgroup_from_generators(amb, rows)
        elems = h.elements()
        least = next(e for e in range(1, M + 1)
                     if all((e * c) % M == 0 for x in elems for c in x))
        assert h.exponent == structure(h).exponent == least

    def test_examples(self):
        amb = TorsionAmbient(1, 12)
        assert amb.trivial_subgroup().exponent == 1
        assert amb.full_subgroup().exponent == 12
        h = subgroup_from_generators(amb, [[6, 0], [0, 4]])
        assert h.exponent == 6


class TestPreimage:
    def test_identity_multiplier(self):
        amb = TorsionAmbient(1, 4)
        h = subgroup_from_generators(amb, [[2, 0]])
        assert preimage_mul(1, h) == h

    def test_two_torsion_preimage_of_zero(self):
        amb = TorsionAmbient(1, 4)
        pre = preimage_mul(2, amb.trivial_subgroup())
        assert pre.elements() == {(0, 0), (2, 0), (0, 2), (2, 2)}

    def test_cyclic_example(self):
        amb = TorsionAmbient(1, 8)
        h = subgroup_from_generators(amb, [[4, 0]])
        pre = preimage_mul(2, h)
        expected = {v for v in
                    {(a, b) for a in range(8) for b in range(8)}
                    if ((2 * v[0]) % 8, (2 * v[1]) % 8) in h.elements()}
        assert pre.elements() == expected

    def test_modulus_too_small_is_an_error(self):
        amb = TorsionAmbient(1, 4)
        h = amb.full_subgroup()   # exponent 4; preimage under [2] needs M >= 8
        with pytest.raises(ValueError):
            preimage_mul(2, h)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_adjunction_exhaustive(self, seed):
        # at g = 2 the ambient has at most 6^4 = 1296 vectors
        rng = random.Random(seed)
        g = rng.randint(1, 2)
        M = rng.choice([4, 6, 8, 9, 12] if g == 1 else [4, 6])
        amb = TorsionAmbient(g, M)
        rows = [[rng.randrange(M) for _ in range(amb.rank)]
                for _ in range(1 if g == 1 else rng.randint(1, 2))]
        h = subgroup_from_generators(amb, rows)
        legal = [m for m in range(1, M + 1)
                 if M % (m * structure(h).exponent) == 0]
        m = rng.choice(legal)
        pre = preimage_mul(m, h)
        helems = h.elements()
        for x in product(range(M), repeat=amb.rank):
            inh = tuple((m * e) % M for e in x) in helems
            assert pre.contains(x) == inh

    def test_one_hermite_form_modulo_m(self, monkeypatch):
        # [m]^(-1)(H) is the generators over m and the (M/m)*e_c: one
        # Hermite form modulo M of rows of width 2g, no stacked restriction
        from prymkit import abelian

        cases = [(subgroup_from_generators(TorsionAmbient(g, M), gens), m)
                 for g, M, gens, m in [(1, 8, [[4, 0]], 2), (1, 6, [], 6),
                                       (2, 12, [[6, 0, 0, 0], [0, 6, 0, 0]], 2),
                                       (2, 12, [[0, 0, 4, 8]], 4),
                                       (3, 4, [[2, 0, 0, 0, 0, 2]], 2)]]
        calls = []

        def counting(rows, modulus=None):
            calls.append((modulus, {len(r) for r in rows}))
            return hermite_normal_form(rows, modulus)

        monkeypatch.setattr(abelian, "hermite_normal_form", counting)
        for h, m in cases:
            calls.clear()
            pre = preimage_mul(m, h)
            assert calls == [(h.ambient.M, {h.ambient.rank})]
            # [m] maps onto m*(Z/M)^(2g), which holds H, with kernel of order m^(2g)
            assert pre.order == h.order * m ** h.ambient.rank


class TestStructureAndDuals:
    def test_trivial(self):
        amb = TorsionAmbient(1, 4)
        assert structure(amb.trivial_subgroup()).invariant_factors == ()
        assert structure(amb.trivial_subgroup()).order == 1

    def test_full_group(self):
        amb = TorsionAmbient(2, 3)
        assert structure(amb.full_subgroup()).invariant_factors == (3, 3, 3, 3)

    def test_cyclic_of_order_six(self):
        amb = TorsionAmbient(1, 12)
        h = subgroup_from_generators(amb, [[6, 0], [0, 4]])
        # orders 2 and 3 on independent axes combine to a cyclic group
        assert structure(h).invariant_factors == (6,)
        assert len(h.elements()) == 6

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_counting_oracle(self, seed):
        # a group with invariant factors f has prod(gcd(e, f)) elements
        # killed by e; counting them in the element set uses no SNF
        rng = random.Random(seed)
        g = rng.choice([1, 1, 2, 3])
        M = rng.randint(1, {1: 64, 2: 8, 3: 4}[g])
        amb = TorsionAmbient(g, M)
        rows = [[rng.randrange(M) * rng.choice([1, rng.randint(1, M)])
                 for _ in range(amb.rank)]
                for _ in range(rng.randint(0, amb.rank + 1))]
        h = subgroup_from_generators(amb, rows)
        factors = structure(h).invariant_factors
        elems = h.elements()
        for e in (e for e in range(1, M + 1) if M % e == 0):
            killed = sum(1 for x in elems if all((e * c) % M == 0 for c in x))
            assert killed == prod(gcd(e, f) for f in factors)

    def test_dual_group_identity(self):
        assert dual_group(FinAbGroup(())).invariant_factors == ()
        assert dual_group(FinAbGroup((2, 2))).invariant_factors == (2, 2)
        assert dual_group(FinAbGroup((2, 6))).invariant_factors == (2, 6)

    def test_invariant_factor_validation(self):
        with pytest.raises(ValueError):
            FinAbGroup((1, 2))
        with pytest.raises(ValueError):
            FinAbGroup((4, 2))


class TestGroupHomKernel:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_kernel_brute_force(self, seed):
        # an endomorphism of (Z/M)^(2g), its kernel found by enumeration
        rng = random.Random(seed)
        g = rng.randint(1, 2)
        M = rng.randint(2, 12)
        k = 2 * g
        matrix = [[rng.randrange(M) for _ in range(k)] for _ in range(k)]
        amb = TorsionAmbient(g, M)
        hom = GroupHom(amb, matrix)
        zero = (0,) * k
        expected = set()
        for x in product(range(M), repeat=k):
            # x*A mod M by the test's own arithmetic
            image = tuple(sum(x[i] * matrix[i][j] for i in range(k)) % M
                          for j in range(k))
            assert hom.apply(x) == image
            if image == zero:
                expected.add(x)
        ker = hom.kernel()
        assert ker.elements() == expected
        assert ker.order == len(expected)
        assert ker == subgroup_from_generators(amb, sorted(expected))

    @pytest.mark.parametrize("matrix", [[[1, 0], [0]], [[1, 0], [0, 1, 0]], [[1, 0]],
                                        [[1, 0], [0, 1], [1, 1]]],
                             ids=["short row", "long row", "one row", "three rows"])
    def test_shape_mismatch_rejected(self, matrix):
        amb = TorsionAmbient(1, 4)
        with pytest.raises(ValueError, match="shape"):
            GroupHom(amb, matrix)

    def test_matrix_stored_as_tuples(self):
        amb = TorsionAmbient(1, 4)
        hom = GroupHom(amb, [[1, 2], [3, 0]])
        assert hom.matrix == ((1, 2), (3, 0))
        assert hom.apply((1, 1)) == (0, 2)

    def test_operations_use_no_smith_form(self, monkeypatch):
        from prymkit import abelian

        def forbidden(*args):
            raise AssertionError("Smith form called")

        for name in ("smith_normal_form", "left_kernel", "structure"):
            monkeypatch.setattr(abelian, name, forbidden)
        amb = TorsionAmbient(1, 12)
        h1 = subgroup_from_generators(amb, [[2, 0], [0, 3]])
        h2 = subgroup_from_generators(amb, [[3, 0], [0, 2]])
        assert intersect(h1, h2).order == 4
        h3 = subgroup_from_generators(amb, [[6, 0], [0, 4]])
        assert preimage_mul(2, h3).order == 24
        hom = GroupHom(amb, [[3, 0], [0, 6]])
        assert hom.kernel().order == 3 * 6


class TestDualOfInclusion:
    def test_trivial_subgroup(self):
        amb = TorsionAmbient(1, 2)
        hom = dual_of_inclusion(amb.trivial_subgroup(), 2)
        assert hom.kernel().order == 4
        assert hom.image().order == 1

    def test_full_two_torsion_bijection(self):
        amb = TorsionAmbient(1, 2)
        hom = dual_of_inclusion(amb.full_subgroup(), 2)
        assert hom.kernel().order == 1
        assert hom.image().order == 4

    def test_half_subgroup(self):
        amb = TorsionAmbient(1, 2)
        h = subgroup_from_generators(amb, [[1, 0]])
        hom = dual_of_inclusion(h, 2)
        assert hom.kernel().order == 2
        # pairing <x, (1,0)> = x_0 / 2; kernel is spanned by (0,1)
        assert hom.kernel().contains((0, 1))
        assert not hom.kernel().contains((1, 0))

    def test_not_in_n_torsion_rejected(self):
        amb = TorsionAmbient(1, 4)
        with pytest.raises(ValueError):
            dual_of_inclusion(amb.full_subgroup(), 2)

    def test_kernel_order_all_subgroups_small(self):
        for n in (2, 3, 4):
            amb = TorsionAmbient(1, n)
            seen = set()
            vecs = [(a, b) for a in range(n) for b in range(n)]
            for v1 in vecs:
                for v2 in vecs:
                    h = subgroup_from_generators(amb, [v1, v2])
                    if h.generators in seen:
                        continue
                    seen.add(h.generators)
                    hom = dual_of_inclusion(h, n)
                    assert hom.kernel().order * h.order == n ** 2
                    assert hom.image().order == h.order
