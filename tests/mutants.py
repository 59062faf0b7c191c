"""Mutation check: every row of MUTANTS breaks one piece of ``src/`` that
a test is meant to guard, and the named test files must then fail.

Run from anywhere, standard library plus the test dependencies only:

    python tests/mutants.py

For each row the script copies ``src/`` into its own directory under one
``prymkit-mutant-*`` temporary directory, replaces the row's snippet
(which must occur exactly once in its file) and runs ``python -m pytest -x
-q <test files>`` from the repository root with the copy first on
``PYTHONPATH`` and a timeout, two rows at a time.  A mutant is killed when
a test fails, and survives when the tests pass.  The script exits 1 on any
survivor, on any snippet that no longer matches, on a timeout and on any
other pytest outcome (a missing test file is pytest's usage error), so the
table has to follow the code; it exits 0 when every mutant is killed.  The
temporary directory goes on every exit: a SIGTERM (a timeout or a
cancelled CI job) or Ctrl-C first kills the running pytest processes.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import functools
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
JOBS = 2

# (name, file under src/prymkit, exact snippet, replacement, test files)
MUTANTS = [
    # -- abelian: subgroup lattices ------------------------------------------
    ("preimage without the (M/m)*e_c rows", "abelian.py",
     " + _diagonal([M // m] * h.ambient.rank)",
     "",
     ["tests/test_abelian.py"]),
    ("preimage generators not divided by m", "abelian.py",
     "[[e // m for e in r] for r in h.generators]",
     "[list(r) for r in h.generators]",
     ["tests/test_abelian.py"]),
    ("exponent from the first generator only", "abelian.py",
     "gcd(self.ambient.M, *(e for r in self.generators for e in r))",
     "gcd(self.ambient.M, *(e for r in self.generators[:1] for e in r))",
     ["tests/test_abelian.py"]),
    ("generators not reduced mod M", "abelian.py",
     "rows = [r for r in ([e % modulus for e in r] for r in rows) if any(r)]",
     "rows = [r for r in rows if any(r)]",
     ["tests/test_abelian.py"]),
    ("is_subgroup_of checks only the first generator", "abelian.py",
     "all(other.contains(row) for row in self.generators)",
     "all(other.contains(row) for row in self.generators[:1])",
     ["tests/test_abelian.py"]),
    ("structure from the Hermite diagonal, no Smith step", "abelian.py",
     "d, _, _ = _smith_alternation(t, r, [[]] * r, [[]] * r)",
     "d = t",
     ["tests/test_abelian.py"]),
    ("invariant factor M // d kept when it is 1", "abelian.py",
     "for i in range(r) if d[i][i] < M)",
     "for i in range(r))",
     ["tests/test_abelian.py"]),
    ("restriction keeps rows with a nonzero left block", "abelian.py",
     "\n                                       if not any(r[:k])])",
     "])",
     ["tests/test_abelian.py"]),
    ("apply without the reduction mod M", "abelian.py",
     "sum(map(operator.mul, vec, col)) % M",
     "sum(map(operator.mul, vec, col))",
     ["tests/test_abelian.py"]),
    ("generators of any length accepted", "abelian.py",
     "if any(len(r) != ambient.rank for r in rows):",
     "if False:",
     ["tests/test_abelian.py"]),
    ("homomorphism matrix of any shape accepted", "abelian.py",
     "if len(m) != k or any(len(r) != k for r in m):",
     "if False:",
     ["tests/test_abelian.py"]),
    # -- abelian: Hermite form ---------------------------------------------------
    ("Hermite form without the reduction above the pivot", "abelian.py",
     "done[i] = [a - q * b for a, b in zip(r, piv)]",
     "pass",
     ["tests/test_abelian.py"]),
    ("Hermite form keeps a negative pivot row", "abelian.py",
     "piv = [-e for e in piv]",
     "pass",
     ["tests/test_abelian.py"]),
    ("reduction above an implicit pivot not taken mod M", "abelian.py",
     "                for r in done:\n                    r[c] %= modulus\n",
     "                pass\n",
     ["tests/test_abelian.py"]),
    ("Hermite form drops a row that vanishes at its column", "abelian.py",
     "(nxt if r[c] else work).append(r)",
     "(nxt if r[c] else []).append(r)",
     ["tests/test_abelian.py"]),
    # -- abelian: Smith form and Bareiss ---------------------------------------
    ("Smith without the divisibility repair", "abelian.py",
     "if d[j] % d[i]), None)",
     "if False), None)",
     ["tests/test_abelian.py"]),
    ("Smith repair not carried into V^T", "abelian.py",
     "        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]\n",
     "",
     ["tests/test_abelian.py"]),
    # -- norms -------------------------------------------------------------------
    ("norm bound with exponent deg U - 1", "norms.py",
     "(1 + size(s_low)) ** deg *",
     "(1 + size(s_low)) ** (deg - 1) *",
     ["tests/test_norms.py"]),
    ("norm without the D^j scaling of s_a", "norms.py",
     "(a, den ** j // a.denom)",
     "(a, den // a.denom)",
     ["tests/test_norms.py"]),
    # -- spectral ----------------------------------------------------------------
    ("prime factors drop the last cofactor", "spectral.py",
     "    if n > 1:\n        yield n\n",
     "",
     ["tests/test_spectral.py"]),
    ("divisors unsorted", "spectral.py",
     "    return sorted(divs)",
     "    return divs",
     ["tests/test_spectral.py"]),
    ("C_n criterion without the |K| cross-check", "spectral.py",
     "maximal = desc.k.order == desc.n ** (2 * desc.g)",
     "maximal = shape",
     ["tests/test_spectral.py"]),
    ("phi not checked on its image", "spectral.py",
     "if hom.image().order != k.order:",
     "if False:",
     ["tests/test_spectral.py", "tests/test_cli.py"]),
    ("C_n shape without m = n", "spectral.py",
     " and desc.components[0].multiplicity == desc.n\n",
     "\n",
     ["tests/test_spectral.py"]),
    ("gamma_in_k tests K inside gamma", "spectral.py",
     "return gamma_emb.is_subgroup_of(k_emb)",
     "return k_emb.is_subgroup_of(gamma_emb)",
     ["tests/test_spectral.py"]),
    # -- verify ------------------------------------------------------------------
    ("gamma oracle looks v up in K unscaled by M // n", "verify.py",
     "tuple((M // n) * e % M for e in v)",
     "tuple(e % M for e in v)",
     ["tests/test_spectral.py"]),
    ("one byte of every verify detail", "verify.py",
     '"detail": detail})',
     '"detail": detail + " "})',
     ["tests/test_corpus.py"]),
    # -- polynomials -------------------------------------------------------------
    ("Poly without the gcd normalisation", "polynomials.py",
     "        if g != 1:\n            ints, den = [c // g for c in ints], den // g\n",
     "",
     ["tests/test_polynomials.py"]),
    ("Poly denominator's sign left negative", "polynomials.py",
     "    if den < 0:\n        ints, den = [-c for c in ints], -den\n",
     "",
     ["tests/test_polynomials.py"]),
    ("pseudo-division quotient not rescaled by the divisor's denominator", "polynomials.py",
     "_poly([c * other.denom for c in q], den * cb)",
     "_poly(q, den * cb)",
     ["tests/test_polynomials.py"]),
    ("pseudo-division scaled by one power of lc too few", "polynomials.py",
     "s = b[-1] ** (self.degree - k + 1)",
     "s = b[-1] ** (self.degree - k)",
     ["tests/test_polynomials.py"]),
    ("_rows scaling every Poly by the first one's denominator", "polynomials.py",
     "[[a * (den // p.denom) for a in p.ints] for p in ps]",
     "[[a * (den // ps[0].denom) for a in p.ints] for p in ps]",
     ["tests/test_polynomials.py"]),
    ("subresultant without the h update", "polynomials.py",
     "h = _quo(_ipow(g, delta), _ipow(h, delta - 1))",
     "h = _ipow(g, delta)",
     ["tests/test_polynomials.py"]),
    ("resultant's content scale with the exponents swapped", "polynomials.py",
     "da ** b.degree * db ** a.degree",
     "da ** a.degree * db ** b.degree",
     ["tests/test_polynomials.py"]),
    ("pseudo-remainder without its power of lc(b)", "polynomials.py",
     "            r = [_mul(x, lb) for x in r]\n",
     "            pass\n",
     ["tests/test_polynomials.py"]),
    ("pseudo-remainder over D_a alone, not D_a * D_b^(deg a - deg b + 1)", "polynomials.py",
     "den = da * db ** (a.degree - b.degree + 1)",
     "den = da",
     ["tests/test_polynomials.py"]),
    ("Yun labels every block multiplicity 1", "polynomials.py",
     "for a in q], i))",
     "for a in q], 1))",
     ["tests/test_polynomials.py"]),
    ("Yun returns its first width uncertified", "polynomials.py",
     "if 1 << (k - 1) > max(bound, top):",
     "if True:",
     ["tests/test_polynomials.py"]),
    ("Yun blocks not scaled back by D^j", "polynomials.py",
     "_poly(row, den ** (len(q) - 1 - j))",
     "_poly(row, 1)",
     ["tests/test_polynomials.py"]),
    # -- polynomials: Kronecker substitution -----------------------------------
    ("unsigned digits in _unpack", "polynomials.py",
     "d = ((v + half) & mask) - half",
     "d = v & mask",
     ["tests/test_norms.py", "tests/test_polynomials.py"]),
    ("slot width for 2^(k-1) >= bound, not >", "polynomials.py",
     "return bound.bit_length() + 1",
     "return (bound - 1).bit_length() + 1",
     ["tests/test_norms.py"]),
    ("constant product drops the constant's denominator", "polynomials.py",
     "return _times(self, b[0], other.denom) if b else _ZERO",
     "return _times(self, b[0], 1) if b else _ZERO",
     ["tests/test_polynomials.py"]),
    ("constant division ignores the divisor's sign", "polynomials.py",
     "return _times(self, other.denom, other.ints[0])",
     "return _times(self, other.denom, abs(other.ints[0]))",
     ["tests/test_polynomials.py"]),
    ("0 - p returns p", "polynomials.py",
     "return other if sign == 1 else -other",
     "return other",
     ["tests/test_polynomials.py"]),
    # -- polynomials: the Bareiss kernel, and its 2-adic exact division ---------
    ("Bareiss without the exact division", "polynomials.py",
     "row[j] = (row[j] * p - c * top[j]) // prev",
     "row[j] = row[j] * p - c * top[j]",
     ["tests/test_abelian.py", "tests/test_norms.py"]),
    ("swapped row not negated", "polynomials.py",
     "m[k], m[i] = [-c for c in m[i]], top",
     "m[k], m[i] = m[i], top",
     ["tests/test_abelian.py"]),
    ("2-adic quotient width B one bit short", "polynomials.py",
     "b = max(top - abs(d).bit_length() + 2, 1)",
     "b = max(top - abs(d).bit_length() + 1, 1)",
     ["tests/test_polynomials.py"]),
    ("2-adic quotient without the 2^s shift", "polynomials.py",
     "((((a >> s) & mask) * inv",
     "(((a & mask) * inv",
     ["tests/test_polynomials.py"]),
    ("2-adic Bareiss step divided by its own pivot", "polynomials.py",
     "for i in others for j in cols], prev)",
     "for i in others for j in cols], p)",
     ["tests/test_abelian.py"]),
    # -- norms: the oracle stands apart from the main route ----------------------
    ("resultant oracle answers by the main route", "norms.py",
     "    coords = u.as_tpoly().coeffs\n",
     "    return norm == norm_element(s_a, u)\n    coords = u.as_tpoly().coeffs\n",
     ["tests/test_norms.py"]),
    ("oracle's bound without N's part", "norms.py",
     "sum(map(abs, norm.ints)) * scale, norm.denom)",
     "0, norm.denom)",
     ["tests/test_norms.py"]),
    ("oracle's bound without the Sylvester permanent", "norms.py",
     "    bound = part + den * size(ra) ** (len(rb) - 1) * size(rb) ** (len(ra) - 1)\n",
     "    bound = part\n",
     ["tests/test_norms.py"]),
    ("oracle's point at 2^(k-2), not above the bound", "norms.py",
     "x = 1 << (bound.bit_length() + 1)",
     "x = 1 << (bound.bit_length() - 1)",
     ["tests/test_norms.py"]),
    ("factors_coprime at x = 2, below the bound", "norms.py",
     "for s in (s_b, s_c)))[1] != 0",
     "for s in (s_b, s_c)), 0, 0)[1] != 0",
     ["tests/test_norms.py"]),
    # -- polynomials: the squarefree certificate and integer lists mod m --------
    ("squarefree certificate taken at a prime dividing the leading numerator",
     "polynomials.py",
     "return bool(f[-1] % p) and len(",
     "return len(",
     ["tests/test_polynomials.py"]),
    ("gcd mod p without its final normalisation", "polynomials.py",
     "    return [c * pow(r0[-1], -1, p) % p for c in r0] if r0 else r0, qs\n",
     "    return r0, qs\n",
     ["tests/test_polynomials.py"]),
    ("no squarefree test over Q once every prime fails", "polynomials.py",
     "or self.gcd(self.derivative()).degree <= 0)",
     "or False)",
     ["tests/test_polynomials.py"]),
    ("gcd over Q not made monic", "polynomials.py",
     "return _poly(g, g[-1]) if g else _ZERO",
     "return _poly(g, 1) if g else _ZERO",
     ["tests/test_polynomials.py"]),
    # -- polynomials: the heuristic gcd over Z -----------------------------------
    ("gcd candidate returned without the division check", "polynomials.py",
     "if not any(ra + rb):",
     "if True:",
     ["tests/test_polynomials.py"]),
    # a candidate with a surplus content never divides, so only the capped
    # widths of TestIgcd end the loop
    ("gcd candidate's primitive part not taken", "polynomials.py",
     "s = gcd(*h) if h[-1] > 0 else -gcd(*h)",
     "s = 1 if h[-1] > 0 else -1",
     ["tests/test_polynomials.py::TestIgcd"]),
    ("gcd point 2^K above min norm + 2, not 2 * min norm + 2", "polynomials.py",
     "k = (2 * min(",
     "k = (min(",
     ["tests/test_polynomials.py"]),
    ("integer division mod m leaves its remainder unreduced", "polynomials.py",
     "    return q, _mod(r[:n], m)\n",
     "    return q, r[:n]\n",
     ["tests/test_polynomials.py"]),
    # -- covers: R[sqrt(d)] arithmetic -----------------------------------------
    ("Surd skips the different-covers check", "covers.py",
     '            raise ValueError("operands live on different double covers")',
     "            pass",
     ["tests/test_covers.py"]),
    ("Surd.norm adds d*b^2", "covers.py",
     "return self.a * self.a - self.d * (self.b * self.b)",
     "return self.a * self.a + self.d * (self.b * self.b)",
     ["tests/test_covers.py"]),
    ("P and Q swapped in the cover form", "covers.py",
     "        return Surd(TPoly([u for u, _ in reversed(self.pairs)] + [Poly.one()], z),\n"
     "                    TPoly([v for _, v in reversed(self.pairs)], z),",
     "        return Surd(TPoly([v for _, v in reversed(self.pairs)] + [Poly.one()], z),\n"
     "                    TPoly([u for u, _ in reversed(self.pairs)], z),",
     ["tests/test_covers.py"]),
    # -- covers: multiplicity profiles -------------------------------------------
    ("squarefree_decompose drops Yun's last block", "covers.py",
     "for q, mult in yun_squarefree(s.as_tpoly())))",
     "for q, mult in yun_squarefree(s.as_tpoly())[:-1]))",
     ["tests/test_covers.py"]),
    # -- covers: the Galois splitter ---------------------------------------------
    ("certify without the squarefree test at x0", "covers.py",
     "certified = point[2].is_squarefree()",
     "certified = True",
     ["tests/test_covers.py"]),
    ("certify at the second good point", "covers.py",
     "    point = next(_good_points(cover.f, s))\n",
     "    points = _good_points(cover.f, s)\n"
     "    point = next(points) and next(points)\n",
     ["tests/test_covers.py"]),
    ("good points sought in a bounded window", "covers.py",
     "for trial in itertools.count():",
     "for trial in range(0, 40 * (q.degree + f.degree + 4)):",
     ["tests/test_covers.py"]),
    ("no Yun fallback: s split whole at its first good point", "covers.py",
     "    for q, e in [(s, 1)] if certified else yun_squarefree(s):\n"
     "        if not certified:\n",
     "    for q, e in [(s, 1)]:\n"
     "        if False:\n",
     ["tests/test_covers.py"]),
    ("Yun block split at its first good point, squarefree or not", "covers.py",
     "for p in _good_points(cover.f, q) if p[2].is_squarefree()",
     "for p in _good_points(cover.f, q)",
     ["tests/test_covers.py"]),
    ("x-adic lift drops the 2 of the operator 2*(a*P_k - F_0*b*Q_k)", "covers.py",
     "e = 2 * D * den",
     "e = D * den",
     ["tests/test_covers.py"]),
    ("x-adic lift flips the sign of F_0*Q_i*Q_(k-i) in the right side", "covers.py",
     "qq, fz[0] * den // L)",
     "qq, -fz[0] * den // L)",
     ["tests/test_covers.py"]),
    ("x-adic lift counts each pair P_i*P_(k-i), i != k - i, once", "covers.py",
     "* (1 if 2 * i == k else 2)",
     "",
     ["tests/test_covers.py"]),
    ("x-adic lift drops the terms F_l*(Q^2)_(k-l), l >= 1", "covers.py",
     "tail = [(fz[l], *sq[k - l]) for l in range(1, min(k + 1, len(fz)))]",
     "tail = []",
     ["tests/test_covers.py"]),
    ("x-adic lift's (Q^2)_k without 2*B0*Q_k", "covers.py",
     "_add([c * (wd // L) for c in qq], _mul(qs[0], qs[k]), 2 * wd // (e0 * es[k]))",
     "[c * (wd // L) for c in qq]",
     ["tests/test_covers.py"]),
    ("adjugate without the division by the previous pivot", "polynomials.py",
     "row[j] = (row[j] * p - c * top[j]) // prev",
     "row[j] = row[j] * p - c * top[j]",
     ["tests/test_covers.py"]),
    ("adjugate without the row swap", "polynomials.py",
     "            m[k], m[i] = [-c for c in m[i]], top\n",
     "",
     ["tests/test_covers.py"]),
    ("Gauss-Jordan determinant read from the last column", "polynomials.py",
     "return m, m[n - 1][n - 1] if m else 1",
     "return m, m[-1][-1] if m else 1",
     ["tests/test_covers.py"]),
    ("Gauss-Jordan skips the rows above the pivot", "polynomials.py",
     "others = [*range(k), *range(k + 1, n)] if jordan else range(k + 1, n)",
     "others = range(k + 1, n)",
     ["tests/test_covers.py"]),
    ("candidate halves tried in reverse order", "covers.py",
     "for picks in itertools.product(*rest):",
     "for picks in reversed([*itertools.product(*rest)]):",
     ["tests/test_covers.py", "tests/test_cli.py"]),
    ("witness not read back from the product of the blocks", "covers.py",
     "if witness.as_surd() != acc:",
     "if False:",
     ["tests/test_covers.py"]),
    ("no further points before the candidate lifts", "covers.py",
     "itertools.islice(further, 3 if len(factors) > 2 else 0)",
     "itertools.islice(further, 0)",
     ["tests/test_covers.py"]),
    ("Taylor shift one pass short", "covers.py",
     "    for i in range(len(c) - 1):\n",
     "    for i in range(len(c) - 2):\n",
     ["tests/test_covers.py"]),
    ("pairs read from the wrong end of acc", "covers.py",
     "for j in reversed(range(m)))",
     "for j in range(m))",
     ["tests/test_covers.py"]),
    ("the lift precision one short", "covers.py",
     "    prec = half * slope + 1\n",
     "    prec = half * slope\n",
     ["tests/test_covers.py"]),
    ("odd multiplicity of an unsplit block not rejected", "covers.py",
     "            if e % 2 != 0:\n                return None\n",
     "",
     ["tests/test_covers.py"]),
    ("zero v_j held to its degree bound", "covers.py",
     "if v and v.degree > j * self.deg_m - h:",
     "if v.degree > j * self.deg_m - h:",
     ["tests/test_covers.py"]),
    # -- covers: factoring over Q and over Q(sqrt(d)) ---------------------------
    ("no bad prime allowed before the squarefree one", "covers.py",
     "    bad = 2 * len(f) * (len(f) * max(map(abs, f))).bit_length()\n",
     "    bad = 0\n",
     ["tests/test_covers.py"]),
    ("recombination only over single factors", "covers.py",
     "        else:\n            k += 1\n",
     "        else:\n            break\n",
     ["tests/test_covers.py"]),
    ("the lift one squaring short", "covers.py",
     "    while m <= bound:\n",
     "    while m * m <= bound:\n",
     ["tests/test_covers.py"]),
    ("Hensel step without the s, t update", "covers.py",
     "        s, t = _mod(_add(s, r, -1), q), _mod(_add(t, _add(_mul(t, b), _mul(c, g)), -1), q)\n",
     "",
     ["tests/test_covers.py"]),
    ("Hensel lift stops one step early", "covers.py",
     "        if q >= m:\n",
     "        if q * q >= m:\n",
     ["tests/test_covers.py"]),
    ("prime chosen without the square test", "covers.py",
     "and e % p and pow(e, p // 2, p) == 1):",
     "and e % p):",
     ["tests/test_covers.py"]),
    ("sqrt(e) not lifted past mod l", "covers.py",
     "    r = _newton_root([-e, 0, 1], r, p, m)\n",
     "",
     ["tests/test_covers.py"]),
    ("Newton stops one modulus early", "covers.py",
     "    q = p\n    while q < m:\n",
     "    q = p\n    while q * q < m:\n",
     ["tests/test_covers.py"]),
    ("Newton step with f' replaced by 1", "covers.py",
     "x = (x - v * pow(d, -1, q)) % q",
     "x = (x - v) % q",
     ["tests/test_covers.py"]),
    ("one root left out of the cofactor division", "covers.py",
     "_prod(lin.values(), m)",
     "_prod(list(lin.values())[1:], m)",
     ["tests/test_covers.py"]),
    ("Hensel cofactors s, t not divided by the last remainder", "covers.py",
     "    u = pow(r[0], -1, p)\n",
     "    u = 1\n",
     ["tests/test_covers.py"]),
    ("bound without its max(c, isqrt|e| + 1) factor", "covers.py",
     "    bound = (2 ** (n + 1) * (math.isqrt(sum(x * x for x in f)) + 1) *\n"
     "             max(c, math.isqrt(abs(e)) + 1))\n",
     "    bound = 2 ** (n + 1) * (math.isqrt(sum(x * x for x in f)) + 1)\n",
     ["tests/test_covers.py"]),
    ("c dropped from A and B", "covers.py",
     "            a = _poly(_mod([c * x for x in _add(g1, g2)], m, sym=True), 1)\n"
     "            b = _poly(_mod([c * r * x for x in _add(g1, g2, -1)], m, sym=True), 1)\n",
     "            a = _poly(_mod(_add(g1, g2), m, sym=True), 1)\n"
     "            b = _poly(_mod([r * x for x in _add(g1, g2, -1)], m, sym=True), 1)\n",
     ["tests/test_covers.py"]),
    ("Zassenhaus pre-test without lc", "covers.py",
     "if g[0] and rest[-1] * rest[0] % g[0]:",
     "if g[0] and rest[0] % g[0]:",
     ["tests/test_covers.py"]),
    ("Zassenhaus trial accepted on its top remainder entry alone", "covers.py",
     "if not any(rem):",
     "if not rem[-1]:",
     ["tests/test_covers.py"]),
    ("no exact e*A^2 - B^2 = 4e*c^2*P check", "covers.py",
     "if a * a * e - b * b == p.scale(4 * e * c * c):",
     "if True:",
     ["tests/test_covers.py"]),
    ("even-degree Q-factors kept whole over K", "covers.py",
     "for pick in picks if p.degree % 2 == 0 else ():",
     "for pick in ():",
     ["tests/test_covers.py"]),
    # -- cli: the argv fast path and the JSON writer ---------------------------
    ("fast path takes a value starting with '-'", "cli.py",
     'if option is None or value.startswith("-"):',
     "if option is None:",
     ["tests/test_cli.py"]),
    ("fast path takes argv missing a required option", "cli.py",
     "if len(set(flags)) < len(flags) or not required.issubset(flags):",
     "if len(set(flags)) < len(flags):",
     ["tests/test_cli.py"]),
    ("fast path takes any --format value", "cli.py",
     "if choices is not None and value not in choices:",
     "if False:",
     ["tests/test_cli.py"]),
    ("JSON keys left unsorted", "cli.py",
     "for k in sorted(value)]",
     "for k in value]",
     ["tests/test_cli.py"]),
    ("empty dict written as {\\n}", "cli.py",
     'return "{}"',
     'return "{\\n}"',
     ["tests/test_cli.py"]),
    ("one byte of a help line", "cli.py",
     '("pi0", "component group of the Prym variety", ())',
     '("pi0", "component group of the Prym variety.", ())',
     ["tests/test_corpus.py", "tests/test_cli.py"]),
    ("one byte of a table row", "cli.py",
     '[f"{key}: {json.dumps(',
     '[f"{key}:\\t{json.dumps(',
     ["tests/test_corpus.py"]),
    ("tuple written compact", "cli.py",
     "    if kind is list or kind is tuple:\n",
     "    if kind is tuple:\n        return json.dumps(value)\n    if kind is list:\n",
     ["tests/test_cli.py"]),
    # -- import graph: each command loads only the modules it runs -----------
    ("cli imports verify at top", "cli.py",
     "from . import __version__\n",
     "from . import __version__, verify\n",
     ["tests/test_cli.py"]),
    ("norms imports abelian at top", "norms.py",
     "from .polynomials import (\n",
     "from . import abelian\nfrom .polynomials import (\n",
     ["tests/test_cli.py"]),
    ("one export mapped to the wrong module", "__init__.py",
     'spectral_pow"),\n    ("polynomials", "Poly RatFunc TPoly resultant ',
     'spectral_pow resultant"),\n    ("polynomials", "Poly RatFunc TPoly ',
     ["tests/test_cli.py"]),
    # -- serialize ---------------------------------------------------------------
    ("a polynomial written under the interpreter's digit limit", "serialize.py",
     "        with any_digits():\n            return poly_to_json(p)\n",
     "        raise\n",
     ["tests/test_cli.py"]),
    ("a report written under the interpreter's digit limit", "cli.py",
     "        with any_digits():\n            text = _text(report, fmt)\n",
     "        raise\n",
     ["tests/test_cli.py"]),
    ("the digit limit left lifted", "serialize.py",
     "        set_limit(limit)\n",
     "        pass\n",
     ["tests/test_cli.py"]),
    ("rational with a zero denominator accepted", "serialize.py",
     "    if not den:\n"
     '        raise SchemaError(path, "rational has zero denominator")\n',
     "",
     ["tests/test_cli.py"]),
    ("polynomial read over the largest denominator, not the lcm", "serialize.py",
     "for m in (lcm(*dens[i:j]),)]",
     "for m in (max(dens[i:j]),)]",
     ["tests/test_cli.py"]),
    ("one-pass reader skips the rescale on lcm 1, so '3/-1' reads as 3", "serialize.py",
     "if dens.count(1) == count:",
     "if lcm(*dens) == 1:",
     ["tests/test_cli.py"]),
    ("one-pass reader without the '/' count: '1/2,3/4' is two entries", "serialize.py",
     "if count != sum(map(len, rows)) or count and not _FIELD.fullmatch(text):",
     "if count and not _FIELD.fullmatch(text):",
     ["tests/test_cli.py"]),
    ("one-pass reader lets a zero denominator through", "serialize.py",
     "    if 0 in dens:\n        return refuse()\n",
     "",
     ["tests/test_cli.py"]),
    ("one-pass reader raises the digit limit's ValueError itself", "serialize.py",
     "    try:\n        ints = list(map(int, text.replace(\"/\", \",\").split(\",\"))) if count else []\n"
     "    except ValueError:\n        return refuse()\n",
     "    ints = list(map(int, text.replace(\"/\", \",\").split(\",\"))) if count else []\n",
     ["tests/test_cli.py"]),
    ("one schema-error path", "serialize.py",
     '_require(modulus >= 1, f"{cp}.kernel_modulus", "modulus must be >= 1")',
     '_require(modulus >= 1, cp, "modulus must be >= 1")',
     ["tests/test_corpus.py"]),
    ("a bad entry reported at its list's path", "serialize.py",
     'load(item, f"{path}[{i}]")',
     "load(item, path)",
     ["tests/test_cli.py"]),
    ("a bad entry's error raised without its own path", "serialize.py",
     '        for i, item in enumerate(items):\n            load(item, f"{path}[{i}]")\n',
     "",
     ["tests/test_cli.py"]),
]


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def env_for(src: Path) -> dict:
    """The environment with src first on PYTHONPATH and no bytecode written."""
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(path))


def apply(src: Path, file: str, snippet: str, replacement: str) -> bool:
    """Replace the snippet in src/prymkit/<file>; False unless it occurs
    exactly once."""
    path = src / "prymkit" / file
    text = path.read_text()
    if text.count(snippet) != 1:
        return False
    path.write_text(text.replace(snippet, replacement))
    return True


class Children:
    """The pytest processes running now.  Once stopped, every one of them is
    killed and none is started again, so a stopped run ends within moments."""

    def __init__(self):
        self.lock, self.procs, self.stopped = threading.Lock(), set(), False

    def run(self, cmd: list, env: dict, timeout: float) -> int:
        """Exit code of cmd, run from the repository root; TimeoutExpired
        after timeout seconds, the process killed."""
        with self.lock:
            if self.stopped:
                raise RuntimeError("mutation run stopped")
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            self.procs.add(proc)
        try:
            return proc.wait(timeout)
        finally:
            proc.kill()
            proc.wait()
            with self.lock:
                self.procs.discard(proc)

    def stop(self):
        with self.lock:
            self.stopped = True
            for proc in self.procs:
                proc.kill()


def run_row(children: Children, parent: str, row) -> tuple[str, str, float]:
    """(name, outcome, seconds); outcome is killed, SURVIVED, TIMEOUT,
    ERROR or NO MATCH.  The copy of src/ is made under parent."""
    name, file, snippet, replacement, tests = row
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=parent) as tmp:
        src = copy_src(tmp)
        if not apply(src, file, snippet, replacement):
            return name, "NO MATCH", time.perf_counter() - t0
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *tests]
        try:
            code = children.run(cmd, env_for(src), TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return name, "TIMEOUT", time.perf_counter() - t0
    # pytest exits 1 when a test failed; any other code (collection or
    # usage error) says nothing about the mutant
    outcome = {0: "SURVIVED", 1: "killed"}.get(code, "ERROR")
    return name, outcome, time.perf_counter() - t0


def imports_copy(parent: str) -> bool:
    """True if a copy of src/ first on PYTHONPATH is the prymkit tests import."""
    with tempfile.TemporaryDirectory(dir=parent) as tmp:
        src = copy_src(tmp)
        out = subprocess.run([sys.executable, "-c", "import prymkit; print(prymkit.__file__)"],
                             cwd=ROOT, env=env_for(src), capture_output=True, text=True)
        return out.stdout.strip().startswith(str(src))


def _terminate(signum, frame):
    # timeout(1) signals both the process and its group, so a second SIGTERM
    # may follow; ignored, it cannot cut short the cleanup the first began
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def main() -> int:
    """Every copy lives under one prymkit-mutant-* directory, removed on any
    exit: a normal one, an exception, Ctrl-C or SIGTERM (a timeout or a
    cancelled CI job), which first kills the running pytest processes."""
    signal.signal(signal.SIGTERM, _terminate)
    parent = tempfile.mkdtemp(prefix="prymkit-mutant-")
    children, pool = Children(), ThreadPoolExecutor(max_workers=JOBS)
    try:
        if not imports_copy(parent):
            print("error: the mutated copy of src/ would not be the prymkit imported",
                  file=sys.stderr)
            return 1
        t0 = time.perf_counter()
        results = list(pool.map(functools.partial(run_row, children, parent), MUTANTS))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        children.stop()
        pool.shutdown(wait=True)
        shutil.rmtree(parent, ignore_errors=True)
    for name, outcome, secs in results:
        print(f"{outcome:9} {secs:6.1f} s  {name}")
    killed = sum(outcome == "killed" for _, outcome, _ in results)
    print(f"killed {killed} of {len(results)} in {time.perf_counter() - t0:.1f} s")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
