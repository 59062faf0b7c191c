"""Mutation check: every row of MUTANTS breaks one piece of ``src/`` that
a test is meant to guard, and the named test files must then fail.

Run from anywhere, standard library plus the test dependencies only:

    python tests/mutants.py

For each row the script copies ``src/`` into a temporary directory,
replaces the row's snippet (which must occur exactly once in its file) and
runs ``python -m pytest -x -q <test files>`` from the repository root with
the copy first on ``PYTHONPATH`` and a timeout, two rows at a time.  A
mutant is killed when a test fails, and survives when the tests pass.  The
script exits 1 on any survivor, on any snippet that no longer matches, on a
timeout and on any other pytest outcome (a missing test file is pytest's
usage error), so the table has to follow the code; it exits 0 when every
mutant is killed.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
JOBS = 2

# (name, file under src/prymkit, exact snippet, replacement, test files)
MUTANTS = [
    # -- abelian: subgroup lattices ------------------------------------------
    ("kernel without the Mc*I rows", "abelian.py",
     "_diagonal([self.codomain.M] * self.codomain.rank))",
     "[])",
     ["tests/test_abelian.py"]),
    ("exponent from the first basis entry only", "abelian.py",
     "gcd(self.ambient.M, *(e for r in self.basis for e in r))",
     "gcd(self.ambient.M, self.basis[0][0])",
     ["tests/test_abelian.py"]),
    ("generators not reduced mod M", "abelian.py",
     "reduced = [[e % M for e in r] for r in self.basis]",
     "reduced = [list(r) for r in self.basis]",
     ["tests/test_abelian.py"]),
    ("is_subgroup_of checks only the first basis row", "abelian.py",
     "all(other.contains(row) for row in self.basis)",
     "all(other.contains(row) for row in self.basis[:1])",
     ["tests/test_abelian.py"]),
    ("structure from the Hermite diagonal, no Smith step", "abelian.py",
     "d, _, _ = _smith_alternation([list(r) for r in h.basis], k, [[]] * k, [[]] * k)",
     "d = [list(r) for r in h.basis]",
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
    ("Bareiss without the exact division", "abelian.py",
     "exact_div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)",
     "m[i][j] * m[k][k] - m[i][k] * m[k][j]",
     ["tests/test_abelian.py", "tests/test_norms.py"]),
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
    ("C_n shape without m = n", "spectral.py",
     " and desc.components[0].multiplicity == desc.n\n",
     "\n",
     ["tests/test_spectral.py"]),
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
     "_poly([c * other.denom for c in q[::-1]], den * cb)",
     "_poly(q[::-1], den * cb)",
     ["tests/test_polynomials.py"]),
    ("subresultant without the h update", "polynomials.py",
     "h = g ** delta / h ** (delta - 1)",
     "h = g ** delta",
     ["tests/test_polynomials.py"]),
    ("Yun labels every block multiplicity 1", "polynomials.py",
     "blocks.append((q, i))",
     "blocks.append((q, 1))",
     ["tests/test_polynomials.py"]),
    ("t-division without the monic check", "polynomials.py",
     "        if ld != self.czero.one_like():\n"
     "            raise ValueError(\"t-polynomials divide only by monic divisors\")\n",
     "",
     ["tests/test_polynomials.py"]),
    # -- covers: R[sqrt(d)] arithmetic -----------------------------------------
    ("Surd skips the different-covers check", "covers.py",
     '            raise ValueError("operands live on different double covers")',
     "            pass",
     ["tests/test_covers.py"]),
    ("P and Q swapped in the cover form", "covers.py",
     "        return Surd(TPoly([u for u, _ in reversed(self.pairs)] + [Poly.one()], z),\n"
     "                    TPoly([v for _, v in reversed(self.pairs)], z),",
     "        return Surd(TPoly([v for _, v in reversed(self.pairs)] + [Poly.one()], z),\n"
     "                    TPoly([u for u, _ in reversed(self.pairs)], z),",
     ["tests/test_covers.py"]),
    # -- covers: the Galois splitter ---------------------------------------------
    ("certify without the squarefree test at x0", "covers.py",
     "certified = point is not None and point[2].is_squarefree()",
     "certified = point is not None",
     ["tests/test_covers.py"]),
    ("certify at the second good point", "covers.py",
     "    point = next(_good_points(cover.f, s), None)\n",
     "    points = _good_points(cover.f, s)\n"
     "    point = next(points, None) and next(points, None)\n",
     ["tests/test_covers.py"]),
    ("no Yun fallback", "covers.py",
     "for q, e in [(s, 1)] if certified else yun_squarefree(s):",
     "for q, e in [(s, 1)]:",
     ["tests/test_covers.py"]),
    ("Yun block split at its first good point, squarefree or not", "covers.py",
     "for p in _good_points(cover.f, q) if p[2].is_squarefree()",
     "for p in _good_points(cover.f, q)",
     ["tests/test_covers.py"]),
    ("xgcd without scaling the remainder monic", "covers.py",
     "r1, t1 = r1.monic(), t1.scale(1 / r1.lc)",
     "t1 = t1.scale(1 / r1.lc)",
     ["tests/test_covers.py"]),
    ("x-adic lift drops the 1/2 from P_k", "covers.py",
     "P.append((err.scale(Fraction(1, 2)) + (qk * b).scale(d)) / a)",
     "P.append((err + (qk * b).scale(d)) / a)",
     ["tests/test_covers.py"]),
    ("x-adic lift flips the sign of d*Q_i*Q_(k-i) in err_k", "covers.py",
     "err = err - P[i] * P[k - i] + (Q[i] * Q[k - i]).scale(d)",
     "err = err - P[i] * P[k - i] - (Q[i] * Q[k - i]).scale(d)",
     ["tests/test_covers.py"]),
    ("x-adic lift leaves Q_k unreduced mod A0", "covers.py",
     "qk = (err * v) % a",
     "qk = err * v",
     ["tests/test_covers.py"]),
    ("candidate halves tried in reverse order", "covers.py",
     "for picks in itertools.product(*rest):",
     "for picks in reversed([*itertools.product(*rest)]):",
     ["tests/test_covers.py", "tests/test_cli.py"]),
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
    ("prime chosen without the square test", "covers.py",
     "and e % p and pow(e, p // 2, p) == 1):",
     "and e % p):",
     ["tests/test_covers.py"]),
    ("sqrt(e) not lifted past mod l", "covers.py",
     "        r = (r - (r * r - e) * pow(2 * r, -1, m)) % m\n",
     "",
     ["tests/test_covers.py"]),
    ("bound without its max(c, isqrt|e| + 1) factor", "covers.py",
     "    bound = (2 ** (n + 1) * (math.isqrt(sum(x * x for x in f)) + 1) *\n"
     "             max(c, math.isqrt(abs(e)) + 1))\n",
     "    bound = 2 ** (n + 1) * (math.isqrt(sum(x * x for x in f)) + 1)\n",
     ["tests/test_covers.py"]),
    ("c dropped from A and B", "covers.py",
     "            a = Poly(_mod([c * x for x in _add(g1, g2)], m, sym=True))\n"
     "            b = Poly(_mod([c * r * x for x in _add(g1, g2, -1)], m, sym=True))\n",
     "            a = Poly(_mod(_add(g1, g2), m, sym=True))\n"
     "            b = Poly(_mod([r * x for x in _add(g1, g2, -1)], m, sym=True))\n",
     ["tests/test_covers.py"]),
    ("Zassenhaus pre-test without lc", "covers.py",
     "if g[0] and rest.ints[-1] * rest.ints[0] % g[0]:",
     "if g[0] and rest.ints[0] % g[0]:",
     ["tests/test_covers.py"]),
    ("no exact e*A^2 - B^2 = 4e*c^2*P check", "covers.py",
     "if a * a * e - b * b == p.scale(4 * e * c * c):",
     "if True:",
     ["tests/test_covers.py"]),
    ("even-degree Q-factors kept whole over K", "covers.py",
     "for pick in picks if p.degree % 2 == 0 else ():",
     "for pick in ():",
     ["tests/test_covers.py"]),
    # -- serialize ---------------------------------------------------------------
    ("rational with a zero denominator accepted", "serialize.py",
     '    _require(den != 0, path, "rational has zero denominator")\n',
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


def run_row(row) -> tuple[str, str, float]:
    """(name, outcome, seconds); outcome is killed, SURVIVED, TIMEOUT,
    ERROR or NO MATCH."""
    name, file, snippet, replacement, tests = row
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="prymkit-mutant-") as tmp:
        src = copy_src(tmp)
        if not apply(src, file, snippet, replacement):
            return name, "NO MATCH", time.perf_counter() - t0
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *tests]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env_for(src), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return name, "TIMEOUT", time.perf_counter() - t0
    # pytest exits 1 when a test failed; any other code (collection or
    # usage error) says nothing about the mutant
    outcome = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
    return name, outcome, time.perf_counter() - t0


def imports_copy() -> bool:
    """True if a copy of src/ first on PYTHONPATH is the prymkit tests import."""
    with tempfile.TemporaryDirectory(prefix="prymkit-mutant-") as tmp:
        src = copy_src(tmp)
        out = subprocess.run([sys.executable, "-c", "import prymkit; print(prymkit.__file__)"],
                             cwd=ROOT, env=env_for(src), capture_output=True, text=True)
        return out.stdout.strip().startswith(str(src))


def main() -> int:
    if not imports_copy():
        print("error: the mutated copy of src/ would not be the prymkit imported",
              file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(run_row, MUTANTS))
    for name, outcome, secs in results:
        print(f"{outcome:9} {secs:6.1f} s  {name}")
    killed = sum(outcome == "killed" for _, outcome, _ in results)
    print(f"killed {killed} of {len(results)} in {time.perf_counter() - t0:.1f} s")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
