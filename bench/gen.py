"""Seeded input generators for the benchmark, with their own exact arithmetic.

Nothing here imports prymkit: a change to the library cannot change what the
benchmark feeds it.  Univariate polynomials over Q are lists of Fractions in
ascending order with no trailing zeros; polynomials in t over Q[x] are lists
of such lists, ascending in t.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# -- Q[x] ------------------------------------------------------------------


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pneg(a: list) -> list:
    return [-c for c in a]


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def pmod(a: list, b: list) -> list:
    r = list(a)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        for j, c in enumerate(b):
            r[shift + j] -= f * c
        r.pop()
        trim(r)
    return r


def pgcd_degree(a: list, b: list) -> int:
    while b:
        a, b = b, pmod(a, b)
    return len(a) - 1


def pderiv(a: list) -> list:
    return trim([i * c for i, c in enumerate(a)][1:])


def is_squarefree(p: list) -> bool:
    return len(p) >= 2 and pgcd_degree(p, pderiv(p)) == 0


# -- Q[x][t] ---------------------------------------------------------------


def tadd(a: list, b: list) -> list:
    out = [list(c) for c in a] + [[] for _ in range(len(b) - len(a))]
    for i, c in enumerate(b):
        out[i] = padd(out[i], c)
    while out and not out[-1]:
        out.pop()
    return out


def tmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = padd(out[i + j], pmul(x, y))
    while out and not out[-1]:
        out.pop()
    return out


def tpow(a: list, e: int) -> list:
    out = [[Fraction(1)]]
    for _ in range(e):
        out = tmul(out, a)
    return out


def tscale(a: list, c: list) -> list:
    return [pmul(x, c) for x in a]


def monic_from_coeffs(coeffs: list) -> list:
    """t^n + a_1 t^(n-1) + ... + a_n from (a_1, ..., a_n)."""
    n = len(coeffs)
    return [coeffs[n - 1 - k] for k in range(n)] + [[Fraction(1)]]


def coeffs_from_monic(p: list) -> list:
    n = len(p) - 1
    return [p[n - j] for j in range(1, n + 1)]


def pushforward(f: list, pairs: list) -> list:
    """P^2 - f*Q^2 for the twisted polynomial P + y*Q with coefficient pairs
    (u_j, v_j): P = t^m + sum u_j t^(m-j), Q = sum v_j t^(m-j)."""
    big_p = monic_from_coeffs([u for u, _v in pairs])
    big_q = [pairs[len(pairs) - 1 - k][1] for k in range(len(pairs))]
    minus_f = pneg(f)
    return tadd(tmul(big_p, big_p), tscale(tmul(big_q, big_q), minus_f))


# -- JSON ------------------------------------------------------------------


def q_json(c) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def poly_json(p: list) -> list:
    return [q_json(c) for c in p]


def poly_from(items: list) -> list:
    out = []
    for s in items:
        num, den = s.split("/")
        out.append(Fraction(int(num), int(den)))
    return trim(out)


def spectral_json(deg_m: int, coeffs: list) -> dict:
    return {"n": len(coeffs), "deg_m": deg_m,
            "coeffs": [poly_json(a) for a in coeffs]}


def spectral_from(doc: dict) -> list:
    """Monic t-polynomial of a spectral JSON object."""
    return monic_from_coeffs([poly_from(a) for a in doc["coeffs"]])


def twisted_json(f: list, deg_m: int, pairs: list) -> dict:
    return {"m": len(pairs), "deg_m": deg_m, "cover": {"f": poly_json(f)},
            "pairs": [{"u": poly_json(u), "v": poly_json(v)} for u, v in pairs]}


def twisted_from(doc: dict) -> tuple[list, list]:
    f = poly_from(doc["cover"]["f"])
    pairs = [(poly_from(p["u"]), poly_from(p["v"])) for p in doc["pairs"]]
    return f, pairs


def encode(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


# -- random objects --------------------------------------------------------


def rand_poly(rng: random.Random, max_deg: int, bound: int = 5,
              exact: bool = False) -> list:
    """Random integer polynomial of degree <= max_deg (exactly max_deg when
    exact is set); degree -1 is the zero polynomial."""
    deg = max_deg if exact else rng.randint(-1, max_deg)
    if deg < 0:
        return []
    cs = [Fraction(rng.randint(-bound, bound)) for _ in range(deg + 1)]
    if cs[-1] == 0:
        cs[-1] = Fraction(rng.choice([1, -1, 2, -2]))
    return cs


def rand_spectral_coeffs(rng: random.Random, n: int, deg_m: int,
                         exact: bool = False, bound: int = 5) -> list:
    return [rand_poly(rng, j * deg_m, bound, exact) for j in range(1, n + 1)]


def rand_squarefree(rng: random.Random, max_deg: int) -> list:
    while True:
        p = rand_poly(rng, max_deg)
        if is_squarefree(p):
            return p


def rand_twisted(rng: random.Random, f: list, m: int, deg_m: int,
                 bound: int = 3, exact: bool = False) -> list:
    h = len(f) // 2          # ceil(deg f / 2)
    pairs = []
    for j in range(1, m + 1):
        u = rand_poly(rng, j * deg_m, bound, exact)
        v_deg = j * deg_m - h
        v = rand_poly(rng, v_deg, bound, exact) if v_deg >= 0 else []
        pairs.append((u, v))
    return pairs


# -- one generator per op kind --------------------------------------------
# Each returns (argv without --input, input document or None).


def gen_pi0(rng: random.Random):
    """Descriptor with n <= 8, g <= 3.  Each kernel has fewer than 2g
    generators, so it is a proper subgroup of the d-torsion, as the kernel
    of an actual degree-d cover is."""
    n = rng.randint(2, 8)
    g = rng.randint(1, 3)
    comps = []
    rem = n
    while rem:
        d = rng.randint(1, rem)
        m = rng.randint(1, rem // d)
        rem -= d * m
        ngens = rng.randint(0, 2 * g - 1) if d > 1 else 0
        gens = [[rng.randrange(d) for _ in range(2 * g)] for _ in range(ngens)]
        comps.append({"degree": d, "multiplicity": m, "kernel_modulus": d,
                      "kernel_generators": gens})
    return ["pi0"], {"n": n, "g": g, "components": comps}


def gen_endoscopy(rng: random.Random):
    return ["endoscopy", "--n", str(rng.randint(2, 100_000)),
            "--g", str(rng.randint(1, 3))], None


def gen_norm(rng: random.Random):
    """n in 2..4, deg_m in 1..2, element degree <= 2.  At n = 4 only deg_m = 1
    and element degree <= 1: wider n = 4 inputs send the resultant oracle
    past a second, too close to the per-op cap; the n = 5 stall fixture
    stands for that regime."""
    n = rng.randint(2, 4)
    deg_m = 1 if n == 4 else rng.randint(1, 2)
    elem_deg = 1 if n == 4 else 2
    coeffs = rand_spectral_coeffs(rng, n, deg_m)
    element = [poly_json(rand_poly(rng, elem_deg)) for _ in range(n)]
    return ["norm"], {"spectral": spectral_json(deg_m, coeffs),
                      "element": element}


def gen_factor(rng: random.Random):
    """q1^e * q2 with t-degree <= 5, deg_m = 1."""
    k1 = rng.randint(1, 2)
    e = rng.randint(2, 4) if k1 == 1 else 2
    k2 = rng.randint(1, 5 - k1 * e)
    q1 = monic_from_coeffs(rand_spectral_coeffs(rng, k1, 1))
    q2 = monic_from_coeffs(rand_spectral_coeffs(rng, k2, 1))
    prod = tmul(tpow(q1, e), q2)
    return ["factor"], spectral_json(1, coeffs_from_monic(prod))


def _rand_cover(rng: random.Random) -> list:
    return rand_squarefree(rng, 3)


def gen_pushforward(rng: random.Random):
    f = _rand_cover(rng)
    m, deg_m = rng.randint(1, 3), rng.randint(1, 2)
    return ["galois"], {"cover": {"f": poly_json(f)},
                        "twisted": twisted_json(f, deg_m,
                                                rand_twisted(rng, f, m, deg_m))}


def gen_split_accept(rng: random.Random):
    """Pushforward of a random twisted polynomial: it splits by construction."""
    f = _rand_cover(rng)
    m, deg_m = rng.randint(1, 3), rng.randint(1, 2)
    s = pushforward(f, rand_twisted(rng, f, m, deg_m))
    return ["galois"], {"cover": {"f": poly_json(f)},
                        "spectral": spectral_json(deg_m, coeffs_from_monic(s))}


def gen_split_reject(rng: random.Random):
    """Generic even-degree candidate; a random one is not a norm."""
    f = _rand_cover(rng)
    m, deg_m = rng.randint(1, 3), rng.randint(1, 2)
    coeffs = rand_spectral_coeffs(rng, 2 * m, deg_m)
    return ["galois"], {"cover": {"f": poly_json(f)},
                        "spectral": spectral_json(deg_m, coeffs)}


def gen_stall_norm(rng: random.Random):
    """The n = 5 norm (deg_m = 2, element degree 3): the Q(x) resultant
    oracle runs for minutes."""
    coeffs = rand_spectral_coeffs(rng, 5, 2, exact=True)
    element = [poly_json(rand_poly(rng, 3, exact=True)) for _ in range(5)]
    return ["norm"], {"spectral": spectral_json(2, coeffs), "element": element}


def gen_stall_yun(rng: random.Random):
    """Degree-6 pushforward (m = 3, deg_m = 2, x-degrees up to 12): the
    Q(x) Yun decomposition runs for minutes."""
    f = rand_squarefree(rng, 2)
    s = pushforward(f, rand_twisted(rng, f, 3, 2, exact=True))
    return ["factor"], spectral_json(2, coeffs_from_monic(s))


GENERATORS = {
    "pi0": gen_pi0,
    "endoscopy": gen_endoscopy,
    "norm": gen_norm,
    "factor": gen_factor,
    "pushforward": gen_pushforward,
    "split-accept": gen_split_accept,
    "split-reject": gen_split_reject,
    "stall-norm": gen_stall_norm,
    "stall-yun": gen_stall_yun,
}


def make_input(kind: str, index: int):
    """Input number ``index`` of a kind; a pure function of its arguments."""
    return GENERATORS[kind](random.Random(f"{kind}:{index}"))
