"""Output checks for every benchmark op.

Each report is checked twice: by a certificate recomputed from the input with
the benchmark's own arithmetic (gen.py), and by the SHA-256 of its payload
against the digest recorded for that input (digests.json).  Nothing here
imports prymkit.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import prod

import gen


def payload_digest(payload) -> str:
    """First 16 hex digits of the SHA-256 of the canonical payload JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def input_digest(argv: list, data: bytes | None) -> str:
    if data is None:        # endoscopy: the CLI digests "n,g"
        data = f"{argv[2]},{argv[4]}".encode()
    return hashlib.sha256(data).hexdigest()


def check(kind: str, argv: list, doc, data: bytes | None, stdout: str,
          digest: str | None) -> str | None:
    """None when the report is right, else the reason it is wrong."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if report.get("command") != argv[0]:
        return "wrong command in report"
    if report.get("input_digest") != input_digest(argv, data):
        return "wrong input digest"
    payload = report.get("payload")
    try:
        reason = CERTIFICATES[kind](argv, doc, payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        reason = f"malformed payload: {exc!r}"
    if reason is None and digest is not None and payload_digest(payload) != digest:
        reason = "payload digest differs from the recorded one"
    return reason


# -- certificates ----------------------------------------------------------


def _pi0(argv, doc, p):
    n, g = doc["n"], doc["g"]
    full = n ** (2 * g)
    if (p["n"], p["g"], p["order_bound"]) != (n, g, full):
        return "n, g or order_bound does not echo the input"
    if p["pi0_order"] * p["phi_kernel_order"] != full:
        return "pi0_order * phi_kernel_order != n^(2g)"
    fs = p["pi0_invariant_factors"]
    if any(f < 2 for f in fs) or any(b % a for a, b in zip(fs, fs[1:])):
        return "invariant factors are not a divisor chain"
    if prod(fs) != p["pi0_order"]:
        return "invariant factors do not multiply to the order"
    if p["k_order"] != p["pi0_order"]:
        return "|K| differs from the order of its character group"
    return None


def _smallest_prime(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _endoscopy(argv, doc, p):
    n, g = int(argv[2]), int(argv[4])
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    divisors = sorted(set(small + [n // d for d in small]))
    pr = _smallest_prime(n)
    c_n = n * n * (pr - 1) * (g - 1) // pr
    want = {"n": n, "g": g, "c_n": c_n, "bound": 2 * c_n,
            "dims": {str(d): (n * n // d - 1) * (g - 1) for d in divisors}}
    return None if p == want else "endoscopy table differs from the formulas"


def _norm(argv, doc, p):
    if p["resultant_oracle_agrees"] is not True:
        return "determinant and resultant oracle disagree"
    return None


def _factor(argv, doc, p):
    rebuilt = [[Fraction(1)]]
    for block in p["blocks"]:
        if block["poly"]["deg_m"] != doc["deg_m"]:
            return "block has the wrong deg_m"
        rebuilt = gen.tmul(rebuilt, gen.tpow(gen.spectral_from(block["poly"]),
                                             block["multiplicity"]))
    if p["deg_m"] != doc["deg_m"] or rebuilt != gen.spectral_from(doc):
        return "blocks do not rebuild the input"
    return None


def _pushforward(argv, doc, p):
    f, pairs = gen.twisted_from(doc["twisted"])
    if p["direction"] != "pushforward":
        return "wrong direction"
    if gen.spectral_from(p["pushforward"]) != gen.pushforward(f, pairs):
        return "pushforward differs from P^2 - f*Q^2"
    return None


def _split(argv, doc, p):
    if p["direction"] != "split":
        return "wrong direction"
    w = p["witness"]
    if not p["splits"]:
        return None if w is None else "witness given for a rejection"
    f, pairs = gen.twisted_from(w)
    if f != gen.poly_from(doc["cover"]["f"]):
        return "witness lives on another cover"
    if gen.pushforward(f, pairs) != gen.spectral_from(doc["spectral"]):
        return "re-pushforward of the witness differs from the input"
    return None


CERTIFICATES = {
    "pi0": _pi0,
    "endoscopy": _endoscopy,
    "norm": _norm,
    "factor": _factor,
    "pushforward": _pushforward,
    "split-accept": _split,
    "split-reject": _split,
    "stall-norm": _norm,
    "stall-yun": _factor,
}


# -- expected payloads of the stall fixtures -------------------------------
# The library has never finished these, so their digests come from the
# benchmark's own arithmetic instead of a recorded run.


def det(m: list) -> Fraction:
    """Determinant over Q by Gaussian elimination."""
    m = [row[:] for row in m]
    n, out = len(m), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return out


def _norm_at(s: list, u: list, x0: Fraction) -> Fraction:
    """det of multiplication by u(x0, t) on Q[t]/(s(x0, t))."""
    ev = lambda p: sum((c * x0 ** i for i, c in enumerate(p)), Fraction(0))
    s0 = [ev(c) for c in s]
    cur = gen.trim([ev(c) for c in u])
    n = len(s0) - 1
    cols = []
    for _ in range(n):
        cur = gen.pmod(cur, s0)
        cols.append(cur + [Fraction(0)] * (n - len(cur)))
        cur = [Fraction(0)] + cur
    return det([[cols[j][i] for j in range(n)] for i in range(n)])


def _interpolate(xs: list, ys: list) -> list:
    """Newton interpolation over Q, returned in ascending coefficients."""
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = [coef[-1]]
    for i in range(len(xs) - 2, -1, -1):
        out = gen.padd(gen.pmul(out, [-xs[i], Fraction(1)]), [coef[i]])
    return gen.trim(out)


def stall_norm_payload(doc: dict) -> dict:
    """{"norm", "resultant_oracle_agrees"} by evaluation and interpolation.
    deg_x N(u) <= n * (e + (n - 1) * deg_m) for element degree e."""
    s = gen.spectral_from(doc["spectral"])
    u = [gen.poly_from(c) for c in doc["element"]]
    n, deg_m = doc["spectral"]["n"], doc["spectral"]["deg_m"]
    bound = n * (max(len(c) for c in u) - 1 + (n - 1) * deg_m)
    xs = [Fraction(i) for i in range(bound + 3)]
    ys = [_norm_at(s, u, x) for x in xs]
    norm = _interpolate(xs[:bound + 1], ys[:bound + 1])
    ev = lambda p, x: sum((c * x ** i for i, c in enumerate(p)), Fraction(0))
    if any(ev(norm, x) != y for x, y in zip(xs, ys)):
        raise ValueError("norm degree bound too small")
    return {"norm": gen.poly_json(norm), "resultant_oracle_agrees": True}


def stall_yun_payload(doc: dict) -> dict:
    """A squarefree input is its own single block.  Squarefree in t at one
    rational x0 implies squarefree over Q(x)."""
    s = gen.spectral_from(doc)
    for x0 in range(10):
        s0 = gen.trim([sum((c * x0 ** i for i, c in enumerate(p)), Fraction(0))
                       for p in s])
        if gen.is_squarefree(s0):
            return {"deg_m": doc["deg_m"],
                    "blocks": [{"poly": doc, "multiplicity": 1}]}
    raise ValueError("stall fixture is not squarefree at any tried point")


STALL_PAYLOADS = {"stall-norm": stall_norm_payload, "stall-yun": stall_yun_payload}
