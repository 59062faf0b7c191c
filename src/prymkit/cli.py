"""Batch command-line front door.

Commands read JSON, dispatch to the library and emit deterministic reports
(sorted keys, stable payloads).  Exit codes: 0 success, 1 failed
verification, 2 malformed input or usage, 3 semantic invariant violation,
4 internal error (an exception the library does not expect to raise).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .abelian import AmbientMismatch
from .covers import galois_pushforward, pullback_splits, squarefree_decompose
from .norms import norm_element, norm_resultant_oracle
from .serialize import (
    SchemaError,
    cover_from_json,
    descriptor_from_json,
    element_from_json,
    poly_to_json,
    spectral_from_json,
    spectral_to_json,
    twisted_from_json,
    twisted_to_json,
)
from .spectral import (
    DescriptorError,
    InvariantViolation,
    endoscopy_report,
    is_cn_cover,
    phi_surjection,
    pi0_prym,
    prym_component_group,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_INTERNAL = 4


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_input(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError("$", f"cannot read input file: {exc}") from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    return doc, _digest(raw)


def _report(command: str, digest: str, payload: dict) -> dict:
    return {"command": command, "input_digest": digest,
            "version": __version__, "payload": payload}


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"command: {report['command']}")
        print(f"version: {report['version']}")
        print(f"input_digest: {report['input_digest']}")
        for key in sorted(report["payload"]):
            print(f"{key}: {json.dumps(report['payload'][key], sort_keys=True)}")


def _cmd_pi0(args) -> int:
    doc, digest = _load_input(args.input)
    desc = descriptor_from_json(doc)
    k = prym_component_group(desc)
    group = pi0_prym(desc)
    phi_surjection(desc)
    order, bound = k.order, desc.n ** (2 * desc.g)
    payload = {
        "n": desc.n,
        "g": desc.g,
        "ambient_modulus": k.ambient.M,
        "k_generators": [list(k.generators.row(i))
                         for i in range(k.generators.rows)],
        "k_order": order,
        "pi0_invariant_factors": list(group.invariant_factors),
        "pi0_order": group.order,
        "order_bound": bound,
        # the kernel order phi_surjection has just verified
        "phi_kernel_order": bound // order,
        "is_cn": is_cn_cover(desc),
    }
    _emit(_report("pi0", digest, payload), args.format)
    return EXIT_OK


def _cmd_endoscopy(args) -> int:
    if args.n is None or args.g is None:
        raise SchemaError("$", "endoscopy needs --n and --g")
    if not 2 <= args.n <= 10 ** 12 or args.g < 1:
        # the divisor and primality loops run to sqrt(n)
        raise SchemaError("$", "endoscopy needs 2 <= n <= 10^12 and g >= 1")
    rep = endoscopy_report(args.n, args.g)
    payload = {
        "n": rep.n,
        "g": rep.g,
        "dims": {str(d): v for d, v in sorted(rep.dims.items())},
        "c_n": rep.c_n,
        "bound": rep.bound,
    }
    _emit(_report("endoscopy", _digest(f"{args.n},{args.g}".encode()), payload),
          args.format)
    return EXIT_OK


def _cmd_norm(args) -> int:
    doc, digest = _load_input(args.input)
    if not isinstance(doc, dict) or "spectral" not in doc or "element" not in doc:
        raise SchemaError("$", "norm input needs 'spectral' and 'element' fields")
    s = spectral_from_json(doc["spectral"], "$.spectral")
    u = element_from_json(s, doc["element"], "$.element")
    det = norm_element(s, u)
    oracle = norm_resultant_oracle(s, u)
    payload = {
        "norm": poly_to_json(det),
        "resultant_oracle_agrees": det == oracle,
    }
    _emit(_report("norm", digest, payload), args.format)
    return EXIT_OK


def _cmd_factor(args) -> int:
    doc, digest = _load_input(args.input)
    s = spectral_from_json(doc)
    fac = squarefree_decompose(s)
    payload = {
        "deg_m": fac.deg_m,
        "blocks": [{"poly": spectral_to_json(q), "multiplicity": m}
                   for q, m in fac.factors],
    }
    _emit(_report("factor", digest, payload), args.format)
    return EXIT_OK


def _cmd_galois(args) -> int:
    doc, digest = _load_input(args.input)
    if not isinstance(doc, dict) or "cover" not in doc:
        raise SchemaError("$", "galois input needs a 'cover' field")
    cover = cover_from_json(doc["cover"], "$.cover")
    if "twisted" in doc:
        tw = twisted_from_json(doc["twisted"], "$.twisted")
        pushed = galois_pushforward(cover, tw)
        payload = {"direction": "pushforward",
                   "pushforward": spectral_to_json(pushed)}
    elif "spectral" in doc:
        s = spectral_from_json(doc["spectral"], "$.spectral")
        witness = pullback_splits(cover, s)
        payload = {"direction": "split",
                   "splits": witness is not None,
                   "witness": twisted_to_json(witness) if witness else None}
    else:
        raise SchemaError("$", "galois input needs 'twisted' or 'spectral'")
    _emit(_report("galois", digest, payload), args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("PRYMKIT_SEED", "0"))
    try:
        results = run_suite(args.suite, seed)
    except KeyError as exc:
        raise SchemaError("$", str(exc.args[0])) from None
    all_passed = all(r["passed"] for r in results)
    payload = {"suite": args.suite, "seed": seed,
               "results": results, "all_passed": all_passed}
    _emit(_report("verify", _digest(f"{args.suite},{seed}".encode()), payload),
          args.format)
    return EXIT_OK if all_passed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymkit",
        description="Exact computations for component groups of Prym varieties, "
                    "norm maps on quotient algebras and spectral polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("pi0", help="component group of the Prym variety")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_pi0)

    p = sub.add_parser("endoscopy", help="endoscopic dimension table and bound")
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    common(p)
    p.set_defaults(func=_cmd_endoscopy)

    p = sub.add_parser("norm", help="norm of an algebra element")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("factor", help="squarefree multiplicity profile")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("galois", help="degree-2 pushforward or splitting test")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_galois)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SCHEMA if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DescriptorError, InvariantViolation, AmbientMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
