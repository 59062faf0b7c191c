"""Batch command-line front door.

Each command reads its input, dispatches to the library and returns
``(input_digest, payload)``.  ``main()`` alone wraps that in the report,
emits it (sorted keys, stable payloads) and picks the exit code: 0 success,
1 a ``verify`` payload whose ``all_passed`` is false, 2 malformed input or
usage, 3 semantic invariant violation, 4 internal error (an exception the
library does not expect to raise).  A well-formed argv (the command, then
each of its options once as ``--flag value``) becomes the namespace
directly; argparse is imported and the parser built, on the first call that
needs it and then reused, only for help and for argv the fast path
declines, so it alone words every help, usage and error message.  Each
command imports the library modules it runs when it is first called, so a
fresh process loads no module its command does not use.  ``main(argv)`` may
be called repeatedly in one process.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .serialize import (
    SchemaError,
    any_digits,
    cover_from_json,
    descriptor_from_json,
    element_from_json,
    poly_to_json,
    spectral_from_json,
    spectral_to_json,
    twisted_from_json,
    twisted_to_json,
)

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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    return doc, _digest(raw)


def _report(command: str, digest: str, payload: dict) -> dict:
    return {"command": command, "input_digest": digest,
            "version": __version__, "payload": payload}


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value nested at
    ``indent``, written directly: the C encoder takes no indent, and the
    pure-Python one costs a generator per container.  Dicts with str keys,
    lists, tuples, strs, ints, bools and None are written here; any other
    value is handed to json.dumps, whose newlines are then indented."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}"
                 for k in sorted(value)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report)
    return "\n".join([f"command: {report['command']}", f"version: {report['version']}",
                      f"input_digest: {report['input_digest']}"]
                     + [f"{key}: {json.dumps(report['payload'][key], sort_keys=True)}"
                        for key in sorted(report["payload"])])


def _emit(report: dict, fmt: str):
    """Print the report, written whole before any of it is printed."""
    try:
        text = _text(report, fmt)
    except ValueError:      # an integer past the interpreter's digit limit
        with any_digits():
            text = _text(report, fmt)
    print(text)


def _cmd_pi0(args) -> tuple[str, dict]:
    from . import spectral

    doc, digest = _load_input(args.input)
    desc = descriptor_from_json(doc)
    k = spectral.prym_component_group(desc)
    group = spectral.pi0_prym(desc)
    spectral.phi_surjection(desc)
    order, bound = k.order, desc.n ** (2 * desc.g)
    return digest, {
        "n": desc.n,
        "g": desc.g,
        "ambient_modulus": k.ambient.M,
        "k_generators": k.generators,
        "k_order": order,
        "pi0_invariant_factors": list(group.invariant_factors),
        "pi0_order": group.order,
        "order_bound": bound,
        # the kernel order phi_surjection has just verified
        "phi_kernel_order": bound // order,
        "is_cn": spectral.is_cn_cover(desc),
    }


def _cmd_endoscopy(args) -> tuple[str, dict]:
    if args.n is None or args.g is None:
        raise SchemaError("$", "endoscopy needs --n and --g")
    if not 2 <= args.n <= 10 ** 12 or args.g < 1:
        # the one trial-division pass that factors n runs to sqrt(n)
        raise SchemaError("$", "endoscopy needs 2 <= n <= 10^12 and g >= 1")
    from . import spectral

    rep = spectral.endoscopy_report(args.n, args.g)
    return _digest(f"{args.n},{args.g}".encode()), {
        "n": rep.n,
        "g": rep.g,
        "dims": {str(d): v for d, v in sorted(rep.dims.items())},
        "c_n": rep.c_n,
        "bound": rep.bound,
    }


def _cmd_norm(args) -> tuple[str, dict]:
    from . import norms

    doc, digest = _load_input(args.input)
    if not isinstance(doc, dict) or "spectral" not in doc or "element" not in doc:
        raise SchemaError("$", "norm input needs 'spectral' and 'element' fields")
    s = spectral_from_json(doc["spectral"], "$.spectral")
    u = element_from_json(s, doc["element"], "$.element")
    det = norms.norm_element(s, u)
    return digest, {
        "norm": poly_to_json(det),
        "resultant_oracle_agrees": norms.norm_resultant_oracle(s, u, det),
    }


def _cmd_factor(args) -> tuple[str, dict]:
    from . import covers

    doc, digest = _load_input(args.input)
    s = spectral_from_json(doc)
    fac = covers.squarefree_decompose(s)
    return digest, {
        "deg_m": fac.deg_m,
        "blocks": [{"poly": spectral_to_json(q), "multiplicity": m}
                   for q, m in fac.factors],
    }


def _cmd_galois(args) -> tuple[str, dict]:
    from . import covers

    doc, digest = _load_input(args.input)
    if not isinstance(doc, dict) or "cover" not in doc:
        raise SchemaError("$", "galois input needs a 'cover' field")
    cover = cover_from_json(doc["cover"], "$.cover")
    if "twisted" in doc:
        tw = twisted_from_json(doc["twisted"], "$.twisted", cover)
        pushed = covers.galois_pushforward(cover, tw)
        return digest, {"direction": "pushforward",
                        "pushforward": spectral_to_json(pushed)}
    if "spectral" in doc:
        s = spectral_from_json(doc["spectral"], "$.spectral")
        witness = covers.pullback_splits(cover, s)
        return digest, {"direction": "split",
                        "splits": witness is not None,
                        "witness": twisted_to_json(witness) if witness else None}
    raise SchemaError("$", "galois input needs 'twisted' or 'spectral'")


def _cmd_verify(args) -> tuple[str, dict]:
    from . import verify

    seed = args.seed
    if seed is None:
        raw = os.environ.get("PRYMKIT_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise SchemaError("$", f"PRYMKIT_SEED is not an integer: {raw!r}") from None
    if args.suite not in verify.SUITES:
        raise SchemaError(
            "$", f"unknown suite {args.suite!r}; available: {sorted(verify.SUITES)}")
    results = verify.run_suite(args.suite, seed)
    return _digest(f"{args.suite},{seed}".encode()), {
        "suite": args.suite, "seed": seed, "results": results,
        "all_passed": all(r["passed"] for r in results)}


# name, help text, options besides --format (a command listing none takes --input)
_INPUT = (("--input", {"required": True, "help": "input JSON file"}),)
_FORMAT = ("--format", {"choices": ["json", "table"], "default": "json"})
_COMMANDS = (
    ("pi0", "component group of the Prym variety", ()),
    ("endoscopy", "endoscopic dimension table and bound",
     (("--n", {"type": int}), ("--g", {"type": int}))),
    ("norm", "norm of an algebra element", ()),
    ("factor", "squarefree multiplicity profile", ()),
    ("galois", "degree-2 pushforward or splitting test", ()),
    ("verify", "run a seeded verification suite",
     (("--suite", {"required": True}), ("--seed", {"type": int, "default": None}))),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="prymkit",
        description="Exact computations for component groups of Prym varieties, "
                    "norm maps on quotient algebras and spectral polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*(options or _INPUT), _FORMAT):
            p.add_argument(flag, **kwargs)
    return parser


@functools.cache
def _fast_table() -> dict:
    """command -> ({flag: (dest, type, choices)}, defaults, required flags),
    read from the same declarations as build_parser."""
    table = {}
    for name, _help, options in _COMMANDS:
        declared = (*(options or _INPUT), _FORMAT)
        table[name] = (
            {flag: (flag[2:], kw.get("type"), kw.get("choices")) for flag, kw in declared},
            {"command": name, **{flag[2:]: kw.get("default") for flag, kw in declared}},
            {flag for flag, kw in declared if kw.get("required")})
    return table


def _fast_args(argv) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) would return, built
    without argparse; None unless argv is a list or tuple of strs
    ``[command, flag, value, ...]`` in which each flag is one the command
    declares, given once with a value not starting with '-', every choice
    and int() conversion holds and every required option is present."""
    if not isinstance(argv, (list, tuple)) or not all(type(a) is str for a in argv):
        return None
    spec = _fast_table().get(argv[0]) if len(argv) % 2 else None
    if spec is None:
        return None
    options, defaults, required = spec
    values = dict(defaults)
    flags = argv[1::2]
    if len(set(flags)) < len(flags) or not required.issubset(flags):
        return None
    for flag, value in zip(flags, argv[2::2]):
        option = options.get(flag)
        if option is None or value.startswith("-"):
            return None
        dest, convert, choices = option
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _fast_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_SCHEMA if exc.code not in (0, None) else 0
    try:
        # looked up at call time, so a patched command is the one that runs
        digest, payload = globals()[f"_cmd_{args.command}"](args)
        _emit(_report(args.command, digest, payload), args.format)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception as exc:
        # DescriptorError, AmbientMismatch and ParentMismatch are ValueErrors;
        # only spectral raises InvariantViolation, so it is looked up only
        # once spectral has been imported
        spectral = sys.modules.get("prymkit.spectral")
        if isinstance(exc, ValueError) or (
                spectral is not None and isinstance(exc, spectral.InvariantViolation)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.command == "verify" and not payload["all_passed"]:
        return EXIT_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
