"""The standing output corpus: every case runs in-process through
``prymkit.cli.main``, and the SHA-256 of each group's stdout, stderr and
exit codes must match ``tests/corpus_digests.json``.

A group is one (command or suite, generator, format): the seeded
``bench/gen.py`` inputs of each generator, and ``verify`` at a range of
seeds of each suite, each in json and in table format.  Two more kinds of
group pin the refusals:

- ``schema/<generator>/json``: every document one edit away from a few
  valid inputs of the generator: each leaf replaced by each of ``BAD``,
  each key deleted, each list lengthened and shortened by one entry;
- ``argv/grammar/any``: help at the top level and for every command, a
  fixed list of usage errors and a seeded draw of argv over declared,
  abbreviated and '=' flags and bad values.  argparse words its help and
  errors a little differently from one Python release to the next, so this
  group's digest is recorded per release (``platform.python_version()``),
  and on a release with none recorded its test is skipped;
  ``tests/test_cli.py`` checks each command's help line on every release.

A change that alters output on purpose rewrites the digest file in the
same commit (the argv group keeps the digests of other releases):

    PYTHONPATH=src python tests/test_corpus.py --digests

and ``--write DIR`` stores each case's output under
DIR/<command>-<generator>-<format>/, for a plain ``diff -r`` against the
same run on another checkout.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import random
import sys
import tempfile
from pathlib import Path

import pytest

from prymkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("corpus_digests.json")

# generator -> (command, number of inputs); suite -> number of seeds
GENERATED = {"pi0": ("pi0", 2000), "endoscopy": ("endoscopy", 60),
             "pushforward": ("galois", 300), "split-accept": ("galois", 300),
             "split-reject": ("galois", 300), "norm": ("norm", 40),
             "factor": ("factor", 40)}
SUITES = {"abelian": 8, "spectral": 8, "norm": 20, "galois": 20}
# generator -> number of valid inputs each schema group edits
SCHEMA = {"pi0": 6, "norm": 4, "factor": 4, "pushforward": 4, "split-accept": 4}
# the values each leaf of a valid document is replaced by
BAD = [None, True, 1.5, -1, 10 ** 30, "", "1/0", "3/-1", "1/2,3/4", [], {}]
ARGV_GROUP = "argv/grammar/any"
GROUPS = ([f"{cmd}/{kind}/{fmt}" for kind, (cmd, _) in GENERATED.items()
           for fmt in ("json", "table")] +
          [f"verify/{suite}/{fmt}" for suite in SUITES for fmt in ("json", "table")] +
          [f"schema/{kind}/json" for kind in SCHEMA] + [ARGV_GROUP])
PYTHON = platform.python_version()


@functools.cache
def _gen():
    spec = importlib.util.spec_from_file_location("_bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _edits(doc):
    """Every document one edit away from doc: each leaf replaced by each of
    BAD, each key deleted, each list lengthened (its last entry again, or
    "1/1") and shortened by one entry."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield {k: v for k, v in doc.items() if k != key}
            for edited in _edits(doc[key]):
                yield {**doc, key: edited}
    elif isinstance(doc, list):
        yield doc + [doc[-1] if doc else "1/1"]
        if doc:
            yield doc[:-1]
        for i, item in enumerate(doc):
            for edited in _edits(item):
                yield doc[:i] + [edited] + doc[i + 1:]
    else:
        yield from BAD


# help, and usage that argparse refuses or reads (one argv a line)
_USAGE = """
-h
--help
nosuch
endoscopy --n=6 --g 2
endoscopy --n 6 --g 2 --format=table
endoscopy --n 6 --g 2 --fo table
endoscopy --n 6 --n 8 --g 2
endoscopy --n -6 --g 2
endoscopy --n 0x6 --g 2
endoscopy --n 1_0 --g 2
endoscopy --n 6.0 --g 2
endoscopy --n \u0666 --g 2
endoscopy --n 6 --g 2 --format xml
endoscopy --n 6 --g 2 --format Table
endoscopy --n 6
endoscopy --n 1 --g 1
endoscopy --n 1000000000001 --g 1
endoscopy --n 6 --g 0
endoscopy 6 2
verify
verify --seed 1
verify --s abelian
verify --su abelian --se 1
verify --suite abelian --seed -1
verify --suite nosuch
pi0
pi0 -- --input nosuch/x.json
pi0 --input nosuch/x.json extra
pi0 --inp nosuch/x.json
pi0 --input nosuch/x.json --input nosuch/y.json
""".strip().splitlines()
_COMMAND_NAMES = ["pi0", "endoscopy", "norm", "factor", "galois", "verify"]
_ARGV_TOKENS = ["--input", "--n", "--g", "--suite", "--seed", "--format", "-h",
                "--in", "--fo", "--su", "--n=6", "--format=table", "--", "-", "-5",
                "nosuch/x.json", "", "6", "2", "0x10", "\u0663", "1.5", "10" * 30,
                "json", "table", "xml", "abelian", "pi0"]


def _argv_cases():
    yield []
    for argv in _USAGE:
        yield argv.split(" ")
    for command in _COMMAND_NAMES:
        yield [command, "-h"]
        yield [command, "--help"]
        yield [command, "--input", "nosuch/x.json"]
    rng = random.Random("argv:0")
    for _ in range(300):
        argv = [rng.choice(_COMMAND_NAMES + ["nosuch", "--help"])]
        for _ in range(rng.randint(0, 3)):
            argv += [rng.choice(_ARGV_TOKENS), rng.choice(_ARGV_TOKENS)]
        yield argv


def cases(group: str, directory: Path):
    """The argv of each case of a group, its inputs written under directory."""
    command, source, fmt = group.split("/")
    if command == "argv":
        yield from _argv_cases()
        return
    if command == "schema":
        gen = _gen()
        for index in range(SCHEMA[source]):
            argv, doc = gen.make_input(source, index)
            for j, edited in enumerate([doc, *_edits(doc)]):
                path = directory / f"{source}-{index}-{j}.json"
                path.write_bytes(gen.encode(edited))
                yield argv + ["--input", str(path), "--format", fmt]
        return
    if command == "verify":
        for seed in range(SUITES[source]):
            yield ["verify", "--suite", source, "--seed", str(seed), "--format", fmt]
        return
    gen = _gen()
    for index in range(GENERATED[source][1]):
        argv, doc = gen.make_input(source, index)
        if doc is not None:
            path = directory / f"{source}-{index}.json"
            path.write_bytes(gen.encode(doc))
            argv = argv + ["--input", str(path)]
        yield argv + ["--format", fmt]


def run_case(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_group(group: str, write: Path | None = None) -> str:
    """The group's digest; with write, each case's output goes to
    write/<group>/<case number>."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="prymkit-corpus-") as tmp:
        for i, argv in enumerate(cases(group, Path(tmp))):
            code, out, err = run_case(argv)
            h.update(json.dumps([i, code, out, err]).encode() + b"\n")
            if write is not None:
                target = write / group.replace("/", "-")
                target.mkdir(parents=True, exist_ok=True)
                (target / str(i)).write_text(f"exit {code}\n{out}--- stderr\n{err}")
    return h.hexdigest()


@pytest.fixture
def corpus_env(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PRYMKIT_SEED", "0")


def expected_digest(group: str) -> str | None:
    """The recorded digest; the argv group's for this Python release, None
    if none is recorded for it."""
    recorded = json.loads(DIGESTS.read_text())[group]
    return recorded.get(PYTHON) if group == ARGV_GROUP else recorded


@pytest.mark.parametrize("group", GROUPS)
def test_corpus_group_is_byte_identical(group, corpus_env):
    expected = expected_digest(group)
    if expected is None:
        pytest.skip(f"no digest of {group} recorded for Python {PYTHON}")
    assert run_group(group) == expected, group


def test_digest_file_lists_every_group():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(GROUPS)


# names that only bench/spans.py binds: no command and no verify suite
# calls them, so none of the runs below may reach one
BENCH_ONLY = [("polynomials", "RatFunc.__init__"), ("polynomials", "tpoly_over_ratfunc"),
              ("polynomials", "tpoly_to_poly_coeffs"), ("polynomials", "resultant"),
              ("abelian", "left_kernel"), ("norms", "mul_matrix"),
              ("norms", "poly_matrix_det"), ("abelian", "TorsionAmbient.torsion_subgroup")]


def test_bench_only_names_unreached(corpus_env, monkeypatch, tmp_path):
    # the first input of each generator and each suite at seed 0, run as
    # they stand and then with every bench-only name patched to raise
    argvs = [argv for kind, (command, _) in GENERATED.items()
             for argv in itertools.islice(cases(f"{command}/{kind}/json", tmp_path), 1)]
    argvs += [["verify", "--suite", suite, "--seed", "0"] for suite in SUITES]
    want = [run_case(argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in want)

    def forbidden(*args, **kwargs):
        raise AssertionError("a bench-only name was reached")

    for module, name in BENCH_ONLY:
        owner, _, attr = name.rpartition(".")
        target = importlib.import_module(f"prymkit.{module}")
        monkeypatch.setattr(getattr(target, owner) if owner else target, attr, forbidden)
    assert [run_case(argv) for argv in argvs] == want


if __name__ == "__main__":
    os.environ.update(COLUMNS="80", PRYMKIT_SEED="0")
    if sys.argv[1:2] == ["--digests"]:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        digests = {g: run_group(g) for g in GROUPS}
        digests[ARGV_GROUP] = {**recorded.get(ARGV_GROUP, {}), PYTHON: digests[ARGV_GROUP]}
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    elif sys.argv[1:2] == ["--write"] and len(sys.argv) == 3:
        for g in GROUPS:
            run_group(g, Path(sys.argv[2]))
    else:
        sys.exit(__doc__)
