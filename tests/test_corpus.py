"""The standing output corpus: every case runs in-process through
``prymkit.cli.main``, and the SHA-256 of each group's stdout, stderr and
exit codes must match ``tests/corpus_digests.json``.

A group is one (command or suite, generator, format): the seeded
``bench/gen.py`` inputs of each generator, and ``verify`` at a range of
seeds of each suite, each in json and in table format.  A change that
alters output on purpose rewrites the digest file in the same commit:

    PYTHONPATH=src python tests/test_corpus.py --digests > tests/corpus_digests.json

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
import json
import os
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
GROUPS = ([f"{cmd}/{kind}/{fmt}" for kind, (cmd, _) in GENERATED.items()
           for fmt in ("json", "table")] +
          [f"verify/{suite}/{fmt}" for suite in SUITES for fmt in ("json", "table")])


@functools.cache
def _gen():
    spec = importlib.util.spec_from_file_location("_bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases(group: str, directory: Path):
    """The argv of each case of a group, its inputs written under directory."""
    command, source, fmt = group.split("/")
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


@pytest.mark.parametrize("group", GROUPS)
def test_corpus_group_is_byte_identical(group, corpus_env):
    assert run_group(group) == json.loads(DIGESTS.read_text())[group], group


def test_digest_file_lists_every_group():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(GROUPS)


if __name__ == "__main__":
    os.environ.update(COLUMNS="80", PRYMKIT_SEED="0")
    if sys.argv[1:2] == ["--digests"]:
        print(json.dumps({g: run_group(g) for g in GROUPS}, indent=2, sort_keys=True))
    elif sys.argv[1:2] == ["--write"] and len(sys.argv) == 3:
        for g in GROUPS:
            run_group(g, Path(sys.argv[2]))
    else:
        sys.exit(__doc__)
