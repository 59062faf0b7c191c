"""Cold-start timer: each prymkit command run in a fresh interpreter on the
README's example inputs, for two source trees, interleaved.

    python tests/coldstart.py OLD_SRC NEW_SRC [--rounds 21]

OLD_SRC and NEW_SRC are directories that hold a ``prymkit`` package (a
checkout's ``src/``).  A run does what the console script does, ``from
prymkit.cli import main; sys.exit(main())``, with the tree first on
PYTHONPATH.  One untimed round checks that every command exits 0 and prints
the same bytes in both trees (and writes bytecode, where the environment lets
Python write it); then each timed round runs every row once per tree, the
tree that goes first alternating between rounds, so a drift in the host's
speed hits both trees alike.  The rows ``python`` (a bare interpreter) and
``import`` (``import prymkit.cli`` only) show what a command adds to them.
For each row it prints the median and quartiles of the wall time in ms per
tree and the ratio of the medians.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the README's examples: a maximal-order pi0, the norm of t on
# Q[x][t]/(t^2 - x), the factor of (t + 1)(t - x)^2 and the split of t^2 - x
# on y^2 = x
INPUTS = {
    "cover.json": {"n": 2, "g": 2, "components": [
        {"degree": 1, "multiplicity": 2, "kernel_modulus": 1, "kernel_generators": []}]},
    "norm.json": {"spectral": {"n": 2, "deg_m": 1, "coeffs": [[], ["0/1", "-1/1"]]},
                  "element": [[], ["1/1"]]},
    "fac.json": {"n": 3, "deg_m": 1, "coeffs": [["1/1", "-2/1"], ["0/1", "-2/1", "1/1"],
                                                ["0/1", "0/1", "1/1"]]},
    "g2.json": {"cover": {"f": ["0/1", "1/1"]},
                "spectral": {"n": 2, "deg_m": 1, "coeffs": [[], ["0/1", "-1/1"]]}},
}
ENTRY = "import sys\nfrom prymkit.cli import main\nsys.exit(main())"
ROWS = {
    "python": ["-c", "pass"],
    "import": ["-c", "import prymkit.cli"],
    "pi0": ["-c", ENTRY, "pi0", "--input", "cover.json"],
    "endoscopy": ["-c", ENTRY, "endoscopy", "--n", "6", "--g", "2"],
    "norm": ["-c", ENTRY, "norm", "--input", "norm.json"],
    "factor": ["-c", ENTRY, "factor", "--input", "fac.json"],
    "galois": ["-c", ENTRY, "galois", "--input", "g2.json"],
    "verify": ["-c", ENTRY, "verify", "--suite", "abelian", "--seed", "0"],
}


def run(tree: str, row: str, cwd: str) -> tuple[float, bytes]:
    """(wall seconds, standard output) of one fresh-process run."""
    env = dict(os.environ, PYTHONPATH=tree)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *ROWS[row]], cwd=cwd, env=env,
                          capture_output=True)
    took = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"error: {row} in {tree} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')}")
    return took, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="source tree holding the baseline prymkit")
    parser.add_argument("new", help="source tree holding the changed prymkit")
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    trees = [str(Path(t).resolve()) for t in (args.old, args.new)]
    for tree in trees:
        if not (Path(tree) / "prymkit" / "cli.py").is_file():
            parser.error(f"no prymkit package under {tree}")
    times = {row: ([], []) for row in ROWS}
    with tempfile.TemporaryDirectory(prefix="prymkit-coldstart-") as cwd:
        for name, doc in INPUTS.items():
            Path(cwd, name).write_text(json.dumps(doc))
        for row in ROWS:
            old, new = (run(tree, row, cwd)[1] for tree in trees)
            if old != new:
                print(f"error: {row} prints different bytes in the two trees",
                      file=sys.stderr)
                return 1
        for r in range(args.rounds):
            for row in ROWS:
                for i in (0, 1) if r % 2 == 0 else (1, 0):
                    times[row][i].append(run(trees[i], row, cwd)[0])
    caching = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"# {args.rounds} interleaved rounds, Python {sys.version.split()[0]}, "
          f"bytecode caching {caching}; ms: median [quartiles]")
    print(f"# old {trees[0]}\n# new {trees[1]}")
    print(f"{'row':10} {'old':>22} {'new':>22} {'new/old':>8}")
    for row, samples in times.items():
        cells = []
        for xs in samples:
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            cells.append(f"{q2 * 1e3:6.1f} [{q1 * 1e3:5.1f}, {q3 * 1e3:5.1f}]")
        ratio = statistics.median(samples[1]) / statistics.median(samples[0])
        print(f"{row:10} {cells[0]:>22} {cells[1]:>22} {ratio:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
