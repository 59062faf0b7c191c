"""Benchmark of the prymkit command-line tool.

    python3 bench/run.py --workload pi0-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selftest

Each workload is a closed loop with one client: the next op starts when the
previous one has finished.  An op is one ``prymkit.cli.main`` call in this
process on an input file written during set-up.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect
from collections import Counter
from pathlib import Path

import check
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Every op is stopped after CAP_S seconds and counted as a timeout.  The
# slowest regular op on the baseline takes under 0.8 s; the stall fixtures
# did not finish in 90 s.
CAP_S = 4.0
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

# The host is shared, and the speed it gives this process drifts by up to 2x
# over minutes.  A fixed pure-Python kernel is therefore timed every
# REF_EVERY_S between ops, and each reported time is scaled by REF_UNIT_S
# over the kernel's median time among the REF_WINDOW samples nearest to it.
# Reported times are thus seconds on a host where the kernel takes
# REF_UNIT_S, about its time on the 2-core host of the baselines when that
# host runs fast.
REF_UNIT_S = 1.4e-3
REF_EVERY_S = 0.05
REF_WINDOW = 31


def reference_kernel():
    """Fixed pure-Python work: integer arithmetic and dict, tuple and sort
    traffic.  Of the kernels tried, this mix followed the library's speed
    across the host's slow and fast phases most closely."""
    s = 0
    for i in range(5000):
        s = (s * 31 + i) % 1000003
    table: dict = {}
    for i in range(800):
        key = ((i * 7919) % 1013, i & 7)
        table[key] = table.get(key, 0) + i
    sorted(table.items())


# Pool sizes per op kind.  One pass runs every input of every pool once, in
# an order drawn from the seed, with the kinds spread evenly through it.
# Stall fixtures run once per run, first.
WORKLOADS = {
    "pi0-sweep": {"pools": {"pi0": 540, "endoscopy": 60}, "stalls": []},
    "norm-factor": {"pools": {"norm": 160, "factor": 80},
                    "stalls": ["stall-norm", "stall-yun"]},
    "galois-split": {"pools": {"pushforward": 40, "split-reject": 30,
                               "split-accept": 30}, "stalls": []},
}


class Speed:
    """Timings of the reference kernel over a run."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor that turns seconds measured at time t into reference
        seconds."""
        lo = max(0, min(bisect(self.at, t) - REF_WINDOW // 2,
                        len(self.at) - REF_WINDOW))
        return REF_UNIT_S / statistics.median(self.took[lo:lo + REF_WINDOW])


class Timeout(BaseException):
    """Raised by the alarm inside an op that ran past CAP_S."""


def _alarm(signum, frame):
    raise Timeout()


# -- inputs ----------------------------------------------------------------


class Inputs:
    """Every input of a workload, written to files under a work directory."""

    def __init__(self, workload: str, directory: Path):
        spec = WORKLOADS[workload]
        self.ops = {}
        keys = [(k, i) for k, n in spec["pools"].items() for i in range(n)]
        keys += [(k, 0) for k in spec["stalls"]]
        for kind, index in keys:
            argv, doc = gen.make_input(kind, index)
            data = None
            if doc is not None:
                data = gen.encode(doc)
                path = directory / f"{kind}-{index}.json"
                path.write_bytes(data)
                argv = argv + ["--input", str(path)]
            self.ops[(kind, index)] = (argv, doc, data)


def op_stream(workload: str, seed: int):
    """Stall fixtures, then passes over the pools without end."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    for kind in spec["stalls"]:
        yield (kind, 0)
    while True:
        keyed = []
        for rank, (kind, size) in enumerate(spec["pools"].items()):
            order = list(range(size))
            rng.shuffle(order)
            keyed += [((j + 0.5) / size, rank, (kind, idx))
                      for j, idx in enumerate(order)]
        keyed.sort()
        for _pos, _rank, op in keyed:
            yield op


def one_pass(workload: str, seed: int) -> list:
    spec = WORKLOADS[workload]
    n = len(spec["stalls"]) + sum(spec["pools"].values())
    stream = op_stream(workload, seed)
    return [next(stream) for _ in range(n)]


# -- running ops -----------------------------------------------------------


def run_op(main, argv: list) -> tuple[str, float, str]:
    """(status, seconds, stdout) of one CLI call; status is ok, error or
    timeout.  sympy's cache is emptied first, as in a fresh process."""
    from sympy.core.cache import clear_cache

    clear_cache()
    out, err = io.StringIO(), io.StringIO()
    status = "error"
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if main(argv) == 0:
                status = "ok"
    except Timeout:
        status = "timeout"
    except Exception:       # a traceback that would reach a CLI user
        status = "error"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, time.perf_counter() - t0, out.getvalue()


class Outcomes:
    """Ops run so far, each checked as soon as it returns, so that no output
    is kept and memory does not grow with the number of ops."""

    def __init__(self, inputs: Inputs, digests: dict):
        self.inputs, self.digests = inputs, digests
        self.rows = []      # (kind, index, status, seconds)
        self.reasons: list[str] = []
        self.started: list[float] = []
        self.speed = Speed()

    def run(self, main, op):
        """Run one op, timing the reference kernel first when it is due.
        The status is ok, timeout, error or wrong_output."""
        self.speed.maybe_sample()
        argv, doc, data = self.inputs.ops[op]
        self.started.append(time.perf_counter())
        status, seconds, stdout = run_op(main, argv)
        if status == "ok":
            reason = check.check(op[0], argv, doc, data, stdout,
                                 self.digests[op[0]][op[1]])
            if reason is not None:
                status = "wrong_output"
                self.reasons.append(f"{op[0]}[{op[1]}]: {reason}")
        self.rows.append((op[0], op[1], status, seconds))

    def tally(self) -> Counter:
        return Counter(row[2] for row in self.rows)

    def failed(self, stalls: list) -> int:
        """Ops that did not pass.  A stall fixture stopped at the cap is the
        outcome it is kept for, recorded as a timeout, not a failure; one
        that errs or returns a wrong output fails like any other op."""
        return sum(1 for kind, _i, status, _s in self.rows
                   if status != "ok" and not (status == "timeout" and kind in stalls))

    def scales(self) -> list[float]:
        return [self.speed.scale(t + row[3] / 2)
                for t, row in zip(self.started, self.rows)]

    def seconds(self) -> list[float]:
        """Op times in reference seconds; an op stopped by the alarm counts
        as CAP_S, the time it was given."""
        return [CAP_S if row[2] == "timeout" else row[3] * k
                for row, k in zip(self.rows, self.scales())]


def warm_up(main, inputs: Inputs, workload: str):
    """One untimed op of each regular kind, so lazy imports inside the
    library and sympy are done before timing starts."""
    for kind in WORKLOADS[workload]["pools"]:
        run_op(main, inputs.ops[(kind, 0)][0])


# -- set-up ----------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# Runs in a fresh interpreter: the reference kernel, then the import, then
# the kernel again, so the import is scaled by the speed of its own process.
_SETUP_CHILD = """
import json, statistics, time
{kernel}
def sample():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
before = [sample() for _ in range({n})]
t0 = time.perf_counter()
import prymkit.cli
took = time.perf_counter() - t0
after = [sample() for _ in range({n})]
print(json.dumps([took, statistics.median(before + after)]))
"""


def measure_setup(workload: str, directory: Path) -> tuple[float, Inputs]:
    """Median over SETUP_REPEATS of: ``import prymkit.cli`` in a fresh
    interpreter, plus generating and writing the workload's inputs; in
    reference seconds."""
    child = _SETUP_CHILD.format(kernel=inspect.getsource(reference_kernel),
                                n=REF_WINDOW)
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", child], env=_env(),
                              check=True, cwd=ROOT, capture_output=True, text=True)
        took, ref = json.loads(proc.stdout)
        speed = Speed()
        for _ in range(REF_WINDOW // 2):
            speed.sample()
        t0 = time.perf_counter()
        inputs = Inputs(workload, directory)
        generated = time.perf_counter() - t0
        for _ in range(REF_WINDOW - REF_WINDOW // 2):
            speed.sample()
        times.append(took * REF_UNIT_S / ref + generated * speed.scale(t0))
    return statistics.median(times), inputs


def measure_imports() -> tuple[float, float]:
    """(sympy, prymkit without sympy) cumulative import seconds from
    ``python -X importtime``, medians over IMPORTTIME_REPEATS."""
    sym, own = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import prymkit.cli"],
            env=_env(), check=True, cwd=ROOT, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|(\s+)(\S+)$", line)
            if m and (len(m.group(2)) == 1 or m.group(3) == "sympy"):
                cumulative[m.group(3)] = int(m.group(1)) / 1e6
        s = cumulative.get("sympy", 0.0)
        sym.append(s)
        own.append(cumulative["prymkit.cli"] - s)
    return statistics.median(sym), statistics.median(own)


# -- measurement -----------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile q, 0 < q < 1: the mean of the
    sorted values weighted by a beta density centred on rank q n.  Where a
    nearest-rank percentile jumps across a gap between neighbouring values
    when two inputs swap places, this moves a little."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32      # midpoint rule over each rank's share of (0, 1)
    weights = [sum(math.exp(log_norm + (a - 1) * math.log(t)
                            + (b - 1) * math.log(1 - t))
                   for t in ((i + (j + 0.5) / steps) / n for j in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(main, inputs, workload, seed, seconds, setup_s, digests):
    outcomes = Outcomes(inputs, digests)
    stream = op_stream(workload, seed)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline:
        outcomes.run(main, next(stream))
    wall = time.perf_counter() - t0
    tally = outcomes.tally()
    lat = outcomes.seconds()
    attempted = len(lat)
    # Percentiles over inputs, each at the median of its runs: every run
    # weighs each input once, and a spike from the host hits one sample.
    by_input: dict = {}
    for row, sec in zip(outcomes.rows, lat):
        by_input.setdefault(row[:2], []).append(sec)
    sample = [statistics.median(v) for v in by_input.values()]
    # The stall fixtures are left out of throughput: their fixed 4 s would
    # weigh more in a run that the host slows, since it fits fewer other ops.
    stalls = WORKLOADS[workload]["stalls"]
    regular = [i for i, row in enumerate(outcomes.rows) if row[0] not in stalls]
    metrics = {
        "throughput_ops_s": (sum(outcomes.rows[i][2] == "ok" for i in regular)
                             / sum(lat[i] for i in regular), "ops/s"),
        "latency_p50_ms": (quantile(sample, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(sample, 0.9) * 1e3, "ms"),
        "ok_frac": (tally["ok"] / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    raw = sum(row[3] for row in outcomes.rows)
    done = [row[3] for row in outcomes.rows if row[2] != "timeout"]
    print(f"# {workload} seed {seed}: {attempted} ops in {wall:.2f} s, "
          f"{raw:.2f} s measured, {sum(lat):.2f} reference s; percentiles over "
          f"{len(sample)} inputs ({len(sample) - -(-len(sample) * 9 // 10)} beyond "
          f"p90); slowest completed op {max(done, default=0):.3f} s measured; "
          f"ok {tally['ok']}, timeout {tally['timeout']}, "
          f"error {tally['error']}, wrong {tally['wrong_output']}")
    return tally, outcomes.reasons, attempted, outcomes.failed(stalls), metrics


def traced_pass(main, inputs, digests, ops, tracer) -> tuple[Outcomes, Outcomes]:
    """Run each op twice back to back, untraced and traced, the first of the
    two alternating; each traced op is one root span."""
    plain, traced = Outcomes(inputs, digests), Outcomes(inputs, digests)
    call = tracer.wrap("cli.main", main)
    for op_id, op in enumerate(ops):
        tracer.op_id = op_id
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    traced.run(call, op)
                finally:
                    tracer.uninstall()
                tracer.finish_op()
            else:
                plain.run(main, op)
    return plain, traced


def per_layer(main, inputs, workload, seed, digests):
    import spans

    ops = one_pass(workload, seed)
    tracer = spans.Tracer()
    plain, traced = traced_pass(main, inputs, digests, ops, tracer)
    tally = traced.tally()
    reasons = traced.reasons + plain.reasons
    broken = tracer.check_partition()
    if broken:
        reasons.append(f"trace: {broken}")
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{workload}.jsonl")

    # each pair ran back to back, so the host's speed cancels without scaling
    done = [i for i, row in enumerate(plain.rows)
            if row[2] != "timeout" and traced.rows[i][2] != "timeout"]
    overhead = (sum(traced.rows[i][3] for i in done)
                / sum(plain.rows[i][3] for i in done) - 1)
    sym_s, own_s = measure_imports()

    s = tracer.summary(traced.scales())
    n_pi0 = sum(1 for kind, _i in ops if kind == "pi0")
    calls, self_s, bits = s["calls"], s["self_s"], s["bits"]
    metrics = {
        "cli.self_s": (self_s["cli.main"], "s"),
        "serialize.from_json_s": (self_s["serialize.from_json"], "s"),
        "serialize.to_json_s": (self_s["serialize.to_json"], "s"),
        "spectral.prym_component_group.calls_per_op":
            (calls["spectral.prym_component_group"] / n_pi0 if n_pi0 else 0.0,
             "calls/op"),
        "spectral.prym_component_group.self_s":
            (self_s["spectral.prym_component_group"], "s"),
        "spectral.endoscopy_report.self_s": (self_s["spectral.endoscopy_report"], "s"),
    }
    for fn in ("hermite_normal_form", "smith_normal_form", "left_kernel",
               "intersect", "preimage_mul", "structure", "TorsionSubgroup.order"):
        metrics[f"abelian.{fn}.calls"] = (calls[f"abelian.{fn}"], "count")
    for fn in ("hermite_normal_form", "smith_normal_form", "structure"):
        metrics[f"abelian.{fn}.self_s"] = (self_s[f"abelian.{fn}"], "s")
    metrics["abelian.smith_normal_form.max_entry_bits"] = (
        bits["abelian.smith_normal_form"], "bits")
    for fn in ("resultant", "yun_squarefree"):
        name = f"polynomials.{fn}"
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.max_coeff_bits"] = (bits[name], "bits")
    metrics["polynomials.RatFunc.constructed"] = (
        s["events"]["polynomials.RatFunc.constructed"], "count")
    metrics["norms.mul_matrix.self_s"] = (self_s["norms.mul_matrix"], "s")
    metrics["norms.poly_matrix_det.self_s"] = (self_s["norms.poly_matrix_det"], "s")
    metrics["norms.poly_matrix_det.max_coeff_bits"] = (
        bits["norms.poly_matrix_det"], "bits")
    metrics["norms.norm_resultant_oracle.incl_s"] = (
        s["incl_s"]["norms.norm_resultant_oracle"], "s")
    metrics["covers.squarefree_decompose.self_s"] = (
        self_s["covers.squarefree_decompose"], "s")
    metrics["covers.galois_pushforward.calls"] = (
        calls["covers.galois_pushforward"], "count")
    metrics["covers.galois_pushforward.self_s"] = (
        self_s["covers.galois_pushforward"], "s")
    metrics["covers.pullback_splits.self_s"] = (self_s["covers.pullback_splits"], "s")
    metrics["covers.pullback_splits.accept_s"] = (s["accept_s"], "s")
    metrics["covers.pullback_splits.reject_s"] = (s["reject_s"], "s")
    for fn in ("sqf_list", "factor_list"):
        metrics[f"sympy.{fn}.calls"] = (calls[f"sympy.{fn}"], "count")
        metrics[f"sympy.{fn}.self_s"] = (self_s[f"sympy.{fn}"], "s")
    for layer in spans.LAYERS:
        metrics[f"layer.{layer}.self_s"] = (s["layer_s"][layer], "s")
    metrics["setup.import_sympy_s"] = (sym_s, "s")
    metrics["setup.import_prymkit_s"] = (own_s, "s")
    attempted = len(ops)
    metrics["ops.timeout"] = (tally["timeout"], "count")
    metrics["ops.wrong_output"] = (tally["wrong_output"], "count")
    metrics["ops.error"] = (tally["error"], "count")
    metrics["ops.fail_frac"] = ((attempted - tally["ok"]) / attempted, "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    total = sum(s["layer_s"].values())
    print(f"# {workload} seed {seed}: traced {attempted} ops, "
          f"{len(tracer.name)} spans, overhead {overhead:+.3f}")
    for layer in spans.LAYERS:
        share = s["layer_s"][layer] / total if total else 0.0
        print(f"#   {layer:12s} self {s['layer_s'][layer]:9.4f} s  {share:6.1%}")
    return (tally, reasons, attempted,
            traced.failed(WORKLOADS[workload]["stalls"]), metrics)


# -- self-test -------------------------------------------------------------


def selftest(main, workload: str, directory: Path, digests: dict) -> list[str]:
    """Two short traced runs: self times must add up to each op's span, and
    every op that finished must make the same calls both times.  The first
    ops of seed 0 include the stall fixtures, so the spans of ops stopped by
    the alarm are checked too."""
    import spans

    inputs = Inputs(workload, directory)
    warm_up(main, inputs, workload)
    ops = one_pass(workload, 0)[:len(WORKLOADS[workload]["stalls"]) + 30]
    runs = []
    problems = []
    for _ in range(2):
        tracer = spans.Tracer()
        _plain, outcomes = traced_pass(main, inputs, digests, ops, tracer)
        broken = tracer.check_partition()
        if broken:
            problems.append(f"{workload}: {broken}")
        problems += [f"{workload}: {r}" for r in outcomes.reasons]
        finished = {i for i, row in enumerate(outcomes.rows) if row[2] == "ok"}
        runs.append((tracer.op_counts(), finished))
    (first, done1), (second, done2) = runs
    for op_id in sorted(done1 & done2):
        if first[op_id] != second[op_id]:
            problems.append(f"{workload}: op {op_id} {ops[op_id]} made different "
                            f"calls in the two runs")
    pi0 = [first[i]["spectral.prym_component_group"]
           for i in done1 if ops[i][0] == "pi0"]
    if pi0:
        print(f"# {workload}: prym_component_group calls per pi0 op: "
              f"{sorted(set(pi0))}")
    print(f"# {workload}: {len(ops)} ops traced twice, "
          f"{len(done1 & done2)} compared, {len(problems)} problems")
    return problems


# -- entry point -----------------------------------------------------------


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the tracer on short traced runs and exit")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "prymkit" / "cli.py").is_file():
        print(f"error: no prymkit sources under {SRC}", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())

    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK))
    signal.signal(signal.SIGALRM, _alarm)
    try:
        if args.selftest:
            sys.path.insert(0, str(SRC))
            from prymkit.cli import main
            problems = []
            for workload in WORKLOADS:
                problems += selftest(main, workload, directory, digests)
            for p in problems:
                print(f"# FAIL {p}")
            print(json.dumps({"selftest": not problems, "problems": len(problems)}))
            return 0 if not problems else 1

        if args.trace:
            inputs = Inputs(args.workload, directory)
        else:
            setup_s, inputs = measure_setup(args.workload, directory)
        sys.path.insert(0, str(SRC))
        from prymkit.cli import main
        warm_up(main, inputs, args.workload)
        if args.trace:
            result = per_layer(main, inputs, args.workload, args.seed, digests)
        else:
            result = end_to_end(main, inputs, args.workload, args.seed,
                                args.seconds, setup_s, digests)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    tally, reasons, attempted, failed, metrics = result
    for reason in reasons[:20]:
        print(f"# FAIL {reason}")
    correct = not reasons and tally["error"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
