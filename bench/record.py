"""Record the payload digests that the benchmark checks every op against.

    python3 bench/record.py

Runs every pool input of every workload once through prymkit.cli.main,
certifies each report, and writes bench/digests.json.  The stall fixtures
are not run: their expected payloads come from check.STALL_PAYLOADS.  Run it
only when an output change is intended; the benchmark then reports against
the new digests.
"""

from __future__ import annotations

import json
import signal
import sys
import tempfile
from pathlib import Path

import check
import run

if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    from prymkit.cli import main

    signal.signal(signal.SIGALRM, run._alarm)
    digests = {}
    slowest = (0.0, ("", 0))
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for workload, spec in run.WORKLOADS.items():
            inputs = run.Inputs(workload, Path(tmp))
            for kind, size in spec["pools"].items():
                digests[kind] = []
                for index in range(size):
                    argv, doc, data = inputs.ops[(kind, index)]
                    status, seconds, out = run.run_op(main, argv)
                    slowest = max(slowest, (seconds, (kind, index)))
                    reason = (f"status {status}" if status != "ok"
                              else check.check(kind, argv, doc, data, out, None))
                    if reason:
                        sys.exit(f"{kind}[{index}]: {reason}")
                    digests[kind].append(
                        check.payload_digest(json.loads(out)["payload"]))
            for kind in spec["stalls"]:
                _argv, doc, _data = inputs.ops[(kind, 0)]
                digests[kind] = [check.payload_digest(
                    check.STALL_PAYLOADS[kind](doc))]
    run.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"slowest op {slowest[1]}: {slowest[0]:.3f} s")
