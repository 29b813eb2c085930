"""Regenerate reference.json: stored outputs for rand12 and adder_sweep.

    python3 perfbench/make_reference.py

Covers the fixed rand12 anchor circuit and every adder addend pair the
adder_sweep workload can draw, under the benchmark's noise and sweep
values.  Run it only when a workload's inputs change, never to make a
failing check pass: the stored values are what the program must reproduce.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import json  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def main() -> None:
    entries = {}
    rand12 = workloads.make_ops("rand12", 0, 0)[0]
    entries[worker.reference_key(rand12)] = checks.fingerprint(worker.run_op(rand12))
    for a, b in workloads.adder_pairs():
        op = worker.prepare({"kind": "sweep", "circuit": None, "addends": [a, b],
                             "noise": workloads.noise_text(workloads.NOISE["adder_sweep"]),
                             "param": "r", "values": list(workloads.ADDER_SWEEP_VALUES),
                             "init": "zero"})
        entries[worker.reference_key(op)] = {"success": [r.metric for r in worker.run_op(op)]}
        print(a, b, entries[worker.reference_key(op)]["success"], flush=True)
    checks.REFERENCE_PATH.write_text(json.dumps({"entries": entries}, indent=1) + "\n")


if __name__ == "__main__":
    main()
