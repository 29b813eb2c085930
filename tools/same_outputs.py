"""Whether two checkouts give the same outputs, bit for bit: one sha256 over a fixed set of them per tree.

    python3 tools/same_outputs.py --parent DIR --change DIR

DIR is the root of a checkout.  For each tree the tool starts a child
Python with ``OPENBLAS_NUM_THREADS=1`` (so the BLAS sums in one fixed
order) and ``PYTHONPATH=DIR/src``, which imports that tree's paulisim and
prints one sha256 over, in this order:

- 200 deep_small ops: each report's text without its timing line, and its
  final state's coefficient bytes;
- 6 verify7 ops: each verify text, then the report text and final-state
  bytes of ``run_circuit`` on the same input;
- the 20 adder-corpus sweep tables (every addend pair of
  ``workloads.adder_pairs`` over ``workloads.ADDER_SWEEP_VALUES`` of r):
  each row's value, metric and partition count;
- two rand12 runs (its anchor circuit and one seeded circuit), as the
  deep_small ops.

The inputs come from ``perfbench/workloads.py`` of the checkout that holds
this script, on fixed seeds, so both trees get the same ones.  The tool
prints both digests and exits 0 when they are equal, 1 when they differ,
and 2 when a child fails, printing its stderr.  On a 2-vCPU x86-64 VM a
child takes about 8 s, and the rand12 runs hold a 128 MiB state.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 4402

# argv[1]: the perfbench directory that generates the inputs; argv[2]: the seed
_CHILD = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import workloads
import paulisim
seed, h = int(sys.argv[2]), hashlib.sha256()

def run(op):
    noise = paulisim.parse_noise_config(op["noise"])
    report = paulisim.run_circuit(op["circuit"], noise, init=op["init"], shots=op["shots"], seed=op["seed"])
    h.update(report.to_text(timing=False).encode())
    h.update(report.final_state.coeffs.tobytes())

for op in workloads.make_ops("deep_small", seed, 200 * workloads.NOMINAL_OP_S["deep_small"]):
    run(op)
for op in workloads.make_ops("verify7", seed, 6 * workloads.NOMINAL_OP_S["verify7"]):
    noise = paulisim.parse_noise_config(op["noise"])
    h.update(paulisim.verify_circuit(op["circuit"], noise, init=op["init"]).to_text().encode())
    run(dict(op, shots=0, seed=None))
noise = paulisim.parse_noise_config(workloads.noise_text(workloads.NOISE["adder_sweep"]))
for a, b in workloads.adder_pairs():
    rows = paulisim.sweep(paulisim.gen_adder(a, b), "r", list(workloads.ADDER_SWEEP_VALUES),
                          "success:" + paulisim.adder_success_pattern(a, b), noise)
    h.update(repr([(r.value, r.metric, r.partitions) for r in rows]).encode())
for op in workloads.make_ops("rand12", seed, 2 * workloads.NOMINAL_OP_S["rand12"]):
    run(op)
print(h.hexdigest())
"""


def digest(tree: Path) -> str:
    """The child's sha256 for one checkout; exits 2 with its stderr if it fails."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-c", _CHILD, str(ROOT / "perfbench"), str(SEED)]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True)
    lines = run.stdout.split()
    if run.returncode != 0 or len(lines) != 1:
        print(f"the child for {tree} exited {run.returncode}\n{run.stderr}", file=sys.stderr)
        sys.exit(2)
    return lines[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args()
    parent, change = digest(args.parent.resolve()), digest(args.change.resolve())
    print(f"parent {parent}\nchange {change}")
    print("same outputs" if parent == change else "outputs differ")
    return 0 if parent == change else 1


if __name__ == "__main__":
    sys.exit(main())
