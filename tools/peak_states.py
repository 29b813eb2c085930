"""Each entry point's peak memory, in states and in RSS, one fresh child per measurement.

    python3 tools/peak_states.py --n N [--tree DIR]

DIR is the root of a checkout (default: the one that holds this script).
Each child is a new Python with ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONPATH=DIR/src``, so it imports that tree's paulisim, as
``tools/same_outputs.py`` does.  The circuit is the ripple-carry adder of
(N - 1) / 3 bits when N is 3b + 1 (addends 3 and 4 taken mod 2^b, so
011 + 100 at N = 10), and otherwise the N-qubit Fourier transform with an
``ensemble`` appended.  The noise is adder_sweep's (f = g = 0.999,
p = 0.95), and the sweeps run r over 1.0, 0.995 and 0.99.  The entry points:

- ``run_circuit``: one run, then the caller's full read of
  ``final_state.coeffs``;
- ``success_sweep``: ``sweep`` with the ``success`` metric on the expected
  sum (the all-zero outcome for the Fourier transform);
- ``fidelity_sweep``: ``sweep`` with the ``fidelity`` metric, which holds
  the noiseless reference as well;
- ``save_state``: ``init_thermal(N, 0.9)``, built first, written by
  ``save_state`` to the null device; its traced peak counts that state as
  one and traces only the write, and its RSS growth includes the build.

Each entry point runs in two children.  One traces it with ``tracemalloc``
and prints the traced peak over 8 * 4^N bytes, the state's size; the other
runs it untraced and prints the growth of ``ru_maxrss`` over the child's
baseline right after ``import paulisim``, in MiB.  A 13-qubit state is
512 MiB, so a fidelity sweep at N = 13 needs about 1.5 GiB.  The tool
prints one line per entry point and exits 0, or 2 when a child fails,
printing its stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = ("run_circuit", "success_sweep", "fidelity_sweep", "save_state")

# argv[1]: the entry point; argv[2]: n; argv[3]: 1 to trace, 0 for the RSS growth
_CHILD = """
import os, resource, sys, tracemalloc
import paulisim
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
entry, n, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
noise = paulisim.parse_noise_config("f = 0.999\\ng = 0.999\\np = 0.95")
bits = (n - 1) // 3
if n >= 4 and (n - 1) % 3 == 0:
    a, b = format(3 % 2**bits, f"0{bits}b"), format(4 % 2**bits, f"0{bits}b")
    circuit, pattern = paulisim.gen_adder(a, b), paulisim.adder_success_pattern(a, b)
else:
    circuit, pattern = paulisim.gen_qft(n) + "ensemble\\n", "0" * n
values = [1.0, 0.995, 0.99]
state = paulisim.init_thermal(n, 0.9) if entry == "save_state" else None
if traced:
    tracemalloc.start()
if entry == "run_circuit":
    paulisim.run_circuit(circuit, noise).final_state.coeffs
elif entry == "success_sweep":
    paulisim.sweep(circuit, "r", values, "success:" + pattern, noise)
elif entry == "fidelity_sweep":
    paulisim.sweep(circuit, "r", values, "fidelity", noise)
else:
    paulisim.save_state(state, os.devnull)
if traced:  # save_state's state was built before the trace began
    print(tracemalloc.get_traced_memory()[1] / (8 * 4**n) + (state is not None))
else:
    print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024)
"""


def measure(tree: Path, entry: str, n: int, traced: bool) -> float:
    """One child's number; exits 2 with its stderr if it fails."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-c", _CHILD, entry, str(n), str(int(traced))]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True)
    lines = run.stdout.split()
    if run.returncode != 0 or len(lines) != 1:
        print(f"the {entry} child for {tree} exited {run.returncode}\n{run.stderr}", file=sys.stderr)
        sys.exit(2)
    return float(lines[0])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--tree", type=Path, default=ROOT)
    args = ap.parse_args()
    tree = args.tree.resolve()
    print(f"n={args.n}, state {8 * 4**args.n / 2**20:g} MiB, tree {tree}")
    print("entry\tpeak_states\trss_growth_mib")
    for entry in ENTRY_POINTS:
        rss = measure(tree, entry, args.n, traced=False)
        peak = measure(tree, entry, args.n, traced=True)
        print(f"{entry}\t{peak:.2f}\t{rss:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
