"""Host-speed calibration: scales measured seconds to a fixed reference speed.

A shared VM runs slower or faster as its host gets busier: the same input
takes up to 1.5x longer minutes later, on either vCPU, and CPU time moves
with wall time (no steal), so neither clock sees past it.  The benchmark
therefore runs a fixed probe that does not touch paulisim, between
operations and outside the timed region, and divides each operation's time
by the host's speed around it:

    speed factor = (median probe seconds near the operation / reference seconds) ** exponent

Reported times are then seconds at the reference speed; the raw seconds and
the factor are printed and stored beside them.  The host's speed changes
within half a second, so the probe runs after every operation (and more
often during long ones), and each operation is scaled by the samples
nearest to it.  The probe has two parts, for the two kinds of work the
program does: CPython parsing and compiling a fixed module (large code and
many small objects, like paulisim's parsing and dispatch; a tight loop
misses most of the slowdown) and numpy passes over a buffer the size of a
10-qubit state.  A host slowdown hits the two differently, so each workload
is scaled by the part that matches where its time goes.  Set-up time
(``import paulisim``) follows neither part, so it is not scaled.
"""

from __future__ import annotations

import ast
import statistics
import time

import numpy as np

# Per workload: the probe part that follows its time best, the part's
# reference seconds and the exponent of the factor.  The part was chosen by
# measuring both parts against repeated runs.  deep_small is interpreter work
# on a 32 KiB state, and verify7's oracle is many small dense-matrix calls;
# both follow the python part.  adder_sweep and rand12 spend their time in
# numpy passes over a state of 8 MiB or more, which a host slowdown hits far
# less; they follow the numpy part.  The reference is the part's median
# during that workload on the machine that defined the benchmark (2-vCPU KVM
# guest, Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, ten runs each; rand12
# one run), so scaled times read close to raw ones there.  It differs
# between workloads because each leaves the caches in a different state.
# The exponent is how strongly the workload's time follows the probe, from
# the slope of log operation time on log probe time over ten runs: 0.97 for
# deep_small; 0.46 for verify7, whose operations swing about half as far as
# the python part; 0.16 to 0.86 in three sets for adder_sweep, which takes
# 0.5, the exponent whose spread stayed lowest across all three.  rand12,
# not fitted, takes adder_sweep's.  Constants: changing one rescales every
# reported time of that workload.
PROBE = {
    "deep_small": ("python", 0.00196, 1.0),
    "verify7": ("python", 0.00153, 0.5),
    "adder_sweep": ("numpy", 0.00079, 0.5),
    "rand12": ("numpy", 0.0009, 0.5),
}

# One probe sample after every operation, plus this many per second of
# measured work, so that long operations are sampled as densely as short ones.
SAMPLES_PER_S = 4.0
# An operation is scaled by the median of this many samples on each side.
WINDOW = 5

# A fixed synthetic module for the python part to parse and compile.
_SOURCE = "".join(
    f"def f{i}(a, b=({i}, 'k{i}')):\n"
    f"    x = [a * k + {i} for k in range({i}) if k % 3]\n"
    f"    return {{'x': x, 'b': b}} if a else sorted(x, reverse=True)[:{i}]\n"
    for i in range(10)
)
_NP_PASSES = 2
_NP_WORDS = 2**20  # 8 MiB, a 10-qubit state


class Probe:
    """Collects probe samples (seconds) of one workload's part; owns the buffer."""

    def __init__(self, workload: str) -> None:
        part, self.reference_s, self.exponent = PROBE[workload]
        self._buf = np.ones(_NP_WORDS) if part == "numpy" else None
        self.samples: list[float] = []
        self._owed = 0.0

    def _once(self) -> None:
        if self._buf is None:
            compile(ast.parse(_SOURCE), "<probe>", "exec")
        else:
            for _ in range(_NP_PASSES):
                np.multiply(self._buf, 1.0000001, out=self._buf)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self._once()
            self.samples.append(time.perf_counter() - t0)

    def after(self, measured_s: float) -> None:
        """Sample once, and more in proportion to the seconds just measured."""
        self._owed += measured_s * SAMPLES_PER_S
        whole = int(self._owed)
        self._owed -= whole
        self.sample(1 + whole)

    def factors(self) -> list[float]:
        """Each sample's speed factor: above 1 on a slower host."""
        return [(t / self.reference_s) ** self.exponent for t in self.samples]

    def scale(self, times: list[float], at: list[int]) -> list[float]:
        """Times at the reference speed.

        ``at[i]`` is the number of samples taken before ``times[i]`` was
        measured; the samples just before and just after it set its factor.
        """
        f = self.factors()
        return [t / statistics.median(f[max(0, k - WINDOW):k + WINDOW]) for t, k in zip(times, at)]
