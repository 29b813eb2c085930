"""The demos run to completion against the package in ``src``.

``04_adder_noise_sweep.py`` runs its 10-qubit adder 20 times.  Memory noise
and one-qubit gates wait as per-qubit factors for the adder's cx gates and
its one full read, so that takes about 4 s, not 9 s, and it runs here too;
its noiseless success must be 1.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(demo: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "demo",
    [
        "01_states_and_gates.py",
        "02_noise_channels.py",
        "03_transpile_and_schedule.py",
        "05_qft_scaling.py",
    ],
)
def test_demo_runs(demo):
    _run(demo)


def test_adder_demo_succeeds_without_noise():
    out = _run("04_adder_noise_sweep.py")
    line = next(line for line in out.splitlines() if line.startswith("noiseless success:"))
    assert abs(float(line.split(":")[1]) - 1.0) <= 1e-12, line
