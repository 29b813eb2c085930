"""The demos run to completion against the package in ``src``.

``04_adder_noise_sweep.py`` is left out: it takes about 15 s, and every name
it imports is exercised by the other test modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
