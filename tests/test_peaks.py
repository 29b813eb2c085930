"""Each entry point's traced peak, in states of 8 * 4^n bytes, at n = 10.

The sweeps run the 3-bit adder 011 + 100 (10 qubits) under adder_sweep's
noise (f = g = 0.999, p = 0.95) over r = 1.0, 0.995, 0.99.  A sweep row
releases its state before the next row builds one, and the fidelity sweep
holds its noiseless reference besides: 2 and 3 states, where holding the
finished row read 2.26 and 3.26.  Building a state holds the state and the
quarter-state intermediate of its last outer product.  ``save_state`` holds
the state and one chunk's text, where the whole file's text read 8.5
states.  ``load_state`` holds the file's text and the state, where reading
the text held it twice: 5.7 states for a 2.8-state file.
"""

import os
import tracemalloc

import numpy as np
import pytest

from paulisim.circuit import parse_noise_config
from paulisim.engine import InitSpec, make_initial_state
from paulisim.generators import adder_success_pattern, gen_adder
from paulisim.state import _SAVE_CHUNK, PauliState, init_thermal, load_state, save_state
from paulisim.sweep import sweep

N = 10
STATE_BYTES = 8 * 4**N
NOISE = parse_noise_config("f = 0.999\ng = 0.999\np = 0.95")
ADDER = gen_adder("011", "100")
VALUES = [1.0, 0.995, 0.99]

# the Python objects a call makes besides its arrays: records, the schedule's
# matrices, dicts of pending factors
_OBJECT_SLACK = 65536


def _traced_peak(call) -> int:
    """The traced peak of ``call()`` in bytes, after one untraced call builds the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "metric, states",
    [("success:" + adder_success_pattern("011", "100"), 2.1), ("fidelity", 3.1)],
)
def test_a_sweep_holds_two_states_and_a_fidelity_sweep_its_reference_too(metric, states):
    peak = _traced_peak(lambda: sweep(ADDER, "r", VALUES, metric, NOISE))
    assert peak <= states * STATE_BYTES, f"{metric}: {peak / STATE_BYTES:.2f} states"


@pytest.mark.parametrize("kind", ["zero", "uniform", "thermal", "bitstring", "file"])
def test_an_initial_state_peaks_at_the_state_and_its_last_intermediate(kind):
    spec = InitSpec(kind, bits="0110100101", state=init_thermal(N, 0.9))
    peak = _traced_peak(lambda: make_initial_state(N, spec, NOISE))
    assert peak <= 1.35 * STATE_BYTES, f"{kind}: {peak / STATE_BYTES:.2f} states"


def test_save_state_holds_the_state_and_one_chunk_of_text():
    coeffs = np.random.default_rng(33).uniform(-1.0, 1.0, 4**N) * 2.0**-N
    coeffs[0] = 2.0**-N
    chunk = coeffs[:_SAVE_CHUNK]
    chunk_peak = _traced_peak(lambda: "\n".join(map(repr, chunk.tolist())) + "\n")
    tracemalloc.start()
    try:
        s = PauliState(N, coeffs.copy())  # the state, inside the window
        save_state(s, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STATE_BYTES + chunk_peak + _OBJECT_SLACK, f"{peak / STATE_BYTES:.2f} states"


def test_load_state_holds_the_file_text_and_the_state(tmp_path):
    # random values print at about 22 characters: a file of 2.8 states
    coeffs = np.random.default_rng(34).uniform(-1e-3, 1e-3, 4**N) * 2.0**-N
    coeffs[0] = 2.0**-N
    path = tmp_path / "ten.state"
    save_state(PauliState(N, coeffs), path)
    text = path.stat().st_size
    assert text > 2.5 * STATE_BYTES
    peak = _traced_peak(lambda: load_state(path))
    assert peak <= text + 1.1 * STATE_BYTES, f"{(peak - text) / STATE_BYTES:.2f} states besides the text"
    assert load_state(path).coeffs.tobytes() == coeffs.tobytes()
