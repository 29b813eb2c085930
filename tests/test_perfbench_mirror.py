"""The benchmark's replay must reproduce the entry points bit for bit.

``perfbench/replay.py`` re-runs ``run_circuit``, ``sweep`` and
``verify_circuit`` step by step inside timing spans, and a traced benchmark
run trusts its per-layer numbers only when the replay's digests equal those
of the entry point's own output.  Pinning that here makes a change under
``src/`` that breaks the mirror (a removed import or keyword, a reordered
``VerifyResult`` field, reordered arithmetic) fail in the unit suite, not
only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from paulisim import (
    adder_success_pattern,
    gen_adder,
    parse_noise_config,
    run_circuit,
    sweep,
    verify_circuit,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# every one of the 15 noise keys away from its noiseless value
FULL_NOISE = (
    "p = 0.92\n"
    "alpha_x = 0.01\nr_x = 0.995\nalpha_y = -0.01\nr_y = 0.99\n"
    "alpha_z = 0.005\nr_z = 0.998\nalpha_cx = 0.02\nr_cx = 0.98\n"
    "d1 = 0.97\nd2 = 0.95\nf = 0.995\ng = 0.997\nf_meas = 0.99\ng_meas = 0.993\n"
)

# after compiling, every kind the engine executes is in the schedule
RUN_CIRCUIT = """qubits 3
h q[0]
u1(0.3) q[1]
cx q[0],q[1]
u3(0.4,-0.2,1.1) q[2]
ccx q[0],q[1],q[2]
measure q[0]
measure_x q[1]
measure_y q[2]
t q[2]
cx q[2],q[0]
expect XZY
bell q[0],q[2]
reset q[1]
h q[1]
ensemble
"""
EXECUTED_KINDS = {
    "u1", "u3", "cx", "reset", "measure", "measure_x", "measure_y", "expect", "ensemble", "bell"
}

OPS = {
    "run": {
        "kind": "run", "circuit": RUN_CIRCUIT, "noise": FULL_NOISE,
        "init": "thermal", "shots": 100, "seed": 7,
    },
    "sweep": {
        "kind": "sweep", "circuit": gen_adder("11", "01"), "init": "zero",
        "noise": "f = 0.999\ng = 0.999\np = 0.95\n", "param": "r", "values": [1.0, 0.99],
        "metric": "success:" + adder_success_pattern("11", "01"),
    },
    "verify": {"kind": "verify", "circuit": RUN_CIRCUIT, "noise": FULL_NOISE, "init": "thermal"},
}


def _load(name: str):
    """A perfbench/ file as a module, imported in place without leaving a __pycache__ there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def replay():
    return _load("replay")


def _entry_point_digest(replay, op: dict) -> str:
    noise = parse_noise_config(op["noise"])
    if op["kind"] == "run":
        out = run_circuit(op["circuit"], noise, init=op["init"], shots=op["shots"], seed=op["seed"])
        return replay.digest_run(out.final_state.coeffs, out.records)
    if op["kind"] == "sweep":
        rows = sweep(op["circuit"], op["param"], op["values"], op["metric"], noise, init=op["init"])
        return replay.digest_sweep(rows)
    return replay.digest_verify(verify_circuit(op["circuit"], noise, init=op["init"]))


def test_run_op_executes_every_kind():
    report = run_circuit(RUN_CIRCUIT, parse_noise_config(FULL_NOISE), init="thermal")
    kinds = {ins.kind for part in report.schedule.partitions for ins in part.members}
    assert kinds == EXECUTED_KINDS


@pytest.mark.parametrize("kind", sorted(OPS))
def test_replay_matches_entry_point(replay, kind):
    op = OPS[kind]
    assert replay.REPLAY[kind](replay.Tracer(), op) == _entry_point_digest(replay, op)


def test_replay_matches_a_deep_small_circuit(replay):
    # a 6-qubit circuit of the deep_small mix, every noise key on and shots
    # drawn: the route on which the engine builds each run's PTMs as stacks
    workloads = _load("workloads")
    circuit = workloads.mixed_circuit(np.random.default_rng(21), 6, workloads.DEEP_SMALL_MIX)
    op = {
        "kind": "run", "circuit": circuit, "noise": FULL_NOISE,
        "init": "zero", "shots": 1000, "seed": 5,
    }
    assert replay.REPLAY["run"](replay.Tracer(), op) == _entry_point_digest(replay, op)
