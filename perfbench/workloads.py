"""Seeded input generation for the four benchmark workloads.

Each workload turns ``--seed`` (and the run length) into a fixed list of
operations.  An operation is one ``run_circuit``, one ``sweep`` or one
``verify_circuit`` call, described only by what the program receives:
circuit text, noise configuration text and options.  Nothing here imports
paulisim; the generated specs travel to a fresh child process as JSON.

Every generator fixes the *amount* of work per operation (instruction kinds
and counts, partition count) and draws only placement and angles from the
seed, so run-to-run spread reflects the machine rather than the draw.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("rand12", "adder_sweep", "deep_small", "verify7")

# Nominal seconds per operation at the commit that defined the benchmark,
# measured on a 2-vCPU x86-64 VM.  They only size the fixed operation list
# (ops = run seconds / nominal), so that a run of the defining commit takes
# about the requested seconds; they are constants, never re-measured, so
# the same seed and run length always give the same list.
NOMINAL_OP_S = {"rand12": 12.5, "adder_sweep": 11.0, "deep_small": 0.03, "verify7": 3.3}

# rand12 always starts with this fixed circuit, whose outputs are stored in
# reference.json; the seeded circuits that follow are checked by invariants.
RAND12_ANCHOR_SEED = 20190814

ADDER_BITS = 3
ADDER_SWEEP_VALUES = (1.0, 0.995, 0.99)

NOISE = {
    # the noise model of test_ten_qubit_hundred_instruction_runtime
    "rand12": {
        "r_x": 0.99, "r_y": 0.99, "r_z": 0.99, "r_cx": 0.99, "alpha_x": 0.01,
        "d1": 0.98, "f": 0.999, "g": 0.999, "p": 0.9,
    },
    "adder_sweep": {"f": 0.999, "g": 0.999, "p": 0.95},
    # rotation and readout noise on, memory noise off (f = g = 1)
    "deep_small": {
        "r_x": 0.995, "r_y": 0.993, "r_z": 0.997, "r_cx": 0.99,
        "alpha_x": 0.01, "alpha_y": -0.005, "alpha_z": 0.002, "alpha_cx": 0.02,
        "d1": 0.97, "d2": 0.95,
    },
    # all 15 keys
    "verify7": {
        "p": 0.92,
        "alpha_x": 0.01, "r_x": 0.995, "alpha_y": -0.01, "r_y": 0.99,
        "alpha_z": 0.005, "r_z": 0.998, "alpha_cx": 0.02, "r_cx": 0.98,
        "d1": 0.97, "d2": 0.95, "f": 0.995, "g": 0.997, "f_meas": 0.99, "g_meas": 0.993,
    },
}

NAMED = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")

# Instruction-kind counts of one mixed circuit; the order is shuffled per
# circuit.  Every mnemonic of the grammar appears.
DEEP_SMALL_MIX = {
    **{k: 10 for k in NAMED},
    "u1": 20, "u2": 16, "u3": 24, "cx": 48, "ccx": 8,
    "measure": 8, "measure_x": 6, "measure_y": 6, "reset": 6,
    "expect": 6, "bell": 6, "ensemble": 4, "barrier": 6,
}
VERIFY7_MIX = {
    **{k: 6 for k in NAMED},
    "u1": 14, "u2": 10, "u3": 20, "cx": 40, "ccx": 6,
    "measure": 8, "measure_x": 5, "measure_y": 5, "reset": 5,
    "expect": 5, "bell": 5, "ensemble": 3, "barrier": 6,
}


def noise_text(noise: dict[str, float]) -> str:
    """Noise configuration file text (``key = value`` lines)."""
    return "".join(f"{k} = {v!r}\n" for k, v in noise.items())


def _angle(rng: np.random.Generator) -> str:
    return f"{rng.uniform(-3.0, 3.0):.6f}"


def rand12_circuit(rng: np.random.Generator, n: int = 12) -> str:
    """20 instructions, 40% cx, ending in ensemble.

    A u3 on every qubit, then a random perfect matching of cx, then two cx
    on four distinct qubits: always 12 u3, 8 cx and 3 gate partitions.
    """
    lines = [f"qubits {n}"]
    for q in rng.permutation(n):
        lines.append(f"u3({_angle(rng)},{_angle(rng)},{_angle(rng)}) q[{q}]")
    for a, b in rng.permutation(n).reshape(-1, 2):
        lines.append(f"cx q[{a}],q[{b}]")
    for a, b in rng.choice(n, size=4, replace=False).reshape(-1, 2):
        lines.append(f"cx q[{a}],q[{b}]")
    lines.append("ensemble")
    return "\n".join(lines) + "\n"


def mixed_circuit(rng: np.random.Generator, n: int, mix: dict[str, int]) -> str:
    """Shuffled circuit with exactly ``mix[kind]`` instructions of each kind."""
    kinds = [k for k, c in mix.items() for _ in range(c)]
    lines = [f"qubits {n}"]
    for i in rng.permutation(len(kinds)):
        k = kinds[i]
        if k in NAMED or k in ("measure", "measure_x", "measure_y", "reset"):
            lines.append(f"{k} q[{rng.integers(n)}]")
        elif k == "u1":
            lines.append(f"u1({_angle(rng)}) q[{rng.integers(n)}]")
        elif k == "u2":
            lines.append(f"u2({_angle(rng)},{_angle(rng)}) q[{rng.integers(n)}]")
        elif k == "u3":
            lines.append(f"u3({_angle(rng)},{_angle(rng)},{_angle(rng)}) q[{rng.integers(n)}]")
        elif k in ("cx", "bell"):
            a, b = rng.choice(n, size=2, replace=False)
            lines.append(f"{k} q[{a}],q[{b}]")
        elif k == "ccx":
            a, b, c = rng.choice(n, size=3, replace=False)
            lines.append(f"ccx q[{a}],q[{b}],q[{c}]")
        elif k == "expect":
            lines.append("expect " + "".join(rng.choice(list("IXYZ"), size=n)))
        else:  # ensemble, barrier
            lines.append(k)
    return "\n".join(lines) + "\n"


def adder_pairs(bits: int = ADDER_BITS) -> list[tuple[str, str]]:
    """Addend pairs with three set bits between them.

    Every such pair compiles to the same counts (86 partitions, 65 u1,
    13 u3, 72 cx at 3 bits), so the draw moves placement, not work.
    """
    out = []
    for a in range(2**bits):
        for b in range(2**bits):
            if bin(a).count("1") + bin(b).count("1") == 3:
                out.append((format(a, f"0{bits}b"), format(b, f"0{bits}b")))
    return out


def op_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_OP_S[workload]))


def make_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """The fixed operation list of one run.

    Each op is a dict with ``kind`` (run | sweep | verify), ``circuit``,
    ``noise`` (config text) and the options of that entry point.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    count = op_count(workload, seconds)
    wid = WORKLOADS.index(workload)
    rngs = [np.random.default_rng([seed, wid, i]) for i in range(count)]
    noise = noise_text(NOISE[workload])
    ops: list[dict] = []
    if workload == "rand12":
        anchor = rand12_circuit(np.random.default_rng(RAND12_ANCHOR_SEED))
        circuits = [anchor] + [rand12_circuit(r) for r in rngs[1:]]
        for i, text in enumerate(circuits):
            ops.append({"kind": "run", "circuit": text, "noise": noise, "init": "zero",
                        "shots": 0, "seed": None, "anchor": i == 0})
    elif workload == "adder_sweep":
        pairs = adder_pairs()
        for r in rngs:
            a, b = pairs[r.integers(len(pairs))]
            ops.append({"kind": "sweep", "circuit": None, "addends": [a, b], "noise": noise,
                        "param": "r", "values": list(ADDER_SWEEP_VALUES), "init": "zero"})
    elif workload == "deep_small":
        for i, r in enumerate(rngs):
            ops.append({"kind": "run", "circuit": mixed_circuit(r, 6, DEEP_SMALL_MIX),
                        "noise": noise, "init": "zero", "shots": 1000,
                        "seed": int(r.integers(2**31))})
    else:
        for r in rngs:
            ops.append({"kind": "verify", "circuit": mixed_circuit(r, 7, VERIFY7_MIX),
                        "noise": noise, "init": "thermal"})
    return ops
