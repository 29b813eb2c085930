"""Random circuit/state builders shared across test modules."""

from __future__ import annotations

import numpy as np

from paulisim import oracle
from paulisim.circuit import NoiseModel
from paulisim.state import PauliState

NAMED = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")


def random_circuit_text(
    rng: np.random.Generator,
    n: int,
    n_instr: int,
    select_only: bool = False,
    with_measures: bool = True,
    with_solos: bool = True,
) -> str:
    """A syntactically valid random circuit over the supported mnemonics."""
    gate_pool = ["u1", "u3", "u3", "cx"]
    if not select_only:
        gate_pool += list(NAMED) + ["u2"]
        if n >= 3:
            gate_pool.append("ccx")
    pool = list(gate_pool)
    if with_measures:
        pool += ["measure", "measure_x", "measure_y", "reset"]
    if with_solos:
        pool += ["expect", "ensemble", "barrier"]
        if n >= 2:
            pool.append("bell")

    lines = [f"qubits {n}"]
    for _ in range(n_instr):
        kind = pool[rng.integers(len(pool))]
        if kind == "cx" and n < 2:
            kind = "u3"
        if kind == "cx":
            a, b = rng.choice(n, size=2, replace=False)
            lines.append(f"cx q[{a}],q[{b}]")
        elif kind == "ccx":
            a, b, c = rng.choice(n, size=3, replace=False)
            lines.append(f"ccx q[{a}],q[{b}],q[{c}]")
        elif kind == "u1":
            lines.append(f"u1({rng.uniform(-3, 3):.6f}) q[{rng.integers(n)}]")
        elif kind == "u2":
            lines.append(f"u2({rng.uniform(-3, 3):.6f},{rng.uniform(-3, 3):.6f}) q[{rng.integers(n)}]")
        elif kind == "u3":
            t, p, l = rng.uniform(-3, 3, size=3)
            lines.append(f"u3({t:.6f},{p:.6f},{l:.6f}) q[{rng.integers(n)}]")
        elif kind in NAMED:
            lines.append(f"{kind} q[{rng.integers(n)}]")
        elif kind in ("measure", "measure_x", "measure_y", "reset"):
            lines.append(f"{kind} q[{rng.integers(n)}]")
        elif kind == "expect":
            lines.append("expect " + "".join(rng.choice(list("IXYZ"), size=n)))
        elif kind == "bell":
            a, b = rng.choice(n, size=2, replace=False)
            lines.append(f"bell q[{a}],q[{b}]")
        else:
            lines.append(kind)
    return "\n".join(lines) + "\n"


def random_noise(rng: np.random.Generator) -> NoiseModel:
    """Every one of the 15 keys set away from its noiseless default."""
    u = rng.uniform
    return NoiseModel(
        p=u(0.8, 1.0),
        alpha_x=u(-0.1, 0.1), r_x=u(0.9, 1.0),
        alpha_y=u(-0.1, 0.1), r_y=u(0.9, 1.0),
        alpha_z=u(-0.1, 0.1), r_z=u(0.9, 1.0),
        alpha_cx=u(-0.1, 0.1), r_cx=u(0.9, 1.0),
        d1=u(0.9, 1.0), d2=u(0.9, 1.0),
        f=u(0.95, 1.0), g=u(0.95, 1.0),
        f_meas=u(0.9, 1.0), g_meas=u(0.9, 1.0),
    )


def random_pauli_state(rng: np.random.Generator, n: int) -> PauliState:
    """A valid full-rank random mixed state, built densely as a random
    positive matrix of unit trace and converted."""
    dim = 2**n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return oracle.from_dense(oracle.DenseState(n, rho))


def run_alone(d: oracle.DenseState, call):
    """``call(run)`` on a dense-oracle run of its own over ``d``, for the steps
    no instruction can write: a raw Liouville pass (``run.apply``) or a
    measurement along a tilted axis (``run.measure``).  What the call leaves
    pending is applied, and rho put back in order, before it returns."""
    run = oracle._Run(d, oracle._readouts(1.0, 1.0))
    try:
        return call(run)
    finally:
        run.finish()


def assert_states_close(a: PauliState, b: PauliState, tol: float = 1e-12) -> None:
    assert a.n == b.n
    div = float(np.max(np.abs(a.coeffs - b.coeffs)))
    assert div < tol, f"coefficient divergence {div:.3e} exceeds {tol:.1e}"
