"""End-to-end pipeline: parse, compile, execute with noise, report.

Execution first has the schedule check itself (``Schedule.angles``), then
builds and checks each PTM the run needs once, as stacks: gates, readouts,
reset, and each partition category's memory PTMs (see
``execute_schedule``).  Then it walks the
schedule partition by partition, applying gate members in the order the
partitioner emitted them (ascending qubit index; members of one partition
commute, so the order is a convention, not a semantic choice) and one
memory-noise step after every partition, all through private steps that
take those checked matrices.  ``verify_circuit`` runs the dense oracle on
the same schedule, which makes the same check and builds its own channels
once per run the same way.  All randomness is confined to optional shot
sampling of the recorded distributions; the evolution itself is
deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import gates, measurement, memory, oracle
from .circuit import Instruction, NoiseModel, parse_circuit
from .errors import StateFormatError
from .state import (
    DEFAULT_QUBIT_CAP,
    PauliState,
    _checked,
    _product,
    _transfer,
    check_capacity,
    init_bitstring,
    init_thermal,
    init_uniform,
    init_zero,
    load_state,
    purity,
)
from .transpile import Schedule, compile_circuit

# each measure mnemonic's row in measurement._readouts
_AXES = {"measure_x": 0, "measure_y": 1, "measure": 2}


@dataclass
class Record:
    """One measurement-type event in execution order."""

    kind: str  # measure | expect | ensemble | bell
    qubits: tuple[int, ...] = ()
    label: str = ""  # measure mnemonic or expect string
    values: tuple[float, ...] = ()
    dist: dict[str, float] | None = None
    counts: dict[str, int] | None = None


@dataclass
class RunReport:
    n: int
    instructions_before: int
    instructions_after: int
    schedule: Schedule  # the compiled schedule the run executed
    records: list[Record]
    final_state: PauliState
    saved_state: str | None = None
    wall_time_s: float = 0.0

    @property
    def partitions(self) -> int:
        return len(self.schedule)

    def to_text(self, timing: bool = True) -> str:
        lines = [
            f"qubits {self.n}",
            f"instructions {self.instructions_before} -> {self.instructions_after}",
            f"partitions {self.partitions}",
        ]
        for rec in self.records:
            if rec.kind == "expect":
                lines.append(f"expect {rec.label} = {rec.values[0]!r}")
            elif rec.kind == "measure":
                lines.append(
                    f"{rec.label} q[{rec.qubits[0]}]: p+ {rec.values[0]!r} p- {rec.values[1]!r}"
                )
            elif rec.kind == "ensemble":
                lines.append("ensemble:")
                for lab, p in rec.dist.items():
                    if p > 1e-12:
                        lines.append(f"  {lab} {p!r}")
            elif rec.kind == "bell":
                pairs = " ".join(f"{lab} {p!r}" for lab, p in rec.dist.items())
                lines.append(f"bell q[{rec.qubits[0]}],q[{rec.qubits[1]}]: {pairs}")
            if rec.counts is not None:
                body = " ".join(f"{lab} {c}" for lab, c in rec.counts.items() if c > 0)
                lines.append(f"  counts: {body}")
        lines.append(f"purity {purity(self.final_state)!r}")
        if self.saved_state is not None:
            lines.append(f"state saved to {self.saved_state}")
        if timing:
            lines.append(f"wall_time_s {self.wall_time_s:.3f}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class InitSpec:
    """A parsed ``--init`` option; ``file:`` holds the state read from the file."""

    kind: str  # zero | uniform | thermal | bitstring | file
    bits: str = ""
    state: PauliState | None = None


def parse_init(n: int, init: str) -> InitSpec:
    """Parse an option string for an n-qubit circuit, reading a state file once.

    Options: ``zero``, ``uniform``, ``thermal`` (population = noise p),
    ``bitstring:S`` and ``file:PATH``.
    """
    if init in ("zero", "uniform", "thermal"):
        return InitSpec(init)
    if init.startswith("bitstring:"):
        bits = init.partition(":")[2]
        if len(bits) != n:
            raise ValueError(f"bitstring length {len(bits)} does not match {n} qubits")
        return InitSpec("bitstring", bits=bits)
    if init.startswith("file:"):
        state = load_state(init.partition(":")[2])
        if state.n != n:
            raise StateFormatError(f"state file holds {state.n} qubits, circuit needs {n}")
        return InitSpec("file", state=state)
    raise ValueError(f"unknown init option {init!r}")


def make_initial_state(
    n: int, init: str | InitSpec, noise: NoiseModel, max_qubits: int = DEFAULT_QUBIT_CAP
) -> PauliState:
    """Build the starting state from an option string (see ``parse_init``) or its ``InitSpec``.

    ``max_qubits`` stays only because ``perfbench/replay.py`` passes
    ``DEFAULT_QUBIT_CAP`` by keyword.  The cap itself is fixed: a value
    above it raises ``CapacityError``, and the builders check n themselves.
    """
    check_capacity(max_qubits)
    spec = parse_init(n, init) if isinstance(init, str) else init
    if spec.kind == "zero":
        return init_zero(n)
    if spec.kind == "uniform":
        return init_uniform(n)
    if spec.kind == "thermal":
        return init_thermal(n, noise.p)
    if spec.kind == "bitstring":
        return init_bitstring(spec.bits)
    return spec.state.copy()  # execution updates the state in place


def _compile_text(
    circuit_text: str, init: str, cap: int
) -> tuple[int, list[Instruction], list[Instruction], Schedule, InitSpec]:
    """The entry points' front end: parse, refuse n > cap, compile, parse ``init``."""
    n, instructions = parse_circuit(circuit_text)
    check_capacity(n, cap)
    merged, schedule = compile_circuit(n, instructions)
    return n, instructions, merged, schedule, parse_init(n, init)


def execute_schedule(
    state: PauliState, schedule: Schedule, noise: NoiseModel
) -> list[Record]:
    """Run a compiled schedule in place, returning measurement records.

    ``Schedule.angles`` first checks every member and gathers the u1 and u3
    angles, so a bad member raises before the state changes.  Then each PTM
    a run can need is built and checked once, whether the schedule uses it
    or not: the u1 and u3 stacks, the cx PTM (``gates.cnot_transfer``,
    cached per noise pair), the readout stack (the x, y and z readouts, the
    z one the ensemble's update too, and reset's transfer), the Bell
    transfer, and each partition category's decoherence and decay PTMs
    (``memory._clock_step``, which leaves out a factor of 1).  The loop
    applies them in schedule order through the private steps, reading an
    expect string's digits at its step, and after each partition
    ``state._product`` composes its category's memory PTMs into every
    group's factor.
    """
    n = state.n
    u1, u3 = schedule.angles(n)
    u1_ptms = iter(_checked(gates.rotation_transfers("z", u1, noise), (len(u1), 4, 4)))
    thetas, phis, lams = np.array(u3, dtype=np.float64).reshape(-1, 3).T
    u3_ptms = iter(_checked(gates.u3_transfers(thetas, phis, lams, noise), (len(u3), 4, 4)))
    cx = _checked(gates.cnot_transfer(noise), (16, 16))
    axes, readouts = measurement._readouts(noise.d1)
    ensemble, reset = readouts[2], readouts[3]  # the z readout is the ensemble's update
    bell = _checked(measurement._bell_transfer(noise.d2), (16, 16))
    categories = {part.category for part in schedule.partitions}
    clock = {c: memory._clock_step(*noise.pair(c), noise.p) for c in categories}

    records: list[Record] = []
    for part in schedule.partitions:
        for ins in part.members:
            k = ins.kind
            if k == "u1":
                _transfer(state, (ins.qubits[0],), next(u1_ptms))
            elif k == "u3":
                _transfer(state, (ins.qubits[0],), next(u3_ptms))
            elif k == "cx":
                _transfer(state, (ins.qubits[0], ins.qubits[1]), cx)
            elif k == "reset":
                _transfer(state, ins.qubits, reset)
            elif k in _AXES:
                i = _AXES[k]
                probs = measurement._measure(state, ins.qubits[0], axes[i], readouts[i], noise.d1)
                records.append(Record("measure", ins.qubits, k, probs))
            elif k == "expect":
                digits = measurement._pauli_digits(ins.string, n)
                value = measurement._expect(state, digits, noise.d1, readouts)
                records.append(Record("expect", (), ins.string, (value,)))
            elif k == "ensemble":
                dist = measurement._ensemble(state, noise.d1, ensemble)
                records.append(Record("ensemble", (), "", (), dist))
            else:  # bell
                dist = measurement._bell(state, *ins.qubits, noise.d2, bell)
                records.append(Record("bell", ins.qubits, "", (), dist))
        _product(state, clock[part.category])
    return records


def _sample_counts(records: list[Record], shots: int, seed: int | None) -> None:
    rng = np.random.default_rng(seed)
    for rec in records:
        if rec.dist is not None:
            labels, probs = list(rec.dist.keys()), list(rec.dist.values())
        elif rec.kind == "measure":
            labels, probs = ["+", "-"], list(rec.values)
        else:
            continue
        draws = rng.multinomial(shots, np.array(probs))
        rec.counts = dict(zip(labels, draws.tolist()))


def run_circuit(
    circuit_text: str,
    noise: NoiseModel | None = None,
    init: str = "zero",
    shots: int = 0,
    seed: int | None = None,
) -> RunReport:
    """Full pipeline on circuit text; returns the report with final state."""
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    noise = noise or NoiseModel()
    start = time.perf_counter()
    n, instructions, merged, schedule, spec = _compile_text(circuit_text, init, DEFAULT_QUBIT_CAP)
    state = make_initial_state(n, spec, noise)
    records = execute_schedule(state, schedule, noise)
    if shots > 0:
        _sample_counts(records, shots, seed)
    return RunReport(
        n=n,
        instructions_before=len(instructions),
        instructions_after=len(merged),
        schedule=schedule,
        records=records,
        final_state=state,
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Dual-path verification against the dense oracle


@dataclass
class VerifyResult:
    n: int
    partitions: int
    state_divergence: float
    record_divergence: float
    records_checked: int = 0

    def to_text(self) -> str:
        lines = [
            f"qubits {self.n}",
            f"partitions {self.partitions}",
            f"records checked {self.records_checked}",
            f"max state divergence {self.state_divergence:.3e}",
            f"max record divergence {self.record_divergence:.3e}",
        ]
        return "\n".join(lines) + "\n"


def _dense_initial(n: int, spec: InitSpec, noise: NoiseModel) -> oracle.DenseState:
    if spec.kind == "zero":
        return oracle.dense_zero(n)
    if spec.kind == "uniform":
        return oracle.dense_uniform(n)
    if spec.kind == "thermal":
        return oracle.dense_thermal(n, noise.p)
    if spec.kind == "bitstring":
        return oracle.dense_bitstring(spec.bits)
    return oracle.to_dense(spec.state)


def _record_divergence(rec: Record, ref: tuple) -> float:
    if rec.kind == "expect":
        return abs(rec.values[0] - ref[2])
    if rec.kind == "measure":
        return max(abs(a - b) for a, b in zip(rec.values, ref[3]))
    dist_ref = ref[1] if rec.kind == "ensemble" else ref[2]
    return max(abs(rec.dist[lab] - dist_ref[lab]) for lab in rec.dist)


def verify_circuit(
    circuit_text: str, noise: NoiseModel | None = None, init: str = "zero"
) -> VerifyResult:
    """Run the coefficient engine and the dense oracle on the same schedule.

    Both paths share the compiled schedule and the noise model but nothing
    else: the oracle evolves a full complex density matrix, applying each
    noisy update as one Liouville superoperator built from its own Kraus
    operators and unitaries (pinned in tests to ``apply_kraus`` and
    ``apply_unitary``).  Reports the largest coefficient and record divergence.
    Circuits above ``oracle.ORACLE_QUBIT_CAP`` qubits raise ``CapacityError``
    before either state is allocated.
    """
    noise = noise or NoiseModel()
    n, _, _, schedule, spec = _compile_text(circuit_text, init, oracle.ORACLE_QUBIT_CAP)
    state = make_initial_state(n, spec, noise)
    records = execute_schedule(state, schedule, noise)

    dense = _dense_initial(n, spec, noise)
    dense_records = oracle.run_schedule_dense(dense, schedule, noise)

    state_div = float(np.max(np.abs(state.coeffs - oracle.from_dense(dense).coeffs)))
    if len(records) != len(dense_records):
        raise ValueError("record streams diverged in length")
    rec_div = max(map(_record_divergence, records, dense_records), default=0.0)
    return VerifyResult(
        n=n,
        partitions=len(schedule),
        state_divergence=state_div,
        record_divergence=rec_div,
        records_checked=len(records),
    )
