"""Noisy quantum-circuit simulator over Pauli-basis density matrices.

An n-qubit density matrix is stored as the 4^n real coefficients of its
Pauli-product expansion; gates act as small real transfer matrices along
base-4 digit axes, and every supported error channel (rotation angle noise,
readout damping, per-clock-step decoherence and decay) is a linear map on
the same coefficients.  A dense 2^n x 2^n oracle provides an independent
second route for validation.
"""

from .circuit import (
    Instruction,
    NoiseModel,
    parse_circuit,
    parse_noise_config,
    print_circuit,
)
from .engine import (
    Record,
    RunReport,
    VerifyResult,
    execute_schedule,
    make_initial_state,
    run_circuit,
    verify_circuit,
)
from .errors import (
    CapacityError,
    CircuitSyntaxError,
    CompileError,
    InternalError,
    SimulatorError,
    StateFormatError,
)
from .gates import (
    apply_cnot,
    apply_u1,
    apply_u3,
    cnot_transfer,
    named_gate_transfer,
    rotation_transfer,
)
from .generators import adder_success_pattern, gen_adder, gen_qft
from .measurement import (
    bell_measure,
    ensemble_distribution,
    expect_pauli_string,
    measure_qubit,
    reset_qubit,
)
from .memory import decay, decohere, end_of_partition
from .state import (
    DEFAULT_QUBIT_CAP,
    PauliState,
    init_bitstring,
    init_thermal,
    init_uniform,
    init_zero,
    load_state,
    overlap,
    partial_trace,
    purity,
    save_state,
)
from .sweep import SweepRow, build_noise, pattern_mass, sweep
from .transpile import (
    Partition,
    QubitStack,
    Schedule,
    build_stack,
    check_schedule,
    compile_circuit,
    decompose,
    format_schedule,
    merge,
    partition,
)

__all__ = [
    "CapacityError",
    "CircuitSyntaxError",
    "CompileError",
    "DEFAULT_QUBIT_CAP",
    "Instruction",
    "InternalError",
    "NoiseModel",
    "Partition",
    "PauliState",
    "QubitStack",
    "Record",
    "RunReport",
    "Schedule",
    "SimulatorError",
    "StateFormatError",
    "SweepRow",
    "VerifyResult",
    "adder_success_pattern",
    "apply_cnot",
    "apply_u1",
    "apply_u3",
    "bell_measure",
    "build_noise",
    "build_stack",
    "check_schedule",
    "cnot_transfer",
    "compile_circuit",
    "decay",
    "decohere",
    "decompose",
    "end_of_partition",
    "ensemble_distribution",
    "execute_schedule",
    "expect_pauli_string",
    "format_schedule",
    "gen_adder",
    "gen_qft",
    "init_bitstring",
    "init_thermal",
    "init_uniform",
    "init_zero",
    "load_state",
    "make_initial_state",
    "measure_qubit",
    "merge",
    "named_gate_transfer",
    "overlap",
    "parse_circuit",
    "parse_noise_config",
    "partial_trace",
    "partition",
    "pattern_mass",
    "print_circuit",
    "purity",
    "reset_qubit",
    "rotation_transfer",
    "run_circuit",
    "save_state",
    "sweep",
    "verify_circuit",
]
