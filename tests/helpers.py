"""Random circuit/state builders shared across test modules, and reference
copies of the compiler's walks."""

from __future__ import annotations

import math as _math

import numpy as np

from paulisim import oracle
from paulisim.circuit import (
    _NAMED_SELECT,
    _PAULI_LABELS,
    KINDS,
    SCHEDULE_KINDS,
    Instruction,
    NoiseModel,
    format_instruction,
)
from paulisim.errors import InternalError
from paulisim.state import PauliState
from paulisim.transpile import Partition, Schedule

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


# ---------------------------------------------------------------------------
# Reference copies of the compiler's walks as they stood before they were
# rewritten to read each record once (flat kind tables, no named-tuple
# constructor, no numpy wrappers in the fusion).  The pins in
# test_reference_walks.py hold the rewritten walks to these, bit for bit and
# message for message.

_REF_ZERO_TOL = 1e-12


def reference_check_shape(ins: Instruction, n: int, error: type[Exception] = ValueError) -> None:
    kind = KINDS.get(ins.kind)
    if kind is None:
        raise error(f"unknown kind {ins.kind!r}: {format_instruction(ins)}")
    n_angles, n_qubits, _ = kind
    if len(ins.angles) != n_angles or len(ins.qubits) != (n_qubits or 0):
        want = "no qubits" if n_qubits is None else f"{n_qubits} qubit(s)"
        raise error(f"{ins.kind} needs {n_angles} angle(s) and {want}: {format_instruction(ins)}")
    if n_angles and not all(map(_math.isfinite, ins.angles)):  # u1, u2, u3
        raise error(f"{ins.kind} needs finite angles: {format_instruction(ins)}")
    if ins.kind == "expect":
        if len(ins.string) != n or not _PAULI_LABELS.issuperset(ins.string):
            raise error(f"expect needs {n} Pauli labels in IXYZ: {format_instruction(ins)}")


def reference_angles(schedule: Schedule, n: int) -> tuple[list[float], list[tuple[float, float, float]]]:
    u1, u3 = [], []
    for part in schedule.partitions:
        for ins in part.members:
            k = ins.kind
            if k not in SCHEDULE_KINDS:
                raise ValueError(f"unexpected kind {k!r} in schedule: {format_instruction(ins)}")
            reference_check_shape(ins, n)
            qs = ins.qubits
            for q in qs:
                if not 0 <= q < n:
                    raise IndexError(f"qubit index {q} out of range for n={n}: {format_instruction(ins)}")
            if len(qs) == 2 and qs[0] == qs[1]:  # cx, bell
                raise ValueError(f"{k} needs distinct qubits: {format_instruction(ins)}")
            if k == "u1":
                u1.append(ins.angles[0])
            elif k == "u3":
                u3.append(ins.angles)
    return u1, u3


def _ref_category_of(kind: str) -> str | None:
    return KINDS[kind].category


def _ref_touched(ins: Instruction, n: int) -> tuple[int, ...]:
    if KINDS[ins.kind].qubits is None:  # expect, ensemble, barrier
        return tuple(range(n))
    return ins.qubits


def _ref_toffoli_sequence(a: int, b: int, t: int) -> list[Instruction]:
    seq = [("h", (t,)), ("cx", (b, t)), ("tdg", (t,)), ("cx", (a, t)), ("t", (t,)), ("cx", (b, t)),
           ("tdg", (t,)), ("cx", (a, t)), ("t", (b,)), ("t", (t,)), ("h", (t,)), ("cx", (a, b)),
           ("t", (a,)), ("tdg", (b,)), ("cx", (a, b))]
    out = []
    for name, qubits in seq:
        kind, angles = _NAMED_SELECT.get(name, (name, ()))
        out.append(Instruction(kind, qubits, angles))
    return out


def reference_decompose(instructions: list[Instruction]) -> list[Instruction]:
    out: list[Instruction] = []
    for ins in instructions:
        k = ins.kind
        if k in _NAMED_SELECT:
            kind, angles = _NAMED_SELECT[k]
            out.append(Instruction(kind, ins.qubits, angles))
        elif k == "u2":
            out.append(Instruction("u3", ins.qubits, (_math.pi / 2, ins.angles[0], ins.angles[1])))
        elif k == "ccx":
            out.extend(_ref_toffoli_sequence(*ins.qubits))
        else:
            out.append(ins)
    return out


def _ref_wrap_angle(a: float) -> float:
    r = _math.remainder(a, 2.0 * _math.pi)
    return r + 2.0 * _math.pi if r <= -_math.pi else r


def _ref_su2_ry(t: float) -> np.ndarray:
    c, s = _math.cos(t / 2), _math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _ref_su2_rz(l: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * l), np.exp(0.5j * l)])


def reference_zyz(theta2: float, lam: float, theta1: float) -> tuple[float, float, float]:
    m = _ref_su2_ry(theta2) @ _ref_su2_rz(lam) @ _ref_su2_ry(theta1)
    a, b = m[0, 0], m[1, 0]
    beta = 2.0 * _math.atan2(abs(b), abs(a))
    ssum = -2.0 * np.angle(a) if abs(a) > _REF_ZERO_TOL else 0.0
    sdiff = 2.0 * np.angle(b) if abs(b) > _REF_ZERO_TOL else 0.0
    return (ssum + sdiff) / 2.0, beta, (ssum - sdiff) / 2.0


def _ref_fuse(kind: str, angles: tuple[float, ...], ins: Instruction) -> tuple[str, tuple[float, ...]]:
    if kind == "u1" and ins.kind == "u1":
        return "u1", (angles[0] + ins.angles[0],)
    if kind == "u1":
        t, f, l = ins.angles
        return "u3", (t, f, l + angles[0])
    if ins.kind == "u1":
        t, f, l = angles
        return "u3", (t, f + ins.angles[0], l)
    t1, f1, l1 = angles
    t2, f2, l2 = ins.angles
    alpha, beta, gamma = reference_zyz(t2, l2 + f1, t1)
    return "u3", (beta, f2 + alpha, gamma + l1)


def _ref_fused(q: tuple[int, ...], kind: str, angles: tuple[float, ...]) -> Instruction:
    if kind == "u1":
        return Instruction("u1", q, (_ref_wrap_angle(angles[0]),))
    t, f, l = angles
    if abs(_ref_wrap_angle(t)) < _REF_ZERO_TOL:
        return Instruction("u1", q, (_ref_wrap_angle(f + l),))
    return Instruction("u3", q, (_ref_wrap_angle(t), _ref_wrap_angle(f), _ref_wrap_angle(l)))


def reference_merge(n: int, instructions: list[Instruction]) -> list[Instruction]:
    out: list[Instruction] = []
    open_runs: dict[int, int] = {}
    fused: dict[int, tuple] = {}
    for ins in instructions:
        kind = ins.kind
        if kind == "u1" or kind == "u3":
            q = ins.qubits[0]
            i = open_runs.get(q)
            if i is None:
                open_runs[q] = len(out)
                out.append(ins)
            else:
                first = out[i]
                fused[i] = _ref_fuse(*fused.get(i, (first.kind, first.angles)), ins)
            continue
        if KINDS[kind].qubits is None:
            open_runs.clear()
        else:
            for q in ins.qubits:
                open_runs.pop(q, None)
        out.append(ins)
    for i, (kind, angles) in fused.items():
        out[i] = _ref_fused(out[i].qubits, kind, angles)
    return out


def _ref_lowest_qubit(ins: Instruction) -> int:
    return min(ins.qubits)


def reference_partition(stack) -> Schedule:
    parts: list[Partition] = []
    free = [0] * stack.n
    start = 0
    last_measure = 0
    prev: str | None = None
    for ins in stack.instructions:
        cat = _ref_category_of(ins.kind)
        if cat != prev or cat == "solo":
            start = len(parts)
        prev = cat
        if cat is None:
            continue
        if cat == "solo":
            parts.append(Partition("solo", [ins]))
            continue
        slot = start
        for q in ins.qubits:
            if free[q] > slot:
                slot = free[q]
        if cat == "measurement":
            if last_measure > slot:
                slot = last_measure
            last_measure = slot
        if slot == len(parts):
            parts.append(Partition(cat, []))
        parts[slot].members.append(ins)
        for q in ins.qubits:
            free[q] = slot + 1
    for part in parts:
        if part.category == "gate":
            part.members.sort(key=_ref_lowest_qubit)
    return Schedule(parts)


def reference_check_schedule(schedule: Schedule, n: int, instructions: list[Instruction]) -> None:
    unplaced: dict[int, list[int]] = {}
    for rank in reversed(range(len(instructions))):
        if instructions[rank].kind != "barrier":
            unplaced.setdefault(id(instructions[rank]), []).append(rank)
    last = [-1] * n
    bad: set[int] = set()
    for part in schedule.partitions:
        cats = {_ref_category_of(m.kind) for m in part.members}
        if cats != {part.category}:
            raise InternalError(f"partition tagged {part.category} holds {sorted(cats, key=str)}")
        if part.category == "solo" and len(part.members) != 1:
            raise InternalError("expect/ensemble/bell must be alone in a partition")
        gate = part.category == "gate"
        used: set[int] = set()
        for m in part.members:
            ranks = unplaced.get(id(m))
            rank = ranks.pop() if ranks else None
            for q in _ref_touched(m, n):
                if gate and q in used:
                    raise InternalError(f"qubit {q} used twice in one gate partition")
                used.add(q)
                if rank is not None and rank > last[q]:
                    last[q] = rank
                else:
                    bad.add(q)
    for rank in (r for ranks in unplaced.values() for r in ranks):
        bad.update(_ref_touched(instructions[rank], n))
    if bad:
        raise InternalError(f"schedule reorders the instructions of qubit {min(bad)}")
