"""Compiler front-half: decomposition, single-qubit fusion, partitioning.

Circuits are lowered to the select set {u1, u3, cx}, maximal runs of
consecutive one-qubit gates are fused per qubit, and the result is split
into clock-step partitions by as-soon-as-possible layering in one pass.
The program falls into phases: runs of one category (gate or measurement),
cut at every barrier and category change; each whole-register instruction
(expect, ensemble, bell) is a phase and a partition of its own.  A phase
opens a fresh partition.  Each gate or measurement joins the earliest
partition of its phase that comes after the last one holding any of its
qubits; a measurement also never goes before the measurement preceding it
in source order.  Gate members are listed by lowest qubit, measurement
members in source order.

Idle time between partitions is where memory noise elapses, so partition
count is the circuit's effective clock depth.

Every kind's shape and category come from the one table ``circuit.KINDS``:
``category_of`` reads its category, and ``merge`` and ``_touched`` which
kinds take the whole register.  There are two checks.  ``compile_circuit``
walks the instructions its caller wrote once, before any stage runs, and
refuses each bad one by its source form; ``decompose``, ``merge`` and
``partition`` are stages over that checked input and refuse nothing.
``Schedule.angles`` checks a compiled schedule before a run, for the engine
and the dense oracle alike.  ``check_schedule`` is not an input check: it
tests the stages' output against their input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import KINDS, SCHEDULE_KINDS, _NAMED_SELECT, Instruction, check_shape, format_instruction
from .errors import CompileError, InternalError

_PI = math.pi
_ZERO_TOL = 1e-12


def category_of(kind: str) -> str | None:
    """Partition category of a kind of ``circuit.KINDS``; None for barriers.

    It reads the table and refuses nothing: ``compile_circuit`` refuses an
    unknown kind before any stage asks.
    """
    return KINDS[kind].category


def _touched(ins: Instruction, n: int) -> tuple[int, ...]:
    if KINDS[ins.kind].qubits is None:  # expect, ensemble, barrier
        return tuple(range(n))
    return ins.qubits


# ---------------------------------------------------------------------------
# Decomposition to the select set


def _toffoli_sequence(a: int, b: int, t: int) -> list[Instruction]:
    """Toffoli as 6 controlled-NOTs plus one-qubit gates (exact, phase-free).

    The one-qubit gates come out in their select-set forms already.
    """
    seq = [
        ("h", (t,)),
        ("cx", (b, t)),
        ("tdg", (t,)),
        ("cx", (a, t)),
        ("t", (t,)),
        ("cx", (b, t)),
        ("tdg", (t,)),
        ("cx", (a, t)),
        ("t", (b,)),
        ("t", (t,)),
        ("h", (t,)),
        ("cx", (a, b)),
        ("t", (a,)),
        ("tdg", (b,)),
        ("cx", (a, b)),
    ]
    out = []
    for name, qubits in seq:
        kind, angles = _NAMED_SELECT.get(name, (name, ()))
        out.append(Instruction(kind, qubits, angles))
    return out


def decompose(instructions: list[Instruction]) -> list[Instruction]:
    """Rewrite every gate into the select set {u1, u3, cx}.

    It takes checked input, as ``compile_circuit`` or the parser hands it
    on, and refuses nothing.  Named gates take their forms in
    ``circuit._NAMED_SELECT``; u2 and ccx expand; u1, u3, cx, measurements,
    reset, solo readouts and barriers pass untouched.
    """
    out: list[Instruction] = []
    for ins in instructions:
        k = ins.kind
        if k in _NAMED_SELECT:
            kind, angles = _NAMED_SELECT[k]
            out.append(Instruction(kind, ins.qubits, angles))
        elif k == "u2":
            out.append(Instruction("u3", ins.qubits, (_PI / 2, ins.angles[0], ins.angles[1])))
        elif k == "ccx":
            out.extend(_toffoli_sequence(*ins.qubits))
        else:
            out.append(ins)
    return out


# ---------------------------------------------------------------------------
# Single-qubit fusion


def _wrap_angle(a: float) -> float:
    """Reduce to the canonical branch (-pi, pi]."""
    r = math.remainder(a, 2.0 * _PI)
    return r + 2.0 * _PI if r <= -_PI else r


def _su2_ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _su2_rz(l: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * l), np.exp(0.5j * l)])


def _zyz(theta2: float, lam: float, theta1: float) -> tuple[float, float, float]:
    """Angles (alpha, beta, gamma) with Rz(a)Ry(b)Rz(g) = Ry(t2)Rz(lam)Ry(t1).

    The product is SU(2), [[a, -conj(b)], [b, conj(a)]]; beta comes from the
    moduli via atan2, the z angles from the phases, with the degenerate
    branches (|a| or |b| ~ 0) pinned to 0.
    """
    m = _su2_ry(theta2) @ _su2_rz(lam) @ _su2_ry(theta1)
    a, b = m[0, 0], m[1, 0]
    beta = 2.0 * math.atan2(abs(b), abs(a))
    ssum = -2.0 * np.angle(a) if abs(a) > _ZERO_TOL else 0.0
    sdiff = 2.0 * np.angle(b) if abs(b) > _ZERO_TOL else 0.0
    return (ssum + sdiff) / 2.0, beta, (ssum - sdiff) / 2.0


def _fuse(kind: str, angles: tuple[float, ...], ins: Instruction) -> tuple[str, tuple[float, ...]]:
    """A run's (kind, angles), "u1" or "u3", after one more gate ``ins`` on its qubit."""
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
    alpha, beta, gamma = _zyz(t2, l2 + f1, t1)
    return "u3", (beta, f2 + alpha, gamma + l1)


def _fused(q: tuple[int, ...], kind: str, angles: tuple[float, ...]) -> Instruction:
    """The one gate of a run of two or more, angles on the canonical branch."""
    if kind == "u1":
        return Instruction("u1", q, (_wrap_angle(angles[0]),))
    t, f, l = angles
    if abs(_wrap_angle(t)) < _ZERO_TOL:
        return Instruction("u1", q, (_wrap_angle(f + l),))
    return Instruction("u3", q, (_wrap_angle(t), _wrap_angle(f), _wrap_angle(l)))


def merge(n: int, instructions: list[Instruction]) -> list[Instruction]:
    """Fuse every maximal per-qubit run of consecutive u1/u3 into one gate.

    The fused gate takes the flat position of the run's first member, so the
    output's gate/measurement phase structure matches the source circuit's.
    A gate that runs alone keeps its source form.  A fused identity still
    emits (as u1(0)); gate count never increases.  It takes checked input.
    """
    out: list[Instruction] = []
    open_runs: dict[int, int] = {}  # qubit -> place in out of its open run's first gate
    fused: dict[int, tuple] = {}  # place in out -> (kind, angles) of a run of two or more
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
                fused[i] = _fuse(*fused.get(i, (first.kind, first.angles)), ins)
            continue
        if KINDS[kind].qubits is None:  # the runs stay in out at their start positions
            open_runs.clear()
        else:
            for q in ins.qubits:
                open_runs.pop(q, None)
        out.append(ins)
    for i, (kind, angles) in fused.items():
        out[i] = _fused(out[i].qubits, kind, angles)
    return out


# ---------------------------------------------------------------------------
# Partitioner


@dataclass(frozen=True)
class QubitStack:
    """Partitioner input: the register size and the fused instruction list."""

    n: int
    instructions: tuple[Instruction, ...]


def build_stack(n: int, instructions: list[Instruction]) -> QubitStack:
    """Package a fused program for ``partition``."""
    return QubitStack(n, tuple(instructions))


@dataclass
class Partition:
    category: str
    members: list[Instruction]


@dataclass
class Schedule:
    partitions: list[Partition] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.partitions)

    def angles(self, n: int) -> tuple[list[float], list[tuple[float, float, float]]]:
        """The u1 angles and the u3 angle triples, in schedule order, of a run
        on n qubits, once every member is checked.

        This is the one run-time check of a schedule, which
        ``execute_schedule`` and the dense oracle both make before their
        state changes, so they refuse the same members with the same
        messages.  One walk refuses a member whose kind no schedule holds
        (``circuit.SCHEDULE_KINDS``) or that ``circuit.check_shape`` refuses
        (a wrong angle or qubit count, an angle that is not finite, a bad
        expect string) with ``ValueError``, one on a qubit outside 0..n-1
        with ``IndexError``, and one on a qubit twice with ``ValueError``.
        Each message names the member.  A schedule that ``compile_circuit``
        returns passes; a hand-built one need not.
        """
        u1, u3 = [], []
        for part in self.partitions:
            for ins in part.members:
                k = ins.kind
                if k not in SCHEDULE_KINDS:
                    raise ValueError(f"unexpected kind {k!r} in schedule: {format_instruction(ins)}")
                check_shape(ins, n)
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


def _lowest_qubit(ins: Instruction) -> int:
    return min(ins.qubits)


def partition(stack: QubitStack) -> Schedule:
    """Place each instruction in the first partition its phase and qubits allow.

    It takes checked input, every qubit in the register and none listed
    twice, as ``compile_circuit`` or the parser hands it on, and refuses
    nothing.
    """
    parts: list[Partition] = []
    free = [0] * stack.n  # first partition each qubit may join next
    start = 0  # first partition of the current phase
    last_measure = 0  # partition of the latest measurement
    prev: str | None = None
    for ins in stack.instructions:
        cat = category_of(ins.kind)
        if cat != prev or cat == "solo":
            start = len(parts)
        prev = cat
        if cat is None:  # a barrier only ends the phase
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
            part.members.sort(key=_lowest_qubit)
    return Schedule(parts)


# ---------------------------------------------------------------------------
# Structural validation and formatting


def check_schedule(schedule: Schedule, n: int, instructions: list[Instruction]) -> None:
    """Assert every Schedule invariant against the source instruction list.

    One pass: each member takes the next source rank of its object, and the
    ranks on each qubit must grow.  Raises InternalError on violation.
    """
    unplaced: dict[int, list[int]] = {}  # object id -> source ranks, next one last
    for rank in reversed(range(len(instructions))):
        if instructions[rank].kind != "barrier":
            unplaced.setdefault(id(instructions[rank]), []).append(rank)
    last = [-1] * n  # source rank of the latest member touching each qubit
    bad: set[int] = set()
    for part in schedule.partitions:
        cats = {category_of(m.kind) for m in part.members}
        if cats != {part.category}:
            raise InternalError(f"partition tagged {part.category} holds {sorted(cats, key=str)}")
        if part.category == "solo" and len(part.members) != 1:
            raise InternalError("expect/ensemble/bell must be alone in a partition")
        gate = part.category == "gate"
        used: set[int] = set()
        for m in part.members:
            ranks = unplaced.get(id(m))
            rank = ranks.pop() if ranks else None
            for q in _touched(m, n):
                if gate and q in used:
                    raise InternalError(f"qubit {q} used twice in one gate partition")
                used.add(q)
                if rank is not None and rank > last[q]:
                    last[q] = rank
                else:
                    bad.add(q)  # reordered, repeated or not in the source
    for rank in (r for ranks in unplaced.values() for r in ranks):  # dropped
        bad.update(_touched(instructions[rank], n))
    if bad:
        raise InternalError(f"schedule reorders the instructions of qubit {min(bad)}")


def format_schedule(schedule: Schedule) -> str:
    """One partition per line: index, category, members."""
    lines = [
        f"{i} {part.category} | " + " ; ".join(format_instruction(m) for m in part.members)
        for i, part in enumerate(schedule.partitions)
    ]
    return "\n".join(lines) + "\n"


def compile_circuit(
    n: int, instructions: list[Instruction]
) -> tuple[list[Instruction], Schedule]:
    """decompose + merge + partition on checked input, the schedule checked structurally.

    This is the one compile-time check of hand-built instructions (the
    parser refuses the same faults in text).  One walk over ``instructions``,
    before any stage runs, raises ``CompileError`` on the first one whose
    kind, angle count, qubit count, angles or expect string
    ``circuit.check_shape`` refuses, or that lists a qubit outside 0..n-1 or
    one qubit twice.  The message ends with the instruction as the caller
    wrote it, not a gate a stage made of it.  A compiled schedule is checked
    again before a run by ``Schedule.angles``.
    """
    register = frozenset(range(n))
    for ins in instructions:
        check_shape(ins, n, CompileError)
        qs = ins.qubits
        if not register.issuperset(qs) or len(qs) > 1 and len(set(qs)) < len(qs):
            raise CompileError(f"need distinct qubits in 0..{n - 1}: {format_instruction(ins)}")
    merged = merge(n, decompose(instructions))
    schedule = partition(build_stack(n, merged))
    check_schedule(schedule, n, merged)
    return merged, schedule
