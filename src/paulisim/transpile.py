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

Every kind's shape and category come from the one table ``circuit.KINDS``,
through its flat views: ``partition`` and ``check_schedule`` read
``circuit.CATEGORY``, and ``merge`` and ``check_schedule`` read which
kinds take the whole register from ``circuit.WHOLE_REGISTER``.  Each walk reads from a record only the fields
it needs, once.  Each instruction is checked once.  Circuit text is checked
by the parser, and the engine hands the parser's records straight to
``compile_checked``.  A hand-built list is checked by ``compile_circuit``'s
door, one walk over the instructions its caller wrote before any stage
runs, which refuses each bad one by its source form.  ``decompose``,
``merge`` and ``partition`` are stages over checked input and refuse
nothing.  ``Schedule.angles`` checks a compiled schedule before a run, for
the engine and the dense oracle alike.  ``check_schedule`` is not an input
check: it tests the stages' output against their input.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    CATEGORY,
    SCHEDULE_KINDS,
    WHOLE_REGISTER,
    _NAMED_SELECT,
    Instruction,
    check_shape,
    format_instruction,
)
from .errors import CompileError, InternalError

_PI = math.pi
_ZERO_TOL = 1e-12

# a record from its four fields, without the named tuple's Python-level __new__
_new = tuple.__new__


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
        out.append(_new(Instruction, (kind, qubits, angles, "")))
    return out


def decompose(instructions: list[Instruction]) -> list[Instruction]:
    """Rewrite every gate into the select set {u1, u3, cx}.

    It takes checked input, the parser's records or what ``compile_circuit``'s
    door let through, and refuses nothing.  Named gates take their forms in
    ``circuit._NAMED_SELECT``; u2 and ccx expand; u1, u3, cx, measurements,
    reset, solo readouts and barriers pass untouched.  It reads a record's
    kind, and its qubits and angles only when it rewrites the record.
    """
    out: list[Instruction] = []
    append = out.append
    for ins in instructions:
        k = ins.kind
        select = _NAMED_SELECT.get(k)
        if select is not None:
            append(_new(Instruction, (select[0], ins.qubits, select[1], "")))
        elif k == "u2":
            f, l = ins.angles
            append(_new(Instruction, ("u3", ins.qubits, (_PI / 2, f, l), "")))
        elif k == "ccx":
            out.extend(_toffoli_sequence(*ins.qubits))
        else:
            append(ins)
    return out


# ---------------------------------------------------------------------------
# Single-qubit fusion


def _wrap_angle(a: float) -> float:
    """Reduce to the canonical branch (-pi, pi]."""
    r = math.remainder(a, 2.0 * _PI)
    return r + 2.0 * _PI if r <= -_PI else r


def _reduced(a: float) -> float:
    """``a`` reduced into [-pi, pi] through its sine and cosine.

    ``math.sin`` and ``math.cos`` reduce by pi itself; ``_wrap_angle``'s
    remainder is by the float 2 pi, which is 2.4e-16 short, so near the float
    maximum it is off by whole turns.
    """
    return math.atan2(math.sin(a), math.cos(a))


def _add(a: float, b: float) -> float:
    """``a + b`` of two finite angles, or, where that overflows, the sum of
    both reduced into [-pi, pi] (the same gate)."""
    s = a + b
    return s if math.isfinite(s) else _reduced(a) + _reduced(b)


def _zyz(theta2: float, lam: float, theta1: float) -> tuple[float, float, float]:
    """Angles (alpha, beta, gamma) with Rz(a)Ry(b)Rz(g) = Ry(t2)Rz(lam)Ry(t1).

    The product is SU(2), [[a, -conj(b)], [b, conj(a)]]; beta comes from the
    moduli via atan2, the z angles from the phases (numpy's arctan2, the
    function ``np.angle`` calls), with the degenerate branches (|a| or
    |b| ~ 0) pinned to 0.  The Ry, Rz, Ry product is made of the same two
    2x2 complex products as ever, so the angles keep their bits.
    """
    c2, s2 = math.cos(theta2 / 2), math.sin(theta2 / 2)
    c1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
    m = (
        np.array(((c2, -s2), (s2, c2)), dtype=np.complex128)
        @ np.array(((np.exp(-0.5j * lam), 0j), (0j, np.exp(0.5j * lam))))
        @ np.array(((c1, -s1), (s1, c1)), dtype=np.complex128)
    )
    (a, _), (b, _) = m.tolist()
    abs_a, abs_b = abs(a), abs(b)
    beta = 2.0 * math.atan2(abs_b, abs_a)
    ssum = -2.0 * float(np.arctan2(a.imag, a.real)) if abs_a > _ZERO_TOL else 0.0
    sdiff = 2.0 * float(np.arctan2(b.imag, b.real)) if abs_b > _ZERO_TOL else 0.0
    return (ssum + sdiff) / 2.0, beta, (ssum - sdiff) / 2.0


def _fuse(kind: str, angles: tuple[float, ...], ins: Instruction) -> tuple[str, tuple[float, ...]]:
    """A run's (kind, angles), "u1" or "u3", after one more gate ``ins`` on its qubit.

    A sum of two angles that overflows adds them reduced (``_add``).
    """
    k, more = ins.kind, ins.angles
    if kind == "u1" and k == "u1":
        return "u1", (_add(angles[0], more[0]),)
    if kind == "u1":
        t, f, l = more
        return "u3", (t, f, _add(l, angles[0]))
    if k == "u1":
        t, f, l = angles
        return "u3", (t, _add(f, more[0]), l)
    t1, f1, l1 = angles
    t2, f2, l2 = more
    alpha, beta, gamma = _zyz(t2, _add(l2, f1), t1)
    return "u3", (beta, f2 + alpha, gamma + l1)


def _fused(q: tuple[int, ...], kind: str, angles: tuple[float, ...]) -> Instruction:
    """The one gate of a run of two or more, angles on the canonical branch."""
    if kind == "u1":
        return _new(Instruction, ("u1", q, (_wrap_angle(angles[0]),), ""))
    t, f, l = angles
    if abs(_wrap_angle(t)) < _ZERO_TOL:
        return _new(Instruction, ("u1", q, (_wrap_angle(_add(f, l)),), ""))
    return _new(Instruction, ("u3", q, (_wrap_angle(t), _wrap_angle(f), _wrap_angle(l)), ""))


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
                run = fused.get(i)
                if run is None:
                    first = out[i]
                    run = first.kind, first.angles
                fused[i] = _fuse(*run, ins)
            continue
        if kind in WHOLE_REGISTER:  # the runs stay in out at their start positions
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
        or ``compile_checked`` returns passes; a hand-built one need not.
        """
        u1, u3 = [], []
        for part in self.partitions:
            for ins in part.members:
                k, qs = ins.kind, ins.qubits
                if k not in SCHEDULE_KINDS:
                    raise ValueError(f"unexpected kind {k!r} in schedule: {format_instruction(ins)}")
                check_shape(ins, n)
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
    twice, as the parser or ``compile_circuit``'s door hands it on, and
    refuses nothing.  It reads a record's kind, and its qubits unless it is
    a barrier or a solo readout.
    """
    parts: list[Partition] = []
    free = [0] * stack.n  # first partition each qubit may join next
    start = 0  # first partition of the current phase
    last_measure = 0  # partition of the latest measurement
    prev: str | None = None
    for ins in stack.instructions:
        cat = CATEGORY[ins.kind]
        if cat != prev or cat == "solo":
            start = len(parts)
        prev = cat
        if cat is None:  # a barrier only ends the phase
            continue
        if cat == "solo":
            parts.append(Partition("solo", [ins]))
            continue
        qs = ins.qubits
        slot = start
        for q in qs:
            if free[q] > slot:
                slot = free[q]
        if cat == "measurement":
            if last_measure > slot:
                slot = last_measure
            last_measure = slot
        if slot == len(parts):
            parts.append(Partition(cat, []))
        parts[slot].members.append(ins)
        for q in qs:
            free[q] = slot + 1
    for part in parts:  # a lone member is sorted already
        if part.category == "gate" and len(part.members) > 1:
            part.members.sort(key=_lowest_qubit)
    return Schedule(parts)


# ---------------------------------------------------------------------------
# Structural validation and formatting


def check_schedule(schedule: Schedule, n: int, instructions: list[Instruction]) -> None:
    """Assert every Schedule invariant against the source instruction list.

    One pass: each member takes the next source rank of its object, and the
    ranks on each qubit must grow.  Raises InternalError on violation.
    """
    # object id -> its next unplaced source rank; an object listed more than
    # once keeps its further ranks, last first, in ``later``
    rank_of = {id(ins): rank for rank, ins in enumerate(instructions)}
    later: dict[int, list[int]] = {}
    if len(rank_of) < len(instructions):
        rank_of.clear()
        for rank in reversed(range(len(instructions))):
            key = id(instructions[rank])
            if key in rank_of:
                later.setdefault(key, []).append(rank_of[key])
            rank_of[key] = rank
    register = range(n)
    last = [-1] * n  # source rank of the latest member touching each qubit
    bad: set[int] = set()
    for part in schedule.partitions:
        category, members = part.category, part.members
        mixed = not members
        for m in members:
            if CATEGORY[m.kind] != category:
                mixed = True
        if mixed:
            cats = {CATEGORY[m.kind] for m in members}
            raise InternalError(f"partition tagged {category} holds {sorted(cats, key=str)}")
        if category == "solo" and len(members) != 1:
            raise InternalError("expect/ensemble/bell must be alone in a partition")
        gate = category == "gate"
        used: set[int] = set()
        for m in members:
            if category is None:  # barriers hold no source rank
                rank = None
            else:
                key = id(m)
                rank = rank_of.pop(key, None)
                if later and key in later:
                    ranks = later[key]
                    rank_of[key] = ranks.pop()
                    if not ranks:
                        del later[key]
            for q in register if m.kind in WHOLE_REGISTER else m.qubits:
                if gate and q in used:
                    raise InternalError(f"qubit {q} used twice in one gate partition")
                used.add(q)
                if rank is not None and rank > last[q]:
                    last[q] = rank
                else:
                    bad.add(q)  # reordered, repeated or not in the source
    for rank in (*rank_of.values(), *(r for ranks in later.values() for r in ranks)):  # dropped
        ins = instructions[rank]
        if ins.kind != "barrier":
            bad.update(register if ins.kind in WHOLE_REGISTER else ins.qubits)
    if bad:
        raise InternalError(f"schedule reorders the instructions of qubit {min(bad)}")


def format_schedule(schedule: Schedule) -> str:
    """One partition per line: index, category, members."""
    lines = [
        f"{i} {part.category} | " + " ; ".join(format_instruction(m) for m in part.members)
        for i, part in enumerate(schedule.partitions)
    ]
    return "\n".join(lines) + "\n"


def _check_instructions(n: int, instructions: list[Instruction]) -> None:
    """``compile_circuit``'s door: refuse the first instruction that
    ``circuit.check_shape`` refuses, or that lists a qubit outside 0..n-1 or
    one qubit twice, with ``CompileError`` naming it as the caller wrote it."""
    register = frozenset(range(n))
    for ins in instructions:
        check_shape(ins, n, CompileError)
        qs = ins.qubits
        if not register.issuperset(qs) or len(qs) > 1 and len(set(qs)) < len(qs):
            raise CompileError(f"need distinct qubits in 0..{n - 1}: {format_instruction(ins)}")


def compile_checked(n: int, instructions: list[Instruction]) -> tuple[list[Instruction], Schedule]:
    """decompose + merge + partition on checked input, the schedule checked structurally.

    The input is the parser's records, which the parser has checked, or a
    list that ``compile_circuit``'s door let through; it refuses nothing.
    The engine compiles circuit text through it.
    """
    merged = merge(n, decompose(instructions))
    schedule = partition(build_stack(n, merged))
    check_schedule(schedule, n, merged)
    return merged, schedule


def compile_circuit(
    n: int, instructions: Iterable[Instruction]
) -> tuple[list[Instruction], Schedule]:
    """``compile_checked`` on hand-built instructions, checked at the door first.

    This is the one compile-time check of hand-built instructions (the
    parser refuses the same faults in text, and the engine skips this door
    for it).  The input is taken as a list once, so a one-shot iterable
    compiles as its list does.  One walk over it, before any stage runs,
    raises ``CompileError`` on the first instruction whose kind, angle
    count, qubit count, angles or expect string ``circuit.check_shape``
    refuses, or that lists a qubit outside 0..n-1 or one qubit twice.  The
    message ends with the instruction as the caller wrote it, not a gate a
    stage made of it.  A compiled schedule is checked again before a run by
    ``Schedule.angles``.
    """
    instructions = list(instructions)
    _check_instructions(n, instructions)
    return compile_checked(n, instructions)
