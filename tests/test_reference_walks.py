"""The rewritten compiler walks against reference copies of the walks they
replaced (tests/helpers.py), bit for bit and message for message.

``test_transpile.py``'s schedule digest covers only its own corpus.  Here
the fusion's Euler angles are compared by their float bytes over 20,000
seeded triples, degenerate ones included; decompose, merge, partition and
check_schedule over 2,000 seeded circuits of the deep_small and verify7
instruction mixes at n = 2-8, by member identity, by each member's fields
with float bytes, and by ``format_schedule`` on every tenth; and check_schedule, ``Schedule.angles`` and
``check_shape`` over the existing tamper and fault corpora and seeded
tampering, by exception type and message.
"""

import importlib.util
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import test_engine
import test_transpile
from helpers import (
    _ref_su2_ry,
    _ref_su2_rz,
    reference_angles,
    reference_check_schedule,
    reference_check_shape,
    reference_decompose,
    reference_merge,
    reference_partition,
    reference_zyz,
)
from paulisim import engine, transpile
from paulisim.sweep import sweep
from paulisim.circuit import Instruction, NoiseModel, check_shape, format_instruction, parse_circuit
from paulisim.errors import CompileError
from paulisim.transpile import (
    Partition,
    Schedule,
    build_stack,
    check_schedule,
    compile_circuit,
    decompose,
    format_schedule,
    merge,
    partition,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    """perfbench/workloads.py, imported in place without leaving a __pycache__ there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _bytes(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _outcome(call):
    """("ok", the value) or (exception type, message) of ``call()``."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - every refusal is compared
        return type(exc), str(exc)


def _zyz_triples() -> list[tuple[float, float, float]]:
    rng = np.random.default_rng(3401)
    triples = [tuple(t) for t in rng.uniform(-7.0, 7.0, size=(16000, 3))]
    # Ry(t2) Rz(0) Ry(t1) is Ry(t1 + t2): b ~ 0 at t2 = -t1, a ~ 0 at t2 = pi - t1
    for t, tiny in zip(rng.uniform(-7.0, 7.0, 2000), rng.uniform(-1e-13, 1e-13, 2000)):
        triples += [(-t + tiny, 0.0, t), (math.pi - t + tiny, tiny, t)]
    return triples


def test_zyz_keeps_the_bits_of_the_reference():
    triples = _zyz_triples()
    assert len(triples) >= 20000
    small_a = small_b = 0
    for t2, lam, t1 in triples:
        got = transpile._zyz(t2, lam, t1)
        want = reference_zyz(t2, lam, t1)
        assert _bytes(got) == _bytes(want), (t2, lam, t1, got, want)
        assert all(type(v) is float for v in got)
        m = _ref_su2_ry(t2) @ _ref_su2_rz(lam) @ _ref_su2_ry(t1)
        small_a += abs(m[0, 0]) <= 1e-12
        small_b += abs(m[1, 0]) <= 1e-12
    assert small_a >= 100 and small_b >= 100  # both pinned-to-0 branches are reached


def _identity_form(merged, source):
    """Each record as the source object it is, or as its fields with float bytes."""
    ids = {id(ins): i for i, ins in enumerate(source)}
    return [("source", ids[id(m)]) if id(m) in ids else (m.kind, m.qubits, _bytes(m.angles), m.string)
            for m in merged]


@pytest.fixture(scope="module")
def circuits() -> list[str]:
    """2,000 seeded circuits of the deep_small and verify7 mixes, n = 2-8."""
    w = _workloads()
    rng = np.random.default_rng(3402)
    out = []
    for i in range(2000):
        n = 2 + i % 7
        mix = w.DEEP_SMALL_MIX if i % 2 == 0 else w.VERIFY7_MIX
        if n < 3:  # a Toffoli needs three qubits
            mix = {k: c for k, c in mix.items() if k != "ccx"}
        out.append(w.mixed_circuit(rng, n, mix))
    return out


def test_the_walks_match_the_reference_on_seeded_mixed_circuits(circuits):
    for i, text in enumerate(circuits):
        n, ins = parse_circuit(text)
        select, want_select = decompose(ins), reference_decompose(ins)
        assert _identity_form(select, ins) == _identity_form(want_select, ins)
        merged, want_merged = merge(n, select), reference_merge(n, want_select)
        assert _identity_form(merged, select) == _identity_form(want_merged, want_select)
        # partition and the checks on the same input: the same member objects
        schedule = partition(build_stack(n, merged))
        want = reference_partition(build_stack(n, merged))
        assert [(p.category, [id(m) for m in p.members]) for p in schedule.partitions] == [
            (p.category, [id(m) for m in p.members]) for p in want.partitions
        ]
        check_schedule(schedule, n, merged)
        reference_check_schedule(schedule, n, merged)
        got_angles, want_angles = schedule.angles(n), reference_angles(schedule, n)
        assert _bytes(got_angles[0]) == _bytes(want_angles[0])
        assert [_bytes(a) for a in got_angles[1]] == [_bytes(a) for a in want_angles[1]]
        # the reference stages end to end give the same schedule, member by
        # member with float bytes, and print it the same (every tenth circuit)
        end_to_end = reference_partition(build_stack(n, want_merged))
        assert [(p.category, _identity_form(p.members, ())) for p in schedule.partitions] == [
            (p.category, _identity_form(p.members, ())) for p in end_to_end.partitions
        ]
        if i % 10 == 0:
            assert format_schedule(schedule) == format_schedule(end_to_end)


def _tampered(rng: np.random.Generator, schedule: Schedule, merged: list[Instruction], n: int) -> Schedule:
    """The schedule after one seeded violation, or none."""
    parts = [Partition(p.category, list(p.members)) for p in schedule.partitions]
    pick = rng.integers(11)
    i = int(rng.integers(len(parts)))
    j = int(rng.integers(len(parts)))
    members = parts[i].members
    if pick == 0 and members:  # move a member to another partition
        parts[j].members.append(members.pop(int(rng.integers(len(members)))))
    elif pick == 1:  # swap two partitions
        parts[i], parts[j] = parts[j], parts[i]
    elif pick == 2 and members:  # drop a member
        members.pop(int(rng.integers(len(members))))
    elif pick == 3 and members:  # list a member twice
        parts[j].members.append(members[int(rng.integers(len(members)))])
    elif pick == 4 and members:  # an equal copy in place of the source object
        k = int(rng.integers(len(members)))
        members[k] = Instruction(*members[k])
    elif pick == 5:  # a barrier from the source, alone or beside the members
        barriers = [m for m in merged if m.kind == "barrier"] or [Instruction("barrier")]
        if rng.integers(2):
            parts.insert(i, Partition(None, [barriers[0]]))
        else:
            members.append(barriers[0])
    elif pick == 6:  # retag a partition
        parts[i] = Partition(("gate", "measurement", "solo", None)[int(rng.integers(4))], members)
    elif pick == 7:  # empty a partition
        parts[i] = Partition(parts[i].category, [])
    elif pick == 8:  # two partitions joined
        if i != j:
            parts[i].members.extend(parts[j].members)
            del parts[j]
    elif pick == 9:  # a member the source never held
        parts[i].members.append(Instruction("cx", (0, n - 1)) if n > 1 else Instruction("u1", (0,), (0.5,)))
    elif pick == 10 and members:  # a member twice in one partition
        members.append(members[0])
    return Schedule(parts)


def test_check_schedule_refuses_what_the_reference_refuses_with_its_message(circuits):
    rng = np.random.default_rng(3403)
    refused = 0
    for text in circuits[:400]:
        n, ins = parse_circuit(text)
        merged, schedule = compile_circuit(n, ins)
        for _ in range(3):
            bad = _tampered(rng, schedule, merged, n)
            got = _outcome(lambda: check_schedule(bad, n, merged))
            assert got == _outcome(lambda: reference_check_schedule(bad, n, merged))
            refused += got[0] != "ok"
    assert refused >= 900  # nearly every tampering is refused
    # the tamper corpus of test_transpile.py
    t = test_transpile
    for mutate in (t._mixed, t._reused, t._crowded, t._swapped, t._dropped, t._repeated, t._foreign):
        n, ins = parse_circuit("qubits 2\nh q[0]\ncx q[0],q[1]\nmeasure q[0]\nmeasure q[1]\nensemble\n")
        merged, schedule = compile_circuit(n, ins)
        parts = [Partition(p.category, list(p.members)) for p in schedule.partitions]
        mutate(parts)
        got = _outcome(lambda: check_schedule(Schedule(parts), n, merged))
        want = _outcome(lambda: reference_check_schedule(Schedule(parts), n, merged))
        assert got[0] != "ok" and got == want
    # an object the source lists twice takes its ranks in turn
    cx = Instruction("cx", (0, 1))
    h = Instruction("u3", (0,), (0.1, 0.2, 0.3))
    for members in ([cx], [cx, cx], [cx, cx, cx], [cx, h, cx], [h, cx, cx, cx]):
        bad = Schedule([Partition("gate", [m]) for m in members])
        for source in ([cx, cx], [cx, Instruction("barrier"), cx], [cx, cx, cx], [cx, h, cx, cx]):
            got = _outcome(lambda: check_schedule(bad, 2, source))
            assert got == _outcome(lambda: reference_check_schedule(bad, 2, source))


# hand-built members, each refused or passed by Schedule.angles and check_shape
_BAD_MEMBERS = [
    *test_transpile.HAND_BUILT_FAULTS,
    *test_engine.MISSHAPEN,
    Instruction("u3", (3,), (0.1, 0.2, 0.3)),
    Instruction("measure_y", (-1,)),
    Instruction("bell", (1, 7)),
    Instruction("cx", (1, 1)),
    Instruction("bell", (2, 2)),
    Instruction("expect", (), (), "XYZW"),
    Instruction("h", (0,)),
    Instruction("u1", (0,), (-math.inf,)),
    Instruction("barrier"),
    Instruction("ensemble"),
    Instruction("expect", (), (), "XYZ"),
    Instruction("reset", (2,)),
]


@pytest.mark.parametrize("bad", _BAD_MEMBERS, ids=repr)
def test_angles_and_check_shape_refuse_what_the_reference_refuses(bad):
    first = Instruction("u3", (2,), (0.1, 0.2, 0.3))
    schedule = Schedule([Partition("gate", [first]), Partition("gate", [bad])])
    got, want = _outcome(lambda: schedule.angles(3)), _outcome(lambda: reference_angles(schedule, 3))
    assert got == want
    for error in (ValueError, CompileError):
        want = _outcome(lambda: reference_check_shape(bad, 3, error))
        assert _outcome(lambda: check_shape(bad, 3, error)) == want


def _reference_door(n: int, ins: Instruction) -> None:
    """compile_circuit's door as it stood, for one instruction."""
    reference_check_shape(ins, n, CompileError)
    qs = ins.qubits
    if not frozenset(range(n)).issuperset(qs) or len(qs) > 1 and len(set(qs)) < len(qs):
        raise CompileError(f"need distinct qubits in 0..{n - 1}: {format_instruction(ins)}")


@pytest.mark.parametrize("bad", _BAD_MEMBERS, ids=repr)
def test_compile_circuit_refuses_a_hand_built_fault_as_its_door_did(bad):
    got = _outcome(lambda: compile_circuit(3, [Instruction("h", (0,)), bad]))
    want = _outcome(lambda: _reference_door(3, bad))
    assert got[0] == want[0] and (want[0] == "ok" or got[1] == want[1])


def test_text_never_enters_the_door(monkeypatch):
    def door(n, instructions):
        raise AssertionError("the door walked parsed text")

    monkeypatch.setattr(transpile, "_check_instructions", door)
    text = "qubits 3\nh q[0]\nccx q[0],q[1],q[2]\nu1(0.5) q[1]\nmeasure q[2]\nexpect XYZ\n"
    noise = NoiseModel(r_x=0.99, f=0.99)
    engine.run_circuit(text, noise)
    engine.verify_circuit(text, noise)
    sweep(text, "r_x", [1.0, 0.99], "fidelity", noise)
    with pytest.raises(AssertionError, match="door walked"):  # a hand-built list still does
        compile_circuit(*parse_circuit(text))


def test_a_list_a_tuple_and_a_generator_give_the_same_schedule():
    n, ins = parse_circuit("qubits 2\nh q[0]\ncx q[0],q[1]\nmeasure q[1]\n")
    sources = (ins, tuple(ins), iter(ins), (i for i in ins))
    forms = [format_schedule(compile_circuit(n, source)[1]) for source in sources]
    assert forms == [forms[0]] * 4
    assert len(compile_circuit(n, iter(ins))[1]) == 3
