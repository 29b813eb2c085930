import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit_text, random_pauli_state
from paulisim import oracle
from paulisim.circuit import Instruction, format_instruction, parse_circuit
from paulisim.errors import CircuitSyntaxError, CompileError, InternalError
from paulisim.generators import gen_adder, gen_qft
from paulisim.transpile import (
    Partition,
    Schedule,
    build_stack,
    category_of,
    check_schedule,
    compile_circuit,
    decompose,
    format_schedule,
    merge,
    partition,
)

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def dense_equivalent(n: int, a: list[Instruction], b: list[Instruction], tol: float = 1e-10):
    rng = np.random.default_rng(99)
    s = random_pauli_state(rng, n)
    d1 = oracle.to_dense(s)
    d2 = oracle.DenseState(n, d1.rho.copy())
    oracle.run_instructions_dense(d1, a)
    oracle.run_instructions_dense(d2, b)
    assert np.max(np.abs(d1.rho - d2.rho)) < tol


# --- decomposition into the select set ---------------------------------------


def test_decompose_targets_select_set(rng):
    for seed in range(5):
        text = random_circuit_text(np.random.default_rng(seed), 3, 20)
        n, ins = parse_circuit(text)
        low = decompose(ins)
        for i in low:
            assert i.kind in ("u1", "u3", "cx", "measure", "measure_x", "measure_y",
                              "reset", "expect", "ensemble", "bell", "barrier")
        dense_equivalent(n, ins, low)


def test_decompose_named_gates_one_to_one():
    for name in ("x", "y", "z", "h", "s", "sdg", "t", "tdg"):
        n, ins = parse_circuit(f"qubits 1\n{name} q[0]\n")
        low = decompose(ins)
        assert len(low) == 1 and low[0].kind in ("u1", "u3")
        dense_equivalent(1, ins, low, 1e-12)


def test_decompose_u2_as_half_turn_u3():
    n, ins = parse_circuit("qubits 1\nu2(0.3,-0.8) q[0]\n")
    low = decompose(ins)
    assert low[0].kind == "u3"
    assert low[0].angles == (math.pi / 2, 0.3, -0.8)
    dense_equivalent(1, ins, low, 1e-12)


def test_decompose_toffoli_is_fifteen_select_gates():
    n, ins = parse_circuit("qubits 3\nccx q[0],q[1],q[2]\n")
    low = decompose(ins)
    assert len(low) == 15
    assert sum(1 for i in low if i.kind == "cx") == 6
    assert all(i.kind in ("u1", "u3", "cx") for i in low)
    # action equals the dense doubly controlled flip
    d1 = oracle.dense_zero(3)
    rng = np.random.default_rng(4)
    s = random_pauli_state(rng, 3)
    d1 = oracle.to_dense(s)
    d2 = oracle.DenseState(3, d1.rho.copy())
    oracle.run_instructions_dense(d1, low)
    oracle.apply_unitary(d2, oracle.toffoli_matrix(), (0, 1, 2))
    assert np.max(np.abs(d1.rho - d2.rho)) < 1e-10


def test_decompose_passes_measurements_through():
    n, ins = parse_circuit("qubits 2\nmeasure q[0]\nreset q[1]\nensemble\nbarrier\n")
    assert decompose(ins) == ins


# --- single-qubit fusion -------------------------------------------------------


def test_merge_adds_consecutive_u1_angles():
    n, ins = parse_circuit("qubits 1\nu1(0.3) q[0]\nu1(0.4) q[0]\n")
    out = merge(n, ins)
    assert len(out) == 1 and out[0].kind == "u1"
    assert abs(out[0].angles[0] - 0.7) < 1e-15


def test_merge_folds_u1_into_u3_phases():
    n, ins = parse_circuit("qubits 1\nu1(0.2) q[0]\nu3(0.5,0.1,0.3) q[0]\nu1(0.6) q[0]\n")
    out = merge(n, ins)
    assert len(out) == 1 and out[0].kind == "u3"
    dense_equivalent(1, ins, out, 1e-12)


def test_merge_fuses_u3_pairs_via_euler_angles():
    n, ins = parse_circuit("qubits 1\nu3(0.7,0.2,-0.4) q[0]\nu3(1.1,-0.3,0.9) q[0]\n")
    out = merge(n, ins)
    assert len(out) == 1 and out[0].kind == "u3"
    dense_equivalent(1, ins, out, 1e-12)


def test_merge_emits_u1_when_fusion_cancels():
    n, ins = parse_circuit("qubits 1\nu3(0.8,0.0,0.2) q[0]\nu3(-0.8,-0.2,0.0) q[0]\n")
    out = merge(n, ins)
    assert len(out) == 1 and out[0].kind == "u1"
    dense_equivalent(1, ins, out, 1e-12)


def test_merge_keeps_runs_on_other_qubits_across_measurement():
    # measurement of qubit 0 does not interrupt the qubit 1 run
    src = "qubits 2\nu3(0.4,0.0,0.1) q[1]\nmeasure q[0]\nu3(0.3,0.2,0.0) q[1]\n"
    n, ins = parse_circuit(src)
    out = merge(n, ins)
    assert [i.kind for i in out] == ["u3", "measure"]


def test_merge_respects_interruptions():
    for middle in ("cx q[0],q[1]", "measure q[0]", "barrier", "ensemble"):
        src = f"qubits 2\nu1(0.3) q[0]\n{middle}\nu1(0.4) q[0]\n"
        n, ins = parse_circuit(src)
        out = merge(n, ins)
        assert len(out) == 3, middle


def test_merge_wraps_angles_to_principal_range():
    n, ins = parse_circuit("qubits 1\nu1(3.0) q[0]\nu1(3.0) q[0]\n")
    out = merge(n, ins)
    lam = out[0].angles[0]
    assert -math.pi < lam <= math.pi
    assert abs(lam - (6.0 - 2 * math.pi)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3))
def test_merge_never_changes_semantics(seed, n):
    text = random_circuit_text(np.random.default_rng(seed), n, 12)
    num, ins = parse_circuit(text)
    low = decompose(ins)
    fused = merge(num, low)
    assert len(fused) <= len(low)
    dense_equivalent(num, low, fused)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_merge_is_idempotent(seed):
    text = random_circuit_text(np.random.default_rng(seed), 2, 12)
    n, ins = parse_circuit(text)
    fused = merge(n, decompose(ins))
    assert merge(n, fused) == fused


# --- partitioning ----------------------------------------------------------------


def golden(src: str) -> list[tuple[str, list[str]]]:
    n, ins = parse_circuit(src)
    _, schedule = compile_circuit(n, ins)
    out = []
    for part in schedule.partitions:
        out.append((part.category, [m.kind + str(list(m.qubits)) for m in part.members]))
    return out


def test_golden_schedule_gate_phases_group_measurements():
    src = (
        "qubits 2\n"
        "u3(0.4,0.1,0.2) q[0]\n"
        "cx q[0],q[1]\n"
        "u3(0.3,0.0,0.1) q[1]\n"
        "measure q[0]\n"
        "measure q[1]\n"
    )
    assert golden(src) == [
        ("gate", ["u3[0]"]),
        ("gate", ["cx[0, 1]"]),
        ("gate", ["u3[1]"]),
        ("measurement", ["measure[0]", "measure[1]"]),
    ]


def test_golden_schedule_parallel_single_qubit_gates():
    src = "qubits 2\nu3(0.4,0.1,0.2) q[0]\nu3(0.3,0.0,0.1) q[1]\n"
    assert golden(src) == [("gate", ["u3[0]", "u3[1]"])]


def test_golden_schedule_solo_isolates_itself():
    src = "qubits 2\nh q[0]\nexpect ZZ\nh q[1]\n"
    assert golden(src) == [
        ("gate", ["u3[0]"]),
        ("solo", ["expect[]"]),
        ("gate", ["u3[1]"]),
    ]


def test_barrier_splits_gate_partitions():
    src = "qubits 2\nu1(0.1) q[0]\nbarrier\nu1(0.2) q[1]\n"
    assert golden(src) == [("gate", ["u1[0]"]), ("gate", ["u1[1]"])]


def test_consecutive_solos_get_separate_partitions():
    src = "qubits 1\nensemble\nensemble\n"
    assert golden(src) == [("solo", ["ensemble[]"]), ("solo", ["ensemble[]"])]


def test_disjoint_cnots_share_a_partition():
    src = "qubits 4\ncx q[0],q[1]\ncx q[2],q[3]\n"
    assert golden(src) == [("gate", ["cx[0, 1]", "cx[2, 3]"])]


def test_overlapping_cnots_serialize():
    src = "qubits 3\ncx q[0],q[1]\ncx q[1],q[2]\n"
    assert golden(src) == [("gate", ["cx[0, 1]"]), ("gate", ["cx[1, 2]"])]


def test_measurements_on_distinct_qubits_share_a_partition():
    src = "qubits 3\nmeasure q[2]\nmeasure_x q[0]\nreset q[1]\n"
    out = golden(src)
    assert len(out) == 1 and out[0][0] == "measurement"
    assert sorted(out[0][1]) == ["measure[2]", "measure_x[0]", "reset[1]"]


def test_repeated_measurements_on_same_qubit_serialize():
    src = "qubits 1\nmeasure q[0]\nmeasure q[0]\n"
    assert golden(src) == [
        ("measurement", ["measure[0]"]),
        ("measurement", ["measure[0]"]),
    ]


def test_single_qubit_measurement_blocks_later_gates_on_other_qubits():
    # a phase opens a fresh partition: the later x on qubit 1 cannot jump
    # ahead of the measurement partition
    src = "qubits 2\nmeasure q[0]\nx q[1]\n"
    out = golden(src)
    assert out[0][0] == "measurement"
    assert out[1] == ("gate", ["u3[1]"])


def test_measurement_waits_for_its_qubit_and_the_measurement_before_it():
    src = "qubits 2\nmeasure q[0]\nmeasure q[1]\nmeasure q[0]\n"
    assert golden(src) == [
        ("measurement", ["measure[0]", "measure[1]"]),
        ("measurement", ["measure[0]"]),
    ]
    # measure q[1] has its qubit free from the start, yet follows measure q[0]
    src = "qubits 2\nmeasure q[0]\nmeasure q[0]\nmeasure q[1]\n"
    assert golden(src) == [
        ("measurement", ["measure[0]"]),
        ("measurement", ["measure[0]", "measure[1]"]),
    ]


def test_measurement_members_keep_source_order():
    src = "qubits 2\nmeasure q[1]\nmeasure q[0]\n"
    assert golden(src) == [("measurement", ["measure[1]", "measure[0]"])]


def test_gate_members_are_listed_by_lowest_qubit():
    src = "qubits 4\nu1(0.1) q[2]\ncx q[3],q[1]\nu1(0.2) q[0]\n"
    assert golden(src) == [("gate", ["u1[0]", "cx[3, 1]", "u1[2]"])]


def test_barrier_splits_a_measurement_phase():
    src = "qubits 2\nmeasure q[0]\nbarrier\nmeasure q[1]\n"
    assert golden(src) == [("measurement", ["measure[0]"]), ("measurement", ["measure[1]"])]


def test_category_of_kinds():
    assert category_of("u3") == "gate"
    assert category_of("cx") == "gate"
    assert category_of("measure") == "measurement"
    assert category_of("reset") == "measurement"
    assert category_of("ensemble") == "solo"
    assert category_of("barrier") is None


_NAN, _INF = math.nan, math.inf

# hand-built faults at n = 3; the parser refuses each one in text
HAND_BUILT_FAULTS = [
    # an unknown kind
    Instruction("foo", (0,)),
    # a wrong angle or qubit count
    Instruction("u3", (0,), (0.1,)),
    Instruction("u1", (0,)),
    Instruction("h", (0,), (0.1,)),
    Instruction("cx", (1,)),
    Instruction("ccx", (0, 1)),
    Instruction("measure", (0, 1)),
    Instruction("ensemble", (0,)),
    # an expect string of the wrong length or with a bad label
    Instruction("expect", string="ZZ"),
    Instruction("expect", string="XQZ"),
    # a qubit out of range, negative or repeated
    Instruction("h", (3,)),
    Instruction("h", (-1,)),
    Instruction("h", (1, 1)),
    Instruction("cx", (0, 3)),
    Instruction("cx", (-1, 0)),
    Instruction("cx", (2, 2)),
    Instruction("ccx", (0, 1, 5)),
    Instruction("ccx", (0, -2, 1)),
    Instruction("ccx", (0, 1, 0)),
    Instruction("bell", (0, 4)),
    Instruction("bell", (-1, 0)),
    Instruction("bell", (1, 1)),
    Instruction("measure", (3,)),
    Instruction("measure", (-1,)),
    Instruction("measure", (0, 0)),
    # an angle that is not finite
    Instruction("u1", (0,), (_NAN,)),
    Instruction("u1", (0,), (_INF,)),
    Instruction("u1", (0,), (-_INF,)),
    Instruction("u2", (0,), (_NAN, 0.0)),
    Instruction("u2", (0,), (0.0, _INF)),
    Instruction("u2", (0,), (-_INF, 0.0)),
    Instruction("u3", (0,), (_NAN, 0.1, 0.2)),
    Instruction("u3", (0,), (0.1, _INF, 0.2)),
    Instruction("u3", (0,), (0.1, 0.2, -_INF)),
]

_H0 = Instruction("h", (0,))


@pytest.mark.parametrize("before, after", [((), ()), ((_H0,), ()), ((), (_H0,))], ids=["alone", "after_h", "before_h"])
@pytest.mark.parametrize("bad", HAND_BUILT_FAULTS, ids=lambda ins: format_instruction(ins).replace(" ", "_"))
def test_compile_refuses_a_hand_built_fault_in_the_instruction_the_caller_wrote(bad, before, after):
    # compile_circuit checks the caller's instructions once, before any
    # stage runs, so no stage sees the fault: a u1(nan) q[0] next to an
    # h q[0] is refused as written, not as the u3 a fusion would make of it
    instructions = [*before, bad, *after]
    with pytest.raises(CompileError) as err:
        compile_circuit(3, instructions)
    assert str(err.value).endswith(f": {format_instruction(bad)}")
    text = "qubits 3\n" + "".join(format_instruction(ins) + "\n" for ins in instructions)
    with pytest.raises(CircuitSyntaxError):
        parse_circuit(text)


@pytest.mark.parametrize(
    "instructions, named",
    [
        # a negative index would wrap in the partitioner's per-qubit list
        ([Instruction("cx", (0, -1)), Instruction("u1", (2,), (0.3,))], "cx q[0],q[-1]"),
        ([Instruction("measure", (-3,))], "measure q[-3]"),
        ([Instruction("u3", (5,), (math.pi / 2, 0.0, math.pi))], "u3(1.5707963267948966,0.0,3.141592653589793) q[5]"),
        ([Instruction("cx", (1, 1))], "cx q[1],q[1]"),
        ([Instruction("bell", (1, 1))], "bell q[1],q[1]"),
    ],
)
def test_compile_refuses_a_qubit_outside_the_register_or_repeated(instructions, named):
    # built in code: the parser refuses both before a compile
    with pytest.raises(CompileError) as err:
        compile_circuit(3, instructions)
    assert str(err.value) == f"need distinct qubits in 0..2: {named}"


@pytest.mark.parametrize(
    "instructions, named",
    [
        # partition finds the fused u3 of the h, and a u3 of the Toffoli's expansion
        ([Instruction("h", (5,))], "h q[5]"),
        ([Instruction("x", (0,)), Instruction("ccx", (0, 1, 7)), Instruction("h", (9,))], "ccx q[0],q[1],q[7]"),
        ([Instruction("t", (2,)), Instruction("cx", (2, 2)), Instruction("s", (4,))], "cx q[2],q[2]"),
    ],
)
def test_a_bad_qubit_is_named_in_the_instruction_the_caller_wrote(instructions, named):
    with pytest.raises(CompileError) as err:
        compile_circuit(3, instructions)
    assert str(err.value) == f"need distinct qubits in 0..2: {named}"
    text = "qubits 3\n" + "".join(format_instruction(ins) + "\n" for ins in instructions)
    with pytest.raises(CircuitSyntaxError):  # parsed text keeps its parser error
        parse_circuit(text)


def _phase_of(merged: list[Instruction]) -> dict[int, int]:
    """Phase number by instruction id: runs of one category, cut at every
    barrier and category change, and every solo on its own."""
    phase, prev, out = 0, None, {}
    for ins in merged:
        cat = category_of(ins.kind)
        if cat != prev or cat == "solo":
            phase += 1
        prev = cat
        if cat is not None:
            out[id(ins)] = phase
    return out


def _is_valid(schedule: Schedule, n: int, merged: list[Instruction]) -> bool:
    """Every ordering rule a schedule must keep, whatever the placement policy."""
    try:
        check_schedule(schedule, n, merged)
    except InternalError:
        return False
    where = {id(m): i for i, part in enumerate(schedule.partitions) for m in part.members}
    for part in schedule.partitions:
        qubits = [q for m in part.members for q in m.qubits]
        if len(qubits) != len(set(qubits)):
            return False
    spans: dict[int, list[int]] = {}  # phase -> partitions of its members
    for key, phase in _phase_of(merged).items():
        spans.setdefault(phase, []).append(where[key])
    ordered = [spans[k] for k in sorted(spans)]
    if any(max(a) >= min(b) for a, b in zip(ordered, ordered[1:])):
        return False
    measures = [ins for ins in merged if category_of(ins.kind) == "measurement"]
    return all(where[id(a)] <= where[id(b)] for a, b in zip(measures, measures[1:]))


def _moved_back(schedule: Schedule, i: int, member: Instruction) -> Schedule:
    """The schedule with ``member`` moved from partition i to partition i - 1."""
    parts = []
    for j, part in enumerate(schedule.partitions):
        members = [m for m in part.members if m is not member]
        if j == i - 1:
            members.append(member)
        parts.append(Partition(part.category, members))
    return Schedule(parts)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5))
def test_schedules_satisfy_invariants_on_random_circuits(seed, n):
    text = random_circuit_text(np.random.default_rng(seed), n, 20)
    num, ins = parse_circuit(text)
    merged, schedule = compile_circuit(num, ins)
    check_schedule(schedule, num, merged)  # category purity, order, disjointness
    # every non-barrier instruction is scheduled exactly once
    scheduled = [id(m) for part in schedule.partitions for m in part.members]
    assert len(scheduled) == len(set(scheduled))
    want = [id(i) for i in merged if i.kind != "barrier"]
    assert sorted(scheduled) == sorted(want)
    # as soon as possible: valid, and no member could sit one partition earlier
    assert _is_valid(schedule, num, merged)
    for i, part in enumerate(schedule.partitions[1:], 1):
        for m in part.members:
            assert not _is_valid(_moved_back(schedule, i, m), num, merged), (i, m)


def test_schedules_of_a_fixed_corpus_keep_their_digest():
    # Partitions set how much memory noise a circuit gets, so any change in
    # placement or member order is a change in results.  The digest was
    # computed with the earlier FIFO-column partitioner.
    texts = [random_circuit_text(np.random.default_rng([7, i]), 1 + i % 6, 40) for i in range(120)]
    texts += [gen_qft(n) for n in range(1, 9)]
    texts += [gen_adder(a, b) for a, b in (("1", "0"), ("11", "01"), ("101", "011"))]
    h = hashlib.sha256()
    for text in texts:
        n, ins = parse_circuit(text)
        h.update(format_schedule(compile_circuit(n, ins)[1]).encode())
    assert h.hexdigest() == "e6dae9b8be6811908edceedd31683e638f2a1460ae1cedfd871da919bbeaef72"


def _mixed(p):  # a measurement in a gate partition
    p[1].members.append(p[2].members.pop())


def _reused(p):  # h and cx share qubit 0 in one gate partition
    p[1].members[:0] = p[0].members
    del p[0]


def _crowded(p):  # a second ensemble beside the first
    p[3].members.append(Instruction("ensemble"))


def _swapped(p):  # cx before h on qubit 0
    p[0], p[1] = p[1], p[0]


def _dropped(p):
    p[2].members.pop()


def _repeated(p):
    p[2].members.append(p[2].members[0])


def _foreign(p):  # an equal copy is not the source object
    m = p[0].members[0]
    p[0].members[0] = Instruction(m.kind, m.qubits, m.angles)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_mixed, r"partition tagged gate holds \['gate', 'measurement'\]"),
        (_reused, "qubit 0 used twice in one gate partition"),
        (_crowded, "expect/ensemble/bell must be alone in a partition"),
        (_swapped, "schedule reorders the instructions of qubit 0"),
        (_dropped, "schedule reorders the instructions of qubit 1"),
        (_repeated, "schedule reorders the instructions of qubit 0"),
        (_foreign, "schedule reorders the instructions of qubit 0"),
    ],
    ids=["mixed", "reused", "crowded", "swapped", "dropped", "repeated", "foreign"],
)
def test_check_schedule_rejects_each_violation(mutate, message):
    n, ins = parse_circuit("qubits 2\nh q[0]\ncx q[0],q[1]\nmeasure q[0]\nmeasure q[1]\nensemble\n")
    merged, schedule = compile_circuit(n, ins)
    parts = [Partition(p.category, list(p.members)) for p in schedule.partitions]
    assert [p.category for p in parts] == ["gate", "gate", "measurement", "solo"]
    mutate(parts)
    with pytest.raises(InternalError, match=message):
        check_schedule(Schedule(parts), n, merged)


def test_check_schedule_names_a_barrier_in_a_partition():
    # a barrier has no category (None), which the message sorts beside "gate"
    n, ins = parse_circuit("qubits 1\nu1(0.5) q[0]\nbarrier\n")
    with pytest.raises(InternalError, match=r"partition tagged gate holds \[None, 'gate'\]"):
        check_schedule(Schedule([Partition("gate", list(ins))]), n, ins)


def test_format_schedule_layout():
    src = "qubits 2\nh q[0]\ncx q[0],q[1]\nmeasure q[0]\nmeasure q[1]\n"
    n, ins = parse_circuit(src)
    _, schedule = compile_circuit(n, ins)
    text = format_schedule(schedule)
    lines = text.strip().split("\n")
    assert lines[0].startswith("0 gate | ")
    assert lines[-1] == "2 measurement | measure q[0] ; measure q[1]"


def test_schedule_angles_are_the_u1_and_u3_angles_in_schedule_order():
    src = "qubits 3\nu3(0.1,0.2,0.3) q[2]\nu1(0.4) q[0]\ncx q[0],q[1]\nu1(0.5) q[1]\nmeasure q[1]\nexpect XYZ\n"
    n, ins = parse_circuit(src)
    _, schedule = compile_circuit(n, ins)
    # gate members are listed by lowest qubit, so u1(0.4) on q[0] leads
    assert schedule.angles(n) == ([0.4, 0.5], [(0.1, 0.2, 0.3)])
    assert Schedule().angles(0) == ([], [])
    # the one refusal the parser cannot reach by text: a non-finite angle
    bad = Schedule([Partition("gate", [Instruction("u3", (0,), (0.1, float("nan"), 0.3))])])
    with pytest.raises(ValueError, match=r"u3 needs finite angles: u3\(0\.1,nan,0\.3\) q\[0\]"):
        bad.angles(1)


def test_compile_concentrates_interleaved_gate_rounds():
    # staircase: all three cnots must land in distinct rounds
    src = "qubits 3\ncx q[0],q[1]\ncx q[1],q[2]\ncx q[0],q[1]\n"
    n, ins = parse_circuit(src)
    _, schedule = compile_circuit(n, ins)
    assert len(schedule) == 3
