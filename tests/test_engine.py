import sys
import time

import numpy as np
import pytest

from helpers import random_circuit_text
from paulisim import engine, oracle
from paulisim.circuit import Instruction, NoiseModel, format_instruction, parse_circuit
from paulisim.cli import main
from paulisim.engine import (
    execute_schedule,
    make_initial_state,
    run_circuit,
    verify_circuit,
)
from paulisim.errors import CapacityError, CompileError, StateFormatError
from paulisim.state import (
    apply_transfer,
    init_bitstring,
    init_thermal,
    init_uniform,
    init_zero,
    load_state,
    overlap,
    save_state,
)
from paulisim.sweep import sweep
from paulisim.transpile import Partition, Schedule, category_of, compile_circuit, format_schedule

BELL = "qubits 2\nh q[0]\ncx q[0],q[1]\nensemble\n"


def test_bell_pipeline_distribution():
    report = run_circuit(BELL)
    assert report.partitions == 3
    dist = report.records[-1].dist
    assert abs(dist["00"] - 0.5) < 1e-12
    assert abs(dist["11"] - 0.5) < 1e-12


def test_report_counts_instructions_and_fusion():
    report = run_circuit("qubits 1\nu1(0.1) q[0]\nu1(0.2) q[0]\nmeasure q[0]\n")
    assert report.instructions_before == 3
    assert report.instructions_after == 2
    assert report.records[0].kind == "measure"
    assert abs(report.records[0].values[0] - 1.0) < 1e-12


def test_records_preserve_execution_order():
    src = "qubits 2\nmeasure q[1]\nbarrier\nexpect ZZ\nmeasure q[0]\n"
    report = run_circuit(src)
    kinds = [(r.kind, r.qubits) for r in report.records]
    assert kinds == [("measure", (1,)), ("expect", ()), ("measure", (0,))]


def test_initial_state_options():
    noise = NoiseModel(p=0.8)
    assert np.array_equal(make_initial_state(2, "zero", noise).coeffs, init_zero(2).coeffs)
    assert np.array_equal(make_initial_state(2, "uniform", noise).coeffs, init_uniform(2).coeffs)
    assert np.array_equal(make_initial_state(2, "thermal", noise).coeffs, init_thermal(2, 0.8).coeffs)
    got = make_initial_state(2, "bitstring:10", noise)
    assert np.array_equal(got.coeffs, init_bitstring("10").coeffs)
    with pytest.raises(ValueError):
        make_initial_state(2, "warm", noise)


def test_a_bitstring_of_another_length_is_refused():
    for bits in ("1", "101"):
        with pytest.raises(ValueError) as err:
            engine.parse_init(2, f"bitstring:{bits}")
        assert str(err.value) == f"bitstring length {len(bits)} does not match 2 qubits"


def test_initial_state_from_file(tmp_path):
    path = tmp_path / "ref.txt"
    save_state(init_bitstring("11"), path)
    report = run_circuit("qubits 2\nensemble\n", init=f"file:{path}")
    assert abs(report.records[0].dist["11"] - 1.0) < 1e-12


def test_init_file_is_read_once_per_call(tmp_path, monkeypatch):
    path = tmp_path / "start.state"
    save_state(init_thermal(2, 0.8), path)
    reads = []

    def counting_load(*args):
        reads.append(args)
        return load_state(*args)

    monkeypatch.setattr(engine, "load_state", counting_load)
    res = verify_circuit(BELL, NoiseModel(f=0.9), init=f"file:{path}")
    assert len(reads) == 1 and res.state_divergence < 1e-12
    reads.clear()
    rows = sweep(BELL, "f", [1.0, 0.9, 0.8], "success:00", init=f"file:{path}")
    assert len(reads) == 1 and len(rows) == 3


def test_init_file_qubit_mismatch(tmp_path):
    path = tmp_path / "ref.txt"
    save_state(init_zero(3), path)
    with pytest.raises(StateFormatError):
        run_circuit("qubits 2\nensemble\n", init=f"file:{path}")


def test_qubit_capacity_enforced():
    text = "qubits 15\n" + "x q[0]\n"
    with pytest.raises(CapacityError):
        run_circuit(text)


def test_qubit_capacity_enforced_before_compiling():
    # merging and checking a whole-register instruction cost O(n) each, and
    # the state 4^n, so a register this wide must be refused right after parsing
    wide = "qubits 100000\nensemble\n"
    for call in (
        lambda: run_circuit(wide),
        lambda: sweep(wide, "f", [0.9], "fidelity"),
        lambda: verify_circuit(wide),
    ):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            call()
        assert time.perf_counter() - start < 1.0


def test_negative_shots_rejected():
    with pytest.raises(ValueError):
        run_circuit(BELL, shots=-1)


def test_a_negative_seed_is_refused_before_the_circuit_runs(tmp_path, monkeypatch, capsys):
    module, calls = sys.modules["paulisim.engine"], []
    run = module.execute_schedule
    monkeypatch.setattr(module, "execute_schedule", lambda *a: calls.append(a) or run(*a))
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run_circuit(BELL, shots=10, seed=-1)
    path = tmp_path / "bell.circ"
    path.write_text(BELL)
    assert main(["run", "--circuit", str(path), "--shots", "10", "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert calls == []


def test_verify_enforces_oracle_cap():
    # 9 qubits is under the engine cap but over the oracle's; nothing is allocated
    with pytest.raises(CapacityError):
        verify_circuit("qubits 9\nx q[0]\nensemble\n")


def test_shot_sampling_is_seeded():
    r1 = run_circuit(BELL, shots=1000, seed=7)
    r2 = run_circuit(BELL, shots=1000, seed=7)
    c1 = r1.records[-1].counts
    c2 = r2.records[-1].counts
    assert c1 == c2
    assert sum(c1.values()) == 1000
    assert set(c1) <= {"00", "01", "10", "11"}


def test_shot_sampling_covers_measure_records():
    report = run_circuit("qubits 1\nh q[0]\nmeasure q[0]\n", shots=200, seed=3)
    counts = report.records[0].counts
    assert sum(counts.values()) == 200
    assert set(counts) <= {"+", "-"}


def test_report_text_is_deterministic():
    report = run_circuit(BELL)
    text = report.to_text(timing=False)
    assert text == run_circuit(BELL).to_text(timing=False)
    assert "qubits 2" in text and "partitions 3" in text and "ensemble:" in text


def test_schedule_dump_matches_compile():
    text = format_schedule(run_circuit(BELL).schedule)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[2] == "2 solo | ensemble"


def test_memory_noise_elapses_once_per_partition():
    # two parallel gates share one partition: one decoherence step, not two
    noise = NoiseModel(f=0.9)
    par = run_circuit("qubits 2\nh q[0]\nh q[1]\nexpect XX\n", noise)
    ser = run_circuit("qubits 2\nh q[0]\nbarrier\nh q[1]\nexpect XX\n", noise)
    vpar = par.records[0].values[0]
    vser = ser.records[0].values[0]
    assert abs(vpar - 0.9 * 0.9) < 1e-12  # one step damps both transverse digits
    assert vser < vpar - 1e-3  # the extra partition costs another step


def test_thermal_population_feeds_decay():
    # g < 1 pulls the ground-state population toward p
    noise = NoiseModel(g=0.5, p=0.6)
    report = run_circuit("qubits 1\nu1(0.0) q[0]\nmeasure q[0]\n", noise)
    # after one gate partition: a3 = 0.5*0.5 + 0.2*0.5*0.5 = 0.3, p+ = (1+2*0.3)/2
    assert abs(report.records[0].values[0] - 0.8) < 1e-12


def test_verify_noiseless_random_circuits():
    worst = 0.0
    for seed in range(8):
        text = random_circuit_text(np.random.default_rng(seed), 3, 15)
        res = verify_circuit(text)
        worst = max(worst, res.state_divergence, res.record_divergence)
    assert worst < 1e-12


def test_verify_noisy_full_model():
    noise = NoiseModel(
        r_x=0.99, r_y=0.985, r_z=0.995, r_cx=0.99,
        alpha_x=0.02, alpha_y=-0.01, alpha_z=0.015, alpha_cx=0.03,
        d1=0.97, d2=0.96, f=0.995, g=0.99, p=0.9, f_meas=0.98, g_meas=0.97,
    )
    src = (
        "qubits 3\n"
        "h q[0]\nu3(0.7,0.2,-0.4) q[1]\ncx q[0],q[1]\nu1(pi/4) q[2]\n"
        "measure_x q[0]\ncx q[1],q[2]\nexpect ZIZ\nmeasure q[2]\n"
        "bell q[0],q[1]\nreset q[1]\nensemble\n"
    )
    res = verify_circuit(src, noise, init="thermal")
    assert res.state_divergence < 1e-12
    assert res.record_divergence < 1e-12
    assert res.records_checked == 5
    assert "max state divergence" in res.to_text()


def test_verify_random_noisy_circuits(rng):
    noise = NoiseModel(r_x=0.98, r_y=0.99, r_z=0.97, r_cx=0.99, alpha_cx=0.05,
                       d1=0.95, d2=0.9, f=0.99, g=0.98, p=0.85)
    for seed in range(5):
        text = random_circuit_text(np.random.default_rng(100 + seed), 2, 12)
        res = verify_circuit(text, noise)
        assert res.state_divergence < 1e-12, text
        assert res.record_divergence < 1e-12, text


def test_a_fault_in_the_oracle_readout_channel_shows_in_the_record(monkeypatch):
    # the oracle reads each record from the state its readout channel leaves,
    # so a wrong readout weight shows in the record, not only in the state
    build = oracle._readout_channel
    monkeypatch.setattr(oracle, "_readout_channel", lambda proj, d: build(proj, d - 0.05))
    res = verify_circuit("qubits 2\nh q[0]\nmeasure_x q[0]\ncx q[0],q[1]\n", NoiseModel(d1=0.9))
    assert res.record_divergence >= 1e-3


def test_a_bad_member_is_refused_before_the_state_changes():
    # Schedule.angles checks every member in one walk before either executor
    # applies any: the engine and the oracle raise the same error, and
    # neither the state, its pending factors nor rho change
    noise = NoiseModel(r_z=0.99, d1=0.9, f=0.99, g=0.98)
    good = [
        Partition("gate", [Instruction("u1", (0,), (0.3,)), Instruction("u3", (1,), (0.1, 0.2, 0.3))]),
        Partition("gate", [Instruction("cx", (0, 2))]),
        Partition("measurement", [Instruction("measure", (1,))]),
    ]
    state = init_zero(3)
    execute_schedule(state, Schedule(good), noise)
    assert state.coeffs.tobytes() != init_zero(3).coeffs.tobytes()
    nan, inf = float("nan"), float("inf")
    for bad, error, match in (
        (Instruction("u3", (3,), (0.1, 0.2, 0.3)), IndexError, "out of range"),
        (Instruction("u1", (3,), (0.7,)), IndexError, "out of range"),
        (Instruction("cx", (0, 5)), IndexError, "out of range"),
        (Instruction("measure_y", (-1,)), IndexError, "out of range"),
        (Instruction("measure_x", (-3,)), IndexError, "out of range"),
        (Instruction("reset", (3,)), IndexError, "out of range"),
        (Instruction("reset", (-1,)), IndexError, "out of range"),
        (Instruction("bell", (1, 7)), IndexError, "out of range"),
        (Instruction("cx", (1, 1)), ValueError, "distinct"),
        (Instruction("bell", (2, 2)), ValueError, "distinct"),
        (Instruction("expect", (), (), "XYZW"), ValueError, "labels"),
        (Instruction("expect", (), (), "XQZ"), ValueError, "label"),
        (Instruction("h", (0,)), ValueError, "unexpected kind"),
        (Instruction("u1", (0,), (nan,)), ValueError, "finite"),
        (Instruction("u1", (0,), (-inf,)), ValueError, "finite"),
        (Instruction("u3", (1,), (0.1, nan, 0.3)), ValueError, "finite"),
        (Instruction("u3", (1,), (inf, 0.2, 0.3)), ValueError, "finite"),
    ):
        schedule = Schedule(good + [Partition("gate", [bad])])
        state = init_zero(3)
        apply_transfer(state, (2,), np.diag([1.0, 0.5, 0.5, 1.0]))  # a pending factor
        want = state.copy()
        with pytest.raises(error, match=match) as engine_error:
            execute_schedule(state, schedule, noise)
        assert _pending_bytes(state) == _pending_bytes(want), bad
        assert state.coeffs.tobytes() == want.coeffs.tobytes(), bad

        dense = oracle.dense_zero(3)
        rho = dense.rho.copy()
        with pytest.raises(error) as oracle_error:
            oracle.run_schedule_dense(dense, schedule, noise)
        assert type(oracle_error.value) is type(engine_error.value), bad
        assert str(oracle_error.value) == str(engine_error.value), bad
        assert dense.rho.tobytes() == rho.tobytes(), bad


# hand-built members whose angle count, qubit count or expect string is
# wrong for their kind in circuit.KINDS, at n = 3; the parser refuses each
MISSHAPEN = [
    Instruction("ccx", (0, 1)),
    Instruction("u2", (0,), (0.1,)),
    Instruction("u3", (0,), (0.1,)),
    Instruction("u1", (0,)),
    Instruction("cx", (1,)),
    Instruction("bell", (1,)),
    Instruction("measure", (0, 1)),
    Instruction("h", (0, 1)),
    Instruction("ensemble", (0,)),
    Instruction("expect", string="Z"),
]


def _pending_bytes(s):
    return {k: (qs, f.tobytes()) for k, (qs, f) in s._pending.items()}


@pytest.mark.parametrize("bad", MISSHAPEN, ids=format_instruction)
def test_a_member_of_the_wrong_shape_is_refused_at_every_boundary(bad):
    # the compiler names the source form; the engine and the oracle refuse it
    # with one message (Schedule.angles), before the u3 ahead of it applies
    first = Instruction("u3", (2,), (0.1, 0.2, 0.3))
    with pytest.raises(CompileError) as err:
        compile_circuit(3, [first, bad])
    assert str(err.value).endswith(f": {format_instruction(bad)}")

    schedule = Schedule([Partition("gate", [first]), Partition(category_of(bad.kind), [bad])])
    noise = NoiseModel(r_z=0.99, d1=0.9, f=0.99, g=0.98)
    state = init_zero(3)
    apply_transfer(state, (2,), np.diag([1.0, 0.5, 0.5, 1.0]))  # a pending factor
    want = state.copy()
    with pytest.raises(ValueError) as engine_error:
        execute_schedule(state, schedule, noise)
    assert _pending_bytes(state) == _pending_bytes(want)  # nothing applied or flushed
    assert state.coeffs.tobytes() == want.coeffs.tobytes()

    dense = oracle.dense_zero(3)
    rho = dense.rho.copy()
    with pytest.raises(ValueError) as oracle_error:
        oracle.run_schedule_dense(dense, schedule, noise)
    assert str(oracle_error.value) == str(engine_error.value)
    assert dense.rho.tobytes() == rho.tobytes()
