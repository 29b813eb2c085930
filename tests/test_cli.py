import pytest

from paulisim import cli, engine
from paulisim.cli import main
from paulisim.errors import CompileError, InternalError
from paulisim.state import init_zero, load_state, save_state


def write(path, text):
    path.write_text(text)
    return str(path)


BELL = "qubits 2\nh q[0]\ncx q[0],q[1]\nensemble\n"


def test_run_reports_distribution(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    assert main(["run", "--circuit", circuit]) == 0
    out = capsys.readouterr().out
    assert "qubits 2" in out and "partitions 3" in out
    assert "00 0.5" in out.replace("0.49999999999999994", "0.5")


def test_run_with_noise_file(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    noise = write(tmp_path / "dev.noise", "d1 = 0.8\nf = 0.99\n")
    assert main(["run", "--circuit", circuit, "--noise", noise]) == 0
    assert "ensemble:" in capsys.readouterr().out


def test_run_writes_report_file(tmp_path):
    circuit = write(tmp_path / "bell.circ", BELL)
    out_path = tmp_path / "report.txt"
    assert main(["run", "--circuit", circuit, "--out", str(out_path)]) == 0
    assert "instructions 3 -> 3" in out_path.read_text()


def test_run_save_state_round_trips(tmp_path):
    circuit = write(tmp_path / "x.circ", "qubits 1\nx q[0]\n")
    state_path = tmp_path / "final.state"
    assert main(["run", "--circuit", circuit, "--save-state", str(state_path)]) == 0
    s = load_state(state_path)
    assert s.n == 1 and abs(s.coeffs[3] + 0.5) < 1e-15


def test_run_schedule_dump_to_stdout(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    assert main(["run", "--circuit", circuit, "--schedule-dump", "-"]) == 0
    out = capsys.readouterr().out
    assert "0 gate | " in out and "2 solo | ensemble" in out


def test_run_schedule_dump_to_file(tmp_path):
    circuit = write(tmp_path / "bell.circ", BELL)
    dump = tmp_path / "schedule.txt"
    assert main(["run", "--circuit", circuit, "--schedule-dump", str(dump)]) == 0
    assert dump.read_text().startswith("0 gate | ")


def test_run_schedule_dump_compiles_once(tmp_path, capsys, monkeypatch):
    # the engine compiles parsed text through compile_checked, past the door
    calls = []
    compile_checked = engine.compile_checked

    def counted(*args):
        calls.append(args)
        return compile_checked(*args)

    monkeypatch.setattr(engine, "compile_checked", counted)
    circuit = write(tmp_path / "bell.circ", BELL)
    assert main(["run", "--circuit", circuit, "--schedule-dump", "-"]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert out.startswith("0 gate | ") and "2 solo | ensemble\nqubits 2\n" in out


def test_run_shots_with_seed(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    assert main(["run", "--circuit", circuit, "--shots", "100", "--seed", "5"]) == 0
    assert "counts:" in capsys.readouterr().out


def test_run_init_bitstring(tmp_path, capsys):
    circuit = write(tmp_path / "id.circ", "qubits 2\nensemble\n")
    assert main(["run", "--circuit", circuit, "--init", "bitstring:10"]) == 0
    assert "10 1.0" in capsys.readouterr().out


def test_sweep_prints_table(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    code = main([
        "sweep", "--circuit", circuit,
        "--param", "d1", "--values", "1.0,0.9", "--metric", "success:11",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "d1\tsuccess:11\tpartitions"
    assert len(lines) == 3


def test_sweep_rejects_non_finite_values(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    code = main([
        "sweep", "--circuit", circuit,
        "--param", "alpha", "--values", "nan", "--metric", "success:11",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "alpha_x must be finite" in captured.err
    assert captured.out == ""


def test_sweep_refuses_an_empty_value_list(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    code = main(["sweep", "--circuit", circuit, "--param", "d1", "--values", ", ,", "--metric", "success:11"])
    assert code == 2
    assert capsys.readouterr().err == "error: empty --values list\n"


def test_gen_adder_emits_runnable_circuit(tmp_path, capsys):
    assert main(["gen", "adder", "110", "011"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("qubits 10")
    circuit = write(tmp_path / "adder.circ", text)
    assert main(["run", "--circuit", circuit]) == 0


def test_gen_qft_with_out_file(tmp_path):
    out = tmp_path / "qft.circ"
    assert main(["gen", "qft", "3", "--out", str(out)]) == 0
    assert out.read_text().startswith("qubits 3")


def test_verify_reports_divergence(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    noise = write(tmp_path / "dev.noise", "r_cx = 0.97\nd1 = 0.9\n")
    assert main(["verify", "--circuit", circuit, "--noise", noise]) == 0
    out = capsys.readouterr().out
    assert "max state divergence" in out
    assert "records checked 1" in out


def test_exit_code_syntax_error(tmp_path, capsys):
    circuit = write(tmp_path / "bad.circ", "qubits 2\nfrobnicate q[0]\n")
    assert main(["run", "--circuit", circuit]) == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code, prefix", [(CompileError, 4, "compile error"), (InternalError, 7, "internal error")]
)
def test_exit_codes_of_compile_and_internal_errors(tmp_path, capsys, monkeypatch, error, code, prefix):
    # parsed text never reaches either: the parser refuses first
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "run_circuit", fail)
    circuit = write(tmp_path / "bell.circ", BELL)
    assert main(["run", "--circuit", circuit]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_exit_code_capacity(tmp_path, capsys):
    circuit = write(tmp_path / "big.circ", "qubits 20\nx q[0]\n")
    assert main(["run", "--circuit", circuit]) == 5


def test_exit_code_capacity_before_schedule_dump(tmp_path, capsys):
    circuit = write(tmp_path / "big.circ", "qubits 15\nx q[0]\nensemble\n")
    assert main(["run", "--circuit", circuit, "--schedule-dump", "-"]) == 5
    assert capsys.readouterr().out == ""
    dump = tmp_path / "schedule.txt"
    assert main(["run", "--circuit", circuit, "--schedule-dump", str(dump)]) == 5
    assert not dump.exists()


def test_exit_code_negative_shots(tmp_path, capsys):
    circuit = write(tmp_path / "bell.circ", BELL)
    assert main(["run", "--circuit", circuit, "--shots", "-1"]) == 2
    assert "shots" in capsys.readouterr().err


def test_exit_code_verify_over_oracle_cap(tmp_path, capsys):
    circuit = write(tmp_path / "nine.circ", "qubits 9\nx q[0]\nensemble\n")
    assert main(["verify", "--circuit", circuit]) == 5


def test_exit_code_state_format(tmp_path, capsys):
    circuit = write(tmp_path / "id.circ", "qubits 1\nensemble\n")
    state = write(tmp_path / "bad.state", "junk\n")
    assert main(["run", "--circuit", circuit, "--init", f"file:{state}"]) == 6
    # 1/4 (II + XX + YY + ZZ) passes the purity and coefficient bounds but is not positive
    pair = write(tmp_path / "pair.circ", "qubits 2\nbell q[0],q[1]\n")
    lines = ["pauli-dm v1 n=2"] + ["0.25" if i in (0, 5, 10, 15) else "0.0" for i in range(16)]
    state = write(tmp_path / "nonpositive.state", "\n".join(lines) + "\n")
    assert main(["run", "--circuit", pair, "--init", f"file:{state}"]) == 6
    assert main(["verify", "--circuit", pair, "--init", f"file:{state}"]) == 6


def test_exit_code_state_file_of_another_size(tmp_path, capsys):
    # 9 qubits is over the oracle's cap, yet verify reports the size mismatch
    state = tmp_path / "nine.state"
    save_state(init_zero(9), state)
    pair = write(tmp_path / "pair.circ", "qubits 2\nensemble\n")
    init = ["--init", f"file:{state}"]
    assert main(["verify", "--circuit", pair, *init]) == 6
    assert main(["run", "--circuit", pair, *init]) == 6
    assert main(["sweep", "--circuit", pair, "--param", "f", "--values", "0.9",
                 "--metric", "fidelity", *init]) == 6
    assert main(["sweep", "--circuit", pair, "--param", "f", "--values", "0.9",
                 "--metric", f"fidelity:{state}"]) == 6
    assert capsys.readouterr().err.count("state file holds 9 qubits, circuit needs 2") == 4


def test_exit_code_fidelity_metric_without_a_path(tmp_path, capsys):
    # what --metric fidelity:$REF gives with REF unset
    pair = write(tmp_path / "pair.circ", "qubits 2\nh q[0]\ncx q[0],q[1]\n")
    assert main(["sweep", "--circuit", pair, "--param", "r", "--values", "0.9",
                 "--metric", "fidelity:"]) == 2
    captured = capsys.readouterr()
    assert "missing its state-file path" in captured.err
    assert captured.out == ""


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["run", "--circuit", str(tmp_path / "nope.circ")]) == 2


def test_exit_code_bad_noise_value(tmp_path, capsys):
    circuit = write(tmp_path / "id.circ", "qubits 1\nensemble\n")
    noise = write(tmp_path / "bad.noise", "r_x = 2.0\n")
    assert main(["run", "--circuit", circuit, "--noise", noise]) == 2
