import sys

import numpy as np
import pytest

from paulisim.circuit import NoiseModel
from paulisim.cli import main
from paulisim.errors import StateFormatError
from paulisim.generators import adder_success_pattern, gen_adder
from paulisim.state import init_bitstring, save_state
from paulisim.sweep import build_noise, format_table, pattern_mass, sweep

BELL = "qubits 2\nh q[0]\ncx q[0],q[1]\nensemble\n"


def test_build_noise_single_key():
    m = build_noise(NoiseModel(), "f", 0.9)
    assert m.f == 0.9 and m.g == 1.0


def test_build_noise_grouped_rotation_keys():
    m = build_noise(NoiseModel(), "r", 0.95)
    assert (m.r_x, m.r_y, m.r_z, m.r_cx) == (0.95, 0.95, 0.95, 0.95)
    m = build_noise(NoiseModel(), "alpha", 0.1)
    assert (m.alpha_x, m.alpha_y, m.alpha_z, m.alpha_cx) == (0.1, 0.1, 0.1, 0.1)


def test_build_noise_keeps_base_values():
    base = NoiseModel(d1=0.8)
    m = build_noise(base, "r", 0.9)
    assert m.d1 == 0.8


def test_build_noise_unknown_key():
    with pytest.raises(ValueError):
        build_noise(NoiseModel(), "temperature", 0.5)


def test_pattern_mass_marginalizes_dont_cares():
    dist = {"110": 0.5, "010": 0.25, "011": 0.25}
    assert abs(pattern_mass(dist, "x10") - 0.75) < 1e-15
    assert abs(pattern_mass(dist, "xxx") - 1.0) < 1e-15
    assert pattern_mass(dist, "000") == 0.0


def test_pattern_mass_sums_what_the_prefix_match_summed_and_refuses_bad_patterns():
    rng = np.random.default_rng(47)
    labels = [format(i, "010b") for i in range(2**10)]
    for _ in range(50):
        p = rng.random(2**10)
        dist = dict(zip(labels, (p / p.sum()).tolist()))
        pattern = "".join(rng.choice(list("01x"), size=10, p=[0.2, 0.2, 0.6]))
        old = sum(p for label, p in dist.items() if all(pc in ("x", lc) for lc, pc in zip(label, pattern)))
        assert pattern_mass(dist, pattern) == old, pattern
    dist = {"00": 0.5, "11": 0.5}
    for pattern in ("1", "1x1"):  # a prefix, and one character too many
        with pytest.raises(ValueError, match="characters, the outcomes 2"):
            pattern_mass(dist, pattern)
    with pytest.raises(ValueError, match="a character other than 0, 1 and x"):
        pattern_mass(dist, "2x")


def test_sweep_success_metric_on_bell():
    rows = sweep(BELL, "d1", [1.0, 0.9], "success:11")
    assert abs(rows[0].metric - 0.5) < 1e-12
    assert rows[0].partitions == 3
    assert rows[1].metric < rows[0].metric


def test_sweep_fidelity_uses_noiseless_reference():
    rows = sweep("qubits 2\nh q[0]\ncx q[0],q[1]\n", "r", [1.0, 0.99, 0.95], "fidelity")
    assert abs(rows[0].metric - 1.0) < 1e-10
    assert rows[0].metric >= rows[1].metric >= rows[2].metric


def test_sweep_fidelity_against_saved_state(tmp_path):
    path = tmp_path / "target.txt"
    save_state(init_bitstring("11"), path)
    rows = sweep("qubits 2\nx q[0]\nx q[1]\n", "r", [1.0], f"fidelity:{path}")
    assert abs(rows[0].metric - 1.0) < 1e-10


def test_sweep_rejects_bad_metrics():
    with pytest.raises(ValueError):
        sweep(BELL, "r", [1.0], "success:11x0")  # wrong pattern length
    with pytest.raises(ValueError):
        sweep(BELL, "r", [1.0], "success:12")
    with pytest.raises(ValueError):
        sweep(BELL, "r", [1.0], "purity")


def test_sweep_refuses_fidelity_with_an_empty_path():
    # "fidelity:" is a reference file with no name, not the noiseless reference
    with pytest.raises(ValueError, match="missing its state-file path"):
        sweep(BELL, "r", [1.0], "fidelity:")


def test_sweep_requires_ensemble_for_success_metric(tmp_path, monkeypatch, capsys):
    # refused from the compiled schedule, before any row runs; the package's
    # ``sweep`` name is the function, so the module comes from sys.modules
    module, calls = sys.modules["paulisim.sweep"], []
    run = module.execute_schedule
    monkeypatch.setattr(module, "execute_schedule", lambda *a: calls.append(a) or run(*a))
    with pytest.raises(ValueError, match="success metric needs an ensemble instruction in the circuit"):
        sweep("qubits 2\nh q[0]\n", "r", [1.0], "success:xx")
    text = "qubits 10\nh q[0]\ncx q[0],q[9]\nmeasure q[9]\n"
    with pytest.raises(ValueError, match="success metric needs an ensemble instruction in the circuit"):
        sweep(text, "r", [1.0, 0.9], "success:" + "x" * 10)
    path = tmp_path / "no_ensemble.circ"
    path.write_text(text)
    argv = ["sweep", "--circuit", str(path), "--param", "r", "--values", "1.0", "--metric", "success:" + "x" * 10]
    assert main(argv) == 2
    assert "success metric needs an ensemble" in capsys.readouterr().err
    assert calls == []


def test_a_bad_swept_value_is_refused_before_any_row_runs(tmp_path, monkeypatch, capsys):
    # every row's noise model is built before the first row, and before the
    # noiseless reference run of the fidelity metric
    module, calls = sys.modules["paulisim.sweep"], []
    run = module.execute_schedule
    monkeypatch.setattr(module, "execute_schedule", lambda *a: calls.append(a) or run(*a))
    text = gen_adder("01", "10")
    metric = "success:" + adder_success_pattern("01", "10")
    with pytest.raises(ValueError, match=r"r_x must lie in \[0, 1\], got 1.5"):
        sweep(text, "r", [1.0, 0.99, 1.5], metric)
    with pytest.raises(ValueError, match=r"f must lie in \[0, 1\], got -0.5"):
        sweep(BELL, "f", [1.0, -0.5], "fidelity")
    path = tmp_path / "adder.circ"
    path.write_text(text)
    argv = ["sweep", "--circuit", str(path), "--param", "r", "--values", "1.0,0.99,1.5", "--metric", metric]
    assert main(argv) == 2
    assert "r_x must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert calls == []


def test_sweep_reference_qubit_mismatch(tmp_path):
    path = tmp_path / "target.txt"
    save_state(init_bitstring("101"), path)
    with pytest.raises(StateFormatError, match="state file holds 3 qubits, circuit needs 2"):
        sweep(BELL, "r", [1.0], f"fidelity:{path}")


def test_adder_success_decreases_with_memory_noise():
    text = gen_adder("10", "01")
    pattern = adder_success_pattern("10", "01")
    rows = sweep(text, "f", [1.0, 0.995, 0.99], f"success:{pattern}")
    ms = [r.metric for r in rows]
    assert abs(ms[0] - 1.0) < 1e-10
    assert ms[0] > ms[1] > ms[2]


def test_format_table_is_tab_separated():
    rows = sweep(BELL, "d1", [1.0, 0.9], "success:11")
    table = format_table("d1", "success:11", rows)
    lines = table.strip().split("\n")
    assert lines[0] == "d1\tsuccess:11\tpartitions"
    first = lines[1].split("\t")
    assert first[0] == "1.0" and first[2] == "3"
    assert float(first[1]) == pytest.approx(0.5, abs=1e-12)
