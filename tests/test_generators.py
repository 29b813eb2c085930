import numpy as np
import pytest

from helpers import random_pauli_state
from paulisim import oracle
from paulisim.circuit import parse_circuit
from paulisim.engine import run_circuit
from paulisim.errors import CapacityError
from paulisim.generators import adder_success_pattern, gen_adder, gen_qft
from paulisim.sweep import pattern_mass
from paulisim.state import init_uniform, overlap
from paulisim.transpile import decompose


def adder_qubit_count(a: str, b: str) -> int:
    """Qubits of gen_adder(a, b): registers a and c of the wider operand's
    width, and register b one bit wider for the final carry."""
    return 3 * max(len(a), len(b)) + 1


def test_adder_register_layout():
    assert adder_qubit_count("110", "011") == 10  # 3 + 4 + 3
    assert adder_qubit_count("1", "1") == 4
    assert adder_success_pattern("110", "011") == "xxx1001xxx"
    assert adder_success_pattern("1", "1") == "x10x"


def test_adder_pads_operands_to_common_width():
    assert adder_success_pattern("110", "11") == "xxx1001xxx"
    text_a = gen_adder("110", "11")
    text_b = gen_adder("110", "011")
    assert text_a == text_b


def test_adder_operand_validation():
    with pytest.raises(ValueError):
        gen_adder("10a", "11")
    with pytest.raises(ValueError):
        gen_adder("", "1")


def test_adder_capacity_limit():
    # 5-bit operands need 16 qubits, above the default cap of 14
    with pytest.raises(CapacityError):
        gen_adder("10101", "00001")
    gen_adder("1011", "0001")  # 13 qubits fits


@pytest.mark.parametrize(
    "a,b",
    [("1", "1"), ("10", "01"), ("11", "11"), ("110", "011"), ("111", "111"), ("100", "001")],
)
def test_adder_computes_binary_sums(a, b):
    report = run_circuit(gen_adder(a, b))
    dist = report.records[-1].dist
    mass = pattern_mass(dist, adder_success_pattern(a, b))
    assert abs(mass - 1.0) < 1e-10
    # operand register a is restored, carries are cleaned
    n = max(len(a), len(b))
    top = max(dist, key=dist.get)
    assert top[-n:] == a.zfill(n)  # a occupies the low qubits
    assert top[:n] == "0" * n  # carry register, high qubits


def test_adder_ends_with_ensemble_readout():
    n, ins = parse_circuit(gen_adder("10", "01"))
    assert ins[-1].kind == "ensemble"
    kinds = {i.kind for i in ins[:-1]}
    assert kinds <= {"x", "ccx", "cx"}


def test_qft_text_structure():
    text = gen_qft(3)
    n, ins = parse_circuit(text)
    assert n == 3
    assert sum(1 for i in ins if i.kind == "h") == 3
    assert ins[-1].kind == "cx"  # terminal swap network


def test_qft_equals_fourier_matrix():
    for n in (2, 3):
        nq, ins = parse_circuit(gen_qft(n))
        low = decompose(ins)
        dim = 2**nq
        omega = np.exp(2j * np.pi / dim)
        f = np.array([[omega ** (r * c) for c in range(dim)] for r in range(dim)]) / np.sqrt(dim)
        rng = np.random.default_rng(5)
        s = random_pauli_state(rng, nq)
        d = oracle.to_dense(s)
        rho0 = d.rho.copy()
        oracle.run_instructions_dense(d, low)
        want = f @ rho0 @ f.conj().T
        assert np.max(np.abs(d.rho - want)) < 1e-10


def test_qft_of_ground_state_is_uniform_superposition():
    for n in (2, 4):
        report = run_circuit(gen_qft(n))
        assert abs(overlap(report.final_state, init_uniform(n)) - 1.0) < 1e-10


def test_qft_size_validation():
    with pytest.raises(ValueError):
        gen_qft(0)
    with pytest.raises(CapacityError):
        gen_qft(15)
