import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_circuit_text
from paulisim import circuit
from paulisim.circuit import (
    NOISE_KEYS,
    Instruction,
    NoiseModel,
    format_instruction,
    parse_circuit,
    parse_noise_config,
    print_circuit,
)
from paulisim.errors import CircuitSyntaxError


def test_parse_minimal_program():
    n, ins = parse_circuit("qubits 2\nh q[0]\ncx q[0],q[1]\nmeasure q[0]\n")
    assert n == 2
    assert [i.kind for i in ins] == ["h", "cx", "measure"]
    assert ins[1].qubits == (0, 1)


def test_parse_angles_forms():
    src = (
        "qubits 1\n"
        "u1(pi) q[0]\n"
        "u1(-pi) q[0]\n"
        "u1(pi/2) q[0]\n"
        "u1(-pi/4) q[0]\n"
        "u1(0.25) q[0]\n"
        "u1(-1e-3) q[0]\n"
        "u3(pi/2, 0, pi) q[0]\n"
    )
    _, ins = parse_circuit(src)
    got = [i.angles[0] for i in ins[:6]]
    assert got == [math.pi, -math.pi, math.pi / 2, -math.pi / 4, 0.25, -1e-3]
    assert ins[6].angles == (math.pi / 2, 0.0, math.pi)


def test_parse_skips_comments_and_blanks():
    src = "# adder demo\n\nqubits 1\n  # indented comment\nx q[0]\n\n"
    n, ins = parse_circuit(src)
    assert n == 1 and len(ins) == 1


def test_parse_expect_and_solo_forms():
    n, ins = parse_circuit("qubits 2\nexpect ZX\nensemble\nbarrier\nbell q[1],q[0]\n")
    assert ins[0].string == "ZX"
    assert ins[1].kind == "ensemble" and ins[1].qubits == ()
    assert ins[3].qubits == (1, 0)


def test_syntax_errors_carry_line_numbers():
    cases = [
        ("h q[0]\n", 1),  # missing header
        ("qubits 0\n", 1),  # bad qubit count
        ("qubits 1\nfoo q[0]\n", 2),  # unknown mnemonic
        ("qubits 1\nu1() q[0]\n", 2),  # empty angle list
        ("qubits 1\nu1(2*pi) q[0]\n", 2),  # unsupported expression
        ("qubits 1\nu1(pi/0) q[0]\n", 2),
        ("qubits 1\nu1(inf) q[0]\n", 2),
        ("qubits 1\nu1(--1) q[0]\n", 2),  # one sign at most
        ("qubits 1\nu1(+-1) q[0]\n", 2),
        ("qubits 1\nu1(- 1) q[0]\n", 2),  # no space after the sign
        ("qubits 1\nu1(1_0) q[0]\n", 2),  # no digit separators
        ("qubits 1\nx q[1]\n", 2),  # out of range
        ("qubits 1\nx q0\n", 2),  # malformed operand
        ("qubits 2\nx q[\u0661]\n", 2),  # Arabic-Indic digit one: ASCII digits only
        ("qubits \u0662\n", 1),  # Arabic-Indic digit two
        ("qubits 2\ncx q[0],q[0]\n", 2),  # duplicate operand
        ("qubits 2\ncx q[0]\n", 2),  # arity
        ("qubits 2\nexpect Z\n", 2),  # wrong string length
        ("qubits 2\nexpect ZQ\n", 2),  # bad label
        ("qubits 2\nbarrier q[0]\n", 2),  # barrier takes no operands
        ("qubits 1\nmeasure(0.1) q[0]\n", 2),  # measure takes no angles
        ("qubits 1\nqubits 1\n", 2),  # duplicate header
    ]
    for src, line in cases:
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(src)
        assert f"line {line}:" in str(err.value), src


def test_named_gates_all_parse():
    src = "qubits 3\n" + "\n".join(
        f"{k} q[0]" for k in ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
    ) + "\nccx q[0],q[1],q[2]\nu2(0.1,0.2) q[1]\nreset q[2]\nmeasure_x q[0]\nmeasure_y q[1]\n"
    _, ins = parse_circuit(src)
    assert len(ins) == 13


def test_print_parse_round_trip_fixed():
    src = "qubits 2\nu3(0.5,-0.25,3.141592653589793) q[1]\ncx q[1],q[0]\nexpect XY\n"
    n, ins = parse_circuit(src)
    again_n, again = parse_circuit(print_circuit(n, ins))
    assert again_n == n and again == ins


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 4))
def test_print_parse_round_trip_random(seed, n):
    text = random_circuit_text(np.random.default_rng(seed), n, 15)
    num, ins = parse_circuit(text)
    again_n, again = parse_circuit(print_circuit(num, ins))
    assert again_n == num and again == ins


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=1e-05)
@example(x=-0.0)
@example(x=5e-324)
def test_printed_angle_parses_back_to_the_same_bits(x):
    text = print_circuit(1, [Instruction("u1", (0,), (x,))])
    _, (ins,) = parse_circuit(text)
    assert struct.pack("<d", ins.angles[0]) == struct.pack("<d", x)


def test_format_instruction_examples():
    assert format_instruction(Instruction("cx", (0, 1))) == "cx q[0],q[1]"
    assert format_instruction(Instruction("ensemble")) == "ensemble"
    assert format_instruction(Instruction("expect", string="ZI")) == "expect ZI"
    text = format_instruction(Instruction("u1", (2,), (math.pi,)))
    assert text.startswith("u1(") and text.endswith(") q[2]")


# --- noise configuration -----------------------------------------------------


def test_noise_model_defaults_are_noiseless():
    m = NoiseModel()
    assert m.r_x == m.r_y == m.r_z == m.r_cx == 1.0
    assert m.alpha_x == m.alpha_cx == 0.0
    assert m.d1 == m.d2 == 1.0
    assert m.f == m.g == 1.0 and m.p == 1.0
    assert m.f_meas is None and m.g_meas is None


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(r_x=1.5)
    with pytest.raises(ValueError):
        NoiseModel(d2=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(g=1.01)


@pytest.mark.parametrize("key", NOISE_KEYS)
def test_every_noise_key_is_range_checked(key):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            NoiseModel(**{key: bad})
    if key.startswith("alpha_"):
        for ok in (-3.0, 3.0):
            assert getattr(NoiseModel(**{key: ok}), key) == ok
        return
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match=rf"{key} must lie in \[0, 1\], got {bad}"):
            NoiseModel(**{key: bad})
    for ok in (0.0, 1.0):
        assert getattr(NoiseModel(**{key: ok}), key) == ok


def test_parse_noise_config_full():
    text = """# device sheet
r_x = 0.99
r_cx = 0.97
alpha_z = pi/16
d1 = 0.98
d2 = 0.96
f = 0.995
g = 0.999
p = 0.9
f_meas = 0.97
g_meas = 0.96
"""
    m = parse_noise_config(text)
    assert m.r_x == 0.99 and m.r_cx == 0.97
    assert abs(m.alpha_z - math.pi / 16) < 1e-15
    assert m.f_meas == 0.97 and m.g_meas == 0.96
    assert m.r_y == 1.0  # unset keys stay at defaults


def test_parse_noise_config_last_assignment_wins():
    m = parse_noise_config("d1 = 0.5\nd1 = 0.75\n")
    assert m.d1 == 0.75


def test_parse_noise_config_errors():
    with pytest.raises(ValueError) as err:
        parse_noise_config("bogus = 0.5\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_noise_config("r_x\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_noise_config("r_x = oops\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError):
        parse_noise_config("r_x = 1.5\n")
    with pytest.raises(ValueError, match="line 2: malformed value for 'f'"):
        parse_noise_config("g = 1\nf = --0.5\n")


def test_parse_noise_config_empty_is_default():
    assert parse_noise_config("") == NoiseModel()


def test_noise_model_splits_into_channel_views():
    m = NoiseModel(r_x=0.9, alpha_cx=0.1, d1=0.8, f=0.99, g=0.98, p=0.7)
    assert m.rotation().r_x == 0.9 and m.rotation().alpha_cx == 0.1
    assert m.measurement().d1 == 0.8
    assert m.memory().pair("gate") == (0.99, 0.98)
    assert m.memory().p == 0.7


# --- operand errors ---------------------------------------------------------------


MALFORMED_OPERANDS = [
    ("h q[ 1]", "malformed operand 'q[ 1]', expected q[INDEX]"),
    ("h q[1] q[2]", "malformed operand 'q[1] q[2]', expected q[INDEX]"),
    ("measure q[1]x", "malformed operand 'q[1]x', expected q[INDEX]"),
    ("cx q[1],q[1]", "duplicate operand"),
    ("ccx q[0],q[2],q[0]", "duplicate operand"),
    ("h q[3]", "qubit index 3 out of range for 3 qubits"),
    ("cx q[0],q[7]", "qubit index 7 out of range for 3 qubits"),
    ("cx q[1]", "expected 2 qubit operand(s), got 1"),
    ("h q[0],q[1]", "expected 1 qubit operand(s), got 2"),
    ("cx q[0],q[1],", "expected 2 qubit operand(s), got 3"),
]


@pytest.mark.parametrize("line, message", MALFORMED_OPERANDS)
def test_malformed_operands_keep_their_messages(line, message):
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(f"qubits 3\nh q[0]\n{line}\n")
    assert str(err.value) == f"line 3: {message}"


# --- the line cache ---------------------------------------------------------------


def test_a_repeated_line_yields_equal_but_distinct_records():
    _, first = parse_circuit("qubits 2\ncx q[0],q[1]\ncx q[0],q[1]\nu3(0.1,0.2,0.3) q[1]\n")
    _, again = parse_circuit("qubits 2\ncx q[0],q[1]\n")
    a, b, _ = first
    assert a == b == again[0] == Instruction("cx", (0, 1))
    assert a is not b and again[0] is not a and again[0] is not b
    assert type(a) is Instruction and repr(a) == "Instruction(kind='cx', qubits=(0, 1), angles=(), string='')"


# lines refused before their operands are read, on 3 qubits
MALFORMED_LINES = [
    ("u1(1.0.0) q[0]", "malformed angle '1.0.0'"),
    ("u1(1e999) q[0]", "angle '1e999' is not finite"),  # overflows to inf
    ("9x q[0]", "cannot parse '9x q[0]'"),
    ("expect(0.1) ZZ", "expect takes no angle list"),
    ("u1 q[0]", "u1 needs 1 angle(s)"),
    ("u3(0.1,0.2) q[0]", "u3 needs 3 angle(s), got 2"),
]


@pytest.mark.parametrize("line, message", MALFORMED_OPERANDS + MALFORMED_LINES)
def test_a_refused_line_names_its_own_line_each_time(line, message):
    # the same text refused again, at another line, after a valid line cached
    for lineno in (2, 4):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("qubits 3\n" + "h q[0]\n" * (lineno - 2) + f"{line}\n")
        assert str(err.value) == f"line {lineno}: {message}" and err.value.line == lineno


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  # two\n\n"])
def test_a_text_with_no_header_is_refused_at_line_1(text):
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(text)
    assert str(err.value) == "line 1: missing 'qubits N' header" and err.value.line == 1


def test_a_line_valid_on_more_qubits_is_refused_on_fewer():
    n, [ins] = parse_circuit("qubits 6\ncx q[0],q[5]\n")
    assert (n, ins) == (6, Instruction("cx", (0, 5)))
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 3\nh q[1]\n\ncx q[0],q[5]\n")
    assert str(err.value) == "line 4: qubit index 5 out of range for 3 qubits"
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 5\nexpect ZZZZZZ\n")
    assert str(err.value) == "line 2: expect string must have one label per qubit (5), got 6"
    assert parse_circuit("qubits 6\nexpect ZZZZZZ\n")[1] == [Instruction("expect", string="ZZZZZZ")]


def test_signed_zero_angles_keep_their_signs():
    text = "qubits 1\nu1(-0.0) q[0]\nu1(0.0) q[0]\nu1(-0.0) q[0]\nu1(+0.0) q[0]\n"
    for _ in range(2):  # the second parse reads every line from the cache
        _, ins = parse_circuit(text)
        signs = [struct.pack("<d", i.angles[0]) for i in ins]
        assert signs == [struct.pack("<d", v) for v in (-0.0, 0.0, -0.0, 0.0)]
    _, [zero] = parse_circuit("qubits 1\nu1(0.0) q[0]\n")
    assert struct.pack("<d", zero.angles[0]) == struct.pack("<d", 0.0)


def test_the_line_cache_stays_at_its_bound():
    size = circuit._LINE_CACHE_SIZE
    text = "qubits 1\n" + "".join(f"u1({i}.5) q[0]\n" for i in range(size + 50))
    _, ins = parse_circuit(text)
    assert [i.angles[0] for i in ins] == [i + 0.5 for i in range(size + 50)]
    info = circuit._parse_line.cache_info()
    assert info.maxsize == size and info.currsize == size
