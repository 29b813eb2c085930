import ast
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_states_close, random_pauli_state
import paulisim
from paulisim import oracle
from paulisim.errors import CapacityError, StateFormatError
from paulisim.state import (
    DEFAULT_QUBIT_CAP,
    PauliState,
    check_capacity,
    init_bitstring,
    init_thermal,
    init_uniform,
    init_zero,
    load_state,
    overlap,
    partial_trace,
    purity,
    save_state,
)


def test_zero_state_single_qubit_coefficients():
    s = init_zero(1)
    assert np.array_equal(s.coeffs, [0.5, 0.0, 0.0, 0.5])


def test_zero_state_two_qubits_has_all_z_products():
    s = init_zero(2)
    # digits: qubit 0 is the low base-4 digit, z = 3
    expected = np.zeros(16)
    for idx in (0, 3, 12, 15):
        expected[idx] = 0.25
    assert np.array_equal(s.coeffs, expected)


def test_uniform_state_is_plus_product():
    s = init_uniform(2)
    expected = np.zeros(16)
    for idx in (0, 1, 4, 5):  # II, XI, IX, XX
        expected[idx] = 0.25
    assert np.array_equal(s.coeffs, expected)


def test_bitstring_most_significant_qubit_first():
    s = init_bitstring("10")  # qubit 1 is |1>, qubit 0 is |0>
    assert s.coeffs[3] == 0.25  # Z on qubit 0
    assert s.coeffs[12] == -0.25  # Z on qubit 1
    assert s.coeffs[15] == -0.25


def _kron_product(factors) -> np.ndarray:
    """The product state as ``np.kron`` builds it, qubit 0 least significant."""
    coeffs = np.array([1.0])
    for f in factors:
        coeffs = np.kron(f, coeffs)
    return coeffs


def _outer_chain(factors) -> np.ndarray:
    """The product state as a chain of outer products, each into a new array."""
    coeffs = factors[0]
    for f in factors[1:]:
        coeffs = np.multiply.outer(f, coeffs).reshape(-1)
    return coeffs


@pytest.mark.parametrize("n", range(1, 9))
def test_product_states_are_the_kron_products_bit_for_bit(n):
    # and the bytes of the outer-product chain; n = 1 has no outer product
    bits = "".join(np.random.default_rng([79, n]).choice(list("01"), size=n))
    sign = {"0": 0.5, "1": -0.5}
    cases = [
        (init_zero(n), [[0.5, 0.0, 0.0, 0.5]] * n),
        (init_uniform(n), [[0.5, 0.5, 0.0, 0.0]] * n),
        (init_thermal(n, 0.3), [[0.5, 0.0, 0.0, 0.3 - 0.5]] * n),
        (init_thermal(n, 0.9), [[0.5, 0.0, 0.0, 0.9 - 0.5]] * n),
        (init_bitstring(bits), [[0.5, 0.0, 0.0, sign[c]] for c in reversed(bits)]),
    ]
    for state, factors in cases:
        want = _kron_product(np.array(factors))
        assert state.coeffs.tobytes() == want.tobytes()  # zero signs included
        assert want.tobytes() == _outer_chain(np.array(factors)).tobytes()


def test_bitstring_rejects_non_binary():
    with pytest.raises(ValueError):
        init_bitstring("102")
    with pytest.raises(ValueError):
        init_bitstring("")


def test_thermal_two_qubit_purity_value():
    s = init_thermal(2, 0.75)
    assert abs(purity(s) - 0.390625) < 1e-15


def test_thermal_marginal_population():
    # diag(p, 1-p) per qubit: Z coefficient is (2p-1)/2
    s = init_thermal(1, 0.9)
    assert np.allclose(s.coeffs, [0.5, 0.0, 0.0, 0.4])


def test_identity_coefficient_fixed_by_trace():
    for n in (1, 2, 3):
        assert init_zero(n).coeffs[0] == 2.0**-n


def test_purity_of_pure_states_is_one():
    for make in (init_zero, init_uniform):
        for n in (1, 2, 4):
            assert abs(purity(make(n)) - 1.0) < 1e-12


def test_overlap_of_orthogonal_basis_states():
    assert abs(overlap(init_bitstring("0"), init_bitstring("1"))) < 1e-15
    assert abs(overlap(init_zero(2), init_zero(2)) - 1.0) < 1e-15


_SUMS_SCRIPT = """
import numpy as np
from paulisim.state import PauliState, overlap, purity
out = []
for n in (6, 7, 8):
    rng = np.random.default_rng([7, n])
    a, b = (PauliState(n, rng.standard_normal(4**n) / 2**n) for _ in range(2))
    out.append((purity(a), overlap(a, b)))
print(repr(out))
"""


def test_purity_and_overlap_do_not_depend_on_the_blas_thread_count():
    # np.dot splits a long sum across OpenBLAS threads, so its last bits
    # followed the thread count from 4^7 coefficients up
    src = str(Path(paulisim.__file__).parents[1])
    printed = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _SUMS_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        printed.append(run.stdout)
    assert printed[0] == printed[1]


def test_overlap_matches_dense_trace_product(rng):
    for n in (1, 2, 3):
        s1 = random_pauli_state(rng, n)
        s2 = random_pauli_state(rng, n)
        want = float(np.trace(oracle.to_dense(s1).rho @ oracle.to_dense(s2).rho).real)
        assert abs(overlap(s1, s2) - want) < 1e-12


def test_tensor_axis_maps_qubit_to_digit():
    s = init_zero(3)
    view = s.tensor()
    assert view.shape == (4, 4, 4)
    # qubit 0 lives on the last axis
    assert view[0, 0, 3] == s.coeffs[3]
    assert s.axis(0) == 2 and s.axis(2) == 0
    with pytest.raises(IndexError):
        s.axis(3)


def test_partial_trace_of_product_state():
    s = init_bitstring("10")
    reduced = partial_trace(s, 1)  # drop the |1> qubit
    assert_states_close(reduced, init_bitstring("0"), 1e-15)


def test_partial_trace_of_entangled_pair_is_mixed(rng):
    # Phi+ has maximally mixed marginals
    coeffs = np.zeros(16)
    coeffs[0] = 0.25
    coeffs[5] = 0.25
    coeffs[10] = -0.25
    coeffs[15] = 0.25
    bell = PauliState(2, coeffs)
    for k in (0, 1):
        reduced = partial_trace(bell, k)
        assert np.allclose(reduced.coeffs, [0.5, 0.0, 0.0, 0.0])


def test_partial_trace_matches_dense(rng):
    s = random_pauli_state(rng, 3)
    dense = oracle.to_dense(s).rho.reshape(2, 2, 2, 2, 2, 2)
    # axes are (row q2, row q1, row q0, col q2, col q1, col q0)
    want = np.einsum("iajbac->ijbc", dense).reshape(4, 4)
    got = oracle.to_dense(partial_trace(s, 1)).rho
    assert np.max(np.abs(got - want)) < 1e-12


def test_validate_rejects_wrong_trace_and_purity():
    s = init_zero(1)
    s.coeffs[0] = 0.6
    with pytest.raises(StateFormatError):
        s.validate()
    s = init_zero(1)
    s.coeffs[1] = 0.9  # purity above 1
    with pytest.raises(StateFormatError):
        s.validate()


def test_validate_refuses_a_nan():
    # in the trace coefficient, and in any other one, where purity is NaN first
    for i, message in ((0, "trace coefficient"), (5, "purity bound")):
        s = init_zero(2)
        s.coeffs[i] = np.nan
        with pytest.raises(StateFormatError, match=message):
            s.validate()


def test_capacity_cap_enforced():
    with pytest.raises(CapacityError):
        init_zero(DEFAULT_QUBIT_CAP + 1)
    check_capacity(DEFAULT_QUBIT_CAP)  # the cap is inclusive
    with pytest.raises(CapacityError):
        check_capacity(DEFAULT_QUBIT_CAP + 1)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: PauliState(0, np.ones(1)), "qubit count must be >= 1, got 0", id="no qubits"),
        pytest.param(
            lambda: PauliState(1, np.ones(3)), "expected 4 coefficients for n=1, got shape (3,)", id="shape"
        ),
        pytest.param(lambda: check_capacity(0), "qubit count must be >= 1, got 0", id="capacity 0"),
        pytest.param(lambda: overlap(init_zero(1), init_zero(2)), "qubit counts differ: 1 vs 2", id="overlap"),
        pytest.param(lambda: partial_trace(init_zero(1), 0), "partial_trace needs at least 2 qubits", id="trace"),
    ],
)
def test_a_bad_argument_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_save_load_round_trip_file(tmp_path, rng):
    s = random_pauli_state(rng, 3)
    path = tmp_path / "state.txt"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.n == 3
    assert np.array_equal(loaded.coeffs, s.coeffs)  # repr round-trips float64


def test_save_load_round_trip_stream(rng):
    s = random_pauli_state(rng, 2)
    buf = io.StringIO()
    save_state(s, buf)
    text = buf.getvalue()
    assert text.startswith("pauli-dm v1 n=2\n")
    loaded = load_state(io.StringIO(text))
    assert np.array_equal(loaded.coeffs, s.coeffs)


def _whole_text(s: PauliState) -> str:
    """The state file as save_state wrote it before it wrote in chunks: one joined text."""
    lines = [f"pauli-dm v1 n={s.n}"]
    lines.extend(repr(float(c)) for c in s.coeffs)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 5, 9])
def test_save_state_writes_the_bytes_of_the_whole_text_writer(tmp_path, n):
    coeffs = np.random.default_rng([89, n]).uniform(-1.0, 1.0, 4**n) * 2.0**-n
    coeffs[0] = 2.0**-n
    coeffs[1:4] = [-0.0, 1e-300, 5e-324]  # a negative zero, a tiny normal and the least subnormal
    coeffs[-1] = -2.5e-310  # a negative subnormal
    s = PauliState(n, coeffs)
    want = _whole_text(s)
    path = tmp_path / "state.txt"
    save_state(s, path)
    assert path.read_bytes() == want.encode()
    buf = io.StringIO()
    save_state(s, buf)
    assert buf.getvalue() == want


def test_load_rejects_bad_header_and_sizes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not-a-state\n0.5\n")
    with pytest.raises(StateFormatError):
        load_state(bad)
    # n=1 needs 4 coefficients
    bad.write_text("pauli-dm v1 n=1\n0.5\n0.1\n0.2\n")
    with pytest.raises(StateFormatError, match="expected 4 coefficients for n=1, got 3"):
        load_state(bad)
    bad.write_text("pauli-dm v1 n=1\n0.5\nbogus\n0.0\n0.5\n")
    with pytest.raises(StateFormatError, match="coefficient 1 is not a number"):
        load_state(bad)
    # only the header save_state writes: another version, text around n=, or
    # a count that is zero-padded, zero or negative
    for header in (
        "pauli-dm v12 n=1", "pauli-dm v1n=1", "pauli-dm v1 x n=1",
        "pauli-dm v1 n=01", "pauli-dm v1 n=0", "pauli-dm v1 n=-1",
    ):
        bad.write_text(header + "\n0.5\n0.0\n0.0\n0.5\n")
        with pytest.raises(StateFormatError, match="malformed header"):
            load_state(bad)


def test_load_names_the_first_bad_coefficient(tmp_path):
    bad = tmp_path / "bad.txt"
    for body, match in [
        ("0.5\n0.0\ninf\n0.5\n", "coefficient 2 is not finite: 'inf'"),
        ("0.5\n0.0 0.0\n0.5\n", "coefficient 1 is not a number: '0.0 0.0'"),  # numpy reads two
        ("0.5\n0.0\n", r"expected 4 coefficients for n=1, got 2 \(first missing index 2\)"),
        ("0.5\n0.0\n0.0\n0.5\n0.0\n", r"got 5 \(first missing index 4\)"),
    ]:
        bad.write_text("pauli-dm v1 n=1\n" + body)
        with pytest.raises(StateFormatError, match=match):
            load_state(bad)
    bad.write_text("pauli-dm v1 n=1\n\n0.5\n\n0.0\n0.0\n  \n0.5\n")  # blank lines are skipped
    assert np.array_equal(load_state(bad).coeffs, [0.5, 0.0, 0.0, 0.5])


def test_a_file_whose_lines_break_on_a_separator_loads_through_the_line_walk(tmp_path, rng):
    # numpy reads no coefficient past a \x1c, str.splitlines breaks on it
    s = random_pauli_state(rng, 2)
    buf = io.StringIO()
    save_state(s, buf)
    path = tmp_path / "sep.txt"
    path.write_text(buf.getvalue().replace("\n", "\x1c"), newline="")
    loaded = load_state(path)
    assert loaded.n == 2 and loaded.coeffs.tobytes() == s.coeffs.tobytes()


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\f", "\x1c", "\u2028"])
@pytest.mark.parametrize("spaced", [False, True], ids=["plain", "two_on_a_line"])
def test_load_state_ends_the_header_where_splitlines_does(tmp_path, rng, brk, spaced):
    # a path is read as bytes after the header line, a stream as text; the
    # header may end at any separator str.splitlines knows, and the body
    # keeps "\n" after it, so the rest of the header's line opens the body
    s = random_pauli_state(rng, 2)
    buf = io.StringIO()
    save_state(s, buf)
    header, _, body = buf.getvalue().partition("\n")
    # numpy reads two numbers on one line, float() neither
    text = header + brk + ("0.0 " if spaced else "") + body
    path = tmp_path / "state.txt"
    path.write_text(text, newline="")
    for source in (path, io.StringIO(text, newline="")):
        if spaced:
            with pytest.raises(StateFormatError, match="coefficient 0 is not a number"):
                load_state(source)
        else:
            assert load_state(source).coeffs.tobytes() == s.coeffs.tobytes()


def test_load_peak_memory_is_the_file_text_plus_the_state(tmp_path):
    # 9 qubits: above the oracle cap, so no dense positivity check allocates
    n = 9
    coeffs = np.zeros(4**n)
    coeffs[0] = 2.0**-n
    coeffs[1:] = np.random.default_rng(1).uniform(-1e-3, 1e-3, 4**n - 1) * 2.0**-n
    path = tmp_path / "nine.state"
    save_state(PauliState(n, coeffs), path)
    file_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = load_state(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.coeffs, coeffs)
    # reading holds the file's bytes and its text at once; then the array and
    # one temporary of the invariant check
    assert peak <= 2 * file_bytes + 2 * coeffs.nbytes + 65536, f"{peak / coeffs.nbytes:.1f}x the state"


def test_load_rejects_coefficient_above_bound(tmp_path):
    # purity 4 * (0.25^2 + 0.4^2) = 0.89 passes, but |a_1| = 0.4 > 2^-2
    bad = tmp_path / "big.state"
    bad.write_text("pauli-dm v1 n=2\n0.25\n0.4\n" + "0.0\n" * 14)
    with pytest.raises(StateFormatError, match="coefficient 1"):
        load_state(bad)


def test_load_rejects_state_that_is_not_positive(tmp_path):
    # 1/4 (II + XX + YY + ZZ): purity 1 and every |a_i| <= 1/4, eigenvalues (-1/2, 1/2, 1/2, 1/2)
    coeffs = np.zeros(16)
    coeffs[[0, 5, 10, 15]] = 0.25
    bad = tmp_path / "nonpositive.state"
    save_state(PauliState(2, coeffs), bad)
    with pytest.raises(StateFormatError, match="eigenvalue"):
        load_state(bad)


def test_load_enforces_capacity(tmp_path):
    # the header alone decides: no coefficient follows it to be read
    path = tmp_path / "state.txt"
    path.write_text(f"pauli-dm v1 n={DEFAULT_QUBIT_CAP + 1}\n")
    with pytest.raises(CapacityError, match=f"file declares n={DEFAULT_QUBIT_CAP + 1}"):
        load_state(path)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_purity_never_exceeds_one_for_valid_states(n, seed):
    s = random_pauli_state(np.random.default_rng(seed), n)
    assert purity(s) <= 1.0 + 1e-9
    assert abs(s.coeffs[0] - 2.0**-n) < 1e-12


@settings(max_examples=20, deadline=None)
@given(p=st.floats(0.0, 1.0))
def test_thermal_purity_formula(p):
    # per qubit: Tr(rho^2) = p^2 + (1-p)^2
    s = init_thermal(1, p)
    assert abs(purity(s) - (p * p + (1 - p) * (1 - p))) < 1e-12


def test_state_copy_is_independent():
    s = init_zero(1)
    c = s.copy()
    c.coeffs[1] = 0.3
    assert s.coeffs[1] == 0.0


def test_coefficient_norm_bound_vs_dense(rng):
    # every Pauli coefficient obeys |a| <= 2^-n for a valid state
    for n in (1, 2, 3):
        s = random_pauli_state(rng, n)
        assert np.max(np.abs(s.coeffs)) <= 2.0**-n + 1e-12


def test_thermal_errors_on_bad_population():
    with pytest.raises(ValueError):
        init_thermal(1, 1.5)
    with pytest.raises(ValueError):
        init_thermal(1, -0.1)


_STATE_PRIVATE = {"_buf", "_layout", "_pending"}


def test_only_the_state_module_touches_the_buffer():
    # the buffer may hold pending factors and a moved layout: every other
    # module reads through coeffs, tensor or marginal, which account for both
    package = Path(oracle.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name == "state.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "value", None)
            assert name not in _STATE_PRIVATE, f"{path.name}:{node.lineno} touches {name}"
