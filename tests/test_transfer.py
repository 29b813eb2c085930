"""The transfer kernel: layout, memory, trace row, and engine vs oracle."""

import importlib.util
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit_text, random_pauli_state
from paulisim import engine, gates, measurement, memory, oracle
from paulisim import state as kernel
from paulisim.circuit import NOISE_KEYS, NoiseModel, parse_noise_config
from paulisim.engine import run_circuit, verify_circuit
from paulisim.generators import adder_success_pattern, gen_adder
from paulisim.sweep import pattern_mass
from paulisim.state import (
    PauliState,
    apply_product,
    apply_transfer,
    load_state,
    overlap,
    partial_trace,
    purity,
    save_state,
)


def reference_transfer(state: PauliState, qubits: tuple[int, ...], t: np.ndarray) -> np.ndarray:
    """The contraction apply_transfer must match, spelled out on the tensor view."""
    n, m = state.n, len(qubits)
    src, outs, ins = "abcdefghij"[:n], "pq"[:m], ""
    dst = list(src)
    for k, o in zip(qubits, outs):  # qubit k is tensor axis n - 1 - k
        ins += src[n - 1 - k]
        dst[n - 1 - k] = o
    spec = f"{outs}{ins},{src}->{''.join(dst)}"
    return np.einsum(spec, t.reshape((4,) * (2 * m)), state.tensor()).reshape(-1)


def random_transfer(rng, size: int) -> np.ndarray:
    """A random size x size transfer matrix with the first row e0 every kernel requires."""
    t = rng.standard_normal((size, size))
    t[0] = 0.0
    t[0, 0] = 1.0
    return t


def test_apply_transfer_matches_reference_on_every_placement(rng):
    for n in (1, 2, 3, 5):
        placements = [(k,) for k in range(n)]
        placements += [(a, b) for a in range(n) for b in range(n) if a != b]
        for qubits in placements:
            s = PauliState(n, rng.standard_normal(4**n))
            t = random_transfer(rng, 4 ** len(qubits))
            want = reference_transfer(s, qubits, t)
            apply_transfer(s, qubits, t)
            assert np.max(np.abs(s.coeffs - want)) < 1e-12, qubits


def test_apply_product_is_the_same_transfer_on_every_qubit(rng):
    for n in (1, 2, 3, 4, 5):
        s = PauliState(n, rng.standard_normal(2 * 4**n)[::2])  # a strided view
        t = random_transfer(rng, 4)
        want = s.copy()
        for k in range(n):
            apply_transfer(want, (k,), t)
        apply_product(s, t)
        assert np.max(np.abs(s.coeffs - want.coeffs)) < 1e-12, n


def _scaled(s: PauliState, qubits: tuple[int, ...], d: np.ndarray) -> np.ndarray:
    """diag(d) on ``qubits`` as a plain multiply of the tensor view, with every zero +0.0."""
    m = len(qubits)
    w = d.reshape((4,) * m + (1,) * (s.n - m))
    w = np.moveaxis(w, list(range(m)), [s.n - 1 - k for k in qubits])
    return (s.tensor() * w + 0.0).reshape(-1)


def test_diagonal_and_matrix_forms_give_the_same_bytes(rng):
    # A diagonal transfer matrix gives the bytes of a plain multiply by its
    # diagonal, zero entries included: 0 * a negative coefficient is -0.0
    # in a plain multiply, while the matmul sums to +0.0, and no -0.0 may
    # reach a printed number.
    for n in (1, 3):
        placements = [(k,) for k in range(n)] + [(a, b) for a in range(n) for b in range(n) if a != b]
        for qubits in placements:
            d = rng.choice([0.0, 0.97, 1.0], size=4 ** len(qubits))
            d[0] = 1.0
            s = PauliState(n, rng.standard_normal(4**n))
            want = _scaled(s, qubits, d)
            apply_transfer(s, qubits, np.diag(d))
            assert s.coeffs.tobytes() == want.tobytes(), qubits
            assert not np.signbit(s.coeffs[s.coeffs == 0.0]).any(), qubits
    s = PauliState(4, rng.standard_normal(4**4))
    apply_product(s, np.diag([1.0, 0.0, 0.0, 0.97]))
    assert not np.signbit(s.coeffs[s.coeffs == 0.0]).any()


def test_apply_transfer_rejects_bad_operands():
    s = PauliState(3, np.zeros(64))
    with pytest.raises(ValueError):
        apply_transfer(s, (0,), np.eye(16))
    with pytest.raises(ValueError):
        apply_transfer(s, (1, 1), np.eye(16))
    with pytest.raises(ValueError):
        apply_transfer(s, (0, 2), np.ones(4))
    with pytest.raises(ValueError):
        apply_product(s, np.ones(16))
    with pytest.raises(IndexError):
        apply_transfer(s, (3,), np.eye(4))


# --- a moved qubit layout -------------------------------------------------------


def moved(s: PauliState) -> PauliState:
    """``s`` after a cx on its outermost pair, which leaves its digits moved."""
    gates.apply_cnot(s, 0, s.n - 1)
    assert s._layout is not None  # private, but every test below is void without it
    return s


def canonical(s: PauliState) -> PauliState:
    """A copy of ``s`` in the identity layout; ``s`` itself stays moved."""
    return PauliState(s.n, s.copy().coeffs)


def test_apply_transfer_matches_reference_on_a_moved_layout(rng):
    for n in (3, 5):
        placements = [(k,) for k in range(n)]
        placements += [(a, b) for a in range(n) for b in range(n) if a != b]
        for qubits in placements:
            s = moved(PauliState(n, rng.standard_normal(4**n)))
            t = random_transfer(rng, 4 ** len(qubits))
            want = reference_transfer(canonical(s), qubits, t)
            apply_transfer(s, qubits, t)
            assert np.max(np.abs(s.coeffs - want)) < 1e-12, (n, qubits)
        s = moved(PauliState(n, rng.standard_normal(4**n)))
        t = random_transfer(rng, 4)
        want = canonical(s)
        for k in range(n):
            apply_transfer(want, (k,), t)
        apply_product(s, t)
        assert s._layout is not None  # a product moves no digit
        assert np.max(np.abs(s.coeffs - want.coeffs)) < 1e-12, n


def test_readers_see_logical_order_on_a_moved_layout():
    n = 4

    def start(seed=3):
        return random_pauli_state(np.random.default_rng(seed), n)

    want = reference_transfer(start(), (0, n - 1), gates.cnot_transfer())
    assert np.max(np.abs(moved(start()).coeffs - want)) < 1e-12

    s = moved(start())
    c = canonical(s)
    assert np.array_equal(s.tensor(), c.tensor())
    assert s._layout is not None  # the view copies nothing and keeps the layout
    assert np.array_equal(oracle.to_dense(s).rho, oracle.to_dense(c).rho)
    for k in range(n):
        assert np.array_equal(partial_trace(s, k).coeffs, partial_trace(c, k).coeffs), k
    d = s.copy()
    assert np.array_equal(d.coeffs, c.coeffs)
    d.coeffs[1] += 1.0
    assert np.array_equal(s.coeffs, c.coeffs)  # the copy owns its buffer
    assert purity(moved(start())) == purity(c)
    other = moved(start(seed=4))
    assert overlap(moved(start()), other) == overlap(c, canonical(other))

    texts = []
    for state in (moved(start()), c):
        sink = io.StringIO()
        save_state(state, sink)
        texts.append(sink.getvalue())
    assert texts[0] == texts[1]
    assert np.array_equal(load_state(io.StringIO(texts[0])).coeffs, c.coeffs)


# --- memory and the trace row -------------------------------------------------

_ROT = NoiseModel(alpha_x=0.01, r_y=0.99, alpha_cx=0.02, r_cx=0.97)
_MEAS = NoiseModel(d1=0.97, d2=0.95)

UPDATES = {
    "u1": lambda s: gates.apply_u1(s, 3, 0.4, _ROT),
    "u3 on qubit 0": lambda s: gates.apply_u3(s, 0, 0.3, 0.2, 0.1, _ROT),
    "u3": lambda s: gates.apply_u3(s, 5, 0.3, 0.2, 0.1, _ROT),
    "cx adjacent": lambda s: gates.apply_cnot(s, 4, 5, _ROT),
    "cx apart": lambda s: gates.apply_cnot(s, 1, 6, _ROT),
    "reset": lambda s: measurement.reset_qubit(s, 2),
    "measure": lambda s: measurement.measure_qubit(s, 0, (0.0, 0.0, 1.0), _MEAS),
    "measure_x": lambda s: measurement.measure_qubit(s, 7, (1.0, 0.0, 0.0), _MEAS),
    "measure -y": lambda s: measurement.measure_qubit(s, 4, (0.0, -1.0, 0.0), _MEAS),
    "measure tilted": lambda s: measurement.measure_qubit(s, 2, (0.6, 0.0, 0.8), _MEAS),
    "expect": lambda s: measurement.expect_pauli_string(s, "XIZYIIXZ", _MEAS),
    "ensemble": lambda s: measurement.ensemble_distribution(s, _MEAS),
    "bell": lambda s: measurement.bell_measure(s, 0, 3, _MEAS),
    "decohere": lambda s: memory.decohere(s, 0.99),
    "decay": lambda s: memory.decay(s, 0.98, 0.9),
}

# array headers, shape tuples, the small transfer matrices and other
# interpreter objects an update creates; about 9 KiB, whatever the state size
_OBJECT_SLACK = 16384


@pytest.mark.parametrize("kind", sorted(UPDATES))
def test_update_peak_memory_and_trace_row(kind):
    s = random_pauli_state(np.random.default_rng(8), 8)
    trace = s.coeffs[0]
    state_bytes = s.coeffs.nbytes
    # once on a copy first, so that one-time caches (the ensemble's outcome
    # labels) are built outside the window, whichever test ran before
    UPDATES[kind](s.copy())
    tracemalloc.start()
    try:
        UPDATES[kind](s)
        s.coeffs  # the full read applies what the update left pending
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state_bytes + _OBJECT_SLACK, f"{kind}: {peak / state_bytes:.2f}x the state"
    assert s.coeffs[0].tobytes() == trace.tobytes()


def _values(out) -> np.ndarray:
    """An update's readout as a flat array: probabilities, expectation, or none."""
    return np.array(list(out.values()) if isinstance(out, dict) else [] if out is None else out)


@pytest.mark.parametrize("kind", sorted(UPDATES))
def test_update_on_a_moved_layout_matches_the_identity_layout(kind):
    s = moved(random_pauli_state(np.random.default_rng(8), 8))
    c = canonical(s)
    trace = s.tensor()[(0,) * 8]
    state_bytes = s.tensor().nbytes
    tracemalloc.start()
    try:
        got = UPDATES[kind](s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = UPDATES[kind](c)
    assert peak <= 2 * state_bytes + _OBJECT_SLACK, f"{kind}: {peak / state_bytes:.2f}x the state"
    assert np.max(np.abs(_values(got) - _values(want)), initial=0.0) <= 1e-12
    assert np.max(np.abs(s.coeffs - c.coeffs)) <= 1e-12
    assert s.coeffs[0].tobytes() == trace.tobytes()


def test_a_second_far_cx_on_the_same_pair_allocates_only_its_output():
    # the first cx moves qubit 1's digit up next to qubit 6's; the second
    # finds the pair adjacent, so it needs no transposed copy
    s = random_pauli_state(np.random.default_rng(8), 8)
    UPDATES["cx apart"](s)
    state_bytes = s.tensor().nbytes
    tracemalloc.start()
    try:
        UPDATES["cx apart"](s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= state_bytes + _OBJECT_SLACK, f"{peak / state_bytes:.2f}x the state"


def test_every_transfer_the_package_builds_has_trace_row(monkeypatch):
    seen = []

    def spy(kernel):
        def wrapped(state, *args):
            seen.append(np.array(args[-1]))
            kernel(state, *args)

        return wrapped

    # the public kernels, and the private step the engine and the readouts
    # call with a row of a stack they checked once
    for module in (engine, gates, measurement, memory):
        for name in ("apply_transfer", "apply_product", "_transfer"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(getattr(module, name)))
    text = (
        "qubits 3\n"
        "h q[0]\nu1(0.3) q[1]\nu3(0.7,0.2,-0.4) q[2]\ncx q[0],q[1]\ncx q[2],q[0]\n"
        "measure q[0]\nmeasure_x q[1]\nmeasure_y q[2]\nreset q[1]\n"
        "expect XYZ\nbell q[0],q[2]\nensemble\n"
    )
    noise = NoiseModel(**{k: 0.9 for k in NOISE_KEYS if not k.startswith("alpha")}, alpha_cx=0.1)
    run_circuit(text, noise)
    assert {t.shape for t in seen} == {(4, 4), (16, 16)}
    assert len(seen) >= 12
    for t in seen:
        assert t[0, 0] == 1.0 and not t[0, 1:].any()


# --- pending one-qubit factors ---------------------------------------------------


def test_a_transfer_without_the_trace_row_is_refused():
    s = PauliState(3, np.zeros(64))
    bad = np.eye(4)
    bad[0, 2] = 0.1
    for call in (
        lambda: apply_transfer(s, (1,), bad),
        lambda: apply_transfer(s, (1,), np.diag([0.9, 1.0, 1.0, 1.0])),
        lambda: apply_transfer(s, (0, 2), np.kron(bad, np.eye(4))),
        lambda: apply_transfer(s, (0, 2), np.diag(np.full(16, 0.5))),
        lambda: apply_product(s, bad),
        lambda: apply_product(s, np.diag([np.nan, 1.0, 1.0, 1.0])),
    ):
        with pytest.raises(ValueError, match="first row"):
            call()
    assert np.array_equal(s.coeffs, np.zeros(64))


def test_a_stack_with_one_bad_matrix_is_refused(rng):
    stack = np.stack([random_transfer(rng, 4) for _ in range(65)])
    assert kernel._checked(stack, (65, 4, 4)).tobytes() == stack.tobytes()
    for i in (0, 31, 64):
        for entry, value in (((0, 2), 0.1), ((0, 0), 0.5), ((0, 0), np.nan), ((0, 3), np.nan)):
            bad = stack.copy()
            bad[(i, *entry)] = value
            with pytest.raises(ValueError, match="first row"):
                kernel._checked(bad, (65, 4, 4))
        ragged = list(stack)
        ragged[i] = np.eye(3)
        with pytest.raises(ValueError, match="shape"):
            kernel._checked(ragged, (65, 4, 4))
    for shape in ((64, 4, 4), (65, 16, 16), (4, 4)):
        with pytest.raises(ValueError, match="transfer matri"):
            kernel._checked(stack, shape)


def test_a_diagonal_given_as_a_vector_is_refused():
    # every transfer is a square matrix, a diagonal one too
    s = PauliState(3, np.full(64, 1 / 64))
    for call in (
        lambda: apply_transfer(s, (1,), np.ones(4)),
        lambda: apply_transfer(s, (0, 2), np.ones(16)),
        lambda: apply_product(s, np.ones(4)),
    ):
        with pytest.raises(ValueError, match="transfer matrix"):
            call()
    assert not s._pending
    assert np.array_equal(s.coeffs, np.full(64, 1 / 64))


def test_the_kernel_keeps_its_own_copy_of_a_transfer(rng):
    for qubits in ((1,), (2, 0)):
        t = random_transfer(rng, 4 ** len(qubits))
        s = PauliState(3, rng.standard_normal(64))
        want = reference_transfer(s, qubits, t)
        apply_transfer(s, qubits, t)
        t *= 2.0  # the caller reuses its array
        assert np.max(np.abs(s.coeffs - want)) < 1e-12, qubits
    t = random_transfer(rng, 4)
    s = PauliState(3, rng.standard_normal(64))
    want = s.copy()
    for k in range(3):
        want.coeffs[:] = reference_transfer(want, (k,), t)
    apply_product(s, t)
    t *= 2.0
    assert np.max(np.abs(s.coeffs - want.coeffs)) < 1e-12


_NOISY = NoiseModel(
    alpha_x=0.01, r_y=0.99, r_z=0.98, alpha_z=0.02, d1=0.97, f=0.99, g=0.98, p=0.9
)

# one-qubit updates and what they leave pending: matrices (memory, u3,
# reset), and diagonals (measure, expect, decohere) on qubits that hold none
DEFERRED = {
    "mixed": [
        lambda s: memory.end_of_partition(s, _NOISY),
        lambda s: gates.apply_u1(s, 3, 0.4, _NOISY),
        lambda s: gates.apply_u3(s, 0, 0.3, 0.2, 0.1, _NOISY),
        lambda s: measurement.reset_qubit(s, 2),
        lambda s: measurement.measure_qubit(s, 0, (0.6, 0.0, 0.8), _NOISY),
        lambda s: measurement.measure_qubit(s, 4, (0.0, 0.0, 1.0), _NOISY),
        lambda s: measurement.expect_pauli_string(s, "XZIIY", _NOISY),
        lambda s: gates.apply_u3(s, 4, 1.3, -0.2, 0.6, _NOISY),
    ],
    "diagonal": [
        lambda s: memory.decohere(s, 0.97),
        lambda s: measurement.measure_qubit(s, 1, (0.0, 0.0, 1.0), _NOISY),
        lambda s: measurement.expect_pauli_string(s, "YIIZX", _NOISY),
    ],
}


def _eager(state: PauliState, qubits: tuple[int, ...], t: np.ndarray) -> None:
    state.coeffs[:] = reference_transfer(state, qubits, t)


def _eager_product(state: PauliState, t: np.ndarray) -> None:
    for k in range(state.n):
        _eager(state, (k,), t)


def _deferred_and_reference(monkeypatch, kind: str, move: bool):
    """The DEFERRED updates on one state, and on a copy that applies each PTM at once."""
    n = 5
    s = random_pauli_state(np.random.default_rng(12), n)
    ref = s.copy()
    if move:
        moved(s)
        ref.coeffs[:] = reference_transfer(ref, (0, n - 1), gates.cnot_transfer())
    buf, before = s._buf, s._buf.tobytes()
    got = [update(s) for update in DEFERRED[kind]]
    assert s._buf is buf and s._buf.tobytes() == before, "an update made a pass"
    with monkeypatch.context() as m:
        for module in (gates, measurement, memory):
            m.setattr(module, "apply_transfer", _eager, raising=False)
            m.setattr(module, "apply_product", _eager_product, raising=False)
        want = [update(ref) for update in DEFERRED[kind]]
    got, want = (np.concatenate([np.ravel(_values(out)) for out in outs]) for outs in (got, want))
    assert np.max(np.abs(got - want)) <= 1e-12
    return s, ref


READERS = {
    "coeffs": lambda s: s.coeffs,
    "tensor": lambda s: s.tensor().reshape(-1),
    "marginal": lambda s: np.concatenate(
        [s.marginal(q).reshape(-1) for q in ((), (2,), (4, 0), (1, 3, 2))]
    ),
    "copy": lambda s: s.copy().coeffs,
    "partial_trace": lambda s: np.concatenate(
        [partial_trace(s.copy(), k).coeffs for k in range(s.n)]
    ),
    "purity": lambda s: np.array([purity(s)]),
    "overlap": lambda s: np.array([overlap(s, random_pauli_state(np.random.default_rng(5), s.n))]),
    "save_state": lambda s: _saved(s),
    "to_dense": lambda s: oracle.to_dense(s).rho.reshape(-1),
}


def _saved(s: PauliState) -> np.ndarray:
    sink = io.StringIO()
    save_state(s, sink)
    return np.array([float(v) for v in sink.getvalue().splitlines()[1:]])


@pytest.mark.parametrize("move", [False, True], ids=["identity", "moved"])
@pytest.mark.parametrize("kind", sorted(DEFERRED))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_sees_the_pending_factors(monkeypatch, reader, kind, move):
    s, ref = _deferred_and_reference(monkeypatch, kind, move)
    buf = s._buf
    got = READERS[reader](s)
    assert np.max(np.abs(got - READERS[reader](ref))) <= 1e-12
    if reader in ("marginal", "copy"):  # neither applies anything to the state itself
        assert s._buf is buf and s._pending
    assert np.max(np.abs(s.coeffs - ref.coeffs)) <= 1e-12


def test_marginal_leaves_out_factors_on_other_qubits():
    s = random_pauli_state(np.random.default_rng(13), 4)
    want = s.tensor()[0, :, 0, :].T.copy()  # qubits (0, 2), qubit 0 first
    gates.apply_u3(s, 1, 0.7, 0.1, -0.3)
    memory.decay(s, 0.9, 0.8)
    got = s.marginal((0, 2))
    t = np.diag([1.0, np.sqrt(0.9), np.sqrt(0.9), 0.9])
    t[3, 0] = (2 * 0.8 - 1) * (1 - 0.9)
    assert np.max(np.abs(got - t @ want @ t.T)) <= 1e-15
    with pytest.raises(ValueError):
        s.marginal((1, 1))
    with pytest.raises(IndexError):
        s.marginal((4,))


def test_a_gate_and_a_readout_on_one_qubit_compose_in_order():
    # u3 then measure_x is not measure_x then u3; each order must match the oracle
    noise = NoiseModel(d1=0.9)
    start = random_pauli_state(np.random.default_rng(14), 2)
    u = oracle.superop([oracle.u3_matrix(0.9, 0.4, -0.7)])
    x = np.array([1.0, 0.0, 0.0])
    finals = []
    for gate_first in (True, False):
        s, d = start.copy(), oracle.to_dense(start)
        if gate_first:
            gates.apply_u3(s, 1, 0.9, 0.4, -0.7)
            oracle.apply_superop(d, u, (1,))
        got = measurement.measure_qubit(s, 1, x, noise)
        want = oracle.dense_measure_qubit(d, 1, x, noise.d1)
        if not gate_first:
            gates.apply_u3(s, 1, 0.9, 0.4, -0.7)
            oracle.apply_superop(d, u, (1,))
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
        assert np.max(np.abs(s.coeffs - oracle.from_dense(d).coeffs)) <= 1e-12
        finals.append(s.coeffs)
    assert np.max(np.abs(finals[0] - finals[1])) > 1e-3


# --- engine vs oracle under noise ------------------------------------------------

UNIT = st.floats(0.0, 1.0)
NOISE = st.fixed_dictionaries(
    {k: st.floats(-0.5, 0.5) if k.startswith("alpha") else UNIT for k in NOISE_KEYS}
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    n_instr=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    values=NOISE,
    init=st.sampled_from(["zero", "uniform", "thermal", "bitstring", "file"]),
)
def test_engine_matches_oracle_on_noisy_random_circuits(n, n_instr, seed, values, init):
    rng = np.random.default_rng(seed)
    text = random_circuit_text(rng, n, n_instr)
    noise = NoiseModel(**values)
    with tempfile.TemporaryDirectory() as tmp:
        if init == "bitstring":
            init = "bitstring:" + "".join(rng.choice(list("01"), size=n))
        elif init == "file":
            path = Path(tmp) / "start.state"
            save_state(random_pauli_state(rng, n), path)
            init = f"file:{path}"
        res = verify_circuit(text, noise, init=init)
    assert res.state_divergence <= 1e-12, text
    assert res.record_divergence <= 1e-12, text


# --- pending groups of up to three qubits -------------------------------------------
#
# Below kernel._GROUPS_FROM_N qubits every group holds one qubit, so the
# tests above run the one-qubit path.  Each test here but the last three lowers
# the constant to 1, so groups of two and three qubits form at every n.


def _group_at_every_n(monkeypatch) -> None:
    monkeypatch.setattr(kernel, "_GROUPS_FROM_N", 1)


def _passes(monkeypatch) -> list[int]:
    """The size of every transfer the kernel's pass applies from now on."""
    sizes = []
    one_pass = kernel._apply
    monkeypatch.setattr(
        kernel, "_apply", lambda s, digits, t: sizes.append(len(t)) or one_pass(s, digits, t)
    )
    return sizes


def bounded_transfer(rng, size: int) -> np.ndarray:
    """A random transfer with first row e0 whose norm stays near 1 over many products."""
    t = np.zeros((size, size))
    t[0, 0] = 1.0
    t[1:, 0] = rng.uniform(-0.1, 0.1, size - 1)
    q = np.linalg.qr(rng.standard_normal((size - 1, size - 1)))[0]
    t[1:, 1:] = q * rng.uniform(0.5, 1.0, size - 1)
    return t


@pytest.mark.parametrize("move", [False, True], ids=["identity", "moved"])
def test_grouped_transfers_match_the_reference_on_every_placement(monkeypatch, move):
    rng = np.random.default_rng(21)
    for n in (4, 5, 6):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        s = PauliState(n, rng.uniform(-1.0, 1.0, 4**n))
        if move:
            moved(s)
        ref = canonical(s)
        with monkeypatch.context() as m:
            _group_at_every_n(m)
            sizes = _passes(m)
            for i in range(60):
                kind = i % 5
                if kind == 0:
                    t = bounded_transfer(rng, 4)
                    apply_product(s, t)
                    for k in range(n):
                        ref.coeffs[:] = reference_transfer(ref, (k,), t)
                    continue
                qubits = (int(rng.integers(n)),) if kind == 1 else pairs[rng.integers(len(pairs))]
                t = bounded_transfer(rng, 4 ** len(qubits))
                apply_transfer(s, qubits, t)
                ref.coeffs[:] = reference_transfer(ref, qubits, t)
                if i % 7 == 0:
                    for read in ((qubits[0],), qubits, tuple(range(n - 1, -1, -2))):
                        index = [0] * n
                        for k in read:
                            index[n - 1 - k] = slice(None)
                        want = ref.tensor()[tuple(index)]  # axes by qubit, highest first
                        want = want.transpose([sorted(read)[::-1].index(k) for k in read])
                        assert np.max(np.abs(s.marginal(read) - want), initial=0.0) <= 1e-12
            assert 64 in sizes, "no group of three formed"
            assert np.max(np.abs(s.coeffs - ref.coeffs)) <= 1e-12, n


# two cx make the group {0, 2, 4}, a memory step and readouts land in it and
# in {1, 3}, and the last cx on (2, 3) flushes {0, 2, 4} to form {2, 1, 3}
GROUPED = [
    lambda s: gates.apply_cnot(s, 0, 2, _NOISY),
    lambda s: gates.apply_u3(s, 2, 0.3, 0.2, 0.1, _NOISY),
    lambda s: gates.apply_cnot(s, 4, 0, _NOISY),
    lambda s: memory.end_of_partition(s, _NOISY),
    lambda s: gates.apply_cnot(s, 1, 3, _NOISY),
    lambda s: measurement.measure_qubit(s, 2, (0.6, 0.0, 0.8), _NOISY),
    lambda s: measurement.bell_measure(s, 3, 1, _NOISY),
    lambda s: measurement.expect_pauli_string(s, "XZIIY", _NOISY),
    lambda s: measurement.reset_qubit(s, 0),
    lambda s: gates.apply_cnot(s, 2, 3, _NOISY),
    lambda s: gates.apply_u1(s, 4, 0.4, _NOISY),
    lambda s: memory.end_of_partition(s, _NOISY),
]


@pytest.mark.parametrize("move", [False, True], ids=["identity", "moved"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_sees_the_pending_groups(monkeypatch, reader, move):
    n = 5
    s = random_pauli_state(np.random.default_rng(12), n)
    ref = s.copy()
    if move:
        moved(s)
        ref.coeffs[:] = reference_transfer(ref, (0, n - 1), gates.cnot_transfer())
    with monkeypatch.context() as m:
        _group_at_every_n(m)
        sizes = _passes(m)
        got = [update(s) for update in GROUPED]
        assert sizes == [64], "the updates make one pass, the flush of {0, 2, 4}"
        assert {len(s._pending[k][0]) for k in (1, 2, 3)} == {3}
    with monkeypatch.context() as m:
        for module in (gates, measurement, memory):
            m.setattr(module, "apply_transfer", _eager, raising=False)
            m.setattr(module, "apply_product", _eager_product, raising=False)
        want = [update(ref) for update in GROUPED]
    got, want = (np.concatenate([np.ravel(_values(out)) for out in outs]) for outs in (got, want))
    assert np.max(np.abs(got - want)) <= 1e-12
    buf, pending = s._buf, dict(s._pending)
    assert np.max(np.abs(READERS[reader](s) - READERS[reader](ref))) <= 1e-12
    if reader in ("marginal", "copy"):  # neither applies anything to the state itself
        assert s._buf is buf and s._pending == pending
    assert np.max(np.abs(s.coeffs - ref.coeffs)) <= 1e-12


def test_a_grouped_copy_is_independent(monkeypatch):
    _group_at_every_n(monkeypatch)
    s = random_pauli_state(np.random.default_rng(15), 5)
    for update in GROUPED[:5]:
        update(s)
    c = s.copy()
    want_s, want_c = canonical(s), canonical(s)
    gates.apply_u3(c, 2, 1.1, 0.2, -0.4, _NOISY)  # composes into the copy's group {0, 2, 4}
    gates.apply_cnot(c, 2, 1, _NOISY)  # flushes it
    gates.apply_u3(want_c, 2, 1.1, 0.2, -0.4, _NOISY)
    gates.apply_cnot(want_c, 2, 1, _NOISY)
    gates.apply_cnot(s, 3, 4, _NOISY)  # the original's own flush of {0, 2, 4}
    gates.apply_cnot(want_s, 3, 4, _NOISY)
    c.coeffs[1] += 1.0
    want_c.coeffs[1] += 1.0
    assert np.max(np.abs(s.coeffs - want_s.coeffs)) <= 1e-12
    assert np.max(np.abs(c.coeffs - want_c.coeffs)) <= 1e-12
    assert np.max(np.abs(s.coeffs - c.coeffs)) > 1e-3


def test_a_group_flush_that_moves_digits_keeps_peak_memory(monkeypatch):
    _group_at_every_n(monkeypatch)
    s = random_pauli_state(np.random.default_rng(8), 8)
    gates.apply_cnot(s, 0, 3, _ROT)
    gates.apply_cnot(s, 6, 3, _ROT)  # the group {0, 3, 6}, on digits apart
    want = canonical(s)
    state_bytes = 8 * 4**s.n  # a full read would apply the group
    sizes = _passes(monkeypatch)
    tracemalloc.start()
    try:
        gates.apply_cnot(s, 0, 7, _ROT)  # four qubits: {0, 3, 6} goes to the buffer
        s.tensor()  # and so does {0, 7}, on digits apart again
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [64, 16] and s._layout is not None
    # the slack holds one more 64x64 factor: the flush's copy of it in digit order
    assert peak <= 2 * state_bytes + _OBJECT_SLACK + 8 * 64**2, f"{peak / state_bytes:.2f}x the state"
    gates.apply_cnot(want, 0, 7, _ROT)
    assert np.max(np.abs(s.coeffs - want.coeffs)) <= 1e-12


def _toffoli_rich(rng: np.random.Generator, n: int) -> str:
    """Toffolis on overlapping triples between one-qubit gates and readouts."""
    lines = [f"qubits {n}"]
    triple = rng.choice(n, size=3, replace=False)
    for i in range(8):
        if i % 3 == 2:  # share two qubits with the last Toffoli, or none
            triple = rng.choice(n, size=3, replace=False)
        else:
            triple = rng.permutation(np.append(triple[:2], rng.choice(np.setdiff1d(range(n), triple[:2]))))
        lines.append("ccx " + ",".join(f"q[{q}]" for q in triple))
        t, p, l = rng.uniform(-3, 3, size=3)
        lines.append(f"u3({t:.6f},{p:.6f},{l:.6f}) q[{rng.integers(n)}]")
        if i % 4 == 1:
            lines.append(f"measure_x q[{triple[0]}]")
        if i % 4 == 3:
            lines.append(f"bell q[{triple[1]}],q[{triple[2]}]")
    lines.append("expect " + "".join(rng.choice(list("IXYZ"), size=n)))
    lines.append("ensemble")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("init", ["zero", "uniform", "thermal"])
@pytest.mark.parametrize("n", range(3, 9))
def test_grouped_engine_matches_oracle_on_toffoli_circuits(monkeypatch, n, init):
    _group_at_every_n(monkeypatch)
    rng = np.random.default_rng([53, n, len(init)])
    noise = NoiseModel(
        **{k: rng.uniform(-0.1, 0.1) if k.startswith("alpha") else rng.uniform(0.9, 1.0) for k in NOISE_KEYS}
    )
    text = _toffoli_rich(rng, n)
    sizes = _passes(monkeypatch)
    res = verify_circuit(text, noise, init=init)
    assert 64 in sizes, "no group of three reached the buffer"
    assert res.state_divergence <= 1e-12, text
    assert res.record_divergence <= 1e-12, text


_ADDER_NOISE = NoiseModel(r_x=0.995, r_y=0.995, r_z=0.995, r_cx=0.995, f=0.999, g=0.999, p=0.95)


def test_a_grouped_adder_row_matches_the_ungrouped_one(monkeypatch):
    # the constant as shipped: n = 10 groups, and 11 does not
    text = gen_adder("011", "010")
    grouped = run_circuit(text, _ADDER_NOISE)
    with monkeypatch.context() as m:
        m.setattr(kernel, "_GROUPS_FROM_N", 11)
        plain = run_circuit(text, _ADDER_NOISE)
    assert grouped.n == 10
    assert np.max(np.abs(grouped.final_state.coeffs - plain.final_state.coeffs)) <= 1e-12
    assert len(grouped.records) == len(plain.records) > 0
    for a, b in zip(grouped.records, plain.records):
        got, want = (np.array(r.values + tuple((r.dist or {}).values())) for r in (a, b))
        assert a.kind == b.kind and np.max(np.abs(got - want), initial=0.0) <= 1e-12
    ideal = run_circuit(text, NoiseModel())
    success = pattern_mass(ideal.records[-1].dist, adder_success_pattern("011", "010"))
    assert abs(success - 1.0) <= 1e-12


def test_an_adder_row_at_ten_qubits_makes_few_passes(monkeypatch):
    # a pass per cx would be 77; groups of three bring it to 19
    sizes = _passes(monkeypatch)
    run_circuit(gen_adder("011", "010"), _ADDER_NOISE)
    assert len(sizes) <= 24, sizes


def _deep_small_workload():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_deep_small_circuit_makes_the_passes_it_made_before_groups(monkeypatch):
    # at n = 6 no group holds two qubits: every cx, Bell and full read makes
    # the passes it made when each pending factor held one qubit
    workloads = _deep_small_workload()
    text = workloads.mixed_circuit(np.random.default_rng(61), 6, workloads.DEEP_SMALL_MIX)
    noise = parse_noise_config(workloads.noise_text(workloads.NOISE["deep_small"]))
    sizes = _passes(monkeypatch)
    run_circuit(text, noise)
    assert len(sizes) == 112 and set(sizes) == {16}
