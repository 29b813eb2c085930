"""The dense-matrix oracle must be independently correct: these checks use
only textbook linear algebra, never the coefficient engine."""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit_text, random_noise, random_pauli_state, run_alone
from paulisim import oracle
from paulisim.circuit import KINDS, Instruction, NoiseModel, parse_circuit
from paulisim.state import init_bitstring, init_thermal, init_uniform, init_zero
from paulisim.transpile import Partition, Schedule, compile_circuit


def test_sigma_algebra():
    s = oracle.SIGMA
    assert s.shape == (4, 2, 2)
    for m in s:
        assert np.allclose(m @ m, np.eye(2))
        assert np.allclose(m, m.conj().T)
    assert np.allclose(s[1] @ s[2], 1j * s[3])  # xy = iz


def test_to_dense_of_initializers():
    assert np.allclose(oracle.to_dense(init_zero(1)).rho, [[1, 0], [0, 0]])
    assert np.allclose(oracle.to_dense(init_uniform(1)).rho, [[0.5, 0.5], [0.5, 0.5]])
    rho = oracle.to_dense(init_bitstring("10")).rho
    want = np.zeros((4, 4))
    want[2, 2] = 1.0  # |10> in most-significant-first binary
    assert np.allclose(rho, want)
    rho = oracle.to_dense(init_thermal(1, 0.8)).rho
    assert np.allclose(rho, np.diag([0.8, 0.2]))


def test_round_trip_dense_and_back(rng):
    for n in (1, 2, 3, 4):
        s = random_pauli_state(rng, n)
        back = oracle.from_dense(oracle.to_dense(s))
        assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-14


def test_random_state_is_physical(rng):
    for n in (1, 2, 3):
        d = oracle.to_dense(random_pauli_state(rng, n))
        assert abs(np.trace(d.rho) - 1.0) < 1e-12
        assert np.max(np.abs(d.rho - d.rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(d.rho).min() > -1e-12


def test_apply_unitary_matches_kron_embedding(rng):
    # single-qubit u on qubit 1 of 3: I kron u kron I with qubit 0 rightmost
    s = random_pauli_state(rng, 3)
    d = oracle.to_dense(s)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    full = np.kron(np.kron(np.eye(2), u), np.eye(2))
    want = full @ d.rho @ full.conj().T
    oracle.apply_unitary(d, u, (1,))
    assert np.max(np.abs(d.rho - want)) < 1e-12


def test_apply_unitary_two_qubit_operand_order(rng):
    # first listed qubit is the kron-major slot of u
    s = random_pauli_state(rng, 2)
    d = oracle.to_dense(s)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    oracle.apply_unitary(d, u, (1, 0))  # matches |q1 q0> ordering directly
    want = u @ oracle.to_dense(s).rho @ u.conj().T
    assert np.max(np.abs(d.rho - want)) < 1e-12


def test_apply_kraus_requires_completeness(rng):
    d = oracle.to_dense(random_pauli_state(rng, 1))
    with pytest.raises(ValueError):
        oracle.apply_kraus(d, [np.diag([1.0, 0.0])], (0,))


def test_apply_kraus_dephasing(rng):
    s = random_pauli_state(rng, 1)
    d = oracle.to_dense(s)
    rho0 = d.rho.copy()
    k0 = np.sqrt(0.7) * np.eye(2)
    k1 = np.sqrt(0.3) * np.diag([1.0, -1.0])
    oracle.apply_kraus(d, [k0, k1], (0,))
    want = 0.7 * rho0 + 0.3 * np.diag([1, -1]) @ rho0 @ np.diag([1, -1])
    assert np.max(np.abs(d.rho - want)) < 1e-14


def test_expectation_matches_trace(rng):
    s = random_pauli_state(rng, 2)
    d = oracle.to_dense(s)
    op = np.kron(oracle.SIGMA[3], oracle.SIGMA[1])  # Z on qubit 1, X on qubit 0
    want = float(np.trace(op @ d.rho).real)
    got = oracle.expectation(d, op, (1, 0))
    assert abs(got - want) < 1e-12


def test_rotation_matrices():
    rz = oracle.rotation_matrix("z", np.pi / 2)
    assert np.allclose(rz @ rz, oracle.rotation_matrix("z", np.pi))
    rx = oracle.rotation_matrix("x", np.pi)
    assert np.allclose(rx, [[0, -1j], [-1j, 0]])
    # u3(pi/2, 0, pi) is the Hadamard up to global phase
    u = oracle.u3_matrix(np.pi / 2, 0.0, np.pi)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    phase = u[0, 0] / h[0, 0]
    assert np.allclose(u, phase * h)


def test_u1_adds_relative_phase():
    u = oracle.u1_matrix(0.7)
    assert np.allclose(u, np.diag([1.0, np.exp(0.7j)]))


def test_cnot_matrix_control_major():
    c = oracle.cnot_matrix(0.0)
    want = np.zeros((4, 4))
    want[0, 0] = want[1, 1] = 1.0  # control |0>: identity
    want[2, 3] = want[3, 2] = 1.0  # control |1>: flip target
    assert np.max(np.abs(c - want)) < 1e-15


def test_cnot_matrix_overrotation_blends_target():
    c = oracle.cnot_matrix(0.3)
    # upper-left block stays identity regardless of the error angle
    assert np.allclose(c[:2, :2], np.eye(2))
    assert np.allclose(c[:2, 2:], 0.0)
    lower = c[2:, 2:]
    assert np.allclose(lower @ lower.conj().T, np.eye(2))


def test_toffoli_matrix_is_controlled_controlled_x():
    t = oracle.toffoli_matrix()
    want = np.eye(8)
    want[6:8, 6:8] = [[0, 1], [1, 0]]
    assert np.array_equal(t, want)


def test_choi_identity_channel_is_psd():
    assert oracle.choi_psd_check(np.eye(4)) >= -1e-12


def test_choi_detects_non_completely_positive_map():
    # transpose map: positive but not CP, flips the Y component
    t = np.diag([1.0, 1.0, -1.0, 1.0])
    assert oracle.choi_psd_check(t) < -0.1


def test_choi_rejects_odd_sizes():
    with pytest.raises(ValueError):
        oracle.choi_matrix(np.eye(8))


def test_decohere_kraus_damps_coherences(rng):
    s = random_pauli_state(rng, 1)
    d = oracle.to_dense(s)
    rho0 = d.rho.copy()
    oracle.apply_kraus(d, oracle.decohere_kraus(0.6), (0,))
    assert abs(d.rho[0, 1] - 0.6 * rho0[0, 1]) < 1e-12
    assert abs(d.rho[0, 0] - rho0[0, 0]) < 1e-12


def test_decay_kraus_moves_population_toward_thermal(rng):
    d = oracle.to_dense(init_bitstring("1"))
    oracle.apply_kraus(d, oracle.decay_kraus(0.75, 1.0), (0,))
    # g = 0.75 toward the p = 1 ground state
    assert np.allclose(np.diag(d.rho).real, [0.25, 0.75])


def _memory_step(d, f, g, p):
    """One memory step on every qubit: a schedule of one empty partition."""
    oracle.run_schedule_dense(d, Schedule([Partition("gate", [])]), NoiseModel(f=f, g=g, p=p))


def test_dense_memory_step_matches_kraus_composition(rng):
    # an even n takes only the paired superoperator, an odd n one single as well
    for n in (2, 3):
        s = random_pauli_state(rng, n)
        d1 = oracle.to_dense(s)
        d2 = oracle.to_dense(s)
        _memory_step(d1, 0.9, 0.8, 0.7)
        for q in range(n):
            oracle.apply_kraus(d2, oracle.decay_kraus(0.8, 0.7), (q,))
            oracle.apply_kraus(d2, oracle.decohere_kraus(0.9), (q,))
        assert np.max(np.abs(d1.rho - d2.rho)) < 1e-12


def _rotation_mixture(axis, theta, alpha, r):
    """Superoperator of one noisy rotation: a stack of one."""
    return oracle._rotation_mixtures(axis, np.array([theta], dtype=np.float64), alpha, r)[0]


def _gate_channel(ins, noise):
    """A schedule member's noisy gate channel built at its use, one mixture
    at a time: u3 as Rz(phi) @ Ry(theta) @ Rz(lam); None for a non-gate."""
    if ins.kind == "u1":
        return _rotation_mixture("z", ins.angles[0], *noise.axis("z"))
    if ins.kind == "u3":
        theta, phi, lam = ins.angles
        z, y = noise.axis("z"), noise.axis("y")
        return (
            _rotation_mixture("z", phi, *z)
            @ _rotation_mixture("y", theta, *y)
            @ _rotation_mixture("z", lam, *z)
        )
    if ins.kind == "cx":
        return oracle._cx_mixture(noise.alpha_cx, noise.r_cx)
    return None


def _per_use_run(d, schedule, noise):
    """``run_schedule_dense`` with every channel built at its use: each gate
    by ``_gate_channel``, and each memory channel at every partition,
    composed into one qubit's factor at a time with ``defer``."""
    run = oracle._Run(d, oracle._readouts(noise.d1, noise.d2))
    for part in schedule.partitions:
        for ins in part.members:
            run.step(ins, _gate_channel(ins, noise))
        s = oracle._memory_channel(*noise.pair(part.category), noise.p)
        for q in range(d.n):
            run.defer(q, s)
    run.finish()
    return run.records


def test_a_schedule_builds_each_memory_channel_once(monkeypatch):
    # one build per distinct (f, g) of the partition categories, however
    # many partitions, and the same bytes as a build at every partition
    # composed one qubit at a time
    n, instructions = parse_circuit(random_circuit_text(np.random.default_rng(3), 3, 40))
    _, schedule = compile_circuit(n, instructions)
    noise = NoiseModel(f=0.99, g=0.98, f_meas=0.97, g_meas=0.96, p=0.9)
    categories = {part.category for part in schedule.partitions}
    assert len(schedule.partitions) >= 10 and categories == {"gate", "measurement", "solo"}

    want = oracle.dense_zero(n)
    records = _per_use_run(want, schedule, noise)

    builds = []
    decay_kraus = oracle.decay_kraus
    monkeypatch.setattr(
        oracle, "decay_kraus", lambda g, p: builds.append(g) or decay_kraus(g, p)
    )
    got = oracle.dense_zero(n)
    assert repr(oracle.run_schedule_dense(got, schedule, noise)) == repr(records)
    assert sorted(builds) == [0.96, 0.98]
    assert got.rho.tobytes() == want.rho.tobytes()


def test_a_schedule_builds_its_rotation_mixtures_as_one_stack_per_axis(monkeypatch):
    # two u1 angles (one of them 0.0 and -0.0 in turn) and one u3 repeat
    # between cx gates, so no merge joins them: one z stack and one y stack
    # per run, one mixture per use, and the same bytes as a build at every gate
    lines = ["qubits 3"]
    for i in range(8):
        lines += [f"u1({0.25 * (1 + i % 2)}) q[{i % 3}]", "u3(0.5,0.25,-0.75) q[1]"]
        lines += ["cx q[0],q[1]", f"u1({'-' * (i % 2)}0.0) q[2]", "cx q[1],q[2]"]
    n, instructions = parse_circuit("\n".join(lines) + "\n")
    _, schedule = compile_circuit(n, instructions)
    noise = NoiseModel(alpha_z=-0.0, r_z=1.0, alpha_y=-0.02, r_y=0.98, f=0.99, g=0.98, p=0.9)

    want = oracle.dense_zero(n)
    records = _per_use_run(want, schedule, noise)

    builds = []
    mixtures = oracle._rotation_mixtures
    monkeypatch.setattr(
        oracle,
        "_rotation_mixtures",
        lambda axis, thetas, *noise: builds.append((axis, len(thetas))) or mixtures(axis, thetas, *noise),
    )
    got = oracle.dense_zero(n)
    assert repr(oracle.run_schedule_dense(got, schedule, noise)) == repr(records)
    kinds = [ins.kind for part in schedule.partitions for ins in part.members]
    n1, n3 = kinds.count("u1"), kinds.count("u3")
    assert n1 >= 8 and n3 == 8
    assert builds == [("z", n1 + 2 * n3), ("y", n3)]
    assert got.rho.tobytes() == want.rho.tobytes()


def _one_mixture(axis, theta, alpha, r):
    """A noisy rotation's superoperator built alone: ``superop`` of its two
    rotations, each written out as cos(t/2) I - i sin(t/2) sigma_axis."""
    delta0 = np.arccos(r)
    base = theta + alpha
    sigma = oracle.SIGMA[" xyz".index(axis)]
    rotations = [np.cos(t / 2) * oracle.SIGMA[0] - 1j * np.sin(t / 2) * sigma for t in (base + delta0, base - delta0)]
    return oracle.superop(rotations, [0.5, 0.5])


# three angle lists of one length: 1, 2, or 65
ANGLE_LISTS = st.sampled_from((1, 2, 65)).flatmap(
    lambda size: st.lists(
        st.lists(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False), min_size=size, max_size=size),
        min_size=3,
        max_size=3,
    )
)
AXIS_NOISE = st.builds(
    NoiseModel,
    **{f"r_{a}": st.floats(0.0, 1.0) for a in "yz"},
    **{f"alpha_{a}": st.floats(-1.0, 1.0) for a in "yz"},
)


@settings(max_examples=30, deadline=None)
@given(angles=ANGLE_LISTS, noise=AXIS_NOISE)
def test_the_oracle_stacks_equal_its_one_at_a_time_builds(angles, noise):
    # bytes, not array_equal, so zero signs count; a SIMD loop that rounds
    # its body and its tail apart would show at length 65
    thetas, phis, lams = map(np.array, angles)
    for axis in "yz":
        stack = oracle._rotation_mixtures(axis, thetas, *noise.axis(axis))
        assert stack.shape == (len(thetas), 4, 4)
        for s, theta in zip(stack, thetas.tolist()):
            one = _one_mixture(axis, theta, *noise.axis(axis))
            alone = _rotation_mixture(axis, theta, *noise.axis(axis))
            assert s.tobytes() == one.tobytes() == alone.tobytes(), (axis, theta)
    # the channels of a run: each u3 against Rz @ Ry @ Rz of single builds
    members = [Instruction("u3", (0,), angles) for angles in zip(*map(np.ndarray.tolist, (thetas, phis, lams)))]
    members += [Instruction("u1", (1,), (lam,)) for lam in lams.tolist()]
    members += [Instruction("cx", (0, 1)), Instruction("measure", (1,))]
    gates, _ = oracle._schedule_channels(2, Schedule([Partition("gate", members)]), noise)
    for ins in members[:-1]:
        assert next(gates).tobytes() == _gate_channel(ins, noise).tobytes(), ins
    assert next(gates) is None and next(gates, "done") == "done"


def test_the_batched_memory_step_equals_one_defer_per_qubit(rng):
    s = oracle._memory_channel(0.995, 0.997, 0.92)
    readouts = oracle._readouts(1.0, 1.0)
    for n in (1, 2, 7):
        for held in ([], [0], [q for q in range(n) if q % 2], list(range(n))):
            got, want = (oracle._Run(oracle.dense_zero(n), readouts) for _ in range(2))
            got.pending = {q: rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for q in held}
            want.pending = dict(got.pending)
            for q in range(n):
                want.defer(q, s)
            got.end_partition(s)
            assert sorted(got.pending) == list(range(n))
            for q in range(n):
                assert got.pending[q].tobytes() == want.pending[q].tobytes(), (n, held, q)


def test_dense_measure_qubit_ideal_probabilities():
    d = oracle.to_dense(init_uniform(1))
    [(_, _, _, p)] = oracle.run_instructions_dense(d, [Instruction("measure", (0,))])
    assert np.allclose(p, (0.5, 0.5))
    # ideal z measurement of |+> leaves the maximally mixed state
    assert np.allclose(d.rho, np.eye(2) / 2)


def test_dense_ensemble_is_diagonal():
    d = oracle.to_dense(init_bitstring("01"))
    [(_, dist)] = oracle.run_instructions_dense(d, [Instruction("ensemble")])
    probs = list(dist.values())
    want = np.zeros(4)
    want[1] = 1.0
    assert np.allclose(probs, want)


def test_dense_bell_on_maximally_entangled_pair():
    d = oracle.dense_zero(2)
    bell = [Instruction("h", (0,)), Instruction("cx", (0, 1)), Instruction("bell", (0, 1))]
    [(_, _, probs)] = oracle.run_instructions_dense(d, bell)
    assert abs(probs["phi+"] - 1.0) < 1e-12
    assert all(abs(probs[k]) < 1e-12 for k in ("phi-", "psi+", "psi-"))


def test_dense_reset_forces_ground_state(rng):
    d = oracle.to_dense(random_pauli_state(rng, 1))
    oracle.run_instructions_dense(d, [Instruction("reset", (0,))])
    assert np.allclose(d.rho, [[1, 0], [0, 0]])


def test_run_instructions_dense_bell_records():
    n, ins = parse_circuit("qubits 2\nh q[0]\ncx q[0],q[1]\nensemble\n")
    d = oracle.dense_zero(n)
    records = oracle.run_instructions_dense(d, ins)
    kind, dist = records[-1][0], records[-1][1]
    assert kind == "ensemble"
    assert abs(dist["00"] - 0.5) < 1e-12 and abs(dist["11"] - 0.5) < 1e-12


def test_oracle_imports_nothing_from_the_engine():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "paulisim"
        ):
            imported |= {(node.level, node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "paulisim" for alias in node.names)
    # a schedule checks itself (Schedule.angles), so nothing from circuit
    assert imported == {(1, "state", "PauliState")}


def test_superop_rejects_incomplete_sets():
    with pytest.raises(ValueError, match="does not resolve the identity within 1e-10"):
        oracle.superop([np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="does not resolve the identity within 1e-10"):
        oracle.superop([oracle.SIGMA[0], oracle.SIGMA[1]], [0.5, 0.6])


def test_a_nan_fails_the_completeness_and_hermiticity_checks():
    with pytest.raises(ValueError, match="does not resolve the identity within 1e-10"):
        oracle.superop([np.full((2, 2), np.nan, dtype=complex)])
    # one check covers a whole stack: one NaN angle anywhere in it is refused
    thetas = np.linspace(-3.0, 3.0, 65)
    assert oracle._rotation_mixtures("y", thetas, 0.01, 0.99).shape == (65, 4, 4)
    for i in (0, 31, 64):
        bad = thetas.copy()
        bad[i] = np.nan
        with pytest.raises(ValueError, match="does not resolve the identity within 1e-10"):
            oracle._rotation_mixtures("y", bad, 0.01, 0.99)
    assert oracle._rotation_mixtures("z", np.array([]), 0.01, 0.99).shape == (0, 4, 4)
    d = oracle.dense_zero(2)
    d.rho[0, 0] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        oracle.from_dense(d)


# The superoperator route against the definitions: Kraus sums through
# apply_kraus and unitary mixtures as weighted apply_unitary branches.

PIN_TOL = 1e-14


def _branches(d, unitaries, weights, qubits):
    acc = np.zeros_like(d.rho)
    for u, w in zip(unitaries, weights):
        branch = oracle.DenseState(d.n, d.rho.copy())
        oracle.apply_unitary(branch, u, qubits)
        acc += w * branch.rho
    d.rho = acc


def _rotation_branches(d, axis, theta, alpha, r, q):
    delta0 = np.arccos(r)
    rotations = [oracle.rotation_matrix(axis, theta + alpha + s * delta0) for s in (1, -1)]
    _branches(d, rotations, [0.5, 0.5], (q,))


def _pair(rng, n=3):
    s = random_pauli_state(rng, n)
    return oracle.to_dense(s), oracle.to_dense(s)


def _copy(d):
    return oracle.DenseState(d.n, d.rho.copy())


def _readout_kraus(projectors, d):
    """{sqrt(d) Pi} and {sqrt((1 - d)/4^k) P}: the projective measurement with
    weight d, full depolarisation of its k qubits with weight 1 - d."""
    k = int(np.log2(len(projectors[0])))
    paulis = [np.ones((1, 1))]
    for _ in range(k):
        paulis = [np.kron(a, s) for a in paulis for s in oracle.SIGMA]
    return [np.sqrt(d) * b for b in projectors] + [np.sqrt((1 - d) / 4**k) * p for p in paulis]


def _run_one(d, ins, noise):
    # default memory noise (f = g = 1) composes no memory step
    return oracle.run_schedule_dense(d, Schedule([Partition("gate", [ins])]), noise)


def _record(d, ins, noise):
    """The one record of ``ins`` run alone under ``noise``: its value."""
    [record] = _run_one(d, ins, noise)
    return record[-1]


def _expect(labels):
    """The expect instruction of the Pauli string with SIGMA[labels[q]] on qubit q."""
    return Instruction("expect", string="".join("IXYZ"[v] for v in reversed(labels)))


def _measure_along(d, k, axis, d1):
    """(p_plus, p_minus) of qubit k measured along any unit ``axis``, damping d1."""
    axis = tuple(float(a) for a in axis)
    return run_alone(d, lambda run: run.measure(k, axis, oracle._axis_readout(axis, d1)))


def test_superop_memory_step_matches_kraus_route(rng):
    for f, g, p in ((0.9, 0.8, 0.7), (0.995, 0.997, 0.92), (0.3, 0.1, 0.0), (1.0, 0.5, 1.0)):
        got, want = _pair(rng)
        _memory_step(got, f, g, p)
        for q in range(3):
            oracle.apply_kraus(want, oracle.decohere_kraus(f), (q,))
            oracle.apply_kraus(want, oracle.decay_kraus(g, p), (q,))
        assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, (f, g, p)


def test_superop_rotation_mixtures_match_branch_route(rng):
    noise = NoiseModel(alpha_z=0.05, r_z=0.97, alpha_y=-0.08, r_y=0.93)
    got, want = _pair(rng)
    _run_one(got, Instruction("u1", (1,), (0.7,)), noise)
    _rotation_branches(want, "z", 0.7, 0.05, 0.97, 1)
    assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL

    # the y mixture on its own, as a u3 uses it
    got, want = _pair(rng)
    run_alone(got, lambda run: run.apply((2,), _rotation_mixture("y", 1.1, -0.08, 0.93)))
    _rotation_branches(want, "y", 1.1, -0.08, 0.93, 2)
    assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL

    # u3(theta, phi, lam) is z(lam), then y(theta), then z(phi), composed into one 4x4
    got, want = _pair(rng)
    _run_one(got, Instruction("u3", (0,), (1.1, 0.4, -0.9)), noise)
    _rotation_branches(want, "z", -0.9, 0.05, 0.97, 0)
    _rotation_branches(want, "y", 1.1, -0.08, 0.93, 0)
    _rotation_branches(want, "z", 0.4, 0.05, 0.97, 0)
    assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL


def test_superop_cx_mixture_matches_branch_route(rng):
    # control 2, target 0: not adjacent, and listed high qubit first
    got, want = _pair(rng)
    _run_one(got, Instruction("cx", (2, 0)), NoiseModel(alpha_cx=0.03, r_cx=0.95))
    delta0 = np.arccos(0.95)
    pulses = [oracle.cnot_matrix(0.03 + delta0), oracle.cnot_matrix(0.03 - delta0)]
    _branches(want, pulses, [0.5, 0.5], (2, 0))
    assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL


def test_superop_projective_update_matches_kraus_route(rng):
    # a unit vector off every Pauli axis, and the three basis axes
    for axis in ([0.48, -0.6, 0.64], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
        axis = np.array(axis)
        op = sum(axis[i] * oracle.SIGMA[i + 1] for i in range(3))
        projectors = [(oracle.SIGMA[0] + op) / 2, (oracle.SIGMA[0] - op) / 2]
        # any Pauli axis perpendicular to the measured one swaps its two projectors
        perp = np.cross(axis, [0.6, 0.0, 0.8])
        perp /= np.linalg.norm(perp)
        flip = sum(perp[i] * oracle.SIGMA[i + 1] for i in range(3))
        for d1 in (0.0, 0.85, 1.0):
            got, want = _pair(rng)
            flipped = _copy(want)
            _measure_along(got, 1, axis, d1)
            oracle.apply_kraus(want, _readout_kraus(projectors, d1), (1,))
            assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, (axis, d1)
            # second reference: projection, then a flip with weight (1 - d1)/2
            oracle.apply_kraus(flipped, projectors, (1,))
            _branches(flipped, [oracle.SIGMA[0], flip], [(1 + d1) / 2, (1 - d1) / 2], (1,))
            assert np.max(np.abs(got.rho - flipped.rho)) <= PIN_TOL, (axis, d1)


def test_superop_reset_matches_kraus_route(rng):
    got, want = _pair(rng)
    oracle.run_instructions_dense(got, [Instruction("reset", (1,))])
    p0 = (oracle.SIGMA[0] + oracle.SIGMA[3]) / 2
    p1 = (oracle.SIGMA[0] - oracle.SIGMA[3]) / 2
    oracle.apply_kraus(want, [p0, oracle.SIGMA[1] @ p1], (1,))
    assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL


def test_superop_bell_update_matches_kraus_route(rng):
    s = oracle.SIGMA
    projectors = [
        sum(c * np.kron(s[j], s[j]) for j, c in enumerate((1.0, *signs))) / 4
        for signs in oracle.BELL_SIGNS.values()
    ]
    paulis = [np.kron(s[i], s[j]) for i in range(4) for j in range(4)]
    for d2 in (0.0, 0.85, 1.0):
        got, want = _pair(rng)
        twirled = _copy(want)
        _run_one(got, Instruction("bell", (2, 0)), NoiseModel(d2=d2))
        oracle.apply_kraus(want, _readout_kraus(projectors, d2), (2, 0))
        assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, d2
        # second reference: projection, then the pair twirl that keeps weight d2
        oracle.apply_kraus(twirled, projectors, (2, 0))
        _branches(twirled, [np.eye(4)] + paulis, [d2] + [(1 - d2) / 16] * 16, (2, 0))
        assert np.max(np.abs(got.rho - twirled.rho)) <= PIN_TOL, d2


# The one pass, ``_Run.apply``, which the test names call apply_superop: one
# transposed copy and one gemm, checked on every qubit placement against the
# Kraus definition, for memory, for the route it must not share with the
# pins, and for the qubits it must refuse.


def _pass(d, s, qubits):
    """One raw pass of ``s`` on the listed qubits, as a run of its own."""
    run_alone(d, lambda run: run.apply(qubits, s))


def _random_kraus(rng, k, count=3):
    """A random complex Kraus set on k qubits, in general not unital."""
    dim = 2**k
    a = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", a.conj(), a))
    return list(a @ (v / np.sqrt(w)) @ v.conj().T)  # a_mu M^-1/2, M = sum a^dagger a


def test_apply_superop_matches_apply_kraus_on_every_placement(rng):
    for k in (1, 2, 3):
        kraus = _random_kraus(rng, k)
        assert not np.allclose(sum(m @ m.conj().T for m in kraus), np.eye(2**k))
        s = oracle.superop(kraus)
        for n in range(k, 6):
            for qubits in itertools.permutations(range(n), k):
                got, want = _pair(rng, n)
                _pass(got, s, qubits)
                oracle.apply_kraus(want, kraus, qubits)
                assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, (n, qubits)


def test_apply_superop_allocates_one_copy_of_rho(rng):
    kraus = {k: _random_kraus(rng, k) for k in (1, 2, 3)}
    d = oracle.to_dense(random_pauli_state(rng, 8))
    for qubits in ((0,), (7, 6), (1, 6), (5, 0, 3)):
        s = oracle.superop(kraus[len(qubits)])
        tracemalloc.start()
        try:
            _pass(d, s, qubits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= d.rho.nbytes + 64 * 1024, (qubits, peak / d.rho.nbytes)


def _run_methods(*names):
    """The named methods of ``oracle._Run``, as parsed from the source."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    (cls,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_Run"]
    methods = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name in names]
    assert len(methods) == len(names)
    return methods


def test_apply_superop_shares_no_route_with_the_pinned_definitions():
    (fn,) = _run_methods("apply")
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }
    assert called.isdisjoint({"_apply_on_axes", "tensordot", "moveaxis"}), called


def test_the_run_kernel_shares_no_route_with_the_pinned_definitions():
    # the pass, the bit moves and the restore; the reads contract by einsum
    tree = ast.parse(Path(oracle.__file__).read_text())
    kernel = [node for node in tree.body if getattr(node, "name", None) == "_transposed_copy"]
    kernel += _run_methods("apply", "_move", "_apply_pending", "finish")
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for fn in kernel
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }
    assert called.isdisjoint({"_apply_on_axes", "tensordot", "moveaxis", "einsum"}), called


def test_passes_in_one_run_match_apply_kraus_pass_by_pass(rng, monkeypatch):
    # one kernel run, restored once, on every placement: a pass whose bits
    # are at the front in its order makes no gather, any other pass one
    moves = []
    move = oracle._Run._move
    monkeypatch.setattr(oracle._Run, "_move", lambda v, axes: moves.append(axes) or move(v, axes))
    kraus = {k: _random_kraus(rng, k) for k in (1, 2, 3)}
    supers = {k: oracle.superop(ops) for k, ops in kraus.items()}
    for n in range(1, 6):
        got, want = _pair(rng, n)
        home = got.rho
        v = oracle._Run(got, oracle._readouts(1.0, 1.0))
        for _ in range(12):
            k = int(rng.integers(1, min(n, 3) + 1))
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            for i, listed in enumerate([qubits, qubits[::-1], qubits[::-1]]):
                front = [n + q for q in listed] + list(listed)
                at_front = v.axes[: 2 * k] == front
                moves.clear()
                v.apply(listed, supers[k])
                oracle.apply_kraus(want, kraus[k], listed)
                assert len(moves) == (not at_front), (n, listed)
                assert v.axes[: 2 * k] == front
                if i == 1 and k > 1:
                    assert not at_front  # the same bits in another order
                if i == 2:
                    assert at_front  # a repeat
        v.finish()
        assert got.rho is home
        assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, n


def test_reads_in_a_moved_layout_are_arrays_of_their_own(rng):
    # every partial trace and the diagonal, read from a kernel run whose bits
    # have moved, against the Pauli expansion of the same state by
    # oracle.expectation; writing into a read leaves rho as it was
    for n in (1, 2, 3, 4):
        d, want = _pair(rng, n)
        v = oracle._Run(d, oracle._readouts(1.0, 1.0))
        for qubits in [(0,)] + [(n - 1, 1)] * (n >= 3):
            kraus = _random_kraus(rng, len(qubits))
            v.apply(qubits, oracle.superop(kraus))
            oracle.apply_kraus(want, kraus, qubits)
        assert n == 1 or v.axes != sorted(v.axes, reverse=True)
        cur, axes = v.cur.copy(), list(v.axes)
        for m in range(n + 1):
            basis = oracle._pauli_products(m)
            for qubits in itertools.permutations(range(n), m):
                r = v._reduced(qubits)
                expanded = sum(oracle.expectation(want, p, qubits) * p for p in basis) / 2**m
                assert np.max(np.abs(r - expanded)) <= PIN_TOL, (n, qubits)
                r[...] = 7.0
                assert np.array_equal(v.cur, cur) and v.axes == axes, (n, qubits)
        diagonal = v._diagonal()
        assert np.max(np.abs(diagonal - np.diag(want.rho).real)) <= PIN_TOL, n
        diagonal[...] = 7.0
        assert np.array_equal(v.cur, cur), n

        # in (row, column) order, every qubit in descending order is rho itself
        before = want.rho.copy()
        r = oracle._Run(want, oracle._readouts(1.0, 1.0))._reduced(tuple(reversed(range(n))))
        assert not np.shares_memory(r, want.rho)
        r[...] = 7.0
        assert np.array_equal(want.rho, before), n


def test_a_full_support_expect_makes_no_copy_of_rho(rng):
    # Pauli X, Y or Z on every qubit at n = 8, read from a moved layout with
    # a factor pending: besides the run's two buffers, at most half of rho
    # (a quarter for the first contraction), and the record of the
    # whole-matrix route on the state the readout leaves
    n = 8
    d = oracle.to_dense(random_pauli_state(rng, n))
    run = oracle._Run(d, oracle._readouts(0.97, 1.0))
    run.apply((2, 5), oracle.superop([oracle.cnot_matrix()]))
    run.defer(4, oracle.superop(_random_kraus(rng, 1)))
    labels = [1 + q % 3 for q in range(n)]
    tracemalloc.start()
    try:
        value = run.expect(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * d.rho.nbytes, peak / d.rho.nbytes
    run.finish()
    op = oracle._kron_qubits([oracle.SIGMA[labels[q]] for q in reversed(range(n))])
    assert abs(value - oracle.expectation(d, op, tuple(reversed(range(n))))) <= PIN_TOL


def test_contractions_refuse_qubits_outside_the_state_or_repeated(rng):
    d = oracle.to_dense(random_pauli_state(rng, 3))
    s1 = oracle.superop(_random_kraus(rng, 1))
    s2 = oracle.superop(_random_kraus(rng, 2))
    calls = {
        "apply_superop": lambda qs: _pass(d, s1 if len(qs) == 1 else s2, qs),
        "apply_unitary": lambda qs: oracle.apply_unitary(d, np.eye(2 ** len(qs)), qs),
        "apply_kraus": lambda qs: oracle.apply_kraus(d, [np.eye(2 ** len(qs))], qs),
        "expectation": lambda qs: oracle.expectation(d, np.eye(2 ** len(qs)), qs),
        "_reduced": lambda qs: oracle._Run(d, oracle._readouts(1.0, 1.0))._reduced(qs),
    }
    rho = d.rho.copy()
    for name, call in calls.items():
        for qubits in ((3,), (-1,), (5, 1), (0, -3)):
            with pytest.raises(IndexError, match="out of range"):
                call(qubits)
        for qubits in ((1, 1), (2, 0, 2)):
            with pytest.raises(ValueError, match="repeat"):
                call(qubits)
        assert np.array_equal(d.rho, rho), name

    # an operator of the wrong size for its qubits is refused before rho is touched
    before = d.rho
    for s, qubits in ((s2, (1,)), (s1, (0, 2)), (np.eye(2), (0,)), (np.eye(4)[:, :3], (1,))):
        with pytest.raises(ValueError, match="shape"):
            _pass(d, s, qubits)
    assert d.rho is before and np.array_equal(d.rho, rho)
    with pytest.raises(ValueError, match="shape"):
        oracle.apply_unitary(d, np.eye(4), (0,))


def _pauli_mean(rho, labels):
    """Tr(P rho) for the Pauli string with SIGMA[labels[q]] on qubit q, by np.kron."""
    full = np.ones((1, 1))
    for v in reversed(labels):
        full = np.kron(full, oracle.SIGMA[v])
    return float(np.trace(full @ rho).real)


def test_readout_records_are_the_textbook_values(rng):
    # the damping formulas of every readout, here only as the reference: each
    # record is the formula on the state before the readout
    tol = 1e-14
    for n in (1, 2, 3):
        for d in (0.0, 0.85, 1.0, float(rng.uniform())):
            s = random_pauli_state(rng, n)
            rho = oracle.to_dense(s).rho
            k = int(rng.integers(n))
            for axis in ([0.48, -0.6, 0.64], [0.0, 1.0, 0.0]):
                strings = [[i + 1 if q == k else 0 for q in range(n)] for i in range(3)]
                mean = sum(a * _pauli_mean(rho, lab) for a, lab in zip(axis, strings))
                p_plus, p_minus = _measure_along(oracle.to_dense(s), k, axis, d)
                assert abs(p_plus - (1 + d * mean) / 2) <= tol
                assert abs(p_minus - (1 - d * mean) / 2) <= tol

            labels = [int(v) for v in rng.integers(0, 4, n)]
            w = sum(1 for v in labels if v)
            got = _record(oracle.to_dense(s), _expect(labels), NoiseModel(d1=d))
            assert abs(got - d**w * _pauli_mean(rho, labels)) <= tol, labels

            # each bit flips with probability (1 - d)/2: the readout confusion matrix
            confusion = np.ones((1, 1))
            for _ in range(n):
                confusion = np.kron(confusion, np.array([[1 + d, 1 - d], [1 - d, 1 + d]]) / 2)
            got = list(_record(oracle.to_dense(s), Instruction("ensemble"), NoiseModel(d1=d)).values())
            assert np.max(np.abs(got - confusion @ np.diag(rho).real)) <= tol

            if n >= 2:
                kl = tuple(int(q) for q in rng.permutation(n)[:2])
                got = _record(oracle.to_dense(s), Instruction("bell", kl), NoiseModel(d2=d))
                # <XX>, <YY>, <ZZ> on the pair
                corr = [_pauli_mean(rho, [j * (q in kl) for q in range(n)]) for j in (1, 2, 3)]
                for label, signs in oracle.BELL_SIGNS.items():
                    p = (1 + sum(c * m for c, m in zip(signs, corr))) / 4
                    assert abs(got[label] - ((1 - d) / 4 + d * p)) <= tol, label


def test_measure_and_bell_records_match_the_whole_matrix_expectation(rng):
    # the records come from one partial trace to the read qubits; the
    # whole-matrix route through oracle.expectation must give the same numbers
    for n in (2, 3, 5):
        for d in (0.0, 0.85, 1.0):
            s = random_pauli_state(rng, n)
            for labels in ([0] * n, [int(v) for v in rng.integers(0, 4, n)], [3] * n):
                got = oracle.to_dense(s)
                value = _record(got, _expect(labels), NoiseModel(d1=d))
                full = np.ones((1, 1))
                for v in reversed(labels):
                    full = np.kron(full, oracle.SIGMA[v])
                want = oracle.expectation(got, full, tuple(reversed(range(n))))
                assert abs(value - want) <= PIN_TOL, labels

            k = int(rng.integers(n))
            axis = np.array([0.48, -0.6, 0.64])
            got = oracle.to_dense(s)
            p_plus, p_minus = _measure_along(got, k, axis, d)
            plus = (oracle.SIGMA[0] + sum(axis[i] * oracle.SIGMA[i + 1] for i in range(3))) / 2
            assert abs(p_plus - oracle.expectation(got, plus, (k,))) <= PIN_TOL
            assert p_minus == 1.0 - p_plus

            kl = tuple(int(q) for q in rng.permutation(n)[:2])
            got = oracle.to_dense(s)
            probs = _record(got, Instruction("bell", kl), NoiseModel(d2=d))
            for label, signs in oracle.BELL_SIGNS.items():
                b = oracle._bell_projector(signs)
                assert abs(probs[label] - oracle.expectation(got, b, kl)) <= PIN_TOL, (kl, label)


# One step behind both entry points, and the ideal gate route against
# apply_unitary.


def _assert_records_match(got, want, tol):
    assert [r[0] for r in got] == [r[0] for r in want]
    for a, b in zip(got, want):
        # every record is (kind, labels..., values): labels equal, values within tol
        assert a[:-1] == b[:-1]
        va, vb = a[-1], b[-1]
        if isinstance(va, dict):
            assert va.keys() == vb.keys()
            va, vb = list(va.values()), [vb[lab] for lab in va]
        assert np.max(np.abs(np.subtract(va, vb))) <= tol, a


def test_one_step_behind_both_entry_points(rng):
    # a raw circuit run ideally and its compiled schedule under the noiseless
    # model must agree in state and records
    for _ in range(120):
        n = int(rng.integers(1, 5))
        n, instructions = parse_circuit(random_circuit_text(rng, n, 25))
        _, schedule = compile_circuit(n, instructions)
        raw, compiled = _pair(rng, n)
        want = oracle.run_instructions_dense(raw, instructions)
        got = oracle.run_schedule_dense(compiled, schedule, NoiseModel())
        assert np.max(np.abs(compiled.rho - raw.rho)) <= 1e-12
        _assert_records_match(got, want, 1e-12)

    d = oracle.dense_zero(1)
    with pytest.raises(ValueError, match=r"unexpected kind 'h' in schedule: h q\[0\]"):
        _run_one(d, Instruction("h", (0,)), NoiseModel())
    # a run that raises leaves rho in order, with every instruction before the failing one
    d = oracle.dense_zero(2)
    bell = [Instruction("h", (0,)), Instruction("cx", (0, 1))]
    with pytest.raises(ValueError, match="unknown instruction kind 'swap'"):
        oracle.run_instructions_dense(d, [*bell, Instruction("swap", (0,))])
    want = oracle.dense_zero(2)
    oracle.run_instructions_dense(want, bell)
    assert np.max(np.abs(d.rho - want.rho)) == 0.0 and abs(want.rho[3, 0] - 0.5) <= PIN_TOL


def test_the_compiled_schedule_keeps_the_raw_channel_at_scale(rng):
    # translation validation: the noiseless channel of each compiled schedule
    # against its raw program's, on long circuits with every mnemonic
    kinds = set()
    for n in (5, 6, 7, 5, 6, 7):
        n, instructions = parse_circuit(random_circuit_text(rng, n, 120))
        _, schedule = compile_circuit(n, instructions)
        raw, compiled = _pair(rng, n)
        want = oracle.run_instructions_dense(raw, instructions)
        got = oracle.run_schedule_dense(compiled, schedule, NoiseModel())
        assert np.max(np.abs(compiled.rho - raw.rho)) <= 1e-12, n
        _assert_records_match(got, want, 1e-12)
        kinds |= {ins.kind for ins in instructions}
    assert kinds >= {"ccx", "barrier", "reset", "measure", "measure_x", "measure_y", "expect", "ensemble", "bell"}


def test_a_raw_run_refuses_a_qubit_outside_the_state_at_its_step(rng):
    # with every instruction before it applied; a compiled schedule's bad
    # qubits are refused before rho changes by Schedule.angles, which
    # test_engine.py's test_a_bad_member_is_refused_before_the_state_changes
    # checks for the engine and the oracle alike
    h = Instruction("h", (0,))
    for ins in (Instruction("h", (7,)), Instruction("x", (-1,)), Instruction("reset", (2,)), Instruction("u1", (-2,), (0.3,))):
        d, want = _pair(rng, 2)
        with pytest.raises(IndexError, match="out of range"):
            oracle.run_instructions_dense(d, [h, ins, h])
        oracle.run_instructions_dense(want, [h])
        assert d.rho.tobytes() == want.rho.tobytes(), ins


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, at", [("u1", 0), ("u2", 0), ("u2", 1), ("u3", 0), ("u3", 1), ("u3", 2)])
def test_a_raw_run_refuses_an_angle_that_is_not_finite_at_its_step(rng, kind, at, bad):
    # before its channel is built, so rho stays as it was and numpy warns of
    # nothing (this suite raises every warning as an error)
    angles = [0.3] * KINDS[kind].angles
    angles[at] = bad
    d, want = _pair(rng, 1)
    with pytest.raises(ValueError, match=f"^{kind} needs finite angles"):
        oracle.run_instructions_dense(d, [Instruction(kind, (0,), tuple(angles))])
    assert d.rho.tobytes() == want.rho.tobytes()


# Deferral: one-qubit channels wait as pending factors, and the result is
# the immediate route's, where every channel makes its own pass at once.

_DENSE_INITS = {
    "zero": lambda n, p: oracle.dense_zero(n),
    "uniform": lambda n, p: oracle.dense_uniform(n),
    "thermal": oracle.dense_thermal,
}


def _immediate_step(d, ins, s, readouts, records):
    """``_Run.step`` as a run of its own, with whatever it leaves pending applied at once."""
    run = oracle._Run(d, readouts)
    run.step(ins, s)
    run.finish()
    records += run.records


def _immediate_schedule(d, schedule, noise):
    records, readouts = [], oracle._readouts(noise.d1, noise.d2)
    for part in schedule.partitions:
        for ins in part.members:
            _immediate_step(d, ins, _gate_channel(ins, noise), readouts, records)
        _memory_step(d, *noise.pair(part.category), noise.p)
    return records


def _immediate_instructions(d, instructions):
    records, readouts = [], oracle._readouts(1.0, 1.0)
    for ins in instructions:
        u = oracle._GATE_UNITARY.get(ins.kind)
        _immediate_step(d, ins, None if u is None else oracle.superop([u(ins.angles)]), readouts, records)
    return records


def test_deferred_schedule_matches_the_immediate_step_route(rng):
    for i in range(25):
        init, noise = list(_DENSE_INITS)[i % 3], random_noise(rng)
        n, instructions = parse_circuit(random_circuit_text(rng, 1 + i % 5, 40))
        _, schedule = compile_circuit(n, instructions)
        got, want = (_DENSE_INITS[init](n, noise.p) for _ in range(2))
        records = oracle.run_schedule_dense(got, schedule, noise)
        want_records = _immediate_schedule(want, schedule, noise)
        assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, (i, init)
        _assert_records_match(records, want_records, PIN_TOL)


def test_deferred_instructions_match_the_immediate_step_route(rng):
    for i in range(25):
        init, p = list(_DENSE_INITS)[i % 3], float(rng.uniform(0.6, 1.0))
        n, instructions = parse_circuit(random_circuit_text(rng, 1 + i % 5, 40))
        got, want = (_DENSE_INITS[init](n, p) for _ in range(2))
        records = oracle.run_instructions_dense(got, instructions)
        want_records = _immediate_instructions(want, instructions)
        assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, (i, init)
        _assert_records_match(records, want_records, PIN_TOL)


def test_one_qubit_channels_wait_and_a_two_qubit_gate_makes_one_pass(monkeypatch):
    passes = []
    apply = oracle._Run.apply
    monkeypatch.setattr(
        oracle._Run, "apply", lambda run, qubits, s=None: passes.append(qubits) or apply(run, qubits, s)
    )
    noise = random_noise(np.random.default_rng(11))
    for n in range(1, 7):
        ones = [f"{kind} q[{q}]" for q in range(n) for kind in ("h", "t", "reset", "u3(0.1,0.2,0.3)")]
        for twos in ([], ["cx q[0],q[1]", f"cx q[{n - 1}],q[0]"], ["ccx q[0],q[1],q[2]"]):
            if any(f"q[{q}]" in line for line in twos for q in range(n, 3)):
                continue
            text = "\n".join([f"qubits {n}", *ones, *twos, *ones, "barrier"]) + "\n"
            _, instructions = parse_circuit(text)
            passes.clear()
            oracle.run_instructions_dense(oracle.dense_zero(n), instructions)
            gates = [ins.qubits for ins in instructions if len(ins.qubits) > 1]
            assert passes[: len(gates)] == gates and len(passes) == len(gates) + (n + 1) // 2, text
            if "ccx" in text:
                continue
            # compiled: every memory step composes into the pending factors too
            _, schedule = compile_circuit(*parse_circuit(text))
            passes.clear()
            oracle.run_schedule_dense(oracle.dense_zero(n), schedule, noise)
            assert len(passes) == len(twos) + (n + 1) // 2, text


def test_ideal_gates_match_apply_unitary(rng):
    # each gate kind as its one-unitary superoperator against apply_unitary
    cases = [(Instruction(k, (i % 3,)), u) for i, (k, u) in enumerate(oracle.NAMED_1Q.items())]
    cases += [
        (Instruction("u1", (2,), (0.7,)), oracle.u1_matrix(0.7)),
        (Instruction("u2", (0,), (0.4, -1.3)), oracle.u3_matrix(np.pi / 2, 0.4, -1.3)),
        (Instruction("u3", (1,), (1.1, 0.4, -0.9)), oracle.u3_matrix(1.1, 0.4, -0.9)),
        (Instruction("cx", (0, 1)), oracle.cnot_matrix()),
        (Instruction("cx", (2, 0)), oracle.cnot_matrix()),  # reversed, not adjacent
        (Instruction("ccx", (0, 1, 2)), oracle.toffoli_matrix()),
        (Instruction("ccx", (2, 0, 1)), oracle.toffoli_matrix()),
    ]
    assert {ins.kind for ins, _ in cases} == {k for k, kind in KINDS.items() if kind.category == "gate"}
    for ins, u in cases:
        got, want = _pair(rng)
        assert oracle.run_instructions_dense(got, [ins]) == []
        oracle.apply_unitary(want, u, ins.qubits)
        assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, ins


def test_readouts_make_their_passes_over_rho_and_no_more(monkeypatch):
    # measure and expect compose into pending factors and make no pass over
    # rho; bell makes one, as a cx does; ensemble makes ceil(n/2).  Passes
    # on a read's small partial trace are not passes over rho.
    homes = []
    apply = oracle._Run.apply
    monkeypatch.setattr(
        oracle._Run, "apply", lambda run, qubits, s=None: homes.append(run.home) or apply(run, qubits, s)
    )

    def over_rho(n, run, *args):
        d = oracle.dense_zero(n)
        homes.clear()
        run(d, *args)
        return sum(np.shares_memory(home, d.rho) for home in homes)

    for n in range(2, 7):
        half = (n + 1) // 2
        ones = [f"u3(0.1,0.2,0.3) q[{q}]" for q in range(n)]
        readouts = {
            "measure_y q[1]": 0,
            "expect " + "XYZ"[:n] + "I" * (n - min(n, 3)): 0,
            "expect " + "Z" * n: 0,
            f"bell q[{n - 1}],q[0]": 1,
            "ensemble": half,
        }
        for readout, extra in readouts.items():
            text = "\n".join([f"qubits {n}", *ones, readout, *ones]) + "\n"
            _, instructions = parse_circuit(text)
            # each run ends with the factors of the second layer: ceil(n/2) passes
            assert over_rho(n, oracle.run_instructions_dense, instructions) == half + extra, text

        # each readout alone is a run of its own: what it leaves pending goes before it returns
        noise = NoiseModel(d1=0.9, d2=0.9)
        assert over_rho(n, _run_one, Instruction("measure_y", (1,)), noise) == 1
        assert over_rho(n, _run_one, _expect([3] * n), noise) == half
        assert over_rho(n, _run_one, _expect([0] * n), noise) == 0
        assert over_rho(n, _run_one, Instruction("bell", (0, n - 1)), noise) == 1
        assert over_rho(n, _run_one, Instruction("ensemble"), noise) == half


def test_a_memory_step_at_f_and_g_one_composes_nothing(monkeypatch):
    # as in the engine, f = g = 1 is no memory step: the cx is the run's one
    # pass, and rho is the raw run's to the byte; f < 1 composes into every qubit
    passes = []
    apply = oracle._Run.apply
    monkeypatch.setattr(
        oracle._Run, "apply", lambda run, qubits, s=None: passes.append(qubits) or apply(run, qubits, s)
    )
    cx = Instruction("cx", (0, 1))
    schedule = Schedule([Partition("gate", [cx]), Partition("measurement", [])])
    start = oracle.to_dense(random_pauli_state(np.random.default_rng(4), 5))
    want = _copy(start)
    oracle.run_instructions_dense(want, [cx])
    for noise, count in ((NoiseModel(p=0.7), 1), (NoiseModel(p=0.7, f=0.9, f_meas=1.0, g_meas=1.0), 4)):
        got = _copy(start)
        passes.clear()
        oracle.run_schedule_dense(got, schedule, noise)
        assert len(passes) == count, noise
        assert (got.rho.tobytes() == want.rho.tobytes()) == (count == 1), noise
    _, memory = oracle._schedule_channels(5, schedule, NoiseModel(p=0.7, f=0.9, f_meas=1.0, g_meas=1.0))
    assert memory[(1.0, 1.0)] is None and memory[(0.9, 1.0)].shape == (4, 4)


def test_a_whole_run_holds_at_most_three_copies_of_rho_besides_rho():
    # rho, one spare buffer, and small reads: a whole run of either entry
    # point at n = 8 under every noise key
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        noise = random_noise(rng)
        n, instructions = parse_circuit(random_circuit_text(rng, 8, 120))
        _, schedule = compile_circuit(n, instructions)
        runs = {
            "schedule": lambda d: oracle.run_schedule_dense(d, schedule, noise),
            "instructions": lambda d: oracle.run_instructions_dense(d, instructions),
        }
        for name, run in runs.items():
            d = oracle.dense_thermal(n, noise.p)
            tracemalloc.start()
            try:
                run(d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * d.rho.nbytes, (seed, name, peak / d.rho.nbytes)
