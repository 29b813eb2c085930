"""The dense-matrix oracle must be independently correct: these checks use
only textbook linear algebra, never the coefficient engine."""

import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import random_circuit_text, random_noise, random_pauli_state
from paulisim import oracle
from paulisim.circuit import GATE_KINDS, Instruction, NoiseModel, parse_circuit
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


def test_dense_memory_step_matches_kraus_composition(rng):
    # an even n takes only the paired superoperator, an odd n one single as well
    for n in (2, 3):
        s = random_pauli_state(rng, n)
        d1 = oracle.to_dense(s)
        d2 = oracle.to_dense(s)
        oracle.dense_memory_step(d1, 0.9, 0.8, 0.7)
        for q in range(n):
            oracle.apply_kraus(d2, oracle.decay_kraus(0.8, 0.7), (q,))
            oracle.apply_kraus(d2, oracle.decohere_kraus(0.9), (q,))
        assert np.max(np.abs(d1.rho - d2.rho)) < 1e-12


def _fresh_builds(monkeypatch):
    """Make every run build each channel afresh at every use, bypassing its cache."""
    monkeypatch.setattr(oracle, "_built", lambda cache, build, *args: build(*args))


def test_a_schedule_builds_each_memory_channel_once(monkeypatch):
    # one build per distinct (f, g) of the partition categories, however
    # many partitions, and the same bytes as a build at every partition
    n, instructions = parse_circuit(random_circuit_text(np.random.default_rng(3), 3, 40))
    _, schedule = compile_circuit(n, instructions)
    noise = NoiseModel(f=0.99, g=0.98, f_meas=0.97, g_meas=0.96, p=0.9)
    categories = {part.category for part in schedule.partitions}
    assert len(schedule.partitions) >= 10 and categories == {"gate", "measurement", "solo"}

    want = oracle.dense_zero(n)
    with monkeypatch.context() as m:
        _fresh_builds(m)
        records = oracle.run_schedule_dense(want, schedule, noise)

    builds = []
    decay_kraus = oracle.decay_kraus
    monkeypatch.setattr(
        oracle, "decay_kraus", lambda g, p: builds.append(g) or decay_kraus(g, p)
    )
    got = oracle.dense_zero(n)
    assert repr(oracle.run_schedule_dense(got, schedule, noise)) == repr(records)
    assert sorted(builds) == [0.96, 0.98]
    assert got.rho.tobytes() == want.rho.tobytes()


def test_a_schedule_builds_each_rotation_mixture_once(monkeypatch):
    # two u1 angles (one of them 0.0 and -0.0 in turn) and one u3 repeat
    # between cx gates, so no merge joins them: one build per distinct
    # (axis, angle, alpha, r), and the same bytes as a build at every gate
    lines = ["qubits 3"]
    for i in range(8):
        lines += [f"u1({0.25 * (1 + i % 2)}) q[{i % 3}]", "u3(0.5,0.25,-0.75) q[1]"]
        lines += ["cx q[0],q[1]", f"u1({'-' * (i % 2)}0.0) q[2]", "cx q[1],q[2]"]
    n, instructions = parse_circuit("\n".join(lines) + "\n")
    _, schedule = compile_circuit(n, instructions)
    noise = NoiseModel(alpha_z=-0.0, r_z=1.0, alpha_y=-0.02, r_y=0.98, f=0.99, g=0.98, p=0.9)

    want = oracle.dense_zero(n)
    with monkeypatch.context() as m:
        _fresh_builds(m)
        records = oracle.run_schedule_dense(want, schedule, noise)

    builds = []
    mixture = oracle._rotation_mixture
    monkeypatch.setattr(
        oracle, "_rotation_mixture", lambda *key: builds.append(key) or mixture(*key)
    )
    got = oracle.dense_zero(n)
    assert repr(oracle.run_schedule_dense(got, schedule, noise)) == repr(records)
    uses = sum(
        {"u1": 1, "u3": 3}.get(ins.kind, 0) for part in schedule.partitions for ins in part.members
    )
    assert len(builds) == len(set(builds)) < uses / 4
    assert got.rho.tobytes() == want.rho.tobytes()


def test_dense_measure_qubit_ideal_probabilities():
    d = oracle.to_dense(init_uniform(1))
    p = oracle.dense_measure_qubit(d, 0, np.array([0.0, 0.0, 1.0]), 1.0)
    assert np.allclose(p, (0.5, 0.5))
    # ideal z measurement of |+> leaves the maximally mixed state
    assert np.allclose(d.rho, np.eye(2) / 2)


def test_dense_ensemble_is_diagonal():
    d = oracle.to_dense(init_bitstring("01"))
    probs = oracle.dense_ensemble(d, 1.0)
    want = np.zeros(4)
    want[1] = 1.0
    assert np.allclose(probs, want)


def test_dense_bell_on_maximally_entangled_pair():
    d = oracle.dense_zero(2)
    oracle.run_instructions_dense(d, [Instruction("h", (0,)), Instruction("cx", (0, 1))])
    probs = oracle.dense_bell(d, 0, 1, 1.0)
    assert abs(probs["phi+"] - 1.0) < 1e-12
    assert all(abs(probs[k]) < 1e-12 for k in ("phi-", "psi+", "psi-"))


def test_dense_reset_forces_ground_state(rng):
    d = oracle.to_dense(random_pauli_state(rng, 1))
    oracle.dense_reset(d, 0)
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
    assert imported == {(1, "state", "PauliState")}


def test_superop_rejects_incomplete_sets():
    with pytest.raises(ValueError, match="does not resolve the identity within 1e-10"):
        oracle.superop([np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="does not resolve the identity within 1e-10"):
        oracle.superop([oracle.SIGMA[0], oracle.SIGMA[1]], [0.5, 0.6])


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
    # default memory noise (p = f = g = 1) makes the memory step exactly I
    return oracle.run_schedule_dense(d, Schedule([Partition("gate", [ins])]), noise)


def test_superop_memory_step_matches_kraus_route(rng):
    for f, g, p in ((0.9, 0.8, 0.7), (0.995, 0.997, 0.92), (0.3, 0.1, 0.0), (1.0, 0.5, 1.0)):
        got, want = _pair(rng)
        oracle.dense_memory_step(got, f, g, p)
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
    oracle.apply_superop(got, oracle._rotation_mixture("y", 1.1, -0.08, 0.93), (2,))
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
            oracle.dense_measure_qubit(got, 1, axis, d1)
            oracle.apply_kraus(want, _readout_kraus(projectors, d1), (1,))
            assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, (axis, d1)
            # second reference: projection, then a flip with weight (1 - d1)/2
            oracle.apply_kraus(flipped, projectors, (1,))
            _branches(flipped, [oracle.SIGMA[0], flip], [(1 + d1) / 2, (1 - d1) / 2], (1,))
            assert np.max(np.abs(got.rho - flipped.rho)) <= PIN_TOL, (axis, d1)


def test_superop_reset_matches_kraus_route(rng):
    got, want = _pair(rng)
    oracle.dense_reset(got, 1)
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
        oracle.dense_bell(got, 2, 0, d2)
        oracle.apply_kraus(want, _readout_kraus(projectors, d2), (2, 0))
        assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, d2
        # second reference: projection, then the pair twirl that keeps weight d2
        oracle.apply_kraus(twirled, projectors, (2, 0))
        _branches(twirled, [np.eye(4)] + paulis, [d2] + [(1 - d2) / 16] * 16, (2, 0))
        assert np.max(np.abs(got.rho - twirled.rho)) <= PIN_TOL, d2


# The apply_superop kernel: one transposed copy and one gemm, checked on every
# qubit placement against the Kraus definition, for memory, for the route it
# must not share with the pins, and for the qubits it must refuse.


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
                oracle.apply_superop(got, s, qubits)
                oracle.apply_kraus(want, kraus, qubits)
                assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, (n, qubits)


def test_apply_superop_allocates_one_copy_of_rho(rng):
    kraus = {k: _random_kraus(rng, k) for k in (1, 2, 3)}
    d = oracle.to_dense(random_pauli_state(rng, 8))
    for qubits in ((0,), (7, 6), (1, 6), (5, 0, 3)):
        s = oracle.superop(kraus[len(qubits)])
        tracemalloc.start()
        try:
            oracle.apply_superop(d, s, qubits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= d.rho.nbytes + 64 * 1024, (qubits, peak / d.rho.nbytes)


def test_apply_superop_shares_no_route_with_the_pinned_definitions():
    tree = ast.parse(Path(oracle.__file__).read_text())
    (fn,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "apply_superop"]
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }
    assert called.isdisjoint({"_apply_on_axes", "tensordot", "moveaxis"}), called


def test_the_run_kernel_shares_no_route_with_the_pinned_definitions():
    tree = ast.parse(Path(oracle.__file__).read_text())
    kernel = [
        node
        for node in tree.body
        if getattr(node, "name", None) in ("_Vec", "_transposed_copy")
    ]
    assert len(kernel) == 2
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
    move = oracle._Vec._move
    monkeypatch.setattr(oracle._Vec, "_move", lambda v, axes: moves.append(axes) or move(v, axes))
    kraus = {k: _random_kraus(rng, k) for k in (1, 2, 3)}
    supers = {k: oracle.superop(ops) for k, ops in kraus.items()}
    for n in range(1, 6):
        got, want = _pair(rng, n)
        home = got.rho
        v = oracle._Vec(got)
        for _ in range(12):
            k = int(rng.integers(1, min(n, 3) + 1))
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            for i, listed in enumerate([qubits, qubits[::-1], qubits[::-1]]):
                front = [n + q for q in listed] + list(listed)
                at_front = v.axes[: 2 * k] == front
                moves.clear()
                v.apply(supers[k], listed)
                oracle.apply_kraus(want, kraus[k], listed)
                assert len(moves) == (not at_front), (n, listed)
                assert v.axes[: 2 * k] == front
                if i == 1 and k > 1:
                    assert not at_front  # the same bits in another order
                if i == 2:
                    assert at_front  # a repeat
        v.restore()
        assert got.rho is home
        assert np.max(np.abs(got.rho - want.rho)) <= PIN_TOL, n


def test_reads_in_a_moved_layout_are_arrays_of_their_own(rng):
    # every partial trace and the diagonal, read from a kernel run whose bits
    # have moved, against the Pauli expansion of the same state by
    # oracle.expectation; writing into a read leaves rho as it was
    for n in (1, 2, 3, 4):
        d, want = _pair(rng, n)
        v = oracle._Vec(d)
        for qubits in [(0,)] + [(n - 1, 1)] * (n >= 3):
            kraus = _random_kraus(rng, len(qubits))
            v.apply(oracle.superop(kraus), qubits)
            oracle.apply_kraus(want, kraus, qubits)
        assert n == 1 or v.axes != sorted(v.axes, reverse=True)
        cur, axes = v.cur.copy(), list(v.axes)
        for m in range(n + 1):
            basis = oracle._pauli_products(m)
            for qubits in itertools.permutations(range(n), m):
                r = oracle._reduced(v, qubits)
                expanded = sum(oracle.expectation(want, p, qubits) * p for p in basis) / 2**m
                assert np.max(np.abs(r - expanded)) <= PIN_TOL, (n, qubits)
                r[...] = 7.0
                assert np.array_equal(v.cur, cur) and v.axes == axes, (n, qubits)
        diagonal = oracle._diagonal(v)
        assert np.max(np.abs(diagonal - np.diag(want.rho).real)) <= PIN_TOL, n
        diagonal[...] = 7.0
        assert np.array_equal(v.cur, cur), n

        # in (row, column) order, every qubit in descending order is rho itself
        before = want.rho.copy()
        r = oracle._reduced(oracle._Vec(want), tuple(reversed(range(n))))
        assert not np.shares_memory(r, want.rho)
        r[...] = 7.0
        assert np.array_equal(want.rho, before), n


def test_contractions_refuse_qubits_outside_the_state_or_repeated(rng):
    d = oracle.to_dense(random_pauli_state(rng, 3))
    s1 = oracle.superop(_random_kraus(rng, 1))
    s2 = oracle.superop(_random_kraus(rng, 2))
    calls = {
        "apply_superop": lambda qs: oracle.apply_superop(d, s1 if len(qs) == 1 else s2, qs),
        "apply_unitary": lambda qs: oracle.apply_unitary(d, np.eye(2 ** len(qs)), qs),
        "apply_kraus": lambda qs: oracle.apply_kraus(d, [np.eye(2 ** len(qs))], qs),
        "expectation": lambda qs: oracle.expectation(d, np.eye(2 ** len(qs)), qs),
        "_reduced": lambda qs: oracle._reduced(oracle._Vec(d), qs),
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
            oracle.apply_superop(d, s, qubits)
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
                p_plus, p_minus = oracle.dense_measure_qubit(
                    oracle.to_dense(s), k, np.array(axis), d
                )
                assert abs(p_plus - (1 + d * mean) / 2) <= tol
                assert abs(p_minus - (1 - d * mean) / 2) <= tol

            labels = [int(v) for v in rng.integers(0, 4, n)]
            w = sum(1 for v in labels if v)
            got = oracle.dense_expect_string(oracle.to_dense(s), labels, d)
            assert abs(got - d**w * _pauli_mean(rho, labels)) <= tol, labels

            # each bit flips with probability (1 - d)/2: the readout confusion matrix
            confusion = np.ones((1, 1))
            for _ in range(n):
                confusion = np.kron(confusion, np.array([[1 + d, 1 - d], [1 - d, 1 + d]]) / 2)
            got = oracle.dense_ensemble(oracle.to_dense(s), d)
            assert np.max(np.abs(got - confusion @ np.diag(rho).real)) <= tol

            if n >= 2:
                kl = tuple(int(q) for q in rng.permutation(n)[:2])
                got = oracle.dense_bell(oracle.to_dense(s), *kl, d)
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
                value = oracle.dense_expect_string(got, labels, d)
                full = np.ones((1, 1))
                for v in reversed(labels):
                    full = np.kron(full, oracle.SIGMA[v])
                want = oracle.expectation(got, full, tuple(reversed(range(n))))
                assert abs(value - want) <= PIN_TOL, labels

            k = int(rng.integers(n))
            axis = np.array([0.48, -0.6, 0.64])
            got = oracle.to_dense(s)
            p_plus, p_minus = oracle.dense_measure_qubit(got, k, axis, d)
            plus = (oracle.SIGMA[0] + sum(axis[i] * oracle.SIGMA[i + 1] for i in range(3))) / 2
            assert abs(p_plus - oracle.expectation(got, plus, (k,))) <= PIN_TOL
            assert p_minus == 1.0 - p_plus

            kl = tuple(int(q) for q in rng.permutation(n)[:2])
            got = oracle.to_dense(s)
            probs = oracle.dense_bell(got, *kl, d)
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
    with pytest.raises(ValueError, match="unexpected instruction kind 'h' in a schedule"):
        _run_one(d, Instruction("h", (0,)), NoiseModel())
    # a run that raises leaves rho in order, with every instruction before the failing one
    d = oracle.dense_zero(2)
    bell = [Instruction("h", (0,)), Instruction("cx", (0, 1))]
    with pytest.raises(ValueError, match="unknown instruction kind 'swap'"):
        oracle.run_instructions_dense(d, [*bell, Instruction("swap", (0,))])
    want = oracle.dense_zero(2)
    oracle.run_instructions_dense(want, bell)
    assert np.max(np.abs(d.rho - want.rho)) == 0.0 and abs(want.rho[3, 0] - 0.5) <= PIN_TOL


# Deferral: one-qubit channels wait as pending factors, and the result is
# the immediate route's, where every channel makes its own pass at once.

_DENSE_INITS = {
    "zero": lambda n, p: oracle.dense_zero(n),
    "uniform": lambda n, p: oracle.dense_uniform(n),
    "thermal": oracle.dense_thermal,
}


def _immediate_step(d, ins, noise, records, cache):
    """``_step`` as a run of its own, with whatever it leaves pending applied at once."""
    v, pending = oracle._Vec(d), {}
    oracle._step(v, ins, noise, records, pending, cache)
    oracle._finish(v, pending)


def _immediate_schedule(d, schedule, noise):
    records, cache = [], {}
    for part in schedule.partitions:
        for ins in part.members:
            _immediate_step(d, ins, noise, records, cache)
        oracle.dense_memory_step(d, *noise.pair(part.category), noise.p)
    return records


def _immediate_instructions(d, instructions):
    records = []
    for ins in instructions:
        _immediate_step(d, ins, None, records, {})
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
    apply = oracle._Vec.apply
    monkeypatch.setattr(
        oracle._Vec, "apply", lambda v, s, qubits: passes.append(qubits) or apply(v, s, qubits)
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
    assert {ins.kind for ins, _ in cases} == set(GATE_KINDS)
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
    apply = oracle._Vec.apply
    monkeypatch.setattr(
        oracle._Vec, "apply", lambda v, s, qubits: homes.append(v.home) or apply(v, s, qubits)
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

        # each public readout is a run of its own: what it leaves pending goes before it returns
        assert over_rho(n, oracle.dense_measure_qubit, 1, np.array([0.0, 1.0, 0.0]), 0.9) == 1
        assert over_rho(n, oracle.dense_expect_string, [3] * n, 0.9) == half
        assert over_rho(n, oracle.dense_expect_string, [0] * n, 0.9) == 0
        assert over_rho(n, oracle.dense_bell, 0, n - 1, 0.9) == 1
        assert over_rho(n, oracle.dense_ensemble, 0.9) == half
