import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pauli_state
from paulisim import oracle
from paulisim.circuit import NAMED_GATE_KINDS, NOISELESS, Instruction, NoiseModel
from paulisim.gates import (
    apply_cnot,
    apply_u1,
    apply_u3,
    cnot_transfer,
    _u3_transfer,
    named_gate_transfer,
    rotation_transfer,
    rotation_transfers,
    transfer_from_unitary,
    u3_transfers,
)
from paulisim.state import apply_transfer, init_zero, purity
from paulisim.transpile import decompose

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


# --- single-qubit transfer matrices ---------------------------------------


def test_rotation_fixed_axis_component_is_preserved():
    for axis, fixed in (("x", 1), ("y", 2), ("z", 3)):
        t = rotation_transfer(axis, 0.7)
        assert t[fixed, fixed] == 1.0
        assert np.array_equal(t[0], [1.0, 0.0, 0.0, 0.0])


def test_z_quarter_rotation_equals_s_gate():
    assert np.allclose(rotation_transfer("z", math.pi / 2), named_gate_transfer("s"), atol=1e-15)


def test_x_half_rotation_on_ground_state():
    s = init_zero(1)
    apply_transfer(s, (0,), rotation_transfer("x", math.pi / 2))
    assert np.allclose(s.coeffs, [0.5, 0.0, -0.5, 0.0], atol=1e-15)


def test_named_transfer_matrices_frozen():
    inv_sqrt2 = 1 / math.sqrt(2)
    frozen = {
        "x": np.diag([1.0, 1.0, -1.0, -1.0]),
        "y": np.diag([1.0, -1.0, 1.0, -1.0]),
        "z": np.diag([1.0, -1.0, -1.0, 1.0]),
        "h": np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]], dtype=float),
        "s": np.array([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float),
        "t": np.array(
            [
                [1, 0, 0, 0],
                [0, inv_sqrt2, -inv_sqrt2, 0],
                [0, inv_sqrt2, inv_sqrt2, 0],
                [0, 0, 0, 1],
            ]
        ),
    }
    for name, want in frozen.items():
        assert np.allclose(named_gate_transfer(name), want, atol=1e-15), name


def test_named_transfers_match_dense_conjugation():
    for name, u in oracle.NAMED_1Q.items():
        got = named_gate_transfer(name)
        want = transfer_from_unitary(u)
        assert np.max(np.abs(got - want)) < 1e-14, name


def test_pauli_transfer_of_identity_channel():
    assert np.allclose(transfer_from_unitary(np.eye(2)), np.eye(4))


def test_dagger_pairs_compose_to_identity():
    for a, b in (("s", "sdg"), ("t", "tdg")):
        prod = named_gate_transfer(a) @ named_gate_transfer(b)
        assert np.allclose(prod, np.eye(4), atol=1e-15)


def test_hadamard_on_ground_state():
    s = init_zero(1)
    apply_transfer(s, (0,), named_gate_transfer("h"))
    assert np.allclose(s.coeffs, [0.5, 0.5, 0.0, 0.0], atol=1e-15)


def test_unknown_gate_name_rejected():
    with pytest.raises(ValueError):
        named_gate_transfer("cz")


# --- noisy rotations --------------------------------------------------------


def test_noise_parameters_validated():
    with pytest.raises(ValueError):
        NoiseModel(r_x=1.2)
    with pytest.raises(ValueError):
        NoiseModel(r_z=-0.1)
    NoiseModel(r_y=0.0, alpha_y=3.0)  # extremes allowed


def test_rotation_noise_damps_transverse_block():
    noise = NoiseModel(r_z=0.95, alpha_z=0.1)
    t = rotation_transfer("z", 0.3, noise)
    assert abs(t[1, 1] - 0.95 * math.cos(0.4)) < 1e-15
    assert abs(t[2, 1] - 0.95 * math.sin(0.4)) < 1e-15
    assert t[3, 3] == 1.0  # rotation axis untouched


def test_noisy_rotation_is_mixture_of_two_exact_rotations():
    r, alpha, theta = 0.9, 0.05, 1.1
    delta0 = math.acos(r)
    t = rotation_transfer("y", theta, NoiseModel(r_y=r, alpha_y=alpha))
    want = 0.5 * (
        rotation_transfer("y", theta + alpha + delta0)
        + rotation_transfer("y", theta + alpha - delta0)
    )
    assert np.max(np.abs(t - want)) < 1e-12


def test_noisy_rotation_matches_dense_mixture(rng):
    r, alpha, theta = 0.92, -0.07, 0.8
    delta0 = math.acos(r)
    s = random_pauli_state(rng, 2)
    d = oracle.to_dense(s)
    apply_transfer(s, (1,), rotation_transfer("x", theta, NoiseModel(r_x=r, alpha_x=alpha)))
    u_plus = oracle.rotation_matrix("x", theta + alpha + delta0)
    u_minus = oracle.rotation_matrix("x", theta + alpha - delta0)
    d_plus = oracle.DenseState(2, d.rho.copy())
    oracle.apply_unitary(d_plus, u_plus, (1,))
    oracle.apply_unitary(d, u_minus, (1,))
    mixed = 0.5 * (d_plus.rho + d.rho)
    back = oracle.from_dense(oracle.DenseState(2, mixed))
    assert np.max(np.abs(s.coeffs - back.coeffs)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    theta=ANGLES,
    r=st.floats(0.0, 1.0),
    alpha=st.floats(-1.0, 1.0),
    axis=st.sampled_from("xyz"),
)
def test_rotation_transfer_always_trace_preserving(theta, r, alpha, axis):
    kw = {f"r_{axis}": r, f"alpha_{axis}": alpha}
    t = rotation_transfer(axis, theta, NoiseModel(**kw))
    assert np.array_equal(t[0], [1.0, 0.0, 0.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(theta=ANGLES, axis=st.sampled_from("xyz"))
def test_exact_rotation_is_orthogonal(theta, axis):
    t = rotation_transfer(axis, theta)
    assert np.max(np.abs(t @ t.T - np.eye(4))) < 1e-12


def _mean_of_two_rotations(axis: str, theta: float, alpha: float, r: float) -> np.ndarray:
    """0.5 * (R(theta + alpha + d0) + R(theta + alpha - d0)) as whole matrices."""
    v, w = {"x": (2, 3), "y": (3, 1), "z": (1, 2)}[axis]
    delta0 = np.arccos(r)

    def exact(angle):
        c, s = np.cos(angle), np.sin(angle)
        t = np.eye(4)
        t[v, v], t[v, w], t[w, v], t[w, w] = c, -s, s, c
        return t

    return 0.5 * (exact(theta + alpha + delta0) + exact(theta + alpha - delta0))


def test_rotation_transfer_is_the_mean_of_two_rotations_to_the_bit():
    # bytes, not array_equal, which treats -0.0 and +0.0 as equal
    thetas = [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]
    thetas += list(np.random.default_rng(3).uniform(-7.0, 7.0, 8))
    for axis, (v, w) in (("x", (2, 3)), ("y", (3, 1)), ("z", (1, 2))):
        for theta in thetas:
            for alpha in (0.0, 0.05, -theta):
                for r in (1.0, 0.99, 0.5, 0.0):
                    noise = NoiseModel(**{f"alpha_{axis}": alpha, f"r_{axis}": r})
                    t = rotation_transfer(axis, theta, noise)
                    want = _mean_of_two_rotations(axis, theta, alpha, r)
                    assert t.tobytes() == want.tobytes(), (axis, theta, alpha, r)
                    if alpha == -theta and r < 1.0:
                        # 0.5 * ((-s) + s) is +0.0; -(0.5 * (s - s)) would be -0.0
                        assert t[v, w] == 0.0 and not np.signbit(t[v, w])


# three angle lists of one length: 1, 2, or 65 (the u3 count of a deep_small circuit)
ANGLE_LISTS = st.sampled_from((1, 2, 65)).flatmap(
    lambda size: st.lists(st.lists(ANGLES, min_size=size, max_size=size), min_size=3, max_size=3)
)
AXIS_NOISE = st.builds(
    NoiseModel,
    **{f"r_{a}": st.floats(0.0, 1.0) for a in "xyz"},
    **{f"alpha_{a}": st.floats(-1.0, 1.0) for a in "xyz"},
)


@settings(max_examples=30, deadline=None)
@given(angles=ANGLE_LISTS, noise=AXIS_NOISE)
def test_stacks_equal_the_one_matrix_builders_to_the_bit(angles, noise):
    # bytes, not array_equal, so zero signs count; a SIMD loop that rounds
    # its body and its tail apart would show at length 65
    thetas, phis, lams = map(np.array, angles)
    for axis in "xyz":
        stack = rotation_transfers(axis, thetas, noise)
        assert stack.shape == (len(thetas), 4, 4)
        for t, theta in zip(stack, thetas):
            assert t.tobytes() == rotation_transfer(axis, theta, noise).tobytes(), (axis, theta)
    stack = u3_transfers(thetas, phis, lams, noise)
    assert stack.shape == (len(thetas), 4, 4)
    for t, theta, phi, lam in zip(stack, thetas, phis, lams):
        z, y = rotation_transfer("z", phi, noise), rotation_transfer("y", theta, noise)
        three = z @ y @ rotation_transfer("z", lam, noise)
        assert t.tobytes() == three.tobytes() == _u3_transfer(theta, phi, lam, noise).tobytes()


def test_stack_builders_take_no_angles_and_refuse_bad_arrays():
    assert rotation_transfers("x", []).shape == (0, 4, 4)
    assert u3_transfers([], [], []).shape == (0, 4, 4)
    with pytest.raises(ValueError, match="1-D"):
        rotation_transfers("z", [[0.1, 0.2]])
    with pytest.raises(ValueError, match="equal angle counts"):
        u3_transfers([0.1, 0.2], [0.3], [0.4, 0.5])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_named_gate_transfer_is_what_the_engine_runs(n):
    rng = np.random.default_rng(n)
    for name in NAMED_GATE_KINDS:
        for k in range(n):
            s = random_pauli_state(rng, n)
            ran = s.copy()
            apply_transfer(s, (k,), named_gate_transfer(name))
            for ins in decompose([Instruction(name, (k,))]):
                if ins.kind == "u1":
                    apply_u1(ran, k, *ins.angles)
                else:
                    apply_u3(ran, k, *ins.angles)
            assert s.coeffs.tobytes() == ran.coeffs.tobytes(), (name, k)


# --- u1 / u3 ----------------------------------------------------------------


def test_u1_is_z_rotation(rng):
    s1 = random_pauli_state(rng, 1)
    s2 = s1.copy()
    apply_u1(s1, 0, 0.9)
    apply_transfer(s2, (0,), rotation_transfer("z", 0.9))
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-15


def test_u3_is_zyz_composition(rng):
    s1 = random_pauli_state(rng, 1)
    s2 = s1.copy()
    apply_u3(s1, 0, 0.7, 0.2, -0.4)
    apply_transfer(s2, (0,), rotation_transfer("z", -0.4))
    apply_transfer(s2, (0,), rotation_transfer("y", 0.7))
    apply_transfer(s2, (0,), rotation_transfer("z", 0.2))
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-15


def test_u3_matches_dense_unitary(rng):
    s = random_pauli_state(rng, 2)
    d = oracle.to_dense(s)
    apply_u3(s, 0, 0.7, 0.2, -0.4)
    oracle.apply_unitary(d, oracle.u3_matrix(0.7, 0.2, -0.4), (0,))
    back = oracle.from_dense(d)
    assert np.max(np.abs(s.coeffs - back.coeffs)) < 1e-12


def test_u3_noise_applies_per_axis(rng):
    noise = NoiseModel(r_y=0.9, r_z=0.95, alpha_y=0.1, alpha_z=-0.05)
    s1 = random_pauli_state(rng, 1)
    s2 = s1.copy()
    apply_u3(s1, 0, 0.7, 0.2, -0.4, noise)
    apply_transfer(s2, (0,), rotation_transfer("z", -0.4, noise))
    apply_transfer(s2, (0,), rotation_transfer("y", 0.7, noise))
    apply_transfer(s2, (0,), rotation_transfer("z", 0.2, noise))
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-15


@settings(max_examples=30, deadline=None)
@given(a=ANGLES, b=ANGLES)
def test_u1_angles_add(a, b):
    s1 = init_zero(1)
    apply_transfer(s1, (0,), named_gate_transfer("h"))
    s2 = s1.copy()
    apply_u1(s1, 0, a)
    apply_u1(s1, 0, b)
    apply_u1(s2, 0, a + b)
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-12


# --- controlled-not ---------------------------------------------------------


def test_noiseless_cnot_entries_are_signed_bits():
    t = cnot_transfer()
    assert t.shape == (16, 16)
    assert np.array_equal(t, np.round(t))
    assert np.array_equal(t[0], np.eye(16)[0])
    assert np.array_equal(t @ t, np.eye(16))  # self-inverse


def test_noiseless_cnot_matches_dense():
    want = transfer_from_unitary(oracle.cnot_matrix(0.0))
    assert np.max(np.abs(cnot_transfer() - want)) < 1e-12


def test_cnot_produces_bell_pair():
    s = init_zero(2)
    apply_transfer(s, (0,), named_gate_transfer("h"))
    apply_cnot(s, 0, 1)
    want = np.zeros(16)
    want[0] = 0.25  # II
    want[5] = 0.25  # XX
    want[10] = -0.25  # YY
    want[15] = 0.25  # ZZ
    assert np.allclose(s.coeffs, want, atol=1e-15)


def test_cnot_operand_order_matters(rng):
    s1 = random_pauli_state(rng, 2)
    s2 = s1.copy()
    apply_cnot(s1, 0, 1)
    apply_cnot(s2, 1, 0)
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) > 1e-3


def test_cnot_rejects_equal_operands(rng):
    s = random_pauli_state(rng, 2)
    with pytest.raises(ValueError):
        apply_cnot(s, 1, 1)


def test_noisy_cnot_is_two_point_unitary_mixture(rng):
    r, alpha = 0.93, 0.08
    delta0 = math.acos(r)
    noise = NoiseModel(r_cx=r, alpha_cx=alpha)
    s = random_pauli_state(rng, 3)
    d = oracle.to_dense(s)
    apply_cnot(s, 2, 0, noise)
    acc = np.zeros_like(d.rho)
    for sgn in (1.0, -1.0):
        branch = oracle.DenseState(3, d.rho.copy())
        oracle.apply_unitary(branch, oracle.cnot_matrix(alpha + sgn * delta0), (2, 0))
        acc += 0.5 * branch.rho
    back = oracle.from_dense(oracle.DenseState(3, acc))
    assert np.max(np.abs(s.coeffs - back.coeffs)) < 1e-12


def test_noisy_cnot_still_trace_preserving():
    t = cnot_transfer(NoiseModel(r_cx=0.9, alpha_cx=0.2))
    assert np.array_equal(t[0], np.eye(16)[0])


# --- global invariants -------------------------------------------------------


def test_maximally_mixed_state_fixed_by_all_gates(rng):
    from paulisim.state import PauliState

    noise = NoiseModel(r_x=0.9, r_y=0.9, r_z=0.9, r_cx=0.9, alpha_x=0.1, alpha_cx=0.2)
    n = 2
    coeffs = np.zeros(16)
    coeffs[0] = 0.25
    s = PauliState(n, coeffs)
    apply_u3(s, 0, 0.7, 0.2, -0.4, noise)
    apply_u1(s, 1, 0.5, noise)
    apply_cnot(s, 0, 1, noise)
    apply_transfer(s, (1,), named_gate_transfer("h"))
    assert np.max(np.abs(s.coeffs - coeffs)) < 1e-15


def test_unitary_gates_preserve_purity(rng):
    s = random_pauli_state(rng, 2)
    p0 = purity(s)
    apply_u3(s, 0, 0.7, 0.2, -0.4)
    apply_cnot(s, 1, 0)
    apply_transfer(s, (0,), named_gate_transfer("t"))
    assert abs(purity(s) - p0) < 1e-12


def test_noisy_gates_never_increase_purity(rng):
    noise = NoiseModel(r_x=0.9, r_y=0.9, r_z=0.9, r_cx=0.9)
    s = random_pauli_state(rng, 2)
    p0 = purity(s)
    apply_u3(s, 0, 0.7, 0.2, -0.4, noise)
    apply_cnot(s, 0, 1, noise)
    assert purity(s) <= p0 + 1e-12


def test_transfer_from_unitary_reproduces_rotations():
    for axis in "xyz":
        t = rotation_transfer(axis, 0.9)
        u = oracle.rotation_matrix(axis, 0.9)
        assert np.max(np.abs(t - transfer_from_unitary(u))) < 1e-14
