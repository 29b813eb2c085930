import numpy as np
import pytest

from helpers import random_pauli_state, run_alone
from paulisim import measurement, oracle
from paulisim import state as kernel
from paulisim.circuit import NOISE_KEYS, NOISELESS, Instruction, NoiseModel
from paulisim.engine import verify_circuit
from paulisim.errors import InternalError
from paulisim.gates import apply_cnot, named_gate_transfer
from paulisim.measurement import (
    BELL_LABELS,
    _finalize,
    bell_measure,
    ensemble_distribution,
    expect_pauli_string,
    measure_qubit,
    reset_qubit,
)
from paulisim.state import PauliState, apply_transfer, init_bitstring, init_uniform, init_zero
from paulisim.transpile import Partition, Schedule

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def bell_pair() -> PauliState:
    s = init_zero(2)
    apply_transfer(s, (0,), named_gate_transfer("h"))
    apply_cnot(s, 0, 1)
    return s


# --- expectation values ------------------------------------------------------


def test_expect_on_bell_pair_correlators():
    assert abs(expect_pauli_string(bell_pair(), "ZZ") - 1.0) < 1e-12
    assert abs(expect_pauli_string(bell_pair(), "XX") - 1.0) < 1e-12
    assert abs(expect_pauli_string(bell_pair(), "YY") + 1.0) < 1e-12
    assert abs(expect_pauli_string(bell_pair(), "ZI")) < 1e-12
    assert abs(expect_pauli_string(bell_pair(), "II") - 1.0) < 1e-12


def test_expect_string_is_most_significant_first():
    s = init_bitstring("10")
    assert abs(expect_pauli_string(s.copy(), "ZI") + 1.0) < 1e-12  # qubit 1 is |1>
    assert abs(expect_pauli_string(s.copy(), "IZ") - 1.0) < 1e-12


def test_expect_damping_scales_by_weight():
    noise = NoiseModel(d1=0.9)
    assert abs(expect_pauli_string(bell_pair(), "ZZ", noise) - 0.81) < 1e-12
    s = init_zero(1)
    assert abs(expect_pauli_string(s, "Z", noise) - 0.9) < 1e-12


def test_expect_updates_measured_components():
    s = bell_pair()
    expect_pauli_string(s, "ZZ", NoiseModel(d1=0.8))
    # each measured qubit damps its axis component, so ZZ picks up d1^2
    assert abs(expect_pauli_string(s, "ZZ") - 0.64) < 1e-12


def test_expect_input_validation():
    s = init_zero(2)
    with pytest.raises(ValueError):
        expect_pauli_string(s, "Z")
    with pytest.raises(ValueError):
        expect_pauli_string(s, "ZQ")


def _dense_record(d, ins, noise):
    """The oracle's record value of ``ins`` run alone under ``noise``."""
    [record] = oracle.run_schedule_dense(d, Schedule([Partition("gate", [ins])]), noise)
    return record[-1]


def test_expect_matches_dense_trace(rng):
    noise = NoiseModel(d1=0.93)
    s = random_pauli_state(rng, 3)
    d = oracle.to_dense(s)
    got = expect_pauli_string(s, "XZY", noise)
    want = _dense_record(d, Instruction("expect", string="XZY"), noise)
    assert abs(got - want) < 1e-12
    back = oracle.from_dense(d)
    assert np.max(np.abs(s.coeffs - back.coeffs)) < 1e-12


# --- single-qubit measurement -------------------------------------------------


def test_ground_state_z_measurement_with_readout_damping():
    probs = measure_qubit(init_zero(1), 0, Z, NoiseModel(d1=0.9))
    assert abs(probs[0] - 0.95) < 1e-12
    assert abs(probs[1] - 0.05) < 1e-12


def test_plus_state_z_measurement_is_fair_coin():
    s = init_uniform(1)
    probs = measure_qubit(s, 0, Z)
    assert abs(probs[0] - 0.5) < 1e-12
    # non-selective update wipes the transverse components
    assert np.allclose(s.coeffs, [0.5, 0.0, 0.0, 0.0], atol=1e-15)


def test_x_basis_measurement_of_plus_state_is_deterministic():
    s = init_uniform(1)
    probs = measure_qubit(s, 0, X)
    assert abs(probs[0] - 1.0) < 1e-12
    assert np.allclose(s.coeffs, [0.5, 0.5, 0.0, 0.0], atol=1e-15)


def test_measurement_update_projects_remote_correlations():
    s = bell_pair()
    measure_qubit(s, 0, Z)
    # ZZ survives an ideal z measurement, XX does not
    assert abs(expect_pauli_string(s.copy(), "ZZ") - 1.0) < 1e-12
    assert abs(expect_pauli_string(s.copy(), "XX")) < 1e-12


def test_tilted_axis_measurement_matches_dense(rng):
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    noise = NoiseModel(d1=0.9)
    s = random_pauli_state(rng, 2)
    d = oracle.to_dense(s)
    got = measure_qubit(s, 1, axis, noise)
    want = run_alone(d, lambda run: run.measure(1, tuple(axis), oracle._axis_readout(tuple(axis), noise.d1)))
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12
    back = oracle.from_dense(d)
    assert np.max(np.abs(s.coeffs - back.coeffs)) < 1e-12


def test_readout_transfers_keep_the_zero_signs_of_their_inputs():
    # -0.0 == 0.0 and both hash alike: whatever an earlier call built for one
    # must not be what a later call with the other applies
    def factor_after(read, arg):
        s = init_zero(2)
        read(s, arg)
        return s._pending[0][1].tobytes()

    reads = [
        (lambda s, axis: measure_qubit(s, 0, axis), (0.0, 0.0, 1.0), (-0.0, 0.0, 1.0)),
        (lambda s, d1: expect_pauli_string(s, "IZ", NoiseModel(d1=d1)), 0.0, -0.0),
    ]
    for read, plus, minus in reads:
        fresh = factor_after(read, minus)
        assert factor_after(read, plus) != fresh
        assert factor_after(read, minus) == fresh


def test_measurement_axis_validation(rng):
    s = random_pauli_state(rng, 1)
    with pytest.raises(ValueError):
        measure_qubit(s, 0, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        measure_qubit(s, 0, np.array([1.0, 0.0]))


# --- ensemble measurement ------------------------------------------------------


def test_ensemble_of_ground_state_with_damping():
    dist = ensemble_distribution(init_zero(1), NoiseModel(d1=0.8))
    assert abs(dist["0"] - 0.9) < 1e-12
    assert abs(dist["1"] - 0.1) < 1e-12


def test_ensemble_labels_most_significant_first():
    dist = ensemble_distribution(init_bitstring("10"))
    assert abs(dist["10"] - 1.0) < 1e-12


def test_ensemble_of_bell_pair():
    dist = ensemble_distribution(bell_pair())
    assert abs(dist["00"] - 0.5) < 1e-12
    assert abs(dist["11"] - 0.5) < 1e-12
    assert abs(dist["01"]) < 1e-12 and abs(dist["10"]) < 1e-12


def test_ensemble_update_equals_per_qubit_z_measurements(rng):
    noise = NoiseModel(d1=0.85)
    s1 = random_pauli_state(rng, 3)
    s2 = s1.copy()
    ensemble_distribution(s1, noise)
    for q in range(3):
        measure_qubit(s2, q, Z, noise)
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-12
    # the update is the z readout's row of measurement._readouts, which is
    # diag(1, 0, 0, d1) to the byte, and each qubit's pending factor after
    # an ensemble on a fresh state is that row
    for d1 in (1.0, 0.97, 0.5, 0.123456789, 0.0, 1e-300):
        z = measurement._readouts(d1)[1][2]
        assert z.tobytes() == np.diag([1.0, 0.0, 0.0, d1]).tobytes(), d1
        s = init_zero(2)
        ensemble_distribution(s, NoiseModel(d1=d1))
        assert [f.tobytes() for _, f in s._pending.values()] == [z.tobytes()] * 2, d1


def test_the_readout_stack_is_built_once_per_d1_and_refuses_a_write():
    # the cache is keyed by float.hex, so -0.0 gets its own rows, whose zeros
    # keep their sign, not 0.0's
    for d1 in (1.0, 0.97, 0.0, -0.0, 1e-300):
        axes, stack = measurement._readouts(d1)
        assert measurement._readouts(d1)[1] is stack, d1
        fresh = measurement._axis_transfers(measurement._unit_axes(measurement._UNIT_AXES), d1)
        assert stack.tobytes() == np.concatenate([fresh, measurement._RESET[None]]).tobytes(), d1
        for a in (axes, stack, stack[2]):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 2.0
    assert measurement._readouts(-0.0)[1].tobytes() != measurement._readouts(0.0)[1].tobytes()


def test_ensemble_matches_dense_diagonal(rng):
    noise = NoiseModel(d1=0.9)
    s = random_pauli_state(rng, 3)
    d = oracle.to_dense(s)
    dist = ensemble_distribution(s, noise)
    probs = _dense_record(d, Instruction("ensemble"), noise)
    for bits, p in probs.items():
        assert abs(dist[bits] - p) < 1e-12


# --- Bell measurement -----------------------------------------------------------


def test_bell_measurement_identifies_phi_plus():
    dist = bell_measure(bell_pair(), 0, 1)
    assert abs(dist["phi+"] - 1.0) < 1e-12
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_bell_measurement_with_damping_worked_value():
    dist = bell_measure(bell_pair(), 0, 1, NoiseModel(d2=0.9))
    assert abs(dist["phi+"] - 0.925) < 1e-12
    for lab in ("phi-", "psi+", "psi-"):
        assert abs(dist[lab] - 0.025) < 1e-12


def test_bell_measurement_distinguishes_all_four_states(rng):
    # prepare each Bell state from Phi+ by local flips
    preps = {
        "phi+": [],
        "psi+": [("x", 0)],
        "phi-": [("z", 0)],
        "psi-": [("x", 0), ("z", 0)],
    }
    for label, flips in preps.items():
        s = bell_pair()
        for name, q in flips:
            apply_transfer(s, (q,), named_gate_transfer(name))
        dist = bell_measure(s, 0, 1)
        assert abs(dist[label] - 1.0) < 1e-12, label


def test_bell_measurement_matches_dense(rng):
    noise = NoiseModel(d2=0.88)
    s = random_pauli_state(rng, 3)
    d = oracle.to_dense(s)
    got = bell_measure(s, 2, 0, noise)
    want = _dense_record(d, Instruction("bell", (2, 0)), noise)
    for lab in BELL_LABELS:
        assert abs(got[lab] - want[lab]) < 1e-12
    back = oracle.from_dense(d)
    assert np.max(np.abs(s.coeffs - back.coeffs)) < 1e-12


def test_bell_measurement_needs_distinct_qubits():
    with pytest.raises(ValueError):
        bell_measure(bell_pair(), 1, 1)


def test_a_bell_measurement_on_one_qubit_is_refused_before_the_state_changes(rng):
    s = random_pauli_state(rng, 3)
    apply_transfer(s, (1,), named_gate_transfer("h"))  # a pending factor on the qubit
    want = s.copy()
    with pytest.raises(ValueError) as err:
        bell_measure(s, 1, 1, NoiseModel(d2=0.9))
    assert str(err.value) == "need distinct qubits, got (1, 1)"
    assert list(s._pending) == [1]  # not flushed
    assert s.coeffs.tobytes() == want.coeffs.tobytes()


# --- reset ----------------------------------------------------------------------


def test_reset_forces_ground_state(rng):
    s = random_pauli_state(rng, 2)
    reset_qubit(s, 0)
    assert abs(expect_pauli_string(s.copy(), "IZ") - 1.0) < 1e-12


def test_reset_matches_dense(rng):
    s = random_pauli_state(rng, 2)
    d = oracle.to_dense(s)
    reset_qubit(s, 1)
    oracle.run_instructions_dense(d, [Instruction("reset", (1,))])
    back = oracle.from_dense(d)
    assert np.max(np.abs(s.coeffs - back.coeffs)) < 1e-12


def test_reset_discards_correlations():
    s = bell_pair()
    reset_qubit(s, 0)
    dist = ensemble_distribution(s)
    assert abs(dist["00"] - 0.5) < 1e-12
    assert abs(dist["10"] - 0.5) < 1e-12


# --- distribution guards ----------------------------------------------------------


def test_distributions_reject_significantly_negative_probabilities():
    s = init_zero(1)
    s.coeffs[3] = 0.75  # not a state: p(1) = -0.25
    with pytest.raises(InternalError):
        ensemble_distribution(s)


def test_distributions_reject_bad_normalization():
    s = init_zero(1)
    s.coeffs[0] = 0.51  # trace is 1.02
    with pytest.raises(InternalError):
        ensemble_distribution(s)


def test_measure_qubit_validates_its_probabilities():
    s = init_zero(1)
    s.coeffs[3] = 0.6  # not a state: the lean 2 * a_3 is 1.2, so p- = -0.1
    with pytest.raises(InternalError):
        measure_qubit(s, 0, (0.0, 0.0, 1.0))


def test_readouts_reject_nan():
    s = init_zero(2)
    s.coeffs[15] = np.nan  # ZZ
    with pytest.raises(InternalError):
        ensemble_distribution(s.copy())
    with pytest.raises(InternalError):
        bell_measure(s.copy(), 0, 1)
    s = init_zero(1)
    s.coeffs[3] = np.nan
    with pytest.raises(InternalError):
        measure_qubit(s, 0, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="unit length"):
        measure_qubit(init_zero(1), 0, (np.nan, 0.0, 0.0))


@pytest.mark.parametrize("bad", [5.0, -0.25 - 1e-6, np.nan, np.inf])
def test_expect_rejects_values_outside_unit_interval(bad):
    s = init_zero(2)
    s.coeffs[15] = bad  # ZZ: 2^n * a = 20, -1.000004, nan, inf
    with pytest.raises(InternalError):
        expect_pauli_string(s, "ZZ")


def test_expect_keeps_values_at_the_rounding_edge():
    s = init_zero(2)
    s.coeffs[15] = 0.25 * (1.0 + 1e-12)
    assert expect_pauli_string(s, "ZZ") == 1.0 + 1e-12


def test_distributions_clamp_tiny_negatives():
    s = init_zero(1)
    s.coeffs[3] = 0.5 + 4e-11  # p(1) = -4e-11, inside the floor
    dist = ensemble_distribution(s)
    assert dist["1"] == 0.0
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_noise_parameter_ranges():
    with pytest.raises(ValueError):
        NoiseModel(d1=1.3)
    with pytest.raises(ValueError):
        NoiseModel(d2=-0.2)
    assert NOISELESS.d1 == 1.0 and NOISELESS.d2 == 1.0


# --- _finalize on Python floats ---------------------------------------------------


def _finalize_on_arrays(labels, values: np.ndarray) -> dict[str, float]:
    """``_finalize``'s arithmetic as whole-array numpy operations, checks left out."""
    values = np.where(values < 0.0, 0.0, values)
    values = values / values.sum()
    return {lab: float(v) for lab, v in zip(labels, values)}


@pytest.mark.parametrize("size", [2, 4, 8, 64, 1024])
def test_finalize_returns_the_floats_of_the_array_formula(size):
    # numpy sums fewer than 8 entries in order and more by pairwise blocks;
    # both sums stay numpy's, so every size gives the same bits.
    rng = np.random.default_rng([71, size])
    labels = tuple(format(i, "b") for i in range(size))
    for trial in range(300):
        v = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.integers(-17, 1, size)
        v[0] = 1.0  # some mass survives the negatives below
        if trial % 3 == 1:  # rounding negatives inside the floor, and negative zeros
            v[1 + rng.permutation(size - 1)[:2]] = (-rng.uniform(0.0, 1e-9), -0.0)[: size - 1]
        v[v > 0] /= v[v > 0].sum()
        got = _finalize(labels, v.copy())
        want = _finalize_on_arrays(labels, v)
        assert list(got) == list(want)
        assert [repr(x) for x in got.values()] == [repr(x) for x in want.values()]


@pytest.mark.parametrize(
    "values",
    [
        [np.nan, 1.0],
        [1.0, np.nan],  # min() over Python floats steps over a NaN in second place
        [0.25, 0.25, np.nan, 0.5],
        [-2e-9, 1.0 + 2e-9],  # below the floor
        [0.5, 0.6],  # sums to 1.1
        [0.25, 0.25, 0.25, 0.2],  # sums to 0.95
        [np.inf, 0.0],
        [0.5, -np.inf, np.inf, 0.5],
    ],
)
def test_finalize_still_refuses_nan_negatives_and_bad_sums(values):
    with pytest.raises(InternalError):
        _finalize(tuple(map(str, range(len(values)))), np.array(values))
    many = np.full(64, 1.0 / 64)
    many[17] = values[0] if not 0.0 <= values[0] <= 1.0 else np.nan
    with pytest.raises(InternalError):
        _finalize(tuple(map(str, range(64))), many)


def test_a_measure_returns_the_floats_and_refusals_of_finalize():
    # a measure finalizes its two outcomes without a dict: the same floats as
    # _finalize of the two-entry array, the same clamp and the same refusals
    rng = np.random.default_rng(73)
    edges = [0.5, -0.5, 0.5 * (1 + 4e-10), -0.5 * (1 + 4e-10), 0.5 * (1 + 4e-9), -0.5 * (1 + 4e-9),
             0.0, -0.0, np.nan, np.inf, -np.inf]
    for z in edges + list(rng.uniform(-0.5, 0.5, 500)):
        for d1 in (1.0, 0.97):
            s = PauliState(1, np.array([0.5, 0.0, 0.0, z]))
            lean = 2 * d1 * float(Z @ s.marginal((0,))[1:])
            try:
                want = tuple(_finalize(("+", "-"), np.array([(1.0 + lean) / 2.0, (1.0 - lean) / 2.0])).values())
            except InternalError:
                with pytest.raises(InternalError):
                    measure_qubit(s, 0, Z, NoiseModel(d1=d1))
                continue
            got = measure_qubit(s, 0, Z, NoiseModel(d1=d1))
            assert type(got) is tuple and [repr(p) for p in got] == [repr(p) for p in want], (z, d1)


# --- every readout against the oracle at six qubits ------------------------------

READOUTS = ("measure", "measure_x", "measure_y", "reset", "expect", "ensemble", "bell")


def _readout_rich(rng: np.random.Generator, n: int) -> str:
    """Rotations and cx on far pairs, with each readout kind in turn in between."""
    lines = [f"qubits {n}"]
    for i in range(3 * len(READOUTS)):
        a, b, c = rng.choice(n, size=3, replace=False)
        t, p, l = rng.uniform(-3, 3, size=3)
        lines += [f"u3({t:.6f},{p:.6f},{l:.6f}) q[{a}]", f"cx q[{a}],q[{b}]", f"cx q[{b}],q[{c}]"]
        kind = READOUTS[i % len(READOUTS)]
        if kind == "expect":
            lines.append("expect " + "".join(rng.choice(list("IXYZ"), size=n)))
        elif kind == "ensemble":
            lines.append("ensemble")
        elif kind == "bell":
            lines.append(f"bell q[{a}],q[{c}]")
        else:
            lines.append(f"{kind} q[{b}]")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("init", ["zero", "uniform", "thermal"])
@pytest.mark.parametrize("grouped", [False, True])
def test_every_readout_matches_the_oracle_at_six_qubits(monkeypatch, grouped, init):
    # Grouped, pending factors span two or three qubits, and readouts meet
    # them in marginal on moved layouts; ungrouped, every cx on a far pair
    # moves the layout instead.
    if grouped:
        monkeypatch.setattr(kernel, "_GROUPS_FROM_N", 1)
    seen = set()
    read = kernel.PauliState.marginal

    def spy(state, qubits):
        groups = {len(state._pending[k][0]) for k in qubits if k in state._pending}
        seen.add((max(groups, default=0) > 1, state._layout is not None))
        return read(state, qubits)

    monkeypatch.setattr(kernel.PauliState, "marginal", spy)
    for seed in range(2):
        rng = np.random.default_rng([73, seed, len(init)])
        noise = NoiseModel(
            **{k: rng.uniform(-0.1, 0.1) if k.startswith("alpha") else rng.uniform(0.9, 1.0) for k in NOISE_KEYS}
        )
        text = _readout_rich(rng, 6)
        res = verify_circuit(text, noise, init=init)
        assert res.records_checked == 3 * (len(READOUTS) - 1), text
        assert res.state_divergence <= 1e-12, text
        assert res.record_divergence <= 1e-12, text
    assert (grouped, True) in seen
