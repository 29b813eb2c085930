import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pauli_state
from paulisim import memory, oracle
from paulisim.circuit import NOISELESS, PARTITION_CATEGORIES, NoiseModel
from paulisim.memory import decay, decohere, end_of_partition
from paulisim.transpile import Partition, Schedule
from paulisim.state import (
    PauliState,
    _product,
    apply_transfer,
    init_thermal,
    init_uniform,
    init_zero,
)

UNIT = st.floats(0.0, 1.0)


def test_decohere_damps_every_transverse_digit():
    s = init_uniform(2)
    decohere(s, 0.8)
    # XX carries two transverse digits, XI and IX one each
    assert abs(s.coeffs[5] - 0.25 * 0.64) < 1e-15
    assert abs(s.coeffs[1] - 0.25 * 0.8) < 1e-15
    assert abs(s.coeffs[4] - 0.25 * 0.8) < 1e-15
    assert s.coeffs[0] == 0.25


def test_decay_pulls_populations_toward_thermal():
    s = init_zero(1)
    decay(s, 0.75, 0.6)
    # a3 -> g a3 + (2p-1)(1-g) a0 = 0.75*0.5 + 0.2*0.25*0.5
    assert abs(s.coeffs[3] - 0.4) < 1e-15
    assert s.coeffs[0] == 0.5


def test_decay_damps_transverse_by_sqrt_g():
    s = init_uniform(1)
    decay(s, 0.81, 0.5)
    assert abs(s.coeffs[1] - 0.5 * 0.9) < 1e-15
    assert abs(s.coeffs[3]) < 1e-15  # p = 1/2 adds no bias


def test_full_decay_reaches_thermal_state(rng):
    s = random_pauli_state(rng, 2)
    decay(s, 0.0, 0.85)
    want = init_thermal(2, 0.85)
    assert np.max(np.abs(s.coeffs - want.coeffs)) < 1e-12


def test_thermal_state_is_decay_fixed_point():
    for p in (0.0, 0.3, 0.5, 0.9, 1.0):
        s = init_thermal(2, p)
        before = s.coeffs.copy()
        decay(s, 0.7, p)
        decohere(s, 0.6)
        assert np.max(np.abs(s.coeffs - before)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(f1=UNIT, f2=UNIT, seed=st.integers(0, 2**31 - 1))
def test_decohere_semigroup(f1, f2, seed):
    s1 = random_pauli_state(np.random.default_rng(seed), 2)
    s2 = s1.copy()
    decohere(s1, f1)
    decohere(s1, f2)
    decohere(s2, f1 * f2)
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(g1=UNIT, g2=UNIT, p=UNIT, seed=st.integers(0, 2**31 - 1))
def test_decay_semigroup_at_fixed_population(g1, g2, p, seed):
    s1 = random_pauli_state(np.random.default_rng(seed), 1)
    s2 = s1.copy()
    decay(s1, g1, p)
    decay(s1, g2, p)
    decay(s2, g1 * g2, p)
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-12


def test_step_matches_dense_kraus_channel(rng):
    noise = NoiseModel(f=0.92, g=0.85, p=0.3)
    s = random_pauli_state(rng, 3)
    d = oracle.to_dense(s)
    end_of_partition(s, noise)
    oracle.run_schedule_dense(d, Schedule([Partition("gate", [])]), noise)  # one memory step
    back = oracle.from_dense(d)
    assert np.max(np.abs(s.coeffs - back.coeffs)) < 1e-12


def test_measurement_partitions_use_their_own_pair(rng):
    noise = NoiseModel(f=0.9, g=0.8, p=0.7, f_meas=0.95, g_meas=0.85)
    assert noise.pair("gate") == (0.9, 0.8)
    assert noise.pair("measurement") == (0.95, 0.85)
    assert noise.pair("solo") == (0.95, 0.85)
    s1 = random_pauli_state(rng, 1)
    s2 = s1.copy()
    end_of_partition(s1, noise, "measurement")
    decay(s2, 0.85, 0.7)
    decohere(s2, 0.95)
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-15


def test_measurement_pair_defaults_to_gate_pair():
    noise = NoiseModel(f=0.9, g=0.8, p=0.7)
    assert noise.pair("measurement") == (0.9, 0.8)
    with pytest.raises(ValueError):
        noise.pair("warmup")


def test_noiseless_step_is_identity(rng):
    s = random_pauli_state(rng, 2)
    before = s.coeffs.copy()
    end_of_partition(s, NOISELESS)
    assert np.array_equal(s.coeffs, before)


def test_a_step_with_f_and_g_one_leaves_the_state_as_it_is(rng):
    # f_meas applies after measurement partitions only: the gate step is the identity
    noise = NoiseModel(f_meas=0.9)
    s = random_pauli_state(rng, 3)
    buf, pending = s._buf, dict(s._pending)
    end_of_partition(s, noise, "gate")
    assert s._buf is buf and s._pending == pending
    end_of_partition(s, noise, "measurement")
    assert len(s._pending) == 3


def test_step_order_is_decay_then_decohere(rng):
    # the combined step must equal decay followed by decohere, per qubit
    noise = NoiseModel(f=0.9, g=0.7, p=0.2)
    s1 = random_pauli_state(rng, 1)
    s2 = s1.copy()
    end_of_partition(s1, noise)
    decay(s2, 0.7, 0.2)
    decohere(s2, 0.9)
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-15


def test_combined_step_is_completely_positive():
    # channel action is linear in the coefficients, so columns of the
    # transfer matrix come from pushing basis vectors through the step
    def step_ptm(f: float, g: float, p: float) -> np.ndarray:
        cols = []
        for j in range(4):
            s = PauliState(1, np.zeros(4))
            s.coeffs[j] = 1.0
            end_of_partition(s, NoiseModel(f=f, g=g, p=p))
            cols.append(s.coeffs.copy())
        return np.column_stack(cols)

    for f in (0.7, 0.9, 1.0):
        for g in (0.5, 0.9, 1.0):
            for p in (0.0, 0.4, 1.0):
                assert oracle.choi_psd_check(step_ptm(f, g, p)) >= -1e-10


def test_purity_never_increases_under_memory_noise(rng):
    from paulisim.state import purity

    s = random_pauli_state(rng, 2)
    p0 = purity(s)
    end_of_partition(s, NoiseModel(f=0.9, g=0.9, p=0.5))
    assert purity(s) <= p0 + 1e-12


def test_parameter_validation():
    with pytest.raises(ValueError):
        NoiseModel(f=1.1)
    with pytest.raises(ValueError):
        NoiseModel(g=-0.2)
    with pytest.raises(ValueError):
        NoiseModel(p=2.0)
    with pytest.raises(ValueError):
        NoiseModel(f_meas=-0.5)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda s: decohere(s, 1.5), "f must lie in [0, 1], got 1.5", id="decohere f"),
        pytest.param(lambda s: decay(s, -0.1, 0.5), "g must lie in [0, 1], got -0.1", id="decay g"),
        pytest.param(lambda s: decay(s, 0.5, 2.0), "p must lie in [0, 1], got 2.0", id="decay p"),
    ],
)
def test_a_factor_outside_the_unit_interval_is_refused_before_the_state_changes(call, message):
    s = init_uniform(2)
    with pytest.raises(ValueError) as err:
        call(s)
    assert str(err.value) == message
    assert not s._pending and s.coeffs.tobytes() == init_uniform(2).coeffs.tobytes()


def test_a_factor_of_one_composes_nothing_on_any_route():
    # decohere, decay and a clock step all skip it through _clock_step
    s = init_uniform(2)
    decohere(s, 1.0)
    decay(s, 1.0, 0.3)
    end_of_partition(s, NoiseModel(p=0.3, f_meas=0.9), "gate")
    assert memory._clock_step(1.0, 1.0, 0.3) == []
    assert not s._pending and s.coeffs.tobytes() == init_uniform(2).coeffs.tobytes()


def _random_transfer(rng, size):
    t = rng.standard_normal((size, size))
    t[0] = 0.0
    t[0, 0] = 1.0
    return t


def _pending_bytes(s):
    return {k: (qs, f.tobytes()) for k, (qs, f) in s._pending.items()}


@pytest.mark.parametrize("n", [7, 10])
def test_the_engine_memory_step_equals_decohere_then_decay(n):
    # the engine builds each category's PTMs once per run and composes them
    # in one visit per group: the same bytes as decohere then decay, on lone
    # factors (n = 7) and groups of 2 and 3
    rng = np.random.default_rng(n)
    base = init_uniform(n)
    for k in range(n - 1):  # the last qubit keeps no factor
        apply_transfer(base, (k,), _random_transfer(rng, 4))
    for pair in ((0, 1), (1, 2), (4, 5)):
        apply_transfer(base, pair, _random_transfer(rng, 16))
    sizes = {len(qs) for qs, _ in base._pending.values()}
    assert sizes == ({1} if n < 10 else {1, 2, 3})
    models = (
        NoiseModel(f=0.99, g=0.98, f_meas=0.97, g_meas=0.96, p=0.9),
        NoiseModel(f=1.0, g=0.98, f_meas=0.97, g_meas=1.0, p=0.3),  # one of the two, per category
        NoiseModel(f=0.99, g=1.0, p=0.0),
        NoiseModel(p=0.9),  # f = g = 1: no step at all
    )
    for noise in models:
        for category in PARTITION_CATEGORIES:
            f, g = noise.pair(category)
            want = base.copy()
            decohere(want, f)
            decay(want, g, noise.p)
            step = memory._clock_step(f, g, noise.p)
            assert len(step) == (f != 1.0) + (g != 1.0)
            assert all(t.shape == (4, 4) for t in step)
            got, routed = base.copy(), base.copy()
            _product(got, step)
            end_of_partition(routed, noise, category)
            assert _pending_bytes(got) == _pending_bytes(routed) == _pending_bytes(want), (noise, category)
            assert got.coeffs.tobytes() == routed.coeffs.tobytes() == want.coeffs.tobytes()
