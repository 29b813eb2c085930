"""Projective measurement modes on Pauli coefficients.

All modes are non-selective: the state is replaced by the full
post-measurement mixture, never collapsed to a sampled branch.  Sampling,
when wanted, happens downstream from the returned distribution.  Each mode
reads its outcome, then applies its update as a transfer matrix; each
returned distribution passes ``_finalize``.  ``measure``, ``expect`` and
``bell`` read only the coefficients whose digits off their qubits are 0,
through ``PauliState.marginal``, which makes no pass over the state; the
ensemble reads the whole state through ``PauliState.tensor``.

Readout error enters through two damping factors: d1 scales the measured
Bloch component for every single-qubit readout (and each qubit of a string
or ensemble readout), d2 scales the correlated contributions of a Bell-basis
measurement.  Both equal 1 for ideal projective measurement.
"""

from __future__ import annotations

import numpy as np

from .circuit import NOISELESS, NoiseModel
from .errors import InternalError
from .state import PauliState, apply_product, apply_transfer

PAULI_LABELS = "IXYZ"

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

# sign patterns of the Bell projectors 1/4 (II +- XX +- YY +- ZZ)
BELL_SIGNS = {
    "phi+": (1.0, -1.0, 1.0),
    "phi-": (-1.0, 1.0, 1.0),
    "psi+": (1.0, 1.0, -1.0),
    "psi-": (-1.0, -1.0, -1.0),
}

_PROB_FLOOR = -1e-9  # anything below this is a bug, not rounding
_SUM_TOL = 1e-6
_EXPECT_TOL = 1e-9  # slack on |expectation| <= 1


def _finalize(labels: list[str], values: np.ndarray) -> dict[str, float]:
    """Clamp rounding negatives, renormalize, and package a distribution."""
    # negated so that a NaN fails the check
    if not values.min() >= _PROB_FLOOR:
        raise InternalError(f"probability {values.min()} below {_PROB_FLOOR}")
    total = values.sum()
    if not abs(total - 1.0) <= _SUM_TOL:
        raise InternalError(f"probabilities sum to {total}, expected 1")
    values = np.where(values < 0.0, 0.0, values)
    values = values / values.sum()
    return {lab: float(v) for lab, v in zip(labels, values)}


def _axis_transfer(nvec: np.ndarray, d1: float) -> np.ndarray:
    """Non-selective measurement along nvec: the Bloch block becomes d1 n n^T."""
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    t[1:, 1:] = d1 * np.outer(nvec, nvec)
    return t


def expect_pauli_string(
    state: PauliState, string: str, noise: NoiseModel = NOISELESS
) -> float:
    """Expectation of a Pauli string, most significant qubit first.

    Returns d1^w * 2^n * a_index with w = number of non-identity labels, and
    applies the per-qubit readout damping to every measured qubit.
    """
    if len(string) != state.n:
        raise ValueError(f"expected {state.n} labels, got {len(string)}")
    digits = []
    for ch in reversed(string):  # rightmost label is qubit 0
        try:
            digits.append(PAULI_LABELS.index(ch))
        except ValueError:
            raise ValueError(f"bad Pauli label {ch!r}, expected one of I, X, Y, Z") from None
    read = tuple(k for k, d in enumerate(digits) if d != 0)
    block = state.marginal(read)
    value = noise.d1 ** len(read) * 2**state.n * block[tuple(digits[k] for k in read)]
    if not abs(value) <= 1.0 + _EXPECT_TOL:  # negated so that a NaN fails
        raise InternalError(f"expectation {value} outside [-1, 1]")
    for k, d in enumerate(digits):
        if d != 0:
            apply_transfer(state, (k,), _axis_transfer(np.eye(3)[d - 1], noise.d1))
    return float(value)


def measure_qubit(
    state: PauliState,
    k: int,
    axis: np.ndarray | tuple[float, float, float],
    noise: NoiseModel = NOISELESS,
) -> tuple[float, float]:
    """Binary measurement of qubit k along the Bloch unit vector ``axis``.

    Returns (p_plus, p_minus) = 1/2 (1 +- 2^n d1 axis.c) where c holds the
    three digit-k coefficients with every other digit 0.  The update projects
    each digit-k Bloch triple onto the axis and scales it by d1.
    """
    nvec = np.asarray(axis, dtype=np.float64)
    if nvec.shape != (3,):
        raise ValueError("measurement axis must be a 3-vector")
    if not abs(np.linalg.norm(nvec) - 1.0) <= 1e-9:
        raise ValueError("measurement axis must have unit length")
    bloch = state.marginal((k,))[1:]  # the digit-k Bloch triple, every other digit 0
    lean = 2**state.n * noise.d1 * float(nvec @ bloch)
    apply_transfer(state, (k,), _axis_transfer(nvec, noise.d1))
    dist = _finalize(["+", "-"], np.array([(1.0 + lean) / 2.0, (1.0 - lean) / 2.0]))
    return (dist["+"], dist["-"])


def _bitstring_probs(state: PauliState, d1: float) -> np.ndarray:
    """The ensemble readout, indexed by bitstring with qubit n - 1 most significant."""
    # the 2^n coefficients with every digit in {0, 3}, qubit n - 1 on axis 0
    sub = state.tensor()[(slice(None, None, 3),) * state.n]
    # per-axis map from (digit0, d1 * digit3) to the two outcome bits
    m = np.array([[1.0, d1], [1.0, -d1]])
    for ax in range(state.n):
        sub = np.moveaxis(np.tensordot(m, sub, axes=([1], [ax])), 0, ax)
    return sub.reshape(-1)


def ensemble_distribution(
    state: PauliState, noise: NoiseModel = NOISELESS
) -> dict[str, float]:
    """Probabilities of all 2^n bitstring outcomes, most significant bit first.

    prob(b) is the signed sum of coefficients whose digits all lie in {0, 3},
    each digit-3 factor contributing d1 * (+1 for bit 0, -1 for bit 1).  The
    update zeroes every coefficient with a digit in {1, 2} and scales each
    digit-3 occurrence by d1.
    """
    probs = _bitstring_probs(state, noise.d1)
    apply_product(state, np.diag([1.0, 0.0, 0.0, noise.d1]))
    return _finalize([format(i, f"0{state.n}b") for i in range(2**state.n)], probs)


def bell_measure(
    state: PauliState, k: int, l: int, noise: NoiseModel = NOISELESS
) -> dict[str, float]:
    """Bell-basis measurement of the qubit pair (k, l).

    Probabilities combine the four coefficients with digit_k = digit_l and
    all other digits 0; the three correlated terms are scaled by d2 with the
    projector sign patterns.  The update zeroes digit_k != digit_l
    coefficients and scales the matched non-identity ones by d2.
    """
    if k == l:
        raise ValueError("Bell measurement needs two distinct qubits")
    paired = np.diagonal(state.marginal((k, l))).tolist()  # digit_k = digit_l = j, others 0
    scale = 2**state.n / 4.0
    probs = np.array(
        [
            scale * (paired[0] + noise.d2 * sum(s * a for s, a in zip(BELL_SIGNS[lab], paired[1:])))
            for lab in BELL_LABELS
        ]
    )
    kept = noise.d2 * np.eye(4)  # (digit_k, digit_l) -> factor
    kept[0, 0] = 1.0
    apply_transfer(state, (k, l), np.diag(kept.reshape(-1)))
    return _finalize(list(BELL_LABELS), probs)


def reset_qubit(state: PauliState, k: int) -> None:
    """Send qubit k to |0> regardless of its marginal; no noise applies.

    Digit-k components 1 and 2 vanish and component 3 is set equal to
    component 0, the Kraus action of {P0, sigma_x P1}.
    """
    apply_transfer(state, (k,), np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]))
