"""Projective measurement modes on Pauli coefficients.

All modes are non-selective: the state is replaced by the full
post-measurement mixture, never collapsed to a sampled branch.  Sampling,
when wanted, happens downstream from the returned distribution.  Each mode
reads its outcome, then applies its update as a transfer matrix; each
returned distribution passes ``_finalize``.  ``measure``, ``expect`` and
``bell`` read only the coefficients whose digits off their qubits are 0,
through ``PauliState.marginal``, which makes no pass over the state; for
``measure`` that is one strided slice of the qubit's 4 coefficients and,
when the qubit has a factor of its own, one 4x4 product, and its two
outcomes leave with ``_finalize``'s floats without building a dict; the
ensemble reads the 2^n coefficients it needs through ``PauliState.z_block``,
which from 10 qubits up (``state._GROUPS_FROM_N``) reads them through the
pending factors and makes no pass either.

``measure_qubit`` and ``expect_pauli_string`` each check their input and
build their readout transfers, then run a private step, ``_measure`` or
``_expect``, that reads the record and applies them through
``state._transfer``.  The engine calls those steps directly with the x, y
and z readout transfers of ``_readouts``, built and checked once per run
with reset's as one (4, 4, 4) stack; a public call builds its own.  Either
way a readout transfer is a row of ``_axis_transfers``, so it has the same
bits.

The ensemble contraction.  prob(b) needs only the 2^n coefficients whose
digits all lie in {0, 3}, the (2,) * n block ``PauliState.z_block``
returns.  Each qubit's two outcome bits come from its (digit 0, digit 3)
pair through the 2x2 map [[1, d1], [1, -d1]], so the distribution is that
map on every axis of the block.  ``_bitstring_probs`` applies it one axis
at a time as one (2, 2) @ (2, 2^(n-1)) product on a copy with that axis
first and the others in order, the operands ``numpy.tensordot`` would
build, so the bits are the same; a step costs a few microseconds, where
the generic tensordot and moveaxis calls cost tens.  The outcome labels
are built once per qubit count.  The ensemble's update, digits 1 and 2
gone and digit 3 scaled by d1 on every qubit, is the z readout transfer
of ``_readouts`` that ``measure`` applies.  ``state._product`` composes it
into every group's pending factor, so the next full read applies it; a
sweep row, which keeps only the distribution, never makes that read.

Readout error enters through two damping factors: d1 scales the measured
Bloch component for every single-qubit readout (and each qubit of a string
or ensemble readout), d2 scales the correlated contributions of a Bell-basis
measurement.  Both equal 1 for ideal projective measurement.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuit import NOISELESS, NoiseModel
from .errors import InternalError
from .state import PauliState, _checked, _product, _transfer, apply_transfer

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


# the measured axis of each non-identity Pauli label X, Y, Z
_UNIT_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

# reset's transfer: digit-k components 1 and 2 vanish, component 3 takes component 0
_RESET = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0])
_RESET.setflags(write=False)


def _finalize(labels: tuple[str, ...], values: np.ndarray) -> dict[str, float]:
    """Clamp rounding negatives, renormalize, and package a distribution.

    The floats are those of numpy's ``np.where(v < 0, 0, v) / sum``: both
    sums are numpy's, and the clamp and division are the same IEEE
    operations on Python floats.  Nothing is clamped in almost every call,
    and then the clamped sum is the first one.
    """
    vals = values.tolist()
    low = min(vals)  # may step over a NaN; the sum cannot
    total = float(values.sum()) if low >= _PROB_FLOOR else math.nan
    if total != total:  # a NaN, or an entry below the floor
        raise InternalError(f"probability {values.min()} below {_PROB_FLOOR}")
    if not abs(total - 1.0) <= _SUM_TOL:
        raise InternalError(f"probabilities sum to {total}, expected 1")
    if low < 0.0:
        vals = [0.0 if v < 0.0 else v for v in vals]
        total = float(np.sum(vals))
    return dict(zip(labels, [v / total for v in vals]))


def _axis_transfers(nvecs: np.ndarray, d1: float) -> np.ndarray:
    """(N, 4, 4) stack: non-selective measurement along each of N axes, the Bloch block d1 n n^T."""
    t = np.zeros((len(nvecs), 4, 4))
    t[:, 0, 0] = 1.0
    t[:, 1:, 1:] = d1 * (nvecs[:, :, None] * nvecs[:, None, :])
    return t


def _unit_axes(axes) -> np.ndarray:
    """The measurement axes as an (N, 3) float64 array, each checked to be a unit 3-vector."""
    nvecs = np.array(axes, dtype=np.float64)
    if nvecs.ndim != 2 or nvecs.shape[1] != 3:
        raise ValueError("measurement axis must be a 3-vector")
    if not (np.abs(np.linalg.norm(nvecs, axis=1) - 1.0) <= 1e-9).all():  # a NaN fails
        raise ValueError("measurement axis must have unit length")
    return nvecs


def _readouts(d1: float) -> tuple[np.ndarray, np.ndarray]:
    """The x, y and z unit axes, and the one-qubit readout transfers as a checked (4, 4, 4) stack.

    Row i serves ``measure_x``, ``measure_y`` and ``measure`` (i = 0, 1, 2)
    and each qubit of an ``expect`` string with Pauli digit i + 1; row 3 is
    reset's.  The z row, diag(1, 0, 0, d1), is the ensemble's update on
    each qubit too.
    """
    axes = _unit_axes(_UNIT_AXES)
    return axes, _checked([*_axis_transfers(axes, d1), _RESET], (4, 4, 4))


@lru_cache(maxsize=16)
def _bitstring_labels(n: int) -> tuple[str, ...]:
    """The 2^n ensemble labels, most significant bit first."""
    return tuple(format(i, f"0{n}b") for i in range(2**n))


def _pauli_digits(string: str, n: int) -> list[int]:
    """Each qubit's Pauli digit in an n-label string, qubit 0 (the rightmost label) first."""
    if len(string) != n:
        raise ValueError(f"expected {n} labels, got {len(string)}")
    digits = []
    for ch in reversed(string):  # rightmost label is qubit 0
        try:
            digits.append(PAULI_LABELS.index(ch))
        except ValueError:
            raise ValueError(f"bad Pauli label {ch!r}, expected one of I, X, Y, Z") from None
    return digits


def expect_pauli_string(
    state: PauliState, string: str, noise: NoiseModel = NOISELESS
) -> float:
    """Expectation of a Pauli string, most significant qubit first.

    Returns d1^w * 2^n * a_index with w = number of non-identity labels, and
    applies the per-qubit readout damping to every measured qubit.
    """
    digits = _pauli_digits(string, state.n)
    return _expect(state, digits, noise.d1, _readouts(noise.d1)[1])


def _expect(state: PauliState, digits: list[int], d1: float, readouts: np.ndarray) -> float:
    """``expect_pauli_string`` on checked input: the digits and ``_readouts(d1)``'s stack."""
    read = tuple(k for k, d in enumerate(digits) if d != 0)
    block = state.marginal(read)
    value = d1 ** len(read) * 2**state.n * block[tuple(digits[k] for k in read)]
    if not abs(value) <= 1.0 + _EXPECT_TOL:  # negated so that a NaN fails
        raise InternalError(f"expectation {value} outside [-1, 1]")
    for k in read:
        _transfer(state, (k,), readouts[digits[k] - 1])
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
    nvecs = _unit_axes([axis])
    t = _checked(_axis_transfers(nvecs, noise.d1), (1, 4, 4))[0]
    return _measure(state, k, nvecs[0], t, noise.d1)


def _measure(
    state: PauliState, k: int, nvec: np.ndarray, t: np.ndarray, d1: float
) -> tuple[float, float]:
    """``measure_qubit`` on a checked unit axis ``nvec`` and its checked transfer ``t``.

    The qubit's range is checked by the read, before the state changes.
    """
    bloch = state.marginal((k,))[1:]  # the digit-k Bloch triple, every other digit 0
    lean = 2**state.n * d1 * float(nvec @ bloch)
    _transfer(state, (k,), t)
    plus, minus = (1.0 + lean) / 2.0, (1.0 - lean) / 2.0
    total = plus + minus  # numpy's sum of two floats
    if plus >= 0.0 and minus >= 0.0 and abs(total - 1.0) <= _SUM_TOL:  # _finalize's floats, no dict
        return plus / total, minus / total
    return tuple(_finalize(("+", "-"), np.array([plus, minus])).values())


def _bitstring_probs(state: PauliState, d1: float) -> np.ndarray:
    """The ensemble readout, indexed by bitstring with qubit n - 1 most significant.

    The map [[1, d1], [1, -d1]] on every axis of ``state.z_block()``, one
    axis at a time (see the module docstring).
    """
    n = state.n
    m = np.array([[1.0, d1], [1.0, -d1]])  # (digit 0, d1 * digit 3) -> the two outcome bits
    x = m.dot(state.z_block().reshape(2, -1))
    for ax in range(1, n):  # x holds axis ax - 1 first, then the others in order
        x = x.reshape((2,) * n).transpose((ax, *range(1, ax), 0, *range(ax + 1, n)))
        x = m.dot(x.reshape(2, -1))
    return x.reshape((2,) * n).transpose((*range(1, n), 0)).reshape(-1)


def ensemble_distribution(
    state: PauliState, noise: NoiseModel = NOISELESS
) -> dict[str, float]:
    """Probabilities of all 2^n bitstring outcomes, most significant bit first.

    prob(b) is the signed sum of coefficients whose digits all lie in {0, 3},
    each digit-3 factor contributing d1 * (+1 for bit 0, -1 for bit 1).  The
    update zeroes every coefficient with a digit in {1, 2} and scales each
    digit-3 occurrence by d1.
    """
    return _ensemble(state, noise.d1, _readouts(noise.d1)[1][2])


def _ensemble(state: PauliState, d1: float, t: np.ndarray) -> dict[str, float]:
    """``ensemble_distribution`` with its checked transfer ``t``."""
    probs = _bitstring_probs(state, d1)
    _product(state, [t])
    return _finalize(_bitstring_labels(state.n), probs)


def bell_measure(
    state: PauliState, k: int, l: int, noise: NoiseModel = NOISELESS
) -> dict[str, float]:
    """Bell-basis measurement of the qubit pair (k, l).

    Probabilities combine the four coefficients with digit_k = digit_l and
    all other digits 0; the three correlated terms are scaled by d2 with the
    projector sign patterns.  The update zeroes digit_k != digit_l
    coefficients and scales the matched non-identity ones by d2.  The read
    (``PauliState.marginal``) refuses k == l (``ValueError``) and a qubit
    out of range (``IndexError``) before the state changes.
    """
    return _bell(state, k, l, noise.d2, _checked(_bell_transfer(noise.d2), (16, 16)))


def _bell_transfer(d2: float) -> np.ndarray:
    """The Bell update: (digit_k, digit_l) = (j, j) keeps d2 for j != 0, 1 for j = 0."""
    return np.diag([1.0, 0.0, 0.0, 0.0, 0.0, d2, 0.0, 0.0, 0.0, 0.0, d2, 0.0, 0.0, 0.0, 0.0, d2])


def _bell(state: PauliState, k: int, l: int, d2: float, t: np.ndarray) -> dict[str, float]:
    """``bell_measure`` on distinct qubits with its checked transfer ``t``.

    The qubits' range is checked by the read, before the state changes.
    """
    paired = np.diagonal(state.marginal((k, l))).tolist()  # digit_k = digit_l = j, others 0
    scale = 2**state.n / 4.0
    probs = np.array(
        [
            scale * (paired[0] + d2 * sum(s * a for s, a in zip(BELL_SIGNS[lab], paired[1:])))
            for lab in BELL_LABELS
        ]
    )
    _transfer(state, (k, l), t)
    return _finalize(BELL_LABELS, probs)


def reset_qubit(state: PauliState, k: int) -> None:
    """Send qubit k to |0> regardless of its marginal; no noise applies.

    Digit-k components 1 and 2 vanish and component 3 is set equal to
    component 0, the Kraus action of {P0, sigma_x P1}.
    """
    apply_transfer(state, (k,), _RESET)
