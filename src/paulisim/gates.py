"""Gate action on Pauli coefficients via real transfer matrices.

A one-qubit gate is a 4x4 real matrix applied to the qubit's Pauli digit;
the controlled-NOT is a 16x16 matrix applied to two digits.  Both go through
``state.apply_transfer``.  Every transfer matrix has first row (1, 0, ..., 0),
so the trace coefficient is preserved exactly, not just to rounding.

Rotation errors follow the substitution cos(theta) -> r cos(theta + abar):
each rotation is replaced by the equal mixture of the two exact rotations at
theta + abar +- delta0 with delta0 = arccos(r).  A mixture of unitaries is
automatically completely positive, and averaging the two angles reproduces
the substitution identically (cos(t + d) + cos(t - d) = 2 cos(t) cos(d)).
The same two-point mixture drives the noisy controlled-NOT, whose pulse
error turns the target flip into R_x(alpha) sigma_x.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import NOISELESS, NoiseModel
from .state import PauliState, apply_transfer

# cyclic partner components (v, w) for each rotation axis: a_v' = c a_v - s a_w
_CYCLIC = {"x": (2, 3), "y": (3, 1), "z": (1, 2)}


def _exact_rotation(axis: str, angle: float) -> np.ndarray:
    if axis not in _CYCLIC:
        raise ValueError(f"unknown rotation axis {axis!r}")
    v, w = _CYCLIC[axis]
    c, s = np.cos(angle), np.sin(angle)
    t = np.eye(4)
    t[v, v] = c
    t[v, w] = -s
    t[w, v] = s
    t[w, w] = c
    return t


@lru_cache(maxsize=4096)
def _rotation_cached(axis: str, theta: float, alpha: float, r: float) -> np.ndarray:
    delta0 = np.arccos(r)
    t = 0.5 * (
        _exact_rotation(axis, theta + alpha + delta0)
        + _exact_rotation(axis, theta + alpha - delta0)
    )
    t.setflags(write=False)
    return t


def rotation_transfer(axis: str, theta: float, noise: NoiseModel = NOISELESS) -> np.ndarray:
    """4x4 transfer of a (possibly noisy) rotation about x, y or z."""
    alpha, r = noise.axis(axis)
    return _rotation_cached(axis, float(theta), alpha, r)


_SQ = 1.0 / np.sqrt(2.0)

_NAMED: dict[str, np.ndarray] = {
    "x": np.diag([1.0, 1.0, -1.0, -1.0]),
    "y": np.diag([1.0, -1.0, 1.0, -1.0]),
    "z": np.diag([1.0, -1.0, -1.0, 1.0]),
    # a1 <-> a3 and a2 -> -a2 (conjugation by H negates sigma_y)
    "h": np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    ),
    "s": np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    ),
    "sdg": np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    ),
    "t": np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, _SQ, -_SQ, 0.0],
            [0.0, _SQ, _SQ, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    ),
    "tdg": np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, _SQ, _SQ, 0.0],
            [0.0, -_SQ, _SQ, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    ),
}
for _t in _NAMED.values():
    _t.setflags(write=False)


def named_gate_transfer(name: str) -> np.ndarray:
    """Exact 4x4 transfer of one of x, y, z, h, s, sdg, t, tdg."""
    try:
        return _NAMED[name]
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None


def apply_u1(state: PauliState, k: int, lam: float, noise: NoiseModel = NOISELESS) -> None:
    """Phase gate: one z-rotation transfer by lam."""
    apply_transfer(state, (k,), rotation_transfer("z", lam, noise))


def apply_u3(
    state: PauliState,
    k: int,
    theta: float,
    phi: float,
    lam: float,
    noise: NoiseModel = NOISELESS,
) -> None:
    """General one-qubit gate R_z(phi) R_y(theta) R_z(lam).

    Each Euler factor carries its own axis's noise parameters; the three
    transfers are multiplied into one, so the state sees a single pass.
    """
    t = rotation_transfer("z", phi, noise) @ rotation_transfer("y", theta, noise)
    apply_transfer(state, (k,), t @ rotation_transfer("z", lam, noise))


# ---------------------------------------------------------------------------
# Controlled-NOT


def _rx(alpha: float) -> np.ndarray:
    c, s = np.cos(alpha / 2), np.sin(alpha / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _cnot_unitary(alpha: float) -> np.ndarray:
    """|0><0| x I + |1><1| x R_x(alpha) sigma_x, control kron-major."""
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    u = np.zeros((4, 4), dtype=np.complex128)
    u[:2, :2] = np.eye(2)
    u[2:, 2:] = _rx(alpha) @ x
    return u


_PAULI_2x2 = [
    np.array([[1, 0], [0, 1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
]


def transfer_from_unitary(u: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix of conjugation by an m-qubit unitary.

    T[i, j] = Tr(P_i U P_j U^dagger) / 2^m with the Pauli-product index
    ordered first-operand kron-major (matching the digit-pair layout).
    """
    dim = u.shape[0]
    m = dim.bit_length() - 1
    basis = [np.array([[1.0]], dtype=np.complex128)]
    for _ in range(m):
        basis = [np.kron(b, p) for b in basis for p in _PAULI_2x2]
    size = len(basis)
    t = np.empty((size, size))
    uh = u.conj().T
    conj = [u @ p @ uh for p in basis]
    for i in range(size):
        for j in range(size):
            t[i, j] = np.trace(basis[i] @ conj[j]).real / dim
    return t


@lru_cache(maxsize=64)
def _cnot_cached(alpha: float, r: float) -> np.ndarray:
    delta0 = np.arccos(r)
    t = 0.5 * (
        transfer_from_unitary(_cnot_unitary(alpha + delta0))
        + transfer_from_unitary(_cnot_unitary(alpha - delta0))
    )
    # snap the trace row exactly; the remaining entries stay as computed
    t[0] = 0.0
    t[0, 0] = 1.0
    t.setflags(write=False)
    return t


def cnot_transfer(noise: NoiseModel = NOISELESS) -> np.ndarray:
    """16x16 transfer of the (possibly noisy) controlled-NOT.

    Index = 4 * control_digit + target_digit on both rows and columns.
    """
    return _cnot_cached(noise.alpha_cx, noise.r_cx)


def apply_cnot(
    state: PauliState, control: int, target: int, noise: NoiseModel = NOISELESS
) -> None:
    """Apply the controlled-NOT transfer to the (control, target) digit pair."""
    if control == target:
        raise ValueError("control and target must be distinct qubits")
    apply_transfer(state, (control, target), cnot_transfer(noise))
