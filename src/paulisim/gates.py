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

One builder, ``rotation_transfers``, makes every one-qubit PTM: given an
array of N angles it builds the 2N exact rotations from one cos and one
sin call and averages them in pairs into an (N, 4, 4) stack, and the u3
stack (``u3_transfers``) is two stacked matmuls of three such stacks.  ``engine.execute_schedule`` builds
each run's u1 and u3 PTMs as one stack of each.  ``rotation_transfer``,
``_u3_transfer``, ``named_gate_transfer``, ``apply_u1`` and ``apply_u3``
build a stack of one, so each PTM has one definition, and a matrix in a
stack has the same bits as the same matrix built alone.  A named gate's
PTM is that of its select-set form in ``circuit._NAMED_SELECT``, which is
what the engine runs.  Only the cx PTM is cached: a noisy one takes two
16x16 Pauli conjugations of 256 traces each, about 6 ms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import _NAMED_SELECT, NOISELESS, NoiseModel
from .state import PauliState, apply_transfer

# cyclic partner components (v, w) for each rotation axis: a_v' = c a_v - s a_w
_CYCLIC = {"x": (2, 3), "y": (3, 1), "z": (1, 2)}

_IDENTITY = np.eye(4)[None]
_IDENTITY.setflags(write=False)


def rotation_transfers(axis: str, thetas, noise: NoiseModel = NOISELESS) -> np.ndarray:
    """(N, 4, 4) stack of the (possibly noisy) rotation transfers about x, y or z by N angles.

    Each is the mean of the exact rotations R1, R2 by theta + alpha +-
    arccos(r), rounded as 0.5 * (R1 + R2): the (v, w) entry is
    0.5 * (-s1 + -s2), which is +0.0 where -(0.5 * (s1 + s2)) would be -0.0.
    """
    if axis not in _CYCLIC:
        raise ValueError(f"unknown rotation axis {axis!r}")
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 1:
        raise ValueError(f"need a 1-D array of angles, got shape {thetas.shape}")
    v, w = _CYCLIC[axis]
    alpha, r = noise.axis(axis)
    delta0 = np.arccos(r)
    angles = np.add.outer((delta0, -delta0), thetas + alpha).reshape(-1)  # every R1, then every R2
    c, s = np.cos(angles), np.sin(angles)
    exact = np.repeat(_IDENTITY, len(angles), axis=0)
    exact[:, v, v] = exact[:, w, w] = c
    exact[:, v, w] = -s
    exact[:, w, v] = s
    return 0.5 * (exact[: len(thetas)] + exact[len(thetas) :])


def u3_transfers(thetas, phis, lams, noise: NoiseModel = NOISELESS) -> np.ndarray:
    """(N, 4, 4) stack of R_z(phi) R_y(theta) R_z(lam), each factor with its own axis's noise."""
    if not len(thetas) == len(phis) == len(lams):  # matmul would broadcast a length of 1
        raise ValueError(f"need equal angle counts, got {len(thetas)}, {len(phis)}, {len(lams)}")
    t = np.matmul(rotation_transfers("z", phis, noise), rotation_transfers("y", thetas, noise))
    return np.matmul(t, rotation_transfers("z", lams, noise))


def rotation_transfer(axis: str, theta: float, noise: NoiseModel = NOISELESS) -> np.ndarray:
    """4x4 transfer of a (possibly noisy) rotation about x, y or z: a stack of one."""
    return rotation_transfers(axis, (theta,), noise)[0]


def _u3_transfer(theta: float, phi: float, lam: float, noise: NoiseModel) -> np.ndarray:
    """R_z(phi) R_y(theta) R_z(lam), each factor with its own axis's noise: a stack of one."""
    return u3_transfers((theta,), (phi,), (lam,), noise)[0]


def named_gate_transfer(name: str) -> np.ndarray:
    """Noiseless 4x4 transfer of x, y, z, h, s, sdg, t or tdg, from its select-set form."""
    try:
        kind, angles = _NAMED_SELECT[name]
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None
    if kind == "u1":
        return rotation_transfer("z", *angles)
    return _u3_transfer(*angles, NOISELESS)


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
    transfers are multiplied into one, which composes into the pending
    factor of the qubit's group in one product.
    """
    apply_transfer(state, (k,), _u3_transfer(theta, phi, lam, noise))


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
    """Apply the controlled-NOT transfer to the (control, target) digit pair.

    ``apply_transfer`` refuses control == target (``ValueError``) and a qubit
    out of range (``IndexError``) before the state changes.
    """
    apply_transfer(state, (control, target), cnot_transfer(noise))
