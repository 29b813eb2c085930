"""Idle-time decoherence and decay applied after every clock step.

Both channels act independently on each qubit, as one 4x4 transfer matrix
given to every qubit by ``state.apply_product``: decoherence is diagonal,
while decay's a3 <- a0 entry puts one entry below the diagonal.  Neither
makes a pass over the coefficients: each composes into the pending factor
of every qubit's group (as kron(T, T) or kron(T, T, T) on a group of two or
three), which reaches the coefficients when a two-qubit gate takes or
flushes the group or at the next full read (see ``state``), so a clock
step costs at most 2n small products whatever the state size.  Decoherence
multiplies transverse (digit 1 or 2) occurrences by f = exp(-dt/T2); decay
scales them by sqrt(g) with g = exp(-dt/T1) and relaxes the longitudinal
component toward the thermal point: a3 <- g a3 + (2p - 1)(1 - g) a0.  The
thermal product state with population p is the exact fixed point of the
combination, and the combined channel is completely positive for all f, g,
p in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .circuit import NoiseModel
from .state import PauliState, apply_product

def _check_unit(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")


def decohere(state: PauliState, f: float) -> None:
    """Scale every coefficient by f^m, m = number of digits in {1, 2}."""
    _check_unit("f", f)
    if f == 1.0:
        return
    apply_product(state, np.diag([1.0, f, f, 1.0]))


def decay(state: PauliState, g: float, p: float) -> None:
    """Relax every qubit toward the thermal point with population p.

    Transverse digit occurrences shrink by sqrt(g); each digit-3 coefficient
    moves toward (2p - 1) times its digit-0 partner.
    """
    _check_unit("g", g)
    _check_unit("p", p)
    if g == 1.0:
        return
    t = np.diag([1.0, np.sqrt(g), np.sqrt(g), g])
    t[3, 0] = (2.0 * p - 1.0) * (1.0 - g)
    apply_product(state, t)


def end_of_partition(state: PauliState, noise: NoiseModel, category: str = "gate") -> None:
    """One clock step of memory noise: decohere then decay on all qubits.

    With f = g = 1 the step is the identity and returns at once; the model
    has already checked f, g and p.
    """
    f, g = noise.pair(category)
    if f == 1.0 and g == 1.0:
        return
    decohere(state, f)
    decay(state, g, noise.p)
