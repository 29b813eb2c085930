"""Idle-time decoherence and decay applied after every clock step.

Both channels act independently on each qubit, as one 4x4 transfer matrix
given to every qubit: decoherence is diagonal, while decay's a3 <- a0
entry puts one entry below the diagonal.  Neither makes a pass over the
coefficients: each composes into the pending factor of every qubit's group,
as kron(T, T) or kron(T, T, T) on a group of two or three qubits, built by
``state._product`` only when such a group is there.  The factor reaches the
coefficients when a two-qubit gate takes or flushes the group or at the
next full read (see ``state``).  Every route builds its
transfers through ``_clock_step``, which checks them as one stack and
leaves out a factor of 1, and ``state._product`` composes them, decoherence
then decay, in one visit per group: at most 2n small products per step
whatever the state size.  ``decohere`` and ``decay`` take one of the two,
``end_of_partition`` both per call, and the engine both once per run and
partition category.  Decoherence
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
from .state import PauliState, _checked, _product


def _check_unit(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")


def _decohere_transfer(f: float) -> np.ndarray:
    return np.diag([1.0, f, f, 1.0])


def _decay_transfer(g: float, p: float) -> np.ndarray:
    t = np.diag([1.0, np.sqrt(g), np.sqrt(g), g])
    t[3, 0] = (2.0 * p - 1.0) * (1.0 - g)
    return t


def decohere(state: PauliState, f: float) -> None:
    """Scale every coefficient by f^m, m = number of digits in {1, 2}."""
    _check_unit("f", f)
    _product(state, _clock_step(f, 1.0, 0.0))


def decay(state: PauliState, g: float, p: float) -> None:
    """Relax every qubit toward the thermal point with population p.

    Transverse digit occurrences shrink by sqrt(g); each digit-3 coefficient
    moves toward (2p - 1) times its digit-0 partner.
    """
    _check_unit("g", g)
    _check_unit("p", p)
    _product(state, _clock_step(1.0, g, p))


def _clock_step(f: float, g: float, p: float) -> list:
    """One clock step's transfers for ``state._product``, checked as one stack.

    Decoherence, then decay, each a 4x4 row of the stack; neither where its
    factor is 1, so the f = g = 1 step is an empty list, built with no
    numpy call, on which ``_product`` returns at once.  This is the one
    place a factor of 1 is skipped.
    """
    ts = ([_decohere_transfer(f)] if f != 1.0 else []) + ([_decay_transfer(g, p)] if g != 1.0 else [])
    return list(_checked(np.reshape(ts, (-1, 4, 4)), (len(ts), 4, 4))) if ts else []


def end_of_partition(state: PauliState, noise: NoiseModel, category: str = "gate") -> None:
    """One clock step of memory noise: decohere then decay on all qubits.

    The model has already checked f, g and p.
    """
    _product(state, _clock_step(*noise.pair(category), noise.p))
