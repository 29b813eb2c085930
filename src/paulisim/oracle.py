"""Dense-matrix reference simulator used to cross-check the Pauli-basis engine.

Everything here works on explicit 2^n x 2^n complex density matrices in the
computational basis.  The point is an independent second route for every
operation the coefficient engine implements: nothing here comes from the
engine's kernels.  Intended for n <= ``ORACLE_QUBIT_CAP``.

Every channel is a complex Liouville matrix S = sum w K kron conj(K)
(``superop``) of its own Kraus operators or of a weighted set of unitaries,
and S2 @ S1 is S1 followed by S2.  A run is one ``_Run`` over one
DenseState: vec(rho) in a moved bit order with one spare buffer, one
pending 4x4 factor per qubit, the run's readout channels and its records.
Both entry points loop over its ``step``: ``run_instructions_dense`` runs
raw instructions ideally, each gate the channel of its unitary, and
``run_schedule_dense`` runs a compiled schedule under a noise model, with
every channel built once before its loop (the rotation mixtures as one
stack per axis) and each partition's memory channel composed into every
qubit's factor by ``end_partition``.

A one-qubit channel makes no pass: ``defer`` composes it after its qubit's
factor.  That covers gates, rotation mixtures, reset, the memory step and
the readout channels of ``measure`` and ``expect``, which read their record
by pulling each qubit's effect back through its factor and contracting the
effects with rho one qubit at a time, straight from its moved layout and
with no array bigger than a quarter of rho.  Every other update is one
pass, ``_Run.apply``: it takes the listed qubits' factors, composes its S
after them, and makes at most one transposed copy into the spare buffer
and one gemm; nothing is copied back.  A cx, ccx or ``bell`` is one pass,
``ensemble`` applies every factor in ceil(n/2) pair passes and reads the
diagonal, and ``finish`` applies what is left in pairs and puts rho back in
(row, column) order in its own buffer.  Every readout has one channel,
built by ``_readout_channel``: the projective measurement with weight d and
full depolarisation of its qubits with weight 1 - d; its record is read
from the state that channel leaves.

Before rho changes, ``run_schedule_dense`` has the schedule check itself
(``Schedule.angles``, the engine's check too), so both refuse the same
members alike; that check holds no linear algebra, and every channel here
is the oracle's own, built from the angles it returns.

``apply_kraus`` and ``apply_unitary`` stay as the plain definitions the
passes are pinned to in tests, and ``expectation`` as the whole-matrix
route the records are pinned to; these three contract through
``_apply_on_axes``' tensordot, a route the run does not share.  Every
contraction and every run refuses a qubit outside the state or listed
twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .state import PauliState

SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

_AXIS_INDEX = {"x": 1, "y": 2, "z": 3}

#: Largest qubit count ``verify_circuit`` hands to the oracle: a 2^8 x 2^8
#: complex matrix is 1 MiB, and each added qubit quadruples it.
ORACLE_QUBIT_CAP = 8

#: Largest |rho - rho^dagger| entry ``from_dense`` accepts.
_HERM_TOL = 1e-10


@dataclass
class DenseState:
    """n qubits plus the full complex density matrix.

    Row/column bit k (counted from the least significant end) belongs to
    qubit k, matching the bit convention of the coefficient representation.
    """

    n: int
    rho: np.ndarray


# ---------------------------------------------------------------------------
# Basis conversion


def to_dense(s: PauliState) -> DenseState:
    """Reassemble the full density matrix from Pauli coefficients."""
    t = s.tensor().astype(np.complex128)
    for _ in range(s.n):
        # consume the leading digit axis, appending its (row, col) pair
        t = np.tensordot(t, SIGMA, axes=([0], [0]))
    # axes now (r_{n-1}, c_{n-1}, ..., r_0, c_0); group rows then cols
    perm = list(range(0, 2 * s.n, 2)) + list(range(1, 2 * s.n, 2))
    rho = t.transpose(perm).reshape(2**s.n, 2**s.n)
    return DenseState(s.n, rho)


def from_dense(d: DenseState) -> PauliState:
    """Project a density matrix onto the Pauli basis: a_i = 2^-n Tr(rho P_i)."""
    if not np.max(np.abs(d.rho - d.rho.conj().T)) <= _HERM_TOL:  # negated, so that a NaN fails
        raise ValueError("matrix is not Hermitian within tolerance")
    t = d.rho.reshape((2,) * (2 * d.n))
    m = d.n
    for _ in range(d.n):
        # contract the outermost (row, col) pair against sigma[i, c, r]
        t = np.tensordot(t, SIGMA, axes=([0, m], [2, 1]))
        m -= 1
    coeffs = t.real.reshape(-1) / 2**d.n
    return PauliState(d.n, coeffs)


# ---------------------------------------------------------------------------
# Dense initialisations (built directly, not via PauliState)


_BASIS = {
    "0": np.diag([1.0, 0.0]).astype(np.complex128),
    "1": np.diag([0.0, 1.0]).astype(np.complex128),
}


def _kron_qubits(singles: list[np.ndarray]) -> np.ndarray:
    """kron of one 2x2 matrix per qubit, most significant qubit first."""
    out = np.ones((1, 1), dtype=np.complex128)
    for single in singles:
        out = np.kron(out, single)
    return out


def dense_zero(n: int) -> DenseState:
    return DenseState(n, _kron_qubits([_BASIS["0"]] * n))


def dense_uniform(n: int) -> DenseState:
    return DenseState(n, _kron_qubits([np.full((2, 2), 0.5, dtype=np.complex128)] * n))


def dense_bitstring(bits: str) -> DenseState:
    return DenseState(len(bits), _kron_qubits([_BASIS[b] for b in bits]))


def dense_thermal(n: int, p: float) -> DenseState:
    return DenseState(n, _kron_qubits([np.diag([p, 1.0 - p]).astype(np.complex128)] * n))


# ---------------------------------------------------------------------------
# Operator application


def _check_qubits(n: int, qubits: tuple[int, ...], op=None, base: int = 2) -> None:
    """Raise unless ``qubits`` are distinct qubits of an n-qubit state and the
    last two axes of ``op``, if given, are base^k x base^k for k = len(qubits)."""
    for q in qubits:
        if not 0 <= q < n:
            raise IndexError(f"qubit index {q} out of range for n={n}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubits {tuple(qubits)} repeat a qubit")
    want = (base ** len(qubits),) * 2
    if op is not None and np.shape(op)[-2:] != want:
        raise ValueError(f"operator of shape {np.shape(op)} on qubits {tuple(qubits)}, want {want}")


def _apply_on_axes(t: np.ndarray, m: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract operator ``m`` (2^k x 2^k) into tensor ``t`` on the given axes."""
    k = len(axes)
    mt = m.reshape((2,) * (2 * k))
    out = np.tensordot(mt, t, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def apply_unitary(d: DenseState, u: np.ndarray, qubits: tuple[int, ...]) -> None:
    """In-place rho <- U rho U^dagger with U acting on the listed qubits.

    ``u`` is laid out with the first listed qubit as the kron-major slot.
    """
    n = d.n
    _check_qubits(n, qubits, u)
    t = d.rho.reshape((2,) * (2 * n))
    row_axes = tuple(n - 1 - q for q in qubits)
    col_axes = tuple(2 * n - 1 - q for q in qubits)
    t = _apply_on_axes(t, u, row_axes)
    t = _apply_on_axes(t, u.conj(), col_axes)
    d.rho = t.reshape(2**n, 2**n)


def _check_complete(m: np.ndarray, w: np.ndarray, dim: int) -> None:
    """Raise unless the weighted operators m[..., mu, :, :] satisfy sum w M^dagger M = I.

    ``m`` is one set (K, dim, dim) or a stack (..., K, dim, dim) of sets,
    all checked in one comparison, which a NaN fails.
    """
    comp = np.einsum("k,...kji,...kjl->...il", w, m.conj(), m)
    if not np.max(np.abs(comp - np.eye(dim)), initial=0.0) <= 1e-10:
        raise ValueError("Kraus set does not resolve the identity within 1e-10")


def apply_kraus(d: DenseState, kraus: list[np.ndarray], qubits: tuple[int, ...]) -> None:
    """In-place rho <- sum_mu M_mu rho M_mu^dagger on the listed qubits."""
    ops = np.asarray(kraus)
    _check_qubits(d.n, qubits, ops)
    _check_complete(ops, np.ones(len(ops)), 2 ** len(qubits))
    n = d.n
    row_axes = tuple(n - 1 - q for q in qubits)
    col_axes = tuple(2 * n - 1 - q for q in qubits)
    t = d.rho.reshape((2,) * (2 * n))
    acc = np.zeros_like(t)
    for m in kraus:
        term = _apply_on_axes(t, m, row_axes)
        acc += _apply_on_axes(term, m.conj(), col_axes)
    d.rho = acc.reshape(2**n, 2**n)


def superop(ops: list[np.ndarray], weights: list[float] | None = None) -> np.ndarray:
    """Liouville matrix S = sum_mu w_mu M_mu kron conj(M_mu) of a channel.

    ``ops`` are Kraus operators (every weight 1 by default) or unitaries
    mixed with the given weights; the set must resolve the identity,
    sum w M^dagger M = I, within 1e-10.  S is 4^k x 4^k for k qubits and acts
    on the row-major vectorisation of the operand: the row bits of the
    qubits, then their column bits, each in ``ops``' kron order.  S2 @ S1 is
    the channel S1 followed by S2.
    """
    m = np.asarray(ops, dtype=np.complex128)
    return _superops(m, np.ones(len(m)) if weights is None else np.asarray(weights, dtype=np.float64))


def _superops(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``superop`` of every set of a stack (..., K, dim, dim) of weighted
    operator sets, as a (..., dim^2, dim^2) stack, with one completeness
    check for the whole stack."""
    dim = m.shape[-1]
    _check_complete(m, w, dim)
    s = np.einsum("k,...kij,...kab->...iajb", w, m, m.conj())
    return s.reshape(*m.shape[:-3], dim * dim, dim * dim)


def _transposed_copy(src: np.ndarray, src_axes: list, dst: np.ndarray, dst_axes: list) -> None:
    """Copy the (2,) * m tensor ``src``, whose axis i holds bit src_axes[i],
    into ``dst`` laid out as ``dst_axes``.  numpy's copy loop merges the axes
    that stay adjacent and in order into one."""
    at = {a: i for i, a in enumerate(src_axes)}
    m = len(src_axes)
    dst.reshape((2,) * m)[...] = src.reshape((2,) * m).transpose([at[a] for a in dst_axes])


def _kron_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Liouville matrix of channel a on the first listed qubits and b on the rest.

    Each is laid out as ``superop`` lays it out, (rows, columns) by (rows',
    columns'); the result takes a's row bits, then b's, then a's column bits,
    then b's, on both sides.
    """
    da, db = (int(np.sqrt(x.shape[0])) for x in (a, b))
    ta, tb = a.reshape(da, da, da, da), b.reshape(db, db, db, db)
    return np.einsum("abxy,efuv->aebfxuyv", ta, tb).reshape(da * da * db * db, -1)


_IDENTITY_1Q = np.eye(4, dtype=np.complex128)


def expectation(d: DenseState, op: np.ndarray, qubits: tuple[int, ...]) -> float:
    """Tr(rho * op) for an operator embedded on the listed qubits."""
    _check_qubits(d.n, qubits, op)
    t = d.rho.reshape((2,) * (2 * d.n))
    row_axes = tuple(d.n - 1 - q for q in qubits)
    t = _apply_on_axes(t, op, row_axes)
    return float(np.trace(t.reshape(2**d.n, 2**d.n)).real)


def _trace_product(op: np.ndarray, rho: np.ndarray) -> float:
    """Tr(op rho) with no matrix product."""
    return float(np.einsum("ij,ji->", op, rho).real)


# ---------------------------------------------------------------------------
# Gate unitaries (phase conventions irrelevant under conjugation)


def _rotations(axis: str, thetas: np.ndarray) -> np.ndarray:
    """(N, 2, 2) stack of exp(-i theta sigma_axis / 2) for a 1-D array of N angles."""
    half = (thetas / 2)[:, None, None]
    return np.cos(half) * SIGMA[0] - 1j * np.sin(half) * SIGMA[_AXIS_INDEX[axis]]


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma_axis / 2): a stack of one."""
    return _rotations(axis, np.array([theta], dtype=np.float64))[0]


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def u1_matrix(lam: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * lam)]).astype(np.complex128)


NAMED_1Q = {
    "x": SIGMA[1],
    "y": SIGMA[2],
    "z": SIGMA[3],
    "h": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2),
    "s": np.diag([1, 1j]).astype(np.complex128),
    "sdg": np.diag([1, -1j]).astype(np.complex128),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]).astype(np.complex128),
    "tdg": np.diag([1, np.exp(-1j * np.pi / 4)]).astype(np.complex128),
}


def cnot_matrix(alpha: float = 0.0) -> np.ndarray:
    """Controlled bit-flip, control in the kron-major slot.

    ``alpha`` is the pulse-duration error angle: the target operation becomes
    R_x(alpha) sigma_x instead of sigma_x.
    """
    v = rotation_matrix("x", alpha) @ SIGMA[1]
    u = np.zeros((4, 4), dtype=np.complex128)
    u[:2, :2] = np.eye(2)
    u[2:, 2:] = v
    return u


def toffoli_matrix() -> np.ndarray:
    u = np.eye(8, dtype=np.complex128)
    u[[6, 7], [6, 7]] = 0.0
    u[6, 7] = u[7, 6] = 1.0
    return u


#: The oracle's own unitary for each gate kind, as a function of its angles.
_GATE_UNITARY = {
    **{kind: (lambda angles, u=u: u) for kind, u in NAMED_1Q.items()},
    "u1": lambda angles: u1_matrix(*angles),
    "u2": lambda angles: u3_matrix(np.pi / 2, *angles),
    "u3": lambda angles: u3_matrix(*angles),
    "cx": lambda angles: cnot_matrix(),
    "ccx": lambda angles: toffoli_matrix(),
}


# ---------------------------------------------------------------------------
# Measurement and reset channels (dense forms of the noisy updates)


def _axis_projectors(op: np.ndarray) -> list[np.ndarray]:
    """The two projectors (I + op)/2 and (I - op)/2 of a one-qubit axis observable."""
    return [(SIGMA[0] + op) / 2, (SIGMA[0] - op) / 2]


def _readout_channel(projectors: list[np.ndarray], d: float) -> np.ndarray:
    """Superoperator of a readout on k qubits with damping d.

    With weight d the projective measurement onto ``projectors``, with weight
    1 - d full depolarisation of the same k qubits: the identity component
    stays, the measured components are scaled by d and every other one goes.
    """
    k = projectors[0].shape[0].bit_length() - 1
    return superop(
        [*projectors, *_pauli_products(k)], [d] * len(projectors) + [(1 - d) / 4**k] * 4**k
    )


#: The unit x, y and z axes.
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _axis_observable(axis: tuple[float, float, float]) -> np.ndarray:
    return sum(a * SIGMA[i + 1] for i, a in enumerate(axis))


def _axis_readout(axis: tuple[float, float, float], d: float) -> np.ndarray:
    """The readout channel of a one-qubit measurement along ``axis``."""
    return _readout_channel(_axis_projectors(_axis_observable(axis)), d)


BELL_SIGNS = {
    "phi+": (1.0, -1.0, 1.0),
    "phi-": (-1.0, 1.0, 1.0),
    "psi+": (1.0, 1.0, -1.0),
    "psi-": (-1.0, -1.0, -1.0),
}


def _bell_projector(signs: tuple[float, float, float]) -> np.ndarray:
    acc = np.kron(SIGMA[0], SIGMA[0]).astype(np.complex128)
    for j, s in enumerate(signs, start=1):
        acc = acc + s * np.kron(SIGMA[j], SIGMA[j])
    return acc / 4


# the four Bell projectors, in BELL_SIGNS order
_BELL_PROJECTORS = tuple(_bell_projector(signs) for signs in BELL_SIGNS.values())


def _readouts(d1: float, d2: float) -> tuple:
    """A run's readout channels: the x, y and z readouts with damping d1,
    and the Bell readout with damping d2."""
    return tuple(_axis_readout(axis, d1) for axis in _AXES), _readout_channel(list(_BELL_PROJECTORS), d2)


# the superoperator of reset: rho -> P0 rho P0 + X P1 rho P1 X
_RESET = superop([m @ p for m, p in zip(SIGMA[:2], _axis_projectors(SIGMA[3]))])


# ---------------------------------------------------------------------------
# Memory noise channels


def decohere_kraus(f: float) -> list[np.ndarray]:
    return [
        np.sqrt((1 + f) / 2) * SIGMA[0],
        np.sqrt((1 - f) / 2) * SIGMA[3],
    ]


def decay_kraus(g: float, p: float) -> list[np.ndarray]:
    sg = np.sqrt(g)
    s1g = np.sqrt(1 - g)
    return [
        np.sqrt(p) * np.array([[1, 0], [0, sg]], dtype=np.complex128),
        np.sqrt(p) * np.array([[0, s1g], [0, 0]], dtype=np.complex128),
        np.sqrt(1 - p) * np.array([[sg, 0], [0, 1]], dtype=np.complex128),
        np.sqrt(1 - p) * np.array([[0, 0], [s1g, 0]], dtype=np.complex128),
    ]


def _memory_channel(f: float, g: float, p: float) -> np.ndarray:
    """The one-qubit decoherence + decay superoperator."""
    return superop(decay_kraus(g, p)) @ superop(decohere_kraus(f))


# ---------------------------------------------------------------------------
# Complete-positivity certification


def _pauli_products(m: int) -> np.ndarray:
    """The 4^m Pauli-product basis as a (4^m, 2^m, 2^m) stack, first operand kron-major."""
    ops = np.ones((1, 1, 1), dtype=np.complex128)
    for _ in range(m):
        dim = 2 * ops.shape[1]  # one kron per pair: (a, c) rows, (b, d) columns
        ops = np.einsum("kab,icd->kiacbd", ops, SIGMA).reshape(-1, dim, dim)
    return ops


def choi_matrix(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix of a channel given by its Pauli transfer matrix.

    Uses J = (1/d) sum_{k,i} T[i,k] (P_k^T kron P_i); the channel is
    completely positive exactly when J is positive semidefinite.
    """
    size = ptm.shape[0]
    m = {4: 1, 16: 2}.get(size)
    if m is None:
        raise ValueError("expected a 4x4 or 16x16 transfer matrix")
    basis = _pauli_products(m)
    d = 2**m
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in range(size):
        for i in range(size):
            if ptm[i, k] != 0.0:
                j += ptm[i, k] * np.kron(basis[k].T, basis[i])
    return j / d


def choi_psd_check(ptm: np.ndarray) -> float:
    """Smallest eigenvalue of the channel's Choi matrix (>= 0 means CP)."""
    j = choi_matrix(ptm)
    return float(np.linalg.eigvalsh((j + j.conj().T) / 2).min())


# ---------------------------------------------------------------------------
# Circuit execution (dual path for the coefficient engine)

# each measure mnemonic's row in a run's x, y, z readout channels
_MEASURE_AXES = {"measure_x": 0, "measure_y": 1, "measure": 2}


def _rotation_mixtures(axis: str, thetas: np.ndarray, alpha: float, r: float) -> np.ndarray:
    """(N, 4, 4) stack of noisy rotation superoperators, one per angle of the
    1-D array ``thetas``: each the equal mixture of the rotations by theta +
    alpha +- arccos(r), with one completeness check for the whole stack."""
    delta0 = np.arccos(r)
    base = thetas + alpha
    rotations = _rotations(axis, np.stack([base + delta0, base - delta0], axis=1).reshape(-1))
    return _superops(rotations.reshape(len(thetas), 2, 2, 2), np.array([0.5, 0.5]))


def _cx_mixture(alpha: float, r: float) -> np.ndarray:
    """Superoperator of a noisy cx: two pulses with error angles alpha +- arccos(r)."""
    delta0 = np.arccos(r)
    return superop([cnot_matrix(alpha + delta0), cnot_matrix(alpha - delta0)], [0.5, 0.5])


def _schedule_channels(n: int, schedule, noise) -> tuple:
    """Every noisy gate and memory channel a run of ``schedule`` on n qubits
    needs, each built once, after ``Schedule.angles`` has checked every
    member and gathered the angles.

    The u1 angles and the u3 phis and lambdas make one z stack and the u3
    thetas one y stack (``_rotation_mixtures``), and each u3's Rz(phi)
    Ry(theta) Rz(lam) is two stacked matmuls, associated as (Rz Ry) Rz.
    The cx channel is built once per call, whether the schedule holds a cx
    or not.  Returns an iterator over every member's gate channel in
    schedule order (None for a member that is not a gate) and the memory
    channel of each (f, g) pair of the schedule's partition categories:
    None for f = g = 1, whose step is the identity.
    """
    u1, u3 = schedule.angles(n)
    thetas, phis, lams = np.array(u3, dtype=np.float64).reshape(-1, 3).T
    z = _rotation_mixtures("z", np.concatenate([u1, phis, lams]), *noise.axis("z"))
    y = _rotation_mixtures("y", thetas, *noise.axis("y"))
    n1, n3 = len(u1), len(u3)
    stacks = {"u1": iter(z[:n1]), "u3": iter(np.matmul(np.matmul(z[n1 : n1 + n3], y), z[n1 + n3 :]))}
    stacks["cx"] = itertools.repeat(_cx_mixture(noise.alpha_cx, noise.r_cx))
    members = (ins for part in schedule.partitions for ins in part.members)
    gates = [next(stacks[ins.kind]) if ins.kind in stacks else None for ins in members]
    pairs = {noise.pair(part.category) for part in schedule.partitions}
    return iter(gates), {fg: None if fg == (1.0, 1.0) else _memory_channel(*fg, noise.p) for fg in pairs}


class _Run:
    """One oracle run over a DenseState: vec(rho), the pending factors, the
    readout channels and the records.

    ``cur`` holds the 4^n entries of the row-major vec(rho) as a (2,) * 2n
    tensor whose axis i holds bit ``axes[i]``: bit n + q is qubit q's row
    bit and bit q its column bit, so (2n - 1, ..., 0) is (row, column)
    order.  ``spare`` is the one other buffer, and ``home`` d.rho's own.
    ``pending`` maps a qubit to the 4x4 factor still to be applied to it,
    ``axis_readouts`` and ``bell_readout`` are ``_readouts``' pair, and
    ``records`` gets one record per readout.  ``finish`` leaves rho in
    order in d.rho's own buffer.
    """

    def __init__(self, d: DenseState, readouts: tuple):
        d.rho = np.require(d.rho, np.complex128, "CW")
        self.n = d.n
        self.home = self.cur = d.rho.reshape(-1)
        self.spare = np.empty_like(self.cur)
        self.axes = list(range(2 * d.n - 1, -1, -1))
        self.pending: dict[int, np.ndarray] = {}
        self.axis_readouts, self.bell_readout = readouts
        self.records: list = []

    def _move(self, axes: list) -> None:
        _transposed_copy(self.cur, self.axes, self.spare, axes)
        self.axes = axes
        self.cur, self.spare = self.spare, self.cur

    def apply(self, qubits: tuple[int, ...], s: np.ndarray | None = None) -> None:
        """One pass: the listed qubits' pending factors, taken, then ``s``.

        The factors make one Liouville matrix, the first listed qubit
        kron-major and a qubit with none taking I, and ``s``, a ``superop``
        matrix on the listed qubits, composes after it; with no factor
        pending on any of them the pass is ``s`` alone.  Unless the qubits'
        row bits, then their column bits, each in the listed order, lead the
        axes already, one transposed copy into the spare buffer brings them
        to the front, every other bit keeping its order, and the buffers
        swap.  Then one gemm, as a (4^k, 4^n / 4^k) matrix, writes into the
        spare buffer and they swap again: no copy goes back.
        """
        n, k = self.n, len(qubits)
        _check_qubits(n, qubits, s, base=4)
        t = s
        if any(q in self.pending for q in qubits):
            t = self.pending.pop(qubits[0], _IDENTITY_1Q)
            for q in qubits[1:]:
                t = _kron_superop(t, self.pending.pop(q, _IDENTITY_1Q))
            if s is not None:
                t = s @ t
        front = [n + q for q in qubits] + list(qubits)
        if self.axes[: 2 * k] != front:
            self._move(front + [a for a in self.axes if a not in front])
        np.matmul(t, self.cur.reshape(4**k, -1), out=self.spare.reshape(4**k, -1))
        self.cur, self.spare = self.spare, self.cur

    def defer(self, q: int, s: np.ndarray) -> None:
        """Compose the one-qubit channel ``s`` after qubit q's pending factor: no pass."""
        _check_qubits(self.n, (q,))
        self.pending[q] = s @ self.pending[q] if q in self.pending else s

    def end_partition(self, s: np.ndarray | None) -> None:
        """``defer`` of the memory channel ``s`` on every qubit: one stacked
        matmul composes it after every pending factor, and a qubit with none
        takes s.  None is the f = g = 1 step, which composes nothing."""
        if s is None:
            return
        held = list(self.pending)
        if held:
            self.pending.update(zip(held, np.matmul(s, np.array([self.pending[q] for q in held]))))
        for q in range(self.n):
            self.pending.setdefault(q, s)

    def _apply_pending(self) -> None:
        """Apply every pending factor, two qubits per pass, in qubit order."""
        held = sorted(self.pending)
        for i in range(0, len(held), 2):
            self.apply(tuple(held[i : i + 2]))

    def finish(self) -> None:
        """Apply every factor still pending, two qubits per pass, and put rho
        back in (row, column) order in d.rho's own buffer."""
        self._apply_pending()
        order = list(range(2 * self.n - 1, -1, -1))
        if self.cur is self.home and self.axes != order:
            self._move(order)
        if self.cur is not self.home:
            _transposed_copy(self.cur, self.axes, self.home, order)
            self.cur, self.spare = self.spare, self.cur
        self.axes = order

    def _operand(self, kept: tuple[int, ...]) -> tuple[np.ndarray, list[int]]:
        """rho as a (2,) * 2n tensor, and einsum labels for its axes that trace
        out every qubit not in ``kept``: such a qubit's row bit n + q takes
        its column bit's label q."""
        n = self.n
        labels = [a - n if a >= n and a - n not in kept else a for a in self.axes]
        return self.cur.reshape((2,) * (2 * n)), labels

    def _reduced(self, qubits: tuple[int, ...]) -> np.ndarray:
        """Partial trace of rho over every qubit not listed, in an array of
        its own; the first listed is kron-major."""
        n, m = self.n, len(qubits)
        _check_qubits(n, qubits)
        # with nothing traced out einsum returns a view of rho, so copy
        out = np.einsum(*self._operand(qubits), [n + q for q in qubits] + list(qubits))
        return out.copy().reshape(2**m, 2**m)

    def _diagonal(self) -> np.ndarray:
        """The diagonal of rho, as real numbers in an array of its own."""
        n = self.n
        diagonal = np.einsum(*self._operand(()), list(range(n - 1, -1, -1)))
        return np.array(diagonal.real).reshape(-1)

    def _read(self, qubits: tuple[int, ...], effects: list[np.ndarray]) -> float:
        """Tr(E rho') for E = effects[0] kron effects[1] kron ..., one 2x2
        effect per listed qubit, and rho' rho with their pending factors
        applied; the factors stay pending.

        Each effect is pulled back through its qubit's factor S instead:
        Tr(E S(rho)) = Tr(F rho) with vec(F^T) = S^T vec(E^T).  A factor
        pending on any other qubit is trace-preserving, so it cannot change
        the result.  Each pulled-back effect is contracted in turn, the first
        listed (kron-major) first, and the first contraction reads rho
        straight from the moved layout and traces every unlisted qubit out
        on the way, so no read makes an array bigger than a quarter of rho.
        """
        n = self.n
        _check_qubits(n, qubits)
        rho, labels = self._operand(qubits)
        for i, (q, e) in enumerate(zip(qubits, effects)):
            if q in self.pending:
                e = (self.pending[q].T @ e.T.reshape(-1)).reshape(2, 2).T
            kept = [a for a in labels if a % n in qubits[i + 1 :]]
            # Tr(F rho) sums F[column, row] rho[row, column]
            rho, labels = np.einsum(rho, labels, e, [q, n + q], kept, order="C"), kept
        return float(np.einsum(rho, labels, []).real)

    def measure(self, q: int, axis: tuple, s: np.ndarray) -> tuple:
        """(p_plus, p_minus) of qubit q measured along ``axis``, whose readout
        channel is ``s``: no pass over rho."""
        self.defer(q, s)
        p_plus = self._read((q,), _axis_projectors(_axis_observable(axis))[:1])
        return (p_plus, 1.0 - p_plus)

    def expect(self, labels: list[int]) -> float:
        """The Pauli string with SIGMA[labels[q]] on qubit q: no pass over rho."""
        for q, label in enumerate(labels):
            if label:
                self.defer(q, self.axis_readouts[label - 1])
        support = tuple(q for q in reversed(range(self.n)) if labels[q])
        return self._read(support, [SIGMA[labels[q]] for q in support])

    def ensemble(self) -> np.ndarray:
        """Every computational-basis outcome's probability: ceil(n/2) passes."""
        for q in range(self.n):
            self.defer(q, self.axis_readouts[2])
        self._apply_pending()
        return self._diagonal()

    def bell(self, k: int, l: int) -> dict[str, float]:
        """Bell-basis probabilities of qubits (k, l): one pass, which takes their factors."""
        self.apply((k, l), self.bell_readout)
        pair = self._reduced((k, l))
        return {lab: _trace_product(b, pair) for lab, b in zip(BELL_SIGNS, _BELL_PROJECTORS)}

    def step(self, ins, s: np.ndarray | None) -> None:
        """Apply one instruction, appending a record for each readout.

        ``s`` is the channel of a gate, built by the caller (None for any
        other kind).  A one-qubit channel is deferred; a cx or ccx is one
        pass; a barrier does nothing.
        """
        k = ins.kind
        if k in _MEASURE_AXES:
            q, i = ins.qubits[0], _MEASURE_AXES[k]
            self.records.append(("measure", q, k, self.measure(q, _AXES[i], self.axis_readouts[i])))
        elif k == "expect":
            labels = ["IXYZ".index(ch) for ch in reversed(ins.string)]  # qubit 0 rightmost
            self.records.append(("expect", ins.string, self.expect(labels)))
        elif k == "ensemble":
            probs = self.ensemble()
            self.records.append(("ensemble", {format(i, f"0{self.n}b"): float(p) for i, p in enumerate(probs)}))
        elif k == "bell":
            self.records.append(("bell", ins.qubits, self.bell(*ins.qubits)))
        elif k == "reset":
            self.defer(ins.qubits[0], _RESET)
        elif s is None:
            if k != "barrier":
                raise ValueError(f"unknown instruction kind {k!r}")
        elif len(ins.qubits) == 1:
            self.defer(ins.qubits[0], s)
        else:
            self.apply(ins.qubits, s)


def run_instructions_dense(d: DenseState, instructions) -> list:
    """Execute raw instructions in source order with zero noise.

    One ``_Run`` steps through them: each gate is the channel of its exact
    unitary, built at its step, measurements are ideal projective channels
    (with their non-selective updates), barriers do nothing, and a qubit
    outside the state raises ``IndexError`` and an angle that is not finite
    ``ValueError`` at its step, before its channel is built.  The run
    finishes before it returns, or raises with every instruction before the
    failing one applied.  Returns the measurement records as plain tuples;
    mutates ``d``.
    """
    run = _Run(d, _readouts(1.0, 1.0))
    try:
        for ins in instructions:
            u = _GATE_UNITARY.get(ins.kind)
            if u is not None and not np.isfinite(ins.angles).all():
                raise ValueError(f"{ins.kind} needs finite angles, got {ins.angles}")
            run.step(ins, None if u is None else superop([u(ins.angles)]))
    finally:
        run.finish()
    return run.records


def run_schedule_dense(d: DenseState, schedule, noise) -> list:
    """Execute a compiled schedule with the full noise model, densely.

    Before rho changes the schedule checks itself and every noisy channel
    the run needs is built once (``_schedule_channels``).  One ``_Run`` then
    steps through the members as ``run_instructions_dense`` does, and after
    every partition ``end_partition`` composes its category's memory channel
    into every qubit's pending factor, so a memory step makes no pass of its
    own.
    """
    gates, memory = _schedule_channels(d.n, schedule, noise)
    run = _Run(d, _readouts(noise.d1, noise.d2))
    try:
        for part in schedule.partitions:
            for ins in part.members:
                run.step(ins, next(gates))
            run.end_partition(memory[noise.pair(part.category)])
    finally:
        run.finish()
    return run.records
