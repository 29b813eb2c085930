"""Dense-matrix reference simulator used to cross-check the Pauli-basis engine.

Everything here works on explicit 2^n x 2^n complex density matrices in the
computational basis.  One step interprets every instruction kind, for raw
circuits run ideally (``run_instructions_dense``) and for compiled schedules
under a noise model (``run_schedule_dense``), and every update it makes goes
through one channel kernel: ``superop`` turns the channel's own Kraus
operators, or a weighted set of unitaries, into a complex Liouville matrix
S = sum w K kron conj(K), and ``apply_superop`` applies S to the vectorised
rho as one gemm.  It views rho, with no copy, as blocks split at its
qubits' row and column bits, makes one transposed copy that brings those
bits to the front as a (4^k, 4^n / 4^k) matrix, multiplies it by S into
rho's own buffer and copies the result back into (row, column) order.  An
ideal gate is the channel of its one unitary; channels in sequence on the
same qubits are composed into one S first.  Every readout has one channel,
built by ``_readout_channel``: the projective measurement with weight d and
full depolarisation of its qubits with weight 1 - d.  Each readout applies
that channel and then reads its record from the state it leaves, as
Tr(P rho'); ``measure``, ``expect`` and ``bell`` take that trace on one
partial trace of rho' to their qubits.  ``apply_kraus`` and
``apply_unitary`` stay as the plain definitions that route is pinned to in
tests, and ``expectation`` as the whole-matrix route those three records are
pinned to; these three contract through ``_apply_on_axes``' tensordot, a
route the kernel does not share.  Every contraction refuses a qubit
outside the state or listed twice.  The point is an independent second
route for every operation the coefficient engine implements: nothing here
comes from the engine's kernels.  Intended for n <= ``ORACLE_QUBIT_CAP``.
"""

from __future__ import annotations

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
    if np.max(np.abs(d.rho - d.rho.conj().T)) > _HERM_TOL:
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


def random_state(n: int, rng: np.random.Generator) -> PauliState:
    """Random full-rank valid state, via a random positive matrix."""
    dim = 2**n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return from_dense(DenseState(n, rho))


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
    """Raise unless the weighted operators m[mu] satisfy sum w M^dagger M = I."""
    comp = np.einsum("k,kji,kjl->il", w, m.conj(), m)
    if np.max(np.abs(comp - np.eye(dim))) > 1e-10:
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
    w = np.ones(len(m)) if weights is None else np.asarray(weights, dtype=np.float64)
    dim = m.shape[1]
    _check_complete(m, w, dim)
    return np.einsum("k,kij,kab->iajb", w, m, m.conj()).reshape(dim * dim, dim * dim)


def apply_superop(d: DenseState, s: np.ndarray, qubits: tuple[int, ...]) -> None:
    """In-place rho <- S(rho) for a ``superop`` matrix on the listed qubits.

    rho is viewed, with no copy, as blocks: its row index split at the
    listed qubits' bits into (2^(n-1-q_hi), 2, ..., 2, 2^q_lo), its column
    index split the same way.  One transposed copy x brings the listed
    qubits' row bits, then their column bits, each in the listed order, to
    the front: a (4^k, 4^n / 4^k) matrix.  One gemm S @ x writes into rho's
    own buffer, which x no longer needs; one transposed copy puts that back
    in (row, column) order in x's buffer, and one plain copy returns it to
    rho.  x is the only array the kernel allocates.
    """
    n, k = d.n, len(qubits)
    _check_qubits(n, qubits, s, base=4)
    rho = d.rho = np.require(d.rho, np.complex128, "CW")
    # each index as (bits above q_1, q_1, bits between q_1 and q_2, q_2, ..., bits below q_k)
    order = sorted(qubits, reverse=True)
    shape = []
    for top, q in zip([n, *order], order):
        shape += [2 ** (top - 1 - q), 2]
    shape.append(2 ** min(qubits, default=n))
    m = len(shape)  # 2k + 1 axes: the listed bits at the odd ones
    listed = [2 * order.index(q) + 1 for q in qubits]
    rest = list(range(0, m, 2))
    perm = listed + [m + a for a in listed] + rest + [m + a for a in rest]
    blocks = shape + shape
    x = rho.reshape(blocks).transpose(perm).copy().reshape(4**k, -1)
    y = rho.reshape(4**k, -1)
    np.matmul(s, x, out=y)
    x.reshape(blocks).transpose(perm)[...] = y.reshape([blocks[a] for a in perm])
    rho[...] = x.reshape(2**n, 2**n)


def expectation(d: DenseState, op: np.ndarray, qubits: tuple[int, ...]) -> float:
    """Tr(rho * op) for an operator embedded on the listed qubits."""
    _check_qubits(d.n, qubits, op)
    t = d.rho.reshape((2,) * (2 * d.n))
    row_axes = tuple(d.n - 1 - q for q in qubits)
    t = _apply_on_axes(t, op, row_axes)
    return float(np.trace(t.reshape(2**d.n, 2**d.n)).real)


def _reduced(d: DenseState, qubits: tuple[int, ...]) -> np.ndarray:
    """Partial trace of rho over every qubit not listed; the first listed is kron-major."""
    n = d.n
    _check_qubits(n, qubits)
    rows = [n - 1 - i for i in range(n)]  # row axis i belongs to qubit n - 1 - i
    cols = [q + n if q in qubits else q for q in rows]  # a shared label is traced out
    out = [*qubits, *(q + n for q in qubits)]
    dim = 2 ** len(qubits)
    return np.einsum(d.rho.reshape((2,) * (2 * n)), rows + cols, out).reshape(dim, dim)


def _trace_product(op: np.ndarray, rho: np.ndarray) -> float:
    """Tr(op rho) with no matrix product."""
    return float(np.einsum("ij,ji->", op, rho).real)


# ---------------------------------------------------------------------------
# Gate unitaries (phase conventions irrelevant under conjugation)


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma_axis / 2)."""
    s = SIGMA[_AXIS_INDEX[axis]]
    return np.cos(theta / 2) * SIGMA[0] - 1j * np.sin(theta / 2) * s


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


def dense_measure_qubit(
    d: DenseState, k: int, axis_vec: np.ndarray, d1: float
) -> tuple[float, float]:
    """Single-qubit measurement along an axis: (p_plus, p_minus) with damping d1."""
    plus, minus = _axis_projectors(sum(axis_vec[i] * SIGMA[i + 1] for i in range(3)))
    apply_superop(d, _readout_channel([plus, minus], d1), (k,))
    p_plus = _trace_product(plus, _reduced(d, (k,)))
    return (p_plus, 1.0 - p_plus)


def dense_expect_string(d: DenseState, labels: list[int], d1: float) -> float:
    """Expectation of a Pauli string with readout damping; updates the state."""
    channels = {v: _readout_channel(_axis_projectors(SIGMA[v]), d1) for v in set(labels) - {0}}
    for k, v in enumerate(labels):
        if v:
            apply_superop(d, channels[v], (k,))
    support = tuple(k for k in reversed(range(d.n)) if labels[k])
    return _trace_product(_kron_qubits([SIGMA[labels[k]] for k in support]), _reduced(d, support))


def dense_ensemble(d: DenseState, d1: float) -> np.ndarray:
    """All-qubit computational-basis outcome probabilities; updates the state."""
    s = _readout_channel(_axis_projectors(SIGMA[3]), d1)
    for k in range(d.n):
        apply_superop(d, s, (k,))
    return np.diag(d.rho).real.copy()


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


def dense_bell(d: DenseState, k: int, l: int, d2: float) -> dict[str, float]:
    """Bell-basis measurement of qubits (k, l) with damping d2; updates state."""
    apply_superop(d, _readout_channel(list(_BELL_PROJECTORS), d2), (k, l))
    pair = _reduced(d, (k, l))
    return {lab: _trace_product(b, pair) for lab, b in zip(BELL_SIGNS, _BELL_PROJECTORS)}


def dense_reset(d: DenseState, k: int) -> None:
    """rho -> P0 rho P0 + X P1 rho P1 X on qubit k."""
    p0, p1 = _axis_projectors(SIGMA[3])
    apply_superop(d, superop([p0, SIGMA[1] @ p1]), (k,))


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


def _memory_channel(f: float, g: float, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The one-qubit decoherence + decay superoperator, and its 16x16 pair form."""
    s = superop(decay_kraus(g, p)) @ superop(decohere_kraus(f))
    # s is laid out (r c, r' c'); its pair form is (r0 r1 c0 c1, r0' r1' c0' c1')
    t = s.reshape(2, 2, 2, 2)
    return s, np.einsum("abxy,efuv->aebfxuyv", t, t).reshape(16, 16)


def _apply_memory(d: DenseState, s: np.ndarray, pair: np.ndarray) -> None:
    """The memory step of ``_memory_channel``: ``pair`` on qubits (0, 1), (2, 3), ..."""
    for k in range(0, d.n - 1, 2):
        apply_superop(d, pair, (k, k + 1))
    if d.n % 2:
        apply_superop(d, s, (d.n - 1,))


def dense_memory_step(d: DenseState, f: float, g: float, p: float) -> None:
    """Apply one decoherence + decay step to every qubit.

    The composed one-qubit superoperator is applied to two qubits per
    contraction, as its 16x16 pair form, which halves the passes over rho.
    """
    _apply_memory(d, *_memory_channel(f, g, p))


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

_MEASURE_AXES = {
    "measure": np.array([0.0, 0.0, 1.0]),
    "measure_x": np.array([1.0, 0.0, 0.0]),
    "measure_y": np.array([0.0, 1.0, 0.0]),
}


def _rotation_mixture(axis: str, theta: float, alpha: float, r: float) -> np.ndarray:
    """Superoperator of a noisy rotation: two angles theta + alpha +- arccos(r)."""
    delta0 = np.arccos(r)
    base = theta + alpha
    rotations = [rotation_matrix(axis, base + delta0), rotation_matrix(axis, base - delta0)]
    return superop(rotations, [0.5, 0.5])


def _mixture(mixtures: dict, axis: str, theta: float, noise) -> np.ndarray:
    """``_rotation_mixture`` under ``noise``, built once per key of ``mixtures``."""
    key = (axis, theta, *noise.axis(axis))
    s = mixtures.get(key)
    if s is None:
        s = mixtures[key] = _rotation_mixture(*key)
    return s


def _step(d: DenseState, ins, noise, records: list, mixtures: dict | None = None) -> None:
    """Apply one instruction to ``d``, appending a record for each readout.

    ``noise`` None is the ideal run: any gate kind as its exact unitary,
    d1 = d2 = 1, barriers skipped.  Under a NoiseModel only the schedule's
    u1, u3 and cx gates are allowed, as two-point angle mixtures (a u3's three
    mixtures composed into one 4x4).  ``mixtures`` keeps each mixture built,
    keyed by (axis, angle, alpha, r), for the steps that share it.
    """
    k = ins.kind
    mixtures = {} if mixtures is None else mixtures
    d1, d2 = (1.0, 1.0) if noise is None else (noise.d1, noise.d2)
    if k == "reset":
        dense_reset(d, ins.qubits[0])
    elif k in _MEASURE_AXES:
        probs = dense_measure_qubit(d, ins.qubits[0], _MEASURE_AXES[k], d1)
        records.append(("measure", ins.qubits[0], k, probs))
    elif k == "expect":
        labels = ["IXYZ".index(ch) for ch in reversed(ins.string)]  # qubit 0 rightmost
        records.append(("expect", ins.string, dense_expect_string(d, labels, d1)))
    elif k == "ensemble":
        probs = dense_ensemble(d, d1)
        records.append(("ensemble", {format(i, f"0{d.n}b"): float(p) for i, p in enumerate(probs)}))
    elif k == "bell":
        records.append(("bell", ins.qubits, dense_bell(d, *ins.qubits, d2)))
    elif noise is None:
        if k in _GATE_UNITARY:
            apply_superop(d, superop([_GATE_UNITARY[k](ins.angles)]), ins.qubits)
        elif k != "barrier":
            raise ValueError(f"unknown instruction kind {k!r}")
    elif k == "u1":
        apply_superop(d, _mixture(mixtures, "z", ins.angles[0], noise), ins.qubits)
    elif k == "u3":
        theta, phi, lam = ins.angles
        s = (
            _mixture(mixtures, "z", phi, noise)
            @ _mixture(mixtures, "y", theta, noise)
            @ _mixture(mixtures, "z", lam, noise)
        )
        apply_superop(d, s, ins.qubits)
    elif k == "cx":
        delta0 = np.arccos(noise.r_cx)
        pulses = [cnot_matrix(noise.alpha_cx + delta0), cnot_matrix(noise.alpha_cx - delta0)]
        apply_superop(d, superop(pulses, [0.5, 0.5]), ins.qubits)
    else:
        raise ValueError(f"unexpected instruction kind {k!r} in a schedule")


def run_instructions_dense(d: DenseState, instructions) -> list:
    """Execute raw instructions in source order with zero noise.

    The same step as ``run_schedule_dense`` with no noise model: each gate is
    the ``apply_superop`` channel of its exact unitary, measurements are ideal
    projective channels (with their non-selective updates), barriers do
    nothing.  Returns the measurement records as plain tuples; mutates ``d``.
    """
    records: list = []
    for ins in instructions:
        _step(d, ins, None, records)
    return records


def run_schedule_dense(d: DenseState, schedule, noise) -> list:
    """Execute a compiled schedule with the full noise model, densely.

    Mirrors the coefficient engine step for step: each member through the
    same step as ``run_instructions_dense`` under ``noise`` (a NoiseModel),
    then one memory-noise step after every partition of ``schedule``.  The
    memory channel is built once per distinct (f, g) pair of the schedule's
    partition categories, not once per partition, and each rotation
    mixture once per distinct (axis, angle, alpha, r), not once per gate.
    """
    records: list = []
    channels: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}
    mixtures: dict[tuple[str, float, float, float], np.ndarray] = {}
    for part in schedule.partitions:
        for ins in part.members:
            _step(d, ins, noise, records, mixtures)
        fg = noise.pair(part.category)
        if fg not in channels:
            channels[fg] = _memory_channel(*fg, noise.p)
        _apply_memory(d, *channels[fg])
    return records
