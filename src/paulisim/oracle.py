"""Dense-matrix reference simulator used to cross-check the Pauli-basis engine.

Everything here works on explicit 2^n x 2^n complex density matrices in the
computational basis.  One step interprets every instruction kind, for raw
circuits run ideally (``run_instructions_dense``) and for compiled schedules
under a noise model (``run_schedule_dense``), and every update it makes goes
through one channel kernel: ``superop`` turns the channel's own Kraus
operators, or a weighted set of unitaries, into a complex Liouville matrix
S = sum w K kron conj(K), and ``_Vec`` applies S to the vectorised rho as
one gemm.  Within one run ``_Vec`` keeps vec(rho) in a moved bit order with
one spare buffer: a pass makes one transposed copy into the spare buffer
that brings its qubits' row and column bits to the front, and only when
they are not there already, then one gemm into the other buffer, and the
two swap; nothing is copied back.  The run puts rho back in (row, column) order,
in its own buffer, once at its end; ``apply_superop`` is that kernel run
for one pass.  An ideal gate is the channel of its one unitary; channels in
sequence on the same qubits are composed into one S first, and channels on
different qubits commute.  So within one run a one-qubit channel (a gate, a
noisy rotation mixture, reset, the memory step, and each one-qubit readout
channel) makes no pass: it composes into its qubit's pending 4x4 factor.  A
cx, ccx or ``bell`` takes its qubits' pending factors into its own S and
makes one pass, ``ensemble`` applies every factor in ceil(n/2) pair passes,
and the run applies what is left, two qubits per pass, before it returns.
Every readout has one channel, built by ``_readout_channel``: the
projective measurement with weight d and full depolarisation of its qubits
with weight 1 - d.  Each readout reads its record from the state that
channel leaves, as Tr(P rho'): ``measure`` and ``expect`` from the partial
trace of rho to their qubits with those qubits' factors, their readout
channels included, applied to that small matrix, which a trace-preserving
factor pending on any other qubit cannot change; ``bell`` from the partial
trace after its pass; ``ensemble`` from the diagonal.  The public
``dense_*`` readouts are the same steps, each run on its own.
``apply_kraus`` and ``apply_unitary`` stay as the plain definitions that
route is pinned to in tests, and ``expectation`` as the whole-matrix route
the records are pinned to; these three contract through
``_apply_on_axes``' tensordot, a route the kernel does not share.  Every
contraction refuses a qubit outside the state or listed twice.  The point
is an independent second route for every operation the coefficient engine
implements: nothing here comes from the engine's kernels.  Intended for
n <= ``ORACLE_QUBIT_CAP``.
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


def _transposed_copy(src: np.ndarray, src_axes: list, dst: np.ndarray, dst_axes: list) -> None:
    """Copy the (2,) * m tensor ``src``, whose axis i holds bit src_axes[i],
    into ``dst`` laid out as ``dst_axes``.  Bits adjacent and in order in
    both layouts move as one block, so the copy has as few axes as it can."""
    at = {a: i for i, a in enumerate(dst_axes)}
    runs: list[list[int]] = []
    for a in src_axes:
        if runs and at[a] == at[runs[-1][-1]] + 1:
            runs[-1].append(a)
        else:
            runs.append([a])
    order = sorted(range(len(runs)), key=lambda i: at[runs[i][0]])
    sizes = [2 ** len(run) for run in runs]
    dst.reshape([sizes[i] for i in order])[...] = src.reshape(sizes).transpose(order)


class _Vec:
    """vec(rho) of one DenseState in a moved bit order, with one spare buffer.

    The current buffer ``cur`` holds the 4^n entries of the row-major
    vec(rho) as a (2,) * 2n tensor whose axis i holds bit ``axes[i]``: bit
    n + q is qubit q's row bit and bit q its column bit, so (2n - 1, ..., 0)
    is (row, column) order.  A pass on k qubits needs their row bits, then
    their column bits, each in the listed order, as the leading 2k axes.
    Unless they are there already, one transposed copy into the spare
    buffer brings them to the front, every other bit keeping its order, and
    the two buffers swap.  Then one gemm S @ cur, as a (4^k, 4^n / 4^k)
    matrix, writes into the spare buffer and the buffers swap again: no
    copy goes back.
    ``restore`` puts rho in (row, column) order in d.rho's own buffer.
    The spare buffer is allocated here, or borrowed from ``spare``, an array
    of at least 4^n entries whose contents nothing else needs until this
    run is restored.
    """

    def __init__(self, d: DenseState, spare: np.ndarray | None = None):
        d.rho = np.require(d.rho, np.complex128, "CW")
        self.n = d.n
        self.home = self.cur = d.rho.reshape(-1)
        self.spare = np.empty_like(self.cur) if spare is None else spare[: self.cur.size]
        self.axes = list(range(2 * d.n - 1, -1, -1))

    def _move(self, axes: list) -> None:
        _transposed_copy(self.cur, self.axes, self.spare, axes)
        self.axes = axes
        self.cur, self.spare = self.spare, self.cur

    def apply(self, s: np.ndarray, qubits: tuple[int, ...]) -> None:
        """rho <- S(rho) for a ``superop`` matrix on the listed qubits."""
        n, k = self.n, len(qubits)
        _check_qubits(n, qubits, s, base=4)
        front = [n + q for q in qubits] + list(qubits)
        if self.axes[: 2 * k] != front:
            self._move(front + [a for a in self.axes if a not in front])
        np.matmul(s, self.cur.reshape(4**k, -1), out=self.spare.reshape(4**k, -1))
        self.cur, self.spare = self.spare, self.cur

    def restore(self) -> None:
        """Put rho in (row, column) order in d.rho's own buffer."""
        rows_then_columns = list(range(2 * self.n - 1, -1, -1))
        if self.cur is self.home and self.axes != rows_then_columns:
            self._move(rows_then_columns)
        if self.cur is not self.home:
            _transposed_copy(self.cur, self.axes, self.home, rows_then_columns)
            self.cur, self.spare = self.spare, self.cur
        self.axes = rows_then_columns


def apply_superop(d: DenseState, s: np.ndarray, qubits: tuple[int, ...]) -> None:
    """In-place rho <- S(rho) for a ``superop`` matrix on the listed qubits.

    One pass of the run kernel ``_Vec``, then rho back in order: a
    transposed copy into the spare buffer, the gemm into rho's own buffer, a
    transposed copy back into the spare buffer and a plain copy into rho.
    The spare buffer is the only array it allocates.
    """
    v = _Vec(d)
    v.apply(s, qubits)
    v.restore()


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


def _defer(pending: dict, q: int, s: np.ndarray) -> None:
    """Compose the one-qubit channel ``s`` after qubit q's pending factor."""
    pending[q] = s @ pending[q] if q in pending else s


def _take(pending: dict, qubits) -> np.ndarray:
    """Remove the listed qubits' pending factors and return them as one
    Liouville matrix, the first listed kron-major; a qubit with none takes I."""
    s = pending.pop(qubits[0], _IDENTITY_1Q)
    for q in qubits[1:]:
        s = _kron_superop(s, pending.pop(q, _IDENTITY_1Q))
    return s


def _apply_pending(v: _Vec, pending: dict, qubits) -> None:
    """Apply, and remove, the pending factors of ``qubits``: two qubits per pass."""
    held = [q for q in qubits if q in pending]
    for i in range(0, len(held), 2):
        pair = tuple(held[i : i + 2])
        v.apply(_take(pending, pair), pair)


def _finish(v: _Vec, pending: dict) -> None:
    """Apply every factor still pending, two qubits per pass, and put rho back in order."""
    _apply_pending(v, pending, range(v.n))
    v.restore()


def expectation(d: DenseState, op: np.ndarray, qubits: tuple[int, ...]) -> float:
    """Tr(rho * op) for an operator embedded on the listed qubits."""
    _check_qubits(d.n, qubits, op)
    t = d.rho.reshape((2,) * (2 * d.n))
    row_axes = tuple(d.n - 1 - q for q in qubits)
    t = _apply_on_axes(t, op, row_axes)
    return float(np.trace(t.reshape(2**d.n, 2**d.n)).real)


def _reduced(v: _Vec, qubits: tuple[int, ...]) -> np.ndarray:
    """Partial trace of v's rho over every qubit not listed, in an array of its
    own; the first listed is kron-major."""
    n, m = v.n, len(qubits)
    _check_qubits(n, qubits)
    # a row bit n + q of a qubit traced out shares its column bit's label q
    labels = [a - n if a >= n and a - n not in qubits else a for a in v.axes]
    # with nothing traced out einsum returns a view of rho, so copy
    out = np.einsum(v.cur.reshape((2,) * (2 * n)), labels, [n + q for q in qubits] + list(qubits))
    return out.copy().reshape(2**m, 2**m)


def _read(v: _Vec, pending: dict, qubits: tuple[int, ...]) -> np.ndarray:
    """The partial trace of v's rho to ``qubits`` (the first listed kron-major)
    with their pending factors applied to it; the factors stay pending on rho.

    A factor pending on any other qubit is trace-preserving, so it cannot
    change this partial trace.  The small run borrows v's spare buffer,
    which holds nothing between v's passes, so a read holds at most one
    array as large as rho besides the two buffers: its partial trace.
    """
    m = len(qubits)
    small = DenseState(m, _reduced(v, qubits))
    factors = {m - 1 - i: pending[q] for i, q in enumerate(qubits) if q in pending}
    _finish(_Vec(small, v.spare), factors)
    return small.rho


def _diagonal(v: _Vec) -> np.ndarray:
    """The diagonal of v's rho, as real numbers in an array of its own."""
    n = v.n
    labels = [a - n if a >= n else a for a in v.axes]  # row bit n + q shares column bit q's label
    diagonal = np.einsum(v.cur.reshape((2,) * (2 * n)), labels, list(range(n - 1, -1, -1)))
    return np.array(diagonal.real).reshape(-1)


def _trace_product(op: np.ndarray, rho: np.ndarray) -> float:
    """Tr(op rho) with no matrix product."""
    return float(np.einsum("ij,ji->", op, rho).real)


def _string_trace(singles: list[np.ndarray], rho: np.ndarray) -> float:
    """Tr((singles[0] kron singles[1] kron ...) rho) with no kron product,
    which at full support would be as large as rho: each step contracts the
    kron-major qubit of rho with its 2x2 operator."""
    for op in singles:
        h = len(rho) // 2
        rho = np.einsum("aibj,ba->ij", rho.reshape(2, h, 2, h), op)
    return float(rho[0, 0].real)


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


def _built(cache: dict, build, *args) -> np.ndarray:
    """``build(*args)``, built once per run: ``cache`` keeps it under (build, *args)."""
    key = (build, *args)
    s = cache.get(key)
    if s is None:
        s = cache[key] = build(*args)
    return s


#: The unit x, y and z axes.
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _axis_observable(axis: tuple[float, float, float]) -> np.ndarray:
    return sum(a * SIGMA[i + 1] for i, a in enumerate(axis))


def _axis_readout(axis: tuple[float, float, float], d: float) -> np.ndarray:
    """The readout channel of a one-qubit measurement along ``axis``."""
    return _readout_channel(_axis_projectors(_axis_observable(axis)), d)


# Each readout composes its channel into its qubits' pending factors and then
# reads its record.  Each takes the run's kernel ``v``, its pending factors
# and its channel cache; ``_alone`` runs one on a DenseState by itself.


def _measure(v: _Vec, pending: dict, cache: dict, k: int, axis: tuple, d1: float) -> tuple:
    """(p_plus, p_minus) of qubit k measured along ``axis``: no pass over rho."""
    _defer(pending, k, _built(cache, _axis_readout, axis, d1))
    plus = _axis_projectors(_axis_observable(axis))[0]
    p_plus = _trace_product(plus, _read(v, pending, (k,)))
    return (p_plus, 1.0 - p_plus)


def _expect(v: _Vec, pending: dict, cache: dict, labels: list[int], d1: float) -> float:
    """The Pauli string with SIGMA[labels[q]] on qubit q: no pass over rho."""
    for q, label in enumerate(labels):
        if label:
            _defer(pending, q, _built(cache, _axis_readout, _AXES[label - 1], d1))
    support = tuple(q for q in reversed(range(v.n)) if labels[q])
    return _string_trace([SIGMA[labels[q]] for q in support], _read(v, pending, support))


def _ensemble(v: _Vec, pending: dict, cache: dict, d1: float) -> np.ndarray:
    """Every computational-basis outcome's probability: ceil(n/2) passes."""
    s = _built(cache, _axis_readout, _AXES[2], d1)
    for q in range(v.n):
        _defer(pending, q, s)
    _apply_pending(v, pending, range(v.n))
    return _diagonal(v)


def _alone(d: DenseState, readout, *args):
    """``readout`` on d as a run of its own: a fresh pending dict and channel
    cache, and what is left pending applied before it returns."""
    v, pending = _Vec(d), {}
    value = readout(v, pending, {}, *args)
    _finish(v, pending)
    return value


def dense_measure_qubit(
    d: DenseState, k: int, axis_vec: np.ndarray, d1: float
) -> tuple[float, float]:
    """Single-qubit measurement along an axis: (p_plus, p_minus) with damping d1."""
    return _alone(d, _measure, k, tuple(float(a) for a in axis_vec), d1)


def dense_expect_string(d: DenseState, labels: list[int], d1: float) -> float:
    """Expectation of a Pauli string with readout damping; updates the state."""
    return _alone(d, _expect, labels, d1)


def dense_ensemble(d: DenseState, d1: float) -> np.ndarray:
    """All-qubit computational-basis outcome probabilities; updates the state."""
    return _alone(d, _ensemble, d1)


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


def _bell_readout(d2: float) -> np.ndarray:
    return _readout_channel(list(_BELL_PROJECTORS), d2)


def _bell(v: _Vec, pending: dict, cache: dict, k: int, l: int, d2: float) -> dict[str, float]:
    """Bell-basis probabilities of qubits (k, l): one pass, which takes their factors."""
    v.apply(_built(cache, _bell_readout, d2) @ _take(pending, (k, l)), (k, l))
    pair = _reduced(v, (k, l))
    return {lab: _trace_product(b, pair) for lab, b in zip(BELL_SIGNS, _BELL_PROJECTORS)}


def dense_bell(d: DenseState, k: int, l: int, d2: float) -> dict[str, float]:
    """Bell-basis measurement of qubits (k, l) with damping d2; updates state."""
    return _alone(d, _bell, k, l, d2)


# the superoperator of reset: rho -> P0 rho P0 + X P1 rho P1 X
_RESET = superop([m @ p for m, p in zip(SIGMA[:2], _axis_projectors(SIGMA[3]))])


def dense_reset(d: DenseState, k: int) -> None:
    """rho -> P0 rho P0 + X P1 rho P1 X on qubit k."""
    apply_superop(d, _RESET, (k,))


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


def dense_memory_step(d: DenseState, f: float, g: float, p: float) -> None:
    """Apply one decoherence + decay step to every qubit.

    The composed one-qubit superoperator is applied to two qubits per
    contraction, as its 16x16 pair form, which halves the passes over rho.
    """
    _finish(_Vec(d), dict.fromkeys(range(d.n), _memory_channel(f, g, p)))


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

_MEASURE_AXES = {"measure": _AXES[2], "measure_x": _AXES[0], "measure_y": _AXES[1]}


def _rotation_mixture(axis: str, theta: float, alpha: float, r: float) -> np.ndarray:
    """Superoperator of a noisy rotation: two angles theta + alpha +- arccos(r)."""
    delta0 = np.arccos(r)
    base = theta + alpha
    rotations = [rotation_matrix(axis, base + delta0), rotation_matrix(axis, base - delta0)]
    return superop(rotations, [0.5, 0.5])


def _cx_mixture(alpha: float, r: float) -> np.ndarray:
    """Superoperator of a noisy cx: two pulses with error angles alpha +- arccos(r)."""
    delta0 = np.arccos(r)
    return superop([cnot_matrix(alpha + delta0), cnot_matrix(alpha - delta0)], [0.5, 0.5])


def _step(v: _Vec, ins, noise, records: list, pending: dict, cache: dict) -> None:
    """Apply one instruction to the run's rho ``v``, appending a record for each readout.

    A one-qubit channel makes no pass: it composes into ``pending``, which
    maps a qubit to the 4x4 factor still to be applied to it.  So does each
    one-qubit readout channel, and ``measure`` and ``expect`` read their
    record from the partial trace to their qubits with those qubits'
    factors applied to it.  A cx, ccx or ``bell`` takes its qubits' factors
    into its own S and makes one pass; ``ensemble`` applies every factor in
    ceil(n/2) pair passes and reads the diagonal.  ``noise`` None is the
    ideal run: any gate kind as its exact unitary, d1 = d2 = 1, barriers
    skipped.  Under a NoiseModel only the schedule's u1, u3 and cx gates are
    allowed, as two-point angle mixtures (a u3's three mixtures composed
    into one 4x4).  Every channel but an ideal gate's is built once per
    ``cache``.
    """
    k = ins.kind
    d1, d2 = (1.0, 1.0) if noise is None else (noise.d1, noise.d2)
    if k in _MEASURE_AXES:
        q = ins.qubits[0]
        records.append(("measure", q, k, _measure(v, pending, cache, q, _MEASURE_AXES[k], d1)))
        return
    if k == "expect":
        labels = ["IXYZ".index(ch) for ch in reversed(ins.string)]  # qubit 0 rightmost
        records.append(("expect", ins.string, _expect(v, pending, cache, labels, d1)))
        return
    if k == "ensemble":
        probs = _ensemble(v, pending, cache, d1)
        records.append(("ensemble", {format(i, f"0{v.n}b"): float(p) for i, p in enumerate(probs)}))
        return
    if k == "bell":
        records.append(("bell", ins.qubits, _bell(v, pending, cache, *ins.qubits, d2)))
        return
    if k == "reset":
        s = _RESET
    elif noise is None:
        if k == "barrier":
            return
        if k not in _GATE_UNITARY:
            raise ValueError(f"unknown instruction kind {k!r}")
        s = superop([_GATE_UNITARY[k](ins.angles)])
    elif k == "u1":
        s = _built(cache, _rotation_mixture, "z", ins.angles[0], *noise.axis("z"))
    elif k == "u3":
        theta, phi, lam = ins.angles
        s = (
            _built(cache, _rotation_mixture, "z", phi, *noise.axis("z"))
            @ _built(cache, _rotation_mixture, "y", theta, *noise.axis("y"))
            @ _built(cache, _rotation_mixture, "z", lam, *noise.axis("z"))
        )
    elif k == "cx":
        s = _built(cache, _cx_mixture, noise.alpha_cx, noise.r_cx)
    else:
        raise ValueError(f"unexpected instruction kind {k!r} in a schedule")
    if len(ins.qubits) == 1:
        _defer(pending, ins.qubits[0], s)
    else:
        v.apply(s @ _take(pending, ins.qubits), ins.qubits)


def run_instructions_dense(d: DenseState, instructions) -> list:
    """Execute raw instructions in source order with zero noise.

    The same step as ``run_schedule_dense`` with no noise model: each gate is
    the channel of its exact unitary, measurements are ideal projective
    channels (with their non-selective updates), barriers do nothing.  The
    one-qubit channels left pending are applied, and rho put back in (row,
    column) order in d.rho's own buffer, before it returns, or raises with
    every instruction before the failing one applied.  Returns the
    measurement records as plain tuples; mutates ``d``.
    """
    v, pending, records, cache = _Vec(d), {}, [], {}
    try:
        for ins in instructions:
            _step(v, ins, None, records, pending, cache)
    finally:
        _finish(v, pending)
    return records


def run_schedule_dense(d: DenseState, schedule, noise) -> list:
    """Execute a compiled schedule with the full noise model, densely.

    Each member goes through the same step as ``run_instructions_dense``
    under ``noise`` (a NoiseModel); after every partition of ``schedule``
    the memory channel of its category composes into every qubit's pending
    factor, so a memory step makes no pass of its own.  What is still
    pending is applied, two qubits per pass, and rho put back in order, as
    ``run_instructions_dense`` does.  The memory
    channel is built once per distinct (f, g) pair of the schedule's
    partition categories, each rotation mixture once per distinct (axis,
    angle, alpha, r) and the cx mixture once, not once per use.
    """
    v, pending, records, cache = _Vec(d), {}, [], {}
    try:
        for part in schedule.partitions:
            for ins in part.members:
                _step(v, ins, noise, records, pending, cache)
            s = _built(cache, _memory_channel, *noise.pair(part.category), noise.p)
            for q in range(d.n):
                _defer(pending, q, s)
    finally:
        _finish(v, pending)
    return records
