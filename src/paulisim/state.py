"""Density matrices stored as real coefficients in the tensor-product Pauli basis.

An ``n``-qubit density matrix is held as the flat array of its 4^n real
expansion coefficients ``a``:

    rho = sum_idx a[idx] * (sigma_{i_{n-1}} (x) ... (x) sigma_{i_1} (x) sigma_{i_0})

where ``idx = sum_k i_k * 4**k`` and ``i_k`` in {0, 1, 2, 3} selects
I, sigma_x, sigma_y, sigma_z acting on qubit ``k``.

Index convention (used everywhere in this package): qubit ``k`` occupies the
k-th *least significant* base-4 digit of the flat index.  Bitstrings and
Pauli strings in text form are written most-significant-qubit first, so the
rightmost character always refers to qubit 0.

A valid state keeps these invariants; ``PauliState.validate`` checks the
first three, and ``load_state`` checks positivity too, for files of at most
``oracle.ORACLE_QUBIT_CAP`` qubits:

* ``a[0] == 2**-n`` (unit trace),
* ``2**n * sum(a**2) <= 1`` (purity at most 1), up to rounding slack,
* ``|a[idx]| <= 2**-n`` for every index, up to rounding slack,
* the density matrix has no eigenvalue below ``-PSD_TOL`` (positivity).

Every state update is a Pauli transfer matrix (PTM), a real 4^m x 4^m
matrix on m = 1 or 2 qubits, applied by ``apply_transfer`` or
``apply_product``, and every readout reads through ``PauliState.coeffs``,
``.tensor``, ``.marginal`` or ``.z_block``.  A diagonal PTM is a matrix
like any other, and every pass is a matmul.  Every PTM must have first row
(1, 0, ..., 0), and the kernel refuses one that does not, so ``a[0]`` comes
out of each update bit for bit.  ``apply_transfer`` and ``apply_product``
check the matrix they are given (``_checked``: its shape and first row, on
a private copy), and ``apply_transfer`` range-checks its qubits, before the
private step ``_transfer`` or ``_product`` applies it.  A caller that applies many
PTMs builds them as one (N, 4, 4) stack, has ``_checked`` test every
matrix's shape and first row at once, checks the qubits itself, and hands
the stack's rows to ``_transfer`` or ``_product``; ``engine.execute_schedule``
does this once per run.  Only ``_product`` builds the kron power of a 4x4
transfer that a group of two or three qubits needs, and only when such a
group is there (``_kron_power``).

Qubit layout.  The buffer a ``PauliState`` holds need not be in the order
above: it carries a private digit order, which qubit sits in each physical
base-4 digit.  A pass on two or three qubits whose digits are apart moves
them together in the one transposed copy the matmul needs anyway, and the
buffer keeps that layout; a later pass on the same qubits runs on adjacent
digits with no copy (the qubit remapping of Häner & Steiger,
arXiv:1704.01127).  A pair's lower digit moves up to sit just below the
higher one.  A pair pass reads its two digits straight from the layout,
and when the first-listed qubit sits lower, one fixed transpose of the
16x16 matrix's (4, 4, 4, 4) form puts them high to low.  A group of three
lands on digits ``_LANDING_DIGIT`` + 2 down to ``_LANDING_DIGIT`` (4, 3,
2; the lowest three on fewer than five qubits), where its 64x64 products
run on cache-sized panels.  The moved digits keep their order, and so does
every other digit.  A pass on one qubit, and the passes of a full read
over lone factors, never move a digit.  The layout is invisible outside
this module: ``coeffs`` is always in the logical order above, and reading
it on a moved layout makes one transposed copy and resets the layout;
``tensor`` is a logical view of the buffer, with no copy.

Pending factors.  A PTM does not touch the buffer when it can compose into
a pending factor: the state keeps one 4^m x 4^m factor for each group of at
most m = 3 qubits (``apply_transfer`` composes T @ P on the group's digits,
and ``apply_product`` composes kron(T, ..., T) into every group).  A qubit
with a 4x4 factor of its own is a group of one.  Operations on different
qubits commute, so this only changes the order of rounding (PTM
composition, Greenbaum arXiv:1509.02921, used as gate clustering, Häner &
Steiger arXiv:1704.01127).  A two-qubit PTM on (a, b) composes into the
union of a's and b's groups when that union holds at most three qubits;
otherwise it flushes the larger of those groups that holds two or more,
one pass, and tries again.  Below ``_GROUPS_FROM_N`` qubits every group
holds one qubit.  A factor reaches the coefficients in one of four ways:

* below ``_GROUPS_FROM_N`` qubits, a two-qubit PTM T on (a, b) applies
  T (P_a kron P_b) in the one pass it makes, and both factors are gone; from
  ``_GROUPS_FROM_N`` up, a two-qubit PTM that finds no room flushes a group
  of two or three qubits in one 4^m x 4^m pass;
* a full read (``coeffs``, ``tensor``, and everything built on them) first
  applies every factor: one pass per group of two or three, then the lone
  factors in ceil(n/2) passes over adjacent physical digit pairs, which move
  no digit;
* ``marginal(qubits)`` reads the small block of coefficients over the listed
  qubits and their group mates whose other digits are 0, applies those
  groups' factors to it, takes the mates' digits at 0, and leaves the state
  as it is.  A factor on any other qubit has first row e0, so it cannot
  change that block: a readout of a few qubits makes no pass at all;
* ``z_block()``, the ensemble's read of the 2^n coefficients whose digits
  all lie in {0, 3}, is a full read below ``_GROUPS_FROM_N`` qubits, which
  keeps the pinned outputs' bits.  From ``_GROUPS_FROM_N`` up it reads the
  block through the factors and leaves the state as it is: each lone
  qubit's digit is contracted with rows 0 and 3 of its factor, halving the
  array, then each group's digits with its factor's rows in {0, 3}^m.  It
  makes no pass, and its temporaries stay within one state when some qubit
  is lone (with or without a factor), since that digit halves the array
  before any group's copy; with none, a group on digits apart copies the
  whole buffer once.

Factors are never written in place, so ``copy()`` shares them and stays
cheap and independent.

Threads.  From ``_SPLIT_FROM`` coefficients (9 qubits) up, each full-state
write is split over row chunks of the fresh array it fills, one chunk per
CPU in the process's affinity mask (``_split``): a digit move's transposed
copy, a pass's batched product (over its rows; a pass with one row, or
with one column, which is a single gemm, runs whole), the logical-order
copy ``coeffs`` makes on a moved layout, and the last outer product of a
product state.  Each chunk makes the same per-row products or copies the
whole call makes, so every output keeps its bits whatever the CPU count,
and no new buffer is held: the chunks write into the one fresh array (the
per-kernel, multi-core slicing of Häner & Steiger and of QuEST, Jones et
al. arXiv:1802.08032).  The calling thread takes one chunk and daemon
workers, started at the first split, the others.  A process allowed one
CPU, a state below the crossover and a split from a second thread while
the workers are busy run each write as one call; a forked child drops the
parent's workers and starts its own.  The affinity mask (``taskset``, say)
is the only control.
"""

from __future__ import annotations

import io
import math
import os
import re
import threading
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CapacityError, StateFormatError

#: Refuse to allocate states above this many qubits; no call can raise it.
#: Coefficient storage quadruples per added qubit.
DEFAULT_QUBIT_CAP = 14

#: Relative slack allowed on the purity bound 2^n * sum(a^2) <= 1 and on the
#: coefficient bound |a_i| <= 2^-n.
PURITY_TOL = 1e-9

#: Most negative density-matrix eigenvalue ``load_state`` lets through.
PSD_TOL = 1e-9

_FILE_HEADER = "pauli-dm v1"

# coefficients per chunk of text save_state formats and writes at once
_SAVE_CHUNK = 2**14

# bytes load_state reads, one at a time, for the header line of a file; the
# header save_state writes takes at most 17
_HEADER_BYTES = 64

# where str.splitlines ends a line: the header is the file's first line
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

# two numbers on one line: numpy reads both, float() neither.  Searched only
# when the body holds a space or tab: the scan alone takes 0.16 s at n = 9.
_TWO_ON_A_LINE = re.compile(r"\S[ \t]+\S")
_TWO_ON_A_LINE_BYTES = re.compile(_TWO_ON_A_LINE.pattern.encode())


class PauliState:
    """Mutable n-qubit state: qubit count plus the 4^n Pauli coefficients.

    Gate, measurement and noise operations update the state in place through
    ``apply_transfer`` and ``apply_product``.  Each PTM composes into the
    pending factor of the group that holds its qubits and leaves the buffer
    alone; a buffer pass comes only when a two-qubit PTM must flush a group
    (or, below ``_GROUPS_FROM_N`` qubits, takes its pair's factors into the
    pass it makes) and at a full read.  Each keeps the trace coefficient
    ``coeffs[0]`` bit-exact.

    ``coeffs`` and ``tensor`` are full reads: they apply every pending
    factor first (see the module docstring).  ``marginal`` reads the block
    of coefficients a readout needs without a pass over the state, and so
    does ``z_block`` from ``_GROUPS_FROM_N`` qubits up.  The
    constructor keeps a C-contiguous float64 array as given, without a
    copy (any other array it copies into one), and
    ``coeffs`` returns that same array until a pass replaces it: a
    two-qubit update that makes one, a full read that applies a pending
    factor, or a read on a moved layout.
    """

    # _layout[d] is the qubit in physical digit d; None is the identity.
    # _pending maps each qubit of a group to the same (qubits, factor) pair:
    # the factor is a 4^m x 4^m matrix, kron-major in the order of qubits;
    # a qubit not in it has none.  Factors are never written in place, so
    # copies share them.
    __slots__ = ("n", "_buf", "_layout", "_pending")

    def __init__(self, n: int, coeffs: np.ndarray):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        if coeffs.shape != (4**n,):
            raise ValueError(f"expected {4**n} coefficients for n={n}, got shape {coeffs.shape}")
        self.n = n
        self._buf = coeffs
        self._layout = None
        self._pending = {}

    @property
    def coeffs(self) -> np.ndarray:
        """The 4^n coefficients in logical order, every pending factor applied."""
        self._flush()
        if self._layout is not None:
            v = self._view()
            self._buf = (np.ascontiguousarray(v) if v.size < _SPLIT_FROM else _split_copy(v)).reshape(-1)
            self._layout = None
        return self._buf

    def copy(self) -> "PauliState":
        """An independent state with its own buffer; pending factors stay pending."""
        c = PauliState(self.n, self._buf.copy())
        c._layout = self._layout
        c._pending = dict(self._pending)
        return c

    def tensor(self) -> np.ndarray:
        """View of the coefficients as an n-dimensional (4, 4, ..., 4) array.

        Axis ``n - 1 - k`` of the view indexes the Pauli digit of qubit ``k``
        (C-order flattening puts qubit 0 in the least significant digit).
        Every pending factor is applied first; on a moved layout the view is
        transposed, and it never copies.
        """
        self._flush()
        return self._view()

    def marginal(self, qubits: tuple[int, ...]) -> np.ndarray:
        """The coefficients whose digits off ``qubits`` are all 0, as a new (4,) * m array.

        Axis i indexes the digit of ``qubits[i]``.  The block is read over
        the listed qubits and their group mates, each of those groups'
        pending factors is applied to it, and then the mates' digits are
        taken at 0.  A factor on any other qubit has first row e0, so it
        leaves these coefficients as they are.  No pass over the state, and
        the state does not change.  One qubit that is a group of its own,
        with a factor P or none, is the read behind ``measure``: its 4
        coefficients are one strided slice of the buffer, and the result is
        ``P.dot`` of that slice (a copy of it with no factor), the same bits
        as the block's (4, 4) @ (1, 4, 1) product.
        """
        m = len(qubits)
        for k in qubits:
            self.axis(k)  # range check
        g = self._pending.get(qubits[0]) if m == 1 else None
        if m == 1 and (g is None or len(g[0]) == 1):  # one qubit alone: its 4 coefficients, one strided slice
            step = 4 ** (qubits[0] if self._layout is None else self._layout.index(qubits[0]))
            v = self._buf[: 3 * step + 1 : step]
            return v.copy() if g is None else g[1].dot(v)
        if len(set(qubits)) != m:
            raise ValueError(f"need distinct qubits, got {qubits}")
        order, factors = [], []  # the block's axes, each group's qubits together
        for k in qubits:
            if k in order:  # a mate of a qubit listed earlier
                continue
            g = self._pending.get(k)
            if g is None:
                order.append(k)
            else:
                factors.append((len(order), g[1]))
                order.extend(g[0])
        # a copy of the strided view whose axis i steps the digit of order[i],
        # every other digit at 0: axes i .. i + m - 1 of a group at i are its qubits
        strides = [self._buf.itemsize * 4**d for d in self._digits(order)]
        block = np.ndarray((4,) * len(order), np.float64, self._buf, 0, strides).copy()
        for i, f in factors:
            block = np.matmul(f, block.reshape(4**i, len(f), -1)).reshape(block.shape)
        if order != list(qubits):  # digit 0 on the mates, the listed qubits' axes in their order
            block = block[tuple(slice(None) if k in qubits else 0 for k in order)]
            kept = [k for k in order if k in qubits]
            block = np.ascontiguousarray(block.transpose([kept.index(k) for k in qubits]))
        return block

    def z_block(self) -> np.ndarray:
        """The coefficients whose every digit is 0 or 3, as a new (2,) * n array.

        Axis ``n - 1 - k`` indexes qubit ``k``'s digit, 0 or 3, as in
        ``tensor``.  Below ``_GROUPS_FROM_N`` qubits this is a copy of the
        strided view of ``tensor``, after its full read.  From
        ``_GROUPS_FROM_N`` up the block is read through the pending factors
        and the state does not change: going down the physical digits, a
        lone qubit's digit is contracted with rows 0 and 3 of its factor (a
        strided slice when it has none), each step halving the array; then
        each group of two or three is contracted with its factor's rows in
        {0, 3}^m, one group at a time; then one transpose puts the axes in
        logical order.
        """
        n = self.n
        if n < _GROUPS_FROM_N:  # the flush keeps the pinned outputs' bits
            return self.tensor()[(slice(None, None, 3),) * n].copy()
        at = self._layout or range(n)
        axes = [at[d] for d in reversed(range(n))]  # the qubit on each axis of x, top digit first
        x, groups = self._buf.reshape((4,) * n), []
        for i, k in enumerate(axes):
            g = self._pending.get(k)
            if g is None:
                x = x[(slice(None),) * i + (slice(None, None, 3),)]
            elif len(g[0]) == 1:
                x = _contract(x, i, 1, g[1][::3])
            elif g[0][0] == k:  # each group once, at its first qubit
                groups.append(g)
        for qs, f in groups:
            m, pos = len(qs), sorted(axes.index(k) for k in qs)
            f = _permuted(f, [qs.index(axes[a]) for a in pos])  # its digits in axis order
            rows = f.reshape((4,) * m + (-1,))[(slice(None, None, 3),) * m].reshape(2**m, -1)
            i = pos[0]
            if pos[-1] - i >= m:  # apart: the group's axes go first, in one transposed copy
                pos += [a for a in range(n) if a not in pos]
                x, axes, i = np.ascontiguousarray(x.transpose(pos)), [axes[a] for a in pos], 0
            x = _contract(x, i, m, rows)
        return np.ascontiguousarray(x.transpose([axes.index(k) for k in reversed(range(n))]))

    def axis(self, k: int) -> int:
        """Tensor-view axis belonging to qubit ``k``."""
        if not 0 <= k < self.n:
            raise IndexError(f"qubit index {k} out of range for n={self.n}")
        return self.n - 1 - k

    def validate(self) -> None:
        """Raise ``StateFormatError`` if a state invariant is broken."""
        trace = self.coeffs[0]
        if not abs(trace - 2.0**-self.n) <= 1e-12:  # each check negated, so that a NaN fails
            raise StateFormatError(
                f"trace coefficient is {trace!r}, expected {2.0 ** -self.n!r} (index 0)"
            )
        pur = purity(self)
        if not pur <= 1.0 + PURITY_TOL:
            raise StateFormatError(f"purity bound violated: 2^n * sum(a^2) = {pur!r} > 1")
        big = int(np.argmax(np.abs(self.coeffs)))
        if not abs(self.coeffs[big]) <= 2.0**-self.n * (1.0 + PURITY_TOL):
            raise StateFormatError(
                f"coefficient {big} is {self.coeffs[big]!r}, above the bound 2^-n = {2.0**-self.n}"
            )

    def _view(self) -> np.ndarray:
        """The buffer as the logical (4,) * n tensor, pending factors not applied."""
        n, layout = self.n, self._layout
        t = self._buf.reshape((4,) * n)
        if layout is None:
            return t
        # qubit k sits in digit layout.index(k), buffer axis n - 1 - digit
        return t.transpose([n - 1 - layout.index(k) for k in reversed(range(n))])

    def _digits(self, qubits) -> tuple[int, ...]:
        """The physical digit of each qubit."""
        layout = self._layout
        return tuple(qubits) if layout is None else tuple(map(layout.index, qubits))

    def _flush(self, groups=None) -> None:
        """Apply pending factors to the buffer: by default every one.

        Each group of two or more qubits takes one pass, which may move its
        digits together (see ``_apply``).  Then the lone factors take one
        pass per adjacent physical digit pair that holds one, of the kron of
        the pair's two factors, so no digit moves.  Given ``groups``, only
        those groups are applied.
        """
        pending, n, every = self._pending, self.n, groups is None
        if every:
            groups = [g for k, g in pending.items() if g[0][0] == k and len(g[0]) > 1]
        for qs, f in groups:
            for k in qs:
                del pending[k]
            _apply(self, self._digits(qs), f)
        if not every or not pending:
            return
        self._pending = {}
        at = self._layout or range(n)  # the qubit in each physical digit
        by_digit = [pending.get(at[d], (None, None))[1] for d in range(n)]
        for lo in range(0, n - 1, 2):
            hi_p, lo_p = by_digit[lo + 1], by_digit[lo]
            if hi_p is not None or lo_p is not None:
                _apply(self, (lo + 1, lo), _kron(hi_p, lo_p))
        if n % 2 and by_digit[n - 1] is not None:
            _apply(self, (n - 1,), by_digit[n - 1])

    def __repr__(self) -> str:
        return f"PauliState(n={self.n})"


_EYE = np.eye(4)
_EYE.setflags(write=False)

#: Smallest qubit count at which a pending factor may hold a group of up to
#: three qubits; below it every group holds one qubit and a two-qubit PTM
#: makes its own pass.  Below 9 qubits the state fits in a 2 MiB L2 cache
#: and a pass is compute-bound: a 64x64 pass costs about four 16x16 passes,
#: and composing a cx into a group costs about as much as applying it.
#: Measured on a 2-vCPU x86-64 VM, best of 5, one group of three against one
#: pair pass per cx: a 2-bit adder at n=7 took 12.3 ms against 6.7 ms, a
#: QFT at n=8 17.1 against 15.6 ms; at n=9 a QFT was even; at n=10 the
#: adder took 101 against 208 ms and the QFT 164 against 271 ms.
_GROUPS_FROM_N = 10

#: Lowest physical digit of the three a moved three-qubit group lands on (on
#: fewer than five qubits, digit 0).  The pass is then ``4^(n-5)`` batched
#: 64x64 @ 64x16 products, each panel 8 KiB.  The same 64x64 pass at n=10,
#: one BLAS thread on a 2-vCPU x86-64 VM, best of 20, took 1.93-1.95 ms with
#: the group's lowest digit at 2 and 1.97-2.07 ms at 3, against 2.47-3.40 ms
#: at every other position (a degenerate panel at 0 and 1, one far larger
#: than L1 from 4 up).
_LANDING_DIGIT = 2


def _kron(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray:
    """kron(a, b) of two pending factors, None as the 4x4 identity.

    One broadcast product of the two factors reshaped to (p, 1, p, 1) and
    (1, q, 1, q): each entry is the single product ``np.kron`` makes.
    """
    a = _EYE if a is None else a
    b = _EYE if b is None else b
    p, q = len(a), len(b)
    return (a.reshape(p, 1, p, 1) * b.reshape(1, q, 1, q)).reshape(p * q, p * q)


def _contract(x: np.ndarray, i: int, m: int, rows: np.ndarray) -> np.ndarray:
    """``x`` with its m axes from ``i`` on, each 4 wide, contracted with the columns of
    ``rows`` (r x 4^m) into m axes 2 wide: r = 2^m rows in {0, 3}^m."""
    shape = x.shape
    y = x.reshape(math.prod(shape[:i]), 4**m, -1)  # a copy only after a strided slice
    return _batched(rows, y).reshape(shape[:i] + (2,) * m + shape[i + m :])


def _batched(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``t`` (r x k) applied to the middle axis of ``x`` (rows, k, cols).

    With cols 1 it is one gemm, ``x[:, :, 0] @ t.T`` of shape (rows, r): as
    a batched product it would run one tiny product per row.  Otherwise it
    is ``np.matmul(t, x)`` of shape (rows, r, cols).
    """
    if x.shape[2] == 1:
        return x[:, :, 0] @ t.T
    return np.matmul(t, x)


#: Smallest state, in coefficients, whose full-state writes are split across
#: the CPUs this process may use (``_split``); below it each runs as one
#: numpy call.  The hand-off to a worker costs 30-60 us.  On a 2-vCPU x86-64
#: VM, one BLAS thread, best of 15 in two runs: at n = 6 and 7 a split
#: 16- or 64-wide pass or move copy took 0.04-0.07 ms against 0.01-0.06 ms
#: whole, at n = 8 the split gained in one run and lost in the other, and
#: from n = 9 up it gained in both (a 64-wide pass at n = 10: 2.0-2.1 ms
#: against 2.8-4.0 ms).
_SPLIT_FROM = 4**9

# The CPUs in this process's affinity mask, read at the first split (0 until
# then); one (start, done, job) per worker thread, started as splits need
# them: the caller puts (fill, lo, hi) in job[0] and releases start, and the
# worker runs it, leaves an exception it raised in job[1], drops the job and
# releases done; the lock a split holds while the workers are its own.
_cpus = 0
_workers: list = []
_busy = threading.Lock()


def _split(rows: int, fill) -> None:
    """``fill(lo, hi)`` over chunks of ``range(rows)`` that together cover it, one per CPU.

    ``fill`` writes rows lo .. hi - 1 of a fresh array and nothing else, so
    the chunks may run at once: each is one numpy call that releases the
    GIL.  The calling thread takes the first chunk and one persistent daemon
    worker each of the others, and the call returns when every chunk is
    done, raising the first exception a chunk raised.  With one CPU, fewer
    rows than two, or the workers busy with another thread's split, it is
    one call ``fill(0, rows)``.  No worker keeps ``fill`` once its chunk is
    done, so no array outlives the call through it.
    """
    global _cpus
    if not _cpus:
        _cpus = _cpu_count()
    chunks = min(_cpus, rows)
    if chunks < 2 or not _busy.acquire(blocking=False):
        fill(0, rows)
        return
    try:
        while len(_workers) < chunks - 1:
            _workers.append(_start_worker())
        bounds = [rows * i // chunks for i in range(chunks + 1)]
        handed = list(zip(_workers, bounds[1:-1], bounds[2:]))
        for (start, _, job), lo, hi in handed:
            job[0] = fill, lo, hi
            start.release()
        try:
            fill(0, bounds[1])
        finally:  # every chunk is done before the caller sees the array, or an error
            error = None
            try:
                for (_, done, job), _, _ in handed:
                    done.acquire()
                    error, job[1] = error or job[1], None
            except BaseException:  # interrupted: a worker may still run, so none is handed more
                _workers.clear()
                raise
        if error is not None:
            raise error
    finally:
        _busy.release()


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_worker() -> tuple:
    """A new daemon worker thread for ``_split``, waiting for its first chunk."""
    start, done, job = threading.Lock(), threading.Lock(), [None, None]
    start.acquire()
    done.acquire()
    threading.Thread(target=_work, args=(start, done, job), name="paulisim-split", daemon=True).start()
    return start, done, job


def _work(start, done, job: list) -> None:
    """A worker's loop: run each chunk handed to it, keeping nothing of it after."""
    while True:
        start.acquire()
        fill, lo, hi = job[0]
        job[0] = None
        try:
            fill(lo, hi)
        except BaseException as e:
            job[1] = e
        del fill  # its closure holds the arrays of the pass
        done.release()


def _forget_workers() -> None:
    """In a forked child: the workers stayed in the parent, so the next split starts new ones."""
    global _busy
    _workers.clear()
    _busy = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _split_copy(v: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(v)``, the copy split over v's leading axis."""
    out = np.empty(v.shape, v.dtype)
    _split(len(v), lambda lo, hi: np.copyto(out[lo:hi], v[lo:hi]))
    return out


def _split_pass(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_batched(t, x)`` for x with more than one column, split over x's
    rows: each chunk makes the same per-row products into the one fresh
    array, so the bits are the same."""
    out = np.empty((len(x), len(t), x.shape[2]))
    _split(len(x), lambda lo, hi: np.matmul(t, x[lo:hi], out=out[lo:hi]))
    return out


def _permuted(t: np.ndarray, order: list[int]) -> np.ndarray:
    """``t`` on m qubits with its digits taken in ``order``: new digit i is old order[i]."""
    m = len(order)
    return t.reshape((4,) * (2 * m)).transpose(order + list(map(m.__add__, order))).reshape(t.shape)


def _compose(t: np.ndarray, g: tuple | None, ks: tuple[int, ...]) -> tuple:
    """The pending group ``g`` after ``t`` on its qubits ``ks``, as a new (qubits, factor).

    ``None`` is no group: the result is ``t`` itself on ``ks``.  Otherwise
    ``g`` holds two or three qubits, and ``t`` acts on the rows of its
    factor, one batched matmul over the digits of ``ks``; when those are not
    adjacent and in order, the factor is permuted first so that they come
    last.
    """
    if g is None:
        return ks, t
    qs, f = g
    i = qs.index(ks[0])
    if qs[i : i + len(ks)] != ks:
        order = [j for j, k in enumerate(qs) if k not in ks] + [qs.index(k) for k in ks]
        qs, f, i = tuple(qs[j] for j in order), _permuted(f, order), len(qs) - len(ks)
    return qs, np.matmul(t, f.reshape(4**i, len(t), -1)).reshape(f.shape)


def _checked(t: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A private float64 copy of a transfer of the given shape, every matrix with first row e0.

    ``shape`` is (size, size) for one matrix or (N, size, size) for a stack
    of N, whose matrices are all checked at once.  Every deferral rests on
    that first row: a pending factor must leave each coefficient whose
    digit on its qubit is 0 unchanged.
    """
    t = np.array(t, dtype=np.float64)
    if t.shape != shape:
        one = f"{shape[-1]}x{shape[-1]} transfer"
        want = f"a {one} matrix" if len(shape) == 2 else f"{shape[0]} stacked {one} matrices"
        raise ValueError(f"need {want}, got shape {t.shape}")
    size = shape[-1]
    rows = t.reshape(-1, size)[::size].tolist()  # the first row of each matrix
    if rows != [[1.0] + [0.0] * (size - 1)] * len(rows):  # a NaN fails; -0.0 == 0.0 passes
        raise ValueError("a transfer needs first row (1, 0, ..., 0)")
    return t


def apply_transfer(state: PauliState, qubits: tuple[int, ...], t: np.ndarray) -> None:
    """Apply a 4^m x 4^m transfer matrix to the m = 1 or 2 listed qubits.

    For m = 2 the matrix index is 4 * digit(qubits[0]) + digit(qubits[1]),
    the first listed qubit kron-major.  ``t`` must be that square matrix,
    diagonal or not, with first row e0 (``ValueError`` otherwise, a 1-D
    array included), and each qubit must be in range (``IndexError``); a
    private copy of ``t`` is kept, never the caller's array.  The update
    itself is ``_transfer``.
    """
    qubits = tuple(qubits)
    m = len(qubits)
    if m != 1 and (m != 2 or qubits[0] == qubits[1]):
        raise ValueError(f"need a transfer on 1 or 2 distinct qubits, got {qubits}")
    t = _checked(t, (4**m, 4**m))
    for k in qubits:
        state.axis(k)  # range check
    _transfer(state, qubits, t)


def _transfer(state: PauliState, qubits: tuple[int, ...], t: np.ndarray) -> None:
    """``apply_transfer`` on input its caller has checked.

    ``qubits`` is a tuple of 1 or 2 distinct qubits in range, and ``t`` a
    float64 4^m x 4^m matrix with first row e0 that nothing writes to
    later (a row of a checked stack, say).  On one qubit, ``t`` composes
    into the factor of the qubit's group and the buffer is left alone.  On
    two qubits (a, b), ``t`` composes into the union of a's and b's groups
    when that union holds at most three qubits (one qubit below
    ``_GROUPS_FROM_N`` qubits); otherwise it first flushes the larger of
    those groups that holds two or more qubits, one pass, and tries again.
    Below ``_GROUPS_FROM_N`` no group ever holds two, and ``t`` takes both
    lone factors, t (P_a kron P_b), into the one pass it makes.  A pass on
    digits that are apart leaves the state in a moved layout (see the
    module docstring).
    """
    pending = state._pending
    a = pending.get(qubits[0])
    if len(qubits) == 1:
        if a is None:
            pending[qubits[0]] = qubits, t
        elif len(a[0]) == 1:  # a lone qubit: t @ P
            pending[qubits[0]] = qubits, t.dot(a[1])
        else:
            _regroup(pending, _compose(t, a, qubits))
        return
    b = pending.get(qubits[1])
    if state.n < _GROUPS_FROM_N:  # every group holds one qubit: t makes its own pass
        if a is not None or b is not None:
            pending.pop(qubits[0], None)
            pending.pop(qubits[1], None)
            t = t.dot(_kron(a and a[1], b and b[1]))
        at = state._layout  # the pair's physical digits
        _apply(state, qubits if at is None else (at.index(qubits[0]), at.index(qubits[1])), t)
        return
    if a is None or a is not b:  # not yet one group
        while True:  # flush the larger group until both fit
            sa, sb = 1 if a is None else len(a[0]), 1 if b is None else len(b[0])
            if sa + sb <= 3:
                break
            state._flush([a if sa >= sb else b])
            a, b = pending.get(qubits[0]), pending.get(qubits[1])
        if a is not None or b is not None:  # the union of both groups
            a = (a[0] if a else qubits[:1]) + (b[0] if b else qubits[1:]), _kron(a and a[1], b and b[1])
    _regroup(pending, _compose(t, a, qubits))


def _regroup(pending: dict, g: tuple) -> None:
    """Make ``g``, a (qubits, factor) pair, the pending group of each of its qubits."""
    for k in g[0]:
        pending[k] = g


def _apply(state: PauliState, digits: tuple[int, ...], t: np.ndarray) -> None:
    """One pass of ``t`` over the buffer, on the listed physical digits.

    ``t`` is kron-major in the order of ``digits``, 1 to 3 of them.  Two
    digits come high to low by one fixed transpose of ``t``'s 4x4x4x4 form;
    three through ``_permuted``.  When the digits are not adjacent they move
    together in one transposed copy, and the buffer keeps that layout: a
    pair's lower digit moves up to sit just below the higher one, and a
    group of three lands on the three digits from ``_LANDING_DIGIT`` up
    (from 0 on fewer than five qubits).  The moved digits keep their order,
    and so does every other digit.  Then ``t`` runs as one batched
    (rows, 4^m, cols) product.  From ``_SPLIT_FROM`` coefficients up, the
    move and the product (when cols is above 1) are split across the CPUs
    (``_split_copy``, ``_split_pass``); below it each is one numpy call.
    """
    n, m, x, layout = state.n, len(digits), state._buf, None
    whole = x.size < _SPLIT_FROM  # below the crossover each write is one numpy call
    # Digits apart: a matmul cannot contract axes with gaps between them, so
    # the digits move together (one copy) and stay there.  The old buffer
    # goes before the matmul allocates.
    if m == 2:
        hi, lo = digits
        if hi < lo:  # put the digits high to low
            hi, lo, t = lo, hi, t.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
        if hi - lo > 1:  # the lower digit moves up next to hi
            old = state._layout or tuple(range(n))
            layout = old[:lo] + old[lo + 1 : hi] + (old[lo],) + old[hi:]
            x = x.reshape(4 ** (n - hi), 4 ** (hi - lo - 1), 4, 4**lo).transpose(0, 2, 1, 3)
            x = np.ascontiguousarray(x) if whole else _split_copy(x)
    else:  # one digit, or three
        hi, lo = max(digits), min(digits)
        if digits[0] != hi or m == 3 and digits[1] < digits[2]:  # put the digits high to low
            t = _permuted(t, sorted(range(m), key=digits.__getitem__, reverse=True))
        if hi - lo > 2:  # the group lands on _LANDING_DIGIT and the two digits above it
            land = _LANDING_DIGIT if n >= _LANDING_DIGIT + 3 else 0
            rest = [d for d in range(n) if d not in digits]
            order = rest[:land] + sorted(digits) + rest[land:]  # order[d]: the old digit now at d
            old = state._layout or tuple(range(n))
            layout, hi = tuple(old[d] for d in order), land + 2
            x = x.reshape((4,) * n).transpose([n - 1 - d for d in reversed(order)])
            x = np.ascontiguousarray(x) if whole else _split_copy(x)
    if layout is not None:  # the digits moved
        state._buf, state._layout = x, None if layout == tuple(range(n)) else layout
    x = x.reshape(4 ** (n - 1 - hi), len(t), -1)
    state._buf = (_batched(t, x) if whole or x.shape[2] == 1 else _split_pass(t, x)).reshape(-1)


def apply_product(state: PauliState, t: np.ndarray) -> None:
    """Apply the same 4x4 transfer to every qubit; a 1-D ``t`` is refused.

    ``t`` composes into every group's pending factor, as ``apply_transfer``
    on each qubit would: kron(t, ..., t) on a group.  The buffer sees it
    when the group is flushed or at the next full read.  The update itself
    is ``_product``.
    """
    _product(state, [_checked(t, (4, 4))])


@lru_cache(maxsize=32)
def _kron_power(t: bytes, m: int) -> np.ndarray:
    """kron of m = 2 or 3 copies of the 4x4 float64 transfer whose bytes are
    ``t``, built as kron(kron(t, t), t).  Like every factor, it is never
    written in place, so the cache may share it."""
    t1 = np.frombuffer(t).reshape(4, 4)
    t2 = _kron(t1, t1)
    return _kron(t2, t1) if m == 3 else t2


def _product(state: PauliState, transfers: list) -> None:
    """``apply_product`` of each transfer of ``transfers`` in turn, on input its caller has checked.

    Each entry is one checked 4x4 transfer.  Each group is visited once, at
    its first qubit, and its factor P becomes T_last ... T_1 P, one product
    per transfer with the kron power of T for the group's size
    (``_kron_power``, built only for a group of two or three and cached by
    the transfer's bytes), the same products one ``apply_product`` call per
    transfer makes; a qubit with no factor takes T_1 itself.  With no
    transfers it returns at once.
    """
    if not transfers:
        return
    pending = state._pending
    for k in range(state.n):
        g = pending.get(k)
        if g is None:
            qs, f = (k,), None
        elif g[0][0] == k:  # each group once, at its first qubit
            qs, f = g
        else:
            continue
        m = len(qs)
        for t in transfers:
            f = t if f is None else (t if m == 1 else _kron_power(t.tobytes(), m)).dot(f)
        _regroup(pending, (qs, f))


def check_capacity(n: int, max_qubits: int = DEFAULT_QUBIT_CAP) -> None:
    """Raise ``CapacityError`` for n above ``max_qubits``, ``ValueError`` for n < 1.

    The cap bounds memory through what each entry point holds at its peak,
    in states of 8 * 4^n bytes (2 GiB at 14 qubits):

    ==============================================  =========================
    entry point                                     peak, in states
    ==============================================  =========================
    ``run_circuit``; ``verify_circuit``'s engine    2: a pass writes a new
                                                    buffer as it reads the old
    ``sweep``, ``success`` metric                   2: a row releases its
                                                    state before the next
    ``sweep``, ``fidelity`` metric                  3: the reference besides
    ``save_state``                                  1, plus one chunk's text
    ``load_state``, above the oracle's cap          the file's text, plus 1
    ==============================================  =========================

    ``tests/test_peaks.py`` pins all five, and building a state, at n = 10.
    A random-valued file is 2.8 states of text, so ``load_state`` peaks at
    about 3.8 states (5.7 when it read the file as text, which held the
    bytes and their decoding at once).  Up to the oracle's cap its
    positivity check holds the dense matrix besides.
    ``tools/peak_states.py`` measured each cell below as the traced
    peak in states / the RSS growth in MiB over the post-import baseline:
    the adder at 10 and 13 qubits, the Fourier transform at 11 and 12, one
    BLAS thread on a 2-vCPU x86-64 VM.  save_state's RSS includes building
    its state, whose last outer product holds 1.25 states.

    ==  ===========  =============  ==============  ===========
    n   run          success sweep  fidelity sweep  save_state
    ==  ===========  =============  ==============  ===========
    10  2.03 / 16    2.05 / 16      3.05 / 25       1.18 / 10
    11  2.01 / 70    2.02 / 75      3.02 / 107      1.05 / 40
    12  2.00 / 257   2.01 / 268     3.01 / 396      1.01 / 160
    13  2.00 / 1037  2.00 / 1050    3.00 / 1562     1.00 / 640
    ==  ===========  =============  ==============  ===========

    So at the cap of 14 qubits a run or a success sweep needs about
    2 x 2 GiB, a fidelity sweep 3 x 2 GiB, ``save_state`` 2 GiB and
    ``load_state`` about 8 GiB (5.7 GiB of text and the 2 GiB state).
    Splitting a full-state write across CPUs (see the module docstring)
    changes none of these peaks: the chunks fill the one array the whole
    write would allocate, and no worker keeps an array after its chunk.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > max_qubits:
        raise CapacityError(f"n={n} exceeds the qubit cap of {max_qubits}")


def _product_state(factors: list[np.ndarray]) -> PauliState:
    """Tensor product of per-qubit coefficient 4-vectors; factors[k] is qubit k.

    Each step is one outer product, the same single multiplications
    ``np.kron`` makes, without its generic reshaping.  The 4^n result is
    allocated before the intermediates and the last product is written into
    it, so a state built just after another was released takes the block
    that state left, not a new one beside a quarter-state intermediate.
    From ``_SPLIT_FROM`` coefficients up that product is split over its four
    rows (``_split``).
    """
    coeffs = factors[0]
    if len(factors) > 1:
        out = np.empty(4 ** len(factors))
        for f in factors[1:-1]:  # qubit 0 first: later factors become more significant
            coeffs = np.multiply.outer(f, coeffs).reshape(-1)
        top, rows = factors[-1], out.reshape(4, -1)
        if len(out) < _SPLIT_FROM:
            np.multiply.outer(top, coeffs, out=rows)
        else:
            _split(4, lambda lo, hi: np.multiply.outer(top[lo:hi], coeffs, out=rows[lo:hi]))
        coeffs = out
    return PauliState(len(factors), coeffs)


def init_zero(n: int) -> PauliState:
    """All qubits in |0>: the product of (I + sigma_z)/2 factors."""
    check_capacity(n)
    q = np.array([0.5, 0.0, 0.0, 0.5])
    return _product_state([q] * n)


def init_uniform(n: int) -> PauliState:
    """All qubits in |+>: the product of (I + sigma_x)/2 factors."""
    check_capacity(n)
    q = np.array([0.5, 0.5, 0.0, 0.0])
    return _product_state([q] * n)


def init_bitstring(bits: str) -> PauliState:
    """Computational basis state given as a binary string.

    The string is written most-significant-qubit first: ``bits[-1]`` is
    qubit 0.  Bit 0 maps to (I + sigma_z)/2 and bit 1 to (I - sigma_z)/2.
    """
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bitstring must be non-empty over {{0,1}}, got {bits!r}")
    check_capacity(len(bits))
    factors = []
    for c in reversed(bits):  # qubit 0 first
        sign = 1.0 if c == "0" else -1.0
        factors.append(np.array([0.5, 0.0, 0.0, 0.5 * sign]))
    return _product_state(factors)


def init_thermal(n: int, p: float) -> PauliState:
    """Factorised equilibrium state diag(p, 1-p) on every qubit.

    ``p`` is the ground-level population; p = 1 reproduces ``init_zero``
    and p = 1/2 the maximally mixed state.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"thermal population p must be in [0, 1], got {p}")
    check_capacity(n)
    q = np.array([0.5, 0.0, 0.0, p - 0.5])
    return _product_state([q] * n)


def overlap(s1: PauliState, s2: PauliState) -> float:
    """Tr(rho1 rho2) = 2^n sum_i a_i b_i; the closeness measure for states.

    The sum is ``np.einsum``'s, whose order does not depend on the BLAS
    thread count, as ``np.dot``'s does.
    """
    if s1.n != s2.n:
        raise ValueError(f"qubit counts differ: {s1.n} vs {s2.n}")
    return float(2.0**s1.n * np.einsum("i,i->", s1.coeffs, s2.coeffs))


def purity(s: PauliState) -> float:
    """Tr(rho^2) = 2^n sum_i a_i^2; equals 1 exactly for pure states.

    Summed as ``overlap`` sums, the same bits under any BLAS thread count.
    """
    c = s.coeffs
    return float(2.0**s.n * np.einsum("i,i->", c, c))


def partial_trace(s: PauliState, k: int) -> PauliState:
    """Trace out qubit ``k``, returning the (n-1)-qubit reduced state.

    The surviving coefficients are twice those with digit k equal to 0;
    qubits above ``k`` shift down by one position.
    """
    if s.n < 2:
        raise ValueError("partial_trace needs at least 2 qubits")
    axis = s.axis(k)
    reduced = 2.0 * np.take(s.tensor(), 0, axis=axis)
    return PauliState(s.n - 1, reduced.reshape(-1).copy())


def save_state(s: PauliState, sink: str | Path | io.TextIOBase) -> None:
    """Write the coefficient file: a header line, then one decimal per line.

    Values are printed with full round-trip precision so save/load is
    bit-exact.  The header goes first, then the coefficients' text in
    chunks of ``_SAVE_CHUNK``, so the peak is the state plus one chunk's
    text, not the whole file's.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w") as f:
            save_state(s, f)
        return
    c = s.coeffs
    sink.write(f"{_FILE_HEADER} n={s.n}\n")
    for i in range(0, len(c), _SAVE_CHUNK):
        sink.write("\n".join(map(repr, c[i : i + _SAVE_CHUNK].tolist())) + "\n")


def _decode(data: bytes) -> str:
    """``data`` decoded as ``open`` decodes a file in text mode."""
    import locale  # here, not at the top: 1.5 ms that only a file load needs

    return data.decode(locale.getpreferredencoding(False))


def _read_coefficients(body: str | bytes, n: int) -> np.ndarray:
    """The 4^n coefficients of a state file body, one per line, blank lines skipped.

    numpy parses the body (text, or the bytes of a file) in one call into
    the array, and its finiteness is read from its least and greatest
    value, with no temporary array.  Only when that parse fails, or reads
    text ``float`` would refuse (two numbers on one line), are the lines
    walked one by one, for the first bad one and its error; bytes are
    decoded for the walk as ``open`` decodes a file.
    """
    try:
        with warnings.catch_warnings():  # numpy < 2 warns on unread text, then returns a prefix
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(body, sep="\n")
    except (ValueError, DeprecationWarning):
        values = None
    if isinstance(body, bytes):
        space, tab, two = b" ", b"\t", _TWO_ON_A_LINE_BYTES
    else:
        space, tab, two = " ", "\t", _TWO_ON_A_LINE
    if (
        values is not None
        and len(values) == 4**n
        and np.isfinite(values.min())  # NaN propagates to the min, inf to the max
        and np.isfinite(values.max())
        and not ((space in body or tab in body) and two.search(body))
    ):
        return values
    del values
    if isinstance(body, bytes):
        body = _decode(body)
    found = []
    for line in body.splitlines():
        if not line.strip():
            continue
        try:
            v = float(line)
        except ValueError:
            raise StateFormatError(f"coefficient {len(found)} is not a number: {line!r}") from None
        if not np.isfinite(v):
            raise StateFormatError(f"coefficient {len(found)} is not finite: {line!r}")
        found.append(v)
    if len(found) != 4**n:
        raise StateFormatError(
            f"expected {4 ** n} coefficients for n={n}, got {len(found)}"
            f" (first missing index {min(len(found), 4 ** n)})"
        )
    return np.array(found)


def load_state(source: str | Path | io.TextIOBase) -> PauliState:
    """Read a coefficient file and check the state invariants.

    The header line (ended as ``str.splitlines`` ends it) is read and
    checked first, then the body in one read, which is the only copy of the
    file held: a path is read as bytes, since text mode would hold the bytes
    and their decoded text at once.  The body goes before the state is
    checked.  Up to ``oracle.ORACLE_QUBIT_CAP`` qubits the density matrix
    must also be positive: no eigenvalue below -``PSD_TOL``.
    """
    if isinstance(source, (str, Path)):
        # unbuffered, so the body's read is one allocation: a buffered reader
        # joins what it holds after readline to the rest, a second copy
        with open(source, "rb", buffering=0) as f:
            first = f.readline(_HEADER_BYTES)
            if first.endswith(b"\n"):
                return _load(_decode(first), f.read)
        with open(source) as f:  # no "\n" near the top: read as text, as it always was
            return load_state(f)
    return _load(source.readline(), source.read)


def _load(first: str, read_body) -> PauliState:
    """``load_state`` from the file's first line, as far as its first newline,
    and a reader of the rest."""
    brk = _LINE_BREAK.search(first)
    header, rest = (first[: brk.start()], first[brk.end() :]) if brk else (first, "")
    if not header.startswith(_FILE_HEADER):
        raise StateFormatError(f"missing header line {_FILE_HEADER!r} n=<n>")
    m = re.fullmatch(_FILE_HEADER + r" n=([1-9][0-9]*)", header)  # only what save_state writes
    if m is None:
        raise StateFormatError(f"malformed header {header!r}")
    n = int(m[1])
    if n > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"file declares n={n}, above the qubit cap of {DEFAULT_QUBIT_CAP}")

    body = read_body()
    if rest:  # the header ended at a separator before the "\n": the rest of its line opens the body
        body = rest + (_decode(body) if isinstance(body, bytes) else body)
    coeffs = _read_coefficients(body, n)
    del body  # the text goes before the checks allocate
    state = PauliState(n, coeffs)
    state.validate()
    from . import oracle  # here, not at the top: oracle imports this module

    if n <= oracle.ORACLE_QUBIT_CAP:  # purity <= 1 does not imply positivity for n >= 2
        low = float(np.linalg.eigvalsh(oracle.to_dense(state).rho).min())
        if low < -PSD_TOL:
            raise StateFormatError(f"density matrix has eigenvalue {low!r} below -{PSD_TOL}")
    return state
