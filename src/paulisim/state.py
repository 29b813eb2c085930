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
``.tensor`` or ``.marginal``.  A diagonal PTM is a matrix like any other,
and every pass is a matmul.  Every PTM must have first row (1, 0, ..., 0),
and the kernel refuses one that does not, so ``a[0]`` comes out of each
update bit for bit.

Qubit layout.  The buffer a ``PauliState`` holds need not be in the order
above: it carries a private digit order, which qubit sits in each physical
base-4 digit.  A PTM on two qubits whose digits are apart moves the lower
digit up to sit just below the higher one, in the one transposed copy the
matmul needs anyway, and the buffer keeps that layout; a later update on the
same pair runs on adjacent digits with no copy (the qubit remapping of
Häner & Steiger, arXiv:1704.01127).  One-qubit PTMs and ``apply_product``
never move a digit.  The layout is invisible outside this module:
``coeffs`` is always in the logical order above, and reading it on a moved
layout makes one transposed copy and resets the layout; ``tensor`` is a
logical view of the buffer, with no copy.

Pending factors.  A one-qubit PTM does not touch the buffer: it composes
into a 4x4 factor the state keeps for that qubit (T @ P), and
``apply_product`` composes its PTM into every qubit's factor.  Operations
on different qubits commute, so this only changes the order of rounding
(PTM composition, Greenbaum arXiv:1509.02921, used as gate fusion).  A
factor leaves the qubit in one of three ways:

* a two-qubit PTM T on qubits (a, b) applies T (P_a kron P_b) in the one
  pass it makes anyway, and both factors are gone;
* a full read (``coeffs``, ``tensor``, and everything built on them) first
  applies every factor, in ceil(n/2) passes over adjacent physical digit
  pairs, so no digit moves;
* ``marginal(qubits)`` contracts the listed qubits' factors into the small
  block of coefficients whose other digits are 0, and leaves the state as
  it is.  A factor on any other qubit has first row e0, so it cannot change
  that block: a readout of a few qubits makes no pass at all.
"""

from __future__ import annotations

import io
import re
import warnings
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

# where str.splitlines ends a line: the header is the file's first line
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

# two numbers on one line: numpy reads both, float() neither.  Searched only
# when the body holds a space or tab: the scan alone takes 0.16 s at n = 9.
_TWO_ON_A_LINE = re.compile(r"\S[ \t]+\S")


class PauliState:
    """Mutable n-qubit state: qubit count plus the 4^n Pauli coefficients.

    Gate, measurement and noise operations update the state in place through
    ``apply_transfer`` and ``apply_product``.  A one-qubit PTM, and each
    qubit's factor of a product, composes into that qubit's pending factor
    and leaves the buffer alone; a two-qubit PTM takes its pair's pending
    factors into the one pass it makes.  Each keeps the trace coefficient
    ``coeffs[0]`` bit-exact.

    ``coeffs`` and ``tensor`` are full reads: they apply every pending
    factor first (see the module docstring).  ``marginal`` reads the block
    of coefficients a readout needs without a pass over the state.  The
    constructor keeps a float64 array as given, without a copy, and
    ``coeffs`` returns that same array until a pass replaces it: a
    two-qubit update, a full read that applies a pending factor, or a read
    on a moved layout.
    """

    # _layout[d] is the qubit in physical digit d; None is the identity.
    # _pending maps a qubit to its pending 4x4 factor; a qubit not in it has
    # none.  Factors are never written in place, so copies share them.
    __slots__ = ("n", "_buf", "_layout", "_pending")

    def __init__(self, n: int, coeffs: np.ndarray):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        coeffs = np.asarray(coeffs, dtype=np.float64)
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
            self._buf = np.ascontiguousarray(self._view()).reshape(-1)
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

        Axis i indexes the digit of ``qubits[i]``.  The listed qubits'
        pending factors are applied to this block only: a factor on any other
        qubit has first row e0, so it leaves these coefficients as they are.
        No pass over the state, and the state does not change.
        """
        n, m = self.n, len(qubits)
        for k in qubits:
            self.axis(k)  # range check
        if len(set(qubits)) != m:
            raise ValueError(f"need distinct qubits, got {qubits}")
        layout = self._layout
        digits = list(qubits) if layout is None else [layout.index(k) for k in qubits]
        index = [0] * n
        for d in digits:
            index[n - 1 - d] = slice(None)
        block = self._buf.reshape((4,) * n)[tuple(index)]
        top_down = sorted(digits, reverse=True)  # the block's axes, most significant digit first
        block = block.transpose([top_down.index(d) for d in digits])
        block = np.array(block, order="C")  # a copy: axis 1 of (4^i, 4, rest) is qubits[i]
        for i, k in enumerate(qubits):
            p = self._pending.get(k)
            if p is not None:
                block = np.matmul(p, block.reshape(4**i, 4, -1)).reshape(block.shape)
        return block

    def axis(self, k: int) -> int:
        """Tensor-view axis belonging to qubit ``k``."""
        if not 0 <= k < self.n:
            raise IndexError(f"qubit index {k} out of range for n={self.n}")
        return self.n - 1 - k

    def validate(self) -> None:
        """Raise ``StateFormatError`` if a state invariant is broken."""
        trace = self.coeffs[0]
        if abs(trace - 2.0**-self.n) > 1e-12:
            raise StateFormatError(
                f"trace coefficient is {trace!r}, expected {2.0 ** -self.n!r} (index 0)"
            )
        pur = purity(self)
        if pur > 1.0 + PURITY_TOL:
            raise StateFormatError(f"purity bound violated: 2^n * sum(a^2) = {pur!r} > 1")
        big = int(np.argmax(np.abs(self.coeffs)))
        if abs(self.coeffs[big]) > 2.0**-self.n * (1.0 + PURITY_TOL):
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

    def _flush(self) -> None:
        """Apply every pending factor to the buffer; no digit moves.

        One pass per adjacent physical digit pair that holds a factor, of the
        kron of the pair's two factors.
        """
        pending, n = self._pending, self.n
        if not pending:
            return
        self._pending = {}
        at = self._layout or range(n)  # the qubit in each physical digit
        by_digit = [pending.get(at[d]) for d in range(n)]
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


def _kron(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray:
    """kron(a, b) of two pending factors, None as the identity, by broadcasting."""
    a, b = (_EYE if p is None else p for p in (a, b))
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(16, 16)


def _compose(t: np.ndarray, p: np.ndarray | None) -> np.ndarray:
    """The transfer ``t`` after ``p`` (t @ p)."""
    return t if p is None else t.dot(p)


def _checked(t: np.ndarray, size: int) -> np.ndarray:
    """A private float64 copy of a size x size transfer, with first row e0.

    Every deferral rests on that first row: a pending factor must leave each
    coefficient whose digit on its qubit is 0 unchanged.
    """
    t = np.array(t, dtype=np.float64)
    if t.shape != (size, size):
        raise ValueError(f"need a {size}x{size} transfer matrix, got shape {t.shape}")
    row = t[0].tolist()
    if row[0] != 1.0 or any(row[1:]):  # a NaN fails either test
        raise ValueError("a transfer needs first row (1, 0, ..., 0)")
    return t


def apply_transfer(state: PauliState, qubits: tuple[int, ...], t: np.ndarray) -> None:
    """Apply a 4^m x 4^m transfer matrix to the m = 1 or 2 listed qubits.

    For m = 2 the matrix index is 4 * digit(qubits[0]) + digit(qubits[1]),
    the first listed qubit kron-major.  ``t`` must be that square matrix,
    diagonal or not, with first row e0 (``ValueError`` otherwise, a 1-D
    array included); a private copy of ``t`` is kept, never the caller's
    array.  On one qubit, ``t`` composes into the qubit's pending factor
    and the buffer is left alone.  On two, it takes both qubits' pending
    factors, t (P_a kron P_b), into one pass that replaces the buffer; on
    two qubits whose digits are apart it leaves the state in a moved layout
    (see the module docstring).
    """
    m = len(qubits)
    if m not in (1, 2) or len(set(qubits)) != m:
        raise ValueError(f"need a transfer on 1 or 2 distinct qubits, got {qubits}")
    t = _checked(t, 4**m)
    for k in qubits:
        state.axis(k)  # range check
    pending = state._pending
    if m == 1:
        pending[qubits[0]] = _compose(t, pending.get(qubits[0]))
        return
    a, b = pending.pop(qubits[0], None), pending.pop(qubits[1], None)
    if a is not None or b is not None:
        t = _compose(t, _kron(a, b))
    layout = state._layout
    if layout is not None:  # from here on, qubits names physical digits
        qubits = (layout.index(qubits[0]), layout.index(qubits[1]))
    _apply(state, qubits, t)


def _apply(state: PauliState, digits: tuple[int, ...], t: np.ndarray) -> None:
    """One pass of ``t`` over the buffer, on one or two physical digits."""
    n, m = state.n, len(digits)
    hi, lo = max(digits), min(digits)
    rows, mid, cols = 4 ** (n - 1 - hi), 4 ** max(hi - lo - 1, 0), 4**lo
    x = state._buf
    if m == 2 and digits[0] < digits[1]:  # put the more significant digit first
        t = t.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
    if mid > 1:
        # Digits apart: a matmul cannot contract two axes with a gap between
        # them, so the lo digit moves up to sit just below hi (one copy) and
        # stays there.  The old buffer goes before the matmul allocates.
        x = np.ascontiguousarray(x.reshape(rows, 4, mid, 4, cols).transpose(0, 1, 3, 2, 4))
        state._buf = x
        old = state._layout or tuple(range(n))
        layout = old[:lo] + old[lo + 1 : hi] + (old[lo],) + old[hi:]
        state._layout = None if layout == tuple(range(n)) else layout
    x = x.reshape(rows, len(t), mid * cols)
    if mid * cols == 1:  # digits last; t @ x would run `rows` tiny products
        out = x[:, :, 0] @ t.T
    else:
        out = np.matmul(t, x)
    state._buf = out.reshape(-1)


def apply_product(state: PauliState, t: np.ndarray) -> None:
    """Apply the same 4x4 transfer to every qubit; a 1-D ``t`` is refused.

    ``t`` composes into every qubit's pending factor, as ``apply_transfer``
    on each qubit would; the buffer sees it at the qubit's next two-qubit
    update or at the next full read.
    """
    t = _checked(t, 4)
    pending = state._pending
    for k in range(state.n):
        pending[k] = _compose(t, pending.get(k))


def check_capacity(n: int, max_qubits: int = DEFAULT_QUBIT_CAP) -> None:
    """Raise ``CapacityError`` for n above ``max_qubits``, ``ValueError`` for n < 1."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > max_qubits:
        raise CapacityError(f"n={n} exceeds the qubit cap of {max_qubits}")


def _product_state(factors: list[np.ndarray]) -> PauliState:
    """Tensor product of per-qubit coefficient 4-vectors; factors[k] is qubit k."""
    coeffs = np.array([1.0])
    for f in factors:  # qubit 0 first: later factors become more significant
        coeffs = np.kron(f, coeffs)
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
    """Tr(rho1 rho2) = 2^n sum_i a_i b_i; the closeness measure for states."""
    if s1.n != s2.n:
        raise ValueError(f"qubit counts differ: {s1.n} vs {s2.n}")
    return float(2.0**s1.n * np.dot(s1.coeffs, s2.coeffs))


def purity(s: PauliState) -> float:
    """Tr(rho^2) = 2^n sum_i a_i^2; equals 1 exactly for pure states."""
    return float(2.0**s.n * np.dot(s.coeffs, s.coeffs))


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
    bit-exact.
    """
    lines = [f"{_FILE_HEADER} n={s.n}"]
    lines.extend(repr(float(c)) for c in s.coeffs)
    text = "\n".join(lines) + "\n"
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text)
    else:
        sink.write(text)


def _read_coefficients(body: str, n: int) -> np.ndarray:
    """The 4^n coefficients of a state file body, one per line, blank lines skipped.

    numpy parses the body in one call into the array.  Only when that parse
    fails, or reads text ``float`` would refuse (two numbers on one line),
    are the lines walked one by one, for the first bad one and its error.
    """
    try:
        with warnings.catch_warnings():  # numpy < 2 warns on unread text, then returns a prefix
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(body, sep="\n")
    except (ValueError, DeprecationWarning):
        values = None
    if (
        values is not None
        and len(values) == 4**n
        and np.isfinite(values).all()
        and not ((" " in body or "\t" in body) and _TWO_ON_A_LINE.search(body))
    ):
        return values
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

    Up to ``oracle.ORACLE_QUBIT_CAP`` qubits the density matrix must also be
    positive: no eigenvalue below -``PSD_TOL``.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    brk = _LINE_BREAK.search(text)
    start, end = brk.span() if brk else (len(text), len(text))
    header, body = text[:start], text[end:]
    del text, brk  # the match holds the text too: keep one copy of the file, not two
    if not header.startswith(_FILE_HEADER):
        raise StateFormatError(f"missing header line {_FILE_HEADER!r} n=<n>")
    m = re.fullmatch(_FILE_HEADER + r" n=([1-9][0-9]*)", header)  # only what save_state writes
    if m is None:
        raise StateFormatError(f"malformed header {header!r}")
    n = int(m[1])
    if n > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"file declares n={n}, above the qubit cap of {DEFAULT_QUBIT_CAP}")

    state = PauliState(n, _read_coefficients(body, n))
    state.validate()
    from . import oracle  # here, not at the top: oracle imports this module

    if n <= oracle.ORACLE_QUBIT_CAP:  # purity <= 1 does not imply positivity for n >= 2
        low = float(np.linalg.eigvalsh(oracle.to_dense(state).rho).min())
        if low < -PSD_TOL:
            raise StateFormatError(f"density matrix has eigenvalue {low!r} below -{PSD_TOL}")
    return state
