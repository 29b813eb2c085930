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

Every state update is a Pauli transfer matrix (PTM) applied by
``apply_transfer`` or ``apply_product``, and every readout reads through
``PauliState.tensor`` and ``.axis``.  A diagonal PTM is passed as its
diagonal and applied as an in-place scaling of the coefficients; any other
goes through a matmul.  Every PTM here has first row (1, 0, ..., 0), so
``a[0]`` comes out of each update bit for bit.

Qubit layout.  The buffer a ``PauliState`` holds need not be in the order
above: it carries a private digit order, which qubit sits in each physical
base-4 digit.  A matrix PTM on two qubits whose digits are apart moves the
lower digit up to sit just below the higher one, in the one transposed copy
the matmul needs anyway, and the buffer keeps that layout; a later update on
the same pair runs on adjacent digits with no copy (the qubit remapping of
Häner & Steiger, arXiv:1704.01127).  Diagonal and one-qubit PTMs, and
``apply_product``, never move a digit.  The layout is invisible outside this
module: ``coeffs`` is always in the logical order above, and reading it on a
moved layout makes one transposed copy and resets the layout; ``tensor`` is
a logical view of the buffer, with no copy.
"""

from __future__ import annotations

import io
import re
import warnings
from functools import reduce
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
    ``apply_transfer`` and ``apply_product``: a diagonal PTM scales the
    buffer in place, any other replaces it by a new array.  Each keeps the
    trace coefficient ``coeffs[0]`` bit-exact.

    ``coeffs`` is always in logical order (qubit k on the k-th least
    significant digit), but reading it may copy: after a matrix PTM on a
    pair of qubits whose digits were apart, the buffer holds a moved layout,
    and the read transposes it back into a new array.  The constructor keeps
    a float64 array as given, without a copy, and ``coeffs`` returns that
    same array until a far pair moves a digit; after that it does not.
    """

    # _layout[d] is the qubit in physical digit d; None is the identity
    __slots__ = ("n", "_buf", "_layout")

    def __init__(self, n: int, coeffs: np.ndarray):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (4**n,):
            raise ValueError(f"expected {4**n} coefficients for n={n}, got shape {coeffs.shape}")
        self.n = n
        self._buf = coeffs
        self._layout = None

    @property
    def coeffs(self) -> np.ndarray:
        """The 4^n coefficients in logical order; on a moved layout, a copy."""
        if self._layout is not None:
            self._buf = np.ascontiguousarray(self.tensor()).reshape(-1)
            self._layout = None
        return self._buf

    def copy(self) -> "PauliState":
        c = PauliState(self.n, self._buf.copy())
        c._layout = self._layout
        return c

    def tensor(self) -> np.ndarray:
        """View of the coefficients as an n-dimensional (4, 4, ..., 4) array.

        Axis ``n - 1 - k`` of the view indexes the Pauli digit of qubit ``k``
        (C-order flattening puts qubit 0 in the least significant digit).
        On a moved layout the view is transposed; it never copies.
        """
        n, layout = self.n, self._layout
        t = self._buf.reshape((4,) * n)
        if layout is None:
            return t
        # qubit k sits in digit layout.index(k), buffer axis n - 1 - digit
        return t.transpose([n - 1 - layout.index(k) for k in reversed(range(n))])

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

    def __repr__(self) -> str:
        return f"PauliState(n={self.n})"


def apply_transfer(state: PauliState, qubits: tuple[int, ...], t: np.ndarray) -> None:
    """Apply a 4^m x 4^m transfer matrix to the m = 1 or 2 listed qubits.

    For m = 2 the matrix index is 4 * digit(qubits[0]) + digit(qubits[1]),
    the first listed qubit kron-major.  A 1-D ``t`` of length 4^m is the
    diagonal of a diagonal transfer matrix; it scales the buffer in place.
    A matrix on two qubits whose digits are apart leaves the state in a
    moved layout (see the module docstring).
    """
    n, m = state.n, len(qubits)
    size = 4**m
    if m not in (1, 2) or len(set(qubits)) != m or t.shape not in ((size, size), (size,)):
        raise ValueError(
            f"need a {size}x{size} transfer or its diagonal on {m} distinct qubits, got {t.shape}"
        )
    for k in qubits:
        state.axis(k)  # range check
    layout = state._layout
    if layout is not None:  # from here on, qubits names physical digits
        q = qubits  # spelled out, not tuple(map(...)): this runs on every update
        qubits = (layout.index(q[0]),) if m == 1 else (layout.index(q[0]), layout.index(q[1]))
    hi, lo = max(qubits), min(qubits)
    rows, mid, cols = 4 ** (n - 1 - hi), 4 ** max(hi - lo - 1, 0), 4**lo
    x = state._buf
    if t.ndim == 1:  # a diagonal: one broadcast multiply, no copy
        if m == 1:
            view, w = x.reshape(rows, 4, cols), t[:, None]
        else:
            d = t.reshape(4, 4) if qubits[0] > qubits[1] else t.reshape(4, 4).T
            view, w = x.reshape(rows, 4, mid, 4, cols), d[:, None, :, None]
        np.multiply(view, w, out=view)
        if not t.all():  # 0 * a negative is -0.0, where the matmul gives +0.0
            np.add(x, 0.0, out=x)
        return
    if m == 2 and qubits[0] < qubits[1]:  # put the more significant digit first
        t = t.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
    if mid > 1:
        # Digits apart: a matmul cannot contract two axes with a gap between
        # them, so the lo digit moves up to sit just below hi (one copy) and
        # stays there.  The old buffer goes before the matmul allocates.
        x = np.ascontiguousarray(x.reshape(rows, 4, mid, 4, cols).transpose(0, 1, 3, 2, 4))
        state._buf = x
        old = layout or tuple(range(n))
        layout = old[:lo] + old[lo + 1 : hi] + (old[lo],) + old[hi:]
        state._layout = None if layout == tuple(range(n)) else layout
    x = x.reshape(rows, len(t), mid * cols)
    if mid * cols == 1:  # digits last; t @ x would run `rows` tiny products
        out = x[:, :, 0] @ t.T
    else:
        out = np.matmul(t, x)
    state._buf = out.reshape(-1)


def apply_product(state: PauliState, t: np.ndarray) -> None:
    """Apply the same 4x4 transfer, or 4-entry diagonal, to every qubit.

    A matrix goes in ceil(n / 2) kron(t, t) passes over adjacent physical
    digits, so it moves no digit whatever the layout.  A diagonal scales the
    buffer in place twice: by its n-fold product over the high half of the
    digits, then over the low half.
    """
    if t.shape not in ((4,), (4, 4)):
        raise ValueError(f"need a 4x4 transfer or its diagonal, got {t.shape}")
    n = state.n
    if t.ndim == 1:
        low = n // 2
        w_hi = reduce(np.kron, [t] * (n - low), np.ones(1))
        w_lo = reduce(np.kron, [t] * low, np.ones(1))
        x = state._buf.reshape(len(w_hi), len(w_lo))
        np.multiply(x, w_hi[:, None], out=x)
        np.multiply(x, w_lo, out=x)
        if not t.all():
            np.add(x, 0.0, out=x)
        return
    pair = np.kron(t, t)
    at = state._layout or range(n)  # the qubit in each physical digit
    for lo in range(0, n - 1, 2):
        apply_transfer(state, (at[lo + 1], at[lo]), pair)
    if n % 2:
        apply_transfer(state, (at[n - 1],), t)


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
    m = re.fullmatch(_FILE_HEADER + r" n=(-?[0-9]+)", header)  # only what save_state writes
    if m is None:
        raise StateFormatError(f"malformed header {header!r}")
    n = int(m[1])
    if n < 1:
        raise StateFormatError(f"header declares invalid qubit count {n}")
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
