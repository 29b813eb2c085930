"""Built-in benchmark circuits: ripple-carry adder and Fourier transform.

The adder follows the classic three-register carry-ripple network: register
a (qubits 0..n-1) and register b (qubits n..2n, one extra bit for the final
carry) hold the addends, register c (qubits 2n+1..3n) the scratch carries.
After the run, b holds a+b, a and c are restored, and the circuit ends with
an ensemble measurement.  The Fourier transform is the textbook
Hadamard-plus-controlled-phase cascade with terminal swaps; controlled
phases are spelled with cx and u1 only, so the generated text already sits
in the select set closure.
"""

from __future__ import annotations

from .errors import CapacityError
from .state import DEFAULT_QUBIT_CAP


def _check_bits(name: str, bits: str) -> None:
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"{name} must be a nonempty binary string, got {bits!r}")


def adder_success_pattern(a: str, b: str) -> str:
    """Expected sum-register bits, most significant first, 'x' elsewhere.

    Matches ensemble outcome labels of the generated adder circuit after
    marginalizing the a and carry registers.
    """
    _check_bits("a", a)
    _check_bits("b", b)
    n = max(len(a), len(b))
    total = 3 * n + 1
    s = format(int(a, 2) + int(b, 2), f"0{n + 1}b")
    pattern = ["x"] * total
    for i in range(n + 1):  # sum bit i lives on qubit n + i
        pattern[total - 1 - (n + i)] = s[n - i]
    return "".join(pattern)


def gen_adder(a: str, b: str) -> str:
    """Circuit text computing a + b into the b register, then ensemble."""
    _check_bits("a", a)
    _check_bits("b", b)
    n = max(len(a), len(b))
    a = a.zfill(n)
    b = b.zfill(n)
    total = 3 * n + 1
    if total > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"adder needs {total} qubits, capacity is {DEFAULT_QUBIT_CAP}")

    aq = lambda i: i
    bq = lambda i: n + i
    cq = lambda i: 2 * n + 1 + i
    carry_out = lambda i: cq(i + 1) if i + 1 < n else bq(n)

    lines = [
        f"qubits {total}",
        f"# a = q[0..{n - 1}], b = q[{n}..{2 * n}] (sum), carry = q[{2 * n + 1}..{3 * n}]",
        f"# success {adder_success_pattern(a, b)}",
    ]
    for k in range(n):
        if a[n - 1 - k] == "1":
            lines.append(f"x q[{aq(k)}]")
        if b[n - 1 - k] == "1":
            lines.append(f"x q[{bq(k)}]")

    def carry(i: int) -> None:
        t = carry_out(i)
        lines.append(f"ccx q[{aq(i)}],q[{bq(i)}],q[{t}]")
        lines.append(f"cx q[{aq(i)}],q[{bq(i)}]")
        lines.append(f"ccx q[{cq(i)}],q[{bq(i)}],q[{t}]")

    def uncarry(i: int) -> None:
        t = carry_out(i)
        lines.append(f"ccx q[{cq(i)}],q[{bq(i)}],q[{t}]")
        lines.append(f"cx q[{aq(i)}],q[{bq(i)}]")
        lines.append(f"ccx q[{aq(i)}],q[{bq(i)}],q[{t}]")

    def sum_bit(i: int) -> None:
        lines.append(f"cx q[{aq(i)}],q[{bq(i)}]")
        lines.append(f"cx q[{cq(i)}],q[{bq(i)}]")

    for i in range(n):
        carry(i)
    lines.append(f"cx q[{aq(n - 1)}],q[{bq(n - 1)}]")
    sum_bit(n - 1)
    for i in range(n - 2, -1, -1):
        uncarry(i)
        sum_bit(i)
    lines.append("ensemble")
    return "\n".join(lines) + "\n"


def gen_qft(n: int) -> str:
    """Circuit text of the n-qubit Fourier transform (with terminal swaps)."""
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    if n > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"QFT needs {n} qubits, capacity is {DEFAULT_QUBIT_CAP}")
    lines = [f"qubits {n}"]
    for k in range(n - 1, -1, -1):
        lines.append(f"h q[{k}]")
        for j in range(k - 1, -1, -1):
            # controlled phase pi/2^(k-j) between j and k, via cx and u1
            half = 2 ** (k - j + 1)
            lines.append(f"u1(pi/{half}) q[{j}]")
            lines.append(f"u1(pi/{half}) q[{k}]")
            lines.append(f"cx q[{j}],q[{k}]")
            lines.append(f"u1(-pi/{half}) q[{k}]")
            lines.append(f"cx q[{j}],q[{k}]")
    for i in range(n // 2):
        j = n - 1 - i
        lines.append(f"cx q[{i}],q[{j}]")
        lines.append(f"cx q[{j}],q[{i}]")
        lines.append(f"cx q[{i}],q[{j}]")
    return "\n".join(lines) + "\n"
