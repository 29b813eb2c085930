"""Pauli-basis states and exact gate action.

A density matrix on n qubits is stored as 4^n real coefficients, one per
Pauli string. Gates act as small real matrices on those coefficients, so
a Bell pair shows up as four nonzero entries rather than a complex matrix.
"""

import numpy as np

from paulisim.gates import apply_cnot, named_gate_transfer
from paulisim.state import apply_transfer, init_thermal, init_zero, purity

s = init_zero(2)
print("|00> purity:", purity(s))
print("|00> nonzero coefficients (index: value):")
for idx in np.flatnonzero(s.coeffs):
    print(f"  {idx:2d}: {s.coeffs[idx]:+.4f}")

# h on qubit 0, then cx 0 -> 1: the standard Bell pair
apply_transfer(s, (0,), named_gate_transfer("h"))
apply_cnot(s, 0, 1)
print("\nBell pair purity:", purity(s))
print("Bell pair coefficients as a 4x4 grid (rows: qubit 1, cols: qubit 0):")
with np.printoptions(suppress=True):  # h as u3(pi/2, 0, pi) leaves ~1e-17 entries
    print(s.tensor())

# the same four Pauli strings II, XX, YY, ZZ carry all the weight
labels = {0: "II", 5: "XX", 10: "YY", 15: "ZZ"}
for idx in np.flatnonzero(np.abs(s.coeffs) > 1e-12):
    print(f"  {labels[int(idx)]}: {s.coeffs[idx]:+.4f}")

# a thermal state at polarization p is diagonal and mixed
t = init_thermal(3, p=0.8)
print("\nthermal(p=0.8) on 3 qubits, purity:", purity(t))
