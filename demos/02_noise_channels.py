"""The three noise families and their physicality.

Every imperfect operation in the simulator is an exact channel:

* rotations with shrunken/shifted response, realized as an equal mixture
  of two over- and under-rotations;
* memory decoherence and decay applied between partitions;
* readout contrast loss on every measurement mode.

The Choi test below certifies each one is completely positive.
"""

import math

import numpy as np

from paulisim import NoiseModel, oracle
from paulisim.gates import cnot_transfer, rotation_transfer
from paulisim.memory import end_of_partition
from paulisim.state import PauliState, init_thermal, init_zero

# a noisy z rotation: the cosine response is scaled by r and shifted by alpha
noise = NoiseModel(r_z=0.95, alpha_z=0.02)
t = rotation_transfer("z", math.pi / 3, noise)
print("noisy Rz(pi/3) transfer matrix:")
print(np.round(t, 4))
print("Choi minimum eigenvalue:", oracle.choi_psd_check(t))

# the same check for the noisy cnot
t2 = cnot_transfer(NoiseModel(r_cx=0.9, alpha_cx=0.05))
print("\nnoisy cnot Choi minimum eigenvalue:", oracle.choi_psd_check(t2))

# memory noise: transverse components shrink by f, longitudinal relaxes
# toward the thermal value with strength 1 - g
s = init_zero(1)
end_of_partition(s, NoiseModel(f=0.9, g=0.75, p=0.6))
print("\n|0> after one memory step (f=0.9, g=0.75, p=0.6):", s.coeffs)

# the thermal state at matching polarization is a fixed point
th = init_thermal(1, p=0.6)
before = th.coeffs.copy()
end_of_partition(th, NoiseModel(f=0.9, g=0.75, p=0.6))
print("thermal drift under the same step:", np.max(np.abs(th.coeffs - before)))

# the full memory step is itself a channel; build its matrix by linearity
cols = []
for j in range(4):
    basis = PauliState(1, np.zeros(4))
    basis.coeffs[j] = 1.0
    end_of_partition(basis, NoiseModel(f=0.9, g=0.75, p=0.6))
    cols.append(basis.coeffs.copy())
ptm = np.column_stack(cols)
print("memory step Choi minimum eigenvalue:", oracle.choi_psd_check(ptm))
