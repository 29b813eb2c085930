"""Report corpus regression: the text outputs of a fixed noisy corpus keep their digest.

Covers ``run_circuit`` reports (without the timing line), ``verify_circuit``
texts and ``sweep`` tables.  Floats are rounded to 10 significant digits
before hashing, sign kept, so the digest pins every printed number to 10
significant digits and every zero's sign.  That is not blind to the last
bits: a number that comes out of cancellation, such as an ensemble
probability near 1e-11, moves in its 10th significant digit when its terms
move by 4e-17.  So a change that only reorders rounding (PTMs composed in
another order) can move the digest, and a digest that holds does not show
that no last bit moved.  Both corpora stay below 10 qubits, where every
pending group holds one qubit (``state._GROUPS_FROM_N``).  Shots stay off:
a last-bit change in a probability can flip a sampled count.
"""

import dataclasses
import hashlib
import re

import numpy as np

from helpers import random_circuit_text
from paulisim.circuit import NoiseModel
from paulisim.engine import run_circuit, verify_circuit
from paulisim.generators import adder_success_pattern, gen_adder, gen_qft
from paulisim.sweep import format_table, sweep

INITS = ("zero", "uniform", "thermal")

# a float as repr prints it: always a '.' or an exponent, so labels and counts never match
_FLOAT = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")

_DIVERGENCE_TOL = 1e-12


def _rounded(text: str) -> str:
    return _FLOAT.sub(lambda m: format(float(m.group()), ".10g"), text)


def _noise(rng: np.random.Generator) -> NoiseModel:
    """Every one of the 15 keys set away from its noiseless default."""
    u = rng.uniform
    return NoiseModel(
        p=u(0.8, 1.0),
        alpha_x=u(-0.1, 0.1), r_x=u(0.9, 1.0),
        alpha_y=u(-0.1, 0.1), r_y=u(0.9, 1.0),
        alpha_z=u(-0.1, 0.1), r_z=u(0.9, 1.0),
        alpha_cx=u(-0.1, 0.1), r_cx=u(0.9, 1.0),
        d1=u(0.9, 1.0), d2=u(0.9, 1.0),
        f=u(0.95, 1.0), g=u(0.95, 1.0),
        f_meas=u(0.9, 1.0), g_meas=u(0.9, 1.0),
    )


def _verify_text(text: str, noise: NoiseModel, init: str) -> str:
    """The verify text without its divergence lines, which must be tiny."""
    kept = []
    for line in verify_circuit(text, noise, init=init).to_text().splitlines():
        if line.startswith("max "):
            assert float(line.rsplit(" ", 1)[1]) <= _DIVERGENCE_TOL, line
        else:
            kept.append(line)
    return "\n".join(kept) + "\n"


def _corpus() -> list[tuple[str, NoiseModel, str]]:
    cases = []
    for i in range(42):
        rng = np.random.default_rng([29, i])
        text = random_circuit_text(rng, 1 + i % 6, 30)
        cases.append((text, _noise(rng), INITS[i % 3]))
    for n in range(1, 7):
        cases.append((gen_qft(n), _noise(np.random.default_rng([31, n])), INITS[n % 3]))
    return cases


def test_reports_of_a_fixed_corpus_keep_their_digest():
    # The digest pins every printed number of the report, verify and sweep
    # texts; it was taken before the shared compile front end went in.
    h = hashlib.sha256()
    for text, noise, init in _corpus():
        h.update(_rounded(run_circuit(text, noise, init=init).to_text(timing=False)).encode())
        h.update(_rounded(_verify_text(text, noise, init)).encode())
    adder = gen_adder("10", "11")
    metric = "success:" + adder_success_pattern("10", "11")
    rows = sweep(adder, "r", [0.9, 0.95, 1.0], metric, _noise(np.random.default_rng(37)))
    h.update(_rounded(format_table("r", metric, rows)).encode())
    assert h.hexdigest() == "ffdce69e21d005f2d774177f025ce1f9993941b582285228a8aed2e2d4a19bda"


def _decay_free_noise(rng: np.random.Generator) -> NoiseModel:
    """``_noise`` with g = g_meas = 1, so no decay runs, and f, f_meas down to 0.9."""
    u = rng.uniform
    return dataclasses.replace(_noise(rng), f=u(0.9, 1.0), g=1.0, f_meas=u(0.9, 1.0), g_meas=1.0)


def _decay_free_corpus() -> list[tuple[str, NoiseModel, str]]:
    """Random circuits that end in Bell readouts on far pairs, then diagonal readouts.

    The Bells take every qubit's pending factor into a pass, and with no decay
    every later factor (decoherence, z and x readouts along an axis) is
    diagonal, so the closing ensemble and the final state read a state whose
    pending factors are all diagonal.
    """
    cases = []
    for i in range(21):
        rng = np.random.default_rng([43, i])
        n = 2 + i % 7
        lines = [random_circuit_text(rng, n, 16)]
        lines += [f"bell q[{j}],q[{n - 1 - j}]\n" for j in range(n // 2)]
        if n % 2:
            lines.append(f"bell q[{n // 2}],q[0]\n")
        lines.append(f"measure q[{rng.integers(n)}]\n")
        lines.append(f"measure_x q[{rng.integers(n)}]\n")
        lines.append("expect " + "".join(rng.choice(list("IXZ"), size=n)) + "\n")
        lines.append("ensemble\n")
        cases.append(("".join(lines), _decay_free_noise(rng), INITS[i % 3]))
    return cases


def test_reports_of_a_decay_free_corpus_keep_their_digest():
    # With g = g_meas = 1 the pending factors at the closing readouts are all
    # diagonal, a case the corpus above (g < 1 throughout) never reaches.
    # The digest was taken while diagonal factors still had their own
    # in-place flush, so it also holds the matrix flush to those numbers.
    h = hashlib.sha256()
    for text, noise, init in _decay_free_corpus():
        h.update(_rounded(run_circuit(text, noise, init=init).to_text(timing=False)).encode())
        h.update(_rounded(_verify_text(text, noise, init)).encode())
    assert h.hexdigest() == "221a19875640dcb69b93c04559c9a4e3be4503159e9e3507f07ae2eb8bdceb62"
