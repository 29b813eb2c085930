"""Relations the engine must keep above the oracle's qubit cap, on its shipped settings.

The dense oracle stops at ``oracle.ORACLE_QUBIT_CAP`` qubits, and the engine
forms groups of up to three qubits, with their 64-wide passes and moved
layouts, only from ``state._GROUPS_FROM_N`` up.  So these tests judge that
path by a relation between two runs instead of by a reference value.

Relabelling: a circuit run again with its qubits renamed by a permutation
gives the renamed final state and records.  Renaming moves every group onto
other physical digits, so a layout that records the wrong qubit for a digit
breaks it, and so does an ensemble read (``PauliState.z_block``) that
contracts a pending group wrongly or puts its axes in the wrong order.
"""

import re

import numpy as np
import pytest

from helpers import random_circuit_text, random_noise
from paulisim import state as kernel
from paulisim.engine import run_circuit


def _relabelled(text: str, perm: list[int]) -> str:
    """The circuit with qubit k renamed perm[k]: each q[k], and each expect string's labels."""
    n = len(perm)
    lines = []
    for line in text.splitlines():
        if line.startswith("expect "):
            labels = [""] * n
            for i, c in enumerate(line.split()[1]):  # character i is qubit n - 1 - i
                labels[n - 1 - perm[n - 1 - i]] = c
            line = "expect " + "".join(labels)
        else:
            line = re.sub(r"q\[(\d+)\]", lambda m: f"q[{perm[int(m[1])]}]", line)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _moves_of_three(monkeypatch) -> list[int]:
    """Counts, from now on, each pass of three qubits whose digits are apart."""
    moves = []
    one_pass = kernel._apply
    def spy(s, digits, t):
        if len(digits) == 3 and max(digits) - min(digits) > 2:
            moves.append(1)
        one_pass(s, digits, t)
    monkeypatch.setattr(kernel, "_apply", spy)
    return moves


def _grouped_reads(monkeypatch) -> list[bool]:
    """For each ``z_block`` read from now on, whether a group of two or more was pending."""
    reads = []
    read = kernel.PauliState.z_block
    def spy(s):
        reads.append(any(len(g[0]) > 1 for g in s._pending.values()))
        return read(s)
    monkeypatch.setattr(kernel.PauliState, "z_block", spy)
    return reads


@pytest.mark.parametrize("n, seed", [(10, 1), (10, 2), (10, 3), (11, 4)])
def test_relabelling_the_qubits_relabels_the_state_and_the_records(monkeypatch, n, seed):
    rng = np.random.default_rng([71, n, seed])
    text = random_circuit_text(rng, n, 80)
    perm = [int(k) for k in rng.permutation(n)]
    noise = random_noise(rng)
    init = ("zero", "uniform", "thermal")[seed % 3]
    moves, reads = _moves_of_three(monkeypatch), _grouped_reads(monkeypatch)
    want = run_circuit(text, noise, init=init)
    moved_before, read_before = len(moves), list(reads)
    got = run_circuit(_relabelled(text, perm), noise, init=init)
    assert moved_before > 0 and len(moves) > moved_before, "no group of three moved"
    # an ensemble reads through a pending group's factor, in both runs
    assert any(read_before) and any(reads[len(read_before) :]), "no ensemble read through a group"
    assert got.partitions == want.partitions

    # qubit k of the first run is qubit perm[k] of the second: tensor axis n - 1 - k
    axes = [n - 1 - perm[n - 1 - a] for a in range(n)]
    coeffs = got.final_state.tensor().transpose(axes).reshape(-1)
    assert np.max(np.abs(coeffs - want.final_state.coeffs)) <= 1e-15

    assert [r.kind for r in got.records] == [r.kind for r in want.records]
    for g, w in zip(got.records, want.records):
        assert g.qubits == tuple(perm[k] for k in w.qubits)
        if w.kind == "expect":
            assert g.label == _relabelled(f"expect {w.label}", perm).split()[1]
        else:
            assert g.label == w.label
        assert np.max(np.abs(np.subtract(g.values, w.values)), initial=0.0) <= 1e-15
        if w.kind == "ensemble":  # bit i of an outcome is qubit n - 1 - i
            dist = {"".join(label[n - 1 - perm[n - 1 - i]] for i in range(n)): p for label, p in g.dist.items()}
        else:
            dist = g.dist
        assert (dist is None) == (w.dist is None)
        if w.dist is not None:
            assert dist.keys() == w.dist.keys()
            assert max(abs(dist[k] - w.dist[k]) for k in w.dist) <= 1e-15
