"""Output checks, run outside the timed region.

Each check returns a list of failure strings; an empty list means the
operation's outputs are correct.  Tolerances are fixed here, not tuned per
run: invariants to 1e-9, engine-vs-oracle and stored references to 1e-10.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from paulisim import (
    NoiseModel,
    adder_success_pattern,
    compile_circuit,
    oracle,
    parse_circuit,
    pattern_mass,
    purity,
    run_circuit,
)

from replay import record_divergence

INVARIANT_TOL = 1e-9
REFERENCE_TOL = 1e-10
ORACLE_TOL = 1e-10

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# probe points of the stored fingerprint; fixed, independent of any seed
_FP_COEFFS = 48
_FP_OUTCOMES = 48


def state_and_records(report) -> list[str]:
    """Trace, purity and distribution invariants of one run_circuit report."""
    bad = []
    s = report.final_state
    if s.coeffs[0] != 2.0**-s.n:
        bad.append(f"trace coefficient {s.coeffs[0]!r} != 2^-{s.n}")
    pur = purity(s)
    if not pur <= 1.0 + INVARIANT_TOL:
        bad.append(f"purity {pur!r} > 1 + {INVARIANT_TOL}")
    for i, rec in enumerate(report.records):
        probs = rec.values if rec.kind == "measure" else (
            tuple(rec.dist.values()) if rec.dist is not None else None)
        if probs is not None:
            p = np.asarray(probs)
            if not (p.min() >= 0.0 and abs(p.sum() - 1.0) <= INVARIANT_TOL):
                bad.append(f"record {i} ({rec.kind}) is not a distribution: min {p.min()!r} sum {p.sum()!r}")
        if rec.kind == "expect" and not abs(rec.values[0]) <= 1.0 + INVARIANT_TOL:
            bad.append(f"record {i} expectation {rec.values[0]!r} outside [-1, 1]")
        if rec.counts is not None and min(rec.counts.values()) < 0:
            bad.append(f"record {i} has negative counts")
    return bad


def against_oracle(report, circuit: str, noise: NoiseModel) -> list[str]:
    """Final state and every record of a zero-init run vs the dense oracle."""
    n, instructions = parse_circuit(circuit)
    _, schedule = compile_circuit(n, instructions)
    dense = oracle.dense_zero(n)
    dense_records = oracle.run_schedule_dense(dense, schedule, noise)
    div = float(np.max(np.abs(report.final_state.coeffs - oracle.from_dense(dense).coeffs)))
    if len(dense_records) != len(report.records):
        return [f"oracle produced {len(dense_records)} records, engine {len(report.records)}"]
    rec_div = max((record_divergence(r, d) for r, d in zip(report.records, dense_records)), default=0.0)
    if not max(div, rec_div) <= ORACLE_TOL:
        return [f"engine vs oracle: state {div:.3e}, records {rec_div:.3e} > {ORACLE_TOL}"]
    return []


def verify_result(result) -> list[str]:
    if result.records_checked < 1:
        return ["verify checked no records"]
    worst = max(result.state_divergence, result.record_divergence)
    if not worst <= ORACLE_TOL:
        return [f"verify divergence {worst:.3e} > {ORACLE_TOL}"]
    return []


def sweep_rows(rows, values: list[float]) -> list[str]:
    """Row metrics are probabilities and never rise as r falls."""
    bad = []
    if [r.value for r in rows] != list(values):
        bad.append("sweep rows do not follow the requested values")
    metrics = [r.metric for r in rows]
    if not all(-INVARIANT_TOL <= m <= 1.0 + INVARIANT_TOL for m in metrics):
        bad.append(f"success mass outside [0, 1]: {metrics}")
    if any(b > a for a, b in zip(metrics, metrics[1:])):
        bad.append(f"success mass rises as r falls: {metrics}")
    return bad


def noiseless_adder(circuit: str, a: str, b: str) -> list[str]:
    """The noiseless run puts all ensemble mass on the correct sum."""
    report = run_circuit(circuit)
    bad = state_and_records(report)
    mass = pattern_mass(report.records[-1].dist, adder_success_pattern(a, b))
    if not abs(mass - 1.0) <= REFERENCE_TOL:
        bad.append(f"noiseless success mass {mass!r} != 1")
    return bad


def fingerprint(report) -> dict[str, list[float]]:
    """Fixed probe values of a run: Pauli expectations and outcome masses."""
    s = report.final_state
    rng = np.random.default_rng(0)
    idx = np.concatenate([[0], rng.choice(s.coeffs.size, size=_FP_COEFFS - 1, replace=False)])
    dist = list(report.records[-1].dist.values())
    outs = rng.choice(len(dist), size=_FP_OUTCOMES, replace=False)
    return {
        "expectations": [float(2.0**s.n * s.coeffs[i]) for i in idx],
        "outcomes": [dist[i] for i in outs],
        "purity": [purity(s)],
        "mean_outcome": [float(np.dot(dist, np.arange(len(dist)))) / len(dist)],
    }


def input_key(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["entries"]


def against_reference(got: dict[str, list[float]], ref: dict[str, list[float]] | None) -> list[str]:
    if ref is None:
        return ["no stored reference for this input"]
    bad = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None or len(have) != len(want):
            bad.append(f"reference {key}: shape mismatch")
            continue
        worst = max(abs(x - y) for x, y in zip(have, want))
        if not worst <= REFERENCE_TOL:
            bad.append(f"reference {key}: off by {worst:.3e} > {REFERENCE_TOL}")
    return bad
