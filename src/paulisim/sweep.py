"""One-at-a-time noise parameter sweeps over a fixed circuit.

The circuit is compiled once; each row re-executes the same schedule under a
noise model with one parameter (or parameter group) replaced.  Two metrics:

- ``success:PATTERN``: probability mass of the final ensemble distribution
  on outcomes matching PATTERN (most significant bit first, ``x`` = don't
  care), marginalizing the ``x`` positions.  A circuit with no ``ensemble``
  is refused from its compiled schedule, before any row runs.
- ``fidelity`` (or ``fidelity:FILE``): overlap Tr(rho1 rho2) of the final
  state with the noiseless final state, or with a saved reference state.

The grouped pseudo-parameters ``r`` and ``alpha`` set all four axis values
(x, y, z, cx) at once.

Each row releases its state once its metric is read, before the next row
builds its own, so a ``success`` sweep holds at most the two states one
pass needs, as ``run_circuit`` does, and a ``fidelity`` sweep holds its
reference besides: three (see ``state.check_capacity``).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from functools import lru_cache

from .circuit import NOISE_KEYS, NoiseModel
from .engine import _compile_text, execute_schedule, make_initial_state, parse_init
from .state import DEFAULT_QUBIT_CAP, PauliState, overlap

GROUP_KEYS = {
    "r": ("r_x", "r_y", "r_z", "r_cx"),
    "alpha": ("alpha_x", "alpha_y", "alpha_z", "alpha_cx"),
}


def build_noise(base: NoiseModel, param: str, value: float) -> NoiseModel:
    """Replace one parameter (or a grouped set) in a noise model."""
    if param in GROUP_KEYS:
        return dataclasses.replace(base, **{k: value for k in GROUP_KEYS[param]})
    if param not in NOISE_KEYS:
        raise ValueError(f"unknown sweep parameter {param!r}")
    return dataclasses.replace(base, **{param: value})


def pattern_mass(dist: dict[str, float], pattern: str) -> float:
    """Probability of outcomes matching a 0/1/x pattern (x marginalized).

    The matching probabilities are summed in the order of ``dist``.  A
    pattern of another length than the labels, or with a character other
    than 0, 1 and x, is refused (``ValueError``).
    """
    width = len(next(iter(dist), pattern))
    if len(pattern) != width:
        raise ValueError(f"pattern {pattern!r} has {len(pattern)} characters, the outcomes {width}")
    match = _matcher(pattern)
    return sum(p for label, p in dist.items() if match(label))


@lru_cache(maxsize=64)
def _matcher(pattern: str):
    """A full match of a 0/1/x pattern, x matching either bit, compiled once per pattern."""
    if set(pattern) - {"0", "1", "x"}:
        raise ValueError(f"pattern {pattern!r} holds a character other than 0, 1 and x")
    return re.compile(pattern.replace("x", "[01]")).fullmatch


@dataclass
class SweepRow:
    value: float
    metric: float
    partitions: int


def sweep(
    circuit_text: str,
    param: str,
    values: list[float],
    metric: str,
    base_noise: NoiseModel | None = None,
    init: str = "zero",
) -> list[SweepRow]:
    base = base_noise or NoiseModel()
    n, _, _, schedule, spec = _compile_text(circuit_text, init, DEFAULT_QUBIT_CAP)
    noises = [build_noise(base, param, value) for value in values]  # refuse a bad value before any row

    pattern = None
    reference: PauliState | None = None
    if metric.startswith("success:"):
        pattern = metric.partition(":")[2]
        if len(pattern) != n or set(pattern) - {"0", "1", "x"}:
            raise ValueError(f"success pattern must be {n} characters over 0/1/x")
        if not any(ins.kind == "ensemble" for part in schedule.partitions for ins in part.members):
            raise ValueError("success metric needs an ensemble instruction in the circuit")
    elif metric == "fidelity":
        reference = make_initial_state(n, spec, base)
        execute_schedule(reference, schedule, NoiseModel())
    elif metric.startswith("fidelity:"):
        path = metric.partition(":")[2]
        if not path:
            raise ValueError("metric 'fidelity:' is missing its state-file path (fidelity:FILE)")
        # the same read and size check as --init file:PATH
        reference = parse_init(n, f"file:{path}").state
    else:
        raise ValueError(f"unknown metric {metric!r}")

    rows = []
    for value, noise in zip(values, noises):
        state = make_initial_state(n, spec, noise)
        records = execute_schedule(state, schedule, noise)
        if pattern is not None:
            m = pattern_mass(next(r.dist for r in reversed(records) if r.kind == "ensemble"), pattern)
        else:
            m = overlap(state, reference)
        del state  # released before the next row's state is built, which takes its block
        rows.append(SweepRow(value, m, len(schedule)))
    return rows


def format_table(param: str, metric_name: str, rows: list[SweepRow]) -> str:
    """Tab-separated table: header line, then one row per swept value."""
    lines = [f"{param}\t{metric_name}\tpartitions"]
    lines.extend(f"{r.value!r}\t{r.metric!r}\t{r.partitions}" for r in rows)
    return "\n".join(lines) + "\n"
