"""Traced replay of run_circuit, sweep and verify_circuit.

The replay calls the same public functions the entry points call, in the
same order, and records one span around each call: (name, start, end,
parent, operation id).  Spans stay in memory; ``Tracer.dump`` writes them
once.  The replay is trusted only if its outputs equal the entry point's
bit for bit (``digest_*``), so any drift between this file and the engine
shows as ``trace.matches_engine = 0`` rather than as wrong layer numbers.

A span's name is ``layer.what``; the layer is the paulisim module whose
function the span wraps.  The per-operation root span is named ``op`` and
belongs to no layer: its self time is replay glue.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from paulisim import (
    DEFAULT_QUBIT_CAP,
    Record,
    SweepRow,
    VerifyResult,
    build_noise,
    build_stack,
    check_schedule,
    decompose,
    gates,
    make_initial_state,
    measurement,
    memory,
    merge,
    oracle,
    parse_circuit,
    parse_noise_config,
    partition,
    pattern_mass,
)

_AXES = {
    "measure": (0.0, 0.0, 1.0),
    "measure_x": (1.0, 0.0, 0.0),
    "measure_y": (0.0, 1.0, 0.0),
}


class Tracer:
    """In-memory span recorder with counters at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()

    def span(self, name: str) -> "Tracer":
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        return self

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Digests: what "bit for bit" compares


def _records_repr(records) -> str:
    return repr([(r.kind, r.qubits, r.label, r.values, r.dist, r.counts) for r in records])


def digest_run(coeffs: np.ndarray, records) -> str:
    h = hashlib.sha256(np.ascontiguousarray(coeffs).tobytes())
    h.update(_records_repr(records).encode())
    return h.hexdigest()


def digest_sweep(rows) -> str:
    return hashlib.sha256(repr([(r.value, r.metric, r.partitions) for r in rows]).encode()).hexdigest()


def digest_verify(res) -> str:
    fields = (res.n, res.partitions, res.state_divergence, res.record_divergence, res.records_checked)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Replays


def _compile(tr: Tracer, n: int, instructions):
    with tr.span("transpile.decompose"):
        select = decompose(instructions)
    with tr.span("transpile.merge"):
        merged = merge(n, select)
    with tr.span("transpile.partition"):
        schedule = partition(build_stack(n, merged))
    with tr.span("transpile.check"):
        check_schedule(schedule, n, merged)
    c = tr.counts
    c["circuit.instructions"] += len(instructions)
    c["transpile.select_instructions"] += len(select)
    c["transpile.fused_instructions"] += len(merged)
    c["transpile.partitions"] += len(schedule)
    return schedule


def _execute(tr: Tracer, state, schedule, noise):
    """Mirror of engine.execute_schedule with a span around every kernel."""
    rot, meas, mem = noise.rotation(), noise.measurement(), noise.memory()
    c = tr.counts
    n = state.n
    c["state.bytes"] = max(c["state.bytes"], state.coeffs.nbytes)
    records = []
    with tr.span("engine.execute"):
        for part in schedule.partitions:
            for ins in part.members:
                k = ins.kind
                q = ins.qubits
                if k == "u1":
                    with tr.span("gates.u1"):
                        gates.apply_u1(state, q[0], ins.angles[0], rot)
                    c["gates.u1_calls"] += 1
                    c["gates.passes"] += 1
                elif k == "u3":
                    with tr.span("gates.u3"):
                        gates.apply_u3(state, q[0], *ins.angles, rot)
                    c["gates.u3_calls"] += 1
                    c["gates.passes"] += 3
                elif k == "cx":
                    with tr.span("gates.cx"):
                        gates.apply_cnot(state, q[0], q[1], rot)
                    c["gates.cx_calls"] += 1
                    c["gates.passes"] += 1
                elif k == "reset":
                    with tr.span("measurement.reset"):
                        measurement.reset_qubit(state, q[0])
                    c["measurement.resets"] += 1
                else:
                    with tr.span("measurement.readout"):
                        if k in _AXES:
                            probs = measurement.measure_qubit(state, q[0], _AXES[k], meas)
                            rec = Record("measure", q, k, probs)
                        elif k == "expect":
                            value = measurement.expect_pauli_string(state, ins.string, meas)
                            rec = Record("expect", (), ins.string, (value,))
                        elif k == "ensemble":
                            rec = Record("ensemble", (), "", (), measurement.ensemble_distribution(state, meas))
                        elif k == "bell":
                            rec = Record("bell", q, "", (), measurement.bell_measure(state, *q, meas))
                        else:
                            raise ValueError(f"unexpected kind {k!r} in schedule")
                    records.append(rec)
                    c["measurement.readouts"] += 1
            f, g = mem.pair(part.category)
            with tr.span("memory.step"):
                memory.decohere(state, f)
                memory.decay(state, g, mem.p)
            c["memory.steps"] += 1
            c["memory.passes"] += n * ((f != 1.0) + (g != 1.0))
            c["engine.partitions"] += 1
    return records


def _sample_counts(records, shots: int, seed) -> None:
    rng = np.random.default_rng(seed)
    for rec in records:
        if rec.dist is not None:
            labels, probs = list(rec.dist.keys()), list(rec.dist.values())
        elif rec.kind == "measure":
            labels, probs = ["+", "-"], list(rec.values)
        else:
            continue
        draws = rng.multinomial(shots, np.array(probs))
        rec.counts = dict(zip(labels, (int(x) for x in draws)))


def replay_run(tr: Tracer, op: dict) -> str:
    with tr.span("op"):
        with tr.span("circuit.noise"):
            noise = parse_noise_config(op["noise"])
        with tr.span("circuit.parse"):
            n, instructions = parse_circuit(op["circuit"])
        schedule = _compile(tr, n, instructions)
        with tr.span("state.init"):
            state = make_initial_state(n, op["init"], noise)
        records = _execute(tr, state, schedule, noise)
        if op["shots"] > 0:
            with tr.span("engine.sample"):
                _sample_counts(records, op["shots"], op["seed"])
    return digest_run(state.coeffs, records)


def replay_sweep(tr: Tracer, op: dict) -> str:
    with tr.span("op"):
        with tr.span("circuit.noise"):
            base = parse_noise_config(op["noise"])
        with tr.span("circuit.parse"):
            n, instructions = parse_circuit(op["circuit"])
        schedule = _compile(tr, n, instructions)
        pattern = op["metric"].partition(":")[2]
        rows = []
        for value in op["values"]:
            with tr.span("sweep.row"):
                noise = build_noise(base, op["param"], value)
                with tr.span("state.init"):
                    state = make_initial_state(n, op["init"], noise)
                records = _execute(tr, state, schedule, noise)
                dist = next(r.dist for r in reversed(records) if r.kind == "ensemble")
                rows.append(SweepRow(value, pattern_mass(dist, pattern), len(schedule)))
            tr.counts["sweep.rows"] += 1
    return digest_sweep(rows)


def _dense_initial(n: int, init: str, noise):
    if init == "thermal":
        return oracle.dense_thermal(n, noise.p)
    if init == "zero":
        return oracle.dense_zero(n)
    raise ValueError(f"replay has no dense start for init {init!r}")


def replay_verify(tr: Tracer, op: dict) -> str:
    with tr.span("op"):
        with tr.span("circuit.noise"):
            noise = parse_noise_config(op["noise"])
        with tr.span("circuit.parse"):
            n, instructions = parse_circuit(op["circuit"])
        schedule = _compile(tr, n, instructions)
        with tr.span("state.init"):
            state = make_initial_state(n, op["init"], noise, max_qubits=DEFAULT_QUBIT_CAP)
        records = _execute(tr, state, schedule, noise)
        with tr.span("oracle.init"):
            dense = _dense_initial(n, op["init"], noise)
        with tr.span("oracle.run"):
            dense_records = oracle.run_schedule_dense(dense, schedule, noise)
        with tr.span("oracle.convert"):
            ref = oracle.from_dense(dense)
        with tr.span("engine.compare"):
            state_div = float(np.max(np.abs(state.coeffs - ref.coeffs)))
            if len(records) != len(dense_records):
                raise ValueError("record streams diverged in length")
            rec_div = 0.0
            for rec, dref in zip(records, dense_records):
                rec_div = max(rec_div, record_divergence(rec, dref))
    return digest_verify(VerifyResult(n, len(schedule), state_div, rec_div, len(records)))


def record_divergence(rec, ref) -> float:
    """Largest difference between an engine record and its oracle tuple."""
    if rec.kind == "expect":
        return abs(rec.values[0] - ref[2])
    if rec.kind == "measure":
        return max(abs(a - b) for a, b in zip(rec.values, ref[3]))
    dist_ref = ref[1] if rec.kind == "ensemble" else ref[2]
    return max(abs(rec.dist[lab] - dist_ref[lab]) for lab in rec.dist)


REPLAY = {"run": replay_run, "sweep": replay_sweep, "verify": replay_verify}


# ---------------------------------------------------------------------------
# Per-layer metrics from spans and counters

# span name -> metric that sums its self time
_SELF_METRICS = {
    "circuit.parse": "circuit.parse_s",
    "circuit.noise": "circuit.parse_s",
    "transpile.decompose": "transpile.decompose_s",
    "transpile.merge": "transpile.merge_s",
    "transpile.partition": "transpile.partition_s",
    "transpile.check": "transpile.check_s",
    "state.init": "state.init_s",
    "gates.u1": "gates.u1_s",
    "gates.u3": "gates.u3_s",
    "gates.cx": "gates.cx_s",
    "memory.step": "memory.step_s",
    "measurement.readout": "measurement.readout_s",
    "measurement.reset": "measurement.reset_s",
    "engine.execute": "engine.dispatch_s",
    "oracle.init": "oracle.init_s",
    "oracle.run": "oracle.run_s",
    "oracle.convert": "oracle.convert_s",
}

COUNT_METRICS = (
    "circuit.instructions",
    "transpile.select_instructions",
    "transpile.fused_instructions",
    "transpile.partitions",
    "gates.u1_calls",
    "gates.u3_calls",
    "gates.cx_calls",
    "gates.passes",
    "memory.steps",
    "memory.passes",
    "measurement.readouts",
    "measurement.resets",
    "state.bytes",
    "sweep.rows",
)


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when there is nothing to divide by."""
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, stream_gbps: float) -> dict[str, float]:
    """Per-layer numbers; byte counts are computed, not measured.

    One full-state pass is counted as one read and one write of the state,
    2 * state.bytes, for both the gate kernels and the memory step.
    """
    own = tr.self_times()
    m: dict[str, float] = {name: 0.0 for name in _SELF_METRICS.values()}
    layer_self = 0.0
    for (name, start, end, _, _), t in zip(tr.spans, own):
        if name in _SELF_METRICS:
            m[_SELF_METRICS[name]] += t
        if name != "op":
            layer_self += t
    c = tr.counts
    for key in COUNT_METRICS:
        m[key] = float(c[key])
    pass_bytes = 2.0 * c["state.bytes"]
    gate_s = m["gates.u1_s"] + m["gates.u3_s"] + m["gates.cx_s"]
    m["gates.bytes_computed"] = c["gates.passes"] * pass_bytes
    m["gates.gbps"] = ratio(m["gates.bytes_computed"], gate_s) / 1e9
    m["gates.bw_fraction"] = ratio(m["gates.gbps"], stream_gbps)
    m["memory.bytes_computed"] = c["memory.passes"] * pass_bytes
    m["memory.gbps"] = ratio(m["memory.bytes_computed"], m["memory.step_s"]) / 1e9
    m["engine.passes_per_partition"] = ratio(c["gates.passes"] + c["memory.passes"], c["engine.partitions"])
    m["transpile.fusion_ratio"] = ratio(c["transpile.fused_instructions"], c["transpile.select_instructions"])
    rows = [end - start for name, start, end, _, _ in tr.spans if name == "sweep.row"]
    m["sweep.row_s"] = statistics.median(rows) if rows else 0.0
    m["host.stream_gbps"] = stream_gbps
    m["trace.coverage"] = ratio(layer_self, traced_wall)
    return m
