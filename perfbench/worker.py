"""One workload in a fresh interpreter: timed operations, checks, traced replay.

Reads the run spec (JSON) from stdin and prints one JSON result line.  The
parent sets PYTHONPATH to the checkout's ``src`` and pins BLAS threads
before this interpreter starts; see run.py.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import paulisim
from paulisim import (
    adder_success_pattern,
    gen_adder,
    parse_noise_config,
    run_circuit,
    sweep,
    verify_circuit,
)

import calibrate
import checks
import replay

POST_IMPORT_RSS_KIB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
STREAM_BYTES = 8 * 4**12  # the size of rand12's 12-qubit state
CALIBRATION_EDGE_SAMPLES = 5  # probe samples before the first and after the last operation


def prepare(op: dict) -> dict:
    """Fill in the adder text; generators only produce input text."""
    if op["kind"] == "sweep" and op["circuit"] is None:
        a, b = op["addends"]
        op = dict(op, circuit=gen_adder(a, b), metric="success:" + adder_success_pattern(a, b))
    return op


def run_op(op: dict):
    """One operation, from circuit and noise text to the entry point's result."""
    noise = parse_noise_config(op["noise"])
    if op["kind"] == "run":
        return run_circuit(op["circuit"], noise, init=op["init"], shots=op["shots"], seed=op["seed"])
    if op["kind"] == "sweep":
        return sweep(op["circuit"], op["param"], op["values"], op["metric"], noise, init=op["init"])
    return verify_circuit(op["circuit"], noise, init=op["init"])


def reference_key(op: dict) -> str:
    if op["kind"] == "sweep":
        return checks.input_key("sweep", *op["addends"], op["noise"], op["param"], repr(op["values"]))
    return checks.input_key("run", op["circuit"], op["noise"], op["init"])


def check_op(op: dict, out, index: int, oracle_sample: set[int], reference: dict) -> list[str]:
    """Every check that applies to this operation's outputs."""
    if op["kind"] == "run":
        bad = checks.state_and_records(out)
        if op.get("anchor"):
            bad += checks.against_reference(checks.fingerprint(out), reference.get(reference_key(op)))
        if index in oracle_sample:
            bad += checks.against_oracle(out, op["circuit"], parse_noise_config(op["noise"]))
        return bad
    if op["kind"] == "sweep":
        bad = checks.sweep_rows(out, op["values"])
        bad += checks.against_reference(
            {"success": [r.metric for r in out]}, reference.get(reference_key(op)))
        return bad + checks.noiseless_adder(op["circuit"], *op["addends"])
    bad = checks.verify_result(out)
    # verify reports divergences only; the engine's own outputs get the invariants
    engine = run_circuit(op["circuit"], parse_noise_config(op["noise"]), init=op["init"])
    return bad + checks.state_and_records(engine)


def digest(op: dict, out) -> str:
    if op["kind"] == "run":
        return replay.digest_run(out.final_state.coeffs, out.records)
    if op["kind"] == "sweep":
        return replay.digest_sweep(out)
    return replay.digest_verify(out)


def stream_gbps(nbytes: int, repeats: int = 9) -> float:
    """Read+write bandwidth of an in-place numpy scale over ``nbytes``."""
    buf = np.ones(nbytes // 8)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(buf, 1.0000001, out=buf)
        times.append(time.perf_counter() - t0)
    return 2.0 * buf.nbytes / statistics.median(times) / 1e9


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when the loaded library exposes it."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "paulisim": str(Path(paulisim.__file__).parent),
    }


def main() -> None:
    spec = json.load(sys.stdin)
    ops = [prepare(op) for op in spec["ops"]]
    root = Path(spec["root"])
    if Path(paulisim.__file__).resolve().parent != (root / "src" / "paulisim").resolve():
        raise SystemExit(f"paulisim imported from {paulisim.__file__}, not from the checkout")
    reference = checks.load_reference()
    count = len(ops)
    oracle_sample = {0, count // 3, (2 * count) // 3} if spec["workload"] == "deep_small" else set()
    trace = spec["trace"]

    op_s: list[float] = []
    failures: list[dict] = []
    digests: list[str] = []
    probe = calibrate.Probe(spec["workload"])
    probe_at: list[int] = []  # probe samples taken before each operation
    probe.sample(CALIBRATION_EDGE_SAMPLES)
    # RSS before the first operation, with paulisim imported and the probe's buffer in place
    baseline_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, op in enumerate(ops):
        probe_at.append(len(probe.samples))
        t0 = time.perf_counter()
        try:
            out = run_op(op)
        except Exception as exc:  # a raising operation counts as failed, the run goes on
            op_s.append(time.perf_counter() - t0)
            failures.append({"op": i, "error": f"{type(exc).__name__}: {exc}"})
            digests.append("")
            probe.after(op_s[-1])
            continue
        op_s.append(time.perf_counter() - t0)
        probe.after(op_s[-1])
        try:
            bad = check_op(op, out, i, oracle_sample, reference)
        except Exception as exc:  # a check that cannot run is a failed check
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        if bad:
            failures.append({"op": i, "error": "; ".join(bad)})
        if trace:
            digests.append(digest(op, out))
        del out  # drop the final state before the next operation allocates its own
    probe.sample(CALIBRATION_EDGE_SAMPLES)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "op_s": op_s,
        "scaled_op_s": probe.scale(op_s, probe_at),
        "probe_s": probe.samples,
        "probe_at": probe_at,
        "failures": failures,
        "post_import_rss_kib": POST_IMPORT_RSS_KIB,
        "baseline_rss_kib": baseline_rss_kib,
        "peak_rss_kib": peak_rss_kib,
        "env": environment(),
        "oracle_checked_ops": sorted(oracle_sample),
    }
    if trace:
        grown_kib = peak_rss_kib - baseline_rss_kib
        result["trace"] = traced(ops, digests, spec["workload"], sum(result["scaled_op_s"]),
                                 grown_kib, spec["spans_path"])
    print(json.dumps(result))


def traced(ops: list[dict], digests: list[str], workload: str, scaled_wall: float,
           grown_kib: int, spans_path: str) -> dict:
    """Replay every operation under the tracer and derive per-layer metrics.

    Per-layer times are raw seconds; ``host.speed_factor`` is the host-speed
    factor over the replay, to compare them with the end-to-end metrics.
    ``scaled_wall`` is the untraced wall time at the reference speed, and
    ``grown_kib`` how far the untraced pass raised peak RSS over its baseline.
    """
    gbps = stream_gbps(STREAM_BYTES)
    tr = replay.Tracer()
    probe = calibrate.Probe(workload)
    replay_s: list[float] = []
    probe_at: list[int] = []
    probe.sample(CALIBRATION_EDGE_SAMPLES)
    matches = True
    for i, op in enumerate(ops):
        if not digests[i]:  # the entry point raised; there is nothing to match
            matches = False
            continue
        tr.op = i
        probe_at.append(len(probe.samples))
        t0 = time.perf_counter()
        try:
            matches &= replay.REPLAY[op["kind"]](tr, op) == digests[i]
        except Exception as exc:  # the replay no longer fits the program
            print(f"replay of op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            matches = False
        replay_s.append(time.perf_counter() - t0)
        probe.after(replay_s[-1])
    probe.sample(CALIBRATION_EDGE_SAMPLES)
    op_spans = [end - start for name, start, end, _, _ in tr.spans if name == "op"]
    traced_wall = sum(op_spans)
    metrics = replay.layer_metrics(tr, traced_wall, gbps)
    metrics["state.rss_over_state"] = replay.ratio(grown_kib * 1024.0, metrics["state.bytes"])
    # both halves at the reference speed, so host drift between them cancels
    metrics["trace.overhead_ratio"] = replay.ratio(sum(probe.scale(replay_s, probe_at)), scaled_wall)
    metrics["host.speed_factor"] = statistics.median(probe.factors())
    metrics["trace.matches_engine"] = 1.0 if matches else 0.0
    tr.dump(spans_path)
    return {"metrics": metrics, "spans": len(tr.spans), "stream_bytes": STREAM_BYTES}


if __name__ == "__main__":
    main()
