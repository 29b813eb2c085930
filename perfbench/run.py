"""paulisim benchmark: one workload per run, in its own fresh child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed and run length fix the list of
operations (see workloads.py); the child imports paulisim from ``src`` of
the checkout, runs the list with the clock on each operation, checks every
output outside the timed region, and with ``--trace 1`` replays the list
under the span tracer.  Operation times are reported at a reference host
speed (see calibrate.py), with the raw seconds beside them; set-up time is
raw.  The last stdout line is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A full result record, with the environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

TIME_LIMIT_S = 170.0  # the whole run, child and set-up probes included
SETUP_REPEATS = 7  # timed imports before the workload child, and as many after it
# BLAS may not use more threads than the machine has cores; one keeps a shared
# 2-vCPU VM steady and makes this a single-threaded baseline.
BLAS_THREADS = "1"


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def tail(op_s: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten operations beyond it.

    Returns (value, percentile, rank); only when that percentile is at least
    the median, i.e. from 20 operations up.
    """
    k = len(op_s)
    if k < 20:
        return None
    rank = k - 10  # 1-based rank of the value; ten lie beyond it
    return sorted(op_s)[rank - 1], 100.0 * rank / k, rank


def setup_seconds(env: dict[str, str], deadline: float, count: int) -> list[float]:
    """Seconds each of ``count`` fresh interpreters spends in ``import paulisim``.

    Timed inside the child, so interpreter start-up and process reaping
    (which ``subprocess`` polls in 50 ms steps under a timeout) stay out.
    """
    script = "import time; t0 = time.perf_counter(); import paulisim; print(time.perf_counter() - t0)"
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(proc.stdout))
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "paulisim" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'paulisim'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    spec = {"workload": args.workload, "trace": args.trace, "ops": ops, "root": str(ROOT),
            "spans_path": str(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")}
    env = child_env()
    # Set-up is timed half before the workload child and half after it, so that
    # its median spans the host's speed over the whole run, not one moment.
    try:
        setup = setup_seconds(env, deadline, SETUP_REPEATS + 1)[1:]  # the first writes bytecode caches
    except subprocess.TimeoutExpired:
        print("error: set-up probes ran past the time limit", file=sys.stderr)
        return 3
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                              capture_output=True, text=True, env=env,
                              timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 4
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    # the set-up probes so far import what the workload child imports and do
    # nothing else, so this is the workload child's peak; a traced run
    # reports the peak before its replay and bandwidth buffer instead
    peak_rss_mib = (child["peak_rss_kib"] if args.trace else
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    try:
        setup += setup_seconds(env, deadline, SETUP_REPEATS)
    except subprocess.TimeoutExpired:
        print("error: set-up probes ran past the time limit", file=sys.stderr)
        return 3

    op_s = child["op_s"]
    attempted, failed = len(op_s), len({f["op"] for f in child["failures"]})
    # operation times are in seconds at the reference host speed; see calibrate.py
    scaled = child["scaled_op_s"]
    speed = sum(op_s) / sum(scaled)
    raw = {"wall_s": sum(op_s), "op_p50_s": statistics.median(op_s)}
    end_to_end = {
        "wall_s": sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "peak_rss_mib": peak_rss_mib,
        "setup_s": statistics.median(setup),
    }
    env_record = {
        **child["env"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "memory_gib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "load": "one workload process at a time",
    }
    for failure in child["failures"]:
        print(f"FAIL op {failure['op']}: {failure['error']}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, "
          f"BLAS threads {env_record['blas_threads']}, nproc {env_record['nproc']}")
    print(f"host speed factor {speed:.4f} (raw / scaled wall, {len(child['probe_s'])} probe "
          "samples): operation times below are seconds at the reference speed "
          "(perfbench/calibrate.py), raw seconds in brackets")
    print(f"wall_s {end_to_end['wall_s']:.6f} s [{raw['wall_s']:.6f}] (sum over {attempted} operations)")
    print(f"op_p50_s {end_to_end['op_p50_s']:.6f} s [{raw['op_p50_s']:.6f}] (median of {attempted})")
    tail_s = tail(scaled)
    if tail_s is not None:
        print(f"op_tail_s {tail_s[0]:.6f} s (p{tail_s[1]:.1f}, rank {tail_s[2]} of {attempted})")
    else:
        print(f"op_tail_s not reported: {attempted} operations, fewer than 20")
    print(f"peak_rss_mib {peak_rss_mib:.1f} MiB (workload child, getrusage RUSAGE_CHILDREN)")
    print(f"setup_s {end_to_end['setup_s']:.6f} s (median of {len(setup)} fresh `import paulisim`, "
          "not scaled)")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")

    record = {"workload": args.workload, "env": env_record, "op_s": op_s, "setup_s": setup,
              "scaled_op_s": scaled, "probe_s": child["probe_s"], "probe_at": child["probe_at"],
              "speed_factor": speed, "raw": raw,
              "failures": child["failures"], "oracle_checked_ops": child["oracle_checked_ops"],
              "end_to_end": {**end_to_end, "fail_ratio": failed / attempted,
                             "op_tail_s": None if tail_s is None else
                             {"value": tail_s[0], "percentile": tail_s[1], "rank": tail_s[2]}}}
    if args.trace:
        tr = child["trace"]
        layer = tr["metrics"]
        stale = layer["trace.matches_engine"] != 1.0
        stream_mib = tr["stream_bytes"] / 2**20
        print(f"host.stream_gbps measured over a {stream_mib:.0f} MiB buffer (rand12's state); "
              f"caches {env_record['caches']}. The buffer fits in the last-level cache, so this is "
              "not a 4x-LLC bandwidth figure: that needs a 14-qubit (2 GiB) state, which with the "
              f"engine's working copies (state.rss_over_state on rand12) exceeds this machine's "
              f"{env_record['memory_gib']:.1f} GiB, so it is not run.")
        if stale:
            print("trace.matches_engine 0: the replay no longer reproduces the engine; "
                  "per-layer numbers are stale")
        metrics = {name: {"value": layer[name] if not stale or name == "trace.matches_engine"
                          else None, "unit": unit}
                   for name, unit in declared_metrics("per_layer").items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
        record.update(per_layer=metrics, spans=tr["spans"], spans_path=spec["spans_path"])
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in declared_metrics("end_to_end").items()}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
