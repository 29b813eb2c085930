"""Alternating parent/change benchmark pairs for one workload, written to BENCH_<tag>.json.

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload W --pairs N [--tag T]

DIR is the root of a checkout.  Pair i runs ``perfbench/run.py --trace 0``
once in each tree on seed ``--seed`` + i for the ``run_seconds`` that
BENCHMARK.json sets, parent first in even pairs and change first in odd
ones, so a drift in host speed hits both sides alike.  Then the traced
pass (``--trace 1``, seed ``--seed``) runs every workload that
BENCHMARK.json declares, and ``--workload`` if it is not one of them, in
rounds that alternate which tree goes first in the same way:
``TRACED_REPEATS`` rounds for ``--workload`` and one for each other
workload.  So the record holds each layer's before and after from the
same harness, with a spread for the layers the change claims to move.
The record, at the root of the repository that holds this script, has
every run's end-to-end metrics, each side's medians and quartiles, the
share of pairs in which the change had the lower value (every end-to-end
metric is better lower), the gain rule for each metric, and the traced
per-layer metrics of both sides: ``traced_parent`` and ``traced_change``
hold each workload's per-metric median over its traced runs,
``traced_spread`` the median, min and max of each side, workload and
metric, and ``traced_order`` the [side, workload] of every traced run in
the order it ran.  The gain rule holds when
the change is lower in at least 9 of 10 pairs (a tie counts for neither
side) and the parent's median exceeds the change's by more than the
parent's quartile range.  Each end-to-end metric also gets a no-regression
entry: it holds when the change's median is at most the parent's times
(1 + the metric's ``bound`` in BENCHMARK.json), and the metric is unresolved
when the parent's quartile range over its median is wider than that bound,
unless every change run reads lower than every parent run.  Last, the
tool prints each traced metric of ``--workload`` whose change range (min
to max over its ``TRACED_REPEATS`` rounds) lies wholly above or below the
parent's, with both medians: the layers where a saving or a cost shows.
The two checkouts must sit at paths of equal length, because the path
alone moves peak RSS.  A run that fails, ends without a JSON line on
stdout, is not correct or has a failed operation stops the tool with a
non-zero exit, naming the run and printing its stderr.  Standard library
only.

    python3 tools/ab_pairs.py --in-process --parent DIR --change DIR --workload W --pairs N

``--in-process`` runs N rounds, each in a fresh child interpreter with
one BLAS thread.  A round loads both trees' ``paulisim`` under the module
names ``paulisim_parent`` and ``paulisim_change``
(``importlib.util.spec_from_file_location`` on ``DIR/src/paulisim``), so
neither tree imports the other; the parent's tree is loaded first in even
rounds and the change's in odd ones, since the tree loaded second reads
up to 0.6% faster parses on identical code.  Round i takes the op list of
seed ``--seed`` + i from ``perfbench/workloads.py`` of the checkout that
holds this script, for the ``run_seconds`` that BENCHMARK.json sets, and
runs each op on both trees, the first-loaded first in ops 0 and 3 of every
four and second in ops 1 and 2 (ABBA).  One untimed op per tree warms its
caches first.  A run op calls the tree's ``run_circuit`` with timers on
the names its ``engine`` module looks up: ``parse_circuit`` (parse),
``_compile_text`` less its parse (compile: the input check, if any, and the
compile stages), ``execute_schedule`` (execute) and ``_sample_counts``
(sample); ``op`` is the whole call.  A sweep or verify op times only its
entry point (``op``).  For each phase the tool prints each side's median
seconds per op and the median over all ops of the change/parent ratio,
with a 95% interval from a two-level bootstrap (rounds resampled, then
ops within each round; fixed seed), so the spread between interpreters
counts as well as the spread between ops; then the same as one JSON line.
It writes no record: process-level pairs stay the source of end-to-end
and RSS claims.  numpy, the BLAS and the garbage collector are shared by
both trees in a round, so an allocation or a collection one tree causes
can land in the other's time; the alternation spreads that over both.
Each loaded tree is its own copy of ``paulisim.state``, so each starts its
own worker threads at its first large pass; the trees run one op at a time,
so their workers never run at once.

In both modes the record or JSON line gives ``cpus``, the CPUs in this
process's affinity mask, which every child inherits: with one, no full-state
pass is split across threads.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("correct", "attempted", "failed")
# traced rounds per side for the claimed workload: a single traced run of
# one layer spreads by up to a third between runs of one tree
TRACED_REPEATS = 3
# the phases of a run op, in order, and the resamples of each phase's interval
PHASES = ("parse", "compile", "execute", "sample", "op")
BOOTSTRAP = 1000


def cpus() -> int:
    """The CPUs a child of this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _last_json(stdout: str) -> dict:
    """The last line of a run's stdout as a JSON object; {} if it is missing or not one."""
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {}
    return out if isinstance(out, dict) else {}


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its correctness counts and metric values.

    Exits with the run's stderr unless it finished with a JSON line, correct,
    with no failed operation.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    out = _last_json(run.stdout) if run.returncode == 0 else {}
    if not out.get("correct") or out.get("failed") != 0:
        sys.exit(f"refused: {workload} seed {seed} trace {trace} in {tree} exited {run.returncode}, "
                 f"correct {out.get('correct')}, failed {out.get('failed')}\n{run.stderr}")
    return {"seed": seed, **{k: out[k] for k in COUNTS},
            **{name: m["value"] for name, m in out["metrics"].items()}}


def _spread(runs: list[dict]) -> dict:
    """Each metric's median, min and max over the runs of one side and workload."""
    names = [k for k in runs[0] if k != "seed" and k not in COUNTS]
    return {m: {"median": statistics.median(r[m] for r in runs), "min": min(r[m] for r in runs),
                "max": max(r[m] for r in runs)} for m in names}


def gain_rule(record: dict, metric: str) -> dict:
    """Whether the change's gain on ``metric`` counts: lower in at least 9 of
    10 pairs, and a gap between the medians larger than the parent's IQR."""
    q1, _, q3 = record["quartiles"]["parent"][metric]
    gap = record["median"]["parent"][metric] - record["median"]["change"][metric]
    won = record["change_won"][metric]
    return {"change_won": won, "median_gap": gap, "parent_iqr": q3 - q1,
            "holds": won >= 0.9 and gap > q3 - q1}


def no_regression(record: dict, metric: str, bound: float) -> dict:
    """Whether the change's median on ``metric`` is at most the parent's times
    (1 + bound), and whether the parent's spread leaves that unresolved."""
    parent, change = record["median"]["parent"][metric], record["median"]["change"][metric]
    q1, _, q3 = record["quartiles"]["parent"][metric]
    runs = record["runs"]
    every_run_lower = max(r[metric] for r in runs["change"]) < min(r[metric] for r in runs["parent"])
    return {"bound": bound, "limit": parent * (1 + bound), "parent_spread": (q3 - q1) / parent,
            "holds": change <= parent * (1 + bound),
            "unresolved": (q3 - q1) / parent > bound and not every_run_lower}


def separated(record: dict, workload: str) -> list[tuple[str, float, float, str]]:
    """Each traced metric of ``workload`` whose change range lies wholly below or
    above the parent's, as (metric, parent median, change median, "below" or "above")."""
    parent, change = (record["traced_spread"][s][workload] for s in ("parent", "change"))
    out = []
    for m, p in parent.items():
        c = change[m]
        if c["max"] < p["min"] or c["min"] > p["max"]:
            out.append((m, p["median"], c["median"], "below" if c["max"] < p["min"] else "above"))
    return out


def load_tree(tree: Path, name: str):
    """The checkout's ``paulisim`` package, imported as the module ``name``."""
    pkg = tree / "src" / "paulisim"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class _Timed:
    """Timers on the names a tree's ``engine`` module looks up for a run op."""

    NAMES = {"parse_circuit": "parse", "_compile_text": "front", "execute_schedule": "execute",
             "_sample_counts": "sample"}

    def __init__(self, package) -> None:
        self.package = package
        self.seconds: dict[str, float] = {}
        engine = importlib.import_module(package.__name__ + ".engine")
        for name, phase in self.NAMES.items():
            setattr(engine, name, self._wrap(getattr(engine, name), phase))

    def _wrap(self, fn, phase: str):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[phase] = self.seconds.get(phase, 0.0) + time.perf_counter() - start
        return timed

    def op(self, op: dict) -> dict[str, float]:
        """Seconds per phase of one op on this tree."""
        ps = self.package
        noise = ps.parse_noise_config(op["noise"])
        if op["kind"] == "sweep":  # the adder's text, as perfbench/worker.py fills it in
            a, b = op["addends"]
            op = dict(op, circuit=ps.gen_adder(a, b), metric="success:" + ps.adder_success_pattern(a, b))
        self.seconds = {}
        start = time.perf_counter()
        if op["kind"] == "run":
            ps.run_circuit(op["circuit"], noise, init=op["init"], shots=op["shots"], seed=op["seed"])
        elif op["kind"] == "sweep":
            ps.sweep(op["circuit"], op["param"], op["values"], op["metric"], noise, init=op["init"])
        else:
            ps.verify_circuit(op["circuit"], noise, init=op["init"])
        total = time.perf_counter() - start
        if op["kind"] != "run":
            return {"op": total}
        s = self.seconds
        return {"parse": s["parse"], "compile": s["front"] - s["parse"], "execute": s["execute"],
                "sample": s.get("sample", 0.0), "op": total}


def ratio_interval(rounds: list[list[float]], seed: int = 0) -> tuple[float, float, float]:
    """The median of all ratios and a 95% interval of it that resamples the
    rounds, then the ratios within each chosen round."""
    rng = random.Random(seed)
    medians = []
    for _ in range(BOOTSTRAP):
        pooled: list[float] = []
        for ratios in rng.choices(rounds, k=len(rounds)):
            pooled += rng.choices(ratios, k=len(ratios))
        medians.append(statistics.median(pooled))
    medians.sort()
    whole = statistics.median(r for ratios in rounds for r in ratios)
    return whole, medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def in_process_round(workload: str, seed: int, seconds: float, order: list[list[str]]) -> dict:
    """One round in this interpreter: each side's seconds per op and phase.

    ``order`` lists [side, tree] in the order the trees load and take the
    first op of each four."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    sides = {side: _Timed(load_tree(Path(tree), f"paulisim_{side}")) for side, tree in order}
    first, second = sides
    ops = workloads.make_ops(workload, seed, seconds)
    for timed in sides.values():
        timed.op(ops[0])
    times: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    for j, op in enumerate(ops):
        for side in (first, second) if j % 4 in (0, 3) else (second, first):
            for phase, t in sides[side].op(op).items():
                times[side].setdefault(phase, []).append(t)
    return times


# argv[1]: this script's directory; argv[2]: in_process_round's arguments as JSON
_ROUND = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ab_pairs
print(json.dumps(ab_pairs.in_process_round(*json.loads(sys.argv[2]))))
"""


def in_process(args: argparse.Namespace, seconds: float) -> int:
    """Alternate both trees per op, one child interpreter a round, and print each phase's ratio."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    trees = [["parent", str(args.parent.resolve())], ["change", str(args.change.resolve())]]
    seeds = [args.seed + i for i in range(args.pairs)]
    times: dict[str, dict[str, list[list[float]]]] = {"parent": {}, "change": {}}  # per round
    for i, seed in enumerate(seeds):
        order = trees if i % 2 == 0 else trees[::-1]
        round_args = json.dumps([args.workload, seed, seconds, order])
        proc = subprocess.run([sys.executable, "-c", _ROUND, str(ROOT / "tools"), round_args],
                              capture_output=True, text=True, env=env)
        out = _last_json(proc.stdout)
        if proc.returncode != 0 or not out:
            sys.exit(f"in-process round {i + 1} (seed {seed}) failed:\n{proc.stderr}")
        for side, phases in out.items():
            for phase, ts in phases.items():
                times[side].setdefault(phase, []).append(ts)
        print(f"round {i + 1}/{args.pairs} seed {seed}: {len(out['parent']['op'])} ops, "
              f"{order[0][0]} loaded first", flush=True)
    report = {}
    for phase in (p for p in PHASES if p in times["parent"]):
        rounds = [[(p, c) for p, c in zip(ps, cs) if p > 0 and c > 0]
                  for ps, cs in zip(times["parent"][phase], times["change"][phase])]
        rounds = [r for r in rounds if r]
        if not rounds:
            continue
        ratio, lo, hi = ratio_interval([[c / p for p, c in r] for r in rounds])
        report[phase] = {"parent_s": statistics.median(p for r in rounds for p, _ in r),
                         "change_s": statistics.median(c for r in rounds for _, c in r),
                         "ratio": ratio, "interval": [lo, hi], "ops": sum(map(len, rounds))}
    print(f"in-process {args.workload}: {args.pairs} rounds, one interpreter each, ABBA per op, one BLAS thread")
    print("phase\tparent_ms\tchange_ms\tratio\t95% interval")
    for phase, r in report.items():
        print(f"{phase}\t{1e3 * r['parent_s']:.4f}\t{1e3 * r['change_s']:.4f}\t{r['ratio']:.4f}\t"
              f"[{r['interval'][0]:.4f}, {r['interval'][1]:.4f}]")
    print(json.dumps({"workload": args.workload, "rounds": args.pairs, "seeds": seeds, "cpus": cpus(),
                      "phases": report}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tag", default=None, help="file tag; default: the workload")
    ap.add_argument("--in-process", action="store_true",
                    help="alternate both trees per op in this interpreter and print phase ratios")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: the record holds each side's quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, declared = spec["run_seconds"], [w["name"] for w in spec["workloads"]]
    if args.in_process:
        return in_process(args, seconds)
    if len(str(args.parent.resolve())) != len(str(args.change.resolve())):
        ap.error("--parent and --change must resolve to paths of equal length: "
                 "the checkout's path alone moves peak RSS")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(bench(getattr(args, side), args.workload, args.seed + i, seconds, 0))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1}/{args.pairs} seed {args.seed + i}: wall_s {p['wall_s']:.3f} -> {c['wall_s']:.3f}",
              flush=True)
    names = [k for k in runs["parent"][0] if k != "seed" and k not in COUNTS]
    record = {
        "workload": args.workload, "pairs": args.pairs, "seconds": seconds, "cpus": cpus(),
        "seeds": [args.seed + i for i in range(args.pairs)], "runs": runs,
        "median": {s: {m: statistics.median(r[m] for r in runs[s]) for m in names} for s in runs},
        "quartiles": {s: {m: statistics.quantiles([r[m] for r in runs[s]], n=4) for m in names} for s in runs},
        "change_won": {m: sum(c[m] < p[m] for p, c in zip(runs["parent"], runs["change"])) / args.pairs
                       for m in names},
    }
    record["gain_rule"] = {m: gain_rule(record, m) for m in names}
    record["no_regression"] = {m["name"]: no_regression(record, m["name"], m["bound"])
                               for m in spec["end_to_end"] if m["name"] in names}
    traced: dict[str, dict[str, list[dict]]] = {"parent": {}, "change": {}}
    record["traced_order"] = []
    rounds = [w for w in declared + [args.workload] * (args.workload not in declared)
              for _ in range(TRACED_REPEATS if w == args.workload else 1)]
    for i, w in enumerate(rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            traced[side].setdefault(w, []).append(bench(getattr(args, side), w, args.seed, seconds, 1))
            record["traced_order"].append([side, w])
    record["traced_spread"] = {s: {w: _spread(r) for w, r in traced[s].items()} for s in traced}
    for s in traced:
        record[f"traced_{s}"] = {
            w: {**{k: r[0][k] for k in ("seed", *COUNTS)},
                **{m: v["median"] for m, v in record["traced_spread"][s][w].items()}}
            for w, r in traced[s].items()
        }
    path = ROOT / f"BENCH_{args.tag or args.workload}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for m in names:
        verdict = ""
        if m in record["no_regression"]:
            nr = record["no_regression"][m]
            verdict = ", no regression " + ("unresolved" if nr["unresolved"] else
                                            "holds" if nr["holds"] else "fails")
        print(f"{m}: median {record['median']['parent'][m]:.4f} -> {record['median']['change'][m]:.4f}, "
              f"change lower in {record['change_won'][m]:.0%} of pairs, gain rule "
              f"{'holds' if record['gain_rule'][m]['holds'] else 'fails'}{verdict}")
    for m, p, c, side in separated(record, args.workload):
        print(f"traced {args.workload} {m}: median {p:.4g} -> {c:.4g}, change range wholly {side} the parent's")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
