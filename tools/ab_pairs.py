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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("correct", "attempted", "failed")
# traced rounds per side for the claimed workload: a single traced run of
# one layer spreads by up to a third between runs of one tree
TRACED_REPEATS = 3


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tag", default=None, help="file tag; default: the workload")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: the record holds each side's quartiles")
    if len(str(args.parent.resolve())) != len(str(args.change.resolve())):
        ap.error("--parent and --change must resolve to paths of equal length: "
                 "the checkout's path alone moves peak RSS")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, declared = spec["run_seconds"], [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(bench(getattr(args, side), args.workload, args.seed + i, seconds, 0))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1}/{args.pairs} seed {args.seed + i}: wall_s {p['wall_s']:.3f} -> {c['wall_s']:.3f}",
              flush=True)
    names = [k for k in runs["parent"][0] if k != "seed" and k not in COUNTS]
    record = {
        "workload": args.workload, "pairs": args.pairs, "seconds": seconds,
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
