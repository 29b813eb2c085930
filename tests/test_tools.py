"""tools/ab_pairs.py: it refuses a run that is not clean or checkouts at paths of
different lengths, and it writes the gain rule, the no-regression check and a
traced run of each side on every declared workload."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_pairs.py"

# a stand-in for perfbench/run.py: a clean run, or one of six ways to fail;
# it reports its --trace flag as a metric, logs each traced run's tree and
# workload to the file ../runs.log, and adds 0.5 to wall_s on every third
# traced run of its tree
_STUB = """
import json, sys
from pathlib import Path
mode = {mode!r}
arg = lambda name: sys.argv[sys.argv.index(name) + 1]
trace = int(arg("--trace"))
sys.stderr.write("stub says " + mode + "\\n")
wall = {wall!r}
if trace:
    log = Path("..", "runs.log")
    with log.open("a") as f:
        f.write(Path.cwd().name + " " + arg("--workload") + "\\n")
    wall += 0.5 * (sum(line.startswith(Path.cwd().name + " ") for line in log.read_text().splitlines()) % 3 == 0)
if mode == "crash":
    sys.exit(1)
if mode in ("silent", "garbled", "not_an_object"):
    print({{"silent": "", "garbled": "wall_s 1.0", "not_an_object": "[1, 2]"}}[mode])
    sys.exit(0)
print(json.dumps({{"correct": mode != "wrong", "attempted": 2, "failed": int(mode == "failed"),
                  "metrics": {{"wall_s": {{"value": wall}}, "trace.on": {{"value": trace}}}}}}))
"""


def _tree(root: Path, mode: str, wall: float = 1.0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_STUB.format(mode=mode, wall=wall))
    return root


def _ab(parent: Path, change: Path, pairs: int, tag: str = "refusal_probe") -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
           "--workload", "verify7", "--pairs", str(pairs), "--tag", tag]
    return subprocess.run(cmd, capture_output=True, text=True)


@pytest.mark.parametrize("mode", ["crash", "wrong", "failed", "silent", "garbled", "not_an_object"])
def test_a_run_that_is_not_clean_is_refused(tmp_path, mode):
    parent, change = _tree(tmp_path / "parent", "clean"), _tree(tmp_path / "change", mode)
    run = _ab(parent, change, 2)
    assert run.returncode != 0
    assert f"refused: verify7 seed 1 trace 0 in {change}" in run.stderr
    assert f"stub says {mode}" in run.stderr
    assert not (ROOT / "BENCH_refusal_probe.json").exists()


def test_fewer_than_two_pairs_are_refused(tmp_path):
    tree = _tree(tmp_path / "tree", "clean")
    run = _ab(tree, tree, 1)
    assert run.returncode == 2 and "--pairs must be at least 2" in run.stderr


def test_checkouts_at_paths_of_different_lengths_are_refused(tmp_path):
    parent, change = _tree(tmp_path / "parent", "clean"), _tree(tmp_path / "chg", "clean")
    run = _ab(parent, change, 2)
    assert run.returncode == 2 and "paths of equal length" in run.stderr
    assert not (ROOT / "BENCH_refusal_probe.json").exists()


def test_the_record_holds_a_traced_run_of_each_side_on_every_workload(tmp_path):
    parent, change = _tree(tmp_path / "parent", "clean", 2.0), _tree(tmp_path / "change", "clean")
    path = ROOT / "BENCH_traced_probe.json"
    try:
        run = _ab(parent, change, 2, tag="traced_probe")
        assert run.returncode == 0, run.stderr
        record = json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    # verify7, the claimed workload, gets three rounds; each round flips which tree goes first
    rounds = [w for w in declared for _ in range(3 if w == "verify7" else 1)]
    order = [[side, w] for i, w in enumerate(rounds)
             for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    assert record["traced_order"] == order
    logged = (tmp_path / "runs.log").read_text().split()
    assert [logged[i : i + 2] for i in range(0, len(logged), 2)] == order
    for side, wall in (("parent", 2.0), ("change", 1.0)):
        traced, spread = record[f"traced_{side}"], record["traced_spread"][side]
        assert list(traced) == list(spread) == declared
        assert all(r["trace.on"] == 1 and r["seed"] == 1 and r["correct"] is True for r in traced.values())
        # each tree runs the rounds in order, and every third run reads 0.5 more
        walls: dict[str, list[float]] = {}
        for i, w in enumerate(rounds):
            walls.setdefault(w, []).append(wall + 0.5 * ((i + 1) % 3 == 0))
        for w, v in walls.items():
            assert spread[w]["wall_s"] == {"median": statistics.median(v), "min": min(v), "max": max(v)}
            assert traced[w]["wall_s"] == statistics.median(v)
        assert spread["verify7"]["wall_s"]["max"] > spread["verify7"]["wall_s"]["min"]
        assert [r["trace.on"] for r in record["runs"][side]] == [0, 0]


def _tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "won, change_median, holds",
    [(0.9, 0.5, True), (1.0, 0.5, True), (0.8, 0.5, False), (0.9, 0.8, False), (0.9, 0.79, True)],
)
def test_the_gain_rule(won, change_median, holds):
    # parent median 1.0 with quartiles 0.9 and 1.1: the gap must exceed 0.2
    record = {
        "median": {"parent": {"wall_s": 1.0}, "change": {"wall_s": change_median}},
        "quartiles": {"parent": {"wall_s": [0.9, 1.0, 1.1]}},
        "change_won": {"wall_s": won},
    }
    rule = _tool().gain_rule(record, "wall_s")
    assert rule["holds"] is holds
    assert json.loads(json.dumps(rule)) == rule


@pytest.mark.parametrize(
    "parent_runs, change_runs, holds, unresolved",
    [
        # three runs a side, read as (first quartile, median, third quartile)
        # parent median 1.0, quartile range 0.1: resolved at a 0.25 bound
        ([0.95, 1.0, 1.05], [1.2, 1.25, 1.3], True, False),
        ([0.95, 1.0, 1.05], [1.2, 1.3, 1.4], False, False),
        # quartile range 0.4, wider than the bound
        ([0.8, 1.0, 1.2], [0.9, 1.0, 1.1], True, True),
        # unless every change run is lower than every parent run
        ([0.8, 1.0, 1.2], [0.5, 0.6, 0.7], True, False),
    ],
)
def test_the_no_regression_check(parent_runs, change_runs, holds, unresolved):
    record = {
        "runs": {"parent": [{"wall_s": v} for v in parent_runs],
                 "change": [{"wall_s": v} for v in change_runs]},
        "median": {"parent": {"wall_s": parent_runs[1]}, "change": {"wall_s": change_runs[1]}},
        "quartiles": {"parent": {"wall_s": parent_runs}},
    }
    check = _tool().no_regression(record, "wall_s", 0.25)
    assert (check["holds"], check["unresolved"]) == (holds, unresolved)
    assert check["limit"] == 1.25
    assert json.loads(json.dumps(check)) == check
