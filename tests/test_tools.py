"""tools/ab_pairs.py: it refuses a run that is not clean, and it writes the gain rule."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_pairs.py"

# a stand-in for perfbench/run.py: a clean run, or one of six ways to fail
_STUB = """
import json, sys
mode = {mode!r}
sys.stderr.write("stub says " + mode + "\\n")
if mode == "crash":
    sys.exit(1)
if mode in ("silent", "garbled", "not_an_object"):
    print({{"silent": "", "garbled": "wall_s 1.0", "not_an_object": "[1, 2]"}}[mode])
    sys.exit(0)
print(json.dumps({{"correct": mode != "wrong", "attempted": 2, "failed": int(mode == "failed"),
                  "metrics": {{"wall_s": {{"value": 1.0}}}}}}))
"""


def _tree(root: Path, mode: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_STUB.format(mode=mode))
    return root


def _ab(parent: Path, change: Path, pairs: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
           "--workload", "verify7", "--pairs", str(pairs), "--tag", "refusal_probe"]
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


def _gain_rule():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gain_rule


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
    rule = _gain_rule()(record, "wall_s")
    assert rule["holds"] is holds
    assert json.loads(json.dumps(rule)) == rule
