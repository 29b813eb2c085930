"""tools/ab_pairs.py: it refuses a run that is not clean or checkouts at paths of
different lengths, it writes the gain rule, the no-regression check and a
traced run of each side on every declared workload, and it prints the traced
layers of the claimed workload whose ranges part.  tools/code_lines.py: it
counts a package's code lines, leaving out blanks, comments and docstrings.
tools/same_outputs.py: it feeds every tree the same inputs under one BLAS
thread, and exits 0 on equal digests, 1 on unequal ones and 2 on a failed
child.  tools/peak_states.py: it prints each entry point's traced peak in
states and its RSS growth, from children that import the given tree under
one BLAS thread, and exits 2 on a failed child."""

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
# it reports its --trace flag and a layer time of its tree as metrics, logs
# each traced run's tree and workload to the file ../runs.log, and adds 0.5
# to wall_s on every third traced run of its tree
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
                  "metrics": {{"wall_s": {{"value": wall}}, "trace.on": {{"value": trace}},
                              "layer_s": {{"value": {layer!r}}}}}}}))
"""


def _tree(root: Path, mode: str, wall: float = 1.0, layer: float = 1.0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_STUB.format(mode=mode, wall=wall, layer=layer))
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


@pytest.mark.parametrize("layer, side", [(3.0, "below"), (0.5, "above")])
def test_the_tool_prints_the_traced_layers_whose_ranges_part(tmp_path, layer, side):
    # both trees read the same wall_s and trace.on; only the parent's layer_s differs
    parent, change = _tree(tmp_path / "parent", "clean", layer=layer), _tree(tmp_path / "change", "clean")
    path = ROOT / "BENCH_layer_probe.json"
    try:
        run = _ab(parent, change, 2, tag="layer_probe")
        assert run.returncode == 0, run.stderr
        record = json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)
    traced = [line for line in run.stdout.splitlines() if line.startswith("traced ")]
    assert traced == [f"traced verify7 layer_s: median {layer:.4g} -> 1, change range wholly {side} the parent's"]
    assert _tool().separated(record, "verify7") == [("layer_s", layer, 1.0, side)]


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


CODE_LINES = ROOT / "tools" / "code_lines.py"

# each module of a small package, and its code-line count
_PACKAGE = {
    "__init__.py": ('"""A package docstring\n\non three lines."""\n\nfrom .a import f  # a comment\n', 1),
    "a.py": (
        "# a leading comment\n"
        "import math\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """One line."""\n'
        "    # an indented comment\n"
        "    return math.sqrt(\n"
        "        x\n"
        "    )\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Two\n'
        '    lines."""\n'
        "\n"
        '    s = """not a docstring,\n'
        '    so both its lines count"""\n'
        "\n"
        "    def g(self):\n"
        '        "still a docstring"\n'
        "        return 1\n",
        10,
    ),
    "sub/b.py": ("x = 1\ny = 2  # a comment after code\n", 2),
}


def test_code_lines_counts_code_and_leaves_out_blanks_comments_and_docstrings(tmp_path):
    for name, (source, _) in _PACKAGE.items():
        path = tmp_path / "pkg" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    out = subprocess.run(
        [sys.executable, str(CODE_LINES), str(tmp_path / "pkg")], capture_output=True, text=True, check=True
    ).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows == [[str(count), name] for name, (_, count) in sorted(_PACKAGE.items())] + [["13", "total"]]


def test_code_lines_refuses_a_missing_directory(tmp_path):
    run = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path / "absent")], capture_output=True, text=True)
    assert run.returncode == 2
    assert "is not a directory" in run.stderr


SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"

# a stand-in for a tree's paulisim: each result's text is the tree's salt,
# the input and the BLAS thread count; each call is logged to calls.log
# beside the package
_PAULISIM = """
import os
from pathlib import Path
from types import SimpleNamespace
import numpy as np
SALT = {salt!r}
if SALT == "crash":
    raise SystemExit("stub cannot import")

def _log(name):
    with (Path(__file__).parent / "calls.log").open("a") as f:
        f.write(name + "\\n")

def _text(*parts):
    return SALT + repr(parts) + os.environ["OPENBLAS_NUM_THREADS"]

def parse_noise_config(text):
    return text

def run_circuit(circuit, noise, init, shots, seed):
    _log("run")
    coeffs = np.frombuffer(_text(circuit, noise, init, shots, seed).encode(), dtype=np.uint8)
    return SimpleNamespace(to_text=lambda timing: _text(circuit, timing), final_state=SimpleNamespace(coeffs=coeffs))

def verify_circuit(circuit, noise, init):
    _log("verify")
    return SimpleNamespace(to_text=lambda: _text(circuit, noise, init))

def sweep(circuit, param, values, metric, noise):
    _log("sweep")
    return [SimpleNamespace(value=v, metric=_text(circuit, param, metric, noise), partitions=0) for v in values]

def gen_adder(a, b):
    return a + "+" + b

def adder_success_pattern(a, b):
    return a + b
"""


def _stub_tree(root: Path, salt: str) -> Path:
    (root / "src" / "paulisim").mkdir(parents=True)
    (root / "src" / "paulisim" / "__init__.py").write_text(_PAULISIM.format(salt=salt))
    return root


def _same(parent: Path, change: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(SAME_OUTPUTS), "--parent", str(parent), "--change", str(change)]
    return subprocess.run(cmd, capture_output=True, text=True)


@pytest.mark.parametrize("change_salt, code", [("same", 0), ("other", 1)])
def test_same_outputs_compares_one_digest_per_tree(tmp_path, change_salt, code):
    parent, change = _stub_tree(tmp_path / "a", "same"), _stub_tree(tmp_path / "b", change_salt)
    run = _same(parent, change)
    assert run.returncode == code, run.stderr
    lines = run.stdout.splitlines()
    digests = [line.split()[1] for line in lines[:2]]
    assert [line.split()[0] for line in lines[:2]] == ["parent", "change"]
    assert all(len(d) == 64 for d in digests) and (digests[0] == digests[1]) == (code == 0)
    assert lines[2] == ("same outputs" if code == 0 else "outputs differ")
    for tree in (parent, change):  # 200 deep_small, 6 verify7 (each run too), 20 sweeps, 2 rand12
        calls = (tree / "src" / "paulisim" / "calls.log").read_text().split()
        assert (calls.count("run"), calls.count("verify"), calls.count("sweep")) == (208, 6, 20)


def test_same_outputs_stops_on_a_failed_child(tmp_path):
    run = _same(_stub_tree(tmp_path / "a", "same"), _stub_tree(tmp_path / "b", "crash"))
    assert run.returncode == 2
    assert "stub cannot import" in run.stderr and run.stdout == ""


PEAK_STATES = ROOT / "tools" / "peak_states.py"
ENTRY_POINTS = ["run_circuit", "success_sweep", "fidelity_sweep", "save_state"]

# a stand-in for a tree's paulisim whose entry points hold a known number of
# 7-qubit states of 8 * 4^7 bytes: a run and a success sweep two, a fidelity
# sweep three, save_state half a state besides the one it is given; each
# import logs its BLAS thread count to calls.log beside the package
_HOLDING = """
import os
from pathlib import Path
from types import SimpleNamespace
if {crash!r}:
    raise SystemExit("stub cannot import")
with (Path(__file__).parent / "calls.log").open("a") as f:
    f.write(os.environ["OPENBLAS_NUM_THREADS"] + "\\n")

def _states(n, k):
    return b"\\x01" * int(k * 8 * 4**n)

def parse_noise_config(text):
    return text

def gen_adder(a, b):
    return a + b

def adder_success_pattern(a, b):
    return a + b

def gen_qft(n):
    return ""

def run_circuit(circuit, noise):
    return SimpleNamespace(final_state=SimpleNamespace(coeffs=_states(7, 2)))

def sweep(circuit, param, values, metric, noise):
    held = _states(7, 3 if metric == "fidelity" else 2)
    return []

def init_thermal(n, p):
    return _states(n, 1)

def save_state(state, sink):
    held = _states(7, 0.5)
"""


def _peaks(n: int, tree: Path | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(PEAK_STATES), "--n", str(n)] + (["--tree", str(tree)] if tree else [])
    return subprocess.run(cmd, capture_output=True, text=True)


def _table(stdout: str) -> dict[str, tuple[float, float]]:
    lines = stdout.splitlines()
    assert lines[1] == "entry\tpeak_states\trss_growth_mib"
    rows = [line.split("\t") for line in lines[2:]]
    return {entry: (float(peak), float(rss)) for entry, peak, rss in rows}


def test_peak_states_prints_each_entry_point_of_this_checkout():
    run = _peaks(4)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == f"n=4, state 0.00195312 MiB, tree {ROOT}"
    table = _table(run.stdout)
    assert list(table) == ENTRY_POINTS
    assert all(peak >= 1.0 and rss >= 0.0 for peak, rss in table.values()), table


def test_peak_states_counts_states_of_the_given_tree(tmp_path):
    pkg = tmp_path / "src" / "paulisim"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(_HOLDING.format(crash=False))
    run = _peaks(7, tmp_path)
    assert run.returncode == 0, run.stderr
    peaks = {entry: peak for entry, (peak, _) in _table(run.stdout).items()}
    assert peaks == pytest.approx(dict(zip(ENTRY_POINTS, [2.0, 2.0, 3.0, 1.5])), abs=0.02)
    assert (pkg / "calls.log").read_text().split() == ["1"] * 8  # two children per entry point


def test_peak_states_stops_on_a_failed_child(tmp_path):
    pkg = tmp_path / "src" / "paulisim"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(_HOLDING.format(crash=True))
    run = _peaks(4, tmp_path)
    assert run.returncode == 2
    assert "stub cannot import" in run.stderr and "run_circuit child" in run.stderr


# stand-ins for a tree's paulisim and its engine for ab_pairs.py --in-process:
# each phase busy-waits a known number of milliseconds; each import logs the
# module's name, its BLAS thread count and whether a plain "paulisim" is
# loaded, to calls.log beside the package
_IN_PROCESS_INIT = """
import os, sys
from pathlib import Path
from . import engine
from .engine import run_circuit
with (Path(__file__).parent / "calls.log").open("a") as f:
    f.write(f"{{__name__}} {{os.environ['OPENBLAS_NUM_THREADS']}} {{'paulisim' in sys.modules}}\\n")

def parse_noise_config(text):
    return text

def gen_adder(a, b):
    return a + b

def adder_success_pattern(a, b):
    return a + b

def sweep(circuit, param, values, metric, noise, init):
    engine._wait(engine.WHOLE)

def verify_circuit(circuit, noise, init):
    engine._wait(engine.WHOLE)
"""

_IN_PROCESS_ENGINE = """
import time
PARSE, COMPILE, EXECUTE, SAMPLE, WHOLE = {ms!r}

def _wait(ms):
    end = time.perf_counter() + ms / 1000
    while time.perf_counter() < end:
        pass

def parse_circuit(text):
    _wait(PARSE)
    return 3, []

def _compile_text(text, init, cap):
    n, instructions = parse_circuit(text)
    _wait(COMPILE)
    return n, instructions, instructions, None, None

def execute_schedule(state, schedule, noise):
    _wait(EXECUTE)
    return []

def _sample_counts(records, shots, seed):
    _wait(SAMPLE)

def run_circuit(circuit, noise, init="zero", shots=0, seed=None):
    n, instructions, merged, schedule, spec = _compile_text(circuit, init, 14)
    records = execute_schedule(None, schedule, noise)
    if shots > 0:
        _sample_counts(records, shots, seed)
"""


def _timed_tree(root: Path, ms: tuple) -> Path:
    pkg = root / "src" / "paulisim"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(_IN_PROCESS_INIT.format())
    (pkg / "engine.py").write_text(_IN_PROCESS_ENGINE.format(ms=ms))
    return root


def _in_process(parent: Path, change: Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(TOOL), "--in-process", "--parent", str(parent), "--change", str(change),
           "--workload", workload, "--pairs", "3"]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_in_process_pairs_put_each_saving_in_its_phase(tmp_path):
    # the change halves parse and compile and keeps execute; rand12's run ops
    # sample nothing (shots 0), so no sample phase is timed
    parent = _timed_tree(tmp_path / "parent", (2.0, 2.0, 2.0, 2.0, 4.0))
    change = _timed_tree(tmp_path / "chg", (1.0, 1.0, 2.0, 2.0, 2.0))
    run = _in_process(parent, change, "rand12")
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    phases = out["phases"]
    assert list(phases) == ["parse", "compile", "execute", "op"]
    assert out["seeds"] == [1, 2, 3] and all(p["ops"] == 6 for p in phases.values())  # 2 ops a round
    for phase in ("parse", "compile"):
        lo, hi = phases[phase]["interval"]
        assert 0.4 < lo <= phases[phase]["ratio"] <= hi < 0.6, phases[phase]
    assert 0.8 < phases["execute"]["ratio"] < 1.25
    assert phases["parse"]["parent_s"] == pytest.approx(0.002, rel=0.5)
    assert "parse\t" in run.stdout and "[" in run.stdout
    # each round in its own interpreter: each tree under its own name, one
    # BLAS thread, no plain paulisim loaded
    for tree, name in ((parent, "paulisim_parent"), (change, "paulisim_change")):
        log = (tree / "src" / "paulisim" / "calls.log").read_text().split()
        assert log == [name, "1", "False"] * 3
    assert [line.split()[-3] for line in run.stdout.splitlines()[:3]] == ["parent", "change", "parent"]


def test_in_process_pairs_time_a_verify_op_whole(tmp_path):
    parent = _timed_tree(tmp_path / "parent", (0.0, 0.0, 0.0, 0.0, 2.0))
    change = _timed_tree(tmp_path / "chg", (0.0, 0.0, 0.0, 0.0, 1.0))
    run = _in_process(parent, change, "verify7")
    assert run.returncode == 0, run.stderr
    phases = json.loads(run.stdout.splitlines()[-1])["phases"]
    assert list(phases) == ["op"] and 0.4 < phases["op"]["ratio"] < 0.6
