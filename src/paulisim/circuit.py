"""Text formats for circuits and noise parameters.

Circuit grammar, one instruction per line, comments from ``#`` to end of
line, header ``qubits N`` first:

    x|y|z|h|s|sdg|t|tdg q[i]      named one-qubit gates
    u1(l) q[i]                    phase gate
    u2(f,l) q[i]                  shorthand for u3(pi/2,f,l)
    u3(t,f,l) q[i]                general one-qubit gate
    cx q[i],q[j]                  controlled-NOT (control first)
    ccx q[i],q[j],q[k]            Toffoli (controls first)
    measure q[i]                  z-basis binary measurement
    measure_x q[i] | measure_y q[i]
    expect STRING                 Pauli-string expectation, e.g. expect ZIZ
    ensemble                      all-qubit bitstring distribution
    bell q[i],q[j]                Bell-basis measurement of a pair
    reset q[i]
    barrier

Angles are decimal literals or ``pi``/``pi/INT`` (INT >= 1), with at most
one sign.  In ``expect`` strings and in all printed bitstrings the RIGHTMOST
character is qubit 0; reports print the most significant bit first.

One table, ``KINDS``, gives every mnemonic its angle count, its qubit
count (None for the whole-register expect, ensemble and barrier, which list
no qubits) and its partition category, and ``SCHEDULE_KINDS``, derived from
it, holds the kinds a compiled schedule may hold.  The parser and the
compiler read only this table, and ``check_shape`` is the one test of an
``Instruction`` against it.  Two checks make it: ``transpile.compile_circuit``
on the instructions its caller wrote, and ``transpile.Schedule.angles`` on
a compiled schedule before a run.

Each parsed line becomes an ``Instruction``, a named tuple equal by value
to any record with the same fields.  The parser reads each distinct
(stripped line, qubit count) once per process: a bounded LRU cache
(``_LINE_CACHE_SIZE`` entries) keeps the fields of recent lines, and every
occurrence of a line still gets a record of its own.  A line that fails to
parse is never cached, and its error names its own line number.

Noise configuration files hold ``key = value`` lines (same comment rule,
repeated keys: last one wins).  Omitted keys default to the noiseless value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

from .errors import CircuitSyntaxError

# Each named gate's select-set form, ("u1", (lam,)) or ("u3", (theta, phi,
# lam)): the one definition outside the oracle.  transpile.decompose lowers
# the gate to it, and gates.named_gate_transfer builds its PTM from it.
_NAMED_SELECT: dict[str, tuple[str, tuple[float, ...]]] = {
    "x": ("u3", (math.pi, 0.0, math.pi)),
    "y": ("u3", (math.pi, math.pi / 2, math.pi / 2)),
    "z": ("u1", (math.pi,)),
    "h": ("u3", (math.pi / 2, 0.0, math.pi)),
    "s": ("u1", (math.pi / 2,)),
    "sdg": ("u1", (-math.pi / 2,)),
    "t": ("u1", (math.pi / 4,)),
    "tdg": ("u1", (-math.pi / 4,)),
}


class Kind(NamedTuple):
    """The shape and partition category of one instruction kind."""

    angles: int  # angle count
    qubits: int | None  # qubit count; None for the whole register, listed as no qubits
    category: str | None  # partition category; None for barrier, which only ends a phase


# Every instruction kind: the text format's mnemonics, the shape check_shape
# tests, and the partitioner's categories.
KINDS: dict[str, Kind] = {
    **dict.fromkeys(_NAMED_SELECT, Kind(0, 1, "gate")),
    "u1": Kind(1, 1, "gate"),
    "u2": Kind(2, 1, "gate"),
    "u3": Kind(3, 1, "gate"),
    "cx": Kind(0, 2, "gate"),
    "ccx": Kind(0, 3, "gate"),
    **dict.fromkeys(("measure", "measure_x", "measure_y", "reset"), Kind(0, 1, "measurement")),
    "expect": Kind(0, None, "solo"),
    "ensemble": Kind(0, None, "solo"),
    "bell": Kind(0, 2, "solo"),
    "barrier": Kind(0, None, None),
}

# the kinds a compiled schedule may hold: every kind but barrier and the gates
# transpile.decompose rewrites (the named gates, u2 and ccx) into {u1, u3, cx}
SCHEDULE_KINDS = frozenset(KINDS) - {*_NAMED_SELECT, "u2", "ccx", "barrier"}

_PAULI_LABELS = frozenset("IXYZ")


class Instruction(NamedTuple):
    """One circuit operation; ``string`` carries the Pauli labels of expect.

    A tuple, equal to another record (or tuple) with the same fields and
    hashed by them.  ``parse_circuit`` builds one record per occurrence of
    a line, so repeated lines give equal records that are distinct objects,
    as the compiler's identity checks need.
    """

    kind: str
    qubits: tuple[int, ...] = ()
    angles: tuple[float, ...] = ()
    string: str = ""


def check_shape(ins: Instruction, n: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming ``ins`` unless it has the shape ``KINDS`` gives its kind.

    The kind must be a key of ``KINDS``, the angle and qubit counts must
    match, a kind of the whole register listing no qubits, every angle must
    be finite, and an expect string must hold one label in IXYZ per qubit of
    the n-qubit register.  The two checks that call it are
    ``transpile.compile_circuit``, for hand-built instructions, and
    ``transpile.Schedule.angles``, for schedules.
    """
    kind = KINDS.get(ins.kind)
    if kind is None:
        raise error(f"unknown kind {ins.kind!r}: {format_instruction(ins)}")
    n_angles, n_qubits, _ = kind
    if len(ins.angles) != n_angles or len(ins.qubits) != (n_qubits or 0):
        want = "no qubits" if n_qubits is None else f"{n_qubits} qubit(s)"
        raise error(f"{ins.kind} needs {n_angles} angle(s) and {want}: {format_instruction(ins)}")
    if n_angles and not all(map(math.isfinite, ins.angles)):  # u1, u2, u3
        raise error(f"{ins.kind} needs finite angles: {format_instruction(ins)}")
    if ins.kind == "expect":
        if len(ins.string) != n or not _PAULI_LABELS.issuperset(ins.string):
            raise error(f"expect needs {n} Pauli labels in IXYZ: {format_instruction(ins)}")


# one optional sign, then pi, pi/INT with INT >= 1, or a decimal literal;
# re.A: \d is ASCII only, where int() and float() take any script's digits
_ANGLE = re.compile(r"[+-]?(?:pi(?:/(0*[1-9]\d*))?|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)", re.A)
_OPERAND = re.compile(r"q\[(\d+)\]", re.A)
_INSTRUCTION = re.compile(r"([a-z_][a-z_0-9]*)(?:\s*\(([^)]*)\))?(?:\s+(.*))?")
_HEADER = re.compile(r"qubits\s+(\d+)", re.A)


def _parse_angle(token: str) -> float:
    t = token.strip()
    if not t:
        raise CircuitSyntaxError("empty angle")
    m = _ANGLE.fullmatch(t)
    if not m:
        raise CircuitSyntaxError(f"malformed angle {t!r}")
    if "pi" in t:
        return (-math.pi if t[0] == "-" else math.pi) / int(m.group(1) or 1)
    v = float(t)
    if not math.isfinite(v):
        raise CircuitSyntaxError(f"angle {t!r} is not finite")
    return v


def _parse_operands(rest: str, count: int, n: int) -> tuple[int, ...]:
    parts = [p.strip() for p in rest.split(",")] if rest else []
    if len(parts) != count:
        raise CircuitSyntaxError(f"expected {count} qubit operand(s), got {len(parts)}")
    qubits = []
    for p in parts:
        m = _OPERAND.fullmatch(p)
        if not m:
            raise CircuitSyntaxError(f"malformed operand {p!r}, expected q[INDEX]")
        q = int(m.group(1))
        if q >= n:
            raise CircuitSyntaxError(f"qubit index {q} out of range for {n} qubits")
        qubits.append(q)
    if len(set(qubits)) != len(qubits):
        raise CircuitSyntaxError("duplicate operand")
    return tuple(qubits)


def _parse_instruction(line: str, n: int) -> Instruction:
    m = _INSTRUCTION.fullmatch(line)
    if not m:
        raise CircuitSyntaxError(f"cannot parse {line!r}")
    name, angle_src, rest = m.groups()
    rest = rest.strip() if rest else ""

    if name not in KINDS:
        raise CircuitSyntaxError(f"unknown mnemonic {name!r}")
    n_angles, n_qubits, _ = KINDS[name]

    if name == "expect":
        if angle_src is not None:
            raise CircuitSyntaxError("expect takes no angle list")
        if len(rest) != n:
            raise CircuitSyntaxError(f"expect string must have one label per qubit ({n}), got {len(rest)}")
        bad = set(rest) - _PAULI_LABELS
        if bad:
            raise CircuitSyntaxError(f"bad Pauli label {sorted(bad)[0]!r} in expect string")
        return Instruction("expect", string=rest)

    if n_qubits is None:  # barrier, ensemble
        if angle_src is not None or rest:
            raise CircuitSyntaxError(f"{name} takes no operands")
        return Instruction(name)

    if n_angles == 0:
        if angle_src is not None:
            raise CircuitSyntaxError(f"{name} takes no angle list")
        angles: tuple[float, ...] = ()
    else:
        if angle_src is None:
            raise CircuitSyntaxError(f"{name} needs {n_angles} angle(s)")
        tokens = angle_src.split(",")
        if len(tokens) != n_angles:
            raise CircuitSyntaxError(f"{name} needs {n_angles} angle(s), got {len(tokens)}")
        angles = tuple([_parse_angle(t) for t in tokens])
    return Instruction(name, _parse_operands(rest, n_qubits, n), angles)


# Distinct (line, qubit count) pairs whose parse stays cached.  On
# deep_small's 6-qubit circuits (perfbench/workloads.py) about 250 recurring
# lines (named gates, readouts, cx/ccx/bell operand lists) must stay resident
# while about 70 one-off lines per circuit (u1/u2/u3 with fresh angles,
# expect strings) churn through.  Measured over 1000 of its circuits, where
# 74% of lines repeat an earlier one: 1024 entries hit 71% of lines (256: 65%,
# 4096: 73%) and hold about 0.43 MiB (4096: four times that).
_LINE_CACHE_SIZE = 1024

# the parse of one stripped instruction line; a malformed one raises, uncached
_parse_line = lru_cache(maxsize=_LINE_CACHE_SIZE)(_parse_instruction)


def parse_circuit(text: str) -> tuple[int, list[Instruction]]:
    """Parse circuit text into (qubit count, instruction list).

    Each line yields a record of its own, so two equal lines give equal but
    distinct records (``check_schedule`` tells them apart by identity).
    """
    n = None
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            m = _HEADER.fullmatch(line)
            if not m:
                raise CircuitSyntaxError("expected 'qubits N' header before instructions", lineno)
            n = int(m.group(1))
            if n < 1:
                raise CircuitSyntaxError("qubit count must be at least 1", lineno)
            continue
        try:
            # a fresh record with the cached record's fields
            instructions.append(tuple.__new__(Instruction, _parse_line(line, n)))
        except CircuitSyntaxError as exc:
            raise CircuitSyntaxError(exc.args[0], lineno) from None
    if n is None:
        raise CircuitSyntaxError("missing 'qubits N' header", 1)
    return n, instructions


def format_instruction(ins: Instruction) -> str:
    """One-line source form of an instruction (inverse of the parser)."""
    if ins.kind == "expect":
        return f"expect {ins.string}"
    out = ins.kind
    if ins.angles:
        out += "(" + ",".join(repr(a) for a in ins.angles) + ")"
    if ins.qubits:
        out += " " + ",".join(f"q[{q}]" for q in ins.qubits)
    return out


def print_circuit(n: int, instructions: list[Instruction]) -> str:
    """Render a circuit back to text; parse(print(c)) reproduces c."""
    lines = [f"qubits {n}"]
    lines.extend(format_instruction(ins) for ins in instructions)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Noise configuration


PARTITION_CATEGORIES = ("gate", "measurement", "solo")


@dataclass(frozen=True)
class NoiseModel:
    """Every user-tunable error parameter; defaults are all noiseless.

    Rotation errors: ``alpha_*`` is the mean angle offset in radians and
    ``r_*`` the damping of the rotation's transverse components, per axis,
    with the ``cx`` pair describing the controlled-NOT's pulse error.
    Readout damping: d1 for single-qubit readouts (and each qubit of a
    string or ensemble readout), d2 for the correlated terms of a Bell
    measurement.  Memory: the decoherence and decay survival factors f and
    g per clock step; f_meas and g_meas, when set, replace them after
    measurement and solo partitions.  p is the thermal population of |0>,
    which both seeds init_thermal and sets the decay fixed point.

    Every value must be finite, and every one but ``alpha_*`` must lie in
    [0, 1]; f_meas and g_meas may also be None.
    """

    p: float = 1.0
    alpha_x: float = 0.0
    r_x: float = 1.0
    alpha_y: float = 0.0
    r_y: float = 1.0
    alpha_z: float = 0.0
    r_z: float = 1.0
    alpha_cx: float = 0.0
    r_cx: float = 1.0
    d1: float = 1.0
    d2: float = 1.0
    f: float = 1.0
    g: float = 1.0
    f_meas: float | None = None
    g_meas: float | None = None

    def __post_init__(self) -> None:
        for fld in fields(self):
            v = getattr(self, fld.name)
            if v is None and fld.name in ("f_meas", "g_meas"):
                continue
            if not math.isfinite(v):
                raise ValueError(f"{fld.name} must be finite, got {v}")
            if not fld.name.startswith("alpha_") and not 0.0 <= v <= 1.0:
                raise ValueError(f"{fld.name} must lie in [0, 1], got {v}")

    def axis(self, axis: str) -> tuple[float, float]:
        """(alpha, r) pair for a rotation axis: x, y, z or cx."""
        return (getattr(self, f"alpha_{axis}"), getattr(self, f"r_{axis}"))

    def pair(self, category: str) -> tuple[float, float]:
        """(f, g) in effect after a partition of the given category."""
        if category not in PARTITION_CATEGORIES:
            raise ValueError(f"unknown partition category {category!r}")
        if category == "gate":
            return (self.f, self.g)
        return (
            self.f if self.f_meas is None else self.f_meas,
            self.g if self.g_meas is None else self.g_meas,
        )

    # perfbench/replay.py calls these three; every kernel takes the model itself
    def rotation(self) -> NoiseModel:
        return self

    def measurement(self) -> NoiseModel:
        return self

    def memory(self) -> NoiseModel:
        return self


NOISELESS = NoiseModel()

NOISE_KEYS = tuple(f.name for f in fields(NoiseModel))


def parse_noise_config(text: str) -> NoiseModel:
    """Parse ``key = value`` lines into a NoiseModel.

    Values accept the same literal forms as circuit angles (decimals and
    pi/INT, useful for the alpha offsets).
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in NOISE_KEYS:
            raise ValueError(f"line {lineno}: unknown noise parameter {key!r}")
        try:
            values[key] = _parse_angle(val)
        except CircuitSyntaxError:
            raise ValueError(f"line {lineno}: malformed value for {key!r}: {val.strip()!r}") from None
    try:
        return NoiseModel(**values)
    except ValueError as exc:
        raise ValueError(f"noise configuration: {exc}") from None
