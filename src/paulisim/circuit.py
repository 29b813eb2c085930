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

Noise configuration files hold ``key = value`` lines (same comment rule,
repeated keys: last one wins).  Omitted keys default to the noiseless value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

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
NAMED_GATE_KINDS = tuple(_NAMED_SELECT)
GATE_KINDS = NAMED_GATE_KINDS + ("u1", "u2", "u3", "cx", "ccx")
MEASURE_KINDS = ("measure", "measure_x", "measure_y", "reset")
SOLO_KINDS = ("expect", "ensemble", "bell")

# mnemonic -> (angle count, qubit count)
_ARITY = {
    **{k: (0, 1) for k in NAMED_GATE_KINDS},
    "u1": (1, 1),
    "u2": (2, 1),
    "u3": (3, 1),
    "cx": (0, 2),
    "ccx": (0, 3),
    "measure": (0, 1),
    "measure_x": (0, 1),
    "measure_y": (0, 1),
    "reset": (0, 1),
    "bell": (0, 2),
}


@dataclass(frozen=True)
class Instruction:
    """One circuit operation; ``string`` carries the Pauli labels of expect."""

    kind: str
    qubits: tuple[int, ...] = ()
    angles: tuple[float, ...] = ()
    string: str = ""


# one optional sign, then pi, pi/INT with INT >= 1, or a decimal literal;
# re.A: \d is ASCII only, where int() and float() take any script's digits
_ANGLE = re.compile(r"[+-]?(?:pi(?:/(0*[1-9]\d*))?|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)", re.A)
_OPERAND = re.compile(r"q\[(\d+)\]", re.A)
_INSTRUCTION = re.compile(r"([a-z_][a-z_0-9]*)(?:\s*\(([^)]*)\))?(?:\s+(.*))?")
_HEADER = re.compile(r"qubits\s+(\d+)", re.A)


def _parse_angle(token: str, lineno: int) -> float:
    t = token.strip()
    if not t:
        raise CircuitSyntaxError("empty angle", lineno)
    m = _ANGLE.fullmatch(t)
    if not m:
        raise CircuitSyntaxError(f"malformed angle {t!r}", lineno)
    if "pi" in t:
        return (-math.pi if t[0] == "-" else math.pi) / int(m.group(1) or 1)
    v = float(t)
    if not math.isfinite(v):
        raise CircuitSyntaxError(f"angle {t!r} is not finite", lineno)
    return v


def _parse_operands(rest: str, count: int, n: int, lineno: int) -> tuple[int, ...]:
    parts = [p.strip() for p in rest.split(",")] if rest else []
    if len(parts) != count:
        raise CircuitSyntaxError(f"expected {count} qubit operand(s), got {len(parts)}", lineno)
    qubits = []
    for p in parts:
        m = _OPERAND.fullmatch(p)
        if not m:
            raise CircuitSyntaxError(f"malformed operand {p!r}, expected q[INDEX]", lineno)
        q = int(m.group(1))
        if q >= n:
            raise CircuitSyntaxError(f"qubit index {q} out of range for {n} qubits", lineno)
        qubits.append(q)
    if len(set(qubits)) != len(qubits):
        raise CircuitSyntaxError("duplicate operand", lineno)
    return tuple(qubits)


def _parse_instruction(line: str, n: int, lineno: int) -> Instruction:
    m = _INSTRUCTION.fullmatch(line)
    if not m:
        raise CircuitSyntaxError(f"cannot parse {line!r}", lineno)
    name, angle_src, rest = m.groups()
    rest = rest.strip() if rest else ""

    if name == "barrier" or name == "ensemble":
        if angle_src is not None or rest:
            raise CircuitSyntaxError(f"{name} takes no operands", lineno)
        return Instruction(name)

    if name == "expect":
        if angle_src is not None:
            raise CircuitSyntaxError("expect takes no angle list", lineno)
        if len(rest) != n:
            raise CircuitSyntaxError(
                f"expect string must have one label per qubit ({n}), got {len(rest)}", lineno
            )
        bad = set(rest) - set("IXYZ")
        if bad:
            raise CircuitSyntaxError(
                f"bad Pauli label {sorted(bad)[0]!r} in expect string", lineno
            )
        return Instruction("expect", string=rest)

    if name not in _ARITY:
        raise CircuitSyntaxError(f"unknown mnemonic {name!r}", lineno)
    n_angles, n_qubits = _ARITY[name]
    if n_angles == 0:
        if angle_src is not None:
            raise CircuitSyntaxError(f"{name} takes no angle list", lineno)
        angles: tuple[float, ...] = ()
    else:
        if angle_src is None:
            raise CircuitSyntaxError(f"{name} needs {n_angles} angle(s)", lineno)
        tokens = angle_src.split(",")
        if len(tokens) != n_angles:
            raise CircuitSyntaxError(
                f"{name} needs {n_angles} angle(s), got {len(tokens)}", lineno
            )
        angles = tuple([_parse_angle(t, lineno) for t in tokens])
    return Instruction(name, _parse_operands(rest, n_qubits, n, lineno), angles)


def parse_circuit(text: str) -> tuple[int, list[Instruction]]:
    """Parse circuit text into (qubit count, instruction list)."""
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
        instructions.append(_parse_instruction(line, n, lineno))
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
            values[key] = _parse_angle(val, lineno)
        except CircuitSyntaxError:
            raise ValueError(f"line {lineno}: malformed value for {key!r}: {val.strip()!r}") from None
    try:
        return NoiseModel(**values)
    except ValueError as exc:
        raise ValueError(f"noise configuration: {exc}") from None
