"""Command-line front end.

Subcommands:
    run     execute a circuit file and print the report
    sweep   vary one noise parameter over a value list, print a table
    gen     emit a built-in circuit (adder or qft)
    verify  dual-run a circuit on the engine and the dense oracle

Exit codes: 0 success; 2 usage or I/O problem; 3 circuit/noise syntax error;
4 compile error; 5 capacity exceeded; 6 state-file format error;
7 internal consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .circuit import NoiseModel, parse_noise_config
from .engine import run_circuit, verify_circuit
from .errors import (
    CapacityError,
    CircuitSyntaxError,
    CompileError,
    InternalError,
    StateFormatError,
)
from .generators import gen_adder, gen_qft
from .state import save_state
from .sweep import format_table, sweep
from .transpile import format_schedule


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_noise(path: str | None) -> NoiseModel:
    if path is None:
        return NoiseModel()
    return parse_noise_config(Path(path).read_text())


def _cmd_run(args: argparse.Namespace) -> int:
    circuit = Path(args.circuit).read_text()
    noise = _load_noise(args.noise)
    report = run_circuit(circuit, noise, init=args.init, shots=args.shots, seed=args.seed)
    if args.schedule_dump is not None:
        _write(format_schedule(report.schedule), args.schedule_dump)
    if args.save_state is not None:
        save_state(report.final_state, args.save_state)
        report.saved_state = args.save_state
    _write(report.to_text(), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    circuit = Path(args.circuit).read_text()
    noise = _load_noise(args.noise)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("empty --values list")
    rows = sweep(circuit, args.param, values, args.metric, noise, init=args.init)
    _write(format_table(args.param, args.metric, rows), args.out)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "adder":
        text = gen_adder(args.a, args.b)
    else:
        text = gen_qft(args.n)
    _write(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    circuit = Path(args.circuit).read_text()
    noise = _load_noise(args.noise)
    result = verify_circuit(circuit, noise, init=args.init)
    _write(result.to_text(), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulisim",
        description="Noisy quantum-circuit simulator over Pauli-basis density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")
    circuit = argparse.ArgumentParser(add_help=False)
    circuit.add_argument("--circuit", required=True, help="circuit file")
    circuit.add_argument("--noise", help="noise configuration file")
    circuit.add_argument(
        "--init",
        default="zero",
        help="initial state: zero | uniform | thermal | bitstring:S | file:PATH",
    )

    common = [circuit, out]
    run_p = sub.add_parser("run", parents=common, help="execute a circuit and report results")
    run_p.add_argument("--save-state", help="write the final state to this file")
    run_p.add_argument("--schedule-dump", help="write the partition schedule ('-' = stdout)")
    run_p.add_argument("--shots", type=int, default=0, help="sample counts from distributions")
    run_p.add_argument("--seed", type=int, help="random seed for --shots")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=common, help="vary one noise parameter")
    sweep_p.add_argument("--param", required=True, help="noise key, or grouped 'r'/'alpha'")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument(
        "--metric", required=True, help="success:PATTERN | fidelity | fidelity:STATEFILE"
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    gen_p = sub.add_parser("gen", help="emit a built-in circuit")
    gen_sub = gen_p.add_subparsers(dest="kind", required=True)
    adder_p = gen_sub.add_parser(
        "adder", parents=[out], help="ripple-carry adder with ensemble readout"
    )
    adder_p.add_argument("a", help="first addend, binary")
    adder_p.add_argument("b", help="second addend, binary")
    adder_p.set_defaults(func=_cmd_gen)
    qft_p = gen_sub.add_parser("qft", parents=[out], help="quantum Fourier transform")
    qft_p.add_argument("n", type=int, help="qubit count")
    qft_p.set_defaults(func=_cmd_gen)

    verify_p = sub.add_parser("verify", parents=common, help="dual-run against the dense oracle")
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CircuitSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CompileError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return 4
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 5
    except StateFormatError as exc:
        print(f"state file error: {exc}", file=sys.stderr)
        return 6
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 7
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
