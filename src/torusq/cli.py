"""Command line front end.

Subcommands cover the main workflows: quantize a symbol file, dequantize
an operator file, build Wigner tables from state vectors, integrate
Heisenberg dynamics on the symbol side, and run the acceptance battery.
Every input file goes through one reader, _read, which hands the file's bytes to
serialize.loads, names the file when they do not parse, and refuses a document that
is not a JSON array or object; quantize and evolve share one symbol reader on it.
Exit codes: 0 success, 1 failed selftest, 2 unreadable or malformed
input or command line, 3 inconsistent dimensions, 4 out-of-domain data or
a MemoryError, reported with the subcommand's name.  main maps each refused
exception class to its code through EXIT_CODES.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import serialize
from .errors import DimensionError, DomainError, FormatError, _shown
from .moyal import HamiltonianSystem, evolve_operator, evolve_symbol
from .quantize import dequantize, quantize_fourier, quantize_sampled
from .rep import Representation
from .symbols import SampledSymbol, TrigPolynomial, sample
from .wigner import check_symmetries, marginal_p, marginal_x, wigner_state

# Exit code of each refusal; an OSError subclass (a missing file, a directory) takes OSError's.
EXIT_CODES = {FormatError: 2, OSError: 2, DimensionError: 3, DomainError: 4, MemoryError: 4}

# Largest N the command line accepts; one 2N x 2N complex grid is then 268 MB.
MAX_DIM = 2048


def _read(path: str) -> list | dict:
    """The JSON array or object in the file at path, the one reader of every input."""
    with open(path, "rb") as handle:
        try:
            doc = serialize.loads(handle.read())
        except FormatError as exc:  # serialize.loads maps every parse failure to FormatError
            raise FormatError(f"{path}: {exc}") from None
    if not isinstance(doc, (list, dict)):
        raise FormatError(f"{path} must hold a JSON array or object, got {_shown(doc)}")
    return doc


def _read_symbol(path: str) -> TrigPolynomial | SampledSymbol:
    """The trig polynomial (array) or sampled symbol (object) in the file; no parse tree outlives it."""
    doc = _read(path)
    return serialize.trig_from_json(doc) if isinstance(doc, list) else serialize.sampled_from_json(doc)


def _deliver(text: str, path) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _rep_from_flags(args, dim: int) -> Representation:
    """Representation of the --theta1/--theta2 flags (0 when absent) and dim.

    A dim past MAX_DIM is refused here; only a sampled symbol file's own grid is built before that.
    """
    if dim > MAX_DIM:
        raise DomainError(f"N={dim} exceeds the supported maximum {MAX_DIM}")
    theta1 = 0.0 if args.theta1 is None else args.theta1
    theta2 = 0.0 if args.theta2 is None else args.theta2
    return Representation(theta1, theta2, dim)


def _check_flag_consistency(args, rep: Representation) -> None:
    flag_dim = getattr(args, "N", None)
    if flag_dim is not None and flag_dim != rep.dim:
        raise DimensionError(f"--N {flag_dim} conflicts with N={rep.dim} from the file")
    folded = _rep_from_flags(args, rep.dim)
    for name in ("theta1", "theta2"):
        value, stored = getattr(args, name), getattr(rep, name)
        gap = abs(getattr(folded, name) - stored)
        if value is not None and min(gap, 1.0 - gap) > 1e-12:
            raise DimensionError(f"--{name} {value} conflicts with the file value {stored}")


def _sibling(path: str) -> str:
    root, suffix = os.path.splitext(path)
    return f"{root}.sampled{suffix}"


def _cmd_quantize(args) -> int:
    symbol = _read_symbol(args.symbol)
    if isinstance(symbol, SampledSymbol):
        if args.route in ("fourier", "both"):
            raise FormatError(f"route {args.route!r} needs a trig polynomial document (a JSON array)")
        _check_flag_consistency(args, symbol.rep)
        operator = quantize_sampled(symbol)
    else:
        if args.N is None:
            raise FormatError("trig polynomial input needs --N to fix the dimension")
        rep = _rep_from_flags(args, args.N)
        if args.route == "both":
            if args.output is None:
                raise FormatError("route 'both' needs -o to place the two results")
            direct = quantize_fourier(symbol, rep)
            via_grid = quantize_sampled(sample(symbol, rep))
            gap = float(np.max(np.abs(direct - via_grid)))
            _deliver(serialize.operator_to_json(direct), args.output)
            _deliver(serialize.operator_to_json(via_grid), _sibling(args.output))
            print(f"route discrepancy: {gap:.3e}", file=sys.stderr)
            return 0
        operator = quantize_sampled(sample(symbol, rep)) if args.route == "sampled" else quantize_fourier(symbol, rep)
    _deliver(serialize.operator_to_json(operator), args.output)
    return 0


def _cmd_dequantize(args) -> int:
    operator = serialize.operator_from_json(_read(args.operator))
    rep = _rep_from_flags(args, operator.shape[0])
    sym = dequantize(rep, operator)
    _deliver(serialize.lattice_csv(sym.grid, rep) if args.csv else serialize.sampled_to_json(sym), args.output)
    return 0


def _cmd_wigner(args) -> int:
    psi = serialize.state_from_json(_read(args.state))
    phi = psi if args.state2 is None else serialize.state_from_json(_read(args.state2))
    if phi.size != psi.size:
        raise DimensionError(f"state lengths differ: {psi.size} vs {phi.size}")
    rep = _rep_from_flags(args, psi.size)
    table = wigner_state(rep, psi, phi)
    if args.csv:
        _deliver(serialize.lattice_csv(table.grid, rep), args.output)
        return 0
    mass = complex(table.grid.sum())
    summary = {
        "mass": [mass.real, mass.imag],
        "marginal_x": marginal_x(table),
        "marginal_p": marginal_p(table),
        "symmetry_residual": check_symmetries(table),
    }
    _deliver(serialize.wigner_to_json(table, extra={"summary": summary}), args.output)
    return 0


def _cmd_evolve(args) -> int:
    if args.steps < 1:
        raise FormatError("--steps must be at least 1")
    start = serialize.sampled_from_json(_read(args.symbol))
    _check_flag_consistency(args, start.rep)
    energy = _read_symbol(args.hamiltonian)
    if isinstance(energy, TrigPolynomial):
        energy = sample(energy, start.rep)
    system = HamiltonianSystem(energy)
    evolved = evolve_symbol(system, start, args.t, args.steps)
    exact = evolve_operator(system, quantize_sampled(start), args.t)
    defect = float(np.max(np.abs(quantize_sampled(evolved) - exact)))
    print(f"defect vs exact conjugation: {defect:.3e}", file=sys.stderr)
    extra = {"diagnostics": {"t": args.t, "steps": args.steps, "defect": defect}}
    _deliver(serialize.sampled_to_json(evolved, extra=extra), args.output)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import DEFAULT_SEED, format_result, run  # only this command loads the battery

    results = run(DEFAULT_SEED if args.seed is None else args.seed)
    for result in results:
        print(format_result(result))
    passed = sum(1 for result in results if result.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _seed(text: str) -> int:
    """A --seed value; numpy seeds only with non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise FormatError (exit 2)."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by later calls:
    each parse returns a fresh namespace, so no value carries over."""
    parser = _Parser(
        prog="torusq",
        description="Weyl quantization, Wigner tables and Moyal dynamics on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags every file subcommand shares; selftest reads no file.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    angle = "boundary angle: a symbol file's value, which a flag must match, else the flag or 0"
    shared.add_argument("--theta1", type=float, default=None, help=f"first {angle}")
    shared.add_argument("--theta2", type=float, default=None, help=f"second {angle}")

    def command(name: str, handler, text: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, parents=[shared], help=text)
        subparser.set_defaults(handler=handler)
        return subparser

    q = command("quantize", _cmd_quantize, "turn a symbol file into an N x N operator")
    q.add_argument("symbol", help="JSON file: trig polynomial array or sampled symbol object")
    q.add_argument("--N", type=int, default=None, help="Hilbert space dimension (trig input)")
    q.add_argument(
        "--route",
        choices=("auto", "fourier", "sampled", "both"),
        default="auto",
        help="quantization route; 'both' writes the two results and reports their gap",
    )

    d = command("dequantize", _cmd_dequantize, "canonical sampled symbol of an operator")
    d.add_argument("operator", help="JSON operator file")
    d.add_argument("--csv", action="store_true", help="emit a lattice CSV instead of JSON")

    w = command("wigner", _cmd_wigner, "Wigner table of one state or a state pair")
    w.add_argument("state", help="JSON state file, an array of [re, im] pairs")
    w.add_argument("state2", nargs="?", default=None, help="optional second state file")
    w.add_argument("--csv", action="store_true", help="emit a lattice CSV instead of JSON")

    e = command("evolve", _cmd_evolve, "integrate the Heisenberg flow on the symbol side")
    e.add_argument("hamiltonian", help="JSON Hamiltonian: trig polynomial or sampled symbol")
    e.add_argument("symbol", help="JSON sampled symbol to evolve")
    e.add_argument("--t", type=float, required=True, help="evolution time")
    e.add_argument("--steps", type=int, default=1000, help="RK4 step count (default 1000)")

    s = sub.add_parser("selftest", help="run the acceptance battery")
    s.add_argument("--seed", type=_seed, default=None, help="base random seed, non-negative")
    s.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    command = "torusq"
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        # A non-finite result is refused where it is checked or serialized
        # (exit 4), so numpy's overflow warnings would only clutter stderr.
        with np.errstate(all="ignore"):
            return args.handler(args)
    except tuple(EXIT_CODES) as exc:
        if isinstance(exc, MemoryError):  # numpy's names the allocation; a bare one is empty
            exc = MemoryError(f"{command} ran out of memory: {exc}".rstrip(": "))
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
