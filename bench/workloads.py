"""The benchmark's four workloads.

Each workload makes one job's inputs from a seeded generator, runs the job
(the only timed part) and then checks the job's outputs against the
acceptance battery's tolerances.  Jobs have a fixed size: the dimension N
is set per workload and only the seeded values change from job to job.

Every method takes the imported ``torusq`` package as its first argument,
because the harness imports the package afresh for each set-up it times.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

# Worst-case limits of the acceptance battery, unchanged.  A limit of 0.0
# means the value must be exactly zero.
TOLERANCES = {
    "quantize.route_gap_max": 1e-9,
    "dequantize.roundtrip_err_max": 1e-10,
    "quantize.inversion_err_max": 1e-10,
    "wigner.symmetry_residual_max": 0.0,
    "moyal.homomorphism_defect_max": 1e-9,
    "moyal.rk4_defect_max": 1e-6,
}

TRIG_TERMS = 16


def within_tolerance(name: str, value: float) -> bool:
    limit = TOLERANCES[name]
    if not math.isfinite(value):
        return False
    return value == 0.0 if limit == 0.0 else value < limit


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _grid(rng, rows: int, cols: int | None = None) -> np.ndarray:
    shape = (rows, rows if cols is None else cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rep(tq, rng, n: int):
    return tq.Representation(float(rng.uniform()), float(rng.uniform()), n)


def _trig(tq, rng, n: int):
    """Random polynomial with TRIG_TERMS distinct frequencies in [-3N, 3N]^2."""
    span = 3 * n
    coeffs: dict = {}
    while len(coeffs) < TRIG_TERMS:
        key = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
    return tq.TrigPolynomial(coeffs)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _complex(pairs) -> np.ndarray:
    values = np.asarray(pairs, dtype=float)
    return values[:, 0] + 1j * values[:, 1]


def _operator_doc(path: Path, n: int) -> np.ndarray:
    doc = _read_json(path)
    if doc["N"] != n:
        raise ValueError(f"{path.name}: N={doc['N']}, expected {n}")
    return _complex(doc["entries"]).reshape(n, n)


def _sibling(path: Path) -> Path:
    """Where `quantize --route both -o path` writes the lattice-route result."""
    return path.with_name(f"{path.stem}.sampled{path.suffix}")


def _theta_flags(rep) -> list:
    return ["--theta1", repr(rep.theta1), "--theta2", repr(rep.theta2)]


class Workload:
    """A job kind; files a job reads or writes live in workdir."""

    def __init__(self, workdir: Path):
        self.dir = workdir

    def prepare(self, tq) -> None:
        """Write the inputs shared by every job of a run."""


class CliIo(Workload):
    """Four in-process CLI calls on freshly written input files."""

    name = "cli-io"
    why = (
        "what a CLI user pays: serialize dominates, and the 0.7 MB sampled document "
        "to parse sits beside emit-heavy calls, so a change trading parse for emit shows"
    )
    sizes = (16, 32, 64)

    def make(self, tq, rng, n: int) -> dict:
        rep = _rep(tq, rng, n)
        files = {
            key: self.dir / f"{key}.json"
            for key in ("trig", "sampled", "op", "psi", "phi", "q_both", "q_sampled", "deq", "wig")
        }
        sym = tq.SampledSymbol(_grid(rng, 2 * n), rep)
        op = _grid(rng, n)
        inputs = {
            "trig": tq.serialize.trig_to_json(_trig(tq, rng, n)),
            "sampled": tq.serialize.sampled_to_json(sym),
            "op": tq.serialize.operator_to_json(op),
            "psi": tq.serialize.state_to_json(_grid(rng, 1, n)[0]),
            "phi": tq.serialize.state_to_json(_grid(rng, 1, n)[0]),
        }
        for key, text in inputs.items():
            files[key].write_text(text + "\n", encoding="utf-8")
        # Outputs of the previous job must not pass this job's checks.
        for key in ("q_both", "q_sampled", "deq", "wig"):
            files[key].unlink(missing_ok=True)
        _sibling(files["q_both"]).unlink(missing_ok=True)
        f = {key: str(path) for key, path in files.items()}
        argvs = [
            ["quantize", f["trig"], "--N", str(n), *_theta_flags(rep), "--route", "both",
             "-o", f["q_both"]],
            ["quantize", f["sampled"], "-o", f["q_sampled"]],
            ["dequantize", f["op"], *_theta_flags(rep), "-o", f["deq"]],
            ["wigner", f["psi"], f["phi"], *_theta_flags(rep), "-o", f["wig"]],
        ]
        return {"n": n, "rep": rep, "sym": sym, "op": op, "files": files, "argvs": argvs}

    def run(self, tq, job: dict) -> list:
        with contextlib.redirect_stderr(io.StringIO()):
            return [tq.cli.main(argv) for argv in job["argvs"]]

    def check(self, tq, job: dict, codes: list) -> tuple:
        if codes != [0, 0, 0, 0]:
            return False, {}
        n, rep, files = job["n"], job["rep"], job["files"]
        direct = _operator_doc(files["q_both"], n)
        via_grid = _operator_doc(_sibling(files["q_both"]), n)
        rebuilt = tq.operator_from_reduced(tq.delta(job["sym"]))
        deq = _read_json(files["deq"])
        if deq["N"] != n or (deq["theta1"], deq["theta2"]) != (rep.theta1, rep.theta2):
            return False, {}
        back = tq.quantize_sampled(
            tq.SampledSymbol(_complex(deq["grid"]).reshape(2 * n, 2 * n), rep)
        )
        wig = _read_json(files["wig"])
        health = {
            "quantize.route_gap_max": _max_dev(direct, via_grid),
            "quantize.inversion_err_max": _max_dev(_operator_doc(files["q_sampled"], n), rebuilt),
            "dequantize.roundtrip_err_max": _max_dev(back, job["op"]),
            "wigner.symmetry_residual_max": float(wig["summary"]["symmetry_residual"]),
        }
        return True, health


class Lattice(Workload):
    """Library transforms only, no JSON."""

    name = "lattice"
    why = (
        "the O(N^3) transform kernels at N=128, whose 134 MB phase kernel outgrows "
        "the 105 MB L3, with serialize idle"
    )
    sizes = (32, 64, 128)

    def make(self, tq, rng, n: int) -> dict:
        rep = _rep(tq, rng, n)
        return {
            "rep": rep,
            "trig": _trig(tq, rng, n),
            "op": _grid(rng, n),
            "psi": _grid(rng, 1, n)[0],
            "phi": _grid(rng, 1, n)[0],
            "sym": tq.SampledSymbol(_grid(rng, 2 * n), rep),
        }

    def run(self, tq, job: dict) -> dict:
        rep = job["rep"]
        sampled = tq.sample(job["trig"], rep)
        table = tq.wigner_state(rep, job["psi"], job["phi"])
        return {
            "fourier": tq.quantize_fourier(job["trig"], rep),
            "sampled": tq.quantize_sampled(sampled),
            "back": tq.quantize_sampled(tq.dequantize(rep, job["op"])),
            "marginals": (tq.marginal_x(table), tq.marginal_p(table)),
            "symmetry": tq.check_symmetries(table),
            "rebuilt": tq.operator_from_reduced(tq.delta(job["sym"])),
        }

    def check(self, tq, job: dict, out: dict) -> tuple:
        health = {
            "quantize.route_gap_max": _max_dev(out["fourier"], out["sampled"]),
            "dequantize.roundtrip_err_max": _max_dev(out["back"], job["op"]),
            "wigner.symmetry_residual_max": float(out["symmetry"]),
            "quantize.inversion_err_max": _max_dev(
                out["rebuilt"], tq.quantize_sampled(job["sym"])
            ),
        }
        return True, health


class Moyal(Workload):
    """Moyal product and bracket of a fresh dense pair."""

    name = "moyal"
    why = (
        "the O(N^5) shifted-stack Moyal kernels on fresh dense pairs, where nothing "
        "repeats between jobs, so caching keyed by an input gains nothing"
    )
    sizes = (4, 8, 16)

    def make(self, tq, rng, n: int) -> dict:
        rep = _rep(tq, rng, n)
        return {
            "a": tq.SampledSymbol(_grid(rng, 2 * n), rep),
            "b": tq.SampledSymbol(_grid(rng, 2 * n), rep),
        }

    def run(self, tq, job: dict) -> tuple:
        return tq.moyal_product(job["a"], job["b"]), tq.moyal_bracket(job["a"], job["b"])

    def check(self, tq, job: dict, out: tuple) -> tuple:
        product, bracket = out
        qa = tq.quantize_sampled(job["a"])
        qb = tq.quantize_sampled(job["b"])
        defect = max(
            _max_dev(tq.quantize_sampled(product), qa @ qb),
            _max_dev(tq.quantize_sampled(bracket), qa @ qb - qb @ qa),
        )
        return True, {"moyal.homomorphism_defect_max": defect}


class Dynamics(Workload):
    """`torusq evolve` of a fresh start grid under one fixed Hamiltonian."""

    name = "dynamics"
    why = (
        "about 2000 brackets against one fixed Hamiltonian per job, the only workload "
        "where a generator or eigh cached per Hamiltonian can pay off"
    )
    sizes = (1, 2, 4)
    # Criterion 11's Hamiltonian and step size dt = T / STEPS = 1e-3.
    HAMILTONIAN = {(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.1, (0, -1): 0.1}
    T = 0.5
    STEPS = 500

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self.hamiltonian = workdir / "hamiltonian.json"
        self.start = workdir / "start.json"
        self.out = workdir / "evolved.json"

    def prepare(self, tq) -> None:
        text = tq.serialize.trig_to_json(tq.TrigPolynomial(self.HAMILTONIAN))
        self.hamiltonian.write_text(text + "\n", encoding="utf-8")

    def make(self, tq, rng, n: int) -> dict:
        start = tq.SampledSymbol(_grid(rng, 2 * n), _rep(tq, rng, n))
        self.start.write_text(tq.serialize.sampled_to_json(start) + "\n", encoding="utf-8")
        self.out.unlink(missing_ok=True)
        argv = [
            "evolve", str(self.hamiltonian), str(self.start),
            "--t", repr(self.T), "--steps", str(self.STEPS), "-o", str(self.out),
        ]
        return {"n": n, "argv": argv}

    def run(self, tq, job: dict) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return tq.cli.main(job["argv"])

    def check(self, tq, job: dict, code: int) -> tuple:
        if code != 0:
            return False, {}
        doc = _read_json(self.out)
        diagnostics = doc["diagnostics"]
        if doc["N"] != job["n"] or diagnostics["steps"] != self.STEPS:
            return False, {}
        return True, {"moyal.rk4_defect_max": float(diagnostics["defect"])}


WORKLOADS = {cls.name: cls for cls in (CliIo, Lattice, Moyal, Dynamics)}
