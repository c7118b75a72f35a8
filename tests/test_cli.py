import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusq import (
    Representation,
    SampledSymbol,
    TrigPolynomial,
    dequantize,
    pauli_symbols,
    sample,
    wigner_state,
)
from torusq import cli, serialize

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def run_cli(*args):
    """python -m torusq.cli in a fresh process, for what only a process shows: --help's exit,
    reproducibility across processes, and one end-to-end run per subcommand."""
    return subprocess.run(
        [sys.executable, "-m", "torusq.cli", *args],
        capture_output=True,
        text=True,
    )


def run_main(capsys, *args):
    """cli.main(args) in this process, with its exit code and captured output as run_cli gives them."""
    code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, *capsys.readouterr())


def test_quantize_trig_polynomial(tmp_path):
    zsym = pauli_symbols(Representation(0.0, 0.0, 2))[3]
    src = tmp_path / "alpha_z.json"
    src.write_text(serialize.trig_to_json(zsym))
    proc = run_cli("quantize", str(src), "--N", "2")
    assert proc.returncode == 0
    built = serialize.operator_from_json(proc.stdout)
    assert np.max(np.abs(built - SZ)) < 1e-12


def test_quantize_sampled_symbol(tmp_path, capsys):
    rng = np.random.default_rng(61)
    rep = Representation(0.3, 0.7, 3)
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    src = tmp_path / "sym.json"
    src.write_text(serialize.sampled_to_json(dequantize(rep, matrix)))
    proc = run_main(capsys, "quantize", str(src))
    assert proc.returncode == 0
    assert np.max(np.abs(serialize.operator_from_json(proc.stdout) - matrix)) < 1e-10


def test_quantize_both_routes(tmp_path, capsys):
    zsym = pauli_symbols(Representation(0.0, 0.0, 2))[3]
    src = tmp_path / "alpha_z.json"
    src.write_text(serialize.trig_to_json(zsym))
    out = tmp_path / "op.json"
    proc = run_main(capsys, "quantize", str(src), "--N", "2", "--route", "both", "-o", str(out))
    assert proc.returncode == 0
    assert "route discrepancy:" in proc.stderr
    direct = serialize.operator_from_json(out.read_text())
    sampled = serialize.operator_from_json((tmp_path / "op.sampled.json").read_text())
    assert np.max(np.abs(direct - SZ)) < 1e-12
    assert np.max(np.abs(sampled - SZ)) < 1e-12


@pytest.mark.parametrize(
    "output, sibling", [("./op", "./op.sampled"), ("run.v2/op", "run.v2/op.sampled")]
)
def test_quantize_both_routes_with_a_dot_in_the_directory(tmp_path, monkeypatch, output, sibling):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    zsym = pauli_symbols(Representation(0.0, 0.0, 2))[3]
    (tmp_path / "tp.json").write_text(serialize.trig_to_json(zsym))
    assert cli.main(["quantize", "tp.json", "--N", "2", "--route", "both", "-o", output]) == 0
    for path in (output, sibling):
        built = serialize.operator_from_json((tmp_path / path).read_text())
        assert np.max(np.abs(built - SZ)) < 1e-12


def test_quantize_trig_needs_dimension(tmp_path, capsys):
    src = tmp_path / "tp.json"
    src.write_text('[{"n1":0,"n2":0,"re":1.0,"im":0.0}]')
    proc = run_main(capsys, "quantize", str(src))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_quantize_flag_conflict(tmp_path, capsys):
    rep = Representation(0.25, 0.0, 2)
    src = tmp_path / "sym.json"
    src.write_text(serialize.sampled_to_json(dequantize(rep, np.eye(2))))
    assert run_main(capsys, "quantize", str(src), "--N", "3").returncode == 3
    assert run_main(capsys, "quantize", str(src), "--theta1", "0.5").returncode == 3
    # matching flags are accepted
    proc = run_main(capsys, "quantize", str(src), "--N", "2", "--theta1", "0.25", "--theta2", "0")
    assert proc.returncode == 0
    # angles are compared on the circle, so both sides of theta2 = 0 match
    assert run_main(capsys, "quantize", str(src), "--theta2=1e-14").returncode == 0
    assert run_main(capsys, "quantize", str(src), "--theta2=-1e-14").returncode == 0
    assert run_main(capsys, "quantize", str(src), "--theta2=0.99999999999999").returncode == 0
    assert run_main(capsys, "quantize", str(src), "--theta2=-2e-12").returncode == 3


def test_entry_count_is_exit_3_before_a_bad_entry(tmp_path, capsys):
    entries = [[0, 0], [0, 0], "x", [0, 0], [0, 0]]
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"theta1": 0, "theta2": 0, "N": 1, "grid": entries}))
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"N": 1, "entries": entries}))
    assert cli.main(["quantize", str(sym)]) == 3
    assert cli.main(["dequantize", str(op)]) == 3
    assert capsys.readouterr().err.count("has 5 entries, expected") == 2


def test_dimension_past_the_bound_is_refused(tmp_path, capsys, monkeypatch):
    tp = tmp_path / "tp.json"
    tp.write_text('[{"n1":0,"n2":0,"re":1.0,"im":0.0}]')
    state = tmp_path / "psi.json"
    state.write_text(json.dumps([[1.0, 0.0]] * (cli.MAX_DIM + 1)))
    assert cli.main(["quantize", str(tp), "--N", str(cli.MAX_DIM + 1)]) == 4
    assert cli.main(["wigner", str(state)]) == 4
    err = capsys.readouterr().err
    assert err.count(f"exceeds the supported maximum {cli.MAX_DIM}") == 2
    # A sampled symbol file is parsed whole before its N meets the bound.
    sym = tmp_path / "sym.json"
    start = sample(TrigPolynomial({(1, 0): 1.0}), Representation(0.0, 0.0, 3))
    sym.write_text(serialize.sampled_to_json(start))
    monkeypatch.setattr(cli, "MAX_DIM", 2)
    assert cli.main(["quantize", str(sym)]) == 4
    assert cli.main(["evolve", str(tp), str(sym), "--t", "0.1"]) == 4
    assert capsys.readouterr().err.count("exceeds the supported maximum 2") == 2


def test_quantize_both_routes_needs_an_output_file(tmp_path, capsys):
    src = tmp_path / "alpha_z.json"
    src.write_text(serialize.trig_to_json(pauli_symbols(Representation(0.0, 0.0, 2))[3]))
    proc = run_main(capsys, "quantize", str(src), "--N", "2", "--route", "both")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: route 'both' needs -o to place the two results\n"


def test_quantize_route_needs_trig_input(tmp_path, capsys):
    rep = Representation(0.0, 0.0, 2)
    src = tmp_path / "sym.json"
    src.write_text(serialize.sampled_to_json(dequantize(rep, np.eye(2))))
    assert run_main(capsys, "quantize", str(src), "--route", "fourier").returncode == 2


def test_dequantize_known_table(tmp_path):
    src = tmp_path / "sx.json"
    src.write_text(serialize.operator_to_json(SX))
    proc = run_cli("dequantize", str(src))
    assert proc.returncode == 0
    sym = serialize.sampled_from_json(proc.stdout)
    expected = np.array(
        [[0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0], [1, 0, -1, 0]], dtype=float
    )
    assert np.max(np.abs(sym.grid - expected)) < 1e-14


def test_dequantize_csv(tmp_path, capsys):
    src = tmp_path / "sx.json"
    src.write_text(serialize.operator_to_json(SX))
    proc = run_main(capsys, "dequantize", str(src), "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,p,re,im"
    assert len(lines) == 1 + 16


def test_quantize_dequantize_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(62)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    src = tmp_path / "op.json"
    src.write_text(serialize.operator_to_json(matrix))
    mid = tmp_path / "sym.json"
    proc = run_main(capsys, "dequantize", str(src), "--theta1", "0.6", "--theta2", "0.2", "-o", str(mid))
    assert proc.returncode == 0
    proc = run_main(capsys, "quantize", str(mid))
    assert proc.returncode == 0
    assert np.max(np.abs(serialize.operator_from_json(proc.stdout) - matrix)) < 1e-10


def test_wigner_single_state(tmp_path):
    src = tmp_path / "u0.json"
    src.write_text(serialize.state_to_json([1.0, 0.0]))
    proc = run_cli("wigner", str(src))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["summary"]["mass"] == [1.0, 0.0]
    assert doc["summary"]["symmetry_residual"] == 0.0
    assert doc["summary"]["marginal_x"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    table = serialize.wigner_from_json(proc.stdout)
    expected = 0.25 * np.array(
        [[1, 1, 1, 1], [0, 0, 0, 0], [1, -1, 1, -1], [0, 0, 0, 0]], dtype=float
    )
    assert np.max(np.abs(table.grid - expected)) < 1e-14


def test_wigner_state_pair(tmp_path, capsys):
    rng = np.random.default_rng(63)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = tmp_path / "psi.json"
    b = tmp_path / "phi.json"
    a.write_text(serialize.state_to_json(psi))
    b.write_text(serialize.state_to_json(phi))
    proc = run_main(capsys, "wigner", str(a), str(b), "--theta1", "0.4", "--theta2", "0.9")
    assert proc.returncode == 0
    table = serialize.wigner_from_json(proc.stdout)
    oracle = wigner_state(Representation(0.4, 0.9, 3), psi, phi)
    assert np.array_equal(table.grid, oracle.grid)


def test_wigner_csv(tmp_path, capsys):
    psi = [1.0, 0.5j, -0.25]
    src = tmp_path / "psi.json"
    src.write_text(serialize.state_to_json(psi))
    proc = run_main(capsys, "wigner", str(src), "--csv", "--theta2", "0.3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,p,re,im"
    assert len(lines) == 1 + 36
    rep = Representation(0.0, 0.3, 3)
    assert proc.stdout == serialize.lattice_csv(wigner_state(rep, psi, psi).grid, rep)


def test_wigner_length_mismatch(tmp_path, capsys):
    a = tmp_path / "psi.json"
    b = tmp_path / "phi.json"
    a.write_text(serialize.state_to_json([1.0, 0.0]))
    b.write_text(serialize.state_to_json([1.0, 0.0, 0.0]))
    assert run_main(capsys, "wigner", str(a), str(b)).returncode == 3


def test_evolve_zero_time(tmp_path):
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0},{"n1":-1,"n2":0,"re":0.5,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    proc = run_cli("evolve", str(ham), str(start), "--t", "0")
    assert proc.returncode == 0
    assert "defect vs exact conjugation:" in proc.stderr
    out = serialize.sampled_from_json(proc.stdout)
    assert np.array_equal(out.grid, dequantize(rep, SX).grid)
    diag = json.loads(proc.stdout)["diagnostics"]
    assert diag["steps"] == 1000
    assert diag["defect"] < 1e-12


def test_evolve_spin_flip(tmp_path, capsys):
    # cos(2 pi x) generates precession; half a period negates sigma_x
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0},{"n1":-1,"n2":0,"re":0.5,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    out = tmp_path / "out.json"
    proc = run_main(capsys, "evolve", str(ham), str(start), "--t", "0.125", "--steps", "300", "-o", str(out))
    assert proc.returncode == 0
    evolved = serialize.sampled_from_json(out.read_text())
    target = dequantize(rep, -SX).grid
    assert np.max(np.abs(evolved.grid - target)) < 1e-5


def test_evolve_rejects_complex_hamiltonian(tmp_path, capsys):
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    assert run_main(capsys, "evolve", str(ham), str(start), "--t", "0.1").returncode == 4


@pytest.mark.parametrize("label", [(0.5, 0.0, 2), (0.0, 0.25, 2), (0.0, 0.0, 3)])
def test_evolve_refuses_a_sampled_hamiltonian_from_another_representation(tmp_path, capsys, label):
    ham = tmp_path / "h.json"
    energy = TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5})
    ham.write_text(serialize.sampled_to_json(sample(energy, Representation(*label))))
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(Representation(0.0, 0.0, 2), SX)))
    assert cli.main(["evolve", str(ham), str(start), "--t", "0.1", "--steps", "2"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_evolve_refuses_an_overflowing_hamiltonian(tmp_path, capsys):
    rep = Representation(0.0, 0.0, 3)
    ham = tmp_path / "h.json"
    ham.write_text(serialize.sampled_to_json(SampledSymbol(1e308 * np.cos(np.arange(6))[:, None] * np.ones(6), rep)))
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(SampledSymbol(np.ones((6, 6)), rep)))
    proc = run_main(capsys, "evolve", str(ham), str(start), "--t", "0.1", "--steps", "10")
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: Hamiltonian spectrum entries must be finite\n"


class _TrackedList(list):
    """A JSON array that a weak reference can follow."""


class _TrackedDict(dict):
    """A JSON object that a weak reference can follow."""


@pytest.mark.parametrize("kind", ["trig", "sampled"])
def test_evolve_holds_no_parse_tree_while_it_integrates(tmp_path, capsys, monkeypatch, kind):
    rep = Representation(0.0, 0.0, 2)
    energy = TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5})
    ham = tmp_path / "h.json"
    ham.write_text(serialize.trig_to_json(energy) if kind == "trig" else serialize.sampled_to_json(sample(energy, rep)))
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    trees, loads, evolve = [], serialize.loads, cli.evolve_symbol

    def tracked_loads(text):
        doc = loads(text)
        tree = (_TrackedList if isinstance(doc, list) else _TrackedDict)(doc)
        trees.append(weakref.ref(tree))
        return tree

    def evolve_without_trees(*args):
        assert len(trees) == 2 and all(ref() is None for ref in trees)
        return evolve(*args)

    monkeypatch.setattr(serialize, "loads", tracked_loads)
    monkeypatch.setattr(cli, "evolve_symbol", evolve_without_trees)
    assert run_main(capsys, "evolve", str(ham), str(start), "--t", "0.1", "--steps", "2").returncode == 0


def test_evolve_step_count_validated(tmp_path, capsys):
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":0,"n2":0,"re":1.0,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    assert run_main(capsys, "evolve", str(ham), str(start), "--t", "1", "--steps", "0").returncode == 2


def test_evolve_takes_a_single_step(tmp_path, capsys):
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0},{"n1":-1,"n2":0,"re":0.5,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    proc = run_main(capsys, "evolve", str(ham), str(start), "--t", "0.001", "--steps", "1")
    assert proc.returncode == 0
    diagnostics = json.loads(proc.stdout)["diagnostics"]
    assert diagnostics["steps"] == 1
    assert diagnostics["defect"] < 1e-9  # one RK4 step errs by about (2 pi N t dE)^5 / 120


def test_evolve_step_count_checked_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert cli.main(["evolve", missing, missing, "--t", "1", "--steps", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: --steps must be at least 1")


@pytest.mark.parametrize("t, steps", [("nan", "20000"), ("inf", "20000"), ("1e308", "2")])
def test_evolve_refuses_time_before_printing_a_defect(tmp_path, capsys, t, steps):
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0},{"n1":-1,"n2":0,"re":0.5,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    assert cli.main(["evolve", str(ham), str(start), "--t", t, "--steps", steps]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "defect" not in err


def test_evolve_overflow_names_time_and_steps(tmp_path, capsys):
    # The four-mode Hamiltonian of the dynamics benchmark at N = 4.
    ham = tmp_path / "h.json"
    ham.write_text(
        serialize.trig_to_json(
            TrigPolynomial({(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.1, (0, -1): 0.1})
        )
    )
    rng = np.random.default_rng(62)
    start = tmp_path / "start.json"
    grid = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    start.write_text(serialize.sampled_to_json(SampledSymbol(grid, Representation(0.3, 0.6, 4))))
    assert cli.main(["evolve", str(ham), str(start), "--t", "1e300", "--steps", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "t=1e+300" in err and "steps=2" in err



def test_evolve_refuses_a_step_past_the_stability_limit(tmp_path, capsys):
    # The four-mode Hamiltonian at N = 4: t/steps = 3e4 is far past RK4's limit.
    ham = tmp_path / "h.json"
    ham.write_text(
        serialize.trig_to_json(
            TrigPolynomial({(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.1, (0, -1): 0.1})
        )
    )
    rng = np.random.default_rng(63)
    start = tmp_path / "start.json"
    grid = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    start.write_text(serialize.sampled_to_json(SampledSymbol(grid, Representation(0.3, 0.6, 4))))
    out = tmp_path / "evolved.json"
    assert cli.main(["evolve", str(ham), str(start), "--t", "1e5", "--steps", "3", "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: t=100000.0 with steps=3") and "stability limit" in err
    assert not out.exists()


def test_parser_reuse_carries_no_value_between_calls(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    rng = np.random.default_rng(64)
    operator = tmp_path / "op.json"
    operator.write_text(serialize.operator_to_json(rng.standard_normal((2, 2)) + 0j))
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0},{"n1":-1,"n2":0,"re":0.5,"im":0.0}]')
    first, second, third = (tmp_path / name for name in ("a.csv", "b.json", "c.json"))
    argv = ["dequantize", str(operator), "--csv", "--theta1", "0.25", "-o", str(first)]
    assert cli.main(argv) == 0
    assert cli.main(["quantize", str(ham), "--N", "2", "--route", "sampled", "-o", str(second)]) == 0
    assert cli.main(["dequantize", str(operator), "-o", str(third)]) == 0
    quantized = serialize.operator_from_json(second.read_text())
    assert np.max(np.abs(quantized - SZ)) < 1e-12
    canonical = serialize.sampled_from_json(third.read_text())
    assert (canonical.rep.theta1, canonical.rep.theta2) == (0.0, 0.0)
    assert first.read_text() != third.read_text()
    assert capsys.readouterr().err == ""

BAD_LABELS = [
    (["quantize", "{tp}", "--N", "0"], 3),
    (["quantize", "{tp}", "--N", "-3"], 3),
    (["quantize", "{tp}", "--N", "2", "--theta1", "nan"], 4),
    (["quantize", "{tp}", "--N", "2", "--theta2", "inf"], 4),
    (["quantize", "{sym}", "--theta1=-inf"], 4),
    (["dequantize", "{op}", "--theta1", "nan"], 4),
    (["dequantize", "{op}", "--theta2", "inf"], 4),
    (["wigner", "{psi}", "--theta1", "inf"], 4),
    (["evolve", "{tp}", "{sym}", "--t", "0.1", "--theta2", "nan"], 4),
    (["quantize", "{tp}", "--N", "2", "--theta1", "-inf"], 2),
    (["evolve", "{tp}", "{sym}"], 2),
    (["transform", "{tp}"], 2),
]


@pytest.mark.parametrize("argv, code", BAD_LABELS, ids=[" ".join(a) for a, _ in BAD_LABELS])
def test_bad_representation_flags_are_refused(tmp_path, capsys, argv, code):
    files = {
        "tp": '[{"n1":1,"n2":0,"re":0.5,"im":0.0},{"n1":-1,"n2":0,"re":0.5,"im":0.0}]',
        "sym": serialize.sampled_to_json(dequantize(Representation(0.0, 0.0, 2), SX)),
        "op": serialize.operator_to_json(SX),
        "psi": serialize.state_to_json([1.0, 0.0]),
    }
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(text)
    assert cli.main([arg.format(**paths) for arg in argv]) == code
    assert capsys.readouterr().err.startswith("error:")


def test_help_exits_0():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("command", ["quantize", "dequantize", "wigner", "evolve"])
def test_subcommands_share_the_output_and_angle_flags(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    listed = capsys.readouterr().out
    for flag in ("-o OUTPUT, --output OUTPUT", "--theta1 THETA1", "--theta2 THETA2"):
        assert flag in listed


# The two frequencies alias at N = 1, so the Fourier route overflows to inf.
OVERFLOW_TRIG = '[{"n1":0,"n2":0,"re":1e308,"im":0.0},{"n1":2,"n2":0,"re":1e308,"im":0.0}]'


def test_non_finite_output_is_exit_4(tmp_path, capsys):
    src = tmp_path / "big.json"
    src.write_text(OVERFLOW_TRIG)
    proc = run_main(capsys, "quantize", str(src), "--N", "1")
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_malformed_json_is_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{this is not json")
    assert run_main(capsys, "quantize", str(src)).returncode == 2
    assert run_main(capsys, "dequantize", str(src)).returncode == 2
    assert run_main(capsys, "wigner", str(src)).returncode == 2


def _nested(opener: str, depth: int) -> bytes:
    """A document of depth nested arrays ("[") or objects ('{"a":')."""
    closer, core = ("]", "") if opener == "[" else ("}", "0")
    return (opener * depth + core + closer * depth).encode()


GOOD_TRIG = '[{"n1":1,"n2":0,"re":0.5,"im":0.0}]'
# Files that no subcommand can parse: nesting past any recursion limit, and bytes that are not
# UTF-8 or not JSON.  Each is refused with exit 2 in one error line that names the file.
UNPARSABLE = {
    "arrays-1e5": _nested("[", 10**5),
    "objects-1e5": _nested('{"a":', 10**5),
    "ff-fe-tail": GOOD_TRIG.encode() + b"\xff\xfe",
    "utf8-bom": b"\xef\xbb\xbf" + GOOD_TRIG.encode(),
    "utf16": GOOD_TRIG.encode("utf-16"),
    "nul": b"[\x00]",
    "nul-in-string": b'["\x00"]',
    "lone-surrogate": b'["\xed\xa0\x80"]',
}


def test_a_refused_value_is_shown_bounded(tmp_path, capsys):
    src = tmp_path / "zeros.json"
    src.write_text("[[" + ",".join(["0.0"] * 200000) + "]]")
    proc = run_main(capsys, "wigner", str(src))
    shown = "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...]"
    assert (proc.returncode, proc.stderr) == (2, f"error: state entry must be an [re, im] pair, got {shown}\n")


def _file_argv(command: str, path) -> list:
    return [command, str(path)] + ([str(path), "--t", "0"] if command == "evolve" else [])


def _assert_refused(proc, path, parsed: bool | None) -> None:
    """Exit 2 with one error line and nothing else; parsed tells whether the document parsed (its
    schema is refused) or not (the line names the file), None when either may hold."""
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    if parsed is not None:
        assert proc.stderr.startswith(f"error: {path}: invalid JSON: ") != parsed, proc.stderr


@pytest.mark.parametrize("name", sorted(UNPARSABLE))
@pytest.mark.parametrize("command", ["quantize", "dequantize", "wigner", "evolve"])
def test_bytes_that_do_not_parse_are_exit_2_naming_the_file(tmp_path, capsys, command, name):
    src = tmp_path / f"{name}.json"
    src.write_bytes(UNPARSABLE[name])
    _assert_refused(run_main(capsys, *_file_argv(command, src)), src, parsed=False)


@pytest.mark.parametrize("depth", [900, 1000])
@pytest.mark.parametrize("command", ["quantize", "dequantize", "wigner", "evolve"])
def test_nesting_near_the_recursion_limit_is_exit_2(tmp_path, capsys, command, depth):
    # Whether this depth parses depends on the Python version and on the stack already in
    # use; either way it ends in one error line, and a parsed document in its schema refusal.
    for opener in ("[", '{"a":'):
        src = tmp_path / "deep.json"
        src.write_bytes(_nested(opener, depth))
        _assert_refused(run_main(capsys, *_file_argv(command, src)), src, parsed=None)


# In a fresh process, nesting 900 deep parses on every supported Python and reaches its schema
# refusal, while the unparsable files are refused as they are in-process.
@pytest.mark.parametrize(
    "command, name",
    [("quantize", "arrays-1e5"), ("dequantize", "ff-fe-tail"), ("wigner", "utf8-bom"), ("evolve", "nul"),
     ("quantize", "depth-900"), ("wigner", "depth-900")],
)
def test_refusals_of_bytes_and_nesting_in_a_fresh_process(tmp_path, command, name):
    src = tmp_path / f"{name}.json"
    src.write_bytes(_nested("[", 900) if name == "depth-900" else UNPARSABLE[name])
    _assert_refused(run_cli(*_file_argv(command, src)), src, parsed=name == "depth-900")


@pytest.mark.parametrize("value", ["string", 3, 1.5, True, None], ids=["string", "int", "float", "bool", "null"])
def test_a_document_that_is_not_an_array_or_object_is_exit_2(tmp_path, capsys, value):
    sym = serialize.sampled_to_json(dequantize(Representation(0.0, 0.0, 2), SX))
    good = {
        "quantize": sym,
        "dequantize": serialize.operator_to_json(SX),
        "wigner": serialize.state_to_json([1.0, 0.0]),
        "evolve": sym,
    }
    for command, text in good.items():
        # A string is refused even when it holds a good document for the command.
        src = tmp_path / f"{command}.json"
        src.write_text(json.dumps(text if value == "string" else value))
        argv = [command, str(src)] + ([str(src), "--t", "0"] if command == "evolve" else [])
        proc = run_main(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: {src} must hold a JSON array or object, got ")


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert run_main(capsys, "quantize", str(tmp_path / "nope.json")).returncode == 2


@pytest.mark.parametrize(
    "command, error, message",
    [
        ("quantize", MemoryError(), "quantize ran out of memory"),
        ("dequantize", MemoryError("Unable to allocate 1.00 GiB"), "dequantize ran out of memory: Unable to allocate 1.00 GiB"),
    ],
)
def test_memory_error_is_exit_4_naming_the_subcommand(tmp_path, capsys, monkeypatch, command, error, message):
    def exhausted(text):
        raise error

    src = tmp_path / "doc.json"
    src.write_text("[]")
    monkeypatch.setattr(serialize, "loads", exhausted)
    proc = run_main(capsys, command, str(src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"error: {message}\n")


# The child caps only its own address space, 64 MiB past what it maps once numpy is
# imported, so the 256 MiB grid of N = 2048 on the sampled route cannot be allocated.
_CAPPED = """import resource, sys, numpy, torusq.cli
mapped = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + (64 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(torusq.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_a_process_out_of_memory_ends_in_exit_4(tmp_path):
    src = tmp_path / "tp.json"
    src.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0}]')
    argv = ["quantize", str(src), "--N", "2048", "--route", "sampled"]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _CAPPED, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: quantize ran out of memory: Unable to allocate")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_output_is_reproducible(tmp_path):
    rng = np.random.default_rng(64)
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    src = tmp_path / "op.json"
    src.write_text(serialize.operator_to_json(matrix))
    first = run_cli("dequantize", str(src), "--theta1", "0.3")
    second = run_cli("dequantize", str(src), "--theta1", "0.3")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_selftest_battery():
    proc = run_cli("selftest", "--seed", "123")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[-1] == "12/12 criteria passed"
    assert sum(1 for line in lines if " PASS " in line) == 12


def test_importing_the_cli_leaves_the_battery_unloaded():
    code = "import sys, torusq.cli; print('torusq.selftest' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_selftest_without_a_seed_runs_the_default_seed(monkeypatch, capsys):
    import torusq.selftest as selftest

    seeds = []
    monkeypatch.setattr(selftest, "run", lambda seed: seeds.append(seed) or [])
    assert cli.main(["selftest"]) == 0
    assert seeds == [selftest.DEFAULT_SEED]
    assert capsys.readouterr().out == "0/0 criteria passed\n"


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed=-5"], ["--seed", "1.5"], ["--seed", "x"]])
def test_selftest_refuses_a_seed_that_is_not_a_non_negative_integer(capsys, argv):
    assert cli.main(["selftest", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "non-negative integer" in err


# Fuzzing: malformed documents and flag values must end in a documented exit
# code, never a traceback.  Valid trig polynomial inputs only ever meet
# --N <= 64; a huge --N is paired with sampled-symbol documents, which fix
# their own dimension, so no run allocates a huge grid.

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2**53, -(10**30), 10**400]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
)
_NUMBERS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e308, -1e308, 5e-324]), _SCALARS)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_PAIRS = st.lists(st.one_of(st.lists(_NUMBERS, min_size=2, max_size=2), _SCALARS), max_size=5)
_FINITE_PAIR = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
_DOCUMENTS = {
    "text": st.one_of(
        st.text(max_size=20),
        st.sampled_from(["", "{", "[1,", "NaN", "[Infinity]", "1" * 5000, '{"N": 2']),
    ),
    "json": _JSON.map(json.dumps),
    "trig": st.lists(
        st.fixed_dictionaries(
            {
                "n1": st.one_of(st.integers(-9, 9), _SCALARS),
                "n2": st.one_of(st.integers(-9, 9), _SCALARS),
                "re": _NUMBERS,
                "im": _NUMBERS,
            }
        ),
        max_size=4,
    ).map(json.dumps),
    "sampled": st.integers(1, 3).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "theta1": _NUMBERS,
                "theta2": _NUMBERS,
                "N": st.one_of(st.just(n), st.integers(-1, 4), st.just(10**12), _SCALARS),
                "grid": st.one_of(
                    st.lists(_FINITE_PAIR, min_size=4 * n * n, max_size=4 * n * n), _PAIRS
                ),
            }
        )
    ).map(json.dumps),
    "state": _PAIRS.map(json.dumps),
    "operator": st.fixed_dictionaries(
        {"N": st.one_of(st.integers(-1, 2), st.just(10**12), _SCALARS), "entries": _PAIRS}
    ).map(json.dumps),
    # Raw bytes: not UTF-8, a BOM or a NUL next to a document, and nesting up to 10^5 deep.
    "bytes": st.one_of(
        st.binary(max_size=20),
        st.builds(
            lambda doc, extra, before: extra + doc.encode() if before else doc.encode() + extra,
            _JSON.map(json.dumps),
            st.sampled_from([b"\xff\xfe", b"\xef\xbb\xbf", b"\x00", b"\x80", b"\xed\xa0\x80"]),
            st.booleans(),
        ),
        st.builds(_nested, st.sampled_from(["[", '{"a":']), st.integers(1, 10**5)),
    ),
}
_FLOAT_FLAGS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "", "0.25"]),
)
_SAFE_N = st.one_of(st.integers(-5, 64).map(str), st.sampled_from(["nan", "inf", "abc", "2.5", ""]))
_HUGE_N = st.sampled_from([str(10**9), str(2**63), str(10**30)])


@st.composite
def _cli_runs(draw):
    """A fuzzed command line, with {0}, {1} standing for its document files."""
    command = draw(st.sampled_from(["quantize", "dequantize", "wigner", "evolve"]))
    kinds = [draw(st.sampled_from(sorted(_DOCUMENTS)))]
    if command == "evolve" or (command == "wigner" and draw(st.booleans())):
        kinds.append(draw(st.sampled_from(sorted(_DOCUMENTS))))
    docs = [draw(_DOCUMENTS[kind]) for kind in kinds]
    argv = [command, *(f"{{{i}}}" for i in range(len(docs)))]
    if command == "quantize":
        if draw(st.booleans()):
            sizes = _SAFE_N | _HUGE_N if kinds[0] == "sampled" else _SAFE_N
            argv += ["--N", draw(sizes)]
        if draw(st.booleans()):
            argv += ["--route", draw(st.sampled_from(["auto", "fourier", "sampled", "both"]))]
    if command == "evolve":
        argv += ["--t", draw(_FLOAT_FLAGS)]
        argv += ["--steps", draw(st.sampled_from(["1", "2", "0", "-1", "x"]))]
    for name in ("--theta1", "--theta2"):
        if draw(st.booleans()):
            argv += [name, draw(_FLOAT_FLAGS)]
    return argv, docs


@settings(max_examples=150, deadline=None)
@given(run=_cli_runs())
@example(run=(["dequantize", "{0}"], ["1" * 5000]))
@example(run=(["quantize", "{0}", "--N", "2"], ['[{"n1": %d, "n2": 0, "re": 1, "im": 0}]' % 10**400]))
@example(run=(["quantize", "{0}"], ['{"theta1": 0, "theta2": %d, "N": 1, "grid": []}' % 10**400]))
@example(run=(["quantize", "{0}", "--N", "1"], [OVERFLOW_TRIG]))
@example(run=(["wigner", "{0}", "--theta1", "-inf"], ["[[1, 0]]"]))
@example(run=(["quantize", "{0}", "--N", "2"], [_nested("[", 1000)]))
@example(run=(["evolve", "{0}", "{1}", "--t", "0"], [_nested('{"a":', 10**5), "[]"]))
@example(run=(["dequantize", "{0}"], [GOOD_TRIG.encode() + b"\xff\xfe"]))
@example(run=(["dequantize", "{0}"], ['{"N": %d, "entries": []}' % 10**3000]))
def test_fuzzed_inputs_end_in_a_documented_exit(run):
    argv, docs = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            path = Path(tmp) / f"doc{i}.json"
            path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(*paths) for arg in argv])
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert err.getvalue().startswith("error:")


# Fuzzing evolve's numeric flags on valid documents: a sparse trig Hamiltonian
# and a dense sampled one.
# --steps stays at most 40, so no example runs long.

_TIMES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324", "1e400", "0"]),
    st.floats(-1e3, 1e3).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_ANGLES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "0.0", "1e308", "5e-324", "2.0", "-1.0"]),
    st.floats(-3.0, 3.0).map(repr),
)


@st.composite
def _evolve_flags(draw):
    argv = ["--t=" + draw(_TIMES), "--steps=" + str(draw(st.integers(-3, 40)))]
    for name in ("--theta1", "--theta2"):
        if draw(st.booleans()):
            argv.append(f"{name}={draw(_ANGLES)}")
    return draw(st.sampled_from(["trig", "sampled"])), argv


@settings(max_examples=120, deadline=None)
@given(run=_evolve_flags())
@example(run=("trig", ["--t=nan", "--steps=40"]))
@example(run=("sampled", ["--t=1e308", "--steps=2"]))
@example(run=("trig", ["--t=-1e308", "--steps=40", "--theta1=2.0"]))
def test_fuzzed_evolve_flags_end_in_a_documented_exit(run):
    hamiltonian, flags = run
    rep = Representation(0.0, 0.0, 2)
    rng = np.random.default_rng(71)
    documents = {
        "trig": '[{"n1":1,"n2":0,"re":0.2,"im":0.0},{"n1":-1,"n2":0,"re":0.2,"im":0.0},'
                '{"n1":0,"n2":1,"re":0.1,"im":0.0},{"n1":0,"n2":-1,"re":0.1,"im":0.0}]',
        "sampled": serialize.sampled_to_json(SampledSymbol(rng.standard_normal((4, 4)), rep)),
    }
    with tempfile.TemporaryDirectory() as tmp:
        ham, start = Path(tmp) / "h.json", Path(tmp) / "start.json"
        ham.write_text(documents[hamiltonian])
        start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["evolve", str(ham), str(start), *flags])
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert err.getvalue().startswith("error:")
