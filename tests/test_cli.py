import json
import subprocess
import sys

import numpy as np
import pytest

from torusq import Representation, dequantize, pauli_symbols, wigner_state
from torusq import cli, serialize

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "torusq.cli", *args],
        capture_output=True,
        text=True,
    )


def test_quantize_trig_polynomial(tmp_path):
    zsym = pauli_symbols(Representation(0.0, 0.0, 2))[3]
    src = tmp_path / "alpha_z.json"
    src.write_text(serialize.trig_to_json(zsym))
    proc = run_cli("quantize", str(src), "--N", "2")
    assert proc.returncode == 0
    built = serialize.operator_from_json(proc.stdout)
    assert np.max(np.abs(built - SZ)) < 1e-12


def test_quantize_sampled_symbol(tmp_path):
    rng = np.random.default_rng(61)
    rep = Representation(0.3, 0.7, 3)
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    src = tmp_path / "sym.json"
    src.write_text(serialize.sampled_to_json(dequantize(rep, matrix)))
    proc = run_cli("quantize", str(src))
    assert proc.returncode == 0
    assert np.max(np.abs(serialize.operator_from_json(proc.stdout) - matrix)) < 1e-10


def test_quantize_both_routes(tmp_path):
    zsym = pauli_symbols(Representation(0.0, 0.0, 2))[3]
    src = tmp_path / "alpha_z.json"
    src.write_text(serialize.trig_to_json(zsym))
    out = tmp_path / "op.json"
    proc = run_cli("quantize", str(src), "--N", "2", "--route", "both", "-o", str(out))
    assert proc.returncode == 0
    assert "route discrepancy:" in proc.stderr
    direct = serialize.operator_from_json(out.read_text())
    sampled = serialize.operator_from_json((tmp_path / "op.sampled.json").read_text())
    assert np.max(np.abs(direct - SZ)) < 1e-12
    assert np.max(np.abs(sampled - SZ)) < 1e-12


def test_quantize_trig_needs_dimension(tmp_path):
    src = tmp_path / "tp.json"
    src.write_text('[{"n1":0,"n2":0,"re":1.0,"im":0.0}]')
    proc = run_cli("quantize", str(src))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_quantize_flag_conflict(tmp_path):
    rep = Representation(0.25, 0.0, 2)
    src = tmp_path / "sym.json"
    src.write_text(serialize.sampled_to_json(dequantize(rep, np.eye(2))))
    assert run_cli("quantize", str(src), "--N", "3").returncode == 3
    assert run_cli("quantize", str(src), "--theta1", "0.5").returncode == 3
    # matching flags are accepted
    proc = run_cli("quantize", str(src), "--N", "2", "--theta1", "0.25", "--theta2", "0")
    assert proc.returncode == 0


def test_quantize_route_needs_trig_input(tmp_path):
    rep = Representation(0.0, 0.0, 2)
    src = tmp_path / "sym.json"
    src.write_text(serialize.sampled_to_json(dequantize(rep, np.eye(2))))
    assert run_cli("quantize", str(src), "--route", "fourier").returncode == 2


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


def test_dequantize_csv(tmp_path):
    src = tmp_path / "sx.json"
    src.write_text(serialize.operator_to_json(SX))
    proc = run_cli("dequantize", str(src), "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,p,re,im"
    assert len(lines) == 1 + 16


def test_quantize_dequantize_round_trip(tmp_path):
    rng = np.random.default_rng(62)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    src = tmp_path / "op.json"
    src.write_text(serialize.operator_to_json(matrix))
    mid = tmp_path / "sym.json"
    proc = run_cli("dequantize", str(src), "--theta1", "0.6", "--theta2", "0.2", "-o", str(mid))
    assert proc.returncode == 0
    proc = run_cli("quantize", str(mid))
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


def test_wigner_state_pair(tmp_path):
    rng = np.random.default_rng(63)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = tmp_path / "psi.json"
    b = tmp_path / "phi.json"
    a.write_text(serialize.state_to_json(psi))
    b.write_text(serialize.state_to_json(phi))
    proc = run_cli("wigner", str(a), str(b), "--theta1", "0.4", "--theta2", "0.9")
    assert proc.returncode == 0
    table = serialize.wigner_from_json(proc.stdout)
    oracle = wigner_state(Representation(0.4, 0.9, 3), psi, phi)
    assert np.array_equal(table.grid, oracle.grid)


def test_wigner_length_mismatch(tmp_path):
    a = tmp_path / "psi.json"
    b = tmp_path / "phi.json"
    a.write_text(serialize.state_to_json([1.0, 0.0]))
    b.write_text(serialize.state_to_json([1.0, 0.0, 0.0]))
    assert run_cli("wigner", str(a), str(b)).returncode == 3


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


def test_evolve_spin_flip(tmp_path):
    # cos(2 pi x) generates precession; half a period negates sigma_x
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0},{"n1":-1,"n2":0,"re":0.5,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    out = tmp_path / "out.json"
    proc = run_cli("evolve", str(ham), str(start), "--t", "0.125", "--steps", "300", "-o", str(out))
    assert proc.returncode == 0
    evolved = serialize.sampled_from_json(out.read_text())
    target = dequantize(rep, -SX).grid
    assert np.max(np.abs(evolved.grid - target)) < 1e-5


def test_evolve_rejects_complex_hamiltonian(tmp_path):
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":1,"n2":0,"re":0.5,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    assert run_cli("evolve", str(ham), str(start), "--t", "0.1").returncode == 4


def test_evolve_step_count_validated(tmp_path):
    rep = Representation(0.0, 0.0, 2)
    ham = tmp_path / "h.json"
    ham.write_text('[{"n1":0,"n2":0,"re":1.0,"im":0.0}]')
    start = tmp_path / "start.json"
    start.write_text(serialize.sampled_to_json(dequantize(rep, SX)))
    assert run_cli("evolve", str(ham), str(start), "--t", "1", "--steps", "0").returncode == 2


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


def test_malformed_json_is_exit_2(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text("{this is not json")
    assert run_cli("quantize", str(src)).returncode == 2
    assert run_cli("dequantize", str(src)).returncode == 2
    assert run_cli("wigner", str(src)).returncode == 2


def test_missing_file_is_exit_2(tmp_path):
    assert run_cli("quantize", str(tmp_path / "nope.json")).returncode == 2


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
