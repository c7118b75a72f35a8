"""Peak memory of the lattice kernels, in units of one 2N x 2N complex grid.

Each bound is the kernel's measured peak with numpy 2.4, rounded up: sample
1.3438 to 1.35; delta, operator_from_reduced and quantize_sampled, which is
the one after the other, 1.1372, 0.6344 and 1.1383 to 1.14, 0.64 and 1.14;
canonical_class, the inverse of operator_from_reduced, 0.6355 to 0.64, since
it builds no 2N x 2N grid; moyal_product and moyal_bracket, whose block
maps run their FFTs in place, 4.7665 to 4.77; evolve_symbol 6.5208 to 6.53.
wigner_state stays at or below 2.39, the peak of a table whose grid is
copied on construction.  dequantize and check_symmetries stay at or below
2.2 and 1.0, since neither copies its grid nor builds a full extension.
The document path: sampled_from_json of a parsed document, which fills the
grid it hands over from the flat list of its numbers, 2.0629 to 2.07, and
sampled_to_json, which formats the grid's own float view in chunks of entries,
at most the 7.55 its whole-array template took (5.3098 measured).  A dequantized
symbol and a Wigner table, whose ghost blocks carry their principal block's
magnitudes, are written from that block's magnitudes, chunk by chunk: sampled_to_json
of one 5.4338 to 5.44, wigner_to_json of the other 5.8414 to 5.85.
"""
import json
import sys
import tracemalloc

import numpy as np
import pytest

from torusq import (
    HamiltonianSystem,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    canonical_class,
    check_symmetries,
    delta,
    dequantize,
    evolve_symbol,
    moyal_bracket,
    moyal_product,
    operator_from_reduced,
    quantize_sampled,
    sample,
    serialize,
    wigner_state,
)
from torusq.cli import _read

N = 64
GRID_BYTES = (2 * N) ** 2 * np.dtype(complex).itemsize

_rng = np.random.default_rng(64)
REP = Representation(0.3, 0.7, N)
TP = TrigPolynomial({(int(a), int(b)): 1.0 + 0.5j for a, b in _rng.integers(-3 * N, 3 * N, (16, 2))})
OP = _rng.standard_normal((N, N)) + 1j * _rng.standard_normal((N, N))
PSI, PHI = OP[0].copy(), OP[1].copy()
SYM = SampledSymbol(_rng.standard_normal((2 * N, 2 * N)) + 1j * _rng.standard_normal((2 * N, 2 * N)), REP)
TABLE = wigner_state(REP, PSI, PHI)
RED = delta(SYM)
OTHER = SampledSymbol(_rng.standard_normal((2 * N, 2 * N)) + 1j * _rng.standard_normal((2 * N, 2 * N)), REP)
DOC = json.loads(serialize.sampled_to_json(SYM))
DEQ = dequantize(REP, OP)
SYSTEM = HamiltonianSystem(sample(TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}), REP))

CALLS = {
    "sample": (lambda: sample(TP, REP), 1.35),
    "wigner_state": (lambda: wigner_state(REP, PSI, PHI), 2.39),
    "quantize_sampled": (lambda: quantize_sampled(SYM), 1.14),
    "delta": (lambda: delta(SYM), 1.14),
    "operator_from_reduced": (lambda: operator_from_reduced(RED), 0.64),
    "dequantize": (lambda: dequantize(REP, OP), 2.2),
    "canonical_class": (lambda: canonical_class(REP, OP), 0.64),
    "check_symmetries": (lambda: check_symmetries(TABLE), 1.0),
    "moyal_product": (lambda: moyal_product(SYM, OTHER), 4.77),
    "moyal_bracket": (lambda: moyal_bracket(SYM, OTHER), 4.77),
    "evolve_symbol": (lambda: evolve_symbol(SYSTEM, SYM, 0.01, 10), 6.53),
    "sampled_from_json": (lambda: serialize.sampled_from_json(DOC), 2.07),
    "sampled_to_json": (lambda: serialize.sampled_to_json(SYM), 7.55),
    "sampled_to_json-dequantized": (lambda: serialize.sampled_to_json(DEQ), 5.44),
    "wigner_to_json": (lambda: serialize.wigner_to_json(TABLE), 5.85),
}


def _peak_grids(call) -> float:
    call()  # first-call set-up, such as FFT plans, is not the kernel's cost
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / GRID_BYTES


@pytest.mark.parametrize("name", sorted(CALLS))
def test_peak_memory_in_grids(name):
    call, bound = CALLS[name]
    assert _peak_grids(call) <= bound


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Python 3.10 keeps a call's arguments alive until it returns")
def test_reading_a_document_file_frees_its_bytes_before_the_parse(tmp_path):
    # cli._read hands the file's bytes over to serialize.loads, which drops them once decoded, so
    # reading costs the parse of the text plus the text: measured 2.6450 grids over the parse's
    # 9.0038 here, against 5.2900 over it when the bytes live through the parse.
    text = serialize.sampled_to_json(SYM)
    path = tmp_path / "sym.json"
    path.write_bytes(text.encode())
    extra = _peak_grids(lambda: _read(str(path))) - _peak_grids(lambda: serialize.loads(text))
    assert extra <= 1.1 * len(text) / GRID_BYTES
