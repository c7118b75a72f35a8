"""Peak memory of the lattice kernels, in units of one 2N x 2N complex grid.

The bounds of sample and wigner_state are their peaks when every grid was
copied on construction (3.0703 and 2.3904 with numpy 2.4), rounded to 3.07
and 2.39.  dequantize (3.07 then) and check_symmetries (2.0 then) must stay
at or below 2.2 and 1.0, since neither copies its grid nor builds a full
extension any more.  delta, operator_from_reduced and quantize_sampled, which
is the one after the other, peak at 1.1372, 0.6373 and 1.1372 (numpy 2.4),
rounded up to 1.14, 0.64 and 1.14.
"""
import tracemalloc

import numpy as np
import pytest

from torusq import (
    Representation,
    SampledSymbol,
    TrigPolynomial,
    check_symmetries,
    delta,
    dequantize,
    operator_from_reduced,
    quantize_sampled,
    sample,
    wigner_state,
)

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

CALLS = {
    "sample": (lambda: sample(TP, REP), 3.07),
    "wigner_state": (lambda: wigner_state(REP, PSI, PHI), 2.39),
    "quantize_sampled": (lambda: quantize_sampled(SYM), 1.14),
    "delta": (lambda: delta(SYM), 1.14),
    "operator_from_reduced": (lambda: operator_from_reduced(RED), 0.64),
    "dequantize": (lambda: dequantize(REP, OP), 2.2),
    "check_symmetries": (lambda: check_symmetries(TABLE), 1.0),
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
