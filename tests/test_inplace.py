"""The kernels run their FFTs in place on buffers they own.

No input array may change, not even the cached block permutation, and each
returned grid must be a read-only array that owns its data.  The inputs are
writable complex128 arrays wherever the kernel accepts one, since a kernel
may then be handed the caller's own array: operator_from_reduced gets the
caller's reduced symbol itself.
"""
import numpy as np
import pytest

from torusq import (
    HamiltonianSystem,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    canonical_class,
    delta,
    dequantize,
    evolve_symbol,
    moyal_bracket,
    moyal_product,
    operator_from_reduced,
    sample,
    wigner_operator,
    wigner_state,
)
from torusq.moyal import _block_picks

ENERGY = TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.3, (0, -1): 0.3, (1, 1): 0.2, (-1, -1): 0.2})
TP = TrigPolynomial({(1, 2): 1.0 + 0.5j, (-3, 1): 0.25, (0, 0): -2.0})

CALLS = {
    "moyal_product": lambda d: moyal_product(d["a"], d["b"]),
    "moyal_bracket": lambda d: moyal_bracket(d["a"], d["b"]),
    "evolve_symbol": lambda d: evolve_symbol(d["system"], d["a"], 0.01, 10),
    "sample": lambda d: sample(TP, d["rep"]),
    "wigner_state": lambda d: wigner_state(d["rep"], d["psi"], d["phi"]),
    "wigner_operator": lambda d: wigner_operator(d["rep"], d["op"]),
    "dequantize": lambda d: dequantize(d["rep"], d["op"]),
    "canonical_class": lambda d: canonical_class(d["rep"], d["op"]),
    "operator_from_reduced": lambda d: operator_from_reduced(d["red"]),
}


def _inputs(dim: int) -> dict:
    rng = np.random.default_rng(700 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    side = 2 * dim
    a, b = (SampledSymbol(rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)), rep)
            for _ in range(2))
    op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return {
        "rep": rep,
        "a": a,
        "b": b,
        "system": HamiltonianSystem(sample(ENERGY, rep)),
        "op": op,
        "psi": op[0].copy(),
        "phi": op[-1].copy(),
        "red": np.array(delta(b)),
    }


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("dim", [1, 4, 7, 64])
def test_inputs_stay_unchanged_and_grids_are_owned(name, dim):
    inputs = _inputs(dim)
    arrays = [inputs["a"].grid, inputs["b"].grid, inputs["system"].hamiltonian.grid, _block_picks(dim)]
    arrays += [inputs[key] for key in ("op", "psi", "phi", "red")]
    assert all(x.flags.writeable for x in arrays[4:])
    before = [x.tobytes() for x in arrays]
    out = CALLS[name](inputs)
    assert [x.tobytes() for x in arrays] == before
    if name in ("operator_from_reduced", "canonical_class"):
        assert not any(np.shares_memory(out, x) for x in arrays)
    else:
        assert out.grid.flags.owndata and not out.grid.flags.writeable
