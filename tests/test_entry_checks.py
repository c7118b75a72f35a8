"""Every public function or constructor that takes an array refuses a bad one where it enters.

A non-finite entry raises DomainError naming the argument, with no numpy warning (the suite
turns warnings into errors); a wrong or empty shape raises DimensionError.
"""
import numpy as np
import pytest

from torusq import (
    KIND_OPERATOR,
    DimensionError,
    DomainError,
    HamiltonianSystem,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    WignerTable,
    canonical_class,
    dequantize,
    evolve_operator,
    evolve_symbol,
    fourier_wigner,
    operator_from_reduced,
    pairing,
    quantize_fourier,
    quantize_sampled,
    sample,
    symmetric_extension,
    wigner_operator,
    wigner_state,
)
from torusq.serialize import lattice_csv, operator_to_json, state_to_json

N = 3
REP = Representation(0.2, 0.7, N)
OP = np.arange(N * N, dtype=complex).reshape(N, N)
VEC = np.ones(N, dtype=complex)
GRID = np.ones((2 * N, 2 * N), dtype=complex)
SYM = SampledSymbol(GRID, REP)
SYSTEM = HamiltonianSystem(sample(TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5}), REP))

# entry -> (call on the one array under test, the argument's name in the messages, a good array)
ENTRIES = {
    "canonical_class": (lambda x: canonical_class(REP, x), "operator", OP),
    "dequantize": (lambda x: dequantize(REP, x), "operator", OP),
    "wigner_operator": (lambda x: wigner_operator(REP, x), "operator", OP),
    "evolve_operator": (lambda x: evolve_operator(SYSTEM, x, 0.1), "operator", OP),
    "operator_from_reduced": (operator_from_reduced, "reduced symbol", OP),
    "symmetric_extension": (symmetric_extension, "principal block", OP),
    "wigner_state-psi": (lambda x: wigner_state(REP, x, VEC), "psi", VEC),
    "wigner_state-phi": (lambda x: wigner_state(REP, VEC, x), "phi", VEC),
    "fourier_wigner-psi": (lambda x: fourier_wigner(REP, x, VEC, 1, 2), "psi", VEC),
    "fourier_wigner-phi": (lambda x: fourier_wigner(REP, VEC, x, 1, 2), "phi", VEC),
    "pairing-psi": (lambda x: pairing(SYM, x, VEC), "psi", VEC),
    "pairing-phi": (lambda x: pairing(SYM, VEC, x), "phi", VEC),
    "SampledSymbol": (lambda x: SampledSymbol(x, REP), "sampled symbol", GRID),
    "WignerTable": (lambda x: WignerTable(x, REP, KIND_OPERATOR), "Wigner table", GRID),
    "operator_to_json": (operator_to_json, "operator", OP),
    "state_to_json": (state_to_json, "state", VEC),
    "lattice_csv": (lambda x: lattice_csv(x, REP), "grid", GRID),
}

BAD_SHAPES = {
    "extra-axis": lambda g: g[..., None],
    "rows-dropped": lambda g: g[:0],
    "empty": lambda g: np.zeros((0,) * g.ndim),
    "scalar": lambda g: g.ravel()[0],
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_good_array_is_taken(entry):
    call, _, good = ENTRIES[entry]
    call(good.copy())


NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "nanj": complex(0.0, np.nan)}


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_non_finite_entry_is_refused_by_name(entry, value):
    call, name, good = ENTRIES[entry]
    bad = good.copy()
    bad.flat[-1] = value
    with pytest.raises(DomainError, match=f"^{name} entries must be finite$"):
        call(bad)


@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_wrong_or_empty_shape_is_refused(entry, shape):
    call, name, good = ENTRIES[entry]
    with pytest.raises(DimensionError, match=f"^{name} must have shape "):
        call(BAD_SHAPES[shape](good))


@pytest.mark.parametrize("entry", sorted(name for name, (_, _, good) in ENTRIES.items() if good.ndim == 2))
def test_a_matrix_with_a_row_too_few_is_refused(entry):
    call, name, good = ENTRIES[entry]
    expected = rf"^{name} must have shape .*, got shape \({len(good) - 1}, {len(good)}\)$"
    with pytest.raises(DimensionError, match=expected):
        call(good[1:])


def test_a_state_pair_whose_product_overflows_is_a_table_fault():
    psi = np.array([1e200, 1.0, 1.0])
    # The product overflows inside the kernel, so numpy's warnings are silenced as the CLI does.
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="^Wigner table entries must be finite$"):
        wigner_state(REP, psi, psi)


# A finite Hamiltonian whose spectrum and quantization overflow: row r is 1e308 cos(r).
BIG_HAMILTONIAN = HamiltonianSystem(SampledSymbol(1e308 * np.cos(np.arange(2 * N))[:, None] * GRID, REP))
# At N = 2 the flow of sigma_y is the rotation exp(4 i pi t sigma_y).
MIXING = HamiltonianSystem(dequantize(Representation(0, 0, 2), np.array([[0, -1j], [1j, 0]])))

# kernel -> (a call on finite inputs whose result overflows, the name of what overflowed)
OVERFLOWS = {
    "quantize_sampled": (lambda: quantize_sampled(SampledSymbol(1e308 * GRID, REP)), "quantized operator"),
    # T(2N, 0) is T(0, 0) at theta = 0, so the two coefficients add.
    "quantize_fourier": (
        lambda: quantize_fourier(TrigPolynomial({(0, 0): 1e308, (2 * N, 0): 1e308}), Representation(0, 0, N)),
        "quantized operator",
    ),
    "canonical_class": (lambda: canonical_class(REP, np.full((N, N), 1e308)), "canonical class"),
    # This flow turns the all-ones direction onto the first basis vector, doubling the norm there.
    "evolve_operator": (lambda: evolve_operator(MIXING, np.full((2, 2), 1e308), 1 / 16), "evolved operator"),
    "evolve_operator-hamiltonian": (lambda: evolve_operator(BIG_HAMILTONIAN, OP, 0.1), "quantized Hamiltonian"),
    "evolve_symbol-hamiltonian": (lambda: evolve_symbol(BIG_HAMILTONIAN, SYM, 0.1, 10), "Hamiltonian spectrum"),
}


@pytest.mark.parametrize("kernel", sorted(OVERFLOWS))
def test_a_result_that_overflows_is_refused_by_what_overflowed(kernel):
    call, name = OVERFLOWS[kernel]
    # The overflow happens inside the kernel, so numpy's warnings are silenced as the CLI does.
    with np.errstate(all="ignore"), pytest.raises(DomainError, match=f"^{name} entries must be finite$"):
        call()


@pytest.mark.parametrize("dim", [1, 2, 7, 257])
def test_operator_from_reduced_of_finite_entries_is_finite(dim):
    # Entry (m, l) is a sum of N terms of modulus |red| / 2N, so its real and imaginary parts stay
    # below half the largest modulus, under the float maximum; at N = 257 numpy's FFT takes
    # Bluestein's route.  So a finite reduced symbol needs no check on its result.
    k = np.arange(dim)
    coherent = np.exp(1j * np.pi * k[:, None] * k / dim) * np.finfo(float).max
    for red in (coherent, np.full((dim, dim), complex(np.finfo(float).max, np.finfo(float).max))):
        assert np.isfinite(operator_from_reduced(red)).all()
