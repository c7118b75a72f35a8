"""Every public function or constructor that takes an array refuses a bad one where it enters.

A non-finite entry raises DomainError naming the argument, with no numpy warning (the suite
turns warnings into errors); a wrong or empty shape raises DimensionError.  A finite input whose
result overflows, and an integer too long for str, end in the package's own errors too.
"""
import numpy as np
import pytest

import torusq
from torusq import (
    KIND_OPERATOR,
    DimensionError,
    DomainError,
    HamiltonianSystem,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    WignerTable,
    big_pauli,
    canonical_class,
    check_representation_laws,
    check_symmetries,
    delta,
    dequantize,
    equivalent,
    evaluate,
    evolve_operator,
    evolve_symbol,
    fourier_wigner,
    heisenberg,
    kernel_element,
    marginal_p,
    marginal_x,
    moyal_bracket,
    moyal_product,
    operator_from_reduced,
    pairing,
    poisson_bracket,
    quantize_fourier,
    quantize_sampled,
    sample,
    semiclassical_residual,
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


EXTENDED_LONGDOUBLE = np.finfo(np.longdouble).max > np.finfo(float).max


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_an_entry_past_the_double_range_is_refused_by_name(entry):
    # A Python integer past the float range fails its conversion, and a longdouble past the
    # double range casts to inf; each is refused as non-finite, with no numpy warning.
    call, name, good = ENTRIES[entry]
    listed = good.tolist()
    (listed[-1] if good.ndim == 2 else listed)[-1] = 10**400
    with pytest.raises(DomainError, match=f"^{name} entries must be finite$"):
        call(listed)
    if EXTENDED_LONGDOUBLE:  # where longdouble is double, no longdouble lies past the range
        wide = good.astype(np.clongdouble)
        wide.flat[-1] = np.longdouble(np.finfo(float).max) * 2
        with pytest.raises(DomainError, match=f"^{name} entries must be finite$"):
            call(wide)


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
    # The product overflows inside the kernel, which refuses it with no numpy warning.
    with pytest.raises(DomainError, match="^Wigner table entries must be finite$"):
        wigner_state(REP, psi, psi)


# A finite Hamiltonian whose spectrum and quantization overflow: row r is 1e308 cos(r).
BIG_HAMILTONIAN = HamiltonianSystem(SampledSymbol(1e308 * np.cos(np.arange(2 * N))[:, None] * GRID, REP))
# At N = 2 the flow of sigma_y is the rotation exp(4 i pi t sigma_y).
MIXING = HamiltonianSystem(dequantize(Representation(0, 0, 2), np.array([[0, -1j], [1j, 0]])))
# Finite grids whose Moyal products, and whose sums and scalings, overflow.
HUGE = SampledSymbol(1e200 * GRID, REP)
MAXED = SampledSymbol(1e308 * GRID, REP)
# A finite table whose row and column sums overflow, and whose ghosts are far from the S1 to S3 copies.
MAXED_TABLE = WignerTable(1e308 * GRID, REP, KIND_OPERATOR)

# kernel -> (a call on finite inputs whose result overflows, the name of what overflowed)
OVERFLOWS = {
    "quantize_sampled": (lambda: quantize_sampled(SampledSymbol(1e308 * GRID, REP)), "quantized operator"),
    # T(2N, 0) is T(0, 0) at theta = 0, so the two coefficients add.
    "quantize_fourier": (
        lambda: quantize_fourier(TrigPolynomial({(0, 0): 1e308, (2 * N, 0): 1e308}), Representation(0, 0, N)),
        "quantized operator",
    ),
    "canonical_class": (lambda: canonical_class(REP, np.full((N, N), 1e308)), "canonical class"),
    "dequantize": (lambda: dequantize(REP, np.full((N, N), 1e308)), "sampled symbol"),
    "wigner_operator": (lambda: wigner_operator(REP, np.full((N, N), 1e308)), "Wigner table"),
    # This flow turns the all-ones direction onto the first basis vector, doubling the norm there.
    "evolve_operator": (lambda: evolve_operator(MIXING, np.full((2, 2), 1e308), 1 / 16), "evolved operator"),
    "evolve_operator-hamiltonian": (lambda: evolve_operator(BIG_HAMILTONIAN, OP, 0.1), "quantized Hamiltonian"),
    "evolve_symbol-hamiltonian": (lambda: evolve_symbol(BIG_HAMILTONIAN, SYM, 0.1, 10), "Hamiltonian spectrum"),
    "moyal_product": (lambda: moyal_product(HUGE, HUGE), "sampled symbol"),
    "moyal_bracket": (lambda: moyal_bracket(HUGE, HUGE), "sampled symbol"),
    "SampledSymbol-add": (lambda: MAXED + MAXED, "sampled symbol"),
    "SampledSymbol-sub": (lambda: MAXED - (-1.0) * MAXED, "sampled symbol"),
    "SampledSymbol-mul": (lambda: MAXED * 10.0, "sampled symbol"),
    # At N = 3 the fold of the all-ones grid is 2 at (0, 0).
    "delta": (lambda: delta(MAXED), "reduced symbol"),
    "equivalent": (lambda: equivalent(MAXED, MAXED), "reduced symbol"),
    "check_symmetries": (lambda: check_symmetries(MAXED_TABLE), "symmetry deviation"),
    "marginal_x": (lambda: marginal_x(MAXED_TABLE), "x marginal"),
    "marginal_p": (lambda: marginal_p(MAXED_TABLE), "p marginal"),
    # Three terms in one spectrum column, which its inverse FFT adds past the float range at x = 0.
    "sample": (
        lambda: sample(TrigPolynomial({(0, 0): 1e308, (1, 0): 1e308, (2, 0): 1e308}), Representation(0, 0, N)),
        "sampled symbol",
    ),
    "pairing": (lambda: pairing(SampledSymbol(1.7e308 * GRID, Representation(0, 0, N)), VEC, VEC), "pairing"),
    "fourier_wigner": (lambda: fourier_wigner(REP, 1e200 * VEC, 1e200 * VEC, 1, 0), "matrix coefficient"),
    # The bracket is finite, and 2 pi N / i times it overflows.
    "semiclassical_residual": (
        lambda: semiclassical_residual(
            TrigPolynomial({(1, 0): 3e153}), TrigPolynomial({(0, 1): 3e153}), Representation(0, 0, 4)
        ),
        "sampled symbol",
    ),
    # The Poisson bracket's one coefficient, about 1.6e308, is finite, and its sampling overflows.
    "semiclassical_residual-poisson": (
        lambda: semiclassical_residual(
            TrigPolynomial({(1, 0): 2e153}), TrigPolynomial({(0, 1): 2e153}), Representation(0, 0, 4)
        ),
        "sampled symbol",
    ),
    "evaluate": (lambda: evaluate(TrigPolynomial({(0, 0): 1e308, (1, 0): 1e308}), 0.0, 0.0), "symbol value"),
    # The phase pi n1 n2 / N overflows.
    "heisenberg": (lambda: heisenberg(REP, 10**300, 10**300), "group element"),
    # The cocycle's label product 2**1200 is past the float range.
    "check_representation_laws": (
        lambda: check_representation_laws(REP, [(2**600, 1, 1, 2**600)]),
        "representation law deviation",
    ),
}

# Each public callable without an OVERFLOWS case (keyed by its name, then "-" and the case), and
# why no finite input makes it overflow unrefused.
NO_OVERFLOW = {
    "DimensionError": "an exception class",
    "DomainError": "an exception class",
    "FormatError": "an exception class",
    "Representation": "it reduces each theta mod 1 or refuses it, and takes dim only as an integer it can size",
    "generator_t1": "heisenberg(rep, 1, 0), whose entries are zeros and phases",
    "generator_t2": "heisenberg(rep, 0, 1), whose entries are zeros and phases",
    "TrigPolynomial": "it refuses a coefficient that is not finite, so its sums and products too",
    "poisson_bracket": "TrigPolynomial refuses a coefficient that overflows; FLOAT_RANGE pins its wedge",
    "kernel_element": "it takes only an integer seed, and its entries are sums of three normal draws",
    "adjoint_symbol": "the conjugate of a finite grid is finite",
    "operator_from_reduced": "each entry is at most half its input's largest modulus",
    "symmetric_extension": "each entry is plus or minus an entry of the finite block",
    "pauli": "its entries are 0, 1, i and their negatives",
    "pauli_symbols": "its coefficients are phases",
    "big_pauli": "it takes only integer indices below 2N, and its entries are zeros and phases",
    "big_pauli_symbol": "it takes only integer indices below 2N, and its coefficients are phases over 2N",
    "WignerTable": "it stores a grid, refused unless finite as ENTRIES pins",
    "wigner_state": "test_a_state_pair_whose_product_overflows_is_a_table_fault pins it",
    "HamiltonianSystem": "its operator is the evolve_operator-hamiltonian case; an overflowing modulus is not real",
}


def test_every_public_callable_has_an_overflow_case_or_a_reason():
    cased = {key.split("-")[0] for key in OVERFLOWS}
    public = {name for name in torusq.__all__ if callable(getattr(torusq, name))}
    assert not cased & set(NO_OVERFLOW)
    assert cased | set(NO_OVERFLOW) == public


@pytest.mark.parametrize("kernel", sorted(OVERFLOWS))
def test_a_result_that_overflows_is_refused_by_what_overflowed(kernel):
    # No kernel lets numpy warn first: the suite turns that warning into an error.
    call, name = OVERFLOWS[kernel]
    with pytest.raises(DomainError, match=f"^{name} entries must be finite$"):
        call()


# Two symbols whose frequencies have the wedge 2**1200.
WIDE_PAIR = (TrigPolynomial({(2**600, 0): 1.0}), TrigPolynomial({(0, 2**600): 1.0}))
# Integers within Python's str but past the float range, where a float would take them.
FLOAT_RANGE = {
    "heisenberg": lambda: heisenberg(REP, 2**1024, 1),
    "poisson_bracket": lambda: poisson_bracket(*WIDE_PAIR),
    "semiclassical_residual": lambda: semiclassical_residual(*WIDE_PAIR, REP),
}


@pytest.mark.parametrize("case", sorted(FLOAT_RANGE))
def test_a_label_or_wedge_past_the_float_range_is_refused(case):
    with pytest.raises(DomainError, match="float range"):
        FLOAT_RANGE[case]()


def test_equivalent_refuses_a_grid_magnitude_that_overflows():
    wide = SampledSymbol(1.5e308 * (1 + 1j) * GRID, REP)
    with pytest.raises(DomainError, match="^sampled symbol magnitudes must be finite$"):
        equivalent(wide, wide)


def test_folds_that_differ_by_an_overflow_are_not_equivalent():
    block = np.zeros((2 * N, 2 * N))
    block[:N, :N] = 1.5e308  # the fold of a grid that is zero off its principal block
    assert not equivalent(SampledSymbol(block, REP), SampledSymbol(-block, REP))


# Integers past the 4300 digits that Python's str takes, where a scalar enters: each refusal is
# the package's error, and it shows the integer by its bit length.
TOO_LONG = 10**5000
HUGE_INTEGERS = {
    "Representation-theta": (lambda: Representation(TOO_LONG, 0, 2), DomainError),
    "Representation-dim": (lambda: Representation(0, 0, -TOO_LONG), DimensionError),
    "evolve_symbol-t": (lambda: evolve_symbol(SYSTEM, SYM, TOO_LONG, 3), DomainError),
    "evolve_symbol-steps": (lambda: evolve_symbol(SYSTEM, SYM, 0.1, -TOO_LONG), DomainError),
    "evolve_operator-t": (lambda: evolve_operator(SYSTEM, OP, TOO_LONG), DomainError),
    "big_pauli": (lambda: big_pauli(REP, TOO_LONG, 0), DimensionError),
    "TrigPolynomial": (lambda: TrigPolynomial({(TOO_LONG, 1.5): 1.0}), DomainError),
    "heisenberg": (lambda: heisenberg(REP, TOO_LONG, 0.5), DomainError),
    "kernel_element": (lambda: kernel_element(REP, -TOO_LONG), DomainError),
}


@pytest.mark.parametrize("case", sorted(HUGE_INTEGERS))
def test_an_integer_too_long_for_str_is_refused_by_the_package(case):
    call, error = HUGE_INTEGERS[case]
    with pytest.raises(error) as refused:
        call()
    message = str(refused.value)
    assert f"an integer of {TOO_LONG.bit_length()} bits" in message and len(message) < 200, message


@pytest.mark.parametrize("dim", [1, 2, 7, 257])
def test_operator_from_reduced_of_finite_entries_is_finite(dim):
    # Entry (m, l) is a sum of N terms of modulus |red| / 2N, so its real and imaginary parts stay
    # below half the largest modulus, under the float maximum; at N = 257 numpy's FFT takes
    # Bluestein's route.  So a finite reduced symbol needs no check on its result.
    k = np.arange(dim)
    coherent = np.exp(1j * np.pi * k[:, None] * k / dim) * np.finfo(float).max
    for red in (coherent, np.full((dim, dim), complex(np.finfo(float).max, np.finfo(float).max))):
        assert np.isfinite(operator_from_reduced(red)).all()
