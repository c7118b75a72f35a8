import numpy as np
import pytest

from torusq import (
    DimensionError,
    DomainError,
    Representation,
    SampledSymbol,
    big_pauli,
    big_pauli_symbol,
    canonical_class,
    delta,
    dequantize,
    equivalent,
    pauli,
    pauli_symbols,
    quantize_fourier,
    quantize_sampled,
    sample,
    wigner_operator,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_identity_symbol_spin_half():
    rep = Representation(0.7, 0.3, 2)
    grid = dequantize(rep, np.eye(2)).grid
    expected = np.array(
        [[1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]], dtype=float
    )
    assert np.max(np.abs(grid - expected)) < 1e-14


def test_round_trip():
    rng = np.random.default_rng(41)
    for dim in (1, 2, 3, 5):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert np.max(np.abs(quantize_sampled(dequantize(rep, a)) - a)) < 1e-12


def test_dequantize_then_quantize_preserves_class():
    rng = np.random.default_rng(42)
    rep = Representation(0.15, 0.85, 3)
    sym = SampledSymbol(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), rep)
    again = dequantize(rep, quantize_sampled(sym))
    assert equivalent(sym, again)


def test_canonical_class_is_scaled_principal_block():
    rng = np.random.default_rng(43)
    for dim in (1, 2, 4):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        cls = canonical_class(rep, a)
        block = wigner_operator(rep, a).grid[:dim, :dim]
        assert np.max(np.abs(cls - 4 * dim * block)) < 1e-12


def test_canonical_class_of_pauli_symbols():
    rep = Representation(0.37, 0.81, 2)
    assert np.max(np.abs(canonical_class(rep, np.eye(2)) - np.array([[4, 0], [0, 0]]))) < 1e-13
    # sigma_z concentrates on the (0, 1) slot of the principal block
    assert np.max(np.abs(canonical_class(rep, SZ) - np.array([[0, 4], [0, 0]]))) < 1e-13
    assert np.max(np.abs(canonical_class(rep, SX) - np.array([[0, 0], [4, 0]]))) < 1e-13
    assert np.max(np.abs(canonical_class(rep, SY) - np.array([[0, 0], [0, 4]]))) < 1e-13


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("kernel", [dequantize, canonical_class])
def test_non_finite_operator_is_refused(kernel, value):
    op = np.eye(3, dtype=complex)
    op[1, 2] = value
    with pytest.raises(DomainError, match="operator entries must be finite"):
        kernel(Representation(0.2, 0.6, 3), op)


def test_pauli_returns_standard_matrices():
    rep = Representation(0.9, 0.4, 2)
    identity, sigma_x, sigma_y, sigma_z = pauli(rep)
    assert np.array_equal(identity, np.eye(2))
    assert np.array_equal(sigma_x, SX)
    assert np.array_equal(sigma_y, SY)
    assert np.array_equal(sigma_z, SZ)
    with pytest.raises(DimensionError):
        pauli(Representation(0.0, 0.0, 3))


def test_pauli_symbols_quantize_to_paulis():
    for theta in [(0.0, 0.0), (0.37, 0.81), (0.5, 0.25)]:
        rep = Representation(theta[0], theta[1], 2)
        targets = (np.eye(2), SX, SY, SZ)
        for tp, target in zip(pauli_symbols(rep), targets):
            assert np.max(np.abs(quantize_fourier(tp, rep) - target)) < 1e-13
    with pytest.raises(DimensionError):
        pauli_symbols(Representation(0.0, 0.0, 1))


def test_big_pauli_spin_half_dictionary():
    rep = Representation(0.123, 0.456, 2)
    assert np.max(np.abs(big_pauli(rep, 0, 0) - np.eye(2))) == 0.0
    assert np.max(np.abs(big_pauli(rep, 0, 1) - SZ)) == 0.0
    assert np.max(np.abs(big_pauli(rep, 1, 0) - SX)) == 0.0
    # the sigma_y entries carry cos(pi/2), which is 6e-17 rather than 0
    assert np.max(np.abs(big_pauli(rep, 1, 1) - SY)) < 1e-15


@pytest.mark.parametrize("index", [1.5, 1.0, np.float64(2), True, False, None])
def test_big_pauli_indices_must_be_integers(index):
    rep = Representation(0.0, 0.0, 3)
    for r, s in ((index, 0), (0, index)):
        with pytest.raises(DomainError, match="indices must be integers"):
            big_pauli(rep, r, s)
        with pytest.raises(DomainError, match="indices must be integers"):
            big_pauli_symbol(rep, r, s)


def test_big_pauli_takes_numpy_integer_indices():
    rep = Representation(0.3, 0.6, 3)
    assert np.array_equal(big_pauli(rep, np.int64(4), np.uint8(5)), big_pauli(rep, 4, 5))


def test_big_pauli_range_checked():
    rep = Representation(0.0, 0.0, 3)
    # DimensionError is a ValueError, so callers catching ValueError still work
    assert issubclass(DimensionError, ValueError)
    with pytest.raises(DimensionError):
        big_pauli(rep, 6, 0)
    with pytest.raises(DimensionError):
        big_pauli(rep, 0, -1)
    with pytest.raises(DimensionError):
        big_pauli_symbol(rep, 0, 6)


@pytest.mark.parametrize("dim", range(1, 8))
def test_big_pauli_shift_signs_are_exact(dim):
    rep = Representation(0.6, 0.1, dim)
    n = rep.dim
    for r in range(n):
        for s in range(n):
            b = big_pauli(rep, r, s)
            assert np.array_equal(big_pauli(rep, r + n, s), (-1.0) ** s * b)
            assert np.array_equal(big_pauli(rep, r, s + n), (-1.0) ** r * b)
            assert np.array_equal(big_pauli(rep, r + n, s + n), (-1.0) ** (r + s + n) * b)


def test_big_pauli_symbol_samples_to_indicator():
    for dim in (1, 2, 3):
        rep = Representation(0.27, 0.64, dim)
        side = 2 * dim
        for r, s in [(0, 0), (1, 0), (side - 1, side - 1)]:
            grid = sample(big_pauli_symbol(rep, r, s), rep).grid
            expected = np.zeros((side, side), dtype=complex)
            expected[r, s] = side
            assert np.max(np.abs(grid - expected)) < 1e-11


def test_big_pauli_symbol_quantizes_to_matrix():
    rep = Representation(0.42, 0.58, 2)
    for r in range(4):
        for s in range(4):
            built = quantize_fourier(big_pauli_symbol(rep, r, s), rep)
            assert np.max(np.abs(built - big_pauli(rep, r, s))) < 1e-13


def test_big_pauli_reduced_duality():
    # the fold of the symbol's sampling is the 2N-scaled unit matrix
    for dim in (2, 3):
        rep = Representation(0.11, 0.93, dim)
        for r in range(dim):
            for s in range(dim):
                red = delta(sample(big_pauli_symbol(rep, r, s), rep))
                expected = np.zeros((dim, dim), dtype=complex)
                expected[r, s] = 2 * dim
                assert np.max(np.abs(red - expected)) < 1e-11
