import numpy as np
import pytest

from torusq import (
    DomainError,
    Representation,
    SampledSymbol,
    canonical_class,
    dequantize,
    equivalent,
    quantize_sampled,
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
