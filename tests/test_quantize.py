import cmath

import numpy as np
import pytest

from torusq import (
    DimensionError,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    adjoint_symbol,
    big_pauli,
    canonical_class,
    delta,
    heisenberg,
    kernel_element,
    operator_from_reduced,
    quantize_fourier,
    quantize_sampled,
    sample,
)
from torusq.selftest import _row_fft_reading


def test_constant_symbol_gives_identity():
    for dim in (1, 2, 4):
        rep = Representation(0.3, 0.6, dim)
        assert np.allclose(quantize_fourier(TrigPolynomial({(0, 0): 1.0}), rep), np.eye(dim))
        grid = SampledSymbol(np.full((2 * dim, 2 * dim), 2.5), rep)
        assert np.max(np.abs(quantize_sampled(grid) - 2.5 * np.eye(dim))) < 1e-13


def test_plane_wave_quantizes_to_group_element():
    rep = Representation(0.17, 0.93, 4)
    for n1, n2 in [(1, 0), (0, 1), (3, -2), (-5, 9)]:
        tp = TrigPolynomial({(n1, n2): 1.0})
        assert np.array_equal(quantize_fourier(tp, rep), heisenberg(rep, n1, n2))
        via = quantize_sampled(sample(tp, rep))
        assert np.max(np.abs(via - heisenberg(rep, n1, n2))) < 1e-12


def test_routes_agree_on_random_polynomials():
    rng = np.random.default_rng(31)
    for dim in (1, 2, 3, 5):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        for _ in range(5):
            coeffs = {}
            for _ in range(8):
                key = (int(rng.integers(-3 * dim, 3 * dim + 1)), int(rng.integers(-3 * dim, 3 * dim + 1)))
                coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
            tp = TrigPolynomial(coeffs)
            gap = np.max(np.abs(quantize_fourier(tp, rep) - quantize_sampled(sample(tp, rep))))
            assert gap < 1e-10


def test_real_grid_quantizes_to_hermitian():
    rng = np.random.default_rng(12)
    rep = Representation(0.44, 0.15, 3)
    sym = SampledSymbol(rng.standard_normal((6, 6)), rep)
    op = quantize_sampled(sym)
    assert np.max(np.abs(op - op.conj().T)) < 1e-13


def test_adjoint_symbol_matches_operator_adjoint():
    rng = np.random.default_rng(13)
    rep = Representation(0.05, 0.66, 4)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sym = SampledSymbol(g, rep)
    assert np.max(np.abs(quantize_sampled(adjoint_symbol(sym)) - quantize_sampled(sym).conj().T)) < 1e-13


def test_reduced_inversion_composes_to_quantization():
    rng = np.random.default_rng(14)
    for dim in (1, 2, 3, 4, 5):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        for _ in range(6):
            g = rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim))
            sym = SampledSymbol(g, rep)
            rebuilt = operator_from_reduced(delta(sym))
            assert np.max(np.abs(rebuilt - _row_fft_reading(g))) < 1e-12


@pytest.mark.parametrize("dim", [7, 16, 64, 128])
def test_sampled_route_matches_the_row_fft_reading(dim):
    rng = np.random.default_rng(60 + dim)
    side = 2 * dim
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    expected = _row_fft_reading(g)
    built = quantize_sampled(SampledSymbol(g, Representation(rng.uniform(), rng.uniform(), dim)))
    assert np.max(np.abs(built - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 13, 64])
def test_sampled_route_is_the_inversion_of_the_fold(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(3):
        g = rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim))
        sym = SampledSymbol(g, Representation(rng.uniform(), rng.uniform(), dim))
        assert np.array_equal(quantize_sampled(sym), operator_from_reduced(delta(sym)))


@pytest.mark.parametrize("dim", range(1, 9))
def test_kernel_elements_quantize_to_exactly_zero(dim):
    rep = Representation(0.29, 0.61, dim)
    for seed in (1, 2, 7, 2024):
        op = quantize_sampled(kernel_element(rep, seed))
        assert np.array_equal(op, np.zeros((dim, dim), dtype=complex))


@pytest.mark.parametrize("dim", range(1, 7))
def test_sampled_route_matches_literal_f2_formula(dim):
    # (1 / 2N) [F2 a(j + n, j - n) + F2 a(j + n + N, j - n + N)] at row n, column j,
    # with F2 a(m, r) = sum_l a(m, l) exp(-2 i pi r l / 2N)
    rng = np.random.default_rng(70 + dim)
    side = 2 * dim
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))

    def f2(m, r):
        m, r = m % side, r % side
        return sum(g[m, l] * cmath.exp(-2j * cmath.pi * r * l / side) for l in range(side))

    expected = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        for j in range(dim):
            expected[n, j] = (f2(j + n, j - n) + f2(j + n + dim, j - n + dim)) / side
    built = quantize_sampled(SampledSymbol(g, Representation(rng.uniform(), rng.uniform(), dim)))
    assert np.max(np.abs(built - expected)) < 1e-13


@pytest.mark.parametrize("dim", range(1, 7))
def test_reduced_inversion_matches_literal_wrap_sign_sum(dim):
    # (1 / 2N) sum_s red[(m+l) % N, s] (-1)^(s w) exp(i pi s (m-l) / N), w = [m + l >= N]
    rng = np.random.default_rng(80 + dim)
    red = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    expected = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        for l in range(dim):
            w = 1 if m + l >= dim else 0
            total = 0j
            for s in range(dim):
                total += red[(m + l) % dim, s] * (-1) ** (s * w) * cmath.exp(1j * cmath.pi * s * (m - l) / dim)
            expected[m, l] = total / (2 * dim)
    assert np.max(np.abs(operator_from_reduced(red) - expected)) < 1e-13


def test_reduced_unit_matrices_give_pauli_basis():
    # 2N-scaled reduced indicator at (r, s) rebuilds the generalized Pauli matrix
    for dim in (1, 2, 3, 4):
        rep = Representation(0.37, 0.81, dim)
        for r in range(dim):
            for s in range(dim):
                red = np.zeros((dim, dim), dtype=complex)
                red[r, s] = 2 * dim
                assert np.max(np.abs(operator_from_reduced(red) - big_pauli(rep, r, s))) < 1e-13


def test_reduced_constant_scalar_case():
    red = delta(SampledSymbol(np.ones((2, 2)), Representation(0.0, 0.0, 1)))
    assert np.array_equal(red, np.array([[2.0 + 0j]]))
    assert np.array_equal(operator_from_reduced(red), np.array([[1.0 + 0j]]))


def test_reduced_requires_square_input():
    with pytest.raises(DimensionError):
        operator_from_reduced(np.zeros((2, 3)))
    with pytest.raises(DimensionError, match=r"must have shape \(n, n\) with n >= 1, got shape \(0, 0\)"):
        operator_from_reduced(np.zeros((0, 0)))


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 128])
def test_canonical_class_inverts_operator_from_reduced(dim):
    rng = np.random.default_rng(900 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert np.max(np.abs(operator_from_reduced(canonical_class(rep, a)) - a)) <= 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 128])
def test_canonical_class_of_a_quantized_grid_is_its_fold(dim):
    rng = np.random.default_rng(950 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    sym = SampledSymbol(rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim)), rep)
    red = delta(sym)
    assert np.max(np.abs(canonical_class(rep, quantize_sampled(sym)) - red)) <= 1e-12 * np.max(np.abs(red))


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_fourier_route_of_the_empty_polynomial_is_the_zero_matrix(dim):
    op = quantize_fourier(TrigPolynomial(), Representation(0.3, 0.8, dim))
    assert np.array_equal(op, np.zeros((dim, dim), dtype=complex))


@pytest.mark.parametrize("dim", [1, 3, 4, 7])
def test_fourier_route_matches_literal_heisenberg_sum(dim):
    # Repeated rows (frequencies equal mod N), negative n2 and |n| up to 2**53 - 1.
    rng = np.random.default_rng(90 + dim)
    top = 2**53 - 1
    keys = [(1, 2), (1, 2 + dim), (-3, 2 - 5 * dim), (0, -1), (top, -top), (-top, top - dim), (top, 7)]
    keys += [(int(rng.integers(-top, top)), int(rng.integers(-top, top))) for _ in range(8)]
    coeffs = {key: complex(rng.standard_normal(), rng.standard_normal()) for key in keys}
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    expected = np.zeros((dim, dim), dtype=complex)
    for (n1, n2), c in coeffs.items():
        expected += c * heisenberg(rep, n1, n2)
    built = quantize_fourier(TrigPolynomial(coeffs), rep)
    assert np.max(np.abs(built - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n1, n2", [(0, 0), (1, 0), (3, -2), (-5, 9), (2**52 + 1, -(2**50))])
def test_heisenberg_is_the_one_term_fourier_route(n1, n2):
    for dim in (1, 2, 6):
        rep = Representation(0.41, 0.07, dim)
        one_term = quantize_fourier(TrigPolynomial({(n1, n2): 1.0}), rep)
        assert heisenberg(rep, n1, n2).tobytes() == one_term.tobytes()


@pytest.mark.parametrize("n1, n2", [(1, 2**63), (2**64 + 1, -(2**70)), (-(2**63) - 5, 2**63 + 7)])
def test_group_elements_take_frequencies_past_int64(n1, n2):
    dim = 3
    rep = Representation(0.25, 0.5, dim)
    j = np.arange(dim)
    rows = (j - n2 % dim) % dim
    for matrix in (heisenberg(rep, n1, n2), quantize_fourier(TrigPolynomial({(n1, n2): 1.0}), rep)):
        # One entry per column, in row (j - n2) mod N; its phase is |n| eps noise.
        assert np.count_nonzero(matrix) == dim
        assert np.max(np.abs(np.abs(matrix[rows, j]) - 1.0)) < 1e-12
