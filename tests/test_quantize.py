import cmath

import numpy as np
import pytest

from torusq import (
    DimensionError,
    DomainError,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    adjoint_symbol,
    big_pauli,
    big_pauli_symbol,
    canonical_class,
    delta,
    dequantize,
    heisenberg,
    kernel_element,
    moyal_product,
    operator_from_reduced,
    pauli,
    pauli_symbols,
    quantize_fourier,
    quantize_sampled,
    sample,
)
from torusq.moyal import _block_picks
from torusq.quantize import _class, _fold_reads, _from_reduced, _half_bin_turns
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


@pytest.mark.parametrize("dim", [7, 16, 64, 128, 257])
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


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 128, 257])
def test_canonical_class_inverts_operator_from_reduced(dim):
    rng = np.random.default_rng(900 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert np.max(np.abs(operator_from_reduced(canonical_class(rep, a)) - a)) <= 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 128, 257])
def test_canonical_class_of_a_quantized_grid_is_its_fold(dim):
    rng = np.random.default_rng(950 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    sym = SampledSymbol(rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim)), rep)
    red = delta(sym)
    assert np.max(np.abs(canonical_class(rep, quantize_sampled(sym)) - red)) <= 1e-12 * np.max(np.abs(red))


@pytest.mark.parametrize("dim", [*range(1, 65), 127, 128, 257, 512])
def test_fold_reads_is_block_zero_of_the_moyal_permutation(dim):
    # The fold kernels' closed-form index is block c = 0 of the Moyal permutation through the
    # h-partner whose row is below N, halved, so the two maps read one record of entries.
    reads = _fold_reads(dim)
    assert type(reads) is np.ndarray and reads.dtype == np.intp and not reads.flags.writeable
    assert np.array_equal(reads, _block_picks(dim)[0].min(axis=0) // 2)


def from_reduced_turning_on_each_call(red):
    """Reference for _from_reduced: the same steps with the half-bin turn built on each call."""
    n = len(red)
    rows = np.multiply(red, 0.5 / n)
    rows[1::2] *= np.exp(np.arange(n) * (-1j * np.pi / n))
    return np.fft.fft(rows, axis=1, out=rows).reshape(-1)[_fold_reads(n)]


def class_turning_on_each_call(a, factor):
    """Reference for _class: the same steps with the half-bin turn built on each call."""
    n = len(a)
    red = np.empty((n, n), dtype=complex)
    red.reshape(-1)[_fold_reads(n)] = a
    np.fft.ifft(red, axis=1, norm="forward", out=red)
    red[1::2] *= np.exp(np.arange(n) * (1j * np.pi / n))
    return np.multiply(red, factor, out=red)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 17, 128, 257])
def test_the_fold_kernels_are_bit_identical_to_turns_built_on_each_call(dim):
    rng = np.random.default_rng(1200 + dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert np.array_equal(_from_reduced(a).view(float), from_reduced_turning_on_each_call(a).view(float))
    for factor in (2.0, 0.5, 0.125 / dim):
        assert np.array_equal(_class(a, factor).view(float), class_turning_on_each_call(a, factor).view(float))


@pytest.mark.parametrize("dim", [1, 2, 6, 7])
def test_half_bin_turns_are_built_once_per_dim_and_read_only(dim):
    turns = _half_bin_turns(dim)
    assert _half_bin_turns(dim) is turns
    for turn in turns:
        assert turn.shape == (dim,) and not turn.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            turn[0] = 2.0


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


@pytest.mark.parametrize("k", [-900, -400, -60, 60, 400])
@pytest.mark.parametrize("dim", [3, 8, 64])
def test_kernels_commute_with_power_of_two_scaling_bit_for_bit(dim, k):
    # Scaling by 2**k is exact in floating point, far from overflow and underflow, so a kernel
    # with no absolute threshold gives the scaled result bit for bit.
    rng = np.random.default_rng(dim)
    rep = Representation(0.3, 0.7, dim)

    def draw(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    a, b, op = draw(2 * dim), draw(2 * dim), draw(dim)
    s = 2.0**k
    a_sym, b_sym, scaled = SampledSymbol(a, rep), SampledSymbol(b, rep), SampledSymbol(s * a, rep)
    assert np.array_equal(quantize_sampled(scaled), s * quantize_sampled(a_sym))
    assert np.array_equal(dequantize(rep, s * op).grid, s * dequantize(rep, op).grid)
    assert np.array_equal(moyal_product(scaled, b_sym).grid, s * moyal_product(a_sym, b_sym).grid)
    assert np.array_equal(moyal_product(b_sym, scaled).grid, s * moyal_product(b_sym, a_sym).grid)


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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
