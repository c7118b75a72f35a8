"""Weyl quantization of torus symbols into N x N operators.

Two routes are provided and must agree: the Fourier route sums group
elements weighted by the Fourier coefficients of a trigonometric
polynomial, while the sampled route reads the matrix elements directly off
the lattice grid through a 2N-point discrete Fourier transform of each grid
row.  That transform, and the one inverting the reduced symbol, are numpy
FFTs, each read by one flat take at indices row * width + column of its
raveled output, so both cost O(N^2 log N).
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .rep import Representation, _group_sum
from .symbols import SampledSymbol, TrigPolynomial

__all__ = [
    "quantize_fourier",
    "quantize_sampled",
    "adjoint_symbol",
    "operator_from_reduced",
]


def quantize_fourier(tp: TrigPolynomial, rep: Representation) -> np.ndarray:
    """Operator sum_n c[n] T(n1, n2) from the Fourier coefficients of tp, in O(T N + N^2) without a grid."""
    return _group_sum(rep, tp.items())


def quantize_sampled(sym: SampledSymbol) -> np.ndarray:
    """Operator with matrix elements read off the sampled grid.

    With F2 a(m, r) = sum_l a(m, l) exp(-2 i pi r l / 2N), the matrix element
    in row n, column j is

        (1 / 2N) [ F2 a(j + n, j - n) + F2 a(j + n + N, j - n + N) ]

    with both grid indices taken mod 2N.
    """
    n = sym.rep.dim
    side = 2 * n
    f2 = np.fft.fft(sym.grid, axis=1).ravel()
    row, col = np.arange(n)[:, None], np.arange(n)
    out = f2.take((row + col) * side + (col - row) % side)
    out += f2.take((row + col + n) % side * side + (col - row + n) % side)
    return np.divide(out, side, out=out)


def adjoint_symbol(sym: SampledSymbol) -> SampledSymbol:
    """Symbol of the adjoint operator: the entrywise conjugate grid."""
    return SampledSymbol(np.conj(sym.grid), sym.rep)


def operator_from_reduced(reduced: np.ndarray) -> np.ndarray:
    """Invert the reduced symbol into the operator it quantizes to.

    The matrix element in row m, column l is

        (1 / 2N) sum_s red[(m+l) % N, s] (-1)^(s w) exp(i pi s (m-l) / N)

    where w = 1 when m + l wraps past N and 0 otherwise.  The wrap sign
    comes from folding the 2N-point row index down to N points; without it
    the inversion only holds on the entries with m + l < N.  The input is
    the N x N output of the fold operator; composing with it reproduces
    quantize_sampled exactly.
    """
    red = np.asarray(reduced, dtype=complex)
    if red.ndim != 2 or red.shape[0] != red.shape[1]:
        raise DimensionError(f"reduced symbol must be square, got shape {red.shape}")
    n = red.shape[0]
    # rows[k, t] = (1 / 2N) sum_s red[k, s] exp(i pi s t / N); the wrap sign
    # is the N-shift t -> t + N of the column read.
    rows = np.fft.ifft(red, n=2 * n, axis=1).ravel()
    m, l = np.arange(n)[:, None], np.arange(n)
    return rows.take((m + l) % n * (2 * n) + (m - l + n * ((m + l) >= n)) % (2 * n))
