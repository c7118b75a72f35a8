"""Weyl quantization of torus symbols into N x N operators, and its inverse on the fold.

Two routes are provided and must agree: the Fourier route sums group
elements weighted by the Fourier coefficients of a trigonometric
polynomial, while the sampled route goes through the fold, since two grids
give the same operator exactly when their folds agree: quantize_sampled(sym)
is operator_from_reduced(delta(sym)), one N-point FFT per row of the reduced
symbol and one take, in O(N^2 log N); canonical_class runs the same steps
backwards, and every Wigner table and dequantize extend its reduced symbol to
the 2N x 2N lattice.  One permutation, _block_picks, says which spectrum entry
each operator entry reads: the Moyal block maps read a grid's 2N x 2N row
spectrum through all of it, the fold kernels the reduced symbol's N x N row
spectrum through its block c = 0, whose index alone they cache.  Public maps
check their array with rep._checked and call an unchecked core; bare array results
are checked too, the fold kernels' with numpy's overflow warnings off, but for
operator_from_reduced: each entry sums N terms of modulus |red| / 2N, at most max |red| / 2.
"""
from __future__ import annotations

import functools

import numpy as np

from .rep import Representation, _checked, _group_sum
from .symbols import SampledSymbol, TrigPolynomial, _extension, _fold, _handed_over

__all__ = [
    "quantize_fourier",
    "quantize_sampled",
    "adjoint_symbol",
    "operator_from_reduced",
    "canonical_class",
]


@np.errstate(over="ignore", invalid="ignore")
def quantize_fourier(tp: TrigPolynomial, rep: Representation) -> np.ndarray:
    """Operator sum_n c[n] T(n1, n2) from the Fourier coefficients of tp, in O(T N + N^2) without a grid."""
    return _checked(_group_sum(rep, tp.items()), "quantized operator", (rep.dim,) * 2)


@np.errstate(over="ignore", invalid="ignore")
def quantize_sampled(sym: SampledSymbol) -> np.ndarray:
    """Operator with matrix elements read off the sampled grid: with F2 a(m, r) =
    sum_l a(m, l) exp(-2 i pi r l / 2N), the matrix element in row n, column j is

        (1 / 2N) [ F2 a(j + n, j - n) + F2 a(j + n + N, j - n + N) ]

    with both grid indices taken mod 2N.  It depends on the grid only through
    its fold, and is computed as operator_from_reduced(delta(sym)).
    """
    return _checked(_from_reduced(_fold(sym.grid, sym.rep.dim)), "quantized operator", (sym.rep.dim,) * 2)


def adjoint_symbol(sym: SampledSymbol) -> SampledSymbol:
    """Symbol of the adjoint operator: the entrywise conjugate grid."""
    return SampledSymbol(np.conj(sym.grid), sym.rep)


def operator_from_reduced(reduced: np.ndarray) -> np.ndarray:
    """Invert the reduced symbol into the operator it quantizes to.

    The element in row i, column j is bin c of the 2N-point DFT of row r of red / 2N,

        (1 / 2N) sum_s red[r, s] exp(-i pi s c / N),  r = (i + j) % N,  c = (r - 2i) % 2N.

    c has the parity of r: an even row reads bin 2p, and an odd row bin 2p + 1, whose
    phase exp(-2 i pi s p / N) exp(-i pi s / N) is bin p of the N-point DFT of the row
    turned by half a bin.  So one N-point FFT per row reads them all, at (r, c // 2): the
    entry that block c = 0 of the Moyal permutation reads through the h-partner whose row
    is below N, halved.  The input is the N x N output of the fold operator; composing
    with it is quantize_sampled.
    """
    return _from_reduced(_checked(reduced, "reduced symbol", (None, None)))


def _from_reduced(red: np.ndarray) -> np.ndarray:
    """operator_from_reduced of a checked complex reduced symbol."""
    n = len(red)
    rows = np.multiply(red, 0.5 / n)
    rows[1::2] *= np.exp(np.arange(n) * (-1j * np.pi / n))
    return np.fft.fft(rows, axis=1, out=rows).reshape(-1)[_fold_reads(n)]


@np.errstate(over="ignore", invalid="ignore")
def canonical_class(rep: Representation, operator) -> np.ndarray:
    """Distinguished reduced symbol of an operator, the exact inverse of operator_from_reduced:
    red[r, s] = 2 exp(i pi r s / N) sum_l A[l, (r - l) % N] exp(-2 i pi l s / N), 4N times the
    principal block of its Wigner table and N times its fold.  Its steps undo that function's: a
    scatter, an unscaled inverse FFT per row, odd rows turned by exp(i pi s / N), times 2."""
    red = _class(_checked(operator, "operator", (rep.dim,) * 2), 2.0)
    return _checked(red, "canonical class", red.shape)


def _class(a: np.ndarray, factor: float) -> np.ndarray:
    """factor / 2 times canonical_class of a checked complex operator."""
    n = len(a)
    red = np.empty((n, n), dtype=complex)
    red.reshape(-1)[_fold_reads(n)] = a
    np.fft.ifft(red, axis=1, norm="forward", out=red)
    red[1::2] *= np.exp(np.arange(n) * (1j * np.pi / n))
    return np.multiply(red, factor, out=red)


def _extended_class(a: np.ndarray, scale: float) -> np.ndarray:
    """scale times the canonical class of a checked complex operator, symmetrically extended to a
    handed-over 2N x 2N grid: the grid of dequantize for scale 1/4, of a Wigner table for 1/4N."""
    return _handed_over(_extension(_class(a, 2 * scale)))


@functools.lru_cache(maxsize=8)
def _block_picks(n: int) -> np.ndarray:
    """The read-only permutation of the Moyal block maps, built once per N (see moyal): picks[c1,
    h, i, j] = rows * 2N + columns, with columns = j - i + hN and rows = columns + 2i + c1 mod 2N."""
    k = np.arange(2 * n, dtype=np.min_scalar_type(-4 * n * n))  # holds every flat index
    columns = (k[:n] - k[:n, None] + k[::n, None, None]) % (2 * n)
    picks = (columns + 2 * k[:n, None] + k[:2, None, None, None]) % (2 * n) * (2 * n) + columns
    picks.flags.writeable = False
    return picks


@functools.lru_cache(maxsize=8)
def _fold_reads(n: int) -> np.ndarray:
    """Block c = 0 of the permutation through the h-partner whose row is below N, halved: the fold
    kernels' read-only intp index, built once per N without caching the whole permutation."""
    reads = (_block_picks.__wrapped__(n)[0].min(axis=0) // 2).astype(np.intp)
    reads.flags.writeable = False
    return reads
