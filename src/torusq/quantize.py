"""Weyl quantization of torus symbols into N x N operators, and its inverse on the fold.

Two routes are provided and must agree: the Fourier route sums group
elements weighted by the Fourier coefficients of a trigonometric
polynomial, while the sampled route goes through the fold, since two grids
give the same operator exactly when their folds agree: quantize_sampled(sym)
is operator_from_reduced(delta(sym)), one N-point inverse FFT per row of the
reduced symbol red times a chirp, read back by one take of the anti-diagonals:

    P[k, m] = (1 / 2N) sum_s red[k, s] exp(-i pi k s / N) exp(2 i pi s m / N),

and the operator entry in row m, column l is P[(m + l) % N, m], in O(N^2 log N).
canonical_class runs the same steps backwards; every Wigner table and
dequantize extend its reduced symbol to the 2N x 2N lattice.  Both public
maps check their array with rep._checked, then call an unchecked core, which
quantize_sampled, dequantize and the Wigner tables call directly.  The kernels
that return a bare array check their result the same way, but for
operator_from_reduced: each entry is a sum of N terms of modulus |red| / 2N,
at most half the largest modulus of a finite input, so it cannot overflow.
"""
from __future__ import annotations

import numpy as np

from .rep import Representation, _checked, _group_sum
from .symbols import SampledSymbol, TrigPolynomial, _extension, _handed_over, delta

__all__ = [
    "quantize_fourier",
    "quantize_sampled",
    "adjoint_symbol",
    "operator_from_reduced",
    "canonical_class",
]


def quantize_fourier(tp: TrigPolynomial, rep: Representation) -> np.ndarray:
    """Operator sum_n c[n] T(n1, n2) from the Fourier coefficients of tp, in O(T N + N^2) without a grid."""
    return _checked(_group_sum(rep, tp.items()), "quantized operator", (rep.dim,) * 2)


def quantize_sampled(sym: SampledSymbol) -> np.ndarray:
    """Operator with matrix elements read off the sampled grid.

    With F2 a(m, r) = sum_l a(m, l) exp(-2 i pi r l / 2N), the matrix element
    in row n, column j is

        (1 / 2N) [ F2 a(j + n, j - n) + F2 a(j + n + N, j - n + N) ]

    with both grid indices taken mod 2N.  It depends on the grid only through
    its fold, and is computed as operator_from_reduced(delta(sym)).
    """
    return _checked(_from_reduced(delta(sym)), "quantized operator", (sym.rep.dim,) * 2)


def adjoint_symbol(sym: SampledSymbol) -> SampledSymbol:
    """Symbol of the adjoint operator: the entrywise conjugate grid."""
    return SampledSymbol(np.conj(sym.grid), sym.rep)


def operator_from_reduced(reduced: np.ndarray) -> np.ndarray:
    """Invert the reduced symbol into the operator it quantizes to.

    The matrix element in row m, column l is

        (1 / 2N) sum_s red[(m+l) % N, s] (-1)^(s w) exp(i pi s (m-l) / N)

    where w = 1 when m + l wraps past N and 0 otherwise.  The wrap sign
    comes from folding the 2N-point row index down to N points.  It cancels
    against the N-point index k = (m + l) % N: (-1)^(s w) exp(i pi s (m-l) / N)
    is exp(i pi s (m - l + w N) / N) and m - l + w N = 2m - k, so the element
    is P[k, m], the unscaled N-point inverse FFT of row k of red times the
    chirp exp(-i pi k s / N) / 2N.  The input is the N x N output of the
    fold operator; composing with it is quantize_sampled.
    """
    return _from_reduced(_checked(reduced, "reduced symbol", (None, None)))


def _from_reduced(red: np.ndarray) -> np.ndarray:
    """operator_from_reduced of a checked complex reduced symbol."""
    chirp, slots = _anti_diagonals(len(red), -1, 2 * len(red))
    rows = np.fft.ifft(np.multiply(chirp, red, out=chirp), axis=1, norm="forward", out=chirp)
    return rows.ravel().take(slots, mode="wrap")


def canonical_class(rep: Representation, operator) -> np.ndarray:
    """Distinguished reduced symbol of an operator, the exact inverse of operator_from_reduced:
    red[r, s] = 2 exp(i pi r s / N) sum_l A[l, (r - l) % N] exp(-2 i pi l s / N), which is
    4N times the principal block of the operator's Wigner table and N times its fold."""
    red = _class(_checked(operator, "operator", (rep.dim,) * 2))
    return _checked(red, "canonical class", red.shape)


def _class(a: np.ndarray) -> np.ndarray:
    """canonical_class of a checked complex operator."""
    twist, slots = _anti_diagonals(len(a), 1, 0.5)
    red = np.empty_like(twist)
    np.put(red, slots, a, mode="wrap")  # red[(m + l) % N, m] = A[m, l]
    return np.multiply(twist, np.fft.fft(red, axis=1, out=red), out=red)


def _extended_class(a: np.ndarray, scale: float) -> np.ndarray:
    """scale times the canonical class of a checked complex operator, symmetrically extended to a
    handed-over 2N x 2N grid: the grid of dequantize for scale 1/4, of a Wigner table for 1/4N."""
    red = _class(a)
    return _handed_over(_extension(np.multiply(red, scale, out=red)))


def _anti_diagonals(n: int, sign: int, divisor: float) -> tuple:
    """The chirp exp(sign i pi k s / N) / divisor for k, s < N, one exponential per k s mod 2N,
    and the slot N ((m + l) % N) + m, wrapped at N^2, of entry (m, l) in the table of anti-diagonals."""
    k = np.arange(n)
    chirp = (np.exp(np.arange(2 * n) * (sign * 1j * np.pi / n)) / divisor).take(k[:, None] * k % (2 * n))
    return chirp, (n + 1) * k[:, None] + n * k
