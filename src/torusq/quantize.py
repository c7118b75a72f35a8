"""Weyl quantization of torus symbols into N x N operators, and its inverse, dequantization.

Two routes are provided and must agree: the Fourier route sums group
elements weighted by the Fourier coefficients of a trigonometric
polynomial, while the sampled route goes through the fold, since two grids
give the same operator exactly when their folds agree: quantize_sampled(sym)
is operator_from_reduced(delta(sym)), one N-point FFT per row of the reduced
symbol and one take, in O(N^2 log N); canonical_class runs the same steps
backwards, and every Wigner table and dequantize extend its reduced symbol to
the 2N x 2N lattice.  The one index _fold_reads says which entry of the reduced
symbol's row spectrum each operator entry reads; it is block c = 0 of the Moyal
block maps' permutation (see moyal), in closed form.  It and the half-bin turns of
_half_bin_turns depend on N alone, so each is built once per N, read-only.  Public
maps check their array with rep._checked and call an unchecked core; bare array results
are checked too, the fold kernels' with numpy's overflow warnings off, but for
operator_from_reduced: each entry sums N terms of modulus |red| / 2N, at most max |red| / 2.

Every N x N operator is N times its own Wigner table when read as a sampled
symbol; quantizing that symbol returns the operator, which makes dequantize a
right inverse of the sampled quantization.  Its grid extends the canonical
class over 4, so its fold is that class itself.  For N = 2 the construction
reproduces the Pauli matrices, and for general N the matrices B[r, s] built
here form a generalized Pauli basis of the full matrix algebra.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, DomainError, _shown
from .rep import Representation, _checked, _group_sum, _is_integer
from .symbols import SampledSymbol, TrigPolynomial, _extension, _fold, _handed_over

__all__ = [
    "quantize_fourier",
    "quantize_sampled",
    "adjoint_symbol",
    "operator_from_reduced",
    "canonical_class",
    "dequantize",
    "pauli",
    "pauli_symbols",
    "big_pauli",
    "big_pauli_symbol",
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
    turned by half a bin.  So one N-point FFT per row reads them all, at (r, c // 2), the
    flat index r N + c // 2 that _fold_reads caches.  The input is the N x N output of the
    fold operator; composing with it is quantize_sampled.
    """
    return _from_reduced(_checked(reduced, "reduced symbol", (None, None)))


def _from_reduced(red: np.ndarray) -> np.ndarray:
    """operator_from_reduced of a checked complex reduced symbol."""
    n = len(red)
    rows = np.multiply(red, 0.5 / n)
    rows[1::2] *= _half_bin_turns(n)[0]
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
    red[1::2] *= _half_bin_turns(n)[1]
    return np.multiply(red, factor, out=red)


def _extended_class(a: np.ndarray, scale: float) -> np.ndarray:
    """scale times the canonical class of a checked complex operator, symmetrically extended to a
    handed-over 2N x 2N grid: the grid of dequantize for scale 1/4, of a Wigner table for 1/4N."""
    return _handed_over(_extension(_class(a, 2 * scale)))


@functools.lru_cache(maxsize=8)
def _fold_reads(n: int) -> np.ndarray:
    """The fold kernels' read-only intp index, built once per N: operator entry (i, j) reads the
    reduced symbol's row spectrum at flat index r N + ((r - 2i) % 2N) // 2, r = (i + j) % N.  It
    is block c = 0 of moyal._block_picks through the h-partner whose row is below N, halved."""
    i = np.arange(n, dtype=np.intp)
    rows = (i[:, None] + i) % n
    reads = rows * n + (rows - 2 * i[:, None]) % (2 * n) // 2
    reads.flags.writeable = False
    return reads


@functools.lru_cache(maxsize=8)
def _half_bin_turns(n: int) -> tuple:
    """The read-only half-bin turns exp(-i pi s / N) of _from_reduced and exp(i pi s / N) of
    _class, s < N, built once per N, each by its own expression."""
    forward, backward = np.exp(np.arange(n) * (-1j * np.pi / n)), np.exp(np.arange(n) * (1j * np.pi / n))
    forward.flags.writeable = backward.flags.writeable = False
    return forward, backward


@np.errstate(over="ignore", invalid="ignore")
def dequantize(rep: Representation, operator) -> SampledSymbol:
    """Canonical symbol of an operator: N times its Wigner table."""
    return SampledSymbol(_extended_class(_checked(operator, "operator", (rep.dim,) * 2), 0.25), rep)


def pauli(rep: Representation):
    """The Pauli matrices (identity, sigma_x, sigma_y, sigma_z) for dim 2.

    They are tied to the group elements by the dictionary
        sigma_z = exp(-i pi theta1) T(1, 0)
        sigma_x = exp(-i pi theta2) T(0, 1)
        sigma_y = exp(-i pi (theta1 + theta2 + 1)) T(1, 1)
    which holds for every theta; acceptance criterion 02 checks it.  The +1
    in the sigma_y phase is forced: the cocycle gives
    T(1, 1) = i T(1, 0) T(0, 1), the first two relations then yield
    i sigma_z sigma_x, and i sigma_z sigma_x = -sigma_y.
    """
    if rep.dim != 2:
        raise DimensionError(f"Pauli matrices require dim 2, got {rep.dim}")
    identity = np.eye(2, dtype=complex)
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
    return identity, sigma_x, sigma_y, sigma_z


def pauli_symbols(rep: Representation):
    """Trig polynomial symbols quantizing to (identity, sigma_x, sigma_y, sigma_z)."""
    if rep.dim != 2:
        raise DimensionError(f"Pauli symbols require dim 2, got {rep.dim}")
    alpha_i = TrigPolynomial({(0, 0): 1.0})
    alpha_x = TrigPolynomial({(0, 1): np.exp(-1j * np.pi * rep.theta2)})
    alpha_y = TrigPolynomial({(1, 1): np.exp(-1j * np.pi * (rep.theta1 + rep.theta2 + 1.0))})
    alpha_z = TrigPolynomial({(1, 0): np.exp(-1j * np.pi * rep.theta1)})
    return alpha_i, alpha_x, alpha_y, alpha_z


def _check_indices(rep: Representation, r, s) -> None:
    """DomainError if r or s is a bool or not an integer, DimensionError unless
    both lie in the doubled range 0..2N-1."""
    if not (_is_integer(r) and _is_integer(s)):
        raise DomainError(f"indices must be integers, got {_shown((r, s))}")
    if not (0 <= r < 2 * rep.dim and 0 <= s < 2 * rep.dim):
        raise DimensionError(f"indices must lie in 0..{2 * rep.dim - 1}, got {_shown((r, s))}")


def big_pauli(rep: Representation, r: int, s: int) -> np.ndarray:
    """Generalized Pauli matrix B[r, s] with entry exp(-i pi (r - 2j) s / N) at (j, r - j mod N).

    Indices run over the doubled range 0..2N-1; the N-shifted matrices differ
    from the principal ones only by signs.  Each phase is computed as
    +-exp(-i pi (t mod N) / N) with t = (r - 2j) s mod 2N and the minus sign
    for t >= N, so those sign laws hold bit for bit.
    """
    _check_indices(rep, r, s)
    n = rep.dim
    j = np.arange(n)
    t = ((r - 2 * j) * s) % (2 * n)
    out = np.zeros((n, n), dtype=complex)
    phase = np.exp(-1j * np.pi * (t % n) / n)
    out[j, (r - j) % n] = np.where(t < n, phase, -phase)
    return out


def big_pauli_symbol(rep: Representation, r: int, s: int) -> TrigPolynomial:
    """Trig polynomial quantizing to big_pauli(rep, r, s).

    The coefficient at frequency (k, m), for k, m in 0..2N-1, is
    (1/2N) exp(-2 i pi k x_r) exp(-2 i pi m p_s) with (x_r, p_s) the lattice
    point of (r, s); its sampling is the 2N-scaled indicator of that point.
    """
    _check_indices(rep, r, s)
    n = rep.dim
    x = r / (2 * n) + rep.theta1 / n
    p = s / (2 * n) + rep.theta2 / n
    return TrigPolynomial(
        {(k, m): np.exp(-2j * np.pi * (k * x + m * p)) / (2 * n) for k in range(2 * n) for m in range(2 * n)}
    )
