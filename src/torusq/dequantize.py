"""Dequantization: symbols of operators, and the Pauli dictionaries.

Every N x N operator is N times its own Wigner table when read as a
sampled symbol; quantizing that symbol returns the operator, which makes
dequantize a right inverse of the sampled quantization.  The grid extends
the canonical class over 4 (see quantize), so its fold is that class itself.

For N = 2 the construction reproduces the Pauli matrices, and for general N
the matrices B[r, s] built here form a generalized Pauli basis of the full
matrix algebra.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError
from .quantize import _extended_class
from .rep import Representation, _checked, _is_integer
from .symbols import SampledSymbol, TrigPolynomial

__all__ = [
    "dequantize",
    "pauli",
    "pauli_symbols",
    "big_pauli",
    "big_pauli_symbol",
]


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
        raise DomainError(f"indices must be integers, got ({r!r}, {s!r})")
    if not (0 <= r < 2 * rep.dim and 0 <= s < 2 * rep.dim):
        raise DimensionError(f"indices must lie in 0..{2 * rep.dim - 1}, got ({r}, {s})")


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
