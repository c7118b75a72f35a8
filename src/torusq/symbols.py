"""Classical symbols on the torus and their samplings on the phase space lattice.

A trigonometric polynomial is a finite Fourier sum on the torus.  Sampling
it on the 2N x 2N lattice attached to a representation produces a
SampledSymbol; the fold operator delta compresses such a grid to the N x N
reduced symbol that determines the quantized operator.  Two grids quantize
to the same operator exactly when their reduced symbols agree.  The fold and
its adjoint symmetric_extension share the signs of the S1 to S3 ghost blocks.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .rep import Representation, _checked, _finite_real, _is_integer

__all__ = [
    "TrigPolynomial",
    "SampledSymbol",
    "evaluate",
    "sample",
    "delta",
    "equivalent",
    "kernel_element",
]


class TrigPolynomial:
    """Finite Fourier sum  sum_n c[n] exp(2 i pi (n1 x + n2 p))  on the torus.

    Coefficients are stored in a frequency -> amplitude map; exact zeros are
    dropped so the support is always finite and minimal.  A frequency that is
    not a tuple of two Python or numpy integers (bools included), or a
    coefficient that is a str, bytes or bool or is not finite, raises DomainError.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        data = {}
        for key, value in dict(coeffs).items():
            if not (isinstance(key, tuple) and len(key) == 2) or not all(map(_is_integer, key)):
                raise DomainError(f"frequency {key!r} must be a pair of integers")
            if isinstance(value, (str, bytes, bool, np.bool_)):
                raise DomainError(f"coefficient {value!r} at frequency {key!r} must be a number")
            c = complex(value)
            if not cmath.isfinite(c):
                raise DomainError(f"coefficient {value!r} at frequency {key!r} must be finite")
            if c != 0:
                data[(int(key[0]), int(key[1]))] = c
        self._coeffs = data

    def coefficients(self) -> dict:
        """Copy of the frequency -> amplitude map."""
        return dict(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def __len__(self):
        return len(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        merged = dict(self._coeffs)
        for key, c in other.items():
            merged[key] = merged.get(key, 0j) + c
        return TrigPolynomial(merged)

    def __sub__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return TrigPolynomial({key: scalar * c for key, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def conjugate(self) -> "TrigPolynomial":
        """Complex conjugate symbol, with frequencies negated."""
        return TrigPolynomial({(-k1, -k2): c.conjugate() for (k1, k2), c in self._coeffs.items()})

    def __repr__(self):
        return f"TrigPolynomial({len(self._coeffs)} terms)"


def _frozen_grid(grid, rep: Representation, name: str) -> np.ndarray:
    """grid as a read-only complex 2N x 2N array with finite entries, copied unless handed over."""
    owned = type(grid) is np.ndarray and grid.dtype == complex and grid.flags.owndata
    g = grid if owned and not grid.flags.writeable else np.array(grid, dtype=complex)
    g = _checked(g, name, (2 * rep.dim,) * 2)
    g.setflags(write=False)
    return g


def _handed_over(grid: np.ndarray) -> np.ndarray:
    """A fresh grid made read-only, so that _frozen_grid takes it without a copy."""
    grid.setflags(write=False)
    return grid


def _same_rep(a, b) -> Representation:
    """The representation that a and b (symbols or systems) share.

    Raises DimensionError when they differ.
    """
    if a.rep != b.rep:
        raise DimensionError(f"symbols live in different representations: {a.rep} and {b.rep}")
    return a.rep


@dataclass(frozen=True, eq=False)
class SampledSymbol:
    """Values of a symbol on the 2N x 2N lattice of a representation.

    Row index r runs over the x direction, column index s over p; the lattice
    point behind entry (r, s) is (r/2N + theta1/N, s/2N + theta2/N).  The
    grid is checked finite and frozen on construction; it is copied unless it is a read-only
    complex128 ndarray owning its data, which is handed over and must stay read-only.
    """

    grid: np.ndarray
    rep: Representation

    def __post_init__(self):
        object.__setattr__(self, "grid", _frozen_grid(self.grid, self.rep, "sampled symbol"))

    def __add__(self, other):
        if not isinstance(other, SampledSymbol):
            return NotImplemented
        rep = _same_rep(self, other)
        return SampledSymbol(self.grid + other.grid, rep)

    def __sub__(self, other):
        if not isinstance(other, SampledSymbol):
            return NotImplemented
        rep = _same_rep(self, other)
        return SampledSymbol(self.grid - other.grid, rep)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return SampledSymbol(scalar * self.grid, self.rep)

    __rmul__ = __mul__


def evaluate(tp: TrigPolynomial, x: float, p: float) -> complex:
    """Value of the Fourier sum at (x mod 1, p mod 1); DomainError unless x and p are finite real numbers."""
    x = _finite_real(x, "x") % 1.0
    p = _finite_real(p, "p") % 1.0
    total = 0j
    for (n1, n2), c in tp.items():
        total += c * cmath.exp(2j * cmath.pi * (n1 * x + n2 * p))
    return total


def sample(tp: TrigPolynomial, rep: Representation) -> SampledSymbol:
    """Sample tp on the lattice of rep: grid[r, s] = tp(r/2N + theta1/N, s/2N + theta2/N).

    One inverse FFT, O(T + N^2 log N) for T terms: exp(2 i pi n1 x_r) is
    exp(i pi (n1 mod 2N) r/N) exp(2 i pi n1 theta1/N), likewise in p, so each
    term times its theta phase adds into the spectrum at its frequency mod 2N.
    That phase loses about |n| eps, hence the loader's |n| < 2**53 bound.
    The FFT runs rows first, as ifft2 does, but only on the rows that hold a term.
    """
    side = 2 * rep.dim
    rows = {}  # spectrum row n1 mod 2N -> its entries
    for (n1, n2), c in tp.items():
        theta_phase = cmath.exp(2j * cmath.pi * (n1 * rep.theta1 + n2 * rep.theta2) / rep.dim)
        rows.setdefault(n1 % side, np.zeros(side, dtype=complex))[n2 % side] += c * theta_phase
    grid = np.zeros((side, side), dtype=complex)
    grid[list(rows)] = np.fft.ifft(np.reshape(list(rows.values()), (-1, side)), axis=1, norm="forward")
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)
    return SampledSymbol(_handed_over(grid), rep)


def _ghost_blocks(grid: np.ndarray, n: int) -> tuple:
    """(sign, view) of the S1, S2, S3 ghost blocks grid[N:, :N], grid[:N, N:], grid[N:, N:],
    with signs (-1)^k, (-1)^j, (-1)^(j+k+n) for j, k < n."""
    signs = np.ones(2 * n)
    signs[1::2] = -1.0  # (-1)^i
    s = signs[:n]
    return (s, grid[n:, :n]), (s[:, None], grid[:n, n:]), (signs[n:, None] * s, grid[n:, n:])


def _fold_tail(grid: np.ndarray, n: int) -> np.ndarray:
    """Signed sum of the three non-principal blocks entering the fold.

    Kept as a single expression with a fixed association so kernel_element
    can cancel it bit for bit.
    """
    (s1, g1), (s2, g2), (s3, g3) = _ghost_blocks(grid, n)
    return s1 * g1 + s2 * g2 + s3 * g3


def symmetric_extension(block: np.ndarray) -> np.ndarray:
    """Extend an N x N principal block to the 2N x 2N grid via S1 to S3 (delta's adjoint)."""
    return _extension(_checked(block, "principal block", (None, None)))


def _extension(block: np.ndarray) -> np.ndarray:
    """symmetric_extension of a checked complex block, into a fresh grid."""
    n = len(block)
    grid = np.empty((2 * n, 2 * n), dtype=complex)
    grid[:n, :n] = block
    for sign, ghost in _ghost_blocks(grid, n):
        np.multiply(sign, block, out=ghost)
    return grid


def delta(sym: SampledSymbol) -> np.ndarray:
    """Fold a 2N x 2N grid to the N x N reduced symbol.

    delta(A)[j, k] = A[j, k] + (-1)^k A[j+N, k] + (-1)^j A[j, k+N]
                     + (-1)^(j+k+N) A[j+N, k+N].
    Linear, rank N^2, nullity 3 N^2.
    """
    n = sym.rep.dim
    return sym.grid[:n, :n] + _fold_tail(sym.grid, n)


def equivalent(a: SampledSymbol, b: SampledSymbol) -> bool:
    """Whether a and b quantize to the same operator, i.e. their folds agree
    to within 1e-10 of the largest grid magnitude.

    Raises DimensionError when the two symbols carry different representations.
    """
    _same_rep(a, b)
    scale = max(float(np.max(np.abs(a.grid))), float(np.max(np.abs(b.grid))))
    return float(np.max(np.abs(delta(a) - delta(b)))) <= 1e-10 * scale


def kernel_element(rep: Representation, seed: int) -> SampledSymbol:
    """A grid in the kernel of delta, drawn from the seeded generator.

    The three non-principal blocks are free standard normal draws and the
    principal block is solved to cancel them, so delta of the result is the
    zero matrix bit for bit.  Seed 0 returns the zero grid; a seed that is a bool, not an
    integer or negative raises DomainError.
    """
    if not _is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    n = rep.dim
    side = 2 * n
    grid = np.zeros((side, side), dtype=complex)
    if seed != 0:
        rng = np.random.default_rng(seed)
        free = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        for (_, ghost), block in zip(_ghost_blocks(grid, n), free):
            ghost[...] = block
        grid[:n, :n] = -_fold_tail(grid, n)
    return SampledSymbol(grid, rep)
