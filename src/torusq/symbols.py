"""Classical symbols on the torus and their samplings on the phase space lattice.

A trigonometric polynomial is a finite Fourier sum on the torus.  Sampling
it on the 2N x 2N lattice attached to a representation produces a
SampledSymbol; the fold operator delta compresses such a grid to the N x N
reduced symbol that determines the quantized operator.  Two grids quantize
to the same operator exactly when their reduced symbols agree.  The fold and
its adjoint symmetric_extension share the S1 to S3 ghost signs, built once per N.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, _shown
from .rep import Representation, _checked, _finite_real, _is_integer, _past_float_range

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
    not a tuple of two Python or numpy integers (bools included), or a coefficient
    that is a str, bytes or bool or is not finite, raises DomainError, as does an
    integer frequency component, coefficient or scalar factor past the float range.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        data = {}
        for key, value in dict(coeffs).items():
            if not (isinstance(key, tuple) and len(key) == 2) or not all(map(_is_integer, key)):
                raise DomainError(f"frequency {_shown(key)} must be a pair of integers")
            n1, n2 = int(key[0]), int(key[1])
            if _past_float_range(n1) or _past_float_range(n2):
                raise DomainError("frequency component is an integer past the float range")
            if isinstance(value, (str, bytes, bool, np.bool_)):
                raise DomainError(f"coefficient {_shown(value)} at frequency {_shown(key)} must be a number")
            if _past_float_range(value):
                raise DomainError(f"coefficient at frequency {_shown(key)} is an integer past the float range")
            c = complex(value)
            if not cmath.isfinite(c):
                raise DomainError(f"coefficient {_shown(value)} at frequency {_shown(key)} must be finite")
            if c != 0:
                data[(n1, n2)] = c
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
        factor = _factor(scalar)
        return TrigPolynomial({key: factor * c for key, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def conjugate(self) -> "TrigPolynomial":
        """Complex conjugate symbol, with frequencies negated."""
        return TrigPolynomial({(-k1, -k2): c.conjugate() for (k1, k2), c in self._coeffs.items()})

    def __repr__(self):
        return f"TrigPolynomial({len(self._coeffs)} terms)"


def _factor(scalar):
    """A scalar factor of a symbol; DomainError when it is an integer past the float range."""
    if _past_float_range(scalar):
        raise DomainError("scalar factor is an integer past the float range")
    return scalar


def _frozen_grid(grid, rep: Representation, name: str) -> np.ndarray:
    """grid as a read-only complex 2N x 2N array with finite entries, copied unless handed over."""
    owned = type(grid) is np.ndarray and grid.dtype == complex and grid.flags.owndata
    g = _checked(grid, name, (2 * rep.dim,) * 2, copy=not owned or grid.flags.writeable)
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

    @np.errstate(over="ignore", invalid="ignore")
    def __add__(self, other):
        if not isinstance(other, SampledSymbol):
            return NotImplemented
        rep = _same_rep(self, other)
        return SampledSymbol(self.grid + other.grid, rep)

    @np.errstate(over="ignore", invalid="ignore")
    def __sub__(self, other):
        if not isinstance(other, SampledSymbol):
            return NotImplemented
        rep = _same_rep(self, other)
        return SampledSymbol(self.grid - other.grid, rep)

    @np.errstate(over="ignore", invalid="ignore")
    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented
        return SampledSymbol(_factor(scalar) * self.grid, self.rep)

    __rmul__ = __mul__


def evaluate(tp: TrigPolynomial, x: float, p: float) -> complex:
    """Value of the Fourier sum at (x mod 1, p mod 1); DomainError unless x and p are finite real
    numbers, naming the frequency of a term whose phase 2 pi (n1 x + n2 p) overflows, and when
    the sum overflows."""
    x = _finite_real(x, "x") % 1.0
    p = _finite_real(p, "p") % 1.0
    total = 0j
    for (n1, n2), c in tp.items():
        phase = 2j * cmath.pi * (n1 * x + n2 * p)
        if not cmath.isfinite(phase):
            raise DomainError(f"the phase of frequency {_shown((n1, n2))} overflows at (x, p) = ({x!r}, {p!r})")
        total += c * cmath.exp(phase)
    if not cmath.isfinite(total):
        raise DomainError("symbol value entries must be finite")
    return total


@np.errstate(over="ignore", invalid="ignore")
def sample(tp: TrigPolynomial, rep: Representation) -> SampledSymbol:
    """Sample tp on the lattice of rep: grid[r, s] = tp(r/2N + theta1/N, s/2N + theta2/N).

    One inverse FFT, O(T + N^2 log N) for T terms: exp(2 i pi n1 x_r) is
    exp(i pi (n1 mod 2N) r/N) exp(2 i pi n1 theta1/N), likewise in p, so each
    term times its theta phase adds into the spectrum at its frequency mod 2N.
    That phase loses about |n| eps, none at theta = 0.  The slot n mod 2N is exact for any
    integer, so each term keeps its support and modulus, and sample takes any frequency within
    the float range.  The loader refuses |n| >= 2**53, past which a JSON reader that holds
    numbers as doubles, as most do, would read the document with other frequencies.
    The FFT runs down the columns that hold a term first, at most T of them, then in place
    along the contiguous rows.  A grid that overflows raises DomainError.
    """
    side = 2 * rep.dim
    columns = {}  # spectrum column n2 mod 2N -> its entries
    for (n1, n2), c in tp.items():
        theta_phase = cmath.exp(2j * cmath.pi * (n1 * rep.theta1 + n2 * rep.theta2) / rep.dim)
        columns.setdefault(n2 % side, np.zeros(side, dtype=complex))[n1 % side] += c * theta_phase
    grid = np.zeros((side, side), dtype=complex)
    grid[:, list(columns)] = np.fft.ifft(np.reshape(list(columns.values()), (-1, side)), axis=1, norm="forward").T
    np.fft.ifft(grid, axis=1, norm="forward", out=grid)
    return SampledSymbol(_handed_over(grid), rep)


@functools.lru_cache(maxsize=8)
def _ghost_signs(n: int) -> tuple:
    """The read-only signs (-1)^k, (-1)^j and (-1)^(j+k+n) of the S1, S2, S3 ghost blocks,
    j, k < n, built once per N: a row, a column and an N x N table, each entry exactly +-1."""
    signs = np.ones(2 * n)
    signs[1::2] = -1.0  # (-1)^i
    s3 = signs[n:, None] * signs[:n]
    signs.flags.writeable = s3.flags.writeable = False
    return signs[:n], signs[:n, None], s3


def _ghost_blocks(grid: np.ndarray, n: int) -> tuple:
    """(sign, view) of the S1, S2, S3 ghost blocks grid[N:, :N], grid[:N, N:], grid[N:, N:],
    with signs (-1)^k, (-1)^j, (-1)^(j+k+n) for j, k < n."""
    s1, s2, s3 = _ghost_signs(n)
    return (s1, grid[n:, :n]), (s2, grid[:n, n:]), (s3, grid[n:, n:])


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


def _fold(grid: np.ndarray, n: int) -> np.ndarray:
    """delta of a 2N x 2N grid, unchecked: the core that the quantizations call."""
    return grid[:n, :n] + _fold_tail(grid, n)


@np.errstate(over="ignore", invalid="ignore")
def delta(sym: SampledSymbol) -> np.ndarray:
    """Fold a 2N x 2N grid to the N x N reduced symbol.

    delta(A)[j, k] = A[j, k] + (-1)^k A[j+N, k] + (-1)^j A[j, k+N]
                     + (-1)^(j+k+N) A[j+N, k+N].
    Linear, rank N^2, nullity 3 N^2.  A fold that overflows raises DomainError.
    """
    n = sym.rep.dim
    return _checked(_fold(sym.grid, n), "reduced symbol", (n, n))


@np.errstate(over="ignore", invalid="ignore")
def equivalent(a: SampledSymbol, b: SampledSymbol) -> bool:
    """Whether a and b quantize to the same operator, i.e. their folds agree
    to within 1e-10 of the largest grid magnitude.

    Raises DimensionError when the two symbols carry different representations,
    and DomainError when a fold or the largest magnitude overflows.
    """
    _same_rep(a, b)
    scale = max(float(np.max(np.abs(a.grid))), float(np.max(np.abs(b.grid))))
    if not math.isfinite(scale):
        raise DomainError("sampled symbol magnitudes must be finite")
    # Two finite folds differ by at most an infinity, which compares as not equivalent.
    return float(np.max(np.abs(delta(a) - delta(b)))) <= 1e-10 * scale


def kernel_element(rep: Representation, seed: int) -> SampledSymbol:
    """A grid in the kernel of delta, drawn from the seeded generator.

    The three non-principal blocks are free standard normal draws and the
    principal block is solved to cancel them, so delta of the result is the
    zero matrix bit for bit.  Seed 0 returns the zero grid; a seed that is a bool, not an
    integer or negative raises DomainError.
    """
    if not _is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {_shown(seed)}")
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
