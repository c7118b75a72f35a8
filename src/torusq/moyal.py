"""Moyal product and bracket on the lattice, and Heisenberg dynamics.

The noncommutative product of two sampled symbols is a four-fold sum over
lattice shifts with a quadratic phase kernel:

    (a # b)(j, k) = (1/(2N)^2) sum_{r,s,u,v} a(j+r, k+s) b(j+u, k+v)
                    exp(i pi (r v - u s) / N)

with all grid indices mod 2N.  Quantization turns # into the operator
product and the bracket into the commutator, exactly, for arbitrary grids.
The kernels do not involve theta, so equal grids give equal results in any
representation of the same dimension.

Substituting x = j+r, y = k+s, p = j+u, q = k+v and summing over y and q
first leaves row DFTs of the two grids:

    (a # b)(j, k) = ifft_tau(G(-j, tau))(k),
    G(d, tau) = sum_x fft_y(a)(x, x+tau+d) ifft_y(b)(x+tau, x+d),

where fft_y and ifft_y are numpy's DFTs along each row (the p axis).  A
product costs three row transforms and one O(N^3) contraction over x, with
O(N^2) memory.  The bracket {a, b} = a # b - b # a is taken on G before
the final transform, which makes {a, a} exactly zero.  The test suite pins
both against the literal sums.

Heisenberg dynamics integrates d a / dt = 2 i pi N {H, a} for a fixed
real Hamiltonian H.  Quantization sends the bracket to the commutator, and
so does each shifted quantization Q_c(a) = quantize_sampled(a(. + c)) for
the four shifts c in {0, 1}^2: the product kernel is shift-invariant.  The
four maps together carry the 2N x 2N grids one-to-one onto four copies of
M_N, with inverse

    a = sum_c dequantize(Q_c(a)) shifted back by c,

so in block c the flow is d A_c / dt = 2 i pi N [H_c, A_c] with H_c
Hermitian.  In the eigenbasis of H_c this right-hand side multiplies entry
(i, j) by z_ij / dt, z_ij = 2 i pi N dt (E_i - E_j), and one RK4 step
multiplies it by R(z_ij) = 1 + z + z^2/2 + z^3/6 + z^4/24.  evolve_symbol
therefore applies steps RK4 steps exactly as R(z_ij)^steps, at the cost of
one batched eigh of four N x N matrices, a few N x N products and
O(N^2 log N) transforms, whatever the step count or the number of Fourier
modes of H.  Only rounding differs from stepping the bracket by hand.  For
imaginary z, |R(z)| <= 1 exactly when |z| <= 2 sqrt(2); evolve_symbol
refuses a step past that limit, where the RK4 solution grows without bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, DomainError
from .quantize import _quantize_grids, quantize_sampled
from .rep import Representation
from .symbols import SampledSymbol, TrigPolynomial, _same_rep, sample
from .wigner import _core

__all__ = [
    "HamiltonianSystem",
    "moyal_product",
    "moyal_bracket",
    "poisson_bracket",
    "semiclassical_residual",
    "evolve_operator",
    "evolve_symbol",
]


def _correlation(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """G[d, tau] = sum_x fft_y(a)[x, x + tau + d] ifft_y(b)[x + tau, x + d], indices mod 2N."""
    side = 2 * n
    # Tiling the row transforms lets two strided views read the wrapped
    # indices, so no (2N)^3 index or data array is ever built.
    rows_a = np.tile(np.fft.fft(a, axis=1), (1, 3))
    rows_b = np.tile(np.fft.ifft(b, axis=1), (2, 2))
    (a0, a1), (b0, b1) = rows_a.strides, rows_b.strides
    view_a = as_strided(rows_a, (side,) * 3, (a0 + a1, a1, a1), writeable=False)  # [x, tau, d]
    view_b = as_strided(rows_b, (side,) * 3, (b0 + b1, b0, b1), writeable=False)  # [x, tau, d]
    return np.einsum("xtd,xtd->dt", view_a, view_b)


def _from_correlation(correlation: np.ndarray) -> np.ndarray:
    """(a # b)(j, k) = ifft_tau(G[-j, tau])(k) for G the correlation of a and b."""
    return np.fft.ifft(correlation[-np.arange(len(correlation))], axis=1)


def moyal_product(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Noncommutative product a # b; quantizes to the operator product."""
    rep = _same_rep(a, b)
    return SampledSymbol(_from_correlation(_correlation(a.grid, b.grid, rep.dim)), rep)


def moyal_bracket(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Moyal bracket {a, b} = a # b - b # a, the four-fold sum with the sine
    kernel (2i/(2N)^2) sum a b sin(pi (r v - u s)/N); quantizes to the
    commutator."""
    rep = _same_rep(a, b)
    n = rep.dim
    correlation = _correlation(a.grid, b.grid, n) - _correlation(b.grid, a.grid, n)
    return SampledSymbol(_from_correlation(correlation), rep)


def poisson_bracket(a: TrigPolynomial, b: TrigPolynomial) -> TrigPolynomial:
    """Classical bracket da/dx db/dp - da/dp db/dx on trig polynomials.

    The coefficient picked up at frequency n + m is
    -4 pi^2 (n1 m2 - n2 m1) a_n b_m.
    """
    out = {}
    for (n1, n2), ca in a.items():
        for (m1, m2), cb in b.items():
            wedge = n1 * m2 - n2 * m1
            if wedge:
                key = (n1 + m1, n2 + m2)
                out[key] = out.get(key, 0j) - 4 * np.pi**2 * wedge * ca * cb
    return TrigPolynomial(out)


def semiclassical_residual(a: TrigPolynomial, b: TrigPolynomial, rep: Representation) -> float:
    """Max lattice deviation between 2 pi N / i times the Moyal bracket and
    the Poisson bracket.

    Decays like 1/N^2; for a = exp(2 i pi x), b = exp(2 i pi p) it equals
    4 pi^2 |1 - sinc(pi / N)| exactly.
    """
    scaled = -2j * np.pi * rep.dim * moyal_bracket(sample(a, rep), sample(b, rep)).grid
    classical = sample(poisson_bracket(a, b), rep).grid
    return float(np.max(np.abs(scaled - classical)))


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """A real Hamiltonian grid on the lattice of a representation.

    The grid must be real up to 1e-12 relative to its magnitude, which makes
    the quantized Hamiltonian Hermitian.  The representation is the grid's.
    """

    hamiltonian: SampledSymbol

    def __post_init__(self):
        grid = self.hamiltonian.grid
        scale = max(1.0, float(np.max(np.abs(grid))))
        if float(np.max(np.abs(grid.imag))) > 1e-12 * scale:
            raise DomainError("Hamiltonian grid must be real")

    @property
    def rep(self) -> Representation:
        return self.hamiltonian.rep

    def operator(self) -> np.ndarray:
        """Quantized Hamiltonian (Hermitian)."""
        return quantize_sampled(self.hamiltonian)


def _require_real_time(t) -> None:
    try:
        finite = isinstance(t, Real) and not isinstance(t, bool) and math.isfinite(t)
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise DomainError(f"t must be a finite real number, got {t!r}")


def evolve_operator(system: HamiltonianSystem, operator, t: float) -> np.ndarray:
    """Heisenberg evolution A(t) = exp(+2 i pi N t H) A exp(-2 i pi N t H).

    Uses the eigendecomposition of the quantized Hamiltonian, so the result
    is exact up to diagonalization error at any t whose phases stay finite.
    """
    _require_real_time(t)
    a = np.asarray(operator, dtype=complex)
    n = system.rep.dim
    if a.shape != (n, n):
        raise DimensionError(f"operator must be {n} x {n}, got shape {a.shape}")
    energies, vectors = np.linalg.eigh(system.operator())
    phases = 2 * np.pi * n * t * energies
    if not np.all(np.isfinite(phases)):
        raise DomainError(f"t = {t!r} overflows the phases 2 pi N t E")
    propagator = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    return propagator @ a @ propagator.conj().T


# Shifts c of the four quantization blocks Q_c(a) = quantize_sampled(a(. + c)).
_SHIFTS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])


def _shifted(side: int, sign: int) -> tuple:
    """Row and column indices that read grid(. + sign c) for the four shifts c."""
    j = np.arange(side)
    rows = (j[:, None] + sign * _SHIFTS[:, :1, None]) % side  # (4, 2N, 1)
    columns = (j + sign * _SHIFTS[:, 1:, None]) % side  # (4, 1, 2N)
    return rows, columns


def _to_blocks(grids: np.ndarray) -> np.ndarray:
    """The four blocks Q_c of 2N x 2N grids on the last two axes, stacked on axis -3."""
    return _quantize_grids(grids[(..., *_shifted(grids.shape[-1], 1))])


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """The grid whose four blocks Q_c are blocks[c], the inverse of _to_blocks."""
    n = blocks.shape[-1]
    rows, columns = _shifted(2 * n, -1)
    return n * _core(blocks)[np.arange(4)[:, None, None], rows, columns].sum(axis=0)


def evolve_symbol(system: HamiltonianSystem, start: SampledSymbol, t: float, steps: int) -> SampledSymbol:
    """Apply steps fixed RK4 steps of size t/steps to d a / dt = 2 i pi N {H, a}.

    The sign matches evolve_operator: quantizing the result approximates
    evolve_operator of the quantized start with O(step^4) global error.
    The steps are applied exactly in the eigenbases of the four quantization
    blocks H_c of H (see the module notes): entry (i, j) of each block of
    the start gains the factor R(z_ij)^steps.  Fourier modes of H below
    1e-13 of the largest, and those with both indices in {0, N}, which
    commute with every symbol, are dropped first; a Hamiltonian with no
    other mode returns the start grid bit for bit.  A step with
    2 pi N |t/steps| (E_max - E_min) > 2 sqrt(2) in some block is past RK4's
    stability limit and raises DomainError.
    """
    rep = _same_rep(system, start)
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise DomainError(f"steps must be a positive integer, got {steps!r}")
    _require_real_time(t)
    try:
        dt = float(t) / int(steps)
    except OverflowError:  # a step count past the float range
        raise DomainError("steps must be below 2**1024") from None
    n = rep.dim
    spectrum = np.fft.fft2(system.hamiltonian.grid)
    moving = np.abs(spectrum) > 1e-13 * np.max(np.abs(spectrum))
    moving[::n, ::n] = False  # modes in {0, N}^2 commute with every symbol
    if not moving.any():
        return start
    energy_blocks, start_blocks = _to_blocks(
        np.stack([np.fft.ifft2(np.where(moving, spectrum, 0)), start.grid])
    )
    energies, vectors = np.linalg.eigh(energy_blocks)
    reach = 2 * math.pi * n * abs(dt) * float(np.max(energies[:, -1] - energies[:, 0]))
    if reach > 2 * math.sqrt(2):
        raise DomainError(
            f"t={t!r} with steps={steps} is past the RK4 stability limit: "
            f"2 pi N |t/steps| (E_max - E_min) = {reach:.6e} > 2 sqrt(2) = {2 * math.sqrt(2):.6e}"
        )
    # R(iy) = 1 - y^2/2 + y^4/24 + i (y - y^3/6) with |R(iy)|^2 = 1 - y^6/72 + y^8/576.
    # Taking the power in polar form, through log1p of |R|^2 - 1, keeps
    # |R|^steps accurate to rounding for any step count.
    y = (2 * math.pi * n * dt) * (energies[:, :, None] - energies[:, None, :])
    y2 = y * y
    log_r = 0.5 * np.log1p(y2**3 * (y2 / 576 - 1 / 72)) + 1j * np.arctan2(
        y * (1 - y2 / 6), 1 - y2 / 2 + y2 * y2 / 24
    )
    adjoint = vectors.conj().swapaxes(-2, -1)
    # Only the change is transformed back, so rounding stays at the size of the change.
    gain = np.expm1(float(steps) * log_r) * (adjoint @ start_blocks @ vectors)
    return SampledSymbol(start.grid + _from_blocks(vectors @ gain @ adjoint), rep)
