"""Moyal product and bracket on the lattice, and Heisenberg dynamics.

The noncommutative product of two sampled symbols is a four-fold sum over
lattice shifts with a quadratic phase kernel:

    (a # b)(j, k) = (1/(2N)^2) sum_{r,s,u,v} a(j+r, k+s) b(j+u, k+v)
                    exp(i pi (r v - u s) / N)

with all grid indices mod 2N.  Quantization turns # into the operator
product and the bracket into the commutator, exactly, for arbitrary grids.
The kernels do not involve theta, so equal grids give equal results in any
representation of the same dimension.

The kernel is shift-invariant, so each of the four shifted quantizations
Q_c(a) = quantize_sampled(a(. + c)), c = (c1, c2) in {0, 1}^2, also turns
# into the operator product.  Read off the row DFT F2 a of the grid,

    Q_c(a)[i, j] = (1/2N) sum_{h=0,1} F2 a(i+j+hN+c1, j-i+hN) exp(i pi c2 (j-i+hN) / N);

the phase of h = 1 is minus that of h = 0, so the two terms meet in a sum
for c2 = 0 and a difference for c2 = 1.  The four maps together carry the
2N x 2N grids one-to-one onto four copies of M_N: the stacked map is
sqrt(1/N) times a unitary, so its inverse is N times its adjoint.  For
each c1 the (h, i, j) above name the entries with row + column = c1 mod 2
once each, so together they read the 4N^2 entries of F2 a in one fixed
permutation, built once per N; the forward map takes it after the row DFT,
and the adjoint takes its inverse before one row inverse DFT.
a # b is the inverse of the four products Q_c(a) Q_c(b), and {a, b} that
of the four commutators, which makes {a, a} exactly zero.  Each costs
O(N^3) for the products and O(N^2 log N) for the transforms; the test
suite pins both against the literal sums.

Heisenberg dynamics integrates d a / dt = 2 i pi N {H, a} for a fixed
real Hamiltonian H.  In the same blocks the bracket is the commutator,
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quantize import quantize_sampled
from .rep import Representation, _check_operator, _finite_real
from .symbols import SampledSymbol, TrigPolynomial, _same_rep, sample

__all__ = [
    "HamiltonianSystem",
    "moyal_product",
    "moyal_bracket",
    "poisson_bracket",
    "semiclassical_residual",
    "evolve_operator",
    "evolve_symbol",
]


@functools.lru_cache(maxsize=8)
def _block_tables(n: int) -> tuple:
    """Read-only tables of the block maps, built once per N (see the module notes): the
    permutation picks[c1, h, i, j] = rows * 2N + columns, columns = j - i + hN and rows =
    columns + 2i + c1 mod 2N, its inverse back, and twist[i, j] = exp(i pi (j - i) / N)."""
    k = np.arange(2 * n, dtype=np.min_scalar_type(-4 * n * n))  # holds every flat index
    columns = (k[:n] - k[:n, None] + k[::n, None, None]) % (2 * n)
    picks = (columns + 2 * k[:n, None] + k[:2, None, None, None]) % (2 * n) * (2 * n) + columns
    back = np.empty(4 * n * n, dtype=k.dtype)
    back[picks.ravel()] = np.arange(4 * n * n, dtype=k.dtype)
    tables = picks, back.reshape(2 * n, 2 * n), np.exp((1j * np.pi / n) * k)[columns[0]]
    for table in tables:
        table.flags.writeable = False
    return tables


def _to_blocks(grids: np.ndarray) -> np.ndarray:
    """The blocks Q_c of 2N x 2N grids on the last two axes, on new axes (c2, c1) before them."""
    picks, _, twist = _block_tables(grids.shape[-1] // 2)
    picked = np.fft.fft(grids, axis=-1, norm="forward").reshape(grids.shape[:-2] + (-1,)).take(picks, axis=-1)
    even, odd = picked[..., 0, :, :], picked[..., 1, :, :]
    return np.stack([even + odd, twist * (even - odd)], axis=-4)


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """The grid whose blocks Q_c are blocks[..., c2, c1, :, :], the inverse of _to_blocks."""
    n = blocks.shape[-1]
    _, back, twist = _block_tables(n)
    plain, twisted = blocks[..., 0, :, :, :], twist.conj() * blocks[..., 1, :, :, :]
    spectrum = np.stack([plain + twisted, plain - twisted], axis=-3).reshape(blocks.shape[:-4] + (-1,))
    spectrum = spectrum.take(back, axis=-1)
    return n * np.fft.ifft(spectrum, axis=-1)


def moyal_product(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Noncommutative product a # b; quantizes to the operator product."""
    rep = _same_rep(a, b)
    left, right = _to_blocks(np.stack([a.grid, b.grid]))
    return SampledSymbol(_from_blocks(left @ right), rep)


def moyal_bracket(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Moyal bracket {a, b} = a # b - b # a, the four-fold sum with the sine
    kernel (2i/(2N)^2) sum a b sin(pi (r v - u s)/N); quantizes to the
    commutator."""
    rep = _same_rep(a, b)
    left, right = _to_blocks(np.stack([a.grid, b.grid]))
    return SampledSymbol(_from_blocks(left @ right - right @ left), rep)


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


def evolve_operator(system: HamiltonianSystem, operator, t: float) -> np.ndarray:
    """Heisenberg evolution A(t) = exp(+2 i pi N t H) A exp(-2 i pi N t H).

    Uses the eigendecomposition of the quantized Hamiltonian, so the result
    is exact up to diagonalization error at any t whose phases stay finite.
    """
    _finite_real(t, "t")
    a = _check_operator(system.rep, operator)
    n = system.rep.dim
    energies, vectors = np.linalg.eigh(system.operator())
    phases = 2 * np.pi * n * t * energies
    if not np.all(np.isfinite(phases)):
        raise DomainError(f"t = {t!r} overflows the phases 2 pi N t E")
    propagator = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    return propagator @ a @ propagator.conj().T


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
    _finite_real(t, "t")
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
    reach = 2 * math.pi * n * abs(dt) * float(np.max(energies[..., -1] - energies[..., 0]))
    if reach > 2 * math.sqrt(2):
        raise DomainError(
            f"t={t!r} with steps={steps} is past the RK4 stability limit: "
            f"2 pi N |t/steps| (E_max - E_min) = {reach:.6e} > 2 sqrt(2) = {2 * math.sqrt(2):.6e}"
        )
    # R(iy) = 1 - y^2/2 + y^4/24 + i (y - y^3/6) with |R(iy)|^2 = 1 - y^6/72 + y^8/576.
    # Taking the power in polar form, through log1p of |R|^2 - 1, keeps
    # |R|^steps accurate to rounding for any step count.
    y = (2 * math.pi * n * dt) * (energies[..., :, None] - energies[..., None, :])
    y2 = y * y
    log_r = 0.5 * np.log1p(y2**3 * (y2 / 576 - 1 / 72)) + 1j * np.arctan2(
        y * (1 - y2 / 6), 1 - y2 / 2 + y2 * y2 / 24
    )
    adjoint = vectors.conj().swapaxes(-2, -1)
    # Only the change is transformed back, so rounding stays at the size of the change.
    gain = np.expm1(float(steps) * log_r) * (adjoint @ start_blocks @ vectors)
    return SampledSymbol(start.grid + _from_blocks(vectors @ gain @ adjoint), rep)
