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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, DomainError
from .quantize import quantize_sampled
from .rep import Representation
from .symbols import SampledSymbol, TrigPolynomial, sample

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


def _bracket_grids(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return _from_correlation(_correlation(a, b, n) - _correlation(b, a, n))


def _require_same_rep(a: SampledSymbol, b: SampledSymbol):
    if a.rep != b.rep:
        raise DimensionError("Moyal operations need both symbols in the same representation")


def moyal_product(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Noncommutative product a # b; quantizes to the operator product."""
    _require_same_rep(a, b)
    return SampledSymbol(_from_correlation(_correlation(a.grid, b.grid, a.rep.dim)), a.rep)


def moyal_bracket(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Moyal bracket {a, b} = a # b - b # a, the four-fold sum with the sine
    kernel (2i/(2N)^2) sum a b sin(pi (r v - u s)/N); quantizes to the
    commutator."""
    _require_same_rep(a, b)
    return SampledSymbol(_bracket_grids(a.grid, b.grid, a.rep.dim), a.rep)


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
    the quantized Hamiltonian Hermitian.
    """

    hamiltonian: SampledSymbol
    rep: Representation = None

    def __post_init__(self):
        if self.rep is None:
            object.__setattr__(self, "rep", self.hamiltonian.rep)
        elif self.rep != self.hamiltonian.rep:
            raise DimensionError("system representation differs from the Hamiltonian grid's")
        grid = self.hamiltonian.grid
        scale = max(1.0, float(np.max(np.abs(grid))))
        if float(np.max(np.abs(grid.imag))) > 1e-12 * scale:
            raise DomainError("Hamiltonian grid must be real")

    def operator(self) -> np.ndarray:
        """Quantized Hamiltonian (Hermitian)."""
        return quantize_sampled(self.hamiltonian)


def evolve_operator(system: HamiltonianSystem, operator, t: float) -> np.ndarray:
    """Heisenberg evolution A(t) = exp(+2 i pi N t H) A exp(-2 i pi N t H).

    Uses the eigendecomposition of the quantized Hamiltonian, so the result
    is exact up to diagonalization error at any t.
    """
    a = np.asarray(operator, dtype=complex)
    n = system.rep.dim
    if a.shape != (n, n):
        raise DimensionError(f"operator must be {n} x {n}, got shape {a.shape}")
    energies, vectors = np.linalg.eigh(system.operator())
    propagator = (vectors * np.exp(2j * np.pi * n * t * energies)) @ vectors.conj().T
    return propagator @ a @ propagator.conj().T


def evolve_symbol(system: HamiltonianSystem, start: SampledSymbol, t: float, steps: int) -> SampledSymbol:
    """Integrate the symbol evolution d a / dt = 2 i pi N {H, a} with fixed-step RK4.

    The sign matches evolve_operator: quantizing the result approximates
    evolve_operator of the quantized start with O(step^4) global error.
    """
    if system.rep != start.rep:
        raise DimensionError("starting symbol lives in a different representation")
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise DomainError(f"steps must be a positive integer, got {steps!r}")
    n = system.rep.dim
    energy = system.hamiltonian.grid
    rate = 2j * np.pi * n

    def rhs(grid):
        return rate * _bracket_grids(energy, grid, n)

    dt = t / steps
    grid = np.array(start.grid)
    for _ in range(steps):
        k1 = rhs(grid)
        k2 = rhs(grid + 0.5 * dt * k1)
        k3 = rhs(grid + 0.5 * dt * k2)
        k4 = rhs(grid + dt * k3)
        grid = grid + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return SampledSymbol(grid, system.rep)
