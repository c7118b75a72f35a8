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
Hamiltonian H.  The plane waves e_m(j, k) = exp(i pi (m1 j + m2 k) / N)
multiply as

    e_m # e_n = exp(i pi (n1 m2 - n2 m1) / N) e_{m+n},

so with hats for numpy's fft2 the bracket is a twisted convolution over the
Fourier support of H:

    fft2({H, a})[p] = (2i/(2N)^2) sum_m H^_m sin(pi (p1 m2 - p2 m1) / N) a^[p - m],

or in real space (1/(2N)^2) sum_m H^_m e_m(j, k) (a(j+m2, k-m1) - a(j-m2, k+m1)).
evolve_symbol counts the K modes of H^ above the FFT round-off floor that
do not commute with everything, and runs RK4 on a^: per right-hand side one
gather and one weighted sum over the K modes, O(K N^2), with one inverse
transform at the end.  The modes go in blocks of at most 2^16 spectrum
entries, so memory stays O(N^2 + K N).  When all modes fit in one block its
weights and indices are built once; otherwise every call rebuilds them.
Timing both routes for N = 2..128 puts the crossover with the FFT bracket
above K = 4N for a block built once and between K = N/2 and K = 2N for
rebuilt ones, so the twisted route runs up to K = 4N with one block and up
to K = N/2 with more; denser Hamiltonians call the FFT bracket on every
right-hand side.

On either route the right-hand side is a fixed linear map L, so one RK4
step of size dt is the matrix

    P = I + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24

and s steps are P^s.  When the state has at most 144 entries (N <= 6) and
4 s is at least that many, _rk4 folds the steps: L from the right-hand
sides of the (2N)^2 unit vectors, P by Horner's rule, P^s by repeated
squaring.  That is (2N)^2 right-hand sides and O(N^6 log s) arithmetic in
place of 4 s right-hand sides, so K only enters the (2N)^2 right-hand sides
and s only enters through log s.  Only rounding changes: the fold and the
loop agree to a few 1e-14 relative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, DomainError
from .quantize import quantize_sampled
from .rep import Representation
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


def moyal_product(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Noncommutative product a # b; quantizes to the operator product."""
    rep = _same_rep(a, b)
    return SampledSymbol(_from_correlation(_correlation(a.grid, b.grid, rep.dim)), rep)


def moyal_bracket(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Moyal bracket {a, b} = a # b - b # a, the four-fold sum with the sine
    kernel (2i/(2N)^2) sum a b sin(pi (r v - u s)/N); quantizes to the
    commutator."""
    rep = _same_rep(a, b)
    return SampledSymbol(_bracket_grids(a.grid, b.grid, rep.dim), rep)


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


# Mode blocks of the twisted route hold at most this many spectrum entries,
# which bounds its memory by a few MB whatever K and N are.
_BLOCK_ENTRIES = 1 << 16


def _twisted_generator(energy: np.ndarray, n: int):
    """The map fft2(a) -> fft2(2 i pi N {H, a}) on flattened spectra, as a
    twisted convolution over the Fourier support of H; None when that support
    has too many modes for the route to beat the FFT bracket."""
    side = 2 * n
    spectrum = np.fft.fft2(energy)
    m1, m2 = np.nonzero(np.abs(spectrum) > 1e-13 * np.max(np.abs(spectrum)))
    # Modes with m1 and m2 both in {0, N} have a zero sine at every p: they
    # commute with every symbol.
    moving = (m1 % n != 0) | (m2 % n != 0)
    m1, m2 = m1[moving, None, None], m2[moving, None, None]
    per_block = max(1, _BLOCK_ENTRIES // side**2)
    # Route rule from timing both routes per right-hand side for N = 2..128:
    # one block built once stays faster than the FFT bracket up to K = 4N;
    # blocks rebuilt on every call cost 4-10 times as much per entry and
    # stay faster up to K = N/2.
    if len(m1) > (4 * n if len(m1) <= per_block else n // 2):
        return None
    p1, p2 = np.arange(side)[:, None], np.arange(side)
    coefficients = (2j * np.pi * n) * (2j / side**2) * spectrum[m1, m2]
    # sin(pi (p1 m2 - p2 m1) / N) = sines[turn - back] with the table over
    # two periods, so a block needs no modulo over its (2N)^2 entries.
    sines = np.sin(np.pi * np.arange(2 * side) / n)
    turn, back = (p1 * m2) % side + side, (p2 * m1) % side
    row, column = ((p1 - m1) % side) * side, (p2 - m2) % side

    def block(modes):
        """Weights and flat gather indices of a block of modes, each (modes, (2N)^2)."""
        weights = coefficients[modes] * sines[turn[modes] - back[modes]]
        shape = (len(weights), side * side)
        return weights.reshape(shape), (row[modes] + column[modes]).reshape(shape)

    def apply(flat_spectrum, weights, index):
        terms = flat_spectrum.take(index)  # terms[k, p] = a^[p - m_k]
        terms *= weights
        return terms.sum(axis=0)

    if len(m1) <= per_block:
        weights, index = block(slice(None))
        return lambda flat_spectrum: apply(flat_spectrum, weights, index)
    # Rebuilding each block on every call keeps memory O(N^2 + K N).
    blocks = [slice(start, start + per_block) for start in range(0, len(m1), per_block)]
    return lambda flat_spectrum: sum(
        (apply(flat_spectrum, *block(modes)) for modes in blocks), np.zeros_like(flat_spectrum)
    )


# A state of at most this many entries (N <= 6) folds its RK4 steps into one
# step matrix.  Timed at 500 steps with one BLAS thread, the fold beats the
# loop on both routes up to N = 6.  On a four-mode Hamiltonian it breaks even
# at N = 7 and takes 2.4 times as long at N = 8, although the FFT-bracket
# route still runs 3.7 times faster folded there.
_FOLD_ENTRIES = 144


def _rk4(rhs, y: np.ndarray, t: float, steps: int) -> np.ndarray:
    dt = t / steps
    if y.size <= min(_FOLD_ENTRIES, 4 * steps):
        # rhs is a fixed linear map L: fold the steps into P^steps (module notes).
        identity = np.eye(y.size, dtype=complex)
        generator = np.stack([rhs(e.reshape(y.shape)).ravel() for e in identity], axis=1)
        step = identity
        for k in (4, 3, 2, 1):
            step = identity + (dt / k) * (generator @ step)
        return (np.linalg.matrix_power(step, steps) @ y.ravel()).reshape(y.shape)
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def evolve_symbol(system: HamiltonianSystem, start: SampledSymbol, t: float, steps: int) -> SampledSymbol:
    """Integrate the symbol evolution d a / dt = 2 i pi N {H, a} with fixed-step RK4.

    The sign matches evolve_operator: quantizing the result approximates
    evolve_operator of the quantized start with O(step^4) global error.
    A Hamiltonian with few Fourier modes (at most 4N, or N/2 at large N)
    steps through its twisted convolution, any other through the FFT
    bracket (see the module notes).  At N <= 6, when 4 steps >= (2N)^2, the
    steps fold into one step matrix raised to the power steps: (2N)^2
    right-hand sides and about 2 log2(steps) products of (2N)^2 x (2N)^2
    matrices in place of 4 steps right-hand sides.
    """
    rep = _same_rep(system, start)
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise DomainError(f"steps must be a positive integer, got {steps!r}")
    _require_real_time(t)
    n = rep.dim
    energy = system.hamiltonian.grid
    generator = _twisted_generator(energy, n)
    if generator is None:
        rate = 2j * np.pi * n
        grid = _rk4(lambda grid: rate * _bracket_grids(energy, grid, n), start.grid, t, steps)
    else:
        # Only the change is transformed back, so a Hamiltonian that moves
        # nothing returns the start grid bit for bit.
        spectrum = np.fft.fft2(start.grid).ravel()
        change = (_rk4(generator, spectrum, t, steps) - spectrum).reshape(start.grid.shape)
        grid = start.grid + np.fft.ifft2(change)
    if not np.all(np.isfinite(grid)):
        raise DomainError(
            f"the evolved symbol is not finite at t={t!r} with steps={steps}: "
            "the RK4 step t/steps is too large"
        )
    return SampledSymbol(grid, rep)
