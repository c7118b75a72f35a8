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
for c2 = 0 and a difference for c2 = 1.  For c2 = 1 the phase that is left,
exp(i pi (j - i) / N), is a similarity by the fixed diagonal unitary
D = diag(exp(i pi j / N)), so the maps leave it out and compute the blocks
Q_c for c2 = 0 and D Q_c D* for c2 = 1, a plain sum and difference over h.
Nothing that uses the blocks sees D: products and commutators carry it
through (D X D* D Y D* = D X Y D*), and in evolve_symbol D leaves the
energies of H_c as they are and turns its eigenvectors V into D V, which
cancels in V* A_c V and puts V g V* in the D form that the map back
takes.  The four maps together carry the 2N x 2N grids one-to-one onto four
copies of M_N: the stacked map is sqrt(1/N) times a unitary, so its inverse
is N times its adjoint.  For each c1 the (h, i, j) above name the entries
with row + column = c1 mod 2 once each, so together they read the 4N^2
entries of F2 a in one fixed permutation, _block_picks, built once per N;
the fold kernels of quantize read its block c = 0 through their own closed-form
index, quantize._fold_reads.  The forward
map copies its grids once, runs the row DFT in place on that copy, takes
the permutation and frees the copy, then writes the sum and the difference
over h into one preallocated stack of blocks.  The adjoint writes the sum
and the difference of the blocks through the permutation into one fresh
grid, runs the row inverse DFT and the scaling in place on it, and hands
that grid over.  a # b is the inverse of the four products Q_c(a) Q_c(b),
and {a, b} that of the four commutators, which makes {a, a} exactly zero.
Each costs O(N^3) for the products and O(N^2 log N) for the transforms;
the test suite pins both against the literal sums.

Heisenberg dynamics integrates d a / dt = 2 i pi N {H, a} for a fixed
real Hamiltonian H.  In the same blocks the bracket is the commutator,
so in block c the flow is d A_c / dt = 2 i pi N [H_c, A_c] with H_c
Hermitian.  In the eigenbasis of H_c this right-hand side multiplies entry
(i, j) by z_ij / dt, z_ij = 2 i pi N dt (E_i - E_j), and one RK4 step
multiplies it by R(z_ij) = 1 + z + z^2/2 + z^3/6 + z^4/24.  evolve_symbol
therefore applies steps RK4 steps exactly as R(z_ij)^steps, at the cost of
one batched eigh of four N x N matrices, a few N x N products and
O(N^2 log N) transforms, whatever the step count or the number of Fourier
modes of H.  Only rounding differs from stepping the bracket by hand.
Dropping the modes of H below 1e-13 of the largest first makes zero,
constant and central Hamiltonians exact, and removes the rounding that a
large constant c leaves in every mode, which kept would enter E_i - E_j at
about eps |c|.  For imaginary z, |R(z)| <= 1 exactly when |z| <= 2 sqrt(2);
evolve_symbol refuses a step past that limit, where RK4 grows without bound.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _shown
from .quantize import _from_reduced
from .rep import Representation, _checked, _finite_real, _is_integer, _past_float_range
from .symbols import SampledSymbol, TrigPolynomial, _fold, _handed_over, _same_rep, sample

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
def _block_picks(n: int) -> np.ndarray:
    """The read-only permutation of the block maps, built once per N (see the module notes): picks[c1,
    h, i, j] = rows * 2N + columns, with columns = j - i + hN and rows = columns + 2i + c1 mod 2N."""
    k = np.arange(2 * n, dtype=np.intp)
    columns = (k[:n] - k[:n, None] + k[::n, None, None]) % (2 * n)
    picks = (columns + 2 * k[:n, None] + k[:2, None, None, None]) % (2 * n) * (2 * n) + columns
    picks.flags.writeable = False
    return picks


def _to_blocks(grids) -> np.ndarray:
    """The blocks of 2N x 2N grids on the last two axes, on new axes (c2, c1) before them:
    Q_c for c2 = 0 and D Q_c D* for c2 = 1, D = diag(exp(i pi j / N)).  Products,
    commutators and eigenbases carry the fixed unitary D through, and _from_blocks
    takes it back, so no caller sees it (see the module notes).  grids is an array
    or a sequence of equal grids, copied once."""
    spectrum = np.array(grids, dtype=complex)
    np.fft.fft(spectrum, axis=-1, norm="forward", out=spectrum)
    picks = _block_picks(spectrum.shape[-1] // 2)
    picked = spectrum.reshape(spectrum.shape[:-2] + (-1,)).take(picks, axis=-1)
    del spectrum
    even, odd = picked[..., 0, :, :], picked[..., 1, :, :]
    blocks = np.empty_like(picked)  # (c1, h) axes in, (c2, c1) out
    np.add(even, odd, out=blocks[..., 0, :, :, :])
    np.subtract(even, odd, out=blocks[..., 1, :, :, :])
    return blocks


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """The grid whose blocks, Q_c for c2 = 0 and D Q_c D* for c2 = 1 as _to_blocks gives
    them, are blocks[c2, c1] of one (2, 2, N, N) stack: the inverse of _to_blocks, so the
    D of a block made there cancels here.  The grid returned is fresh."""
    n = blocks.shape[-1]
    picks = _block_picks(n)
    grid = np.empty((2 * n, 2 * n), dtype=complex)
    spectrum = grid.reshape(-1)
    spectrum[picks[:, 0]] = blocks[0] + blocks[1]
    spectrum[picks[:, 1]] = blocks[0] - blocks[1]
    np.fft.ifft(grid, axis=-1, out=grid)
    return np.multiply(n, grid, out=grid)


@np.errstate(over="ignore", invalid="ignore")
def moyal_product(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Noncommutative product a # b; quantizes to the operator product."""
    rep = _same_rep(a, b)
    left, right = _to_blocks((a.grid, b.grid))
    return SampledSymbol(_handed_over(_from_blocks(left @ right)), rep)


@np.errstate(over="ignore", invalid="ignore")
def moyal_bracket(a: SampledSymbol, b: SampledSymbol) -> SampledSymbol:
    """Moyal bracket {a, b} = a # b - b # a, the four-fold sum with the sine
    kernel (2i/(2N)^2) sum a b sin(pi (r v - u s)/N); quantizes to the
    commutator."""
    rep = _same_rep(a, b)
    left, right = _to_blocks((a.grid, b.grid))
    return SampledSymbol(_handed_over(_from_blocks(left @ right - right @ left)), rep)


def poisson_bracket(a: TrigPolynomial, b: TrigPolynomial) -> TrigPolynomial:
    """Classical bracket da/dx db/dp - da/dp db/dx on trig polynomials.

    The coefficient picked up at frequency n + m is
    -4 pi^2 (n1 m2 - n2 m1) a_n b_m.  A wedge n1 m2 - n2 m1 past the float range
    raises DomainError, as TrigPolynomial does for a coefficient that overflows.
    """
    out = {}
    for (n1, n2), ca in a.items():
        for (m1, m2), cb in b.items():
            wedge = n1 * m2 - n2 * m1
            if _past_float_range(wedge):
                raise DomainError(
                    f"frequencies {_shown((n1, n2))} and {_shown((m1, m2))} have a wedge past the float range"
                )
            if wedge:
                key = (n1 + m1, n2 + m2)
                out[key] = out.get(key, 0j) - 4 * np.pi**2 * wedge * ca * cb
    return TrigPolynomial(out)


@np.errstate(over="ignore", invalid="ignore")
def semiclassical_residual(a: TrigPolynomial, b: TrigPolynomial, rep: Representation) -> float:
    """Max lattice deviation between 2 pi N / i times the Moyal bracket and
    the Poisson bracket.

    Decays like 1/N^2; for a = exp(2 i pi x), b = exp(2 i pi p) it equals
    4 pi^2 |1 - sinc(pi / N)| exactly.  A grid or deviation that overflows raises DomainError.
    """
    deviation = (-2j * np.pi * rep.dim) * moyal_bracket(sample(a, rep), sample(b, rep)) - sample(
        poisson_bracket(a, b), rep
    )
    residual = float(np.max(np.abs(deviation.grid)))
    if not math.isfinite(residual):
        raise DomainError("semiclassical deviation entries must be finite")
    return residual


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """A real Hamiltonian grid on the lattice of a representation.

    The grid must be real, |imag| <= 1e-12 max(1, max |grid|), which makes the
    quantized Hamiltonian Hermitian; below magnitude 1 that limit is absolute, so
    a grid of scale 1e-20 may carry a 1e-14 imaginary part.  The rep is the grid's.
    """

    hamiltonian: SampledSymbol

    def __post_init__(self):
        grid = self.hamiltonian.grid
        scale = max(1.0, float(np.max(np.abs(grid))))
        # A modulus past the float range needs an imaginary part far above 1e-12 of it.
        if not math.isfinite(scale) or float(np.max(np.abs(grid.imag))) > 1e-12 * scale:
            raise DomainError("Hamiltonian grid must be real")

    @property
    def rep(self) -> Representation:
        return self.hamiltonian.rep

    @np.errstate(over="ignore", invalid="ignore")
    def operator(self) -> np.ndarray:
        """Quantized Hamiltonian (Hermitian); DomainError when it overflows."""
        n = self.rep.dim
        return _checked(_from_reduced(_fold(self.hamiltonian.grid, n)), "quantized Hamiltonian", (n, n))


@np.errstate(over="ignore", invalid="ignore")
def evolve_operator(system: HamiltonianSystem, operator, t: float) -> np.ndarray:
    """Heisenberg evolution A(t) = exp(+2 i pi N t H) A exp(-2 i pi N t H).

    Uses the eigendecomposition of the quantized Hamiltonian, so the result
    is exact up to diagonalization error at any t whose phases stay finite.
    A quantized Hamiltonian or a result that overflows raises DomainError.
    """
    _finite_real(t, "t")
    n = system.rep.dim
    a = _checked(operator, "operator", (n, n))
    energies, vectors = np.linalg.eigh(system.operator())
    phases = 2 * np.pi * n * t * energies
    if not np.all(np.isfinite(phases)):
        raise DomainError(f"t = {_shown(t)} overflows the phases 2 pi N t E")
    propagator = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    return _checked(propagator @ a @ propagator.conj().T, "evolved operator", (n, n))


@np.errstate(over="ignore", invalid="ignore")
def evolve_symbol(system: HamiltonianSystem, start: SampledSymbol, t: float, steps: int) -> SampledSymbol:
    """Apply steps fixed RK4 steps of size t/steps to d a / dt = 2 i pi N {H, a}.

    The sign matches evolve_operator: quantizing the result approximates
    evolve_operator of the quantized start with O(step^4) global error.
    The steps are applied exactly in the eigenbases of the four quantization
    blocks H_c of H (see the module notes): entry (i, j) of each block of
    the start gains the factor R(z_ij)^steps.  Fourier modes of H below
    1e-13 of the largest, and those with both indices in {0, N}, which
    commute with every symbol, are dropped first; a Hamiltonian with no other
    mode returns the start grid bit for bit.  A Hamiltonian whose spectrum overflows,
    or a step past RK4's stability limit, 2 pi N |t/steps| (E_max - E_min) > 2 sqrt(2)
    in some block, raises DomainError.
    """
    rep = _same_rep(system, start)
    if not _is_integer(steps) or steps < 1:
        raise DomainError(f"steps must be a positive integer, got {_shown(steps)}")
    _finite_real(t, "t")
    try:
        dt = float(t) / int(steps)
    except OverflowError:  # a step count past the float range
        raise DomainError("steps must be below 2**1024") from None
    n = rep.dim
    spectrum = np.fft.fft2(system.hamiltonian.grid)
    magnitude = np.abs(spectrum)
    peak = float(np.max(magnitude))
    if not math.isfinite(peak):
        raise DomainError("Hamiltonian spectrum entries must be finite")
    moving = magnitude > 1e-13 * peak
    moving[::n, ::n] = False  # modes in {0, N}^2 commute with every symbol
    if not moving.any():
        return start
    spectrum[~moving] = 0
    energy = np.fft.ifft2(spectrum)  # numpy ignores out= on ifft2, so this is a new grid
    del spectrum, magnitude, moving
    blocks = _to_blocks((energy, start.grid))
    del energy
    energies, vectors = np.linalg.eigh(blocks[0])
    reach = 2 * math.pi * n * abs(dt) * float(np.max(energies[..., -1] - energies[..., 0]))
    if reach > 2 * math.sqrt(2):
        raise DomainError(
            f"t={_shown(t)} with steps={_shown(steps)} is past the RK4 stability limit: "
            f"2 pi N |t/steps| (E_max - E_min) = {reach:.6e} > 2 sqrt(2) = {2 * math.sqrt(2):.6e}"
        )
    adjoint = vectors.conj().swapaxes(-2, -1)
    gain = adjoint @ blocks[1] @ vectors
    del blocks
    # R(iy) = 1 - y^2/2 + y^4/24 + i (y - y^3/6) with |R(iy)|^2 = 1 - y^6/72 + y^8/576.
    # Taking the power in polar form, through log1p of |R|^2 - 1, keeps
    # |R|^steps accurate to rounding for any step count.
    y = (2 * math.pi * n * dt) * (energies[..., :, None] - energies[..., None, :])
    y2 = y * y
    log_r = 0.5 * np.log1p(y2**3 * (y2 / 576 - 1 / 72)) + 1j * np.arctan2(
        y * (1 - y2 / 6), 1 - y2 / 2 + y2 * y2 / 24
    )
    del y, y2
    # Only the change is transformed back, so rounding stays at the size of the change.
    np.multiply(np.expm1(float(steps) * log_r), gain, out=gain)
    del log_r
    change = _from_blocks(vectors @ gain @ adjoint)
    return SampledSymbol(_handed_over(np.add(start.grid, change, out=change)), rep)
